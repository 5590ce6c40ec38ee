#include "exec/worker_pool.h"

#include <algorithm>

namespace tdb {

int ResolveExecThreads(int option) { return std::clamp(option, 1, 64); }

WorkerPool& WorkerPool::Shared() {
  static WorkerPool pool;
  return pool;
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& t : threads_) t.join();
}

int WorkerPool::thread_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(threads_.size());
}

void WorkerPool::EnsureThreads(int want) {
  want = std::min(want, 63);
  while (static_cast<int>(threads_.size()) < want) {
    threads_.emplace_back([this] { HelperLoop(); });
  }
}

void WorkerPool::Run(int workers, const std::function<void(int)>& body) {
  if (workers <= 1) {
    body(0);
    return;
  }
  std::unique_lock<std::mutex> lock(mu_);
  if (busy_ || shutdown_) {
    // A concurrent (or nested) parallel region owns the pool.  Run every id
    // on this thread: correctness never depends on helper availability.
    lock.unlock();
    for (int id = 0; id < workers; ++id) body(id);
    return;
  }
  busy_ = true;
  body_ = &body;
  total_ = workers;
  next_id_ = 0;
  completed_ = 0;
  ++epoch_;
  EnsureThreads(workers - 1);
  cv_work_.notify_all();
  // The caller is a worker too: claim ids alongside the helpers
  // (work-stealing — a fast caller absorbs ids a lagging helper never gets).
  while (next_id_ < total_) {
    int id = next_id_++;
    lock.unlock();
    body(id);
    lock.lock();
    ++completed_;
  }
  cv_done_.wait(lock, [this] { return completed_ == total_; });
  body_ = nullptr;
  busy_ = false;
}

TaskPool::TaskPool(int threads, size_t queue_capacity)
    : capacity_(queue_capacity == 0 ? 1 : queue_capacity) {
  if (threads < 1) threads = 1;
  threads_.reserve(static_cast<size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

TaskPool::~TaskPool() { Shutdown(); }

bool TaskPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_space_.wait(lock,
                   [this] { return shutdown_ || queue_.size() < capacity_; });
    if (shutdown_) return false;
    queue_.push_back(std::move(task));
  }
  cv_task_.notify_one();
  return true;
}

void TaskPool::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) return;
    shutdown_ = true;
  }
  cv_task_.notify_all();
  cv_space_.notify_all();
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
}

void TaskPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    cv_task_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
    if (queue_.empty()) return;  // shutdown with a drained queue
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    cv_space_.notify_one();
    lock.unlock();
    task();
    lock.lock();
  }
}

void WorkerPool::HelperLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  uint64_t seen = 0;
  while (true) {
    cv_work_.wait(lock,
                  [&] { return shutdown_ || (busy_ && epoch_ != seen); });
    if (shutdown_) return;
    seen = epoch_;
    while (busy_ && next_id_ < total_) {
      int id = next_id_++;
      const std::function<void(int)>* body = body_;
      lock.unlock();
      (*body)(id);
      lock.lock();
      if (++completed_ == total_) cv_done_.notify_one();
    }
  }
}

}  // namespace tdb
