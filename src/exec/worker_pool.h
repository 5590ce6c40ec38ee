#ifndef CHRONOQUEL_EXEC_WORKER_POOL_H_
#define CHRONOQUEL_EXEC_WORKER_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tdb {

/// Process-wide pool of helper threads for morsel-driven intra-query
/// parallelism.  One pool is shared by every Database in the process so that
/// concurrent queries (e.g. benchmark cells under RunCells) never multiply
/// thread counts.
///
/// The unit of dispatch is a worker id, not a task queue: Run(n, body)
/// guarantees body(id) executes exactly once for every id in [0, n).  The
/// calling thread participates as a worker (claiming ids alongside the
/// helpers), so Run never blocks on helper availability, and a busy pool —
/// a concurrent or nested Run — degrades to the caller executing every id
/// inline.  Parallelism is best-effort; the id contract is not.
///
/// Helpers are spawned lazily on the first multi-worker Run and joined in
/// the destructor, so single-threaded (paper-mode) processes never create a
/// thread.
class WorkerPool {
 public:
  static WorkerPool& Shared();

  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Runs body(id) for every id in [0, workers) and returns when all have
  /// finished.  workers <= 1 runs body(0) inline with zero synchronization.
  void Run(int workers, const std::function<void(int)>& body);

  /// Helper threads created so far (test observability).
  int thread_count() const;

 private:
  WorkerPool() = default;

  void EnsureThreads(int want);
  void HelperLoop();

  mutable std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::vector<std::thread> threads_;
  const std::function<void(int)>* body_ = nullptr;  // non-null while busy
  int total_ = 0;       // worker ids in the current Run
  int next_id_ = 0;     // next unclaimed id
  int completed_ = 0;   // bodies finished
  uint64_t epoch_ = 0;  // bumped per Run so helpers never re-enter old work
  bool busy_ = false;
  bool shutdown_ = false;
};

/// A bounded FIFO task queue drained by a fixed set of threads — the
/// dispatch half of the epoll server (net/server.cc): the event loop
/// enqueues one closure per ready connection and the workers run them to
/// completion.  Distinct from WorkerPool on purpose: WorkerPool's unit is
/// a worker id inside one fork-join region, while TaskPool's is an
/// independent task, and the bounded queue gives the producer backpressure
/// (Submit blocks while full) instead of inline degradation.
class TaskPool {
 public:
  /// `threads` workers are spawned immediately; `queue_capacity` bounds
  /// the number of queued-but-unstarted tasks.
  TaskPool(int threads, size_t queue_capacity);

  /// Runs Shutdown (drains the queue, joins every worker).
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// Enqueues one task, blocking while the queue is at capacity.  Returns
  /// false (task dropped) once Shutdown has begun.
  bool Submit(std::function<void()> task);

  /// Stops accepting tasks, lets the workers drain what is queued, and
  /// joins them.  Idempotent.
  void Shutdown();

  int thread_count() const { return static_cast<int>(threads_.size()); }

 private:
  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable cv_task_;   // queue non-empty or shutdown
  std::condition_variable cv_space_;  // queue below capacity
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> threads_;
  size_t capacity_;
  bool shutdown_ = false;
};

/// Clamps DatabaseOptions::exec_threads to [1, 64]: the executor thread
/// count a Database runs with (1 is the paper's single-threaded
/// measurement discipline).
int ResolveExecThreads(int option);

}  // namespace tdb

#endif  // CHRONOQUEL_EXEC_WORKER_POOL_H_
