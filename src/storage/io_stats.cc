#include "storage/io_stats.h"

#include <cassert>

#include "obs/metrics.h"

namespace tdb {

const char* IoCategoryName(IoCategory c) {
  switch (c) {
    case IoCategory::kData:
      return "data";
    case IoCategory::kOverflow:
      return "overflow";
    case IoCategory::kDirectory:
      return "directory";
    case IoCategory::kIndex:
      return "index";
    case IoCategory::kTemp:
      return "temp";
  }
  return "?";
}

void AccumulateDelta(IoCounters* into, const IoCounters& before,
                     const IoCounters& after) {
  for (int i = 0; i < kNumIoCategories; ++i) {
    into->reads[i] += after.reads[i] - before.reads[i];
    into->writes[i] += after.writes[i] - before.writes[i];
  }
}

IoRegistry::StatementScope::StatementScope(IoRegistry* registry)
    : registry_(registry) {
  std::thread::id idle{};
  const bool entered = registry_->occupant_.compare_exchange_strong(
      idle, std::this_thread::get_id(), std::memory_order_acq_rel);
  assert(entered &&
         "two threads inside one session at once: a session (and the "
         "Database wrappers' default session) runs one statement at a time");
  (void)entered;
}

IoRegistry::StatementScope::~StatementScope() {
  std::thread::id self = std::this_thread::get_id();
  registry_->occupant_.compare_exchange_strong(self, std::thread::id{},
                                               std::memory_order_acq_rel);
}

void IoRegistry::CheckNoOtherThread() const {
  const std::thread::id occupant =
      occupant_.load(std::memory_order_acquire);
  assert((occupant == std::thread::id{} ||
          occupant == std::this_thread::get_id()) &&
         "IoRegistry touched while another thread runs a statement on it: "
         "each concurrent benchmark cell must own its Database exclusively");
  (void)occupant;
}

IoCounters* IoRegistry::ForFile(const std::string& file_name) {
  CheckNoOtherThread();
  auto it = by_file_.find(file_name);
  if (it == by_file_.end()) {
    it = by_file_.emplace(file_name, std::make_unique<IoCounters>()).first;
    it->second->trace = &trace_;
    it->second->trace_file_id = static_cast<uint32_t>(by_file_.size() - 1);
    if (metrics_ != nullptr) it->second->metrics = metrics_->pager(file_name);
  }
  return it->second.get();
}

void IoRegistry::set_metrics(obs::MetricsRegistry* metrics) {
  metrics_ = metrics;
  for (auto& [name, counters] : by_file_) {
    counters->metrics = metrics_ == nullptr ? nullptr : metrics_->pager(name);
  }
}

void IoRegistry::ResetAll() {
  CheckNoOtherThread();
  for (auto& [_, counters] : by_file_) counters->Reset();
}

IoCounters IoRegistry::Total() const {
  IoCounters total;
  for (const auto& [_, counters] : by_file_) total += *counters;
  return total;
}

}  // namespace tdb
