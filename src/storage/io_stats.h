#ifndef CHRONOQUEL_STORAGE_IO_STATS_H_
#define CHRONOQUEL_STORAGE_IO_STATS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace tdb {

namespace obs {
struct PagerMetrics;
class MetricsRegistry;
}  // namespace obs

/// Role of a page read/write.  Categorizing lets the Fig. 9 harness
/// *measure* (not estimate) the fixed portion of a query's cost, which the
/// paper defines as ISAM directory traversal plus temporary-relation I/O.
enum class IoCategory : uint8_t {
  kData = 0,       // primary data pages
  kOverflow = 1,   // overflow-chain pages
  kDirectory = 2,  // ISAM directory pages
  kIndex = 3,      // secondary index pages
  kTemp = 4,       // temporary relations
};
inline constexpr int kNumIoCategories = 5;

const char* IoCategoryName(IoCategory c);

/// One physical page access, in issue order.
struct IoEvent {
  uint32_t file_id = 0;  // registry-assigned id of the file
  uint32_t page = 0;
  bool write = false;
};

/// An ordered trace of page accesses, appended to by pagers when enabled.
/// The disk model (src/diskmodel) replays it to turn the paper's page
/// counts into modeled device times.
class IoTrace {
 public:
  void Record(uint32_t file_id, uint32_t page, bool write) {
    if (!enabled_) return;
    events_.push_back({file_id, page, write});
  }

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }
  void Clear() { events_.clear(); }
  const std::vector<IoEvent>& events() const { return events_; }

 private:
  bool enabled_ = false;
  std::vector<IoEvent> events_;
};

/// Page-granularity I/O counters for one file.
struct IoCounters {
  uint64_t reads[kNumIoCategories] = {0, 0, 0, 0, 0};
  uint64_t writes[kNumIoCategories] = {0, 0, 0, 0, 0};

  uint64_t TotalReads() const {
    uint64_t t = 0;
    for (uint64_t r : reads) t += r;
    return t;
  }
  uint64_t TotalWrites() const {
    uint64_t t = 0;
    for (uint64_t w : writes) t += w;
    return t;
  }
  void Reset() {
    for (uint64_t& r : reads) r = 0;
    for (uint64_t& w : writes) w = 0;
  }

  /// Optional trace hook (owned by the registry); pagers record each
  /// physical access through it.
  IoTrace* trace = nullptr;
  uint32_t trace_file_id = 0;

  /// Optional buffer-pool/pager metrics for this file (owned by the
  /// Database's obs::MetricsRegistry).  Null when metrics are disabled —
  /// the Pager's only added cost is then one predictable branch per site.
  obs::PagerMetrics* metrics = nullptr;

  IoCounters& operator+=(const IoCounters& o) {
    for (int i = 0; i < kNumIoCategories; ++i) {
      reads[i] += o.reads[i];
      writes[i] += o.writes[i];
    }
    return *this;
  }
};

/// Adds `after - before` (per category, reads and writes) into `into`.
/// Used by the executor to attribute registry-wide I/O to the plan node
/// whose storage operation ran between the two snapshots; the trace fields
/// are not touched.
void AccumulateDelta(IoCounters* into, const IoCounters& before,
                     const IoCounters& after);

/// Registry of per-file counters owned by a Database.  The paper's metric —
/// "we counted only disk accesses to user relations, and allocated only 1
/// buffer for each user relation" — is implemented by giving every file a
/// single-frame Pager whose counters live here.  System-catalog I/O is not
/// routed through the registry, matching the paper's exclusion of system
/// relations.
///
/// NOT thread-safe, by design: counters are plain fields so the measured
/// page counts stay deterministic.  Each Session owns one registry and runs
/// one statement at a time, so a registry has one writer at any moment;
/// successive statements may come from different threads (the epoll server
/// hands a connection to whichever worker is free).  The parallel benchmark
/// driver (bench/bench_util.h) gives every concurrent cell its own Env +
/// Database.  Debug builds enforce the rule: a StatementScope marks the
/// thread inside a statement, and a second thread entering a statement or
/// touching the counters meanwhile asserts.
class IoRegistry {
 public:
  /// Marks the calling thread as the one running a statement on this
  /// registry for the scope's lifetime, asserting (debug builds) that no
  /// other thread is running one.
  class StatementScope {
   public:
    explicit StatementScope(IoRegistry* registry);
    ~StatementScope();
    StatementScope(const StatementScope&) = delete;
    StatementScope& operator=(const StatementScope&) = delete;

   private:
    IoRegistry* registry_;
  };

  /// Returns (creating if needed) the counters for `file_name`.  The
  /// returned pointer stays valid for the registry's lifetime.
  IoCounters* ForFile(const std::string& file_name);

  /// Zeroes every counter (called before each measured query).
  void ResetAll();

  /// Sum over all files.
  IoCounters Total() const;

  /// Sum over files whose name contains/excludes the temp marker is not
  /// needed: temp pagers tag their I/O with IoCategory::kTemp instead.
  const std::map<std::string, std::unique_ptr<IoCounters>>& by_file() const {
    return by_file_;
  }

  /// The shared access trace: disabled by default; enable around a query to
  /// feed the disk model.
  IoTrace* trace() { return &trace_; }

  /// Attaches (or detaches, with nullptr) an observability registry: every
  /// present and future per-file IoCounters gets its `metrics` pointer set
  /// to that registry's PagerMetrics block for the same file name.  The
  /// Database calls this once at Open when metrics are enabled; when it
  /// never does, instrumentation stays entirely unwired.
  void set_metrics(obs::MetricsRegistry* metrics);
  obs::MetricsRegistry* metrics() const { return metrics_; }

 private:
  std::map<std::string, std::unique_ptr<IoCounters>> by_file_;
  obs::MetricsRegistry* metrics_ = nullptr;
  IoTrace trace_;
  /// Asserts (debug builds) that no other thread is inside a statement.
  /// Kept out of the per-tuple Total() path; ForFile and ResetAll call it.
  void CheckNoOtherThread() const;
  /// The thread inside a StatementScope; default-constructed while none
  /// is.  Atomic so the guard itself is race-free.
  std::atomic<std::thread::id> occupant_{};
};

}  // namespace tdb

#endif  // CHRONOQUEL_STORAGE_IO_STATS_H_
