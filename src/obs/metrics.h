#ifndef CHRONOQUEL_OBS_METRICS_H_
#define CHRONOQUEL_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace tdb {
namespace obs {

/// A monotonically increasing count.  The write path is a single relaxed
/// atomic add and the read path a relaxed load: no locks anywhere, so
/// readers (snapshots) never stall the instrumented hot path.
class Counter {
 public:
  void Add(uint64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// A value that can move both ways (e.g. resident frames, active spans).
class Gauge {
 public:
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
  int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// A latency/size distribution over fixed log2 buckets: bucket i counts
/// samples v with bit_width(v) == i, i.e. bucket 0 holds v == 0, bucket i
/// holds 2^(i-1) <= v < 2^i.  Fixed buckets keep recording allocation-free
/// and the read path lock-free, at the cost of power-of-two resolution —
/// plenty for order-of-magnitude latency work.
class Histogram {
 public:
  /// 64 buckets cover the full uint64 range (bit_width in [0, 64]).
  static constexpr int kNumBuckets = 65;

  void Record(uint64_t v) {
    buckets_[BucketOf(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  static int BucketOf(uint64_t v) {
    int b = 0;
    while (v != 0) {
      v >>= 1;
      ++b;
    }
    return b;
  }

  /// Inclusive upper bound of bucket `i` (the largest value it can hold).
  static uint64_t BucketUpperBound(int i) {
    if (i <= 0) return 0;
    if (i >= 64) return ~uint64_t{0};
    return (uint64_t{1} << i) - 1;
  }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t bucket(int i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

/// The per-file buffer-pool / pager counters a Pager bumps on its hot
/// path.  Owned by the MetricsRegistry (one per instrumented file) and
/// reached through IoCounters::metrics, so the Pager needs no extra
/// constructor plumbing.  Structural invariants the differential tests
/// assert:  requests == hits + misses, and misses == read_pages (every
/// physical read is a buffer miss under the one-frame discipline).
struct PagerMetrics {
  Counter requests;     // ReadPage calls
  Counter hits;         // served from a resident frame
  Counter misses;       // required a physical read
  Counter evictions;    // a resident frame was displaced
  Counter read_pages;   // physical page reads
  Counter write_pages;  // physical page writes
  Counter syncs;        // fsync calls
  Counter key_compares; // stored keys compared with a probe or bound
};

/// Point-in-time dump of one histogram.
struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  /// Bucket counts, trimmed after the last non-zero bucket.
  std::vector<uint64_t> buckets;

  /// The p-th percentile (p in [0, 100]), as the inclusive upper bound of
  /// the log2 bucket holding the p-th sample — an over-estimate by at most
  /// 2x, which is the histogram's resolution.  p=100 bounds the maximum.
  /// 0 when the snapshot is empty.
  uint64_t Quantile(double p) const;
};

/// A structured, detached copy of every metric: safe to keep after the
/// Database is gone, cheap to diff (exact-count tests subtract two
/// snapshots), and serializable for the --metrics JSON artifacts.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  /// Value of a named counter; 0 when absent.
  uint64_t counter(const std::string& name) const;

  /// Sum of every counter whose name starts with `prefix` and ends with
  /// `suffix` (either may be empty) — e.g. SumCounters("bufpool.",
  /// ".misses") is the database-wide miss count.
  uint64_t SumCounters(const std::string& prefix,
                       const std::string& suffix) const;

  /// Single-line JSON object:
  ///   {"counters":{...},"gauges":{...},
  ///    "histograms":{"name":{"count":n,"sum":s,"buckets":[...]}}}
  std::string ToJson() const;
};

/// Registry of named metrics owned by one Database.  Creation (the first
/// counter()/histogram() call for a name) allocates under an internal
/// mutex so concurrent sessions can share one registry; the returned
/// pointers are stable for the registry's lifetime, so steady-state
/// instrumentation is pointer-chasing plus relaxed atomics — after the
/// one-time lookup, no locks on either the write or the read path.
///
/// A disabled registry (DatabaseOptions::metrics = false) is never wired
/// into the storage layer at all: every metrics pointer down the stack
/// stays null and the hot paths pay a single predictable branch, keeping
/// figure output byte-identical.
class MetricsRegistry {
 public:
  explicit MetricsRegistry(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Named metric accessors: create on first use, stable thereafter.
  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  Histogram* histogram(const std::string& name);

  /// The buffer-pool/pager counter block for one file (created on first
  /// use).  Surfaced in snapshots as "bufpool.<file>.<counter>" and
  /// "pager.<file>.<counter>".
  PagerMetrics* pager(const std::string& file_name);

  /// The ring-buffer trace sink spans record into.
  TraceSink* trace() { return &trace_; }

  MetricsSnapshot Snapshot() const;

 private:
  bool enabled_;
  mutable std::mutex mu_;  // guards the four name maps, not the metrics
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::unique_ptr<PagerMetrics>> pagers_;
  TraceSink trace_;
};

}  // namespace obs
}  // namespace tdb

#endif  // CHRONOQUEL_OBS_METRICS_H_
