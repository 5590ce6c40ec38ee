#ifndef CHRONOQUEL_BENCH_BENCH_UTIL_H_
#define CHRONOQUEL_BENCH_BENCH_UTIL_H_

// Shared helpers for the paper-figure benchmark binaries.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "benchlib/workload.h"
#include "core/database.h"
#include "exec/worker_pool.h"
#include "util/stringx.h"

namespace tdb {
namespace bench {

/// Aborts with a message when a Status is not OK (bench binaries have no
/// recovery path).
inline void CheckOk(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}

template <typename T>
T CheckOk(Result<T> result, const char* what) {
  CheckOk(result.status(), what);
  return std::move(result).value();
}

/// Runs queries `qs` at every update count 0..max_uc, returning
/// measurements[uc][qnum].
inline std::vector<std::map<int, Measure>> Sweep(
    BenchmarkDb* bench, int max_uc, const std::vector<int>& qs) {
  std::vector<std::map<int, Measure>> out;
  for (int uc = 0; uc <= max_uc; ++uc) {
    std::map<int, Measure> row;
    for (int q : qs) {
      if (bench->QueryText(q).empty()) continue;
      row[q] = CheckOk(bench->RunQuery(q), "query");
    }
    out.push_back(std::move(row));
    if (uc < max_uc) CheckOk(bench->UniformUpdateRound(), "update round");
  }
  return out;
}

/// Monotonic clock in milliseconds, for wall-clock reporting.  Timings go
/// to stderr only: stdout carries the paper's page counts and must stay
/// byte-identical run to run.
inline int64_t NowMillis() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The engine options every driver opens its databases with: the TDB_*
/// levers, read from the environment once per process.  Pass it to
/// BenchmarkDb::Create.
inline const DatabaseOptions& DriverOptions() {
  static const DatabaseOptions options = DatabaseOptions::FromEnv();
  return options;
}

/// Execution-engine context for benchmark reporting: the worker-thread
/// count the driver's databases run with (DriverOptions().exec_threads as
/// Database::Open clamps it) plus the host's actual hardware concurrency.
/// Recorded into BENCH_exec.json so thread-scaling numbers are
/// interpretable — a "4-thread" run on a 1-core host measures scheduling
/// overhead, not scaling.
struct ExecContext {
  int exec_threads = 1;
  unsigned hardware_concurrency = 1;

  static ExecContext Detect() {
    ExecContext ctx;
    ctx.exec_threads = ResolveExecThreads(DriverOptions().exec_threads);
    ctx.hardware_concurrency = std::thread::hardware_concurrency();
    if (ctx.hardware_concurrency == 0) ctx.hardware_concurrency = 1;
    return ctx;
  }
};

/// Number of worker threads for RunCells: hardware concurrency, capped at
/// the cell count, overridable via TDB_BENCH_THREADS (1 forces the serial
/// order, useful when debugging a cell in isolation).
inline size_t BenchThreads(size_t cells) {
  size_t threads = std::thread::hardware_concurrency();
  if (threads == 0) threads = 1;
  if (const char* env = std::getenv("TDB_BENCH_THREADS")) {
    long v = std::strtol(env, nullptr, 10);
    if (v > 0) threads = static_cast<size_t>(v);
  }
  return std::min(threads, cells);
}

/// Runs `cells` independent measurement cells concurrently and returns the
/// results indexed by cell, so downstream printing is byte-identical to a
/// serial sweep regardless of completion order.
///
/// Each cell function MUST build its own BenchmarkDb (in-memory Env +
/// Database): page counters and the logical clock are single-threaded by
/// design, and sharing them across cells would corrupt the paper metrics
/// (IoRegistry asserts on it in debug builds).  Page-I/O counts are
/// unaffected by the parallelism — every cell performs exactly the accesses
/// the serial run performs.
template <typename Fn>
auto RunCells(size_t cells, Fn&& fn) -> std::vector<decltype(fn(size_t{0}))> {
  using R = decltype(fn(size_t{0}));
  std::vector<R> results(cells);
  size_t threads = BenchThreads(cells);
  if (threads <= 1) {
    for (size_t i = 0; i < cells; ++i) results[i] = fn(i);
    return results;
  }
  std::atomic<size_t> next{0};
  auto worker = [&]() {
    while (true) {
      size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= cells) return;
      results[i] = fn(i);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (size_t t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (std::thread& th : pool) th.join();
  return results;
}

/// Optional `--metrics[=PATH]` support for the figure drivers: collects
/// one metrics snapshot per measurement cell and writes them on exit as a
/// JSON array — one {"cell": <label>, "metrics": {...}} object per cell,
/// in cell order — next to the figure's stdout capture (default PATH is
/// METRICS_<figure>.json).  stdout is never touched, so the paper tables
/// stay byte-identical whether or not the flag is given.
class MetricsSink {
 public:
  MetricsSink(int argc, char** argv, const std::string& default_path) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg == "--metrics") {
        path_ = default_path;
      } else if (arg.rfind("--metrics=", 0) == 0) {
        path_ = arg.substr(10);
      }
    }
  }

  bool enabled() const { return !path_.empty(); }

  /// Captures `db`'s current snapshot under `label`.  Thread-safe: cells
  /// call this concurrently from RunCells workers, each on its own
  /// Database.  No-op when --metrics was not given, so instrumented cells
  /// cost nothing in a plain run.
  void Add(size_t cell, const std::string& label, Database* db) {
    if (!enabled()) return;
    std::string json = db->Snapshot().ToJson();
    std::lock_guard<std::mutex> lock(mu_);
    cells_[cell] = "{\"cell\":\"" + label + "\",\"metrics\":" + json + "}";
  }

  /// Writes the collected snapshots in cell order; no-op when disabled.
  void Write() const {
    if (!enabled()) return;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write metrics to %s\n", path_.c_str());
      return;
    }
    std::fputs("[\n", f);
    bool first = true;
    for (const auto& [cell, json] : cells_) {
      (void)cell;
      if (!first) std::fputs(",\n", f);
      first = false;
      std::fputs(json.c_str(), f);
    }
    std::fputs("\n]\n", f);
    std::fclose(f);
    std::fprintf(stderr, "metrics written to %s\n", path_.c_str());
  }

 private:
  std::string path_;
  std::mutex mu_;
  std::map<size_t, std::string> cells_;
};

inline const char* LoadingName(int fillfactor) {
  return fillfactor == 100 ? "100%" : "50%";
}

inline std::vector<int> AllQueries() {
  return {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
}

}  // namespace bench
}  // namespace tdb

#endif  // CHRONOQUEL_BENCH_BENCH_UTIL_H_
