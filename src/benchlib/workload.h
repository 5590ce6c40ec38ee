#ifndef CHRONOQUEL_BENCHLIB_WORKLOAD_H_
#define CHRONOQUEL_BENCHLIB_WORKLOAD_H_

#include <memory>
#include <string>
#include <vector>

#include "core/database.h"
#include "env/env.h"
#include "util/random.h"

namespace tdb {
namespace bench {

/// Configuration of one of the paper's test databases (Section 5.1): a
/// database type and a loading factor, with optional Section 6
/// enhancements (two-level store, secondary index on `amount`).
struct WorkloadConfig {
  DbType type = DbType::kTemporal;
  int fillfactor = 100;  // 100 or 50 in the paper
  int ntuples = 1024;
  uint64_t seed = 42;

  /// Buffer frames per relation (the paper fixes 1).
  int buffer_frames = 1;

  // Section 6 variants.
  bool two_level = false;
  bool clustered_history = false;
  std::string index_structure;  // "" (none), "heap", or "hash" on `amount`
  int index_levels = 1;

  // Production storage mode, applied over the DatabaseOptions passed to
  // Create; a zero/empty field keeps that options value.
  uint32_t page_size = 0;        // 0 = keep (paper default 1024)
  int pool_frames = 0;           // >0 enables the shared buffer pool
  int pool_file_cap = 0;         // 0 = keep (paper default 1); -1 = uncapped
  int exec_threads = 0;          // 0 = keep (default 1)
  std::string vacuum_partition;  // "" = keep (default "single")
  bool plan_cache = false;       // shared plan cache (paper default: off)
};

/// Measured I/O for one query execution.
struct Measure {
  uint64_t input_pages = 0;   // all page reads (incl. temp re-reads)
  uint64_t output_pages = 0;  // temp-relation page writes
  uint64_t fixed_pages = 0;   // ISAM directory + temp reads (Fig. 9 split)
  uint64_t rows = 0;
  // Disk-model estimate of the trace (random/sequential split + total ms).
  uint64_t random_accesses = 0;
  uint64_t sequential_accesses = 0;
  double modeled_ms = 0;
  /// Wall-clock of the Execute call (monotonic).  Diagnostic only — never
  /// printed to figure stdout, which reports the paper's page counts and
  /// must stay deterministic.
  double wall_ms = 0;
  /// One-line summary of the plan that produced these counts (e.g.
  /// "bench_h:keyed(current)"), so figure output is self-documenting.
  std::string plan;
  /// The annotated plan tree (Describe(true) of the executed plan).
  std::string plan_tree;
};

/// The paper's benchmark database: two relations `bench_h` (hashed on id)
/// and `bench_i` (ISAM on id), each with `ntuples` 108-byte tuples
///   id = i4 (key, 0..n-1), amount = i4, seq = i4 (starts 0), string = c96
/// plus the implicit time attributes of the configured type.  Transaction
/// start / valid from are randomized between Jan 1 and Feb 15, 1980.
///
/// Tuple id 500 carries amount 69400 and id 600 carries amount 73700 so the
/// benchmark's selective amount probes (Q07/Q08/Q12) match exactly one
/// tuple, as in the paper.
class BenchmarkDb {
 public:
  /// Builds the database in a private MemEnv.  `options` carries the
  /// engine configuration (the bench drivers pass the TDB_* levers they
  /// read at start-up; the default is paper mode); `config` overrides its
  /// storage fields where set.
  static Result<std::unique_ptr<BenchmarkDb>> Create(
      const WorkloadConfig& config, DatabaseOptions options = {});

  Database* db() { return db_.get(); }

  /// Closes the database and opens the same files again under the engine
  /// configuration `options` (the config's storage fields still apply, as
  /// in Create), keeping the logical clock and the h/i range declarations:
  /// one generated database measured under several configurations.
  Status Reopen(DatabaseOptions options);
  const WorkloadConfig& config() const { return config_; }

  /// One uniform update round: replaces every current version of both
  /// relations (seq += 1), raising the average update count by one.
  Status UniformUpdateRound();

  /// Replaces the single tuple `id` in both relations `times` times (the
  /// Section 5.4 maximum-variance experiment).
  Status UpdateSingleTuple(int id, int times);

  /// Q01..Q12 adapted to the database type (Figure 4); "" if the query is
  /// not applicable to this type.
  std::string QueryText(int qnum) const;

  /// Runs Qnn and reports its I/O.  Fails on inapplicable queries.
  Result<Measure> RunQuery(int qnum);

  /// Runs arbitrary TQuel under measurement.
  Result<Measure> RunText(const std::string& text);

  /// Total pages of one relation (primary + history + anchors), the Fig. 5
  /// space metric.
  Result<uint64_t> PagesOf(const std::string& suffix);  // "h" or "i"

  /// The current average update count applied via UniformUpdateRound.
  int update_count() const { return update_count_; }

  /// The key probed by Q01/Q02/Q05/Q06/Q12 (500 at paper scale, scaled
  /// down for smaller ntuples) and the ids carrying the pinned amounts.
  int probe_id() const { return probe_id_; }
  int amount_q7_id() const { return probe_id_; }
  int amount_q8_id() const { return probe2_id_; }

 private:
  BenchmarkDb() = default;

  /// Opens db_ on env_ under `options` with the config's fields applied.
  Status OpenDb(DatabaseOptions options);

  WorkloadConfig config_;
  std::unique_ptr<MemEnv> env_;
  std::unique_ptr<Database> db_;
  int update_count_ = 0;
  int probe_id_ = 500;
  int probe2_id_ = 600;
};

/// Simple fixed-width column table printer for the bench binaries.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);
  void AddRow(std::vector<std::string> cells);
  std::string ToString() const;

 private:
  std::vector<std::vector<std::string>> rows_;
};

/// Formats u64 / double cells.
std::string Cell(uint64_t v);
std::string Cell(double v, int precision = 2);

}  // namespace bench
}  // namespace tdb

#endif  // CHRONOQUEL_BENCHLIB_WORKLOAD_H_
