#ifndef CHRONOQUEL_CATALOG_CATALOG_H_
#define CHRONOQUEL_CATALOG_CATALOG_H_

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "env/env.h"
#include "storage/isam_file.h"
#include "storage/journal.h"
#include "storage/storage_file.h"
#include "types/schema.h"
#include "util/status.h"

namespace tdb {

/// Metadata of a secondary index (Section 6 of the paper): an index over a
/// non-key attribute whose entries are (key, tid) pairs.  `levels` selects
/// the 1-level organization (one structure over all versions) or the
/// 2-level organization (a current index plus a history index).
struct IndexMeta {
  std::string name;          // base file name of the index
  std::string attr;          // indexed user attribute
  Organization org = Organization::kHeap;  // kHeap or kHash structure
  int levels = 1;            // 1 or 2
  uint32_t nbuckets = 0;     // hash structure: buckets (current part)
  uint32_t history_nbuckets = 0;  // hash structure, 2-level history part

  std::string CurrentFileName() const { return name + ".idx"; }
  std::string HistoryFileName() const { return name + ".idh"; }
};

/// Everything the system knows about one relation.  This is the in-memory
/// image of the (modified) Ingres system relations described in Section 4.
/// One epoch-partitioned history segment of a two-level relation: history
/// versions whose retirement stamp falls in [lo, hi) that a `vacuum`
/// migrated out of the active history store.
struct SegmentMeta {
  uint32_t id = 0;  // 1-based; 0 is reserved for the active history file
  int64_t lo = 0;   // epoch bounds in seconds (half-open, [lo, hi))
  int64_t hi = 0;
};

struct RelationMeta {
  std::string name;
  Schema schema;
  Organization org = Organization::kHeap;
  std::string key_attr;        // hash / isam key attribute
  int fillfactor = 100;
  uint32_t hash_buckets = 0;   // hash organization
  IsamMeta isam;               // isam organization

  /// Two-level store (Section 6): the primary file keeps only current
  /// versions; history versions move to a history store on update.
  bool two_level = false;
  /// Clustered history: versions of one tuple share per-tuple chains
  /// (implemented as a per-key hash store); otherwise a simple heap.
  bool clustered_history = false;
  uint32_t history_buckets = 0;

  std::vector<IndexMeta> indexes;

  /// Vacuumed history segments (in creation order, ids unique).
  std::vector<SegmentMeta> segments;

  std::string DataFileName() const { return name + ".dat"; }
  std::string HistoryFileName() const { return name + ".hst"; }
  std::string SegmentFileName(uint32_t id) const;
  const SegmentMeta* FindSegmentFor(int64_t stamp) const;
  uint32_t NextSegmentId() const;

  const IndexMeta* FindIndex(const std::string& attr) const;
};

/// Cardinality statistics for one relation, the inputs of the planner's
/// cost model: version counts, page counts per store, and a per-user-
/// attribute distinct count.  Stats are advisory — they steer plan choice
/// but can never change results — so they are computed lazily (only when
/// cost-based join planning asks) and invalidated wholesale on any DML or
/// DDL against the relation.  Paper mode never computes them, keeping the
/// measured page counts untouched.
struct RelationStats {
  uint64_t rows = 0;           // versions reachable by a full scan
  uint64_t primary_pages = 0;  // primary store pages
  uint64_t history_pages = 0;  // two-level history store pages
  /// Distinct values per user attribute (by attribute name).
  std::map<std::string, uint64_t> distinct;

  uint64_t pages() const { return primary_pages + history_pages; }
  /// Distinct count for `attr`, defaulting to `rows` (every value unique)
  /// when the attribute was never profiled.
  uint64_t DistinctOr(const std::string& attr, uint64_t fallback) const;
};

/// The system catalog: relation metadata keyed by (case-insensitive) name,
/// persisted as a text file in the database directory.  Catalog I/O is not
/// routed through the measured pagers, matching the paper's exclusion of
/// system-relation accesses from the benchmark metric.
class Catalog {
 public:
  Catalog(Env* env, std::string dir) : env_(env), dir_(std::move(dir)) {}

  /// Routes catalog rewrites through the database's journal so DDL rolls
  /// back atomically.  Nullable; catalog reads stay unjournaled.
  void set_journal(Journal* journal) { journal_ = journal; }

  /// Loads the catalog file if present.
  Status Load();
  /// Writes the catalog file.
  Status Save() const;

  Status Create(RelationMeta meta);
  Status Drop(const std::string& name);
  /// Returns nullptr when absent.
  RelationMeta* Find(const std::string& name);
  const RelationMeta* Find(const std::string& name) const;

  std::vector<std::string> RelationNames() const;

  /// Replaces the stored metadata for `meta.name` (used by `modify`).
  Status Update(const RelationMeta& meta);

  /// Cached statistics for `name`, or nullptr when none have been computed
  /// since the last invalidation.  Stats live only in memory; they are never
  /// persisted with the catalog file.  The map is mutex-guarded so sessions
  /// planning different relations can race; the returned pointer stays
  /// valid while the caller holds its statement lock on `name` (only a
  /// writer with the exclusive lock invalidates that entry).
  const RelationStats* FindStats(const std::string& name) const;
  void SetStats(const std::string& name, RelationStats stats);
  /// Drops the cached stats for one relation (any DML/DDL against it).
  /// `row_delta` is the change the statement made to the relation's
  /// version count, which feeds StatsEpoch.
  void InvalidateStats(const std::string& name, int64_t row_delta = 0);
  void InvalidateAllStats();
  /// A per-relation counter that moves when the relation's version count
  /// has doubled or halved since it last moved, counted from the first
  /// stats computed for it and tracked through DML row deltas after that.
  /// Cost-planned plan-cache keys carry it: a plan chosen on stats is
  /// re-planned once the stats have changed that much, and not on every
  /// write.
  uint64_t StatsEpoch(const std::string& name) const;

  /// The catalog file, written by the first DDL statement.
  std::string CatalogPath() const { return dir_ + "/catalog.meta"; }

 private:
  Env* env_;
  std::string dir_;
  Journal* journal_ = nullptr;
  std::map<std::string, RelationMeta> relations_;  // lower-cased name
  /// Version counts behind StatsEpoch: `rows` now, `base` when the epoch
  /// last moved.
  struct RowTrack {
    int64_t base = 0;
    int64_t rows = 0;
    uint64_t epoch = 0;
  };
  /// Moves `t`'s epoch when its rows doubled or halved since `base`.
  static void AdvanceEpoch(RowTrack* t);

  mutable std::mutex stats_mu_;  // guards stats_ and row_tracks_
  std::map<std::string, RelationStats> stats_;     // lower-cased name
  std::map<std::string, RowTrack> row_tracks_;     // lower-cased name
};

/// Serialization used by Catalog (exposed for tests).
std::string SerializeRelationMeta(const RelationMeta& meta);
Result<RelationMeta> ParseRelationMeta(const std::string& block);

}  // namespace tdb

#endif  // CHRONOQUEL_CATALOG_CATALOG_H_
