#ifndef CHRONOQUEL_EXEC_VERSION_SOURCE_H_
#define CHRONOQUEL_EXEC_VERSION_SOURCE_H_

#include <memory>
#include <optional>
#include <vector>

#include "core/relation.h"
#include "exec/morsel.h"
#include "exec/version.h"
#include "index/secondary_index.h"

namespace tdb {

/// Concrete access-path arguments for one variable.
struct AccessSpec {
  enum class Kind { kScan, kKeyed, kIndexEq, kRange };
  Kind kind = Kind::kScan;
  Value key;                        // kKeyed / kIndexEq probe value
  SecondaryIndex* index = nullptr;  // kIndexEq
  // kRange bounds (ISAM primary organizations only).
  std::optional<Value> lo;
  std::optional<Value> hi;
  bool lo_inclusive = true;
  bool hi_inclusive = true;
  /// Skip history data (two-level store / 2-level index) — valid only when
  /// the statement's clauses restrict the variable to current versions.
  bool current_only = false;
};

/// Streams the VersionRefs of one relation reachable through an access
/// path.  For conventional relations everything comes from the primary
/// file.  For a two-level relation:
///   * kScan visits the primary file and then (unless current_only) the
///     entire history store followed by any vacuumed history segments;
///   * kKeyed visits the primary chain for the key and then (unless
///     current_only) walks the key's history chain from its anchor;
///   * kIndexEq resolves entries through the secondary index and fetches
///     each referenced version from the proper store.
class VersionSource {
 public:
  static Result<std::unique_ptr<VersionSource>> Create(Relation* rel,
                                                       AccessSpec spec);

  /// Advances; false at end.  The current version is `ref()`.
  Result<bool> Next();
  const VersionRef& ref() const { return ref_; }

  /// Batch variant: clears `m`, gathers up to `max` versions — all from the
  /// same store, so `m->in_history` is uniform — and returns the count
  /// (0 = end of stream).  Page-I/O order and counts are identical to an
  /// equivalent sequence of Next() calls; scan-shaped paths gather
  /// zero-copy frame slices cut at every page fetch, point-fetch paths
  /// (history chains, index entries) copy into the morsel arena.
  Result<size_t> NextBatch(Morsel* m, size_t max);

 private:
  VersionSource(Relation* rel, AccessSpec spec)
      : rel_(rel), spec_(std::move(spec)) {}

  Result<bool> NextScan();
  Result<bool> NextKeyed();
  Result<bool> NextIndex();
  Result<size_t> NextScanBatch(Morsel* m, size_t max);
  Result<size_t> NextKeyedBatch(Morsel* m, size_t max);
  Result<size_t> NextIndexBatch(Morsel* m, size_t max);

  Relation* rel_;
  AccessSpec spec_;
  VersionRef ref_;
  // Backing bytes for ref_ when the record comes from a point fetch rather
  // than a live cursor; reused across iterations.
  std::vector<uint8_t> owned_rec_;

  // scan / keyed state
  enum class Stage { kPrimary, kHistoryScan, kSegmentScan, kHistoryChain,
                     kDone };
  Stage stage_ = Stage::kPrimary;
  std::unique_ptr<Cursor> cursor_;
  std::optional<HistoryTid> chain_next_;
  // Which vacuum segment kSegmentScan is draining (index into
  // rel_->segments()).
  size_t seg_pos_ = 0;
  bool started_ = false;

  // index state
  std::vector<IndexEntryRef> entries_;
  size_t entry_pos_ = 0;
  bool entries_loaded_ = false;
};

/// One unit of parallel scan dispatch: a page range [begin, end) of a
/// store, or (use_cursor) the whole store read through its ordinary Scan()
/// cursor — B-tree primaries, whose scans follow leaf links and so cannot
/// be cut by page number.  The range of a linear-scan store (heap, hash)
/// is its pages; that of an ISAM primary (`chains`) is data pages, each
/// visited and then its overflow chain, as the ISAM cursor visits them.
struct ScanChunk {
  StorageFile* file = nullptr;
  bool in_history = false;
  bool use_cursor = false;
  bool chains = false;
  uint32_t begin = 0;  // first page of a page-range chunk
  uint32_t end = 0;    // one past the last page
};

/// Cuts the stores a kScan access path visits into chunks of at most
/// `chunk_pages` pages (ISAM: data pages), in the serial scan's visit
/// order — primary pages ascending, then (for a two-level relation, unless
/// current_only) history pages ascending — so concatenating per-chunk
/// results in chunk order reproduces the serial row order exactly.
std::vector<ScanChunk> CutScanChunks(Relation* rel, bool current_only,
                                     uint32_t chunk_pages);

}  // namespace tdb

#endif  // CHRONOQUEL_EXEC_VERSION_SOURCE_H_
