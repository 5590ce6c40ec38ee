#ifndef CHRONOQUEL_CORE_RELATION_H_
#define CHRONOQUEL_CORE_RELATION_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "env/env.h"
#include "index/secondary_index.h"
#include "storage/hash_file.h"
#include "storage/heap_file.h"
#include "storage/io_stats.h"
#include "storage/isam_file.h"
#include "storage/pager.h"
#include "storage/storage_file.h"
#include "types/schema.h"

namespace tdb {

/// Address of one history version across the active history file and the
/// vacuumed segment files.  `seg` 0 is the active history store (the only
/// store before any vacuum, so plain Tids remain valid there); `seg` k > 0
/// is the segment with id k.  Back pointers and anchor entries carry the
/// segment id in the two bytes that were zero padding before segments
/// existed, so pre-vacuum files parse unchanged.
struct HistoryTid {
  Tid tid;
  uint16_t seg = 0;

  bool operator==(const HistoryTid& o) const {
    return tid == o.tid && seg == o.seg;
  }
};

/// A runtime handle to one relation: its primary storage file, its
/// (optional) two-level-store history pieces, and its secondary indexes.
///
/// Conventional organization: every version lives in `primary()` — the
/// prototype the paper benchmarks.
///
/// Two-level store (Section 6): `primary()` keeps only current versions;
/// retired versions are appended to the history heap, linked newest-first
/// through per-record back pointers, with a per-key *anchor* hash file
/// mapping key -> newest history version so a version scan can reach the
/// chain without scanning the store.  In clustered mode history versions of
/// one tuple share per-tuple pages; in simple mode they are appended
/// wherever the tail is, so a chain of n versions costs ~n page reads —
/// exactly the "Simple" vs "Clustered" columns of Figure 10.
class Relation {
 public:
  /// Opens every file of the relation.  Counters are obtained from
  /// `registry` (one per physical file, all summed by measurements).
  /// `journal` (nullable) is handed to every pager so in-place page writes
  /// are pre-imaged when durability is on.
  static Result<std::unique_ptr<Relation>> Open(Env* env,
                                                const std::string& dir,
                                                const RelationMeta& meta,
                                                IoRegistry* registry,
                                                int buffer_frames = 1,
                                                Journal* journal = nullptr,
                                                const StorageOptions& sopts =
                                                    StorageOptions{});

  const RelationMeta& meta() const { return meta_; }
  const Schema& schema() const { return meta_.schema; }
  StorageFile* primary() { return primary_.get(); }
  HeapFile* history() { return history_.get(); }
  HashFile* anchors() { return anchors_.get(); }
  const std::vector<std::unique_ptr<SecondaryIndex>>& indexes() const {
    return indexes_;
  }
  SecondaryIndex* FindIndex(const std::string& attr);

  bool two_level() const { return meta_.two_level; }

  /// Value of the organization key attribute of a stored record.
  Value KeyOf(const uint8_t* rec) const;
  /// Value of attribute `attr_index` of a stored record.
  Value AttrOf(const uint8_t* rec, int attr_index) const;

  // --- storage primitives (index maintenance is the DML layer's job) ---

  Status InsertPrimary(const std::vector<uint8_t>& rec, Tid* tid);
  Status OverwritePrimary(const Tid& tid, const std::vector<uint8_t>& rec);
  Status ErasePrimary(const Tid& tid);
  Result<std::vector<uint8_t>> FetchPrimary(const Tid& tid);

  /// Appends a retired version to the history store, linking it in front of
  /// the key's existing chain and updating the anchor.  Only valid for
  /// two-level relations.
  Status AppendHistory(const std::vector<uint8_t>& rec, Tid* tid);

  /// Reads a history version (without its back pointer).
  Result<std::vector<uint8_t>> FetchHistory(const Tid& tid);

  /// Newest history version for `key`, if any (reads the anchor file).
  Result<std::optional<HistoryTid>> AnchorLookup(const Value& key);

  /// Back pointer of the history version at `at` (nullopt at chain end).
  Result<std::optional<HistoryTid>> HistoryBackPtr(const HistoryTid& at);

  /// Reads a history version from the active history file or a segment
  /// (without its back pointer).
  Result<std::vector<uint8_t>> FetchHistoryAt(const HistoryTid& at);

  // --- vacuum primitives (driven by DdlExecutor::Vacuum) ---

  /// One vacuumed history segment: catalog bounds plus the open heap.
  struct Segment {
    SegmentMeta meta;
    std::unique_ptr<HeapFile> file;
  };

  const std::vector<Segment>& segments() const { return segments_; }
  HeapFile* SegmentFile(uint16_t id);

  /// Opens (creating if needed) the segment covering stamps [lo, hi),
  /// registering it in this relation's meta().segments.  The caller
  /// persists the updated meta through the catalog.
  Result<HeapFile*> EnsureSegment(int64_t lo, int64_t hi);

  /// Appends a raw history record (record + back pointer) to segment `id`.
  Status AppendToSegment(uint16_t id, const std::vector<uint8_t>& hrec,
                         Tid* tid);

  /// Rewrites the back pointer of the history version at `at` to `to`.
  Status PatchHistoryBackPtr(const HistoryTid& at,
                             const std::optional<HistoryTid>& to);

  /// Repoints the anchor of `key` at a migrated chain head.
  Status UpdateAnchor(const Value& key, const HistoryTid& head);

  /// Erases a migrated record from the active history file.
  Status EraseHistory(const Tid& tid) { return history_->Erase(tid); }

  /// Record layout of the history store (record + 8-byte back pointer).
  const RecordLayout& history_layout() const { return history_layout_; }

  // --- index maintenance helpers (driven by the DML executor) ---

  /// Adds current-index entries for a freshly inserted version.
  Status IndexInsertCurrent(const std::vector<uint8_t>& rec, Tid tid,
                            bool in_history_store);
  /// Adds history entries (2-level: history file; 1-level: single file).
  Status IndexInsertHistory(const std::vector<uint8_t>& rec, Tid tid,
                            bool in_history_store);
  /// Retires entries for a version that stopped being current (and possibly
  /// moved to `new_tid` in the history store).
  Status IndexMoveToHistory(const std::vector<uint8_t>& rec, Tid old_tid,
                            Tid new_tid, bool new_in_history_store);
  /// Drops current entries for a physically erased version.
  Status IndexRemoveCurrent(const std::vector<uint8_t>& rec, Tid tid);

  /// Record layout of the primary file.
  const RecordLayout& layout() const { return layout_; }

  /// Flushes and empties every buffer frame of the relation (primary,
  /// history, segments, anchors, indexes) so subsequent page reads are all
  /// counted.
  Status FlushAndDropBuffers() {
    TDB_RETURN_NOT_OK(primary_->pager()->FlushAndDrop());
    if (history_ != nullptr) {
      TDB_RETURN_NOT_OK(history_->pager()->FlushAndDrop());
    }
    for (auto& seg : segments_) {
      TDB_RETURN_NOT_OK(seg.file->pager()->FlushAndDrop());
    }
    if (anchors_ != nullptr) {
      TDB_RETURN_NOT_OK(anchors_->pager()->FlushAndDrop());
    }
    for (auto& idx : indexes_) TDB_RETURN_NOT_OK(idx->FlushAndDrop());
    return Status::OK();
  }

  /// Writes every dirty buffer frame back (frames stay resident).  The
  /// commit protocol calls this so a statement's effects are fully on disk
  /// before the journal's commit mark is written.
  Status FlushBuffers() {
    TDB_RETURN_NOT_OK(primary_->pager()->Flush());
    if (history_ != nullptr) TDB_RETURN_NOT_OK(history_->pager()->Flush());
    for (auto& seg : segments_) TDB_RETURN_NOT_OK(seg.file->pager()->Flush());
    if (anchors_ != nullptr) TDB_RETURN_NOT_OK(anchors_->pager()->Flush());
    for (auto& idx : indexes_) TDB_RETURN_NOT_OK(idx->Flush());
    return Status::OK();
  }

  /// Fsyncs every file of the relation (kJournalSync commit protocol).
  Status SyncFiles() {
    TDB_RETURN_NOT_OK(primary_->pager()->Sync());
    if (history_ != nullptr) TDB_RETURN_NOT_OK(history_->pager()->Sync());
    for (auto& seg : segments_) TDB_RETURN_NOT_OK(seg.file->pager()->Sync());
    if (anchors_ != nullptr) TDB_RETURN_NOT_OK(anchors_->pager()->Sync());
    for (auto& idx : indexes_) TDB_RETURN_NOT_OK(idx->Sync());
    return Status::OK();
  }

  /// Empties every buffer frame WITHOUT writing dirty ones back.  Rollback
  /// calls this so aborted in-memory page edits never reach the restored
  /// file image.
  void DiscardBuffers() {
    primary_->pager()->DiscardAll();
    if (history_ != nullptr) history_->pager()->DiscardAll();
    for (auto& seg : segments_) seg.file->pager()->DiscardAll();
    if (anchors_ != nullptr) anchors_->pager()->DiscardAll();
    for (auto& idx : indexes_) idx->Discard();
  }

 private:
  Relation(RelationMeta meta, RecordLayout layout)
      : meta_(std::move(meta)), layout_(layout) {}

  /// Opens one history segment heap (counters under "<name>#seg<id>").
  Result<std::unique_ptr<HeapFile>> OpenSegmentFile(const SegmentMeta& sm);

  RelationMeta meta_;
  RecordLayout layout_;
  std::unique_ptr<StorageFile> primary_;
  std::unique_ptr<HeapFile> history_;
  std::unique_ptr<HashFile> anchors_;
  RecordLayout history_layout_;  // record + 8-byte back pointer
  RecordLayout anchor_layout_;   // key + tid + seg
  std::vector<Segment> segments_;
  std::vector<std::unique_ptr<SecondaryIndex>> indexes_;

  // Open() arguments, kept so EnsureSegment can open new files with the
  // same counters/journal/storage configuration.
  Env* env_ = nullptr;
  std::string dir_;
  IoRegistry* registry_ = nullptr;
  int buffer_frames_ = 1;
  Journal* journal_ = nullptr;
  StorageOptions sopts_;
};

/// Builds the RecordLayout of a relation's primary file from its schema and
/// key attribute (empty key_attr -> keyless layout).
Result<RecordLayout> LayoutFor(const Schema& schema,
                               const std::string& key_attr);

}  // namespace tdb

#endif  // CHRONOQUEL_CORE_RELATION_H_
