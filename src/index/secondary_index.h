#ifndef CHRONOQUEL_INDEX_SECONDARY_INDEX_H_
#define CHRONOQUEL_INDEX_SECONDARY_INDEX_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "env/env.h"
#include "storage/hash_file.h"
#include "storage/heap_file.h"
#include "storage/key_compare.h"
#include "storage/storage_file.h"
#include "types/schema.h"

namespace tdb {

namespace obs {
class Counter;
class MetricsRegistry;
}  // namespace obs

/// A tuple-id reference stored in an index entry.  `in_history` says which
/// store of a two-level relation the version lives in.
struct IndexEntryRef {
  Tid tid;
  bool in_history = false;
};

/// Secondary index on a non-key attribute (Section 6).  Entries are
/// (attribute value, tid) pairs:
///   * 1-level: one structure indexes every version of the relation;
///   * 2-level: a *current* index holds exactly the current versions and a
///     *history* index accumulates retired versions, so queries against the
///     current state touch a far smaller structure (the paper's
///     3717-pages-to-2 improvement for Q07).
/// Each structure is a heap (lookup scans the whole index) or a hash file
/// (lookup reads one bucket chain).  All index I/O is tagged
/// IoCategory::kIndex.
class SecondaryIndex {
 public:
  /// Opens (creating empty files as needed) the index described by `meta`
  /// over an attribute of type `attr`.  Counter objects come from the
  /// owning database's IoRegistry; `journal` (nullable) pre-images index
  /// page overwrites when durability is on; `metrics` (nullable) wires
  /// index.<name>.{probes,entries_scanned,inserts,moves,removes}.
  static Result<std::unique_ptr<SecondaryIndex>> Open(
      Env* env, const std::string& dir, const IndexMeta& meta,
      const Attribute& attr, IoCounters* current_counters,
      IoCounters* history_counters, int buffer_frames = 1,
      Journal* journal = nullptr, obs::MetricsRegistry* metrics = nullptr,
      const StorageOptions& sopts = {});

  const IndexMeta& meta() const { return meta_; }

  /// Adds an entry for a (new) current version.
  Status InsertCurrent(const Value& key, Tid tid, bool in_history_store);

  /// Adds an entry for a history version: the history file for a 2-level
  /// index, the single file for a 1-level index.
  Status InsertHistory(const Value& key, Tid tid, bool in_history_store);

  /// Removes the entry (key, tid) from the current/single file; NotFound if
  /// absent.
  Status RemoveCurrent(const Value& key, Tid tid);

  /// For a 2-level index: drops (key, tid) from the current file and
  /// re-adds it to the history file (possibly at a new location).  For a
  /// 1-level index the entry's location/flags are rewritten in place if the
  /// tid changed.
  Status MoveToHistory(const Value& key, Tid old_tid, Tid new_tid,
                       bool new_in_history_store);

  /// All version references for `key`.  With `current_only`, a 2-level
  /// index reads just the current structure; a 1-level index cannot
  /// distinguish and returns everything.
  Result<std::vector<IndexEntryRef>> Lookup(const Value& key,
                                            bool current_only);

  /// I/O counters of the index's structures (history null for a 1-level
  /// index).  The executor sums these — instead of walking the whole
  /// registry — when attributing per-node I/O.
  IoCounters* current_counters() { return current_->pager()->counters(); }
  IoCounters* history_counters() {
    return history_ == nullptr ? nullptr : history_->pager()->counters();
  }

  /// Flushes and empties the buffer frames of both structures.
  Status FlushAndDrop() {
    TDB_RETURN_NOT_OK(current_->pager()->FlushAndDrop());
    if (history_ != nullptr) {
      TDB_RETURN_NOT_OK(history_->pager()->FlushAndDrop());
    }
    return Status::OK();
  }

  /// Writes dirty frames back; frames stay resident (commit protocol).
  Status Flush() {
    TDB_RETURN_NOT_OK(current_->pager()->Flush());
    if (history_ != nullptr) TDB_RETURN_NOT_OK(history_->pager()->Flush());
    return Status::OK();
  }

  /// Fsyncs both structures' files (kJournalSync commit protocol).
  Status Sync() {
    TDB_RETURN_NOT_OK(current_->pager()->Sync());
    if (history_ != nullptr) TDB_RETURN_NOT_OK(history_->pager()->Sync());
    return Status::OK();
  }

  /// Drops frames without writing dirty ones back (rollback).
  void Discard() {
    current_->pager()->DiscardAll();
    if (history_ != nullptr) history_->pager()->DiscardAll();
  }

 private:
  SecondaryIndex(IndexMeta meta, RecordLayout layout,
                 std::unique_ptr<StorageFile> current,
                 std::unique_ptr<StorageFile> history)
      : meta_(std::move(meta)),
        layout_(layout),
        current_(std::move(current)),
        history_(std::move(history)) {}

  std::vector<uint8_t> EncodeEntry(const Value& key, Tid tid,
                                   bool in_history_store) const;
  static IndexEntryRef DecodeEntry(const RecordLayout& layout,
                                   const uint8_t* rec);

  /// Cursor over the entries of `file` that may equal `key`.  A heap
  /// structure yields every entry and sets `*filter` to the encoded key the
  /// caller must match; a hash structure yields only equal entries.
  Result<std::unique_ptr<Cursor>> OpenMatches(StorageFile* file,
                                              const Value& key,
                                              std::optional<KeyProbe>* filter);

  /// Finds the slot of entry (key, tid) in `file`.
  Result<Tid> FindEntry(StorageFile* file, const Value& key, Tid tid);

  Status CollectMatches(StorageFile* file, const Value& key,
                        std::vector<IndexEntryRef>* out);

  IndexMeta meta_;
  RecordLayout layout_;  // entry layout: key + page(4) + slot(2) + flags(2)
  std::unique_ptr<StorageFile> current_;
  std::unique_ptr<StorageFile> history_;  // null for 1-level

  // Observability counters; all null when metrics are disabled.
  obs::Counter* m_probes_ = nullptr;
  obs::Counter* m_entries_scanned_ = nullptr;
  obs::Counter* m_inserts_ = nullptr;
  obs::Counter* m_moves_ = nullptr;
  obs::Counter* m_removes_ = nullptr;
};

}  // namespace tdb

#endif  // CHRONOQUEL_INDEX_SECONDARY_INDEX_H_
