#include "exec/version_source.h"

#include <algorithm>

#include "storage/isam_file.h"

namespace tdb {

std::vector<ScanChunk> CutScanChunks(Relation* rel, bool current_only,
                                     uint32_t chunk_pages) {
  if (chunk_pages == 0) chunk_pages = 1;
  std::vector<ScanChunk> chunks;
  auto add_store = [&](StorageFile* file, bool in_history) {
    if (file->page_count() == 0) return;
    ScanChunk c;
    c.file = file;
    c.in_history = in_history;
    uint32_t pages = file->page_count();
    if (file->org() == Organization::kIsam) {
      c.chains = true;
      pages = static_cast<IsamFile*>(file)->meta().data_pages;
    } else if (!file->LinearScan()) {
      c.use_cursor = true;
      chunks.push_back(c);
      return;
    }
    for (uint32_t begin = 0; begin < pages; begin += chunk_pages) {
      c.begin = begin;
      c.end = std::min(pages, begin + chunk_pages);
      chunks.push_back(c);
    }
  };
  add_store(rel->primary(), /*in_history=*/false);
  if (rel->two_level() && !current_only && rel->history() != nullptr) {
    add_store(rel->history(), /*in_history=*/true);
    // Vacuumed history segments come after the active history store, in
    // segment order — the same order the serial scan visits them.
    for (const Relation::Segment& seg : rel->segments()) {
      add_store(seg.file.get(), /*in_history=*/true);
    }
  }
  return chunks;
}

Result<std::unique_ptr<VersionSource>> VersionSource::Create(Relation* rel,
                                                             AccessSpec spec) {
  if (spec.kind == AccessSpec::Kind::kKeyed &&
      rel->primary()->org() == Organization::kHeap) {
    return Status::Invalid("keyed access on a heap relation");
  }
  if (spec.kind == AccessSpec::Kind::kIndexEq && spec.index == nullptr) {
    return Status::Internal("index access without an index");
  }
  return std::unique_ptr<VersionSource>(
      new VersionSource(rel, std::move(spec)));
}

Result<bool> VersionSource::Next() {
  switch (spec_.kind) {
    case AccessSpec::Kind::kScan:
    case AccessSpec::Kind::kRange:
      return NextScan();
    case AccessSpec::Kind::kKeyed:
      return NextKeyed();
    case AccessSpec::Kind::kIndexEq:
      return NextIndex();
  }
  return Status::Internal("unreachable access kind");
}

Result<size_t> VersionSource::NextBatch(Morsel* m, size_t max) {
  m->Clear();
  switch (spec_.kind) {
    case AccessSpec::Kind::kScan:
    case AccessSpec::Kind::kRange:
      return NextScanBatch(m, max);
    case AccessSpec::Kind::kKeyed:
      return NextKeyedBatch(m, max);
    case AccessSpec::Kind::kIndexEq:
      return NextIndexBatch(m, max);
  }
  return Status::Internal("unreachable access kind");
}

Result<bool> VersionSource::NextScan() {
  const Schema& schema = rel_->schema();
  while (true) {
    if (stage_ == Stage::kDone) return false;
    if (cursor_ == nullptr) {
      if (stage_ == Stage::kPrimary) {
        if (spec_.kind == AccessSpec::Kind::kRange) {
          TDB_ASSIGN_OR_RETURN(
              cursor_, rel_->primary()->ScanRange(spec_.lo, spec_.lo_inclusive,
                                                  spec_.hi,
                                                  spec_.hi_inclusive));
        } else {
          TDB_ASSIGN_OR_RETURN(cursor_, rel_->primary()->Scan());
        }
      } else if (stage_ == Stage::kHistoryScan) {
        // The history store is a heap: range bounds cannot be used here;
        // the executor re-applies every predicate, so a full scan is
        // correct (just not accelerated).
        TDB_ASSIGN_OR_RETURN(cursor_, rel_->history()->Scan());
      } else {
        TDB_ASSIGN_OR_RETURN(cursor_,
                             rel_->segments()[seg_pos_].file->Scan());
      }
    }
    TDB_ASSIGN_OR_RETURN(bool have, cursor_->Next());
    if (!have) {
      cursor_.reset();
      if (stage_ == Stage::kPrimary && rel_->two_level() &&
          !spec_.current_only) {
        stage_ = Stage::kHistoryScan;
        continue;
      }
      if (stage_ == Stage::kHistoryScan && !rel_->segments().empty()) {
        stage_ = Stage::kSegmentScan;
        seg_pos_ = 0;
        continue;
      }
      if (stage_ == Stage::kSegmentScan &&
          seg_pos_ + 1 < rel_->segments().size()) {
        ++seg_pos_;
        continue;
      }
      stage_ = Stage::kDone;
      return false;
    }
    bool in_history = stage_ != Stage::kPrimary;
    // Zero-copy: the cursor's record buffer stays valid until the next
    // Next(), so the ref borrows it and decodes attributes on demand.
    // (History records carry an 8-byte back pointer past the schema record,
    // which lazy decode never touches.)
    ref_.BindRaw(schema, cursor_->record().data());
    ref_.tid = cursor_->tid();
    ref_.in_history = in_history;
    return true;
  }
}

Result<size_t> VersionSource::NextScanBatch(Morsel* m, size_t max) {
  while (true) {
    if (stage_ == Stage::kDone) return 0;
    if (cursor_ == nullptr) {
      if (stage_ == Stage::kPrimary) {
        if (spec_.kind == AccessSpec::Kind::kRange) {
          TDB_ASSIGN_OR_RETURN(
              cursor_, rel_->primary()->ScanRange(spec_.lo, spec_.lo_inclusive,
                                                  spec_.hi,
                                                  spec_.hi_inclusive));
        } else {
          TDB_ASSIGN_OR_RETURN(cursor_, rel_->primary()->Scan());
        }
      } else if (stage_ == Stage::kHistoryScan) {
        TDB_ASSIGN_OR_RETURN(cursor_, rel_->history()->Scan());
      } else {
        TDB_ASSIGN_OR_RETURN(cursor_,
                             rel_->segments()[seg_pos_].file->Scan());
      }
    }
    TDB_ASSIGN_OR_RETURN(size_t n, cursor_->NextBatch(m, max));
    if (n == 0) {
      cursor_.reset();
      if (stage_ == Stage::kPrimary && rel_->two_level() &&
          !spec_.current_only) {
        stage_ = Stage::kHistoryScan;
        continue;
      }
      if (stage_ == Stage::kHistoryScan && !rel_->segments().empty()) {
        stage_ = Stage::kSegmentScan;
        seg_pos_ = 0;
        continue;
      }
      if (stage_ == Stage::kSegmentScan &&
          seg_pos_ + 1 < rel_->segments().size()) {
        ++seg_pos_;
        continue;
      }
      stage_ = Stage::kDone;
      return 0;
    }
    m->in_history = stage_ != Stage::kPrimary;
    return n;
  }
}

Result<size_t> VersionSource::NextKeyedBatch(Morsel* m, size_t max) {
  while (true) {
    switch (stage_) {
      case Stage::kPrimary: {
        if (cursor_ == nullptr) {
          TDB_ASSIGN_OR_RETURN(cursor_, rel_->primary()->ScanKey(spec_.key));
        }
        TDB_ASSIGN_OR_RETURN(size_t n, cursor_->NextBatch(m, max));
        if (n > 0) {
          m->in_history = false;
          return n;
        }
        cursor_.reset();
        if (rel_->two_level() && !spec_.current_only) {
          TDB_ASSIGN_OR_RETURN(chain_next_, rel_->AnchorLookup(spec_.key));
          stage_ = Stage::kHistoryChain;
          continue;
        }
        stage_ = Stage::kDone;
        return 0;
      }
      case Stage::kHistoryChain: {
        // Point fetches: the bytes go into the morsel arena, so they stay
        // valid across the chain's page walks.
        size_t n = 0;
        while (chain_next_.has_value() && n < max) {
          HistoryTid at = *chain_next_;
          TDB_ASSIGN_OR_RETURN(owned_rec_, rel_->FetchHistoryAt(at));
          TDB_ASSIGN_OR_RETURN(chain_next_, rel_->HistoryBackPtr(at));
          if (n == 0) m->EnsureArena(max * owned_rec_.size());
          m->AppendCopy(owned_rec_.data(), owned_rec_.size(), at.tid);
          ++n;
        }
        if (n == 0) {
          stage_ = Stage::kDone;
          return 0;
        }
        m->in_history = true;
        return n;
      }
      default:
        return 0;
    }
  }
}

Result<size_t> VersionSource::NextIndexBatch(Morsel* m, size_t max) {
  if (!entries_loaded_) {
    TDB_ASSIGN_OR_RETURN(entries_,
                         spec_.index->Lookup(spec_.key, spec_.current_only));
    entries_loaded_ = true;
    entry_pos_ = 0;
  }
  if (entry_pos_ >= entries_.size()) return 0;
  // Cut the morsel where in_history flips so the flag stays uniform.
  const bool hist = entries_[entry_pos_].in_history;
  size_t n = 0;
  while (entry_pos_ < entries_.size() && n < max &&
         entries_[entry_pos_].in_history == hist) {
    const IndexEntryRef& entry = entries_[entry_pos_++];
    TDB_ASSIGN_OR_RETURN(owned_rec_, hist ? rel_->FetchHistory(entry.tid)
                                          : rel_->FetchPrimary(entry.tid));
    if (n == 0) m->EnsureArena(max * owned_rec_.size());
    m->AppendCopy(owned_rec_.data(), owned_rec_.size(), entry.tid);
    ++n;
  }
  m->in_history = hist;
  return n;
}

Result<bool> VersionSource::NextKeyed() {
  const Schema& schema = rel_->schema();
  while (true) {
    switch (stage_) {
      case Stage::kPrimary: {
        if (cursor_ == nullptr) {
          TDB_ASSIGN_OR_RETURN(cursor_, rel_->primary()->ScanKey(spec_.key));
        }
        TDB_ASSIGN_OR_RETURN(bool have, cursor_->Next());
        if (have) {
          ref_.BindRaw(schema, cursor_->record().data());
          ref_.tid = cursor_->tid();
          ref_.in_history = false;
          return true;
        }
        cursor_.reset();
        if (rel_->two_level() && !spec_.current_only) {
          TDB_ASSIGN_OR_RETURN(chain_next_, rel_->AnchorLookup(spec_.key));
          stage_ = Stage::kHistoryChain;
          continue;
        }
        stage_ = Stage::kDone;
        return false;
      }
      case Stage::kHistoryChain: {
        if (!chain_next_.has_value()) {
          stage_ = Stage::kDone;
          return false;
        }
        HistoryTid at = *chain_next_;
        // Fetch returns a temporary buffer; keep the bytes alive in
        // owned_rec_ (reused across iterations) for the lazy ref.
        TDB_ASSIGN_OR_RETURN(owned_rec_, rel_->FetchHistoryAt(at));
        TDB_ASSIGN_OR_RETURN(chain_next_, rel_->HistoryBackPtr(at));
        ref_.BindRaw(schema, owned_rec_.data());
        ref_.tid = at.tid;
        ref_.in_history = true;
        return true;
      }
      default:
        return false;
    }
  }
}

Result<bool> VersionSource::NextIndex() {
  const Schema& schema = rel_->schema();
  if (!entries_loaded_) {
    TDB_ASSIGN_OR_RETURN(entries_,
                         spec_.index->Lookup(spec_.key, spec_.current_only));
    entries_loaded_ = true;
    entry_pos_ = 0;
  }
  while (entry_pos_ < entries_.size()) {
    const IndexEntryRef& entry = entries_[entry_pos_++];
    Result<std::vector<uint8_t>> rec =
        entry.in_history ? rel_->FetchHistory(entry.tid)
                         : rel_->FetchPrimary(entry.tid);
    if (!rec.ok()) return rec.status();
    owned_rec_ = std::move(rec).value();
    ref_.BindRaw(schema, owned_rec_.data());
    ref_.tid = entry.tid;
    ref_.in_history = entry.in_history;
    return true;
  }
  return false;
}

}  // namespace tdb
