#include "core/relation.h"

#include <cstring>

#include "storage/btree_file.h"
#include "util/stringx.h"

namespace tdb {

namespace {

/// Default anchor buckets when the metadata does not size them.
constexpr uint32_t kDefaultAnchorBuckets = 16;

}  // namespace

Result<RecordLayout> LayoutFor(const Schema& schema,
                               const std::string& key_attr) {
  RecordLayout layout;
  layout.record_size = schema.record_size();
  if (!key_attr.empty()) {
    int idx = schema.FindAttr(key_attr);
    if (idx < 0) {
      return Status::Invalid("key attribute '" + key_attr + "' not in schema");
    }
    layout.key_offset = schema.offset(static_cast<size_t>(idx));
    layout.key_type = schema.attr(static_cast<size_t>(idx)).type;
    layout.key_width = schema.attr(static_cast<size_t>(idx)).width;
  }
  return layout;
}

Result<std::unique_ptr<Relation>> Relation::Open(Env* env,
                                                 const std::string& dir,
                                                 const RelationMeta& meta,
                                                 IoRegistry* registry,
                                                 int buffer_frames,
                                                 Journal* journal,
                                                 const StorageOptions& sopts) {
  TDB_ASSIGN_OR_RETURN(RecordLayout layout,
                       LayoutFor(meta.schema, meta.key_attr));
  std::unique_ptr<Relation> rel(new Relation(meta, layout));
  rel->env_ = env;
  rel->dir_ = dir;
  rel->registry_ = registry;
  rel->buffer_frames_ = buffer_frames;
  rel->journal_ = journal;
  rel->sopts_ = sopts;

  IoCounters* primary_counters = registry->ForFile(meta.name);
  std::string primary_path = dir + "/" + meta.DataFileName();
  TDB_ASSIGN_OR_RETURN(
      auto pager,
      Pager::Open(env, primary_path, primary_counters, buffer_frames,
                  journal, sopts));
  switch (meta.org) {
    case Organization::kHeap: {
      TDB_ASSIGN_OR_RETURN(auto file,
                           HeapFile::Open(std::move(pager), layout));
      rel->primary_ = std::move(file);
      break;
    }
    case Organization::kHash: {
      TDB_ASSIGN_OR_RETURN(
          auto file,
          HashFile::Open(std::move(pager), layout, meta.hash_buckets));
      rel->primary_ = std::move(file);
      break;
    }
    case Organization::kIsam: {
      TDB_ASSIGN_OR_RETURN(
          auto file, IsamFile::Open(std::move(pager), layout, meta.isam));
      rel->primary_ = std::move(file);
      break;
    }
    case Organization::kBtree: {
      TDB_ASSIGN_OR_RETURN(auto file,
                           BtreeFile::Open(std::move(pager), layout));
      rel->primary_ = std::move(file);
      break;
    }
  }

  if (meta.two_level) {
    if (!layout.has_key()) {
      return Status::Invalid("a two-level store needs a key attribute");
    }
    rel->history_layout_ = layout;
    rel->history_layout_.record_size =
        static_cast<uint16_t>(layout.record_size + 8);
    std::string hist_path = dir + "/" + meta.HistoryFileName();
    TDB_ASSIGN_OR_RETURN(
        auto hist_pager,
        Pager::Open(env, hist_path, registry->ForFile(meta.name + "#hist"),
                    buffer_frames, journal, sopts));
    TDB_ASSIGN_OR_RETURN(
        rel->history_,
        HeapFile::Open(std::move(hist_pager), rel->history_layout_));
    for (const SegmentMeta& sm : meta.segments) {
      TDB_ASSIGN_OR_RETURN(auto seg_file, rel->OpenSegmentFile(sm));
      rel->segments_.push_back(Segment{sm, std::move(seg_file)});
    }

    rel->anchor_layout_ = RecordLayout();
    rel->anchor_layout_.key_offset = 0;
    rel->anchor_layout_.key_type = layout.key_type;
    rel->anchor_layout_.key_width = layout.key_width;
    rel->anchor_layout_.record_size =
        static_cast<uint16_t>(layout.key_width + 8);
    uint32_t abuckets = meta.history_buckets > 0 ? meta.history_buckets
                                                 : kDefaultAnchorBuckets;
    std::string anc_path = dir + "/" + meta.name + ".anc";
    bool fresh = !env->FileExists(anc_path);
    TDB_ASSIGN_OR_RETURN(
        auto anc_pager,
        Pager::Open(env, anc_path, registry->ForFile(meta.name + "#anc"),
                    buffer_frames, journal, sopts));
    if (fresh || anc_pager->page_count() == 0) {
      TDB_ASSIGN_OR_RETURN(rel->anchors_,
                           HashFile::Create(std::move(anc_pager),
                                            rel->anchor_layout_, abuckets));
    } else {
      TDB_ASSIGN_OR_RETURN(rel->anchors_,
                           HashFile::Open(std::move(anc_pager),
                                          rel->anchor_layout_, abuckets));
    }
  }

  for (const IndexMeta& idx : meta.indexes) {
    int attr_idx = meta.schema.FindAttr(idx.attr);
    if (attr_idx < 0) {
      return Status::Corruption("index '" + idx.name +
                                "' references missing attribute");
    }
    TDB_ASSIGN_OR_RETURN(
        auto index,
        SecondaryIndex::Open(env, dir, idx,
                             meta.schema.attr(static_cast<size_t>(attr_idx)),
                             registry->ForFile(idx.name + "#cur"),
                             registry->ForFile(idx.name + "#hist"),
                             buffer_frames, journal, registry->metrics(),
                             sopts));
    rel->indexes_.push_back(std::move(index));
  }
  return rel;
}

SecondaryIndex* Relation::FindIndex(const std::string& attr) {
  for (auto& idx : indexes_) {
    if (EqualsIgnoreCase(idx->meta().attr, attr)) return idx.get();
  }
  return nullptr;
}

Value Relation::KeyOf(const uint8_t* rec) const { return layout_.KeyOf(rec); }

Value Relation::AttrOf(const uint8_t* rec, int attr_index) const {
  return DecodeAttr(meta_.schema, static_cast<size_t>(attr_index), rec);
}

Status Relation::InsertPrimary(const std::vector<uint8_t>& rec, Tid* tid) {
  return primary_->Insert(rec.data(), rec.size(), tid);
}

Status Relation::OverwritePrimary(const Tid& tid,
                                  const std::vector<uint8_t>& rec) {
  return primary_->UpdateInPlace(tid, rec.data(), rec.size());
}

Status Relation::ErasePrimary(const Tid& tid) { return primary_->Erase(tid); }

Result<std::vector<uint8_t>> Relation::FetchPrimary(const Tid& tid) {
  return primary_->Fetch(tid);
}

Status Relation::AppendHistory(const std::vector<uint8_t>& rec, Tid* tid_out) {
  if (history_ == nullptr) {
    return Status::Invalid("relation '" + meta_.name +
                           "' has no history store");
  }
  Value key = layout_.KeyOf(rec.data());
  TDB_ASSIGN_OR_RETURN(std::optional<HistoryTid> head, AnchorLookup(key));

  std::vector<uint8_t> hrec(history_layout_.record_size, 0);
  std::memcpy(hrec.data(), rec.data(), rec.size());
  uint8_t* bp = hrec.data() + rec.size();
  uint32_t prev_page = kNoPage;
  uint16_t prev_slot = 0;
  uint16_t prev_seg = 0;
  if (head.has_value()) {
    prev_page = head->tid.page;
    prev_slot = head->tid.slot;
    prev_seg = head->seg;
  }
  std::memcpy(bp, &prev_page, 4);
  std::memcpy(bp + 4, &prev_slot, 2);
  std::memcpy(bp + 6, &prev_seg, 2);

  // Clustering targets the active history file; a head that a vacuum moved
  // into a segment no longer pins a page there, so start a fresh one.
  Tid htid;
  if (meta_.clustered_history) {
    if (head.has_value() && head->seg == 0) {
      TDB_RETURN_NOT_OK(history_->InsertAtPage(head->tid.page, hrec.data(),
                                               hrec.size(), &htid));
    } else {
      TDB_RETURN_NOT_OK(
          history_->InsertFreshPage(hrec.data(), hrec.size(), &htid));
    }
  } else {
    TDB_RETURN_NOT_OK(history_->Insert(hrec.data(), hrec.size(), &htid));
  }

  // Upsert the anchor: key -> newest history version (always seg 0: new
  // retirements land in the active history file).
  std::vector<uint8_t> arec(anchor_layout_.record_size, 0);
  std::memcpy(arec.data(), rec.data() + layout_.key_offset,
              layout_.key_width);
  std::memcpy(arec.data() + layout_.key_width, &htid.page, 4);
  std::memcpy(arec.data() + layout_.key_width + 4, &htid.slot, 2);
  if (head.has_value()) {
    // Find and overwrite the existing anchor entry.
    TDB_ASSIGN_OR_RETURN(auto cur, anchors_->ScanKey(key));
    Tid slot;
    bool found = false;
    while (true) {
      TDB_ASSIGN_OR_RETURN(bool have, cur->Next());
      if (!have) break;
      slot = cur->tid();
      found = true;
      break;
    }
    if (!found) return Status::Corruption("anchor vanished during update");
    TDB_RETURN_NOT_OK(anchors_->UpdateInPlace(slot, arec.data(), arec.size()));
  } else {
    TDB_RETURN_NOT_OK(anchors_->Insert(arec.data(), arec.size(), nullptr));
  }
  if (tid_out != nullptr) *tid_out = htid;
  return Status::OK();
}

Result<std::vector<uint8_t>> Relation::FetchHistory(const Tid& tid) {
  if (history_ == nullptr) {
    return Status::Invalid("relation has no history store");
  }
  TDB_ASSIGN_OR_RETURN(auto hrec, history_->Fetch(tid));
  hrec.resize(layout_.record_size);
  return hrec;
}

Result<std::optional<HistoryTid>> Relation::AnchorLookup(const Value& key) {
  if (anchors_ == nullptr) {
    return Status::Invalid("relation has no anchor file");
  }
  TDB_ASSIGN_OR_RETURN(auto cur, anchors_->ScanKey(key));
  TDB_ASSIGN_OR_RETURN(bool have, cur->Next());
  if (!have) return std::optional<HistoryTid>();
  const uint8_t* p = cur->record().data() + anchor_layout_.key_width;
  HistoryTid at;
  std::memcpy(&at.tid.page, p, 4);
  std::memcpy(&at.tid.slot, p + 4, 2);
  std::memcpy(&at.seg, p + 6, 2);
  return std::optional<HistoryTid>(at);
}

HeapFile* Relation::SegmentFile(uint16_t id) {
  for (Segment& seg : segments_) {
    if (seg.meta.id == id) return seg.file.get();
  }
  return nullptr;
}

Result<std::unique_ptr<HeapFile>> Relation::OpenSegmentFile(
    const SegmentMeta& sm) {
  std::string path = dir_ + "/" + meta_.SegmentFileName(sm.id);
  TDB_ASSIGN_OR_RETURN(
      auto pager,
      Pager::Open(env_, path,
                  registry_->ForFile(StrPrintf("%s#seg%u", meta_.name.c_str(),
                                               sm.id)),
                  buffer_frames_, journal_, sopts_));
  return HeapFile::Open(std::move(pager), history_layout_);
}

Result<HeapFile*> Relation::EnsureSegment(int64_t lo, int64_t hi) {
  for (Segment& seg : segments_) {
    if (seg.meta.lo == lo && seg.meta.hi == hi) return seg.file.get();
  }
  SegmentMeta sm;
  sm.id = meta_.NextSegmentId();
  sm.lo = lo;
  sm.hi = hi;
  TDB_ASSIGN_OR_RETURN(auto file, OpenSegmentFile(sm));
  meta_.segments.push_back(sm);
  segments_.push_back(Segment{sm, std::move(file)});
  return segments_.back().file.get();
}

Status Relation::AppendToSegment(uint16_t id, const std::vector<uint8_t>& hrec,
                                 Tid* tid) {
  HeapFile* file = SegmentFile(id);
  if (file == nullptr) {
    return Status::Invalid(StrPrintf("relation '%s' has no segment %u",
                                     meta_.name.c_str(), id));
  }
  return file->Insert(hrec.data(), hrec.size(), tid);
}

Result<std::vector<uint8_t>> Relation::FetchHistoryAt(const HistoryTid& at) {
  if (at.seg == 0) return FetchHistory(at.tid);
  HeapFile* file = SegmentFile(at.seg);
  if (file == nullptr) {
    return Status::Corruption(StrPrintf("history chain points at missing "
                                        "segment %u of '%s'",
                                        at.seg, meta_.name.c_str()));
  }
  TDB_ASSIGN_OR_RETURN(auto hrec, file->Fetch(at.tid));
  hrec.resize(layout_.record_size);
  return hrec;
}

Result<std::optional<HistoryTid>> Relation::HistoryBackPtr(
    const HistoryTid& at) {
  std::vector<uint8_t> hrec;
  if (at.seg == 0) {
    TDB_ASSIGN_OR_RETURN(hrec, history_->Fetch(at.tid));
  } else {
    HeapFile* file = SegmentFile(at.seg);
    if (file == nullptr) {
      return Status::Corruption(StrPrintf("history chain points at missing "
                                          "segment %u of '%s'",
                                          at.seg, meta_.name.c_str()));
    }
    TDB_ASSIGN_OR_RETURN(hrec, file->Fetch(at.tid));
  }
  const uint8_t* bp = hrec.data() + layout_.record_size;
  HistoryTid prev;
  std::memcpy(&prev.tid.page, bp, 4);
  std::memcpy(&prev.tid.slot, bp + 4, 2);
  std::memcpy(&prev.seg, bp + 6, 2);
  if (prev.tid.page == kNoPage) return std::optional<HistoryTid>();
  return std::optional<HistoryTid>(prev);
}

Status Relation::PatchHistoryBackPtr(const HistoryTid& at,
                                     const std::optional<HistoryTid>& to) {
  HeapFile* file = at.seg == 0 ? history_.get() : SegmentFile(at.seg);
  if (file == nullptr) {
    return Status::Invalid(StrPrintf("no history store for segment %u",
                                     at.seg));
  }
  TDB_ASSIGN_OR_RETURN(auto hrec, file->Fetch(at.tid));
  uint8_t* bp = hrec.data() + layout_.record_size;
  uint32_t page = kNoPage;
  uint16_t slot = 0;
  uint16_t seg = 0;
  if (to.has_value()) {
    page = to->tid.page;
    slot = to->tid.slot;
    seg = to->seg;
  }
  std::memcpy(bp, &page, 4);
  std::memcpy(bp + 4, &slot, 2);
  std::memcpy(bp + 6, &seg, 2);
  return file->UpdateInPlace(at.tid, hrec.data(), hrec.size());
}

Status Relation::UpdateAnchor(const Value& key, const HistoryTid& head) {
  TDB_ASSIGN_OR_RETURN(auto cur, anchors_->ScanKey(key));
  TDB_ASSIGN_OR_RETURN(bool have, cur->Next());
  if (!have) return Status::Corruption("anchor vanished during vacuum");
  std::vector<uint8_t> arec = cur->record();
  uint8_t* p = arec.data() + anchor_layout_.key_width;
  std::memcpy(p, &head.tid.page, 4);
  std::memcpy(p + 4, &head.tid.slot, 2);
  std::memcpy(p + 6, &head.seg, 2);
  return anchors_->UpdateInPlace(cur->tid(), arec.data(), arec.size());
}

Status Relation::IndexInsertCurrent(const std::vector<uint8_t>& rec, Tid tid,
                                    bool in_history_store) {
  for (auto& idx : indexes_) {
    int attr_idx = meta_.schema.FindAttr(idx->meta().attr);
    TDB_RETURN_NOT_OK(
        idx->InsertCurrent(AttrOf(rec.data(), attr_idx), tid,
                           in_history_store));
  }
  return Status::OK();
}

Status Relation::IndexInsertHistory(const std::vector<uint8_t>& rec, Tid tid,
                                    bool in_history_store) {
  for (auto& idx : indexes_) {
    int attr_idx = meta_.schema.FindAttr(idx->meta().attr);
    TDB_RETURN_NOT_OK(
        idx->InsertHistory(AttrOf(rec.data(), attr_idx), tid,
                           in_history_store));
  }
  return Status::OK();
}

Status Relation::IndexMoveToHistory(const std::vector<uint8_t>& rec,
                                    Tid old_tid, Tid new_tid,
                                    bool new_in_history_store) {
  for (auto& idx : indexes_) {
    int attr_idx = meta_.schema.FindAttr(idx->meta().attr);
    TDB_RETURN_NOT_OK(idx->MoveToHistory(AttrOf(rec.data(), attr_idx),
                                         old_tid, new_tid,
                                         new_in_history_store));
  }
  return Status::OK();
}

Status Relation::IndexRemoveCurrent(const std::vector<uint8_t>& rec, Tid tid) {
  for (auto& idx : indexes_) {
    int attr_idx = meta_.schema.FindAttr(idx->meta().attr);
    TDB_RETURN_NOT_OK(idx->RemoveCurrent(AttrOf(rec.data(), attr_idx), tid));
  }
  return Status::OK();
}

}  // namespace tdb
