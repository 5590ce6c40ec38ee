#include "index/secondary_index.h"

#include <cstring>

#include "obs/metrics.h"
#include "util/stringx.h"

namespace tdb {

namespace {

/// Default bucket count for a hash-structured index: sized for one entry
/// per tuple of a benchmark-scale relation; chains grow beyond that.
constexpr uint32_t kDefaultIndexBuckets = 16;

Result<std::unique_ptr<StorageFile>> OpenIndexFile(
    Env* env, const std::string& path, const RecordLayout& layout,
    Organization org, uint32_t nbuckets, IoCounters* counters, int frames,
    Journal* journal, const StorageOptions& sopts) {
  bool fresh = !env->FileExists(path);
  TDB_ASSIGN_OR_RETURN(
      auto pager, Pager::Open(env, path, counters, frames, journal, sopts));
  if (org == Organization::kHash) {
    if (fresh || pager->page_count() == 0) {
      TDB_ASSIGN_OR_RETURN(auto file,
                           HashFile::Create(std::move(pager), layout, nbuckets));
      return std::unique_ptr<StorageFile>(std::move(file));
    }
    TDB_ASSIGN_OR_RETURN(auto file,
                         HashFile::Open(std::move(pager), layout, nbuckets));
    return std::unique_ptr<StorageFile>(std::move(file));
  }
  TDB_ASSIGN_OR_RETURN(auto file, HeapFile::Open(std::move(pager), layout,
                                                 IoCategory::kIndex));
  return std::unique_ptr<StorageFile>(std::move(file));
}

}  // namespace

Result<std::unique_ptr<SecondaryIndex>> SecondaryIndex::Open(
    Env* env, const std::string& dir, const IndexMeta& meta,
    const Attribute& attr, IoCounters* current_counters,
    IoCounters* history_counters, int buffer_frames, Journal* journal,
    obs::MetricsRegistry* metrics, const StorageOptions& sopts) {
  if (meta.org != Organization::kHeap && meta.org != Organization::kHash) {
    return Status::Invalid("index structure must be heap or hash");
  }
  RecordLayout layout;
  layout.key_offset = 0;
  layout.key_type = attr.type;
  layout.key_width = attr.width;
  layout.record_size = static_cast<uint16_t>(attr.width + 8);

  uint32_t nbuckets = meta.nbuckets > 0 ? meta.nbuckets : kDefaultIndexBuckets;
  TDB_ASSIGN_OR_RETURN(
      auto current,
      OpenIndexFile(env, dir + "/" + meta.CurrentFileName(), layout, meta.org,
                    nbuckets, current_counters, buffer_frames, journal,
                    sopts));
  std::unique_ptr<StorageFile> history;
  if (meta.levels == 2) {
    uint32_t hbuckets =
        meta.history_nbuckets > 0 ? meta.history_nbuckets : kDefaultIndexBuckets;
    TDB_ASSIGN_OR_RETURN(
        history,
        OpenIndexFile(env, dir + "/" + meta.HistoryFileName(), layout,
                      meta.org, hbuckets, history_counters, buffer_frames,
                      journal, sopts));
  }
  std::unique_ptr<SecondaryIndex> index(new SecondaryIndex(
      meta, layout, std::move(current), std::move(history)));
  if (metrics != nullptr) {
    const std::string prefix = "index." + meta.name + ".";
    index->m_probes_ = metrics->counter(prefix + "probes");
    index->m_entries_scanned_ = metrics->counter(prefix + "entries_scanned");
    index->m_inserts_ = metrics->counter(prefix + "inserts");
    index->m_moves_ = metrics->counter(prefix + "moves");
    index->m_removes_ = metrics->counter(prefix + "removes");
  }
  return index;
}

std::vector<uint8_t> SecondaryIndex::EncodeEntry(const Value& key, Tid tid,
                                                 bool in_history_store) const {
  std::vector<uint8_t> rec(layout_.record_size, 0);
  // Key bytes.
  switch (layout_.key_type) {
    case TypeId::kInt1:
    case TypeId::kInt2:
    case TypeId::kInt4: {
      int64_t v = key.AsInt();
      std::memcpy(rec.data(), &v, layout_.key_width);
      break;
    }
    case TypeId::kFloat8: {
      double v = key.AsDouble();
      std::memcpy(rec.data(), &v, 8);
      break;
    }
    case TypeId::kChar: {
      const std::string& s = key.AsString();
      size_t n = std::min<size_t>(s.size(), layout_.key_width);
      std::memcpy(rec.data(), s.data(), n);
      std::memset(rec.data() + n, ' ', layout_.key_width - n);
      break;
    }
    case TypeId::kTime: {
      int32_t v = key.AsTime().seconds();
      std::memcpy(rec.data(), &v, 4);
      break;
    }
  }
  uint8_t* p = rec.data() + layout_.key_width;
  std::memcpy(p, &tid.page, 4);
  std::memcpy(p + 4, &tid.slot, 2);
  uint16_t flags = in_history_store ? 1 : 0;
  std::memcpy(p + 6, &flags, 2);
  return rec;
}

IndexEntryRef SecondaryIndex::DecodeEntry(const RecordLayout& layout,
                                          const uint8_t* rec) {
  const uint8_t* p = rec + layout.key_width;
  IndexEntryRef ref;
  std::memcpy(&ref.tid.page, p, 4);
  std::memcpy(&ref.tid.slot, p + 4, 2);
  uint16_t flags = 0;
  std::memcpy(&flags, p + 6, 2);
  ref.in_history = (flags & 1) != 0;
  return ref;
}

Status SecondaryIndex::InsertCurrent(const Value& key, Tid tid,
                                     bool in_history_store) {
  if (m_inserts_ != nullptr) m_inserts_->Increment();
  std::vector<uint8_t> rec = EncodeEntry(key, tid, in_history_store);
  return current_->Insert(rec.data(), rec.size(), nullptr);
}

Status SecondaryIndex::InsertHistory(const Value& key, Tid tid,
                                     bool in_history_store) {
  if (m_inserts_ != nullptr) m_inserts_->Increment();
  StorageFile* file = meta_.levels == 2 ? history_.get() : current_.get();
  std::vector<uint8_t> rec = EncodeEntry(key, tid, in_history_store);
  return file->Insert(rec.data(), rec.size(), nullptr);
}

Result<std::unique_ptr<Cursor>> SecondaryIndex::OpenMatches(
    StorageFile* file, const Value& key, std::optional<KeyProbe>* filter) {
  // A hash structure's bucket chain yields only the entries equal to the
  // key; a heap structure is scanned whole and filtered here.
  if (file->org() == Organization::kHash) return file->ScanKey(key);
  TDB_ASSIGN_OR_RETURN(*filter, KeyProbe::Encode(layout_, key));
  return file->Scan();
}

Result<Tid> SecondaryIndex::FindEntry(StorageFile* file, const Value& key,
                                      Tid tid) {
  std::optional<KeyProbe> filter;
  TDB_ASSIGN_OR_RETURN(auto cur, OpenMatches(file, key, &filter));
  CompareTally tally(file->pager());
  while (true) {
    TDB_ASSIGN_OR_RETURN(bool have, cur->Next());
    if (!have) break;
    const uint8_t* rec = cur->record().data();
    if (filter.has_value() && tally.Compare(*filter, rec) != 0) continue;
    IndexEntryRef ref = DecodeEntry(layout_, rec);
    if (ref.tid == tid) return cur->tid();
  }
  return Status::NotFound("index entry not found");
}

Status SecondaryIndex::RemoveCurrent(const Value& key, Tid tid) {
  if (m_removes_ != nullptr) m_removes_->Increment();
  TDB_ASSIGN_OR_RETURN(Tid slot, FindEntry(current_.get(), key, tid));
  return current_->Erase(slot);
}

Status SecondaryIndex::MoveToHistory(const Value& key, Tid old_tid,
                                     Tid new_tid, bool new_in_history_store) {
  if (m_moves_ != nullptr) m_moves_->Increment();
  if (meta_.levels == 2) {
    TDB_RETURN_NOT_OK(RemoveCurrent(key, old_tid));
    return InsertHistory(key, new_tid, new_in_history_store);
  }
  // 1-level: rewrite the entry in place if the version moved.
  if (old_tid == new_tid) return Status::OK();
  TDB_ASSIGN_OR_RETURN(Tid slot, FindEntry(current_.get(), key, old_tid));
  std::vector<uint8_t> rec = EncodeEntry(key, new_tid, new_in_history_store);
  return current_->UpdateInPlace(slot, rec.data(), rec.size());
}

Status SecondaryIndex::CollectMatches(StorageFile* file, const Value& key,
                                      std::vector<IndexEntryRef>* out) {
  std::optional<KeyProbe> filter;
  TDB_ASSIGN_OR_RETURN(auto cur, OpenMatches(file, key, &filter));
  CompareTally tally(file->pager());
  while (true) {
    TDB_ASSIGN_OR_RETURN(bool have, cur->Next());
    if (!have) break;
    if (m_entries_scanned_ != nullptr) m_entries_scanned_->Increment();
    const uint8_t* rec = cur->record().data();
    if (filter.has_value() && tally.Compare(*filter, rec) != 0) continue;
    out->push_back(DecodeEntry(layout_, rec));
  }
  return Status::OK();
}

Result<std::vector<IndexEntryRef>> SecondaryIndex::Lookup(const Value& key,
                                                          bool current_only) {
  if (m_probes_ != nullptr) m_probes_->Increment();
  std::vector<IndexEntryRef> out;
  TDB_RETURN_NOT_OK(CollectMatches(current_.get(), key, &out));
  if (!current_only && history_ != nullptr) {
    TDB_RETURN_NOT_OK(CollectMatches(history_.get(), key, &out));
  }
  return out;
}

}  // namespace tdb
