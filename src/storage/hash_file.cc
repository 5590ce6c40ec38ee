#include "storage/hash_file.h"

#include <cmath>
#include <cstring>

#include "storage/key_compare.h"
#include "storage/slot_walk.h"

namespace tdb {

namespace {

/// One bucket's chain — the primary page and every page linked through
/// next_overflow — filtered to the records whose key equals the probe.
/// The whole chain is read (and counted) whatever matches: the "hashed
/// access reads the entire ever-lengthening chain" behaviour the paper
/// analyzes.
class ChainCursor : public SlotWalkCursor<ChainCursor> {
 public:
  ChainCursor(const HashFile* file, Pager* pager, const RecordLayout& layout,
              uint32_t bucket, KeyProbe probe)
      : SlotWalkCursor(pager, layout.record_size, bucket),
        file_(file),
        key_offset_(layout.key_offset),
        probe_(std::move(probe)),
        tally_(pager) {}

 private:
  friend class SlotWalkCursor<ChainCursor>;
  bool HavePage() const { return page_ != kNoPage; }
  void PageDone(const Page& page) { page_ = page.next_overflow(); }
  IoCategory CategoryOf(uint32_t pno) const { return file_->CategoryOf(pno); }
  bool Accept(const uint8_t* rec) {
    return tally_.Compare(probe_, rec + key_offset_) == 0;
  }

  const HashFile* file_;
  int key_offset_;
  KeyProbe probe_;
  CompareTally tally_;
};

}  // namespace

uint32_t HashFile::BucketsFor(uint64_t ntuples, uint16_t record_size,
                              uint32_t usable, int fillfactor) {
  uint32_t cap = Page::Capacity(record_size, usable);
  double per_page = cap * (fillfactor / 100.0);
  if (per_page < 1.0) per_page = 1.0;
  uint64_t buckets = static_cast<uint64_t>(
      (static_cast<double>(ntuples) + per_page - 1) / per_page);
  return buckets == 0 ? 1 : static_cast<uint32_t>(buckets);
}

Result<std::unique_ptr<HashFile>> HashFile::Create(
    std::unique_ptr<Pager> pager, const RecordLayout& layout,
    uint32_t nbuckets) {
  if (!layout.has_key()) return Status::Invalid("hash file needs a key");
  if (nbuckets == 0) return Status::Invalid("hash file needs >= 1 bucket");
  TDB_RETURN_NOT_OK(pager->Reset());
  for (uint32_t i = 0; i < nbuckets; ++i) {
    TDB_RETURN_NOT_OK(pager->AllocatePage(IoCategory::kData).status());
  }
  TDB_RETURN_NOT_OK(pager->Flush());
  return Open(std::move(pager), layout, nbuckets);
}

Result<std::unique_ptr<HashFile>> HashFile::Open(std::unique_ptr<Pager> pager,
                                                 const RecordLayout& layout,
                                                 uint32_t nbuckets) {
  if (!layout.has_key()) return Status::Invalid("hash file needs a key");
  if (pager->page_count() < nbuckets) {
    return Status::Corruption("hash file shorter than its bucket region");
  }
  return std::unique_ptr<HashFile>(
      new HashFile(std::move(pager), layout, nbuckets));
}

Status HashFile::Insert(const uint8_t* rec, size_t size, Tid* tid) {
  if (size != layout_.record_size) {
    return Status::Invalid("record size mismatch on insert");
  }
  Value key = layout_.KeyOf(rec);
  uint32_t pno = BucketOf(key);
  // Walk the chain to its end, stopping at the first page with a free slot
  // (new versions fill slack left by a lower fill factor before the chain
  // grows — the effect behind the jagged lines of Figure 8(b)).
  while (true) {
    TDB_ASSIGN_OR_RETURN(uint8_t* frame, pager_->ReadPage(pno, CategoryOf(pno)));
    Page page(frame, layout_.record_size, pager_->usable_size());
    int slot = page.FirstFreeSlot();
    if (slot >= 0) {
      std::memcpy(page.RecordAt(static_cast<uint16_t>(slot)), rec, size);
      page.SetSlotUsed(static_cast<uint16_t>(slot), true);
      pager_->MarkDirty();
      if (tid != nullptr) *tid = Tid{pno, static_cast<uint16_t>(slot)};
      return Status::OK();
    }
    uint32_t next = page.next_overflow();
    if (next == kNoPage) break;
    pno = next;
  }
  // Chain exhausted: append an overflow page and link it.
  TDB_ASSIGN_OR_RETURN(uint32_t fresh,
                       pager_->AllocatePage(IoCategory::kOverflow));
  {
    TDB_ASSIGN_OR_RETURN(uint8_t* frame,
                         pager_->ReadPage(fresh, IoCategory::kOverflow));
    Page page(frame, layout_.record_size, pager_->usable_size());
    page.Format();
    std::memcpy(page.RecordAt(0), rec, size);
    page.SetSlotUsed(0, true);
    pager_->MarkDirty();
  }
  // Re-read the chain tail to link the new page.
  {
    TDB_ASSIGN_OR_RETURN(uint8_t* frame, pager_->ReadPage(pno, CategoryOf(pno)));
    Page page(frame, layout_.record_size, pager_->usable_size());
    page.set_next_overflow(fresh);
    pager_->MarkDirty();
  }
  if (tid != nullptr) *tid = Tid{fresh, 0};
  return Status::OK();
}

Status HashFile::UpdateInPlace(const Tid& tid, const uint8_t* rec,
                               size_t size) {
  if (size != layout_.record_size) {
    return Status::Invalid("record size mismatch on update");
  }
  TDB_ASSIGN_OR_RETURN(uint8_t* frame,
                       pager_->ReadPage(tid.page, CategoryOf(tid.page)));
  Page page(frame, layout_.record_size, pager_->usable_size());
  if (!page.SlotUsed(tid.slot)) return Status::NotFound("update of unused slot");
  std::memcpy(page.RecordAt(tid.slot), rec, size);
  pager_->MarkDirty();
  return Status::OK();
}

Status HashFile::Erase(const Tid& tid) {
  TDB_ASSIGN_OR_RETURN(uint8_t* frame,
                       pager_->ReadPage(tid.page, CategoryOf(tid.page)));
  Page page(frame, layout_.record_size, pager_->usable_size());
  if (!page.SlotUsed(tid.slot)) return Status::NotFound("erase of unused slot");
  page.SetSlotUsed(tid.slot, false);
  pager_->MarkDirty();
  return Status::OK();
}

Result<std::unique_ptr<Cursor>> HashFile::Scan() {
  return std::unique_ptr<Cursor>(
      new LinearCursor(this, pager_.get(), layout_.record_size));
}

uint32_t HashFile::ProbeBucket(const Value& key) const {
  // A numeric probe of another type than the key lives where the stored key
  // it equals was hashed: f8 keys hash as doubles, integer keys as integers
  // (a fractional probe equals no integer key; any bucket answers it).
  if (key.is_numeric()) {
    if (layout_.key_type == TypeId::kFloat8) {
      return BucketOf(Value::Float8(key.AsDouble()));
    }
    const double d = key.AsDouble();
    if (key.type() == TypeId::kFloat8 && std::trunc(d) == d &&
        std::fabs(d) < 9.2e18) {
      return BucketOf(Value::Int4(static_cast<int64_t>(d)));
    }
  }
  return BucketOf(key);
}

Result<std::unique_ptr<Cursor>> HashFile::ScanKey(const Value& key) {
  TDB_ASSIGN_OR_RETURN(KeyProbe probe, KeyProbe::Encode(layout_, key));
  return std::unique_ptr<Cursor>(new ChainCursor(
      this, pager_.get(), layout_, ProbeBucket(key), std::move(probe)));
}

Result<std::vector<uint8_t>> HashFile::Fetch(const Tid& tid) {
  TDB_ASSIGN_OR_RETURN(uint8_t* frame,
                       pager_->ReadPage(tid.page, CategoryOf(tid.page)));
  Page page(frame, layout_.record_size, pager_->usable_size());
  if (!page.SlotUsed(tid.slot)) return Status::NotFound("fetch of unused slot");
  return std::vector<uint8_t>(page.RecordAt(tid.slot),
                              page.RecordAt(tid.slot) + layout_.record_size);
}

}  // namespace tdb
