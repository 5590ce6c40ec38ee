#include "storage/heap_file.h"

#include <cstring>

#include "storage/slot_walk.h"

namespace tdb {

Result<std::unique_ptr<HeapFile>> HeapFile::Open(std::unique_ptr<Pager> pager,
                                                 const RecordLayout& layout,
                                                 IoCategory category) {
  if (layout.record_size == 0 ||
      layout.record_size > pager->usable_size() - kPageHeaderSize) {
    return Status::Invalid("record size out of range for a page");
  }
  return std::unique_ptr<HeapFile>(
      new HeapFile(std::move(pager), layout, category));
}

Status HeapFile::Insert(const uint8_t* rec, size_t size, Tid* tid) {
  if (size != layout_.record_size) {
    return Status::Invalid("record size mismatch on insert");
  }
  // Reuse a slot freed earlier in this session, if any.
  while (!free_hints_.empty()) {
    Tid hint = free_hints_.back();
    free_hints_.pop_back();
    if (hint.page >= pager_->page_count()) continue;
    TDB_ASSIGN_OR_RETURN(uint8_t* frame, pager_->ReadPage(hint.page,
                                                          category_));
    Page page(frame, layout_.record_size, pager_->usable_size());
    if (page.SlotUsed(hint.slot)) continue;  // stale hint
    std::memcpy(page.RecordAt(hint.slot), rec, size);
    page.SetSlotUsed(hint.slot, true);
    pager_->MarkDirty();
    if (tid != nullptr) *tid = hint;
    return Status::OK();
  }
  uint32_t target;
  if (pager_->page_count() == 0) {
    TDB_ASSIGN_OR_RETURN(target, pager_->AllocatePage(category_));
  } else {
    target = pager_->page_count() - 1;
  }
  TDB_ASSIGN_OR_RETURN(uint8_t* frame, pager_->ReadPage(target, category_));
  Page page(frame, layout_.record_size, pager_->usable_size());
  int slot = page.FirstFreeSlot();
  if (slot < 0) {
    TDB_ASSIGN_OR_RETURN(target, pager_->AllocatePage(category_));
    TDB_ASSIGN_OR_RETURN(frame, pager_->ReadPage(target, category_));
    page = Page(frame, layout_.record_size, pager_->usable_size());
    slot = page.FirstFreeSlot();
  }
  std::memcpy(page.RecordAt(static_cast<uint16_t>(slot)), rec, size);
  page.SetSlotUsed(static_cast<uint16_t>(slot), true);
  pager_->MarkDirty();
  if (tid != nullptr) *tid = Tid{target, static_cast<uint16_t>(slot)};
  return Status::OK();
}

Status HeapFile::InsertAtPage(uint32_t page_hint, const uint8_t* rec,
                              size_t size, Tid* tid) {
  if (size != layout_.record_size) {
    return Status::Invalid("record size mismatch on insert");
  }
  if (page_hint < pager_->page_count()) {
    TDB_ASSIGN_OR_RETURN(uint8_t* frame,
                         pager_->ReadPage(page_hint, category_));
    Page page(frame, layout_.record_size, pager_->usable_size());
    int slot = page.FirstFreeSlot();
    if (slot >= 0) {
      std::memcpy(page.RecordAt(static_cast<uint16_t>(slot)), rec, size);
      page.SetSlotUsed(static_cast<uint16_t>(slot), true);
      pager_->MarkDirty();
      if (tid != nullptr) *tid = Tid{page_hint, static_cast<uint16_t>(slot)};
      return Status::OK();
    }
  }
  return InsertFreshPage(rec, size, tid);
}

Status HeapFile::InsertFreshPage(const uint8_t* rec, size_t size, Tid* tid) {
  if (size != layout_.record_size) {
    return Status::Invalid("record size mismatch on insert");
  }
  TDB_ASSIGN_OR_RETURN(uint32_t pno, pager_->AllocatePage(category_));
  TDB_ASSIGN_OR_RETURN(uint8_t* frame, pager_->ReadPage(pno, category_));
  Page page(frame, layout_.record_size, pager_->usable_size());
  page.Format();
  std::memcpy(page.RecordAt(0), rec, size);
  page.SetSlotUsed(0, true);
  pager_->MarkDirty();
  if (tid != nullptr) *tid = Tid{pno, 0};
  return Status::OK();
}

Status HeapFile::UpdateInPlace(const Tid& tid, const uint8_t* rec,
                               size_t size) {
  if (size != layout_.record_size) {
    return Status::Invalid("record size mismatch on update");
  }
  TDB_ASSIGN_OR_RETURN(uint8_t* frame, pager_->ReadPage(tid.page, category_));
  Page page(frame, layout_.record_size, pager_->usable_size());
  if (!page.SlotUsed(tid.slot)) {
    return Status::NotFound("update of unused slot");
  }
  std::memcpy(page.RecordAt(tid.slot), rec, size);
  pager_->MarkDirty();
  return Status::OK();
}

Status HeapFile::Erase(const Tid& tid) {
  TDB_ASSIGN_OR_RETURN(uint8_t* frame, pager_->ReadPage(tid.page, category_));
  Page page(frame, layout_.record_size, pager_->usable_size());
  if (!page.SlotUsed(tid.slot)) return Status::NotFound("erase of unused slot");
  page.SetSlotUsed(tid.slot, false);
  pager_->MarkDirty();
  free_hints_.push_back(tid);
  return Status::OK();
}

Result<std::unique_ptr<Cursor>> HeapFile::Scan() {
  return std::unique_ptr<Cursor>(
      new LinearCursor(this, pager_.get(), layout_.record_size));
}

Result<std::unique_ptr<Cursor>> HeapFile::ScanKey(const Value&) {
  return Status::NotSupported("heap files have no key access path");
}

Result<std::vector<uint8_t>> HeapFile::Fetch(const Tid& tid) {
  TDB_ASSIGN_OR_RETURN(uint8_t* frame, pager_->ReadPage(tid.page, category_));
  Page page(frame, layout_.record_size, pager_->usable_size());
  if (!page.SlotUsed(tid.slot)) return Status::NotFound("fetch of unused slot");
  return std::vector<uint8_t>(page.RecordAt(tid.slot),
                              page.RecordAt(tid.slot) + layout_.record_size);
}

}  // namespace tdb
