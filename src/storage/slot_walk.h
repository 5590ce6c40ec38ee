#ifndef CHRONOQUEL_STORAGE_SLOT_WALK_H_
#define CHRONOQUEL_STORAGE_SLOT_WALK_H_

#include <cstdint>

#include "storage/storage_file.h"

namespace tdb {

/// The one page walk of the slotted-page cursors (heap and hash scans, hash
/// chains, ISAM ranges).  `Next` and `NextBatch` share it: each visit reads
/// the current page, takes its slot bitmap from the resume slot on and
/// iterates the set bits, so unused slots cost nothing.  The bitmap is
/// re-read on every visit, so records placed in the page between two calls
/// are seen exactly as a slot-by-slot walk would see them.
///
/// `Derived` supplies, all inlined:
///   bool HavePage();                   // position on a page, or end
///   void PageDone(const Page& page);   // move past the current page
///   IoCategory CategoryOf(uint32_t);   // accounting category of a page
///   bool Accept(const uint8_t* rec);   // record filter
///
/// Page requests are those of the slot-by-slot walk it replaced: `Next`
/// re-reads the page it returned from before moving on, and `NextBatch`
/// cuts the batch at every page fetch (moving on at once when it reached
/// the page's last slot), so slices only ever alias one resident frame.
template <typename Derived>
class SlotWalkCursor : public Cursor {
 public:
  Result<bool> Next() override {
    TDB_ASSIGN_OR_RETURN(size_t n, Walk(1, nullptr));
    return n > 0;
  }

  Result<size_t> NextBatch(RecordBatch* batch, size_t max) override {
    return Walk(max, batch);
  }

 protected:
  SlotWalkCursor(Pager* pager, uint16_t record_size, uint32_t page)
      : pager_(pager),
        record_size_(record_size),
        capacity_(Page::Capacity(record_size, pager->usable_size())),
        page_(page) {}

  Pager* pager_;
  uint16_t record_size_;
  uint16_t capacity_;  // slots per page, computed once
  uint32_t page_;      // page being walked
  uint16_t slot_ = 0;  // next slot of page_ to visit

 private:
  /// Emits up to `max` accepted records: as frame slices into `batch`, or
  /// (batch null) into record_/tid_.
  Result<size_t> Walk(size_t max, RecordBatch* batch) {
    Derived* self = static_cast<Derived*>(this);
    while (true) {
      if (!self->HavePage()) return 0;
      TDB_ASSIGN_OR_RETURN(uint8_t* frame,
                           pager_->ReadPage(page_, self->CategoryOf(page_)));
      Page page(frame, record_size_, pager_->usable_size());
      uint64_t bits = 0;
      if (slot_ < capacity_) {
        const uint64_t cap_mask = capacity_ >= 64
                                      ? ~uint64_t{0}
                                      : (uint64_t{1} << capacity_) - 1;
        bits = page.used_bitmap() & cap_mask & (~uint64_t{0} << slot_);
      }
      size_t n = 0;
      while (bits != 0 && n < max) {
        const uint16_t s = static_cast<uint16_t>(__builtin_ctzll(bits));
        bits &= bits - 1;
        slot_ = static_cast<uint16_t>(s + 1);
        const uint8_t* rec = page.RecordAt(s);
        if (!self->Accept(rec)) continue;
        if (batch != nullptr) {
          batch->AppendSlice(rec, Tid{page_, s});
        } else {
          record_.assign(rec, rec + record_size_);
          tid_ = Tid{page_, s};
        }
        ++n;
      }
      if (n < max || (batch != nullptr && slot_ >= capacity_)) {
        self->PageDone(page);
        slot_ = 0;
      }
      if (n > 0) {
        if (batch != nullptr) batch->SetSource(pager_);
        return n;
      }
    }
  }
};

/// Every used slot of pages [0, page_count) in order: the full scan of heap
/// and hash files.
class LinearCursor : public SlotWalkCursor<LinearCursor> {
 public:
  LinearCursor(const StorageFile* file, Pager* pager, uint16_t record_size)
      : SlotWalkCursor(pager, record_size, 0), file_(file) {}

 private:
  friend class SlotWalkCursor<LinearCursor>;
  bool HavePage() const { return page_ < pager_->page_count(); }
  void PageDone(const Page&) { ++page_; }
  IoCategory CategoryOf(uint32_t pno) const {
    return file_->ScanCategory(pno);
  }
  bool Accept(const uint8_t*) const { return true; }

  const StorageFile* file_;
};

}  // namespace tdb

#endif  // CHRONOQUEL_STORAGE_SLOT_WALK_H_
