#include "storage/isam_file.h"

#include <algorithm>
#include <cstring>

#include "storage/key_compare.h"
#include "storage/slot_walk.h"
#include "util/stringx.h"

namespace tdb {

std::string IsamMeta::Serialize() const {
  std::string out = StrPrintf("%u", data_pages);
  for (uint32_t c : level_counts) out += StrPrintf(":%u", c);
  return out;
}

Result<IsamMeta> IsamMeta::Parse(std::string_view text) {
  IsamMeta meta;
  std::vector<std::string> parts = Split(text, ':');
  if (parts.empty()) return Status::Corruption("empty isam meta");
  int64_t v = 0;
  if (!ParseInt64(parts[0], &v) || v < 0) {
    return Status::Corruption("bad isam data page count");
  }
  meta.data_pages = static_cast<uint32_t>(v);
  for (size_t i = 1; i < parts.size(); ++i) {
    if (!ParseInt64(parts[i], &v) || v <= 0) {
      return Status::Corruption("bad isam level count");
    }
    meta.level_counts.push_back(static_cast<uint32_t>(v));
  }
  if (meta.level_counts.empty() || meta.level_counts.back() != 1) {
    return Status::Corruption("isam meta lacks a root level");
  }
  return meta;
}

namespace {

/// Writes directory entry `i` of a raw (header-less) directory page.
void PutDirEntry(uint8_t* page, uint32_t entry_size, uint32_t i,
                 const uint8_t* key, uint32_t key_width, uint32_t pno) {
  uint8_t* p = page + i * entry_size;
  std::memcpy(p, key, key_width);
  std::memcpy(p + key_width, &pno, 4);
}

uint32_t DirEntryPage(const uint8_t* page, uint32_t entry_size, uint32_t i,
                      uint32_t key_width) {
  uint32_t pno;
  std::memcpy(&pno, page + i * entry_size + key_width, 4);
  return pno;
}

const uint8_t* DirEntryKey(const uint8_t* page, uint32_t entry_size,
                           uint32_t i) {
  return page + i * entry_size;
}

/// Primary data pages in order, each followed by its overflow chain,
/// optionally restricted to a key range.
class IsamScanCursor : public SlotWalkCursor<IsamScanCursor> {
 public:
  /// Iterates primary pages [first_primary, last_primary] and their
  /// chains.  `last_primary` comes from a directory lookup of the upper
  /// bound, so a keyed probe never reads past its covering page group.
  IsamScanCursor(const IsamFile* file, Pager* pager,
                 const RecordLayout& layout, uint32_t first_primary,
                 uint32_t last_primary, uint32_t data_pages)
      : SlotWalkCursor(pager, layout.record_size, kNoPage),
        file_(file),
        key_offset_(layout.key_offset),
        data_pages_(data_pages),
        primary_(first_primary),
        last_primary_(last_primary),
        tally_(pager) {}

  /// Restricts the walk to the records within `range`.
  void SetRange(KeyRange range) { range_ = std::move(range); }

 private:
  friend class SlotWalkCursor<IsamScanCursor>;

  bool HavePage() {
    if (page_ != kNoPage) return true;
    // Move on to the next primary page.  If the previous primary page (or
    // its chain) held any record above the upper bound, the pages beyond —
    // all of whose records sort after this page's key range — cannot
    // contribute, so the walk stops without reading them.
    if (primary_ >= data_pages_ || primary_ > last_primary_ || past_range_) {
      return false;
    }
    page_ = primary_++;
    slot_ = 0;
    return true;
  }
  void PageDone(const Page& page) { page_ = page.next_overflow(); }
  IoCategory CategoryOf(uint32_t pno) const { return file_->CategoryOf(pno); }

  bool Accept(const uint8_t* rec) {
    const KeyRange::Place place = range_.PlaceOf(rec + key_offset_, &tally_);
    // Later primary pages hold only larger keys.
    if (place == KeyRange::Place::kAbove) past_range_ = true;
    return place == KeyRange::Place::kInside;
  }

  const IsamFile* file_;
  int key_offset_;
  uint32_t data_pages_;
  uint32_t primary_ = 0;       // next primary page to start
  uint32_t last_primary_ = 0;  // last primary page that may qualify
  KeyRange range_;
  bool past_range_ = false;
  CompareTally tally_;
};

}  // namespace

Result<std::unique_ptr<IsamFile>> IsamFile::BulkLoad(
    std::unique_ptr<Pager> pager, const RecordLayout& layout,
    std::vector<std::vector<uint8_t>> records, int fillfactor,
    IsamMeta* meta_out) {
  if (!layout.has_key()) return Status::Invalid("isam file needs a key");
  if (fillfactor < 1 || fillfactor > 100) {
    return Status::Invalid("fillfactor must be in [1,100]");
  }

  // Sort by key.
  const auto key_of = [&](const std::vector<uint8_t>& rec) {
    return rec.data() + layout.key_offset;
  };
  std::stable_sort(records.begin(), records.end(),
                   [&](const std::vector<uint8_t>& a,
                       const std::vector<uint8_t>& b) {
                     return KeyProbe::CompareStored(layout, key_of(a),
                                                    key_of(b)) < 0;
                   });

  uint16_t cap = Page::Capacity(layout.record_size, pager->usable_size());
  uint16_t per_page = static_cast<uint16_t>(cap * fillfactor / 100);
  if (per_page == 0) per_page = 1;

  TDB_RETURN_NOT_OK(pager->Reset());

  // --- pass 1: group records into primary pages ---
  // A primary page never STARTS in the middle of a key run: when a page
  // fills and the next record continues the key of the last one placed,
  // the run's remainder is diverted into the page's overflow chain.  This
  // keeps every key's versions inside one page group, so keyed access is
  // one directory descent plus one chain — also after a `modify` of a
  // relation that already carries many versions per key.
  struct Group {
    size_t begin = 0;          // first record of the primary page
    size_t primary_count = 0;  // records on the primary page
    size_t overflow_count = 0; // run continuation in the overflow chain
  };
  std::vector<Group> groups;
  {
    size_t i = 0;
    do {
      Group group;
      group.begin = i;
      while (group.primary_count < per_page && i < records.size()) {
        ++group.primary_count;
        ++i;
      }
      if (i > 0) {
        while (i < records.size() &&
               KeyProbe::CompareStored(layout, key_of(records[i]),
                                       key_of(records[i - 1])) == 0) {
          ++group.overflow_count;
          ++i;
        }
      }
      groups.push_back(group);
    } while (i < records.size());
  }

  // Overflow pages live after the directory; compute the directory size up
  // front so their page numbers are known while writing the primaries.
  IsamMeta meta;
  meta.data_pages = static_cast<uint32_t>(groups.size());
  {
    uint32_t entry_size = layout.key_width + 4;
    uint32_t fanout = pager->usable_size() / entry_size;
    uint32_t level = meta.data_pages;
    do {
      level = (level + fanout - 1) / fanout;
      meta.level_counts.push_back(level);
    } while (level > 1);
  }
  uint32_t next_overflow_page = meta.data_pages + meta.dir_total();

  // --- pass 2a: primary data pages ---
  std::vector<std::vector<uint8_t>> first_keys;  // first key per data page
  struct OverflowPlan {
    uint32_t first_page;
    size_t begin;
    size_t count;
  };
  std::vector<OverflowPlan> overflow_plans;
  for (const Group& group : groups) {
    TDB_ASSIGN_OR_RETURN(uint32_t pno, pager->AllocatePage(IoCategory::kData));
    TDB_ASSIGN_OR_RETURN(uint8_t* frame,
                         pager->ReadPage(pno, IoCategory::kData));
    Page page(frame, layout.record_size, pager->usable_size());
    page.Format();
    std::vector<uint8_t> first_key(layout.key_width, 0);
    for (size_t r = 0; r < group.primary_count; ++r) {
      const auto& rec = records[group.begin + r];
      if (r == 0) {
        std::memcpy(first_key.data(), rec.data() + layout.key_offset,
                    layout.key_width);
      }
      std::memcpy(page.RecordAt(static_cast<uint16_t>(r)), rec.data(),
                  layout.record_size);
      page.SetSlotUsed(static_cast<uint16_t>(r), true);
    }
    if (group.overflow_count > 0) {
      page.set_next_overflow(next_overflow_page);
      overflow_plans.push_back({next_overflow_page,
                                group.begin + group.primary_count,
                                group.overflow_count});
      next_overflow_page += static_cast<uint32_t>(
          (group.overflow_count + cap - 1) / cap);
    }
    pager->MarkDirty();
    first_keys.push_back(std::move(first_key));
  }

  // --- pass 2b: directory, bottom-up (recomputes the level counts; the
  // arithmetic matches the pass-1 estimate by construction) ---
  meta.level_counts.clear();
  uint32_t entry_size = layout.key_width + 4;
  uint32_t fanout = pager->usable_size() / entry_size;
  // Entries of the level being built: (first key, page number).
  std::vector<std::pair<std::vector<uint8_t>, uint32_t>> entries;
  for (uint32_t p = 0; p < meta.data_pages; ++p) {
    entries.emplace_back(first_keys[p], p);
  }
  while (true) {
    uint32_t level_pages = static_cast<uint32_t>(
        (entries.size() + fanout - 1) / fanout);
    std::vector<std::pair<std::vector<uint8_t>, uint32_t>> next;
    for (uint32_t dp = 0; dp < level_pages; ++dp) {
      TDB_ASSIGN_OR_RETURN(uint32_t pno,
                           pager->AllocatePage(IoCategory::kDirectory));
      TDB_ASSIGN_OR_RETURN(uint8_t* frame,
                           pager->ReadPage(pno, IoCategory::kDirectory));
      std::memset(frame, 0, pager->page_size());
      uint32_t base = dp * fanout;
      uint32_t n = std::min<uint32_t>(fanout,
                                      static_cast<uint32_t>(entries.size()) -
                                          base);
      for (uint32_t e = 0; e < n; ++e) {
        PutDirEntry(frame, entry_size, e, entries[base + e].first.data(),
                    layout.key_width, entries[base + e].second);
      }
      pager->MarkDirty();
      next.emplace_back(entries[base].first, pno);
    }
    meta.level_counts.push_back(level_pages);
    if (level_pages == 1) break;
    entries = std::move(next);
  }

  // --- pass 2c: overflow chains for runs diverted in pass 1 ---
  for (const OverflowPlan& plan : overflow_plans) {
    size_t remaining = plan.count;
    size_t next_record = plan.begin;
    uint32_t pno = plan.first_page;
    while (remaining > 0) {
      TDB_ASSIGN_OR_RETURN(uint32_t allocated,
                           pager->AllocatePage(IoCategory::kOverflow));
      if (allocated != pno) {
        return Status::Internal("isam bulkload overflow planning mismatch");
      }
      TDB_ASSIGN_OR_RETURN(uint8_t* frame,
                           pager->ReadPage(pno, IoCategory::kOverflow));
      Page page(frame, layout.record_size, pager->usable_size());
      page.Format();
      uint16_t placed = 0;
      while (placed < cap && remaining > 0) {
        std::memcpy(page.RecordAt(placed), records[next_record].data(),
                    layout.record_size);
        page.SetSlotUsed(placed, true);
        ++placed;
        ++next_record;
        --remaining;
      }
      if (remaining > 0) page.set_next_overflow(pno + 1);
      pager->MarkDirty();
      ++pno;
    }
  }
  TDB_RETURN_NOT_OK(pager->Flush());

  if (meta_out != nullptr) *meta_out = meta;
  return Open(std::move(pager), layout, meta);
}

Result<std::unique_ptr<IsamFile>> IsamFile::Open(std::unique_ptr<Pager> pager,
                                                 const RecordLayout& layout,
                                                 const IsamMeta& meta) {
  if (!layout.has_key()) return Status::Invalid("isam file needs a key");
  if (meta.level_counts.empty() || meta.level_counts.back() != 1) {
    return Status::Corruption("isam meta lacks a root level");
  }
  if (pager->page_count() < meta.data_pages + meta.dir_total()) {
    return Status::Corruption("isam file shorter than data + directory");
  }
  return std::unique_ptr<IsamFile>(
      new IsamFile(std::move(pager), layout, meta));
}

uint32_t IsamFile::LevelStart(size_t level) const {
  uint32_t start = meta_.data_pages;
  for (size_t l = 0; l < level; ++l) start += meta_.level_counts[l];
  return start;
}

uint32_t IsamFile::LevelEntries(size_t level) const {
  return level == 0 ? meta_.data_pages : meta_.level_counts[level - 1];
}

Result<uint32_t> IsamFile::LookupDataPage(const KeyProbe& key) {
  uint32_t entry_size = layout_.key_width + 4;
  uint32_t fanout = pager_->usable_size() / entry_size;
  CompareTally tally(pager_.get());

  size_t level = meta_.level_counts.size() - 1;  // root
  uint32_t pno = LevelStart(level);              // root page
  uint32_t page_first_entry = 0;                 // index of entry 0 in level
  while (true) {
    uint32_t total_entries = LevelEntries(level);
    uint32_t n = std::min<uint32_t>(fanout, total_entries - page_first_entry);
    TDB_ASSIGN_OR_RETURN(uint8_t* frame,
                         pager_->ReadPage(pno, IoCategory::kDirectory));
    // Last entry whose first key <= key; entry 0 if key sorts before all.
    // Entries ascend, so a binary search over [1, n) finds the first one
    // above the key.
    uint32_t lo = 1;
    uint32_t hi = n;
    while (lo < hi) {
      const uint32_t mid = lo + (hi - lo) / 2;
      if (tally.Compare(key, DirEntryKey(frame, entry_size, mid)) <= 0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    const uint32_t chosen = lo - 1;
    uint32_t child = DirEntryPage(frame, entry_size, chosen, layout_.key_width);
    if (level == 0) return child;  // entry points at a data page
    // Descend: entries store absolute page numbers of the level below.
    --level;
    page_first_entry = (child - LevelStart(level)) * fanout;
    pno = child;
  }
}

Status IsamFile::Insert(const uint8_t* rec, size_t size, Tid* tid) {
  if (size != layout_.record_size) {
    return Status::Invalid("record size mismatch on insert");
  }
  TDB_ASSIGN_OR_RETURN(
      uint32_t pno,
      LookupDataPage(KeyProbe::FromStored(layout_, rec + layout_.key_offset)));
  while (true) {
    TDB_ASSIGN_OR_RETURN(uint8_t* frame,
                         pager_->ReadPage(pno, CategoryOf(pno)));
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
  {
    TDB_ASSIGN_OR_RETURN(uint8_t* frame,
                         pager_->ReadPage(pno, CategoryOf(pno)));
    Page page(frame, layout_.record_size, pager_->usable_size());
    page.set_next_overflow(fresh);
    pager_->MarkDirty();
  }
  if (tid != nullptr) *tid = Tid{fresh, 0};
  return Status::OK();
}

Status IsamFile::UpdateInPlace(const Tid& tid, const uint8_t* rec,
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

Status IsamFile::Erase(const Tid& tid) {
  TDB_ASSIGN_OR_RETURN(uint8_t* frame,
                       pager_->ReadPage(tid.page, CategoryOf(tid.page)));
  Page page(frame, layout_.record_size, pager_->usable_size());
  if (!page.SlotUsed(tid.slot)) return Status::NotFound("erase of unused slot");
  page.SetSlotUsed(tid.slot, false);
  pager_->MarkDirty();
  return Status::OK();
}

Result<std::unique_ptr<Cursor>> IsamFile::Scan() {
  uint32_t last = meta_.data_pages == 0 ? 0 : meta_.data_pages - 1;
  return std::unique_ptr<Cursor>(new IsamScanCursor(
      this, pager_.get(), layout_, 0, last, meta_.data_pages));
}

Result<std::unique_ptr<Cursor>> IsamFile::ScanRange(
    const std::optional<Value>& lo, bool lo_inclusive,
    const std::optional<Value>& hi, bool hi_inclusive) {
  TDB_ASSIGN_OR_RETURN(
      KeyRange range,
      KeyRange::Encode(layout_, lo, lo_inclusive, hi, hi_inclusive));
  uint32_t first = 0;
  if (range.lo().has_value()) {
    TDB_ASSIGN_OR_RETURN(first, LookupDataPage(*range.lo()));
  }
  // Pages past the one covering `hi` only hold larger keys.  A keyed probe
  // (lo == hi) reuses the first descent so it costs exactly one directory
  // traversal, as in the paper.
  uint32_t last = meta_.data_pages == 0 ? 0 : meta_.data_pages - 1;
  if (range.hi().has_value()) {
    if (lo.has_value() && lo->Equals(*hi)) {
      last = first;
    } else {
      TDB_ASSIGN_OR_RETURN(last, LookupDataPage(*range.hi()));
    }
  }
  auto cursor = std::make_unique<IsamScanCursor>(this, pager_.get(), layout_,
                                                 first, last,
                                                 meta_.data_pages);
  cursor->SetRange(std::move(range));
  return std::unique_ptr<Cursor>(std::move(cursor));
}

Result<std::unique_ptr<Cursor>> IsamFile::ScanKey(const Value& key) {
  // A keyed access is the degenerate range [key, key].  This matters after
  // a `modify`: bulk loading can spread many versions of one key across
  // adjacent primary pages, so reading only the directory-targeted page
  // would miss versions.  The range cursor continues into following pages
  // exactly until it has seen a larger key, so the single-version common
  // case still reads directory + one data page (+ its chain).
  return ScanRange(key, /*lo_inclusive=*/true, key, /*hi_inclusive=*/true);
}

Result<std::vector<uint8_t>> IsamFile::Fetch(const Tid& tid) {
  TDB_ASSIGN_OR_RETURN(uint8_t* frame,
                       pager_->ReadPage(tid.page, CategoryOf(tid.page)));
  Page page(frame, layout_.record_size, pager_->usable_size());
  if (!page.SlotUsed(tid.slot)) return Status::NotFound("fetch of unused slot");
  return std::vector<uint8_t>(page.RecordAt(tid.slot),
                              page.RecordAt(tid.slot) + layout_.record_size);
}

}  // namespace tdb
