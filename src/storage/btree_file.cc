#include "storage/btree_file.h"

#include <algorithm>
#include <cstring>
#include <set>
#include <vector>

#include "storage/key_compare.h"
#include "util/stringx.h"

namespace tdb {

namespace {

// ---------------------------------------------------------------------------
// Node layouts over a 1024-byte frame.
//
// Leaf (and leaf-overflow) pages:
//   [0..3]   next leaf in key order (kNoPage at the right edge / on
//            overflow pages)
//   [4..7]   next overflow page of this leaf (kNoPage if none)
//   [8..15]  64-bit slot bitmap
//   [16.. ]  record slots
//
// Internal pages:
//   [0..3]   marker kInternalMarker
//   [4..5]   entry count
//   [6..7]   reserved
//   [8..11]  leftmost child
//   [12.. ]  entries: (separator key bytes, child page) pairs, sorted
// ---------------------------------------------------------------------------

constexpr uint32_t kInternalMarker = 0xFFFFFFFE;
constexpr uint32_t kLeafHeader = 16;
constexpr uint32_t kInternalHeader = 12;

class LeafView {
 public:
  LeafView(uint8_t* frame, uint16_t record_size, uint32_t usable = kPageSize)
      : frame_(frame), record_size_(record_size), usable_(usable) {}

  static uint16_t Capacity(uint16_t record_size, uint32_t usable = kPageSize) {
    uint16_t cap = static_cast<uint16_t>((usable - kLeafHeader) /
                                         record_size);
    return cap > 64 ? 64 : cap;
  }
  uint16_t capacity() const { return Capacity(record_size_, usable_); }

  uint32_t next_leaf() const { return Get32(0); }
  void set_next_leaf(uint32_t v) { Put32(0, v); }
  uint32_t overflow() const { return Get32(4); }
  void set_overflow(uint32_t v) { Put32(4, v); }

  uint64_t bitmap() const {
    uint64_t v;
    std::memcpy(&v, frame_ + 8, 8);
    return v;
  }
  void set_bitmap(uint64_t v) { std::memcpy(frame_ + 8, &v, 8); }
  bool SlotUsed(uint16_t slot) const { return (bitmap() >> slot) & 1u; }
  void SetSlotUsed(uint16_t slot, bool used) {
    uint64_t bm = bitmap();
    if (used) {
      bm |= uint64_t{1} << slot;
    } else {
      bm &= ~(uint64_t{1} << slot);
    }
    set_bitmap(bm);
  }
  int FirstFreeSlot() const {
    uint64_t bm = bitmap();
    for (uint16_t i = 0; i < capacity(); ++i) {
      if (!((bm >> i) & 1u)) return i;
    }
    return -1;
  }
  uint8_t* RecordAt(uint16_t slot) {
    return frame_ + kLeafHeader + slot * record_size_;
  }
  const uint8_t* RecordAt(uint16_t slot) const {
    return frame_ + kLeafHeader + slot * record_size_;
  }
  void Format() {
    set_next_leaf(kNoPage);
    set_overflow(kNoPage);
    set_bitmap(0);
  }

 private:
  uint32_t Get32(size_t off) const {
    uint32_t v;
    std::memcpy(&v, frame_ + off, 4);
    return v;
  }
  void Put32(size_t off, uint32_t v) { std::memcpy(frame_ + off, &v, 4); }

  uint8_t* frame_;
  uint16_t record_size_;
  uint32_t usable_;
};

class InternalView {
 public:
  InternalView(uint8_t* frame, uint16_t key_width, uint32_t usable = kPageSize)
      : frame_(frame), key_width_(key_width), usable_(usable) {}

  static bool IsInternal(const uint8_t* frame) {
    uint32_t marker;
    std::memcpy(&marker, frame, 4);
    return marker == kInternalMarker;
  }

  uint16_t Capacity() const {
    return static_cast<uint16_t>((usable_ - kInternalHeader) /
                                 (key_width_ + 4u));
  }
  uint16_t count() const {
    uint16_t v;
    std::memcpy(&v, frame_ + 4, 2);
    return v;
  }
  void set_count(uint16_t v) { std::memcpy(frame_ + 4, &v, 2); }
  uint32_t child0() const {
    uint32_t v;
    std::memcpy(&v, frame_ + 8, 4);
    return v;
  }
  void set_child0(uint32_t v) { std::memcpy(frame_ + 8, &v, 4); }

  const uint8_t* KeyAt(uint16_t i) const {
    return frame_ + kInternalHeader + i * (key_width_ + 4u);
  }
  uint32_t ChildAt(uint16_t i) const {
    uint32_t v;
    std::memcpy(&v, KeyAt(i) + key_width_, 4);
    return v;
  }
  void SetEntry(uint16_t i, const uint8_t* key, uint32_t child) {
    uint8_t* p = frame_ + kInternalHeader + i * (key_width_ + 4u);
    std::memcpy(p, key, key_width_);
    std::memcpy(p + key_width_, &child, 4);
  }
  /// Shifts entries [i, count) right by one and writes the new entry at i.
  void InsertEntry(uint16_t i, const uint8_t* key, uint32_t child) {
    uint8_t* base = frame_ + kInternalHeader;
    size_t entry = key_width_ + 4u;
    std::memmove(base + (i + 1) * entry, base + i * entry,
                 (count() - i) * entry);
    SetEntry(i, key, child);
    set_count(static_cast<uint16_t>(count() + 1));
  }
  void Format() {
    uint32_t marker = kInternalMarker;
    std::memcpy(frame_, &marker, 4);
    set_count(0);
    frame_[6] = frame_[7] = 0;
    set_child0(kNoPage);
  }

 private:
  uint8_t* frame_;
  uint16_t key_width_;
  uint32_t usable_;
};

/// Position of the child covering `key` in `node`: 0 for child0, i + 1 for
/// entry i's child — the last separator <= key.  Separators ascend, so a
/// binary search finds the first one above the key.
uint16_t ChildPos(const InternalView& node, const KeyProbe& key,
                  CompareTally* tally) {
  uint16_t lo = 0;
  uint16_t hi = node.count();
  while (lo < hi) {
    const uint16_t mid = static_cast<uint16_t>(lo + (hi - lo) / 2);
    if (tally->Compare(key, node.KeyAt(mid)) <= 0) {
      lo = static_cast<uint16_t>(mid + 1);
    } else {
      hi = mid;
    }
  }
  return lo;
}

uint32_t ChildAtPos(const InternalView& node, uint16_t pos) {
  return pos == 0 ? node.child0() : node.ChildAt(static_cast<uint16_t>(pos - 1));
}

/// Used slots [0, capacity) of a leaf's bitmap.
uint64_t UsedSlots(const LeafView& leaf) {
  const uint16_t cap = leaf.capacity();
  const uint64_t mask =
      cap >= 64 ? ~uint64_t{0} : (uint64_t{1} << cap) - 1;
  return leaf.bitmap() & mask;
}

/// Cursor over the leaf chain.  Slots inside a leaf (and its overflow
/// pages) are unsorted, so each *leaf group* (primary page + overflow
/// chain) is buffered and sorted by key before being emitted — the pages
/// read (and counted) are identical, but the stream is globally key
/// ordered.  With range bounds the walk stops once a whole group lies
/// beyond the upper bound.
class BtreeCursor : public Cursor {
 public:
  BtreeCursor(Pager* pager, const RecordLayout& layout, uint32_t start_leaf,
              KeyRange range, bool single_leaf)
      : pager_(pager),
        layout_(layout),
        next_group_(start_leaf),
        range_(std::move(range)),
        single_leaf_(single_leaf),
        tally_(pager) {}

  Result<bool> Next() override {
    while (true) {
      if (pos_ < buffered_.size()) {
        const BufferedRecord& r = buffered_[pos_++];
        record_ = r.bytes;
        tid_ = r.tid;
        return true;
      }
      if (done_) return false;
      TDB_RETURN_NOT_OK(LoadNextGroup());
    }
  }

 private:
  struct BufferedRecord {
    std::vector<uint8_t> bytes;
    Tid tid;
  };

  /// Reads one leaf group (primary + overflow chain), filters by bounds,
  /// sorts by key, and decides whether the walk can stop.
  Status LoadNextGroup() {
    buffered_.clear();
    pos_ = 0;
    if (next_group_ == kNoPage) {
      done_ = true;
      return Status::OK();
    }
    uint32_t page = next_group_;
    bool on_overflow = false;
    bool group_had_records = false;
    bool group_all_above_hi = true;
    uint32_t next_leaf = kNoPage;
    while (page != kNoPage) {
      TDB_ASSIGN_OR_RETURN(
          uint8_t* frame,
          pager_->ReadPage(page, on_overflow ? IoCategory::kOverflow
                                             : IoCategory::kData));
      LeafView leaf(frame, layout_.record_size, pager_->usable_size());
      if (!on_overflow) next_leaf = leaf.next_leaf();
      for (uint64_t bits = UsedSlots(leaf); bits != 0; bits &= bits - 1) {
        const uint16_t s = static_cast<uint16_t>(__builtin_ctzll(bits));
        const uint8_t* rec = leaf.RecordAt(s);
        group_had_records = true;
        const KeyRange::Place place =
            range_.PlaceOf(rec + layout_.key_offset, &tally_);
        if (place != KeyRange::Place::kAbove) group_all_above_hi = false;
        if (place != KeyRange::Place::kInside) continue;
        buffered_.push_back(
            {std::vector<uint8_t>(rec, rec + layout_.record_size),
             Tid{page, s}});
      }
      page = leaf.overflow();
      on_overflow = true;
    }
    const int key_offset = layout_.key_offset;
    std::stable_sort(buffered_.begin(), buffered_.end(),
                     [&](const BufferedRecord& a, const BufferedRecord& b) {
                       return KeyProbe::CompareStored(
                                  layout_, a.bytes.data() + key_offset,
                                  b.bytes.data() + key_offset) < 0;
                     });
    if (single_leaf_ ||
        (range_.hi().has_value() && group_had_records &&
         group_all_above_hi)) {
      done_ = true;  // no later leaf can contribute
    } else {
      next_group_ = next_leaf;
      if (next_group_ == kNoPage) done_ = true;
    }
    return Status::OK();
  }

  Pager* pager_;
  RecordLayout layout_;
  uint32_t next_group_;
  KeyRange range_;
  bool single_leaf_;
  CompareTally tally_;
  std::vector<BufferedRecord> buffered_;
  size_t pos_ = 0;
  bool done_ = false;
};

}  // namespace

Result<std::unique_ptr<BtreeFile>> BtreeFile::Create(
    std::unique_ptr<Pager> pager, const RecordLayout& layout) {
  if (!layout.has_key()) return Status::Invalid("btree file needs a key");
  if (LeafView::Capacity(layout.record_size, pager->usable_size()) < 2) {
    return Status::Invalid("record too large for a btree leaf");
  }
  TDB_RETURN_NOT_OK(pager->Reset());
  TDB_ASSIGN_OR_RETURN(uint32_t root, pager->AllocatePage(IoCategory::kData));
  TDB_ASSIGN_OR_RETURN(uint8_t* frame, pager->ReadPage(root, IoCategory::kData));
  LeafView leaf(frame, layout.record_size, pager->usable_size());
  leaf.Format();
  pager->MarkDirty();
  TDB_RETURN_NOT_OK(pager->Flush());
  return Open(std::move(pager), layout);
}

Result<std::unique_ptr<BtreeFile>> BtreeFile::Open(
    std::unique_ptr<Pager> pager, const RecordLayout& layout) {
  if (!layout.has_key()) return Status::Invalid("btree file needs a key");
  if (pager->page_count() == 0) {
    return Status::Corruption("btree file has no root page");
  }
  return std::unique_ptr<BtreeFile>(new BtreeFile(std::move(pager), layout));
}

Result<uint32_t> BtreeFile::FindLeaf(const KeyProbe& key) {
  CompareTally tally(pager_.get());
  uint32_t pno = 0;
  while (true) {
    TDB_ASSIGN_OR_RETURN(uint8_t* frame,
                         pager_->ReadPage(pno, IoCategory::kDirectory));
    if (!InternalView::IsInternal(frame)) return pno;
    InternalView node(frame, layout_.key_width, pager_->usable_size());
    pno = ChildAtPos(node, ChildPos(node, key, &tally));
  }
}

Result<uint32_t> BtreeFile::LeftmostLeaf() {
  uint32_t pno = 0;
  while (true) {
    TDB_ASSIGN_OR_RETURN(uint8_t* frame,
                         pager_->ReadPage(pno, IoCategory::kDirectory));
    if (!InternalView::IsInternal(frame)) return pno;
    InternalView node(frame, layout_.key_width, pager_->usable_size());
    pno = node.child0();
  }
}

Result<int> BtreeFile::Height() {
  int height = 1;
  uint32_t pno = 0;
  while (true) {
    TDB_ASSIGN_OR_RETURN(uint8_t* frame,
                         pager_->ReadPage(pno, IoCategory::kDirectory));
    if (!InternalView::IsInternal(frame)) return height;
    InternalView node(frame, layout_.key_width, pager_->usable_size());
    pno = node.child0();
    ++height;
  }
}

Result<BtreeFile::SplitResult> BtreeFile::SplitLeaf(uint32_t pno) {
  // Snapshot the records (the frame is a single buffer; we cannot hold two
  // pages at once).
  std::vector<std::vector<uint8_t>> records;
  uint32_t next_leaf;
  {
    TDB_ASSIGN_OR_RETURN(uint8_t* frame,
                         pager_->ReadPage(pno, IoCategory::kData));
    LeafView leaf(frame, layout_.record_size, pager_->usable_size());
    next_leaf = leaf.next_leaf();
    for (uint16_t s = 0; s < leaf.capacity(); ++s) {
      if (leaf.SlotUsed(s)) {
        records.emplace_back(leaf.RecordAt(s),
                             leaf.RecordAt(s) + layout_.record_size);
      }
    }
  }
  // Median distinct key becomes the separator.
  const auto key_of = [&](const std::vector<uint8_t>& rec) {
    return rec.data() + layout_.key_offset;
  };
  std::sort(records.begin(), records.end(),
            [&](const std::vector<uint8_t>& a, const std::vector<uint8_t>& b) {
              return KeyProbe::CompareStored(layout_, key_of(a), key_of(b)) <
                     0;
            });
  std::vector<size_t> distinct_starts = {0};
  for (size_t i = 1; i < records.size(); ++i) {
    if (KeyProbe::CompareStored(layout_, key_of(records[i]),
                                key_of(records[i - 1])) != 0) {
      distinct_starts.push_back(i);
    }
  }
  if (distinct_starts.size() < 2) {
    return Status::Internal("split of a single-key leaf");
  }
  size_t sep_at = distinct_starts[distinct_starts.size() / 2];
  if (sep_at == 0) sep_at = distinct_starts[1];
  SplitResult result;
  result.split = true;
  result.sep_key.assign(
      records[sep_at].data() + layout_.key_offset,
      records[sep_at].data() + layout_.key_offset + layout_.key_width);

  // Build the right sibling.
  TDB_ASSIGN_OR_RETURN(uint32_t right, pager_->AllocatePage(IoCategory::kData));
  result.right = right;
  {
    TDB_ASSIGN_OR_RETURN(uint8_t* frame,
                         pager_->ReadPage(right, IoCategory::kData));
    LeafView leaf(frame, layout_.record_size, pager_->usable_size());
    leaf.Format();
    leaf.set_next_leaf(next_leaf);
    for (size_t i = sep_at; i < records.size(); ++i) {
      uint16_t slot = static_cast<uint16_t>(i - sep_at);
      std::memcpy(leaf.RecordAt(slot), records[i].data(),
                  layout_.record_size);
      leaf.SetSlotUsed(slot, true);
    }
    pager_->MarkDirty();
  }
  // Rewrite the left leaf with the lower half.
  {
    TDB_ASSIGN_OR_RETURN(uint8_t* frame,
                         pager_->ReadPage(pno, IoCategory::kData));
    LeafView leaf(frame, layout_.record_size, pager_->usable_size());
    leaf.Format();
    leaf.set_next_leaf(right);
    for (size_t i = 0; i < sep_at; ++i) {
      std::memcpy(leaf.RecordAt(static_cast<uint16_t>(i)), records[i].data(),
                  layout_.record_size);
      leaf.SetSlotUsed(static_cast<uint16_t>(i), true);
    }
    pager_->MarkDirty();
  }
  return result;
}

Result<BtreeFile::SplitResult> BtreeFile::InsertRec(uint32_t pno,
                                                    const uint8_t* rec,
                                                    Tid* tid) {
  const uint8_t* key = rec + layout_.key_offset;
  bool is_internal;
  {
    TDB_ASSIGN_OR_RETURN(uint8_t* frame,
                         pager_->ReadPage(pno, IoCategory::kDirectory));
    is_internal = InternalView::IsInternal(frame);
  }

  if (is_internal) {
    uint32_t child;
    uint16_t child_pos;  // 0 = child0, i+1 = entry i's child
    {
      TDB_ASSIGN_OR_RETURN(uint8_t* frame,
                           pager_->ReadPage(pno, IoCategory::kDirectory));
      InternalView node(frame, layout_.key_width, pager_->usable_size());
      CompareTally tally(pager_.get());
      child_pos = ChildPos(node, KeyProbe::FromStored(layout_, key), &tally);
      child = ChildAtPos(node, child_pos);
    }
    TDB_ASSIGN_OR_RETURN(SplitResult child_split, InsertRec(child, rec, tid));
    if (!child_split.split) return SplitResult{};

    // Install (sep, right) after the child's position.
    TDB_ASSIGN_OR_RETURN(uint8_t* frame,
                         pager_->ReadPage(pno, IoCategory::kDirectory));
    InternalView node(frame, layout_.key_width, pager_->usable_size());
    if (node.count() < node.Capacity()) {
      node.InsertEntry(child_pos, child_split.sep_key.data(),
                       child_split.right);
      pager_->MarkDirty();
      return SplitResult{};
    }
    // Split this internal node: snapshot entries, keep the lower half here,
    // promote the middle separator, move the rest to a new node.
    struct Entry {
      std::vector<uint8_t> key;
      uint32_t child;
    };
    std::vector<Entry> entries;
    uint32_t c0 = node.child0();
    for (uint16_t i = 0; i < node.count(); ++i) {
      entries.push_back({std::vector<uint8_t>(node.KeyAt(i),
                                              node.KeyAt(i) +
                                                  layout_.key_width),
                         node.ChildAt(i)});
    }
    entries.insert(entries.begin() + child_pos,
                   {child_split.sep_key, child_split.right});

    size_t mid = entries.size() / 2;
    SplitResult result;
    result.split = true;
    result.sep_key = entries[mid].key;
    TDB_ASSIGN_OR_RETURN(uint32_t right_pno,
                         pager_->AllocatePage(IoCategory::kDirectory));
    result.right = right_pno;
    {
      TDB_ASSIGN_OR_RETURN(uint8_t* rframe,
                           pager_->ReadPage(right_pno, IoCategory::kDirectory));
      InternalView right(rframe, layout_.key_width, pager_->usable_size());
      right.Format();
      right.set_child0(entries[mid].child);
      uint16_t n = 0;
      for (size_t i = mid + 1; i < entries.size(); ++i, ++n) {
        right.SetEntry(n, entries[i].key.data(), entries[i].child);
      }
      right.set_count(n);
      pager_->MarkDirty();
    }
    {
      TDB_ASSIGN_OR_RETURN(uint8_t* lframe,
                           pager_->ReadPage(pno, IoCategory::kDirectory));
      InternalView left(lframe, layout_.key_width, pager_->usable_size());
      left.Format();
      left.set_child0(c0);
      for (size_t i = 0; i < mid; ++i) {
        left.SetEntry(static_cast<uint16_t>(i), entries[i].key.data(),
                      entries[i].child);
      }
      left.set_count(static_cast<uint16_t>(mid));
      pager_->MarkDirty();
    }
    return result;
  }

  // --- leaf ---
  {
    TDB_ASSIGN_OR_RETURN(uint8_t* frame,
                         pager_->ReadPage(pno, IoCategory::kData));
    LeafView leaf(frame, layout_.record_size, pager_->usable_size());
    int slot = leaf.FirstFreeSlot();
    if (slot >= 0) {
      std::memcpy(leaf.RecordAt(static_cast<uint16_t>(slot)), rec,
                  layout_.record_size);
      leaf.SetSlotUsed(static_cast<uint16_t>(slot), true);
      pager_->MarkDirty();
      if (tid != nullptr) *tid = Tid{pno, static_cast<uint16_t>(slot)};
      return SplitResult{};
    }
  }
  // Full primary page.  If the leaf already spilled (or holds one distinct
  // key), grow/extend its overflow chain — the multi-version pile-up.
  bool single_key = true;
  uint32_t overflow;
  {
    TDB_ASSIGN_OR_RETURN(uint8_t* frame,
                         pager_->ReadPage(pno, IoCategory::kData));
    LeafView leaf(frame, layout_.record_size, pager_->usable_size());
    overflow = leaf.overflow();
    const uint8_t* first = nullptr;
    for (uint64_t bits = UsedSlots(leaf); bits != 0 && single_key;
         bits &= bits - 1) {
      const uint8_t* k =
          leaf.RecordAt(static_cast<uint16_t>(__builtin_ctzll(bits))) +
          layout_.key_offset;
      if (first == nullptr) {
        first = k;
      } else if (KeyProbe::CompareStored(layout_, k, first) != 0) {
        single_key = false;
      }
    }
  }
  if (overflow != kNoPage || single_key) {
    // Walk (or start) the overflow chain.
    uint32_t prev = pno;
    uint32_t cur = overflow;
    while (cur != kNoPage) {
      TDB_ASSIGN_OR_RETURN(uint8_t* frame,
                           pager_->ReadPage(cur, IoCategory::kOverflow));
      LeafView page(frame, layout_.record_size, pager_->usable_size());
      int slot = page.FirstFreeSlot();
      if (slot >= 0) {
        std::memcpy(page.RecordAt(static_cast<uint16_t>(slot)), rec,
                    layout_.record_size);
        page.SetSlotUsed(static_cast<uint16_t>(slot), true);
        pager_->MarkDirty();
        if (tid != nullptr) *tid = Tid{cur, static_cast<uint16_t>(slot)};
        return SplitResult{};
      }
      prev = cur;
      cur = page.overflow();
    }
    TDB_ASSIGN_OR_RETURN(uint32_t fresh,
                         pager_->AllocatePage(IoCategory::kOverflow));
    {
      TDB_ASSIGN_OR_RETURN(uint8_t* frame,
                           pager_->ReadPage(fresh, IoCategory::kOverflow));
      LeafView page(frame, layout_.record_size, pager_->usable_size());
      page.Format();
      std::memcpy(page.RecordAt(0), rec, layout_.record_size);
      page.SetSlotUsed(0, true);
      pager_->MarkDirty();
    }
    {
      TDB_ASSIGN_OR_RETURN(
          uint8_t* frame,
          pager_->ReadPage(prev, prev == pno ? IoCategory::kData
                                             : IoCategory::kOverflow));
      LeafView page(frame, layout_.record_size, pager_->usable_size());
      page.set_overflow(fresh);
      pager_->MarkDirty();
    }
    if (tid != nullptr) *tid = Tid{fresh, 0};
    return SplitResult{};
  }
  // Multiple distinct keys: split, then place the record on the proper side.
  // `key` aliased the record being inserted, not the split frame.
  TDB_ASSIGN_OR_RETURN(SplitResult split, SplitLeaf(pno));
  const int c = KeyProbe::CompareStored(layout_, key, split.sep_key.data());
  uint32_t target = c < 0 ? pno : split.right;
  {
    TDB_ASSIGN_OR_RETURN(uint8_t* frame,
                         pager_->ReadPage(target, IoCategory::kData));
    LeafView leaf(frame, layout_.record_size, pager_->usable_size());
    int slot = leaf.FirstFreeSlot();
    if (slot < 0) return Status::Internal("no slot after leaf split");
    std::memcpy(leaf.RecordAt(static_cast<uint16_t>(slot)), rec,
                layout_.record_size);
    leaf.SetSlotUsed(static_cast<uint16_t>(slot), true);
    pager_->MarkDirty();
    if (tid != nullptr) *tid = Tid{target, static_cast<uint16_t>(slot)};
  }
  return split;
}

Status BtreeFile::Insert(const uint8_t* rec, size_t size, Tid* tid) {
  if (size != layout_.record_size) {
    return Status::Invalid("record size mismatch on insert");
  }
  TDB_ASSIGN_OR_RETURN(SplitResult split, InsertRec(0, rec, tid));
  if (!split.split) return Status::OK();

  // The root split: move its (already-halved) content to a fresh `left`
  // page and turn page 0 into an internal node over {left, right}.
  TDB_ASSIGN_OR_RETURN(uint32_t left, pager_->AllocatePage(IoCategory::kData));
  std::vector<uint8_t> snapshot(pager_->page_size());
  {
    TDB_ASSIGN_OR_RETURN(uint8_t* frame,
                         pager_->ReadPage(0, IoCategory::kDirectory));
    std::memcpy(snapshot.data(), frame, pager_->page_size());
  }
  {
    TDB_ASSIGN_OR_RETURN(uint8_t* frame,
                         pager_->ReadPage(left, IoCategory::kData));
    std::memcpy(frame, snapshot.data(), pager_->page_size());
    pager_->MarkDirty();
  }
  // Records that were in the root (if it was a leaf) moved to `left`; the
  // caller-visible tid must follow.
  if (tid != nullptr && tid->page == 0) tid->page = left;
  {
    TDB_ASSIGN_OR_RETURN(uint8_t* frame,
                         pager_->ReadPage(0, IoCategory::kDirectory));
    InternalView root(frame, layout_.key_width, pager_->usable_size());
    root.Format();
    root.set_child0(left);
    root.SetEntry(0, split.sep_key.data(), split.right);
    root.set_count(1);
    pager_->MarkDirty();
  }
  return Status::OK();
}

Status BtreeFile::UpdateInPlace(const Tid& tid, const uint8_t* rec,
                                size_t size) {
  if (size != layout_.record_size) {
    return Status::Invalid("record size mismatch on update");
  }
  TDB_ASSIGN_OR_RETURN(uint8_t* frame,
                       pager_->ReadPage(tid.page, IoCategory::kData));
  if (InternalView::IsInternal(frame)) {
    return Status::Invalid("tid points at an internal btree node");
  }
  LeafView leaf(frame, layout_.record_size, pager_->usable_size());
  if (!leaf.SlotUsed(tid.slot)) return Status::NotFound("update of unused slot");
  std::memcpy(leaf.RecordAt(tid.slot), rec, size);
  pager_->MarkDirty();
  return Status::OK();
}

Status BtreeFile::Erase(const Tid& tid) {
  TDB_ASSIGN_OR_RETURN(uint8_t* frame,
                       pager_->ReadPage(tid.page, IoCategory::kData));
  if (InternalView::IsInternal(frame)) {
    return Status::Invalid("tid points at an internal btree node");
  }
  LeafView leaf(frame, layout_.record_size, pager_->usable_size());
  if (!leaf.SlotUsed(tid.slot)) return Status::NotFound("erase of unused slot");
  leaf.SetSlotUsed(tid.slot, false);
  pager_->MarkDirty();
  return Status::OK();
}

Result<std::unique_ptr<Cursor>> BtreeFile::Scan() {
  TDB_ASSIGN_OR_RETURN(uint32_t leftmost, LeftmostLeaf());
  return std::unique_ptr<Cursor>(new BtreeCursor(
      pager_.get(), layout_, leftmost, KeyRange(), /*single_leaf=*/false));
}

Result<std::unique_ptr<Cursor>> BtreeFile::ScanKey(const Value& key) {
  TDB_ASSIGN_OR_RETURN(KeyRange range,
                       KeyRange::Encode(layout_, key, true, key, true));
  TDB_ASSIGN_OR_RETURN(uint32_t leaf, FindLeaf(*range.lo()));
  return std::unique_ptr<Cursor>(new BtreeCursor(
      pager_.get(), layout_, leaf, std::move(range), /*single_leaf=*/true));
}

Result<std::unique_ptr<Cursor>> BtreeFile::ScanRange(
    const std::optional<Value>& lo, bool lo_inclusive,
    const std::optional<Value>& hi, bool hi_inclusive) {
  TDB_ASSIGN_OR_RETURN(
      KeyRange range,
      KeyRange::Encode(layout_, lo, lo_inclusive, hi, hi_inclusive));
  uint32_t start;
  if (range.lo().has_value()) {
    TDB_ASSIGN_OR_RETURN(start, FindLeaf(*range.lo()));
  } else {
    TDB_ASSIGN_OR_RETURN(start, LeftmostLeaf());
  }
  return std::unique_ptr<Cursor>(new BtreeCursor(
      pager_.get(), layout_, start, std::move(range), /*single_leaf=*/false));
}

Result<std::vector<uint8_t>> BtreeFile::Fetch(const Tid& tid) {
  TDB_ASSIGN_OR_RETURN(uint8_t* frame,
                       pager_->ReadPage(tid.page, IoCategory::kData));
  if (InternalView::IsInternal(frame)) {
    return Status::NotFound("tid points at an internal btree node");
  }
  LeafView leaf(frame, layout_.record_size, pager_->usable_size());
  if (!leaf.SlotUsed(tid.slot)) return Status::NotFound("fetch of unused slot");
  return std::vector<uint8_t>(leaf.RecordAt(tid.slot),
                              leaf.RecordAt(tid.slot) + layout_.record_size);
}

}  // namespace tdb
