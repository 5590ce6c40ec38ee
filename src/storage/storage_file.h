#ifndef CHRONOQUEL_STORAGE_STORAGE_FILE_H_
#define CHRONOQUEL_STORAGE_STORAGE_FILE_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "storage/pager.h"
#include "types/value.h"
#include "util/status.h"

namespace tdb {

/// Storage organizations available through `modify` — the access methods the
/// paper benchmarks (heap for temps/bulk load, static hashing, ISAM) plus
/// the B+-tree its Section 6 contemplates as a dynamic alternative.
enum class Organization : uint8_t {
  kHeap,
  kHash,
  kIsam,
  kBtree,
};

const char* OrganizationName(Organization o);

/// Physical tuple identifier: page number + slot within the page.
struct Tid {
  uint32_t page = 0;
  uint16_t slot = 0;

  friend bool operator==(const Tid& a, const Tid& b) {
    return a.page == b.page && a.slot == b.slot;
  }
};

/// How records of a file are laid out, plus where its key lives (for hash /
/// ISAM organizations).  Derived from the relation's Schema by the catalog.
struct RecordLayout {
  uint16_t record_size = 0;
  int key_offset = -1;  // -1 when the organization is keyless (heap)
  TypeId key_type = TypeId::kInt4;
  uint16_t key_width = 4;

  bool has_key() const { return key_offset >= 0; }

  /// Decodes the key attribute out of an encoded record.  Keyed access
  /// never decodes: it compares key bytes in place (storage/key_compare.h).
  Value KeyOf(const uint8_t* rec) const;
};

/// A batch of record pointers gathered by Cursor::NextBatch — the morsel
/// currency of the vectorized executor.  Entries are either *slices*
/// (zero-copy pointers into the producing Pager's current frame, valid only
/// until that pager's next ReadPage/AllocatePage) or *copies* (bytes owned
/// by the batch's arena, valid until the next Clear).  A single batch never
/// mixes lifetimes with a page fetch in between: zero-copy producers CUT
/// the batch at every page fetch, so all slices alias one resident frame.
///
/// The generation of the one frame the slices alias is snapshotted at
/// gather time; debug builds assert it is unchanged on every access,
/// catching any consumer that holds slices across that frame's eviction or
/// reload.  Other frames of the same pager may come and go meanwhile.
class RecordBatch {
 public:
  void Clear() {
    recs_.clear();
    tids_.clear();
    arena_used_ = 0;
    src_generation_ = nullptr;
    src_stamp_ = 0;
  }

  size_t size() const { return recs_.size(); }
  bool empty() const { return recs_.empty(); }

  const uint8_t* rec(size_t i) const {
    AssertFresh();
    return recs_[i];
  }
  const Tid& tid(size_t i) const { return tids_[i]; }

  /// Zero-copy append: `p` points into the producing pager's frame.
  void AppendSlice(const uint8_t* p, const Tid& tid) {
    recs_.push_back(p);
    tids_.push_back(tid);
  }

  /// Owning append: copies `n` bytes into the arena.  EnsureArena must have
  /// reserved room first — the arena never reallocates while entries point
  /// into it.
  void AppendCopy(const uint8_t* p, size_t n, const Tid& tid) {
    assert(arena_used_ + n <= arena_.size());
    uint8_t* dst = arena_.data() + arena_used_;
    std::memcpy(dst, p, n);
    arena_used_ += n;
    recs_.push_back(dst);
    tids_.push_back(tid);
  }

  /// Reserves arena capacity for owning appends.  Only legal while the
  /// batch holds no copies (growing would dangle their pointers).
  void EnsureArena(size_t bytes) {
    if (arena_.size() < bytes) {
      assert(arena_used_ == 0);
      arena_.resize(bytes);
    }
  }

  /// Records the frame the slices alias — the one `pager` returned last —
  /// and its current generation.
  void SetSource(const Pager* pager) {
    src_generation_ = pager == nullptr ? nullptr : pager->frame_generation();
    src_stamp_ = src_generation_ == nullptr
                     ? 0
                     : src_generation_->load(std::memory_order_relaxed);
  }

  /// Whether the aliased frame has been neither detached nor reloaded
  /// since SetSource, i.e. every slice still points at its record.
  bool fresh() const {
    return src_generation_ == nullptr ||
           src_generation_->load(std::memory_order_relaxed) == src_stamp_;
  }

  /// Debug-build stale-slice check.
  void AssertFresh() const { assert(fresh()); }

 private:
  std::vector<const uint8_t*> recs_;
  std::vector<Tid> tids_;
  std::vector<uint8_t> arena_;
  size_t arena_used_ = 0;
  const std::atomic<uint64_t>* src_generation_ = nullptr;
  uint64_t src_stamp_ = 0;
};

/// Iterator over the records of a file (or of one key's chain).  Usage:
///   auto cur = file->Scan();
///   while (true) {
///     TDB_ASSIGN_OR_RETURN(bool have, cur->Next());
///     if (!have) break;
///     use(cur->record(), cur->tid());
///   }
class Cursor {
 public:
  virtual ~Cursor() = default;

  /// Advances to the next record; returns false at end of stream.
  virtual Result<bool> Next() = 0;

  /// Appends up to `max` records to `batch` and returns how many were
  /// added; 0 means end of stream.  Page-I/O order and counts are identical
  /// to an equivalent sequence of Next() calls.  The base implementation
  /// copies records into the batch arena (safe across any later I/O);
  /// zero-copy overrides append frame slices instead and cut the batch at
  /// every page fetch, so a returned batch never spans a ReadPage.
  /// Interleaving Next() and NextBatch() on one cursor is supported.
  virtual Result<size_t> NextBatch(RecordBatch* batch, size_t max);

  /// Valid after Next() returned true, until the next call to Next().
  const std::vector<uint8_t>& record() const { return record_; }
  const Tid& tid() const { return tid_; }

 protected:
  std::vector<uint8_t> record_;
  Tid tid_;
};

/// A record file in one of the three organizations.  All mutations go
/// through the owning relation's single-frame Pager, so every page touched
/// is accounted exactly as the paper counts it.
class StorageFile {
 public:
  virtual ~StorageFile() = default;

  virtual Organization org() const = 0;

  /// Inserts a record (respecting the organization's placement rule) and
  /// reports where it landed.
  virtual Status Insert(const uint8_t* rec, size_t size, Tid* tid) = 0;

  /// Overwrites the record at `tid` in place (used for stamping transaction
  /// stop / valid to on the current version; never moves the record).
  virtual Status UpdateInPlace(const Tid& tid, const uint8_t* rec,
                               size_t size) = 0;

  /// Removes the record at `tid` (static relations only — versioned types
  /// never physically delete).
  virtual Status Erase(const Tid& tid) = 0;

  /// Full scan: data pages and overflow chains; ISAM directory pages are
  /// skipped, exactly as a Quel sequential scan reads them.
  virtual Result<std::unique_ptr<Cursor>> Scan() = 0;

  /// Keyed access: all records in the chain(s) a key hashes/maps to whose
  /// key attribute equals `key`.  Reads the entire chain (the paper's
  /// "version scan" behaviour).  A `key` the key attribute cannot be
  /// compared with fails as `Value::Compare` does.  Heap files return
  /// NotSupported.
  virtual Result<std::unique_ptr<Cursor>> ScanKey(const Value& key) = 0;

  /// Key-range access: records with lo (<|<=) key (<|<=) hi; either bound
  /// may be absent.  Only order-preserving organizations (ISAM) support
  /// this; others return NotSupported.
  virtual Result<std::unique_ptr<Cursor>> ScanRange(
      const std::optional<Value>& lo, bool lo_inclusive,
      const std::optional<Value>& hi, bool hi_inclusive) {
    (void)lo;
    (void)lo_inclusive;
    (void)hi;
    (void)hi_inclusive;
    return Status::NotSupported("this organization has no range access path");
  }

  /// Reads the single record at `tid`.
  virtual Result<std::vector<uint8_t>> Fetch(const Tid& tid) = 0;

  /// True when Scan() visits pages 0..page_count-1 in ascending order,
  /// reading each exactly once with no auxiliary (directory) pages — the
  /// contract the parallel executor relies on to cut page-range morsels
  /// that replay the cursor's exact record order and I/O counts.  Heap and
  /// hash files qualify; ISAM scans skip the directory pages (the parallel
  /// executor cuts them by data page) and B-tree scans stay cursor-driven.
  virtual bool LinearScan() const { return false; }

  /// I/O accounting category a sequential scan charges for page `pno`.
  virtual IoCategory ScanCategory(uint32_t pno) const {
    (void)pno;
    return IoCategory::kData;
  }

  virtual Pager* pager() = 0;
  uint32_t page_count() { return pager()->page_count(); }

  const RecordLayout& layout() const { return layout_; }

 protected:
  explicit StorageFile(RecordLayout layout) : layout_(layout) {}
  RecordLayout layout_;
};

}  // namespace tdb

#endif  // CHRONOQUEL_STORAGE_STORAGE_FILE_H_
