#ifndef CHRONOQUEL_STORAGE_BUFFER_POOL_H_
#define CHRONOQUEL_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "storage/io_stats.h"
#include "storage/page.h"
#include "util/status.h"

namespace tdb {

class Pager;

/// Process-shared buffer pool: one LRU frame cache spanning every relation
/// file of a Database (production storage mode, ROADMAP item 3).  Pagers
/// opened with `StorageOptions::pool` keep NO private frames — every
/// ReadPage / AllocatePage / Flush delegates here, while I/O accounting
/// stays on the owning pager's per-file `IoCounters`, so the paper's
/// per-file page-I/O tables remain meaningful with the pool enabled.
///
/// Paper equivalence: with `per_file_frames == 1` each file is capped at a
/// single resident page and replacement degenerates to exactly the paper's
/// single-frame discipline — the same hits, misses, eviction writes, and
/// frame-pointer invalidation points as a private one-frame pager, which the
/// differential tests in tests/buffer_pool_test.cc verify byte-for-byte.
///
/// Index: each pager carries its own frame table (`FrameTable`, a member of
/// the Pager, guarded by this pool's mutex): a vector indexed by page
/// number holding the resident frame or null, the list of its resident
/// frames, and its pinned frame.  A hit, MarkDirty and the pin test are
/// therefore O(1) with no shared lookup structure; Flush, FlushAndDrop and
/// DiscardAll sort the pager's resident frames into ascending page order.
///
/// Threading: one mutex guards all pool state, the frame tables included.
/// Parallel scan workers from different files may call in
/// concurrently; the pin rule below keeps their frame pointers stable.  The
/// pool NEVER writes back a frame on behalf of a foreign pager — journal
/// hooks and IoCounters are single-threaded per owner — so eviction
/// considers only clean foreign frames or the requester's own frames.  Each
/// frame carries a generation, bumped whenever it is detached or
/// (re)loaded; RecordBatch's debug stale-slice check compares it lock-free,
/// so evicting one frame never invalidates slices of another.
///
/// Pinning: a pager's most recently returned frame (`FrameTable::pinned`)
/// is pinned against FOREIGN eviction until its next ReadPage/AllocatePage
/// — exactly the lifetime the Pager API already grants the returned
/// pointer.  The requester itself may still replace its own pinned frame
/// (at per_file_frames == 1 it always does), matching the single-frame
/// pointer-invalidation contract.  Only the owner's own calls move the pin,
/// so the owner may read it without the mutex.
class BufferPool {
 public:
  struct Options {
    /// LRU capacity across every attached file.  When every frame is pinned
    /// or foreign-dirty the pool overflow-allocates past this rather than
    /// stalling a reader.
    int total_frames = 128;
    /// Max resident pages per file; 0 = uncapped.  1 reproduces the paper's
    /// single-frame-per-relation semantics exactly.
    int per_file_frames = 0;
    uint32_t page_size = kPageSize;
  };

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;          // occupied frames recycled
    uint64_t foreign_evictions = 0;  // ... that belonged to another file
    uint64_t write_backs = 0;        // dirty pages flushed by eviction
    size_t frames = 0;               // frames currently allocated
    size_t resident = 0;             // frames currently holding a page
  };

  explicit BufferPool(const Options& opts) : opts_(opts) {}
  ~BufferPool() = default;

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  uint32_t page_size() const { return opts_.page_size; }
  int per_file_frames() const { return opts_.per_file_frames; }
  int total_frames() const { return opts_.total_frames; }

  Stats GetStats() const;

 private:
  friend class Pager;

  struct Frame {
    std::vector<uint8_t> data;
    Pager* owner = nullptr;
    uint32_t pno = kNoPage;
    bool dirty = false;
    IoCategory category = IoCategory::kData;
    uint64_t last_use = 0;
    /// Index of this frame in its owner's FrameTable::resident.
    size_t resident_pos = 0;
    /// Bumped on every detach and (re)load of this frame.
    std::atomic<uint64_t> generation{0};
  };

  /// One pager's frames (a member of the Pager, guarded by `mu_`).
  struct FrameTable {
    std::vector<Frame*> by_pno;    // resident frame of each page, or null
    std::vector<Frame*> resident;  // the same frames, in no order
    Frame* pinned = nullptr;       // the frame last returned to the owner
  };

  // The Pager-facing surface (all take the pool mutex; called only from
  // Pager methods of the owning pager `p`).
  Result<uint8_t*> ReadPage(Pager* p, uint32_t pno, IoCategory cat);
  void MarkDirty(Pager* p);
  Status ReadPageInto(Pager* p, uint32_t pno, IoCategory cat, uint8_t* out);
  Status PrimeFrame(Pager* p, uint32_t pno, IoCategory cat);
  Result<uint8_t*> AllocatePage(Pager* p, uint32_t pno, IoCategory cat);
  std::vector<uint32_t> ResidentPages(const Pager* p) const;
  /// Writes back `p`'s dirty frames in ascending page order.
  Status Flush(Pager* p);
  /// Flush + forget all of `p`'s frames (measurement barrier / close).
  Status FlushAndDrop(Pager* p);
  /// Forget `p`'s frames WITHOUT writing dirty ones back (rollback).
  void DiscardAll(Pager* p);

  // All require mu_ held.
  static Frame* Find(const Pager* p, uint32_t pno);
  /// `p`'s resident frames in ascending page order.
  static std::vector<Frame*> SortedResident(const Pager* p);
  Result<Frame*> Victim(Pager* p);
  /// Journals the pre-images of the dirty frames among `frames` (all
  /// `p`'s) with one sync, before a flush writes them back.
  static Status LogDirtyPreImages(Pager* p, const std::vector<Frame*>& frames);
  /// Makes `f` hold page `pno` of `p` (the contents are the caller's job).
  void Attach(Frame* f, Pager* p, uint32_t pno, IoCategory cat, bool dirty);
  Status Detach(Frame* f, bool flush_dirty);
  static bool PinnedByOwner(const Frame* f);

  mutable std::mutex mu_;
  const Options opts_;
  std::vector<std::unique_ptr<Frame>> frames_;
  std::vector<Frame*> free_;
  size_t resident_ = 0;
  uint64_t tick_ = 0;
  Stats stats_;
};

}  // namespace tdb

#endif  // CHRONOQUEL_STORAGE_BUFFER_POOL_H_
