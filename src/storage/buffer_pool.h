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

namespace obs {
class Counter;
class MetricsRegistry;
}  // namespace obs

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
/// frames (least recently used first under a per-file cap), and its pinned
/// frame.  A hit, MarkDirty and the pin test are therefore O(1) with no
/// shared lookup structure; Flush (so FlushAndDrop too) and ResidentPages
/// sort the pager's resident frames into ascending page order.
///
/// Threading: one mutex guards the pool's in-memory metadata only — frame
/// tables, LRU links, the free list and the stats.  No file I/O runs under
/// it: a miss attaches its victim to the requester (pinned, so no other
/// file's eviction can take it) and reads the page after unlocking, and a
/// flush writes back, and journals the pre-images of, the owner's dirty
/// frames without it.  That is safe because the pool NEVER writes back a
/// frame on behalf of a foreign pager — journal hooks and IoCounters are
/// single-threaded per owner — so eviction considers only clean foreign
/// frames or the requester's own frames, and a dirty frame stays put until
/// its owner moves it.  Parallel scan workers from different files may
/// call in concurrently; the pin rule below keeps their frame pointers
/// stable.  Each frame carries a generation, bumped whenever it is detached
/// or (re)loaded; RecordBatch's debug stale-slice check compares it
/// lock-free, so evicting one frame never invalidates slices of another.
///
/// Pinning and replacement: a pager's most recently returned frame
/// (`FrameTable::pinned`) is pinned against FOREIGN eviction until its next
/// ReadPage/AllocatePage — exactly the lifetime the Pager API already grants
/// the returned pointer.  The requester itself may still replace its own
/// pinned frame (at per_file_frames == 1 it always does), matching the
/// single-frame pointer-invalidation contract.  Only the owner's own calls
/// move the pin, so the owner may read it without the mutex.  Every
/// resident frame sits on one pool-wide LRU list (and on its owner's): a
/// request moves it to the most recently used end, and the victim is the
/// first frame from the least recently used end that the rules allow.
/// When none is, the pool allocates past `total_frames` (counted by
/// `Stats::overflow_frames`).
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
    uint64_t write_backs = 0;        // dirty pages written back
    uint64_t overflow_frames = 0;    // frames allocated past total_frames
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

  /// Wires (or unwires, with nullptr) the `bufpool.overflow_frames`
  /// counter.  Call before any pager uses the pool.
  void set_metrics(obs::MetricsRegistry* metrics);

 private:
  friend class Pager;
  struct Frame;

  static constexpr uint32_t kNoFrame = UINT32_MAX;

  /// One frame's links on an LRU list, as frame ids.  The links live in
  /// arrays indexed by frame id rather than in the frames, so moving a
  /// frame touches a few bytes of one small array instead of the scattered
  /// frames around it.
  struct Links {
    uint32_t prev = kNoFrame;  // toward the least recently used end
    uint32_t next = kNoFrame;  // toward the most recently used end
  };
  struct LruList {
    uint32_t lru = kNoFrame;
    uint32_t mru = kNoFrame;
    size_t size = 0;
  };

  struct Frame {
    std::vector<uint8_t> data;
    Pager* owner = nullptr;
    uint32_t pno = kNoPage;
    uint32_t id = 0;  // index into frames_ and the link arrays
    bool dirty = false;
    IoCategory category = IoCategory::kData;
    /// Bumped on every detach and (re)load of this frame.
    std::atomic<uint64_t> generation{0};
  };

  /// One pager's frames (a member of the Pager, guarded by `mu_`).
  struct FrameTable {
    std::vector<Frame*> by_pno;  // resident frame of each page, or null
    /// The same frames, linked through `own_links_`: least recently used
    /// first when the pool has a per-file cap, in attach order otherwise.
    LruList resident;
    Frame* pinned = nullptr;     // the frame last returned to the owner
  };

  // The Pager-facing surface, called only from Pager methods of the owning
  // pager `p`.  Each takes the pool mutex for its metadata steps and does
  // its file I/O without it.
  Result<uint8_t*> ReadPage(Pager* p, uint32_t pno, IoCategory cat);
  void MarkDirty(Pager* p);
  /// Parallel scan workers of one pager may call this concurrently: a miss
  /// reads into `out` without the mutex and counts under it.
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
  /// `p`'s resident frames (only the dirty ones when `dirty_only`) in
  /// ascending page order.
  std::vector<Frame*> SortedResident(const Pager* p, bool dirty_only) const;
  /// A detached frame for `p`'s next page.  Releases `lock` (which holds
  /// mu_) while it writes back the requester's own dirty victim.
  Result<Frame*> Victim(Pager* p, std::unique_lock<std::mutex>& lock);
  /// Attaches a victim to `p`'s page `pno` and reads it in with `lock`
  /// released; on a failed read the frame goes back to the free list.
  Result<Frame*> LoadVictim(Pager* p, uint32_t pno, IoCategory cat,
                            bool count, std::unique_lock<std::mutex>& lock);
  /// Makes `f` hold page `pno` of `p` (the contents are the caller's job)
  /// and `p`'s pinned, most recently used frame.
  void Attach(Frame* f, Pager* p, uint32_t pno, IoCategory cat, bool dirty);
  /// Forgets `f`'s page, dirty or not.
  void Detach(Frame* f);
  /// Moves `p`'s resident `f` to the most recently used end and pins it.
  void Touch(Pager* p, Frame* f);
  static bool PinnedByOwner(const Frame* f);
  /// Allocates a frame (the caller decides whether the pool may grow).
  Frame* NewFrame();
  /// Intrusive list steps over frame ids linked through `links`.
  static void PushMru(LruList* list, std::vector<Links>& links, uint32_t id);
  static void Unlink(LruList* list, std::vector<Links>& links, uint32_t id);
  static void MoveToMru(LruList* list, std::vector<Links>& links,
                        uint32_t id);

  mutable std::mutex mu_;
  const Options opts_;
  std::vector<std::unique_ptr<Frame>> frames_;  // by frame id
  std::vector<Frame*> free_;
  LruList lru_;                    // every resident frame, via all_links_
  std::vector<Links> all_links_;   // by frame id: links on lru_
  std::vector<Links> own_links_;   // by frame id: links on the owner's list
  Stats stats_;
  obs::Counter* overflow_counter_ = nullptr;
};

}  // namespace tdb

#endif  // CHRONOQUEL_STORAGE_BUFFER_POOL_H_
