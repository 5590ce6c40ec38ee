#ifndef CHRONOQUEL_STORAGE_BUFFER_POOL_H_
#define CHRONOQUEL_STORAGE_BUFFER_POOL_H_

#include <array>
#include <atomic>
#include <condition_variable>
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
struct ReadTally;

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
/// the Pager): a chunked page-number index of its resident frames that is
/// written under this pool's mutex and read without it, the list of its
/// resident frames (least recently used first under a per-file cap), and
/// the pager's own pin.  Flush (so FlushAndDrop too) and ResidentPages sort
/// the pager's resident frames into ascending page order.
///
/// Threading: a hit takes no lock.  It looks the page up in the pager's
/// index, pins the frame, and re-checks the frame's owner and page, which
/// cannot change while the pin is held.  The owner pins by storing the
/// frame in its pager's slot and then checking that the frame is not
/// blocked; a victim claim blocks the frame and then reads the owner's
/// slot, so one of the two always sees the other, and the owner's hit
/// writes no shared frame.  A ReaderScope reader pins by incrementing the
/// frame's atomic pin count.  The frame's move to the most recently used
/// end is queued in a per-thread log (the BP-Wrapper scheme, Ding et al.,
/// ICDE 2009) that the thread applies, in order, under the mutex before its
/// next victim choice or when the log fills; a single-threaded sequence of
/// requests therefore evicts exactly the frames an immediate move would.
/// A ReaderScope's log
/// keeps only its newest moves and is applied before the scoped reader's
/// victim choices and when the scope ends, so parallel readers never queue
/// on the mutex for their hits; their recency order is approximate.  One
/// mutex guards the rest of the metadata — the index writes, LRU links,
/// the free list and the miss/eviction stats — and no file I/O runs under
/// it: a miss claims its victim, publishes it in the index blocked, i.e.
/// busy (other requests for that page wait for it), and reads the page
/// after unlocking, and a flush writes back, and journals the pre-images
/// of, the owner's dirty frames without it.  The pool never writes back a
/// frame on behalf of a foreign pager — journal hooks and IoCounters
/// writes are the owner's — so eviction takes a dirty frame only from the
/// requesting owner.  Each frame carries a generation, bumped whenever it
/// is detached or (re)loaded; RecordBatch's debug stale-slice check
/// compares it lock-free, so evicting one frame never invalidates slices
/// of another.
///
/// Pinning and replacement: a pin belongs to a reader.  Outside a
/// ReaderScope the reader is the pager's owner, whose pin (the slot
/// `FrameTable::pinned`) is the frame its last ReadPage/AllocatePage
/// returned — exactly the lifetime the Pager API grants the returned
/// pointer.  Inside a ReaderScope the calling thread holds its own pin per
/// pager, so several threads may read one pager at once and each one's page
/// stays valid until that thread's next request.  A request releases the
/// reader's previous pin on that pager only after it holds the new frame.
/// The pool never chooses a pinned frame as a victim, with one exception:
/// at `per_file_frames == 1` a request replaces its own pager's single
/// frame, the paper's rule.  Every resident frame sits on one pool-wide LRU
/// list (and on its owner's); the victim is the first frame from the least
/// recently used end that is unpinned and, unless it is the requester's
/// own, clean.  When none is, the pool allocates past `total_frames`
/// (counted by `Stats::overflow_frames`).
class BufferPool {
 private:
  struct Frame;

  /// One reader's pin on one pager, and the hits it made there (added to
  /// the pager's and the pool's counters when its ReaderScope ends).
  struct ReaderPin {
    Pager* pager = nullptr;
    Frame* frame = nullptr;
    uint64_t hits = 0;
  };

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

  /// Makes the calling thread a reader of its own for the scope's lifetime:
  /// its ReadPage calls pin frames for this thread instead of moving the
  /// pager's own pin, so threads may read the same pagers concurrently.
  /// The scope's pins and queued LRU moves are released, and its hits
  /// counted, when it ends — before any pager it read may close.  A thread
  /// inside a scope only reads: it never allocates, dirties or writes back
  /// a page.  Scopes do not nest.
  class ReaderScope {
   public:
    ReaderScope();
    ~ReaderScope();

    ReaderScope(const ReaderScope&) = delete;
    ReaderScope& operator=(const ReaderScope&) = delete;

   private:
    std::vector<ReaderPin> pins_;
  };

  explicit BufferPool(const Options& opts);
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

  static constexpr uint32_t kNoFrame = UINT32_MAX;
  /// Pin-count bit of a frame no request may pin without the mutex: free,
  /// claimed as a victim, or being read in.
  static constexpr uint32_t kBlocked = 1u << 31;

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
    // Written under mu_ while the frame is blocked; read by a hit after it
    // pins the frame.
    std::atomic<Pager*> owner{nullptr};
    std::atomic<uint32_t> pno{kNoPage};
    uint32_t id = 0;  // index into frames_ and the link arrays
    bool dirty = false;  // mu_
    IoCategory category = IoCategory::kData;
    /// ReaderScope readers and copy-outs holding the frame, plus kBlocked
    /// while no hit may pin it (the owner's pin is its pager's slot).  An
    /// indexed frame that is blocked is busy — being read in or written
    /// back — and requests for its page wait.
    std::atomic<uint32_t> pins{kBlocked};
    /// Bumped on every detach and (re)load of this frame.
    std::atomic<uint64_t> generation{0};
  };

  /// One pager's page number -> resident frame map: written under mu_,
  /// read without it.  Fixed-size chunks, allocated on first use, hang off
  /// a directory that is replaced by a larger copy when the file outgrows
  /// it; every directory stays allocated until the pager closes, because a
  /// hit may still be reading an old one.
  class FrameIndex {
   public:
    Frame* Get(uint32_t pno) const {
      const Dir* dir = dir_.load(std::memory_order_acquire);
      const uint32_t c = pno >> kChunkBits;
      if (dir == nullptr || c >= dir->size()) return nullptr;
      const Chunk* chunk = (*dir)[c].load(std::memory_order_acquire);
      if (chunk == nullptr) return nullptr;
      return (*chunk)[pno & kChunkMask].load(std::memory_order_acquire);
    }
    void Set(uint32_t pno, Frame* f);

   private:
    static constexpr uint32_t kChunkBits = 6;
    static constexpr uint32_t kChunkMask = (1u << kChunkBits) - 1;
    using Chunk = std::array<std::atomic<Frame*>, 1u << kChunkBits>;
    using Dir = std::vector<std::atomic<Chunk*>>;

    std::atomic<Dir*> dir_{nullptr};
    std::vector<std::unique_ptr<Chunk>> chunks_;
    std::vector<std::unique_ptr<Dir>> dirs_;
  };

  /// One pager's frames (a member of the Pager).
  struct FrameTable {
    FrameIndex by_pno;  // resident frame of each page
    /// The same frames, linked through `own_links_` (mu_): least recently
    /// used first when the pool has a per-file cap, in attach order
    /// otherwise.
    LruList resident;
    /// The owner's pin: the frame last returned outside a ReaderScope.
    /// Only the owner's own calls write it; a victim claim reads it.
    std::atomic<Frame*> pinned{nullptr};
    /// Hits of the owner's requests; only the owner writes it.
    std::atomic<uint64_t> owner_hits{0};
  };

  /// Registers a pager on this pool (its owner hits count in GetStats) and
  /// forgets it; the pager's constructor and destructor call these.
  void AddPager(Pager* p);
  void RemovePager(Pager* p);

  // The Pager-facing surface, called from Pager methods of `p`.  Each takes
  // the pool mutex for its metadata steps, if at all, and does its file I/O
  // without it.
  Result<uint8_t*> ReadPage(Pager* p, uint32_t pno, IoCategory cat);
  /// ReadPage past a failed hit; `old` is the reader's pin before it.
  Result<uint8_t*> ReadMissed(Pager* p, uint32_t pno, IoCategory cat,
                              ReaderPin* rp, Frame* old);
  void MarkDirty(Pager* p);
  /// Parallel scan workers of one pager may call this concurrently: a hit
  /// is copied out under a pin, a miss read into `out`, both without the
  /// mutex and counted in the worker's `tally`.
  Status ReadPageInto(Pager* p, uint32_t pno, IoCategory cat, uint8_t* out,
                      ReadTally* tally);
  /// Counts a parallel scan's tallied requests in the pool's stats.
  void AddTally(const ReadTally& tally);
  Status PrimeFrame(Pager* p, uint32_t pno, IoCategory cat);
  Result<uint8_t*> AllocatePage(Pager* p, uint32_t pno, IoCategory cat);
  std::vector<uint32_t> ResidentPages(const Pager* p) const;
  /// Writes back `p`'s dirty frames in ascending page order.
  Status Flush(Pager* p);
  /// Flush + forget all of `p`'s frames (measurement barrier / close).
  Status FlushAndDrop(Pager* p);
  /// Forget `p`'s frames WITHOUT writing dirty ones back (rollback).
  void DiscardAll(Pager* p);
  /// Generation of the frame the calling reader pins on `p`, or null.
  static const std::atomic<uint64_t>* PinnedGeneration(const Pager* p);

  /// The calling thread's ReaderScope pin on `p`, or null outside a scope.
  static ReaderPin* ScopePin(const Pager* p);
  /// Ends a ReaderScope: drops its pins, counts its hits and applies the
  /// thread's queued moves.
  static void ReleaseReader(std::vector<ReaderPin>* pins);
  /// The frame the calling reader (`rp`, or `p`'s owner when null) pins on
  /// `p`, or null.
  static Frame* Held(const Pager* p, const ReaderPin* rp);
  /// Moves the reader's pin on `p` to `f`, which no claim can take
  /// meanwhile (mu_ held).
  static void Hold(Pager* p, ReaderPin* rp, Frame* f);
  /// Drops the reader's pin if it is on `f`.
  static void Release(Pager* p, ReaderPin* rp, Frame* f);
  /// The owner's hit without the mutex: its pin is the pager's slot, so a
  /// hit writes no shared frame.  Null when `pno` is not pinnable now.
  static Frame* OwnerHit(Pager* p, uint32_t pno);
  /// Re-pins the owner's frame of before a failed OwnerHit, if it is still
  /// `p`'s (mu_ held).
  static void RestorePin(Pager* p, Frame* old);
  /// A ReaderScope reader's hit without the mutex, through the frame's pin
  /// count.
  static Frame* ScopedHit(const Pager* p, uint32_t pno, ReaderPin* rp);
  /// Pins `p`'s resident page `pno` by its count, without the mutex; null
  /// when it is not resident or not pinnable right now.
  static Frame* TryPin(const Pager* p, uint32_t pno);
  static void Unpin(Frame* f) {
    f->pins.fetch_sub(1, std::memory_order_release);
  }
  void CountHit(Pager* p, ReaderPin* rp);

  /// Queues `f`'s move to the most recently used end in the calling
  /// thread's log for this pool; `scoped` when the caller is in a
  /// ReaderScope.
  void QueueMove(const Frame* f, bool scoped);

  /// `p`'s frame indexed for page `pno`, or null.  Safe without mu_; only
  /// a pin (or mu_) keeps the answer current.
  static Frame* Find(const Pager* p, uint32_t pno);

  // All require mu_ held.
  /// Applies the calling thread's queued moves for this pool, in order.
  void ApplyQueuedMoves();
  /// `p`'s resident frames (only the dirty ones when `dirty_only`) in
  /// ascending page order.
  std::vector<Frame*> SortedResident(const Pager* p, bool dirty_only) const;
  /// Takes `f` for eviction (blocks it) if no reader pins it.
  static bool Claim(Frame* f);
  /// Returns `p`'s page `pno` pinned once for the caller, reading it in
  /// through a victim on a miss (counted when `count`).  Counts the request
  /// as a hit or miss when `account`.  Takes `lock` holding mu_, releases
  /// it while it reads, writes back or waits, and returns with it released
  /// (on success).
  Result<Frame*> Request(Pager* p, uint32_t pno, IoCategory cat,
                         ReaderPin* rp, bool account, bool count,
                         std::unique_lock<std::mutex>& lock);
  /// Whether the indexed `f` is busy (see Frame::pins).
  static bool Busy(const Frame* f) { return (f->pins.load() & kBlocked) != 0; }
  /// Waits once, with `lock` holding mu_, for the busy `f` to change; the
  /// caller looks the page up again.
  void WaitWhileBusy(const Frame* f, std::unique_lock<std::mutex>& lock);
  /// Publishes the loaded `f` (the requester's pin stays) and wakes the
  /// requests waiting for it; called without mu_.
  void Unblock(Frame* f);
  /// Wakes requests waiting for a busy frame (mu_ held).
  void NotifyWaiters() {
    if (waiters_.load() > 0) not_busy_.notify_all();
  }
  /// A claimed, detached frame for `p`'s next page, or null when the
  /// caller must retry (its pager's single frame is briefly pinned by a
  /// copy-out).  Releases `lock` while it writes back the requester's own
  /// dirty victim.
  Result<Frame*> Victim(Pager* p, ReaderPin* rp,
                        std::unique_lock<std::mutex>& lock);
  /// Makes the claimed `f` hold page `pno` of `p` (the contents are the
  /// caller's job) at the most recently used end.  It stays blocked.
  void Attach(Frame* f, Pager* p, uint32_t pno, IoCategory cat, bool dirty);
  /// Forgets the claimed `f`'s page, dirty or not.
  void Detach(Frame* f);
  /// Moves the resident frame `id` to the most recently used end.
  void Touch(uint32_t id);
  /// Allocates a (blocked) frame; the caller decides whether the pool may
  /// grow.
  Frame* NewFrame();
  /// Intrusive list steps over frame ids linked through `links`.
  static void PushMru(LruList* list, std::vector<Links>& links, uint32_t id);
  static void Unlink(LruList* list, std::vector<Links>& links, uint32_t id);
  static void MoveToMru(LruList* list, std::vector<Links>& links,
                        uint32_t id);

  /// The calling thread's ReaderScope pins, or null outside a scope.
  static thread_local std::vector<ReaderPin>* reader_pins_;

  mutable std::mutex mu_;
  std::condition_variable not_busy_;
  std::atomic<int> waiters_{0};  // requests waiting on not_busy_
  const Options opts_;
  /// Tags this pool's entries in the per-thread move logs; never reused.
  const uint64_t serial_;
  std::vector<std::unique_ptr<Frame>> frames_;  // by frame id
  std::vector<Frame*> free_;
  LruList lru_;                    // every resident frame, via all_links_
  std::vector<Links> all_links_;   // by frame id: links on lru_
  std::vector<Links> own_links_;   // by frame id: links on the owner's list
  Stats stats_;                    // all but hits (mu_)
  std::vector<const FrameTable*> tables_;  // of the registered pagers (mu_)
  /// Hits of ReaderScopes, copy-outs and closed pagers; the open pagers'
  /// owner hits are in their tables.
  std::atomic<uint64_t> hits_{0};
  obs::Counter* overflow_counter_ = nullptr;
};

}  // namespace tdb

#endif  // CHRONOQUEL_STORAGE_BUFFER_POOL_H_
