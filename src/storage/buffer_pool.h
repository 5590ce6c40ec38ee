#ifndef CHRONOQUEL_STORAGE_BUFFER_POOL_H_
#define CHRONOQUEL_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
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
/// Threading: one mutex guards all pool state.  Parallel scan workers from
/// different files (PR 7) may call in concurrently; the pin rule below keeps
/// their frame pointers stable.  The pool NEVER writes back a frame on
/// behalf of a foreign pager — journal hooks and IoCounters are
/// single-threaded per owner — so eviction considers only clean foreign
/// frames (bumping the owner's generation so its stale pointers trip the
/// debug generation check) or the requester's own frames.
///
/// Pinning: a pager's most recently returned frame is pinned against
/// FOREIGN eviction until its next ReadPage/AllocatePage — that is exactly
/// the lifetime the Pager API already grants the returned pointer.  The
/// requester itself may still replace its own pinned frame (at
/// per_file_frames == 1 it always does), matching the single-frame
/// pointer-invalidation contract.
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
  Frame* Find(const Pager* p, uint32_t pno) const;
  Result<Frame*> Victim(Pager* p);
  Status Detach(Frame* f, bool flush_dirty);
  bool PinnedByOwner(const Frame* f) const;

  mutable std::mutex mu_;
  const Options opts_;
  std::vector<std::unique_ptr<Frame>> frames_;
  std::vector<Frame*> free_;
  std::map<std::pair<const Pager*, uint32_t>, Frame*> index_;
  /// Per-pager most recently returned frame (the pinned one); MarkDirty
  /// targets it.
  std::map<const Pager*, Frame*> last_;
  uint64_t tick_ = 0;
  Stats stats_;
};

}  // namespace tdb

#endif  // CHRONOQUEL_STORAGE_BUFFER_POOL_H_
