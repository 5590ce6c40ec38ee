#ifndef CHRONOQUEL_STORAGE_PAGER_H_
#define CHRONOQUEL_STORAGE_PAGER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "env/env.h"
#include "storage/buffer_pool.h"
#include "storage/io_stats.h"
#include "storage/journal.h"
#include "storage/page.h"
#include "util/status.h"

namespace tdb {

/// Production-storage knobs for one file (ROADMAP item 3).  The defaults
/// reproduce the paper's measurement discipline exactly: 1024-byte pages,
/// no checksums, private frames.
struct StorageOptions {
  /// Bytes per page.  1024 is the paper's mandated size; production uses
  /// 4096.  Must be in [512, 65536] and a multiple of 256.
  uint32_t page_size = kPageSize;
  /// CRC32-stamp every page in a 4-byte trailer (reusing the journal's
  /// CRC32), verified on every load.  Costs 4 bytes of usable space.
  bool checksum = false;
  /// Shared buffer pool; when set the pager keeps NO private frames and
  /// every page lives in the pool (its page_size must match).
  BufferPool* pool = nullptr;
};

/// The requests of ReadPageInto calls on one pager, kept by one parallel
/// scan worker and added to the pager's counters at the join.
struct ReadTally {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t reads[kNumIoCategories] = {};
};

/// Page-granularity access to one relation file through a small pool of
/// buffer frames (LRU).  The default — and the paper's measurement
/// discipline — is a SINGLE frame: "allocated only 1 buffer for each user
/// relation so that a page resides in main memory only until another page
/// from the same relation is brought in."  `bench/ablation_buffers` sweeps
/// the pool size to show why the paper controlled for it.
///
/// Accounting rules:
///  * ReadPage(p) of a resident page is free; a miss costs one read
///    (tagged with the caller-supplied category).
///  * Writes are buffered in the frame and cost one write when the dirty
///    frame is evicted or flushed.
///
/// With `StorageOptions::pool` set, the frames live in a process-shared
/// BufferPool instead of this pager; the accounting rules and this file's
/// IoCounters are unchanged (and bit-identical to the private single-frame
/// pager when the pool is capped at 1 frame per file).
class Pager {
 public:
  /// Opens (or creates empty) the file at `path` within `env`.  `counters`
  /// may be null (I/O not accounted, e.g. catalog internals).  `journal`
  /// may be null (no durability): when set, the pre-image of every page
  /// overwritten in place is journaled before the write, and file
  /// creation / growth / truncation is recorded so a rollback can undo it.
  /// Journal traffic never touches `counters`.  `sopts` selects the
  /// production storage mode; the default is the paper configuration.
  static Result<std::unique_ptr<Pager>> Open(Env* env, const std::string& path,
                                             IoCounters* counters,
                                             int frames = 1,
                                             Journal* journal = nullptr,
                                             const StorageOptions& sopts = {});

  ~Pager();

  Pager(const Pager&) = delete;
  Pager& operator=(const Pager&) = delete;

  /// Brings page `pno` into a frame (evicting the LRU frame as needed) and
  /// returns the frame pointer.  The pointer is invalidated by the next
  /// ReadPage/AllocatePage call — in pool mode, by the calling reader's
  /// next request (see BufferPool::ReaderScope).
  Result<uint8_t*> ReadPage(uint32_t pno, IoCategory cat);

  /// Marks the most recently returned frame dirty (its write will be
  /// counted on eviction).
  void MarkDirty();

  /// Copy-out read for parallel scan workers, which may call it at once on
  /// one pager while nothing else uses it.  Never disturbs the resident
  /// frame state: a resident page is memcpy'd out (a buffer hit, free),
  /// anything else is read from the file straight into `out` (one page
  /// read) — exactly what a single-frame serial scan would have counted for
  /// that page.  The request is counted in the worker's `tally`, not in this
  /// file's counters; the coordinator adds the tallies (AddTally) after the
  /// join.  No mutex is taken, except to wait for a pool frame that is
  /// being read in.
  Status ReadPageInto(uint32_t pno, IoCategory cat, uint8_t* out,
                      ReadTally* tally);

  /// Coordinator-only: counts a parallel scan's ReadPageInto requests on
  /// this file (and on its pool), as if each had been counted as made.
  void AddTally(const ReadTally& tally);

  /// Coordinator-only repair after a parallel scan: makes `pno` the
  /// resident page, replaying the frame state a serial scan would have left
  /// behind.  A resident `pno` is just touched (dirty preserved); otherwise
  /// the LRU victim is evicted (its write counted if dirty — the same
  /// mid-scan eviction write the serial scan performs) and `pno` is loaded
  /// WITHOUT counting a read, because the parallel workers already counted
  /// it.  No-op for out-of-range pages (empty file).
  Status PrimeFrame(uint32_t pno, IoCategory cat);

  /// Page numbers currently held in frames (coordinator-only; used to
  /// normalize buffer state before dispatching parallel workers).
  std::vector<uint32_t> ResidentPages() const;

  /// Appends a fresh zeroed page, loads it into a frame, and returns its
  /// page number.  The new page is dirty.
  Result<uint32_t> AllocatePage(IoCategory cat);

  /// Writes back every dirty frame.
  Status Flush();

  /// Flushes and empties every frame, so the next ReadPage of any page is
  /// counted.  Measurement harnesses call this between queries so one
  /// query's resident pages cannot subsidize the next.
  Status FlushAndDrop();

  /// Empties every frame WITHOUT writing dirty ones back.  Used when a
  /// statement rolls back: the journal restores the file image, and the
  /// in-memory frames holding the aborted writes must not reach disk.
  void DiscardAll();

  /// Fsyncs the underlying file (the durability point of the commit
  /// protocol; no-op cost for the in-memory env) — but only if this pager
  /// wrote, grew or truncated the file since its last successful Sync.  A
  /// clean pager returns at once, so a commit that syncs every open
  /// relation pays only for the files it changed.  Writes made through
  /// another Pager of the same file are that pager's to sync.
  Status Sync();

  uint32_t page_count() const { return page_count_; }
  const std::string& path() const { return path_; }
  IoCounters* counters() const { return counters_; }

  /// Bytes per page on disk.
  uint32_t page_size() const { return page_size_; }
  /// Bytes per page available to records (page_size minus the CRC trailer
  /// when checksums are on).  Page views must be built with this.
  uint32_t usable_size() const { return usable_size_; }
  BufferPool* pool() const { return pool_; }

  /// Resident-page budget: the private frame count, or the pool's per-file
  /// cap in pool mode (0 = uncapped).  Parallel scans read stores at 1 —
  /// the I/O-replay bracketing is derived for single-frame replacement,
  /// which a pool capped at 1 frame/file reproduces exactly — or in an
  /// uncapped pool, through reader pins.
  int num_frames() const {
    return pool_ != nullptr ? pool_cap_ : static_cast<int>(frames_.size());
  }

  /// Generation of the frame the last ReadPage/AllocatePage returned (null
  /// before the first).  A frame's generation is bumped whenever it is
  /// detached or (re)loaded: a ReadPage miss or AllocatePage that recycles
  /// it, FlushAndDrop, DiscardAll, Reset — and, in pool mode, the shared
  /// pool evicting it for any file.  A frame pointer returned by ReadPage —
  /// and every record slice cut from it — still holds its page while the
  /// frame's generation is unchanged; batch consumers snapshot it and
  /// assert (debug builds) before dereferencing their slices.  In pool
  /// mode it is the calling reader's frame (its ReaderScope's inside one).
  /// Read by the requesting thread only.
  const std::atomic<uint64_t>* frame_generation() const;

  /// Truncates to zero pages (used by `modify`, which rebuilds the file).
  Status Reset();

 private:
  friend class BufferPool;

  struct Frame {
    std::vector<uint8_t> data;
    uint32_t pno = kNoPage;
    bool dirty = false;
    IoCategory category = IoCategory::kData;
    uint64_t last_use = 0;
    std::atomic<uint64_t> generation{0};
  };

  Pager(std::unique_ptr<RandomRWFile> file, std::string path,
        IoCounters* counters, uint32_t page_count, int frames,
        Journal* journal, const StorageOptions& sopts);

  void Count(bool write, IoCategory cat, uint32_t pno);

  /// This file's observability counters, or null when the Database has no
  /// metrics registry wired (the zero-cost-off path).
  obs::PagerMetrics* metrics() const {
    return counters_ == nullptr ? nullptr : counters_->metrics;
  }

  /// Frame holding `pno`, or null.
  Frame* FindFrame(uint32_t pno);
  /// The least recently used frame (flushing it if dirty).
  Result<Frame*> EvictableFrame();
  Status FlushFrame(Frame* frame);

  // Shared between the private-frame path and the BufferPool.
  /// Journal hook + checksum stamp + file write + write count for `pno`.
  Status WriteBack(uint32_t pno, uint8_t* data, IoCategory cat);
  /// File read (+ checksum verify) into `out`; counted when `count`.
  Status LoadFrom(uint32_t pno, uint8_t* out, bool count, IoCategory cat);
  /// Journal hook + truncate backing the page_count_ extension of
  /// AllocatePage.
  Status GrowFile();
  /// Journals the pre-images of the dirty pages `pnos` with one sync, ahead
  /// of a flush's write loop (whose per-page hooks then find them logged).
  Status LogPreImages(const std::vector<uint32_t>& pnos);
  void NoteRequest(bool hit);
  /// Forgets every private frame's page (dirty ones too), invalidating
  /// their outstanding pointers.
  void ForgetFrames();

  void StampChecksum(uint8_t* data) const;
  Status VerifyChecksum(const uint8_t* data, uint32_t pno) const;

  std::unique_ptr<RandomRWFile> file_;
  std::string path_;
  IoCounters* counters_;
  Journal* journal_;
  uint32_t page_count_;
  /// Set by every write, grow or truncate of the file; cleared by a
  /// successful Sync.  Owner thread only.
  bool unsynced_ = false;
  uint32_t page_size_;
  uint32_t usable_size_;
  bool checksum_ = false;
  BufferPool* pool_ = nullptr;
  int pool_cap_ = 0;
  std::vector<Frame> frames_;
  Frame* last_touched_ = nullptr;
  uint64_t tick_ = 0;
  /// This file's frames in the shared pool (pool mode only); owned here,
  /// written under the pool's mutex.
  BufferPool::FrameTable pool_table_;
};

}  // namespace tdb

#endif  // CHRONOQUEL_STORAGE_PAGER_H_
