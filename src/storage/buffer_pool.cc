#include "storage/buffer_pool.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <thread>

#include "obs/metrics.h"
#include "storage/pager.h"

namespace tdb {

namespace {

/// Hits a thread queues for one pool before it applies them under the
/// pool's mutex.
constexpr uint32_t kQueuedMoves = 64;
/// Pools a thread keeps a move log for at once.
constexpr size_t kLogsPerThread = 4;

/// One thread's queued LRU moves for one pool, as frame ids.  The
/// thread-local logs are zero-initialized, so the hit path runs no
/// constructor or guard.
struct MoveLog {
  uint64_t pool;  // the pool's serial; 0 = unused
  uint64_t n;     // moves queued since the log was last applied
  /// A ring: once more than kQueuedMoves are queued, the newest
  /// kQueuedMoves remain.
  uint32_t moves[kQueuedMoves];

  uint32_t& at(uint64_t i) { return moves[i % kQueuedMoves]; }
};

thread_local MoveLog tls_logs[kLogsPerThread];

/// The calling thread's log for pool `serial`, or null when it has none
/// and `create` is false.  A new log takes an empty one or, failing that,
/// drops another pool's queued moves (that pool's order stays approximate).
inline MoveLog* LogFor(uint64_t serial, bool create) {
  MoveLog* spare = nullptr;
  for (MoveLog& log : tls_logs) {
    if (log.pool == serial) return &log;
    if (spare == nullptr && log.n == 0) spare = &log;
  }
  if (!create) return nullptr;
  if (spare == nullptr) spare = &tls_logs[serial % kLogsPerThread];
  spare->pool = serial;
  spare->n = 0;
  return spare;
}

std::atomic<uint64_t> next_pool_serial{1};

}  // namespace

thread_local std::vector<BufferPool::ReaderPin>* BufferPool::reader_pins_ =
    nullptr;

BufferPool::BufferPool(const Options& opts)
    : opts_(opts),
      serial_(next_pool_serial.fetch_add(1, std::memory_order_relaxed)) {}

BufferPool::Stats BufferPool::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  s.hits = hits_.load(std::memory_order_relaxed);
  for (const FrameTable* table : tables_) {
    s.hits += table->owner_hits.load(std::memory_order_relaxed);
  }
  s.frames = frames_.size();
  s.resident = lru_.size;
  return s;
}

void BufferPool::set_metrics(obs::MetricsRegistry* metrics) {
  overflow_counter_ = metrics == nullptr
                          ? nullptr
                          : metrics->counter("bufpool.overflow_frames");
}

// --- frame index -------------------------------------------------------------

void BufferPool::FrameIndex::Set(uint32_t pno, Frame* f) {
  Dir* dir = dir_.load(std::memory_order_relaxed);
  const uint32_t c = pno >> kChunkBits;
  if (dir == nullptr || c >= dir->size()) {
    if (f == nullptr) return;
    auto grown = std::make_unique<Dir>(
        std::max<size_t>(c + 1, dir == nullptr ? 1 : 2 * dir->size()));
    for (size_t i = 0; dir != nullptr && i < dir->size(); ++i) {
      (*grown)[i].store((*dir)[i].load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
    }
    dir = grown.get();
    dirs_.push_back(std::move(grown));
    dir_.store(dir, std::memory_order_release);
  }
  Chunk* chunk = (*dir)[c].load(std::memory_order_relaxed);
  if (chunk == nullptr) {
    if (f == nullptr) return;
    chunks_.push_back(std::make_unique<Chunk>());
    chunk = chunks_.back().get();
    for (std::atomic<Frame*>& entry : *chunk) {
      entry.store(nullptr, std::memory_order_relaxed);
    }
    // Released: a hit that finds the chunk sees its cleared entries.
    (*dir)[c].store(chunk, std::memory_order_release);
  }
  (*chunk)[pno & kChunkMask].store(f, std::memory_order_release);
}

BufferPool::Frame* BufferPool::Find(const Pager* p, uint32_t pno) {
  return p->pool_table_.by_pno.Get(pno);
}

// --- LRU lists ---------------------------------------------------------------

void BufferPool::PushMru(LruList* list, std::vector<Links>& links,
                         uint32_t id) {
  links[id] = Links{list->mru, kNoFrame};
  (list->mru != kNoFrame ? links[list->mru].next : list->lru) = id;
  list->mru = id;
  ++list->size;
}

void BufferPool::Unlink(LruList* list, std::vector<Links>& links,
                        uint32_t id) {
  const Links l = links[id];
  (l.prev != kNoFrame ? links[l.prev].next : list->lru) = l.next;
  (l.next != kNoFrame ? links[l.next].prev : list->mru) = l.prev;
  links[id] = Links{};
  --list->size;
}

void BufferPool::MoveToMru(LruList* list, std::vector<Links>& links,
                           uint32_t id) {
  if (list->mru == id) return;
  Unlink(list, links, id);
  PushMru(list, links, id);
}

void BufferPool::Touch(uint32_t id) {
  MoveToMru(&lru_, all_links_, id);
  // Only the per-file cap reads the order of the owner's list.
  if (opts_.per_file_frames > 0) {
    Pager* owner = frames_[id]->owner.load(std::memory_order_relaxed);
    MoveToMru(&owner->pool_table_.resident, own_links_, id);
  }
}

inline void BufferPool::QueueMove(const Frame* f, bool scoped) {
  MoveLog* log = LogFor(serial_, /*create=*/true);
  // A repeat of the last queued move changes nothing.
  if (log->n > 0 && log->at(log->n - 1) == f->id) return;
  log->at(log->n++) = f->id;
  // A full owner's log is applied at once, which keeps its victim order
  // exact.  A ReaderScope's parallel readers would serialize on the mutex
  // (each move touches links other threads also move), so a full scoped
  // log drops its oldest move instead: their recency is approximate.
  if (log->n >= kQueuedMoves && !scoped) {
    std::lock_guard<std::mutex> lock(mu_);
    ApplyQueuedMoves();
  }
}

void BufferPool::ApplyQueuedMoves() {
  MoveLog* log = LogFor(serial_, /*create=*/false);
  if (log == nullptr) return;
  for (uint64_t i = log->n > kQueuedMoves ? log->n - kQueuedMoves : 0;
       i < log->n; ++i) {
    const uint32_t id = log->at(i);
    // Skip a frame detached since the hit.  This thread applies its log
    // before any victim choice of its own, so only another thread can
    // have detached it, or reattached it to another page, which makes
    // the move merely approximate.
    const bool linked = all_links_[id].prev != kNoFrame || lru_.lru == id;
    if (linked) Touch(id);
  }
  log->n = 0;
}

std::vector<BufferPool::Frame*> BufferPool::SortedResident(
    const Pager* p, bool dirty_only) const {
  std::vector<Frame*> frames;
  for (uint32_t id = p->pool_table_.resident.lru; id != kNoFrame;
       id = own_links_[id].next) {
    Frame* f = frames_[id].get();
    if (!dirty_only || f->dirty) frames.push_back(f);
  }
  std::sort(frames.begin(), frames.end(), [](const Frame* a, const Frame* b) {
    return a->pno.load(std::memory_order_relaxed) <
           b->pno.load(std::memory_order_relaxed);
  });
  return frames;
}

// --- readers and pins --------------------------------------------------------

BufferPool::ReaderScope::ReaderScope() {
  assert(reader_pins_ == nullptr && "ReaderScopes do not nest");
  reader_pins_ = &pins_;
}

BufferPool::ReaderScope::~ReaderScope() {
  reader_pins_ = nullptr;
  ReleaseReader(&pins_);
}

void BufferPool::ReleaseReader(std::vector<ReaderPin>* pins) {
  std::vector<BufferPool*> pools;
  for (const ReaderPin& rp : *pins) {
    if (rp.frame != nullptr) Unpin(rp.frame);
    BufferPool* pool = rp.pager->pool();
    pool->hits_.fetch_add(rp.hits, std::memory_order_relaxed);
    if (obs::PagerMetrics* m = rp.pager->metrics(); m != nullptr) {
      m->requests.Add(rp.hits);
      m->hits.Add(rp.hits);
    }
    if (std::find(pools.begin(), pools.end(), pool) == pools.end()) {
      pools.push_back(pool);
    }
  }
  for (BufferPool* pool : pools) {
    std::lock_guard<std::mutex> lock(pool->mu_);
    pool->ApplyQueuedMoves();
  }
}

inline BufferPool::ReaderPin* BufferPool::ScopePin(const Pager* p) {
  std::vector<ReaderPin>* pins = reader_pins_;
  if (pins == nullptr) return nullptr;
  for (ReaderPin& rp : *pins) {
    if (rp.pager == p) return &rp;
  }
  pins->push_back(ReaderPin{const_cast<Pager*>(p)});
  return &pins->back();
}

inline BufferPool::Frame* BufferPool::Held(const Pager* p,
                                           const ReaderPin* rp) {
  return rp != nullptr ? rp->frame
                       : p->pool_table_.pinned.load(std::memory_order_relaxed);
}

void BufferPool::Hold(Pager* p, ReaderPin* rp, Frame* f) {
  if (rp == nullptr) {
    p->pool_table_.pinned.store(f);
    return;
  }
  f->pins.fetch_add(1, std::memory_order_relaxed);
  if (rp->frame != nullptr) Unpin(rp->frame);
  rp->frame = f;
}

void BufferPool::Release(Pager* p, ReaderPin* rp, Frame* f) {
  if (rp == nullptr) {
    if (p->pool_table_.pinned.load(std::memory_order_relaxed) == f) {
      p->pool_table_.pinned.store(nullptr);
    }
    return;
  }
  if (rp->frame == f) {
    Unpin(f);
    rp->frame = nullptr;
  }
}

inline BufferPool::Frame* BufferPool::TryPin(const Pager* p, uint32_t pno) {
  Frame* f = Find(p, pno);
  if (f == nullptr) return nullptr;
  if ((f->pins.fetch_add(1, std::memory_order_acq_rel) & kBlocked) != 0) {
    Unpin(f);
    return nullptr;
  }
  // Pinned and not blocked: owner and page are stable now.  The frame may
  // have moved to another page since the index lookup.
  if (f->owner.load(std::memory_order_relaxed) != p ||
      f->pno.load(std::memory_order_relaxed) != pno) {
    Unpin(f);
    return nullptr;
  }
  return f;
}

inline BufferPool::Frame* BufferPool::OwnerHit(Pager* p, uint32_t pno) {
  std::atomic<Frame*>& slot = p->pool_table_.pinned;
  Frame* old = slot.load(std::memory_order_relaxed);
  // The owner's pin keeps its frame on its page.
  if (old != nullptr && old->pno.load(std::memory_order_relaxed) == pno) {
    return old;
  }
  Frame* f = Find(p, pno);
  if (f == nullptr) return nullptr;
  // Pin first, then look (both sequentially consistent): a victim claim
  // blocks the frame first, then reads the slot (see Claim), so either
  // the claim sees this pin or this hit sees the block.
  slot.store(f);
  if ((f->pins.load() & kBlocked) == 0 &&
      f->owner.load(std::memory_order_relaxed) == p &&
      f->pno.load(std::memory_order_relaxed) == pno) {
    return f;
  }
  // Busy, or moved to another page since the index lookup: the slow path
  // puts the pin back under the mutex (RestorePin).
  return nullptr;
}

void BufferPool::RestorePin(Pager* p, Frame* old) {
  // `old` lost its pin during a failed OwnerHit; unless a claim took it
  // meanwhile, pin it again, so the victim choice spares it.
  const bool intact = old != nullptr &&
                      old->owner.load(std::memory_order_relaxed) == p &&
                      Find(p, old->pno.load(std::memory_order_relaxed)) ==
                          old &&
                      !Busy(old);
  p->pool_table_.pinned.store(intact ? old : nullptr);
}

inline BufferPool::Frame* BufferPool::ScopedHit(const Pager* p,
                                                uint32_t pno, ReaderPin* rp) {
  Frame* f = rp->frame;
  if (f != nullptr && f->pno.load(std::memory_order_relaxed) == pno) return f;
  f = TryPin(p, pno);
  if (f != nullptr) {
    if (rp->frame != nullptr) Unpin(rp->frame);
    rp->frame = f;
  }
  return f;
}

inline void BufferPool::CountHit(Pager* p, ReaderPin* rp) {
  if (rp != nullptr) {
    ++rp->hits;
    return;
  }
  // Only the owner writes its count, so it needs no atomic add.
  std::atomic<uint64_t>& hits = p->pool_table_.owner_hits;
  hits.store(hits.load(std::memory_order_relaxed) + 1,
             std::memory_order_relaxed);
  p->NoteRequest(/*hit=*/true);
}

void BufferPool::AddPager(Pager* p) {
  std::lock_guard<std::mutex> lock(mu_);
  tables_.push_back(&p->pool_table_);
}

void BufferPool::RemovePager(Pager* p) {
  std::lock_guard<std::mutex> lock(mu_);
  const FrameTable* table = &p->pool_table_;
  hits_.fetch_add(table->owner_hits.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
  tables_.erase(std::find(tables_.begin(), tables_.end(), table));
}

bool BufferPool::Claim(Frame* f) {
  uint32_t unpinned = 0;
  // Also orders the readers' reads of the page before its reuse.
  if (!f->pins.compare_exchange_strong(unpinned, kBlocked)) return false;
  // The owner pins through its slot, without the mutex: read it only now
  // that the frame is blocked (see OwnerHit).
  if (f->owner.load(std::memory_order_relaxed)->pool_table_.pinned.load() ==
      f) {
    f->pins.fetch_sub(kBlocked);
    return false;
  }
  return true;
}

const std::atomic<uint64_t>* BufferPool::PinnedGeneration(const Pager* p) {
  const Frame* f = Held(p, ScopePin(p));
  return f == nullptr ? nullptr : &f->generation;
}

// --- frames ------------------------------------------------------------------

BufferPool::Frame* BufferPool::NewFrame() {
  frames_.push_back(std::make_unique<Frame>());
  Frame* f = frames_.back().get();
  f->data.resize(opts_.page_size);
  f->id = static_cast<uint32_t>(frames_.size() - 1);
  all_links_.emplace_back();
  own_links_.emplace_back();
  return f;
}

void BufferPool::Attach(Frame* f, Pager* p, uint32_t pno, IoCategory cat,
                        bool dirty) {
  FrameTable& table = p->pool_table_;
  f->owner.store(p, std::memory_order_relaxed);
  f->pno.store(pno, std::memory_order_relaxed);
  f->category = cat;
  f->dirty = dirty;
  f->generation.fetch_add(1, std::memory_order_relaxed);
  table.by_pno.Set(pno, f);
  PushMru(&lru_, all_links_, f->id);
  PushMru(&table.resident, own_links_, f->id);
}

void BufferPool::Detach(Frame* f) {
  FrameTable& table = f->owner.load(std::memory_order_relaxed)->pool_table_;
  table.by_pno.Set(f->pno.load(std::memory_order_relaxed), nullptr);
  Unlink(&lru_, all_links_, f->id);
  Unlink(&table.resident, own_links_, f->id);
  // Outstanding pointers into this frame (and record slices cut from it)
  // die with it; trip their generation check.
  f->generation.fetch_add(1, std::memory_order_relaxed);
  f->owner.store(nullptr, std::memory_order_relaxed);
  f->pno.store(kNoPage, std::memory_order_relaxed);
  f->dirty = false;
}

Result<BufferPool::Frame*> BufferPool::Victim(
    Pager* p, ReaderPin* rp, std::unique_lock<std::mutex>& lock) {
  // A ReaderScope thread never writes a page back: journal hooks and write
  // counters are the owner's.
  const bool scoped = reader_pins_ != nullptr;
  FrameTable& table = p->pool_table_;
  Frame* victim = nullptr;
  if (opts_.per_file_frames > 0 &&
      table.resident.size >= static_cast<size_t>(opts_.per_file_frames)) {
    // Per-file cap first: once `p` holds its budget of resident pages, it
    // recycles its own LRU frame.
    if (opts_.per_file_frames == 1) {
      // The paper's single-frame replacement, evictions and dirty
      // write-backs included: the request replaces its pager's one frame,
      // whose pin is the requester's own — the Pager contract already
      // invalidates the previous pointer on the next request.
      victim = frames_[table.resident.lru].get();
      Release(p, rp, victim);
      // Another pin here is a copy-out in flight: the caller retries.
      if (!Claim(victim)) return nullptr;
    } else {
      for (uint32_t id = table.resident.lru; id != kNoFrame;
           id = own_links_[id].next) {
        Frame* f = frames_[id].get();
        if (!(scoped && f->dirty) && Claim(f)) {
          victim = f;
          break;
        }
      }
    }
  } else if (!free_.empty()) {
    Frame* f = free_.back();
    free_.pop_back();
    return f;
  } else if (static_cast<int>(frames_.size()) < opts_.total_frames) {
    return NewFrame();
  } else {
    // Global LRU over evictable frames: skip pinned frames (their readers'
    // pointers must stay valid) and foreign DIRTY frames — the pool never
    // runs another file's journal hook or bumps its write counters.
    for (uint32_t id = lru_.lru; id != kNoFrame; id = all_links_[id].next) {
      Frame* f = frames_[id].get();
      const bool spared =
          f->dirty &&
          (scoped || f->owner.load(std::memory_order_relaxed) != p);
      if (!spared && Claim(f)) {
        victim = f;
        break;
      }
    }
  }
  if (victim == nullptr) {
    // Everything is pinned or foreign-dirty: overflow-allocate past
    // capacity rather than stall a reader (parallel readers may
    // legitimately pin more frames than total_frames on a tiny pool).
    ++stats_.overflow_frames;
    if (overflow_counter_ != nullptr) overflow_counter_->Increment();
    return NewFrame();
  }
  Pager* owner = victim->owner.load(std::memory_order_relaxed);
  ++stats_.evictions;
  if (owner != p) ++stats_.foreign_evictions;
  if (owner->metrics() != nullptr) owner->metrics()->evictions.Increment();
  if (victim->dirty) {
    // Only the requester's own frames are dirty victims: write it back
    // unlocked; claimed and still indexed, it is busy, so requests for its
    // page wait.
    lock.unlock();
    Status st =
        p->WriteBack(victim->pno.load(std::memory_order_relaxed),
                     victim->data.data(), victim->category);
    lock.lock();
    if (!st.ok()) {
      victim->pins.fetch_sub(kBlocked);
      NotifyWaiters();
      return st;
    }
    ++stats_.write_backs;
    Detach(victim);
    NotifyWaiters();
    return victim;
  }
  Detach(victim);
  return victim;
}

Result<BufferPool::Frame*> BufferPool::Request(
    Pager* p, uint32_t pno, IoCategory cat, ReaderPin* rp, bool account,
    bool count, std::unique_lock<std::mutex>& lock) {
  // The victim choice below must see this thread's earlier hits in order.
  ApplyQueuedMoves();
  // The request counts as a hit if it ends on a resident frame and as a
  // miss once it sets out to read the page, whether or not that succeeds.
  bool counted = !account;
  auto count_miss = [&] {
    if (counted) return;
    counted = true;
    ++stats_.misses;
    p->NoteRequest(/*hit=*/false);
  };
  while (true) {
    Frame* f = Find(p, pno);
    if (f != nullptr && Busy(f)) {
      WaitWhileBusy(f, lock);
      continue;
    }
    if (f != nullptr) {
      if (!counted) CountHit(p, rp);
      // Not busy, so not blocked, and under mu_ no victim claim can race
      // the pin.
      Hold(p, rp, f);
      Touch(f->id);
      lock.unlock();
      return f;
    }
    Result<Frame*> claimed = Victim(p, rp, lock);
    if (!claimed.ok()) count_miss();
    TDB_ASSIGN_OR_RETURN(Frame * v, std::move(claimed));
    if (v == nullptr) {
      lock.unlock();
      std::this_thread::yield();
      lock.lock();
      continue;
    }
    if (Find(p, pno) != nullptr) {
      // Another reader brought the page in while a write-back unlocked.
      free_.push_back(v);
      continue;
    }
    count_miss();
    // Published blocked, so busy, with the requester's pin: requests for
    // the page wait, and no eviction takes it, while it comes in unlocked.
    Attach(v, p, pno, cat, /*dirty=*/false);
    Hold(p, rp, v);
    lock.unlock();
    Status st = p->LoadFrom(pno, v->data.data(), /*count=*/false, cat);
    if (!st.ok()) {
      lock.lock();
      Release(p, rp, v);
      Detach(v);
      free_.push_back(v);
      NotifyWaiters();
      return st;
    }
    if (count) {
      // The owner's counters are its own; a ReaderScope shares them with
      // the other readers of the file, so it counts under the lock.
      if (rp != nullptr) lock.lock();
      p->Count(/*write=*/false, cat, pno);
      if (rp != nullptr) lock.unlock();
    }
    Unblock(v);
    return v;
  }
}

void BufferPool::WaitWhileBusy(const Frame* f,
                               std::unique_lock<std::mutex>& lock) {
  // Registered before the re-check, against Unblock's order: either the
  // re-check sees the frame unblocked, or Unblock sees the waiter.
  waiters_.fetch_add(1);
  if (Busy(f)) not_busy_.wait(lock);
  waiters_.fetch_sub(1);
}

void BufferPool::Unblock(Frame* f) {
  f->pins.fetch_sub(kBlocked);
  if (waiters_.load() > 0) {
    std::lock_guard<std::mutex> lock(mu_);
    not_busy_.notify_all();
  }
}

// --- the Pager-facing surface ------------------------------------------------

Result<uint8_t*> BufferPool::ReadPage(Pager* p, uint32_t pno,
                                      IoCategory cat) {
  ReaderPin* rp = ScopePin(p);
  Frame* const old = Held(p, rp);
  Frame* f = rp != nullptr ? ScopedHit(p, pno, rp) : OwnerHit(p, pno);
  if (f == nullptr) return ReadMissed(p, pno, cat, rp, old);
  QueueMove(f, /*scoped=*/rp != nullptr);
  CountHit(p, rp);
  return f->data.data();
}

Result<uint8_t*> BufferPool::ReadMissed(Pager* p, uint32_t pno, IoCategory cat,
                                        ReaderPin* rp, Frame* old) {
  std::unique_lock<std::mutex> lock(mu_);
  if (rp == nullptr) RestorePin(p, old);
  TDB_ASSIGN_OR_RETURN(
      Frame * f,
      Request(p, pno, cat, rp, /*account=*/true, /*count=*/true, lock));
  return f->data.data();
}

void BufferPool::MarkDirty(Pager* p) {
  Frame* f = Held(p, ScopePin(p));
  if (f == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  f->dirty = true;
}

Status BufferPool::ReadPageInto(Pager* p, uint32_t pno, IoCategory cat,
                                uint8_t* out, ReadTally* tally) {
  Frame* f = TryPin(p, pno);
  if (f == nullptr) {
    // Not pinnable: a page that is not resident is read without the mutex
    // (the workers' coordinator, the pager's only other user, waits for
    // them, so none can bring it in meanwhile); a busy one is waited for.
    if (Find(p, pno) == nullptr) {
      ++tally->misses;
      TDB_RETURN_NOT_OK(p->LoadFrom(pno, out, /*count=*/false, cat));
      ++tally->reads[static_cast<int>(cat)];
      return Status::OK();
    }
    std::unique_lock<std::mutex> lock(mu_);
    while ((f = Find(p, pno)) != nullptr && Busy(f)) {
      WaitWhileBusy(f, lock);
    }
    if (f == nullptr) {
      lock.unlock();
      return ReadPageInto(p, pno, cat, out, tally);
    }
    f->pins.fetch_add(1, std::memory_order_relaxed);
  }
  std::memcpy(out, f->data.data(), opts_.page_size);
  Unpin(f);
  ++tally->hits;
  return Status::OK();
}

void BufferPool::AddTally(const ReadTally& tally) {
  hits_.fetch_add(tally.hits, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  stats_.misses += tally.misses;
}

Status BufferPool::PrimeFrame(Pager* p, uint32_t pno, IoCategory cat) {
  ReaderPin* rp = ScopePin(p);
  std::unique_lock<std::mutex> lock(mu_);
  // Uncounted: the parallel workers already charged this page's read;
  // this only restores the frame state a serial scan would have left.
  return Request(p, pno, cat, rp, /*account=*/false, /*count=*/false, lock)
      .status();
}

Result<uint8_t*> BufferPool::AllocatePage(Pager* p, uint32_t pno,
                                          IoCategory cat) {
  ReaderPin* rp = ScopePin(p);
  std::unique_lock<std::mutex> lock(mu_);
  ApplyQueuedMoves();
  Frame* f = nullptr;
  while (f == nullptr) {
    TDB_ASSIGN_OR_RETURN(f, Victim(p, rp, lock));
    if (f == nullptr) {
      lock.unlock();
      std::this_thread::yield();
      lock.lock();
    }
  }
  std::memset(f->data.data(), 0, opts_.page_size);
  Attach(f, p, pno, cat, /*dirty=*/true);
  Hold(p, rp, f);
  f->pins.fetch_sub(kBlocked);  // nobody waits for a page not yet in use
  return f->data.data();
}

std::vector<uint32_t> BufferPool::ResidentPages(const Pager* p) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<uint32_t> pnos;
  for (const Frame* f : SortedResident(p, /*dirty_only=*/false)) {
    pnos.push_back(f->pno.load(std::memory_order_relaxed));
  }
  return pnos;
}

Status BufferPool::Flush(Pager* p) {
  // Ascending page order for a deterministic write sequence; identical to
  // the private path at 1 frame.
  std::vector<Frame*> dirty;
  {
    std::lock_guard<std::mutex> lock(mu_);
    dirty = SortedResident(p, /*dirty_only=*/true);
  }
  if (dirty.empty()) return Status::OK();
  // Written without the mutex: eviction never takes another file's dirty
  // frame, so only `p`'s own thread could move these meanwhile.  The
  // journal logs every dirty page's pre-image first, with one sync for the
  // whole flush.
  std::vector<uint32_t> pnos;
  for (const Frame* f : dirty) {
    pnos.push_back(f->pno.load(std::memory_order_relaxed));
  }
  Status st = p->LogPreImages(pnos);
  size_t written = 0;
  while (st.ok() && written < dirty.size()) {
    Frame* f = dirty[written];
    st = p->WriteBack(pnos[written], f->data.data(), f->category);
    if (st.ok()) ++written;
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < written; ++i) dirty[i]->dirty = false;
  stats_.write_backs += written;
  return st;
}

Status BufferPool::FlushAndDrop(Pager* p) {
  TDB_RETURN_NOT_OK(Flush(p));
  // Every frame of `p` is clean now; whatever foreign eviction left of them
  // goes.
  DiscardAll(p);
  return Status::OK();
}

void BufferPool::DiscardAll(Pager* p) {
  std::lock_guard<std::mutex> lock(mu_);
  FrameTable& table = p->pool_table_;
  while (table.resident.mru != kNoFrame) {
    Frame* f = frames_[table.resident.mru].get();
    // Only the owner, whose pin is its slot, reads a discarded pager.
    f->pins.fetch_add(kBlocked);
    Detach(f);  // dirty or not: aborted writes must not reach disk
    free_.push_back(f);
  }
  table.pinned.store(nullptr);
}

}  // namespace tdb
