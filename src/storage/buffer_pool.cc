#include "storage/buffer_pool.h"

#include <algorithm>
#include <cstring>

#include "obs/metrics.h"
#include "storage/pager.h"

namespace tdb {

BufferPool::Stats BufferPool::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  s.frames = frames_.size();
  s.resident = lru_.size;
  return s;
}

void BufferPool::set_metrics(obs::MetricsRegistry* metrics) {
  overflow_counter_ = metrics == nullptr
                          ? nullptr
                          : metrics->counter("bufpool.overflow_frames");
}

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

BufferPool::Frame* BufferPool::Find(const Pager* p, uint32_t pno) {
  const std::vector<Frame*>& by_pno = p->pool_table_.by_pno;
  return pno < by_pno.size() ? by_pno[pno] : nullptr;
}

std::vector<BufferPool::Frame*> BufferPool::SortedResident(
    const Pager* p, bool dirty_only) const {
  std::vector<Frame*> frames;
  for (uint32_t id = p->pool_table_.resident.lru; id != kNoFrame;
       id = own_links_[id].next) {
    Frame* f = frames_[id].get();
    if (!dirty_only || f->dirty) frames.push_back(f);
  }
  std::sort(frames.begin(), frames.end(),
            [](const Frame* a, const Frame* b) { return a->pno < b->pno; });
  return frames;
}

bool BufferPool::PinnedByOwner(const Frame* f) {
  return f->owner->pool_table_.pinned == f;
}

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
  f->owner = p;
  f->pno = pno;
  f->category = cat;
  f->dirty = dirty;
  f->generation.fetch_add(1, std::memory_order_relaxed);
  if (pno >= table.by_pno.size()) table.by_pno.resize(pno + 1, nullptr);
  table.by_pno[pno] = f;
  PushMru(&lru_, all_links_, f->id);
  PushMru(&table.resident, own_links_, f->id);
  table.pinned = f;
}

void BufferPool::Detach(Frame* f) {
  FrameTable& table = f->owner->pool_table_;
  table.by_pno[f->pno] = nullptr;
  Unlink(&lru_, all_links_, f->id);
  Unlink(&table.resident, own_links_, f->id);
  if (table.pinned == f) table.pinned = nullptr;
  // Outstanding pointers into this frame (and record slices cut from it)
  // die with it; trip their generation check.
  f->generation.fetch_add(1, std::memory_order_relaxed);
  f->owner = nullptr;
  f->pno = kNoPage;
  f->dirty = false;
}

void BufferPool::Touch(Pager* p, Frame* f) {
  FrameTable& table = p->pool_table_;
  MoveToMru(&lru_, all_links_, f->id);
  // Only the per-file cap reads the order of the owner's list.
  if (opts_.per_file_frames > 0) {
    MoveToMru(&table.resident, own_links_, f->id);
  }
  table.pinned = f;
}

Result<BufferPool::Frame*> BufferPool::Victim(
    Pager* p, std::unique_lock<std::mutex>& lock) {
  Frame* victim = nullptr;
  if (opts_.per_file_frames > 0 &&
      p->pool_table_.resident.size >=
          static_cast<size_t>(opts_.per_file_frames)) {
    // Per-file cap first: once `p` holds its budget of resident pages, it
    // recycles its own LRU frame — at cap 1 this IS the paper's
    // single-frame replacement, evictions and dirty write-backs included.
    // The requester's own pinned frame is fair game: the Pager contract
    // already invalidates the previous pointer on the next
    // ReadPage/AllocatePage.
    victim = frames_[p->pool_table_.resident.lru].get();
  } else if (!free_.empty()) {
    Frame* f = free_.back();
    free_.pop_back();
    return f;
  } else if (static_cast<int>(frames_.size()) < opts_.total_frames) {
    return NewFrame();
  } else {
    // Global LRU over evictable frames: skip foreign pinned frames (their
    // owner's returned pointer must stay valid) and foreign DIRTY frames —
    // the pool never runs another file's journal hook or bumps its write
    // counters, that is strictly the owner's (single-threaded) job.  In
    // uncapped mode the requester also spares its own pinned frame.
    for (uint32_t id = lru_.lru; id != kNoFrame; id = all_links_[id].next) {
      Frame* f = frames_[id].get();
      const bool pinned = PinnedByOwner(f);
      const bool spared = f->owner != p
                              ? f->dirty || pinned
                              : pinned && opts_.per_file_frames == 0;
      if (!spared) {
        victim = f;
        break;
      }
    }
    if (victim == nullptr) {
      // Everything is pinned or foreign-dirty: overflow-allocate past
      // capacity rather than stall a reader (parallel workers may
      // legitimately pin more frames than total_frames on a tiny pool).
      ++stats_.overflow_frames;
      if (overflow_counter_ != nullptr) overflow_counter_->Increment();
      return NewFrame();
    }
  }
  ++stats_.evictions;
  if (victim->owner != p) ++stats_.foreign_evictions;
  if (victim->owner->metrics() != nullptr) {
    victim->owner->metrics()->evictions.Increment();
  }
  if (victim->dirty) {
    // Only the requester's own frames are dirty victims, and no other
    // file's eviction takes a dirty frame: write it back unlocked.
    lock.unlock();
    Status st =
        p->WriteBack(victim->pno, victim->data.data(), victim->category);
    lock.lock();
    TDB_RETURN_NOT_OK(st);
    ++stats_.write_backs;
  }
  Detach(victim);
  return victim;
}

Result<BufferPool::Frame*> BufferPool::LoadVictim(
    Pager* p, uint32_t pno, IoCategory cat, bool count,
    std::unique_lock<std::mutex>& lock) {
  TDB_ASSIGN_OR_RETURN(Frame * f, Victim(p, lock));
  // Attached first, so the frame is `p`'s pinned frame — which no other
  // file's eviction takes — while the page comes in without the lock.
  Attach(f, p, pno, cat, /*dirty=*/false);
  lock.unlock();
  Status st = p->LoadFrom(pno, f->data.data(), count, cat);
  if (st.ok()) return f;
  lock.lock();
  Detach(f);
  free_.push_back(f);
  return st;
}

Result<uint8_t*> BufferPool::ReadPage(Pager* p, uint32_t pno,
                                      IoCategory cat) {
  std::unique_lock<std::mutex> lock(mu_);
  Frame* f = Find(p, pno);
  p->NoteRequest(f != nullptr);
  if (f != nullptr) {
    ++stats_.hits;
    Touch(p, f);
    return f->data.data();
  }
  ++stats_.misses;
  TDB_ASSIGN_OR_RETURN(f, LoadVictim(p, pno, cat, /*count=*/true, lock));
  return f->data.data();
}

void BufferPool::MarkDirty(Pager* p) {
  std::lock_guard<std::mutex> lock(mu_);
  if (p->pool_table_.pinned != nullptr) p->pool_table_.pinned->dirty = true;
}

Status BufferPool::ReadPageInto(Pager* p, uint32_t pno, IoCategory cat,
                                uint8_t* out) {
  std::unique_lock<std::mutex> lock(mu_);
  Frame* f = Find(p, pno);
  p->NoteRequest(f != nullptr);
  if (f != nullptr) {
    ++stats_.hits;
    std::memcpy(out, f->data.data(), opts_.page_size);
    return Status::OK();
  }
  ++stats_.misses;
  lock.unlock();
  TDB_RETURN_NOT_OK(p->LoadFrom(pno, out, /*count=*/false, cat));
  // Counted under the lock: the parallel workers of one file share its
  // counters.
  lock.lock();
  p->Count(/*write=*/false, cat, pno);
  return Status::OK();
}

Status BufferPool::PrimeFrame(Pager* p, uint32_t pno, IoCategory cat) {
  std::unique_lock<std::mutex> lock(mu_);
  Frame* f = Find(p, pno);
  if (f != nullptr) {
    Touch(p, f);
    return Status::OK();
  }
  // Uncounted: the parallel workers already charged this page's read;
  // this only restores the frame state a serial scan would have left.
  return LoadVictim(p, pno, cat, /*count=*/false, lock).status();
}

Result<uint8_t*> BufferPool::AllocatePage(Pager* p, uint32_t pno,
                                          IoCategory cat) {
  std::unique_lock<std::mutex> lock(mu_);
  TDB_ASSIGN_OR_RETURN(Frame * f, Victim(p, lock));
  std::memset(f->data.data(), 0, opts_.page_size);
  Attach(f, p, pno, cat, /*dirty=*/true);
  return f->data.data();
}

std::vector<uint32_t> BufferPool::ResidentPages(const Pager* p) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<uint32_t> pnos;
  for (const Frame* f : SortedResident(p, /*dirty_only=*/false)) {
    pnos.push_back(f->pno);
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
  // Written without the mutex: foreign eviction never takes a dirty frame,
  // so only `p`'s own thread could move these meanwhile.  The journal logs
  // every dirty page's pre-image first, with one sync for the whole flush.
  std::vector<uint32_t> pnos;
  for (const Frame* f : dirty) pnos.push_back(f->pno);
  Status st = p->LogPreImages(pnos);
  size_t written = 0;
  while (st.ok() && written < dirty.size()) {
    Frame* f = dirty[written];
    st = p->WriteBack(f->pno, f->data.data(), f->category);
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
  while (p->pool_table_.resident.mru != kNoFrame) {
    Frame* f = frames_[p->pool_table_.resident.mru].get();
    Detach(f);  // dirty or not: aborted writes must not reach disk
    free_.push_back(f);
  }
}

}  // namespace tdb
