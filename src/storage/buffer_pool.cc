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
  s.resident = resident_;
  return s;
}

BufferPool::Frame* BufferPool::Find(const Pager* p, uint32_t pno) {
  const std::vector<Frame*>& by_pno = p->pool_table_.by_pno;
  return pno < by_pno.size() ? by_pno[pno] : nullptr;
}

std::vector<BufferPool::Frame*> BufferPool::SortedResident(const Pager* p) {
  std::vector<Frame*> frames = p->pool_table_.resident;
  std::sort(frames.begin(), frames.end(),
            [](const Frame* a, const Frame* b) { return a->pno < b->pno; });
  return frames;
}

bool BufferPool::PinnedByOwner(const Frame* f) {
  return f->owner->pool_table_.pinned == f;
}

void BufferPool::Attach(Frame* f, Pager* p, uint32_t pno, IoCategory cat,
                        bool dirty) {
  FrameTable& table = p->pool_table_;
  f->owner = p;
  f->pno = pno;
  f->category = cat;
  f->dirty = dirty;
  f->last_use = ++tick_;
  f->generation.fetch_add(1, std::memory_order_relaxed);
  if (pno >= table.by_pno.size()) table.by_pno.resize(pno + 1, nullptr);
  table.by_pno[pno] = f;
  f->resident_pos = table.resident.size();
  table.resident.push_back(f);
  table.pinned = f;
  ++resident_;
}

Status BufferPool::Detach(Frame* f, bool flush_dirty) {
  if (f->dirty && flush_dirty) {
    TDB_RETURN_NOT_OK(f->owner->WriteBack(f->pno, f->data.data(),
                                          f->category));
    ++stats_.write_backs;
  }
  FrameTable& table = f->owner->pool_table_;
  table.by_pno[f->pno] = nullptr;
  Frame* moved = table.resident.back();
  table.resident[f->resident_pos] = moved;
  moved->resident_pos = f->resident_pos;
  table.resident.pop_back();
  if (table.pinned == f) table.pinned = nullptr;
  --resident_;
  // Outstanding pointers into this frame (and record slices cut from it)
  // die with it; trip their generation check.
  f->generation.fetch_add(1, std::memory_order_relaxed);
  f->owner = nullptr;
  f->pno = kNoPage;
  f->dirty = false;
  return Status::OK();
}

Result<BufferPool::Frame*> BufferPool::Victim(Pager* p) {
  // Per-file cap first: once `p` holds its budget of resident pages, it
  // recycles its own LRU frame — at cap 1 this IS the paper's single-frame
  // replacement, evictions and dirty write-backs included.  The requester's
  // own pinned frame is fair game: the Pager contract already invalidates
  // the previous pointer on the next ReadPage/AllocatePage.
  const std::vector<Frame*>& own = p->pool_table_.resident;
  if (opts_.per_file_frames > 0 &&
      static_cast<int>(own.size()) >= opts_.per_file_frames) {
    Frame* own_lru = own.front();
    for (Frame* f : own) {
      if (f->last_use < own_lru->last_use) own_lru = f;
    }
    ++stats_.evictions;
    if (p->metrics() != nullptr) p->metrics()->evictions.Increment();
    TDB_RETURN_NOT_OK(Detach(own_lru, /*flush_dirty=*/true));
    return own_lru;
  }
  if (!free_.empty()) {
    Frame* f = free_.back();
    free_.pop_back();
    return f;
  }
  if (static_cast<int>(frames_.size()) < opts_.total_frames) {
    frames_.push_back(std::make_unique<Frame>());
    frames_.back()->data.resize(opts_.page_size);
    return frames_.back().get();
  }
  // Global LRU over evictable frames: skip foreign pinned frames (their
  // owner's returned pointer must stay valid) and foreign DIRTY frames —
  // the pool never runs another file's journal hook or bumps its write
  // counters, that is strictly the owner's (single-threaded) job.
  Frame* best = nullptr;
  for (auto& owned : frames_) {
    Frame* f = owned.get();
    if (f->owner == nullptr) {
      best = f;
      break;
    }
    const bool pinned = PinnedByOwner(f);
    if (f->owner != p && (f->dirty || pinned)) continue;
    if (f->owner == p && pinned && opts_.per_file_frames == 0) {
      // Uncapped mode: prefer not to cannibalize our own pinned frame
      // unless nothing else is evictable.
      continue;
    }
    if (best == nullptr || f->last_use < best->last_use) best = f;
  }
  if (best != nullptr) {
    if (best->owner != nullptr) {
      ++stats_.evictions;
      if (best->owner != p) ++stats_.foreign_evictions;
      if (best->owner->metrics() != nullptr) {
        best->owner->metrics()->evictions.Increment();
      }
      TDB_RETURN_NOT_OK(Detach(best, /*flush_dirty=*/true));
    }
    return best;
  }
  // Everything is pinned or foreign-dirty: overflow-allocate past capacity
  // rather than stall a reader (parallel workers may legitimately pin more
  // frames than total_frames on a tiny pool).
  frames_.push_back(std::make_unique<Frame>());
  frames_.back()->data.resize(opts_.page_size);
  return frames_.back().get();
}

Result<uint8_t*> BufferPool::ReadPage(Pager* p, uint32_t pno,
                                      IoCategory cat) {
  std::lock_guard<std::mutex> lock(mu_);
  Frame* f = Find(p, pno);
  p->NoteRequest(f != nullptr);
  if (f != nullptr) {
    ++stats_.hits;
    f->last_use = ++tick_;
    p->pool_table_.pinned = f;
    return f->data.data();
  }
  ++stats_.misses;
  TDB_ASSIGN_OR_RETURN(f, Victim(p));
  TDB_RETURN_NOT_OK(p->LoadFrom(pno, f->data.data(), /*count=*/true, cat));
  Attach(f, p, pno, cat, /*dirty=*/false);
  return f->data.data();
}

void BufferPool::MarkDirty(Pager* p) {
  std::lock_guard<std::mutex> lock(mu_);
  if (p->pool_table_.pinned != nullptr) p->pool_table_.pinned->dirty = true;
}

Status BufferPool::ReadPageInto(Pager* p, uint32_t pno, IoCategory cat,
                                uint8_t* out) {
  std::lock_guard<std::mutex> lock(mu_);
  Frame* f = Find(p, pno);
  p->NoteRequest(f != nullptr);
  if (f != nullptr) {
    ++stats_.hits;
    std::memcpy(out, f->data.data(), opts_.page_size);
    return Status::OK();
  }
  ++stats_.misses;
  return p->LoadFrom(pno, out, /*count=*/true, cat);
}

Status BufferPool::PrimeFrame(Pager* p, uint32_t pno, IoCategory cat) {
  std::lock_guard<std::mutex> lock(mu_);
  Frame* f = Find(p, pno);
  if (f == nullptr) {
    TDB_ASSIGN_OR_RETURN(f, Victim(p));
    // Uncounted: the parallel workers already charged this page's read;
    // this only restores the frame state a serial scan would have left.
    TDB_RETURN_NOT_OK(p->LoadFrom(pno, f->data.data(), /*count=*/false, cat));
    Attach(f, p, pno, cat, /*dirty=*/false);
    return Status::OK();
  }
  f->last_use = ++tick_;
  p->pool_table_.pinned = f;
  return Status::OK();
}

Result<uint8_t*> BufferPool::AllocatePage(Pager* p, uint32_t pno,
                                          IoCategory cat) {
  std::lock_guard<std::mutex> lock(mu_);
  TDB_ASSIGN_OR_RETURN(Frame * f, Victim(p));
  std::memset(f->data.data(), 0, opts_.page_size);
  Attach(f, p, pno, cat, /*dirty=*/true);
  return f->data.data();
}

std::vector<uint32_t> BufferPool::ResidentPages(const Pager* p) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<uint32_t> pnos;
  for (const Frame* f : SortedResident(p)) pnos.push_back(f->pno);
  return pnos;
}

Status BufferPool::LogDirtyPreImages(Pager* p,
                                     const std::vector<Frame*>& frames) {
  if (p->journal_ == nullptr) return Status::OK();
  std::vector<uint32_t> dirty;
  for (const Frame* f : frames) {
    if (f->dirty) dirty.push_back(f->pno);
  }
  return p->LogPreImages(dirty);
}

Status BufferPool::Flush(Pager* p) {
  std::lock_guard<std::mutex> lock(mu_);
  // Ascending page order for a deterministic write sequence; identical to
  // the private path at 1 frame.  The journal logs every dirty page's
  // pre-image first, with one sync for the whole flush.
  std::vector<Frame*> frames = SortedResident(p);
  TDB_RETURN_NOT_OK(LogDirtyPreImages(p, frames));
  for (Frame* f : frames) {
    if (!f->dirty) continue;
    TDB_RETURN_NOT_OK(p->WriteBack(f->pno, f->data.data(), f->category));
    ++stats_.write_backs;
    f->dirty = false;
  }
  return Status::OK();
}

Status BufferPool::FlushAndDrop(Pager* p) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Frame*> frames = SortedResident(p);
  TDB_RETURN_NOT_OK(LogDirtyPreImages(p, frames));
  for (Frame* f : frames) {
    TDB_RETURN_NOT_OK(Detach(f, /*flush_dirty=*/true));
    free_.push_back(f);
  }
  return Status::OK();
}

void BufferPool::DiscardAll(Pager* p) {
  std::lock_guard<std::mutex> lock(mu_);
  while (!p->pool_table_.resident.empty()) {
    Frame* f = p->pool_table_.resident.back();
    f->dirty = false;  // aborted writes must not reach disk
    (void)Detach(f, /*flush_dirty=*/false);
    free_.push_back(f);
  }
}

}  // namespace tdb
