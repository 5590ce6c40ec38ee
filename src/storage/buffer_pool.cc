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
  s.resident = index_.size();
  return s;
}

BufferPool::Frame* BufferPool::Find(const Pager* p, uint32_t pno) const {
  auto it = index_.find({p, pno});
  return it == index_.end() ? nullptr : it->second;
}

bool BufferPool::PinnedByOwner(const Frame* f) const {
  auto it = last_.find(f->owner);
  return it != last_.end() && it->second == f;
}

Status BufferPool::Detach(Frame* f, bool flush_dirty) {
  if (f->dirty && flush_dirty) {
    TDB_RETURN_NOT_OK(f->owner->WriteBack(f->pno, f->data.data(),
                                          f->category));
    ++stats_.write_backs;
  }
  index_.erase({f->owner, f->pno});
  auto it = last_.find(f->owner);
  if (it != last_.end() && it->second == f) last_.erase(it);
  // The owner's outstanding frame pointers (and record slices cut from
  // them) die with this frame; trip its generation check.
  f->owner->BumpGeneration();
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
  if (opts_.per_file_frames > 0) {
    Frame* own_lru = nullptr;
    int own_count = 0;
    for (auto it = index_.lower_bound({p, 0});
         it != index_.end() && it->first.first == p; ++it) {
      ++own_count;
      if (own_lru == nullptr || it->second->last_use < own_lru->last_use) {
        own_lru = it->second;
      }
    }
    if (own_count >= opts_.per_file_frames) {
      ++stats_.evictions;
      if (p->metrics() != nullptr) p->metrics()->evictions.Increment();
      TDB_RETURN_NOT_OK(Detach(own_lru, /*flush_dirty=*/true));
      return own_lru;
    }
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
    if (f->owner != p && (f->dirty || PinnedByOwner(f))) continue;
    if (f->owner == p && PinnedByOwner(f) && opts_.per_file_frames == 0) {
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
    last_[p] = f;
    return f->data.data();
  }
  ++stats_.misses;
  TDB_ASSIGN_OR_RETURN(f, Victim(p));
  TDB_RETURN_NOT_OK(p->LoadFrom(pno, f->data.data(), /*count=*/true, cat));
  f->owner = p;
  f->pno = pno;
  f->category = cat;
  f->dirty = false;
  f->last_use = ++tick_;
  index_[{p, pno}] = f;
  last_[p] = f;
  p->BumpGeneration();
  return f->data.data();
}

void BufferPool::MarkDirty(Pager* p) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = last_.find(p);
  if (it != last_.end()) it->second->dirty = true;
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
    f->owner = p;
    f->pno = pno;
    f->category = cat;
    f->dirty = false;
    index_[{p, pno}] = f;
    p->BumpGeneration();
  }
  f->last_use = ++tick_;
  last_[p] = f;
  return Status::OK();
}

Result<uint8_t*> BufferPool::AllocatePage(Pager* p, uint32_t pno,
                                          IoCategory cat) {
  std::lock_guard<std::mutex> lock(mu_);
  TDB_ASSIGN_OR_RETURN(Frame * f, Victim(p));
  std::memset(f->data.data(), 0, opts_.page_size);
  f->owner = p;
  f->pno = pno;
  f->category = cat;
  f->dirty = true;
  f->last_use = ++tick_;
  index_[{p, pno}] = f;
  last_[p] = f;
  p->BumpGeneration();
  return f->data.data();
}

std::vector<uint32_t> BufferPool::ResidentPages(const Pager* p) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<uint32_t> pnos;
  for (auto it = index_.lower_bound({p, 0});
       it != index_.end() && it->first.first == p; ++it) {
    pnos.push_back(it->first.second);
  }
  return pnos;
}

Status BufferPool::Flush(Pager* p) {
  std::lock_guard<std::mutex> lock(mu_);
  // Ascending page order (the index is sorted by (pager, pno)) for a
  // deterministic write sequence; identical to the private path at 1 frame.
  for (auto it = index_.lower_bound({p, 0});
       it != index_.end() && it->first.first == p; ++it) {
    Frame* f = it->second;
    if (!f->dirty) continue;
    TDB_RETURN_NOT_OK(p->WriteBack(f->pno, f->data.data(), f->category));
    ++stats_.write_backs;
    f->dirty = false;
  }
  return Status::OK();
}

Status BufferPool::FlushAndDrop(Pager* p) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.lower_bound({p, 0});
  while (it != index_.end() && it->first.first == p) {
    Frame* f = it->second;
    ++it;  // Detach erases the current entry.
    TDB_RETURN_NOT_OK(Detach(f, /*flush_dirty=*/true));
    free_.push_back(f);
  }
  last_.erase(p);
  p->BumpGeneration();
  return Status::OK();
}

void BufferPool::DiscardAll(Pager* p) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.lower_bound({p, 0});
  while (it != index_.end() && it->first.first == p) {
    Frame* f = it->second;
    ++it;
    f->dirty = false;  // aborted writes must not reach disk
    (void)Detach(f, /*flush_dirty=*/false);
    free_.push_back(f);
  }
  last_.erase(p);
  p->BumpGeneration();
}

}  // namespace tdb
