// Storage test battery for the process-shared buffer pool (production
// storage mode).  Two halves:
//
//  1. Direct unit tests of the pool through the Pager surface: LRU victim
//     order, the pin rule (a pager's last returned frame survives foreign
//     eviction), dirty write-back on eviction, cross-relation frame
//     sharing, the frame table (ascending write-back order, no resident
//     page after a drop or discard, growth found on the next hit), and
//     the stale-slice rule: a slice held across its own frame's eviction
//     trips the frame's generation check, another frame's eviction does
//     not.
//
//  2. A differential battery over all eight paper test databases (four
//     database types x fillfactor 100/50) at 1, 2 and 4 exec threads:
//     the pool at per-file cap 1 must reproduce the paper's private
//     single-frame pager byte-for-byte — identical rendered rows AND
//     identical page-I/O measures for every applicable benchmark query.

#include "storage/buffer_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "benchlib/workload.h"
#include "env/env.h"
#include "env/fault_env.h"
#include "obs/metrics.h"
#include "storage/journal.h"
#include "storage/pager.h"
#include "storage/storage_file.h"
#include "util/stringx.h"

namespace tdb {
namespace {

class BufferPoolTest : public ::testing::Test {
 protected:
  std::unique_ptr<Pager> Open(const std::string& name, BufferPool* pool,
                              IoCounters* counters, Env* env = nullptr,
                              Journal* journal = nullptr) {
    StorageOptions sopts;
    sopts.pool = pool;
    auto pager = Pager::Open(env != nullptr ? env : &env_, "/" + name,
                             counters, /*frames=*/1, journal, sopts);
    EXPECT_TRUE(pager.ok()) << pager.status().ToString();
    return std::move(pager).value();
  }

  /// Allocates `n` pages, stamps each with its page number, and flushes.
  void Seed(Pager* pager, int n) {
    for (int i = 0; i < n; ++i) {
      auto pno = pager->AllocatePage(IoCategory::kData);
      ASSERT_TRUE(pno.ok());
      auto frame = pager->ReadPage(*pno, IoCategory::kData);
      ASSERT_TRUE(frame.ok());
      (*frame)[0] = static_cast<uint8_t>(i + 1);
      pager->MarkDirty();
    }
    ASSERT_TRUE(pager->Flush().ok());
  }

  MemEnv env_;
  IoCounters counters_;
};

TEST_F(BufferPoolTest, LruEvictionOrder) {
  BufferPool::Options po;
  po.total_frames = 2;
  po.per_file_frames = 0;
  BufferPool pool(po);
  auto pager = Open("a", &pool, &counters_);
  Seed(pager.get(), 3);
  ASSERT_TRUE(pager->FlushAndDrop().ok());
  counters_.Reset();
  BufferPool::Stats base = pool.GetStats();

  ASSERT_TRUE(pager->ReadPage(0, IoCategory::kData).ok());
  ASSERT_TRUE(pager->ReadPage(1, IoCategory::kData).ok());
  EXPECT_EQ(counters_.TotalReads(), 2u);
  // Touch page 0 again: it becomes MRU (and pinned), page 1 becomes LRU.
  ASSERT_TRUE(pager->ReadPage(0, IoCategory::kData).ok());
  EXPECT_EQ(counters_.TotalReads(), 2u);  // hit
  // Page 2 must evict the LRU frame (page 1), not the recently used page 0.
  ASSERT_TRUE(pager->ReadPage(2, IoCategory::kData).ok());
  EXPECT_EQ(counters_.TotalReads(), 3u);
  ASSERT_TRUE(pager->ReadPage(0, IoCategory::kData).ok());
  EXPECT_EQ(counters_.TotalReads(), 3u);  // page 0 survived
  ASSERT_TRUE(pager->ReadPage(1, IoCategory::kData).ok());
  EXPECT_EQ(counters_.TotalReads(), 4u);  // page 1 was the victim

  BufferPool::Stats s = pool.GetStats();
  EXPECT_EQ(s.hits - base.hits, 2u);
  EXPECT_EQ(s.misses - base.misses, 4u);
  EXPECT_GE(s.evictions - base.evictions, 2u);
}

TEST_F(BufferPoolTest, PinnedFrameSurvivesForeignEviction) {
  BufferPool::Options po;
  po.total_frames = 2;
  po.per_file_frames = 0;
  BufferPool pool(po);
  IoCounters bcount;
  auto a = Open("a", &pool, &counters_);
  auto b = Open("b", &pool, &bcount);
  Seed(a.get(), 2);
  Seed(b.get(), 3);
  ASSERT_TRUE(a->FlushAndDrop().ok());
  ASSERT_TRUE(b->FlushAndDrop().ok());
  BufferPool::Stats base = pool.GetStats();

  auto af = a->ReadPage(0, IoCategory::kData);
  ASSERT_TRUE(af.ok());
  // b fills the rest of the pool and keeps reading: a's frame is pinned
  // (it is a's most recently returned pointer), so the pool must
  // overflow-allocate rather than steal it.
  ASSERT_TRUE(b->ReadPage(0, IoCategory::kData).ok());
  ASSERT_TRUE(b->ReadPage(1, IoCategory::kData).ok());
  ASSERT_TRUE(b->ReadPage(2, IoCategory::kData).ok());
  EXPECT_EQ(pool.GetStats().foreign_evictions, base.foreign_evictions);
  EXPECT_EQ((*af)[0], 1u);  // the pinned frame's bytes never moved

  // Once a moves on to another page, its old frame is unpinned and fair
  // game for b.
  ASSERT_TRUE(a->ReadPage(1, IoCategory::kData).ok());
  uint64_t evictions_before = pool.GetStats().foreign_evictions;
  for (uint32_t pno = 0; pno < 3; ++pno) {
    ASSERT_TRUE(b->ReadPage(pno, IoCategory::kData).ok());
  }
  EXPECT_GT(pool.GetStats().foreign_evictions, evictions_before);
}

TEST_F(BufferPoolTest, DirtyWriteBackOnEviction) {
  BufferPool::Options po;
  po.total_frames = 4;
  po.per_file_frames = 1;  // paper discipline: self-evict on every switch
  BufferPool pool(po);
  auto pager = Open("a", &pool, &counters_);
  Seed(pager.get(), 2);
  ASSERT_TRUE(pager->FlushAndDrop().ok());
  counters_.Reset();
  BufferPool::Stats base = pool.GetStats();

  auto frame = pager->ReadPage(0, IoCategory::kData);
  ASSERT_TRUE(frame.ok());
  (*frame)[7] = 0xCD;
  pager->MarkDirty();
  EXPECT_EQ(counters_.TotalWrites(), 0u);  // buffered
  ASSERT_TRUE(pager->ReadPage(1, IoCategory::kData).ok());  // evicts page 0
  EXPECT_EQ(counters_.TotalWrites(), 1u);
  EXPECT_EQ(pool.GetStats().write_backs - base.write_backs, 1u);

  // The write-back reached the file: reading page 0 again sees the byte.
  auto again = pager->ReadPage(0, IoCategory::kData);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)[7], 0xCD);
}

TEST_F(BufferPoolTest, CapOneMatchesPrivateSingleFrameCounters) {
  // The same access sequence through a private one-frame pager and through
  // the pool at per-file cap 1 must produce identical IoCounters.
  auto run = [&](bool pooled) {
    MemEnv env;
    IoCounters counters;
    std::unique_ptr<BufferPool> pool;
    StorageOptions sopts;
    if (pooled) {
      BufferPool::Options po;
      po.total_frames = 8;
      po.per_file_frames = 1;
      pool = std::make_unique<BufferPool>(po);
      sopts.pool = pool.get();
    }
    auto pager =
        Pager::Open(&env, "/a", &counters, 1, nullptr, sopts).value();
    for (int i = 0; i < 4; ++i) {
      auto frame = pager->AllocatePage(IoCategory::kData);
      EXPECT_TRUE(frame.ok());
      pager->MarkDirty();
    }
    EXPECT_TRUE(pager->Flush().ok());
    // Ping-pong reads with a dirtying pass: every switch is a miss, every
    // dirty eviction a write.
    for (uint32_t pno : {0u, 1u, 0u, 2u, 2u, 3u, 1u}) {
      auto frame = pager->ReadPage(pno, IoCategory::kData);
      EXPECT_TRUE(frame.ok());
      if (pno % 2 == 0) pager->MarkDirty();
    }
    EXPECT_TRUE(pager->Flush().ok());
    return std::make_pair(counters.TotalReads(), counters.TotalWrites());
  };
  auto paper = run(false);
  auto pooled = run(true);
  EXPECT_EQ(paper.first, pooled.first);
  EXPECT_EQ(paper.second, pooled.second);
}

TEST_F(BufferPoolTest, CrossRelationSharing) {
  // One pool spans two files: both stay resident together (uncapped), and
  // each file's misses land on its own IoCounters.
  BufferPool::Options po;
  po.total_frames = 8;
  po.per_file_frames = 0;
  BufferPool pool(po);
  IoCounters bcount;
  auto a = Open("a", &pool, &counters_);
  auto b = Open("b", &pool, &bcount);
  Seed(a.get(), 2);
  Seed(b.get(), 2);
  ASSERT_TRUE(a->FlushAndDrop().ok());
  ASSERT_TRUE(b->FlushAndDrop().ok());
  counters_.Reset();
  bcount.Reset();
  BufferPool::Stats base = pool.GetStats();

  for (int round = 0; round < 3; ++round) {
    for (uint32_t pno = 0; pno < 2; ++pno) {
      ASSERT_TRUE(a->ReadPage(pno, IoCategory::kData).ok());
      ASSERT_TRUE(b->ReadPage(pno, IoCategory::kData).ok());
    }
  }
  // First round misses, later rounds all hit — interleaving two files
  // never thrashes a shared pool (it would thrash two private 1-frame
  // pagers 12 times).
  EXPECT_EQ(counters_.TotalReads(), 2u);
  EXPECT_EQ(bcount.TotalReads(), 2u);
  BufferPool::Stats s = pool.GetStats();
  EXPECT_EQ(s.misses - base.misses, 4u);
  EXPECT_EQ(s.hits - base.hits, 8u);
  EXPECT_EQ(s.resident, 4u);
}

TEST_F(BufferPoolTest, StalePointerAcrossEvictionTripsGenerationCheck) {
  // Regression: holding a frame pointer (or a record slice cut from it)
  // across a pool eviction of that frame is a use-after-evict.  The frame's
  // generation must tick when it is recycled so RecordBatch's debug check
  // can catch the stale slice.
  BufferPool::Options po;
  po.total_frames = 2;
  po.per_file_frames = 0;
  BufferPool pool(po);
  IoCounters bcount;
  auto a = Open("a", &pool, &counters_);
  auto b = Open("b", &pool, &bcount);
  Seed(a.get(), 2);
  Seed(b.get(), 4);
  ASSERT_TRUE(a->FlushAndDrop().ok());
  ASSERT_TRUE(b->FlushAndDrop().ok());

  ASSERT_TRUE(a->ReadPage(0, IoCategory::kData).ok());
  RecordBatch batch;  // slices of page 0
  batch.SetSource(a.get());
  ASSERT_TRUE(a->ReadPage(1, IoCategory::kData).ok());  // page 0 unpinned
  // b storms the pool until a's unpinned frame is recycled.
  for (uint32_t pno = 0; pno < 4; ++pno) {
    ASSERT_TRUE(b->ReadPage(pno, IoCategory::kData).ok());
  }
  ASSERT_GT(pool.GetStats().foreign_evictions, 0u);
  // The foreign eviction invalidated the slices into page 0's frame.
  EXPECT_FALSE(batch.fresh());
}

TEST_F(BufferPoolTest, ForeignEvictionOfAnotherFrameKeepsSlicesFresh) {
  // A batch aliases one frame only.  Another pager's Victim recycling a
  // DIFFERENT frame of the same pager leaves the batch's slices intact, so
  // the stale-slice check must not trip.
  BufferPool::Options po;
  po.total_frames = 2;
  po.per_file_frames = 0;
  BufferPool pool(po);
  IoCounters bcount;
  auto a = Open("a", &pool, &counters_);
  auto b = Open("b", &pool, &bcount);
  Seed(a.get(), 2);
  Seed(b.get(), 4);
  ASSERT_TRUE(a->FlushAndDrop().ok());
  ASSERT_TRUE(b->FlushAndDrop().ok());

  ASSERT_TRUE(a->ReadPage(0, IoCategory::kData).ok());
  auto frame = a->ReadPage(1, IoCategory::kData);  // pinned
  ASSERT_TRUE(frame.ok());
  RecordBatch batch;  // slices of page 1
  batch.SetSource(a.get());
  for (uint32_t pno = 0; pno < 4; ++pno) {
    ASSERT_TRUE(b->ReadPage(pno, IoCategory::kData).ok());
  }
  ASSERT_GT(pool.GetStats().foreign_evictions, 0u);  // a's page 0 went
  EXPECT_TRUE(batch.fresh());
  EXPECT_EQ((*frame)[0], 2u);  // page 1's bytes never moved
}

/// A byte past the page header, free for tests to stamp.
constexpr size_t kPayloadByte = 100;

TEST_F(BufferPoolTest, FlushWritesBackInAscendingPageOrder) {
  BufferPool::Options po;
  po.total_frames = 16;
  po.per_file_frames = 0;
  BufferPool pool(po);
  IoTrace trace;
  counters_.trace = &trace;
  auto pager = Open("a", &pool, &counters_);
  Seed(pager.get(), 8);
  ASSERT_TRUE(pager->FlushAndDrop().ok());

  // Load and dirty the pages in a scrambled order.
  for (uint32_t pno : {5u, 1u, 7u, 0u, 3u, 6u, 2u, 4u}) {
    auto frame = pager->ReadPage(pno, IoCategory::kData);
    ASSERT_TRUE(frame.ok());
    (*frame)[kPayloadByte] = 0xAB;
    pager->MarkDirty();
  }
  trace.set_enabled(true);
  ASSERT_TRUE(pager->Flush().ok());
  std::vector<uint32_t> written;
  for (const IoEvent& e : trace.events()) {
    ASSERT_TRUE(e.write);
    written.push_back(e.page);
  }
  EXPECT_EQ(written, (std::vector<uint32_t>{0, 1, 2, 3, 4, 5, 6, 7}));
  // Flushed frames stay resident and clean: a second flush writes nothing.
  trace.Clear();
  ASSERT_TRUE(pager->Flush().ok());
  EXPECT_TRUE(trace.events().empty());
  EXPECT_EQ(pager->ResidentPages(),
            (std::vector<uint32_t>{0, 1, 2, 3, 4, 5, 6, 7}));
  counters_.trace = nullptr;
}

TEST_F(BufferPoolTest, DropAndDiscardLeaveNoResidentPage) {
  BufferPool::Options po;
  po.total_frames = 8;
  po.per_file_frames = 0;
  BufferPool pool(po);
  IoCounters bcount;
  auto a = Open("a", &pool, &counters_);
  auto b = Open("b", &pool, &bcount);
  Seed(a.get(), 4);
  Seed(b.get(), 2);
  const size_t b_resident = b->ResidentPages().size();
  ASSERT_EQ(a->ResidentPages().size(), 4u);

  // FlushAndDrop: every page of `a` leaves the pool, and the next read of
  // each is a counted miss.
  ASSERT_TRUE(a->FlushAndDrop().ok());
  EXPECT_TRUE(a->ResidentPages().empty());
  EXPECT_EQ(pool.GetStats().resident, b_resident);
  counters_.Reset();
  for (uint32_t pno : {3u, 0u, 2u}) {
    auto frame = a->ReadPage(pno, IoCategory::kData);
    ASSERT_TRUE(frame.ok());
    (*frame)[kPayloadByte] = 0xCD;
    a->MarkDirty();
  }
  EXPECT_EQ(counters_.TotalReads(), 3u);

  // DiscardAll: dirty pages are forgotten without a write.
  counters_.Reset();
  a->DiscardAll();
  EXPECT_TRUE(a->ResidentPages().empty());
  EXPECT_EQ(pool.GetStats().resident, b_resident);
  EXPECT_EQ(counters_.TotalWrites(), 0u);
  auto frame = a->ReadPage(0, IoCategory::kData);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ((*frame)[kPayloadByte], 0u);  // the discarded write never reached the file
  EXPECT_EQ(counters_.TotalReads(), 1u);
}

TEST_F(BufferPoolTest, GrownFileIsFoundOnItsNextHit) {
  BufferPool::Options po;
  po.total_frames = 64;
  po.per_file_frames = 0;
  BufferPool pool(po);
  auto pager = Open("a", &pool, &counters_);
  Seed(pager.get(), 2);
  // Grow the file well past the pages the frame table has seen so far.
  for (int i = 0; i < 40; ++i) {
    auto pno = pager->AllocatePage(IoCategory::kOverflow);
    ASSERT_TRUE(pno.ok());
    auto frame = pager->ReadPage(*pno, IoCategory::kOverflow);
    ASSERT_TRUE(frame.ok());
    (*frame)[kPayloadByte] = static_cast<uint8_t>(*pno);
    pager->MarkDirty();
  }
  counters_.Reset();
  BufferPool::Stats base = pool.GetStats();
  for (uint32_t pno = 2; pno < 42; ++pno) {
    auto frame = pager->ReadPage(pno, IoCategory::kOverflow);
    ASSERT_TRUE(frame.ok());
    EXPECT_EQ((*frame)[kPayloadByte], static_cast<uint8_t>(pno));
  }
  EXPECT_EQ(counters_.TotalReads(), 0u);
  EXPECT_EQ(pool.GetStats().hits - base.hits, 40u);
  EXPECT_EQ(pool.GetStats().misses, base.misses);
}

TEST_F(BufferPoolTest, FailedMissGivesItsFrameBack) {
  BufferPool::Options po;
  po.total_frames = 4;
  po.per_file_frames = 0;
  BufferPool pool(po);
  FaultEnv fault(&env_);
  auto pager = Open("a", &pool, &counters_, &fault);
  Seed(pager.get(), 3);
  ASSERT_TRUE(pager->FlushAndDrop().ok());
  ASSERT_TRUE(pager->ReadPage(0, IoCategory::kData).ok());
  counters_.Reset();
  const BufferPool::Stats base = pool.GetStats();

  // Each failed miss returns its frame: repeating it never grows the pool.
  for (int attempt = 0; attempt < 4; ++attempt) {
    fault.Reset();
    fault.FailReadAt(1);
    auto failed = pager->ReadPage(1, IoCategory::kData);
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.status().code(), StatusCode::kIOError);
    const BufferPool::Stats s = pool.GetStats();
    EXPECT_EQ(s.frames, base.frames) << "attempt " << attempt;
    EXPECT_EQ(s.resident, base.resident) << "attempt " << attempt;
    EXPECT_EQ(pager->ResidentPages(), std::vector<uint32_t>{0});
  }
  EXPECT_EQ(counters_.TotalReads(), 0u);  // a failed read is not counted

  // The retry succeeds in a frame the pool already had.
  auto retry = pager->ReadPage(1, IoCategory::kData);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_EQ((*retry)[0], 2u);
  BufferPool::Stats s = pool.GetStats();
  EXPECT_EQ(s.frames, base.frames);
  EXPECT_EQ(s.resident, base.resident + 1);
  EXPECT_EQ(s.misses - base.misses, 5u);
  EXPECT_EQ(counters_.TotalReads(), 1u);

  // The same for a parallel worker's copy-out read and a re-prime.
  fault.Reset();
  fault.FailReadAt(1);
  std::vector<uint8_t> out(kPageSize);
  ReadTally tally;
  EXPECT_FALSE(
      pager->ReadPageInto(2, IoCategory::kData, out.data(), &tally).ok());
  fault.FailReadAt(2);
  EXPECT_FALSE(pager->PrimeFrame(2, IoCategory::kData).ok());
  EXPECT_EQ(pager->ResidentPages(), (std::vector<uint32_t>{0, 1}));
  ASSERT_TRUE(pager->PrimeFrame(2, IoCategory::kData).ok());
  s = pool.GetStats();
  EXPECT_EQ(s.frames, base.frames);
  EXPECT_EQ(s.resident, base.resident + 2);
  EXPECT_EQ(pager->ResidentPages(), (std::vector<uint32_t>{0, 1, 2}));
}

TEST_F(BufferPoolTest, OverflowFramesAreCounted) {
  BufferPool::Options po;
  po.total_frames = 2;
  po.per_file_frames = 0;
  BufferPool pool(po);
  obs::MetricsRegistry metrics(/*enabled=*/true);
  pool.set_metrics(&metrics);
  std::vector<IoCounters> counters(3);
  std::vector<std::unique_ptr<Pager>> pagers;
  for (int i = 0; i < 3; ++i) {
    pagers.push_back(Open(std::string(1, 'a' + i), &pool, &counters[i]));
    Seed(pagers.back().get(), 1);
    ASSERT_TRUE(pagers.back()->FlushAndDrop().ok());
  }
  EXPECT_EQ(pool.GetStats().overflow_frames, 0u);

  // Three pagers each pin one page of a two-frame pool: the third request
  // finds nothing evictable and allocates past capacity.
  for (auto& pager : pagers) {
    auto frame = pager->ReadPage(0, IoCategory::kData);
    ASSERT_TRUE(frame.ok());
    EXPECT_EQ((*frame)[0], 1u);
  }
  BufferPool::Stats s = pool.GetStats();
  EXPECT_EQ(s.overflow_frames, 1u);
  EXPECT_EQ(s.frames, 3u);
  EXPECT_EQ(s.resident, 3u);
  EXPECT_EQ(metrics.Snapshot().counter("bufpool.overflow_frames"), 1u);

  // Once a pin moves on, the pool recycles within its frames again.
  ASSERT_TRUE(pagers[0]->FlushAndDrop().ok());
  ASSERT_TRUE(pagers[1]->ReadPage(0, IoCategory::kData).ok());
  ASSERT_TRUE(pagers[0]->ReadPage(0, IoCategory::kData).ok());
  EXPECT_EQ(pool.GetStats().overflow_frames, 1u);
  EXPECT_EQ(pool.GetStats().frames, 3u);
}

// ---------------------------------------------------------------------------
// No file I/O under the pool mutex: one pager held inside its file read or
// its journal sync must not stall another pager's hits and misses.
// ---------------------------------------------------------------------------

/// How long a test waits for the other side before it fails (instead of
/// hanging on a pool that does hold its mutex across I/O).
constexpr auto kLatchTimeout = std::chrono::seconds(10);

class LatchEnv;

class LatchFile : public RandomRWFile {
 public:
  LatchFile(LatchEnv* env, std::string path,
            std::unique_ptr<RandomRWFile> base)
      : env_(env), path_(std::move(path)), base_(std::move(base)) {}

  Status Read(uint64_t offset, size_t n, uint8_t* buf) const override;
  Status Write(uint64_t offset, const uint8_t* data, size_t n) override {
    return base_->Write(offset, data, n);
  }
  Result<uint64_t> Size() const override { return base_->Size(); }
  Status Truncate(uint64_t size) override { return base_->Truncate(size); }
  Status Sync() override;

 private:
  LatchEnv* env_;
  std::string path_;
  std::unique_ptr<RandomRWFile> base_;
};

/// An in-memory Env whose next Read (or Sync) of one file blocks until the
/// test releases it.
class LatchEnv : public Env {
 public:
  /// Blocks the next Read of `path`, or its next Sync when `on_sync`.
  void Arm(const std::string& path, bool on_sync) {
    std::lock_guard<std::mutex> lock(mu_);
    path_ = path;
    on_sync_ = on_sync;
    armed_ = true;
  }

  /// Waits for the armed call to block; false after kLatchTimeout.
  bool WaitBlocked() {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, kLatchTimeout, [&] { return blocked_; });
  }

  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

  void MaybeBlock(const std::string& path, bool is_sync) {
    std::unique_lock<std::mutex> lock(mu_);
    if (!armed_ || path != path_ || is_sync != on_sync_) return;
    armed_ = false;
    blocked_ = true;
    cv_.notify_all();
    cv_.wait(lock, [&] { return released_; });
  }

  Result<std::unique_ptr<RandomRWFile>> OpenOrCreate(
      const std::string& path) override {
    TDB_ASSIGN_OR_RETURN(auto file, base_.OpenOrCreate(path));
    return std::unique_ptr<RandomRWFile>(
        new LatchFile(this, path, std::move(file)));
  }
  bool FileExists(const std::string& path) override {
    return base_.FileExists(path);
  }
  Status DeleteFile(const std::string& path) override {
    return base_.DeleteFile(path);
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    return base_.RenameFile(from, to);
  }
  Status CreateDirIfMissing(const std::string& path) override {
    return base_.CreateDirIfMissing(path);
  }
  Result<std::vector<std::string>> ListDir(const std::string& path) override {
    return base_.ListDir(path);
  }
  Result<std::string> ReadFileToString(const std::string& path) override {
    return base_.ReadFileToString(path);
  }
  Status WriteStringToFile(const std::string& path,
                           const std::string& data) override {
    return base_.WriteStringToFile(path, data);
  }

 private:
  MemEnv base_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::string path_;
  bool on_sync_ = false;
  bool armed_ = false;
  bool blocked_ = false;
  bool released_ = false;
};

Status LatchFile::Read(uint64_t offset, size_t n, uint8_t* buf) const {
  env_->MaybeBlock(path_, /*is_sync=*/false);
  return base_->Read(offset, n, buf);
}

Status LatchFile::Sync() {
  env_->MaybeBlock(path_, /*is_sync=*/true);
  return base_->Sync();
}

/// Reads `pnos` through `pager` and returns each page's first byte (the
/// seed stamp), or the first error.
Result<std::vector<uint8_t>> FirstBytes(Pager* pager,
                                        const std::vector<uint32_t>& pnos) {
  std::vector<uint8_t> bytes;
  for (uint32_t pno : pnos) {
    TDB_ASSIGN_OR_RETURN(uint8_t * frame,
                         pager->ReadPage(pno, IoCategory::kData));
    bytes.push_back(frame[0]);
  }
  return bytes;
}

/// Runs `blocked_side` on a thread until it blocks in `env`, then `b`'s
/// reads of `pnos` on another; true when those finished while the first
/// side was still blocked.  Always releases the latch and joins both.
bool OtherSideFinishesWhileBlocked(
    LatchEnv* env, const std::function<void()>& blocked_side, Pager* b,
    const std::vector<uint32_t>& pnos,
    Result<std::vector<uint8_t>>* b_bytes) {
  std::thread blocked(blocked_side);
  const bool reached = env->WaitBlocked();
  EXPECT_TRUE(reached) << "the first pager never reached its file I/O";
  auto other = std::async(std::launch::async,
                          [&] { return FirstBytes(b, pnos); });
  const bool finished =
      reached &&
      other.wait_for(kLatchTimeout) == std::future_status::ready;
  env->Release();
  blocked.join();
  *b_bytes = other.get();
  return finished;
}

TEST_F(BufferPoolTest, PageReadOfOneFileDoesNotStallAnother) {
  BufferPool::Options po;
  po.total_frames = 4;
  po.per_file_frames = 0;
  BufferPool pool(po);
  LatchEnv env;
  IoCounters bcount;
  auto a = Open("a", &pool, &counters_, &env);
  auto b = Open("b", &pool, &bcount, &env);
  Seed(a.get(), 2);
  Seed(b.get(), 3);
  ASSERT_TRUE(a->FlushAndDrop().ok());
  ASSERT_TRUE(b->FlushAndDrop().ok());
  ASSERT_TRUE(b->ReadPage(0, IoCategory::kData).ok());
  counters_.Reset();
  bcount.Reset();
  const BufferPool::Stats base = pool.GetStats();

  env.Arm("/a", /*on_sync=*/false);
  Result<uint8_t*> a_frame = Status::Internal("not run");
  Result<std::vector<uint8_t>> b_bytes = Status::Internal("not run");
  EXPECT_TRUE(OtherSideFinishesWhileBlocked(
      &env, [&] { a_frame = a->ReadPage(1, IoCategory::kData); }, b.get(),
      {0, 1, 2, 0}, &b_bytes))
      << "b's hits and misses waited for a's page read";

  ASSERT_TRUE(a_frame.ok()) << a_frame.status().ToString();
  EXPECT_EQ((*a_frame)[0], 2u);
  ASSERT_TRUE(b_bytes.ok()) << b_bytes.status().ToString();
  EXPECT_EQ(*b_bytes, (std::vector<uint8_t>{1, 2, 3, 1}));
  EXPECT_EQ(counters_.TotalReads(), 1u);
  EXPECT_EQ(bcount.TotalReads(), 2u);
  const BufferPool::Stats s = pool.GetStats();
  EXPECT_EQ(s.hits - base.hits, 2u);
  EXPECT_EQ(s.misses - base.misses, 3u);
  EXPECT_EQ(s.evictions, base.evictions);
}

TEST_F(BufferPoolTest, JournalSyncOfOneFlushDoesNotStallAnother) {
  BufferPool::Options po;
  po.total_frames = 4;
  po.per_file_frames = 0;
  BufferPool pool(po);
  LatchEnv env;
  ASSERT_TRUE(env.CreateDirIfMissing("/db").ok());
  auto journal = Journal::Open(&env, "/db", DurabilityMode::kJournalSync);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  IoCounters bcount;
  auto a = Open("db/a", &pool, &counters_, &env, journal->get());
  auto b = Open("db/b", &pool, &bcount, &env);
  Seed(a.get(), 2);
  Seed(b.get(), 3);
  ASSERT_TRUE(a->FlushAndDrop().ok());
  ASSERT_TRUE(b->FlushAndDrop().ok());

  ASSERT_TRUE((*journal)->Begin().ok());
  for (uint32_t pno : {0u, 1u}) {
    auto frame = a->ReadPage(pno, IoCategory::kData);
    ASSERT_TRUE(frame.ok());
    (*frame)[kPayloadByte] = static_cast<uint8_t>(0xA0 + pno);
    a->MarkDirty();
  }
  ASSERT_TRUE(b->ReadPage(0, IoCategory::kData).ok());
  counters_.Reset();
  bcount.Reset();
  const BufferPool::Stats base = pool.GetStats();

  // a's two dirty frames stay put while its flush waits on the journal;
  // b's third page evicts b's own unpinned page 0 instead.
  env.Arm(Journal::PathFor("/db"), /*on_sync=*/true);
  Status a_flush = Status::Internal("not run");
  Result<std::vector<uint8_t>> b_bytes = Status::Internal("not run");
  EXPECT_TRUE(OtherSideFinishesWhileBlocked(
      &env, [&] { a_flush = a->Flush(); }, b.get(), {0, 1, 2, 0}, &b_bytes))
      << "b's hits and misses waited for a's journal sync";

  ASSERT_TRUE(a_flush.ok()) << a_flush.ToString();
  ASSERT_TRUE(b_bytes.ok()) << b_bytes.status().ToString();
  EXPECT_EQ(*b_bytes, (std::vector<uint8_t>{1, 2, 3, 1}));
  EXPECT_EQ(counters_.TotalWrites(), 2u);
  EXPECT_EQ(bcount.TotalReads(), 3u);
  BufferPool::Stats s = pool.GetStats();
  EXPECT_EQ(s.write_backs - base.write_backs, 2u);
  EXPECT_EQ(s.evictions - base.evictions, 2u);
  EXPECT_EQ(s.foreign_evictions, base.foreign_evictions);

  // The flush reached the file.
  ASSERT_TRUE(a->FlushAndDrop().ok());
  for (uint32_t pno : {0u, 1u}) {
    auto frame = a->ReadPage(pno, IoCategory::kData);
    ASSERT_TRUE(frame.ok());
    EXPECT_EQ((*frame)[kPayloadByte], 0xA0 + pno);
  }
  ASSERT_TRUE((*journal)->CommitGroup().ok());
}

// ---------------------------------------------------------------------------
// Victim order: a seeded script over three pagers in uncapped mode against
// a reference model of the minimum-last-use rule.
// ---------------------------------------------------------------------------

/// The replacement rule spelled out as a scan for the least recently used
/// evictable frame: never a foreign pinned or foreign dirty frame, and not
/// the requester's own pinned frame (uncapped mode); when nothing is
/// evictable, allocate past capacity.
class PoolModel {
 public:
  PoolModel(size_t total, size_t free_frames, int pagers)
      : total_(total), frames_(free_frames), pinned_(pagers, kNone),
        reads_(pagers, 0), writes_(pagers, 0) {
    for (size_t i = 0; i < free_frames; ++i) free_.push_back(i);
  }

  void Read(int p, uint32_t pno) {
    size_t f = Find(p, pno);
    if (f != kNone) {
      ++stats_.hits;
      frames_[f].last_use = ++tick_;
      pinned_[p] = f;
      return;
    }
    ++stats_.misses;
    ++reads_[p];
    f = Victim(p);
    frames_[f] = {p, pno, false, ++tick_};
    pinned_[p] = f;
  }

  void MarkDirty(int p) {
    if (pinned_[p] != kNone) frames_[pinned_[p]].dirty = true;
  }

  void Flush(int p) {
    for (Frame& f : frames_) {
      if (f.owner == p && f.dirty) {
        f.dirty = false;
        ++writes_[p];
        ++stats_.write_backs;
      }
    }
  }

  void FlushAndDrop(int p) {
    Flush(p);
    for (size_t i = 0; i < frames_.size(); ++i) {
      if (frames_[i].owner == p) {
        Detach(i);
        free_.push_back(i);
      }
    }
  }

  std::vector<uint32_t> Resident(int p) const {
    std::vector<uint32_t> pnos;
    for (const Frame& f : frames_) {
      if (f.owner == p) pnos.push_back(f.pno);
    }
    std::sort(pnos.begin(), pnos.end());
    return pnos;
  }

  BufferPool::Stats stats() const {
    BufferPool::Stats s = stats_;
    s.frames = frames_.size();
    for (const Frame& f : frames_) s.resident += f.owner >= 0 ? 1 : 0;
    return s;
  }
  uint64_t reads(int p) const { return reads_[p]; }
  uint64_t writes(int p) const { return writes_[p]; }

 private:
  static constexpr size_t kNone = SIZE_MAX;
  struct Frame {
    int owner = -1;
    uint32_t pno = kNoPage;
    bool dirty = false;
    uint64_t last_use = 0;
  };

  size_t Find(int p, uint32_t pno) const {
    for (size_t i = 0; i < frames_.size(); ++i) {
      if (frames_[i].owner == p && frames_[i].pno == pno) return i;
    }
    return kNone;
  }

  void Detach(size_t i) {
    if (pinned_[frames_[i].owner] == i) pinned_[frames_[i].owner] = kNone;
    frames_[i] = Frame{};
  }

  size_t Victim(int p) {
    if (!free_.empty()) {
      const size_t f = free_.back();
      free_.pop_back();
      return f;
    }
    if (frames_.size() < total_) {
      frames_.emplace_back();
      return frames_.size() - 1;
    }
    size_t best = kNone;
    for (size_t i = 0; i < frames_.size(); ++i) {
      const Frame& f = frames_[i];
      const bool pinned = pinned_[f.owner] == i;
      if (f.owner != p && (f.dirty || pinned)) continue;
      if (f.owner == p && pinned) continue;
      if (best == kNone || f.last_use < frames_[best].last_use) best = i;
    }
    if (best == kNone) {
      ++stats_.overflow_frames;
      frames_.emplace_back();
      return frames_.size() - 1;
    }
    const Frame& v = frames_[best];
    ++stats_.evictions;
    if (v.owner != p) ++stats_.foreign_evictions;
    if (v.dirty) {
      ++stats_.write_backs;
      ++writes_[v.owner];
    }
    Detach(best);
    return best;
  }

  size_t total_;
  std::vector<Frame> frames_;
  std::vector<size_t> free_;
  std::vector<size_t> pinned_;
  std::vector<uint64_t> reads_;
  std::vector<uint64_t> writes_;
  uint64_t tick_ = 0;
  BufferPool::Stats stats_;
};

TEST_F(BufferPoolTest, VictimOrderMatchesTheLeastRecentlyUsedRule) {
  BufferPool::Options po;
  po.total_frames = 6;
  po.per_file_frames = 0;
  BufferPool pool(po);
  const std::vector<int> sizes = {5, 7, 9};
  std::vector<IoCounters> counters(sizes.size());
  std::vector<std::unique_ptr<Pager>> pagers;
  for (size_t i = 0; i < sizes.size(); ++i) {
    pagers.push_back(Open(std::string(1, 'a' + i), &pool, &counters[i]));
    Seed(pagers.back().get(), sizes[i]);
    ASSERT_TRUE(pagers.back()->FlushAndDrop().ok());
    counters[i].Reset();
  }
  const BufferPool::Stats base = pool.GetStats();
  ASSERT_EQ(base.resident, 0u);
  PoolModel model(po.total_frames, base.frames, static_cast<int>(sizes.size()));

  // Each page's payload byte as last written, and each pager's last frame.
  std::vector<std::vector<uint8_t>> payload;
  for (int n : sizes) payload.emplace_back(n, 0);
  std::vector<uint8_t*> frame(sizes.size(), nullptr);
  std::vector<uint32_t> frame_pno(sizes.size(), kNoPage);

  std::mt19937 rng(20240611);
  for (int step = 0; step < 2000; ++step) {
    const int p = static_cast<int>(rng() % sizes.size());
    const uint32_t op = rng() % 20;
    Pager* pager = pagers[p].get();
    if (op < 12) {
      const uint32_t pno = rng() % sizes[p];
      auto f = pager->ReadPage(pno, IoCategory::kData);
      ASSERT_TRUE(f.ok()) << f.status().ToString();
      ASSERT_EQ((*f)[0], pno + 1) << "step " << step;
      ASSERT_EQ((*f)[kPayloadByte], payload[p][pno]) << "step " << step;
      model.Read(p, pno);
      frame[p] = *f;
      frame_pno[p] = pno;
    } else if (op < 16) {
      if (frame[p] != nullptr) {
        const uint8_t v = static_cast<uint8_t>(step);
        frame[p][kPayloadByte] = v;
        payload[p][frame_pno[p]] = v;
      }
      pager->MarkDirty();
      model.MarkDirty(p);
    } else if (op < 19) {
      ASSERT_TRUE(pager->Flush().ok());
      model.Flush(p);
    } else {
      ASSERT_TRUE(pager->FlushAndDrop().ok());
      model.FlushAndDrop(p);
      frame[p] = nullptr;
    }
    for (size_t i = 0; i < pagers.size(); ++i) {
      ASSERT_EQ(pagers[i]->ResidentPages(), model.Resident(static_cast<int>(i)))
          << "step " << step << ", pager " << i;
    }
  }

  const BufferPool::Stats s = pool.GetStats();
  const BufferPool::Stats m = model.stats();
  EXPECT_EQ(s.hits - base.hits, m.hits);
  EXPECT_EQ(s.misses - base.misses, m.misses);
  EXPECT_EQ(s.evictions - base.evictions, m.evictions);
  EXPECT_EQ(s.foreign_evictions - base.foreign_evictions, m.foreign_evictions);
  EXPECT_EQ(s.write_backs - base.write_backs, m.write_backs);
  EXPECT_EQ(s.overflow_frames - base.overflow_frames, m.overflow_frames);
  EXPECT_EQ(s.frames, m.frames);
  EXPECT_EQ(s.resident, m.resident);
  // The script must reach every rule.
  EXPECT_GT(m.foreign_evictions, 0u);
  EXPECT_GT(m.evictions, m.foreign_evictions);
  EXPECT_GT(m.overflow_frames, 0u);
  for (size_t i = 0; i < pagers.size(); ++i) {
    EXPECT_EQ(counters[i].TotalReads(), model.reads(static_cast<int>(i)));
    EXPECT_EQ(counters[i].TotalWrites(), model.writes(static_cast<int>(i)));
  }
}

// ---------------------------------------------------------------------------
// Concurrent readers: threads in ReaderScopes share pagers in a pool
// smaller than their pages.
// ---------------------------------------------------------------------------

/// The 32-bit word every payload slot of page `pno` of pager `p` carries.
uint32_t Stamp(int p, uint32_t pno) {
  return static_cast<uint32_t>(p) << 16 | pno;
}

/// Allocates `n` pages of `pager` (number `p`), fills each page's payload
/// with its stamp, and flushes and drops them.
void SeedStamped(Pager* pager, int p, uint32_t n) {
  for (uint32_t i = 0; i < n; ++i) {
    auto pno = pager->AllocatePage(IoCategory::kData);
    ASSERT_TRUE(pno.ok());
    auto frame = pager->ReadPage(*pno, IoCategory::kData);
    ASSERT_TRUE(frame.ok());
    const uint32_t stamp = Stamp(p, *pno);
    for (size_t off = 8; off + 4 <= pager->page_size(); off += 4) {
      std::memcpy(*frame + off, &stamp, 4);
    }
    pager->MarkDirty();
  }
  ASSERT_TRUE(pager->FlushAndDrop().ok());
}

/// Whether every payload word of `frame` is page `pno`'s stamp.
bool CarriesStamp(const uint8_t* frame, uint32_t page_size, int p,
                  uint32_t pno) {
  const uint32_t stamp = Stamp(p, pno);
  for (size_t off = 8; off + 4 <= page_size; off += 4) {
    uint32_t word;
    std::memcpy(&word, frame + off, 4);
    if (word != stamp) return false;
  }
  return true;
}

TEST_F(BufferPoolTest, ConcurrentReadersKeepTheirPinnedPages) {
  constexpr int kPagers = 3;
  constexpr uint32_t kPages = 12;  // 36 pages over 16 frames
  constexpr int kThreads = 8;
  constexpr int kScopes = 40;
  constexpr int kRequestsPerScope = 50;
  BufferPool::Options po;
  po.total_frames = 16;
  po.per_file_frames = 0;
  BufferPool pool(po);
  std::vector<IoCounters> counters(kPagers);
  std::vector<std::unique_ptr<Pager>> pagers;
  for (int p = 0; p < kPagers; ++p) {
    pagers.push_back(Open(std::string(1, 'a' + p), &pool, &counters[p]));
    SeedStamped(pagers.back().get(), p, kPages);
  }
  const BufferPool::Stats base = pool.GetStats();

  std::vector<std::string> failures(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937 rng(1000 + t);
      auto fail = [&](const std::string& what) {
        if (failures[t].empty()) failures[t] = what;
      };
      for (int scope = 0; scope < kScopes && failures[t].empty(); ++scope) {
        BufferPool::ReaderScope reader;
        // This reader's pin on each pager: page, frame, generation.
        struct Held {
          uint32_t pno = kNoPage;
          const uint8_t* frame = nullptr;
          uint64_t generation = 0;
        };
        std::vector<Held> held(kPagers);
        for (int k = 0; k < kRequestsPerScope; ++k) {
          // Every page still pinned by this reader is intact.
          for (int p = 0; p < kPagers; ++p) {
            const Held& h = held[p];
            if (h.frame == nullptr) continue;
            if (pagers[p]->frame_generation()->load() != h.generation) {
              fail(StrPrintf("pager %d page %u: generation moved while pinned",
                             p, h.pno));
            }
            if (!CarriesStamp(h.frame, po.page_size, p, h.pno)) {
              fail(StrPrintf("pager %d page %u: pinned bytes changed", p,
                             h.pno));
            }
          }
          const int p = static_cast<int>(rng() % kPagers);
          const uint32_t pno = rng() % kPages;
          auto frame = pagers[p]->ReadPage(pno, IoCategory::kData);
          if (!frame.ok()) {
            fail(frame.status().ToString());
            break;
          }
          if (!CarriesStamp(*frame, po.page_size, p, pno)) {
            fail(StrPrintf("pager %d page %u: read another page", p, pno));
          }
          held[p] = Held{pno, *frame, pagers[p]->frame_generation()->load()};
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(failures[t].empty()) << "thread " << t << ": " << failures[t];
  }

  const BufferPool::Stats s = pool.GetStats();
  const uint64_t requests =
      uint64_t{kThreads} * kScopes * kRequestsPerScope;
  EXPECT_EQ(s.hits - base.hits + s.misses - base.misses, requests);
  // Every miss is one counted read, on its own pager's counters.
  uint64_t reads = 0;
  for (const IoCounters& c : counters) reads += c.TotalReads();
  EXPECT_EQ(reads, s.misses - base.misses);
  EXPECT_GT(s.evictions, base.evictions);  // the pool really was too small
}

TEST_F(BufferPoolTest, ConcurrentOwnersKeepTheirPinsAcrossForeignEvictions) {
  // Uncapped: each owner's hits pin through its pager's slot without the
  // mutex while the other owners' misses evict foreign frames.
  constexpr int kPagers = 4;
  constexpr uint32_t kPages = 12;  // 48 pages over 16 frames
  constexpr int kRequests = 2000;
  BufferPool::Options po;
  po.total_frames = 16;
  po.per_file_frames = 0;
  BufferPool pool(po);
  std::vector<IoCounters> counters(kPagers);
  std::vector<std::unique_ptr<Pager>> pagers;
  for (int p = 0; p < kPagers; ++p) {
    pagers.push_back(Open(std::string(1, 'a' + p), &pool, &counters[p]));
    SeedStamped(pagers.back().get(), p, kPages);
  }
  const BufferPool::Stats base = pool.GetStats();

  std::vector<std::string> failures(kPagers);
  std::vector<std::thread> threads;
  for (int p = 0; p < kPagers; ++p) {
    threads.emplace_back([&, p] {
      std::mt19937 rng(3000 + p);
      for (int k = 0; k < kRequests && failures[p].empty(); ++k) {
        const uint32_t pno = rng() % kPages;
        auto frame = pagers[p]->ReadPage(pno, IoCategory::kData);
        if (!frame.ok()) {
          failures[p] = frame.status().ToString();
          break;
        }
        const uint64_t generation = pagers[p]->frame_generation()->load();
        std::this_thread::yield();  // let the other owners evict
        if (!CarriesStamp(*frame, po.page_size, p, pno) ||
            pagers[p]->frame_generation()->load() != generation) {
          failures[p] = StrPrintf("page %u changed while pinned", pno);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int p = 0; p < kPagers; ++p) {
    EXPECT_TRUE(failures[p].empty()) << "pager " << p << ": " << failures[p];
  }
  const BufferPool::Stats s = pool.GetStats();
  EXPECT_EQ(s.hits - base.hits + s.misses - base.misses,
            uint64_t{kPagers} * kRequests);
  EXPECT_GT(s.foreign_evictions, base.foreign_evictions);
}

TEST_F(BufferPoolTest, ConcurrentOwnersAtCapOneReplaceTheirOwnFrame) {
  // At per_file_frames == 1 each pager has one reader, its owner; owners
  // of different pagers run concurrently and each request replaces the
  // owner's single frame.
  constexpr int kPagers = 4;
  constexpr uint32_t kPages = 6;
  constexpr int kRequests = 400;
  BufferPool::Options po;
  po.total_frames = 8;
  po.per_file_frames = 1;
  BufferPool pool(po);
  std::vector<IoCounters> counters(kPagers);
  std::vector<std::unique_ptr<Pager>> pagers;
  for (int p = 0; p < kPagers; ++p) {
    pagers.push_back(Open(std::string(1, 'a' + p), &pool, &counters[p]));
    SeedStamped(pagers.back().get(), p, kPages);
  }
  const BufferPool::Stats base = pool.GetStats();

  std::vector<std::string> failures(kPagers);
  std::vector<uint64_t> switches(kPagers, 0);
  std::vector<std::thread> threads;
  for (int p = 0; p < kPagers; ++p) {
    threads.emplace_back([&, p] {
      std::mt19937 rng(2000 + p);
      uint32_t last = kNoPage;
      for (int k = 0; k < kRequests && failures[p].empty(); ++k) {
        const uint32_t pno = rng() % kPages;
        auto frame = pagers[p]->ReadPage(pno, IoCategory::kData);
        if (!frame.ok()) {
          failures[p] = frame.status().ToString();
          break;
        }
        if (!CarriesStamp(*frame, po.page_size, p, pno)) {
          failures[p] = StrPrintf("page %u: read another page", pno);
        }
        if (pagers[p]->ResidentPages() != std::vector<uint32_t>{pno}) {
          failures[p] = StrPrintf("page %u: more than the one frame", pno);
        }
        if (pno != last) ++switches[p];
        last = pno;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  uint64_t misses = 0;
  for (int p = 0; p < kPagers; ++p) {
    EXPECT_TRUE(failures[p].empty()) << "pager " << p << ": " << failures[p];
    // The paper's rule: every page switch is a miss and a counted read.
    EXPECT_EQ(counters[p].TotalReads(), switches[p]) << "pager " << p;
    misses += switches[p];
  }
  const BufferPool::Stats s = pool.GetStats();
  EXPECT_EQ(s.misses - base.misses, misses);
  EXPECT_EQ(s.hits - base.hits + s.misses - base.misses,
            uint64_t{kPagers} * kRequests);
  EXPECT_EQ(s.overflow_frames, base.overflow_frames);
  EXPECT_LE(s.resident, static_cast<size_t>(kPagers));
}

// ---------------------------------------------------------------------------
// Differential battery: pool at cap 1 vs the paper's private single frame,
// all eight paper databases, 1/2/4 exec threads.
// ---------------------------------------------------------------------------

struct QueryObservation {
  std::string text;
  uint64_t input_pages = 0;
  uint64_t output_pages = 0;
  uint64_t rows = 0;
  std::string rendering;
};

std::vector<QueryObservation> ObserveAll(bench::BenchmarkDb* bench) {
  std::vector<QueryObservation> out;
  for (int qnum = 1; qnum <= 12; ++qnum) {
    std::string text = bench->QueryText(qnum);
    if (text.empty()) continue;
    QueryObservation obs;
    obs.text = text;
    auto m = bench->RunQuery(qnum);
    EXPECT_TRUE(m.ok()) << text << " -> " << m.status().ToString();
    if (!m.ok()) continue;
    obs.input_pages = m->input_pages;
    obs.output_pages = m->output_pages;
    obs.rows = m->rows;
    auto r = bench->db()->Execute(text);
    EXPECT_TRUE(r.ok()) << text << " -> " << r.status().ToString();
    if (r.ok()) {
      obs.rendering = r->result.ToString(TimeResolution::kSecond);
    }
    out.push_back(std::move(obs));
  }
  return out;
}

TEST(BufferPoolDifferentialTest, PoolAtCapOneMatchesPaperMode) {
  const DbType kTypes[] = {DbType::kStatic, DbType::kRollback,
                           DbType::kHistorical, DbType::kTemporal};
  for (DbType type : kTypes) {
    for (int fillfactor : {100, 50}) {
      for (int threads : {1, 2, 4}) {
        SCOPED_TRACE(testing::Message()
                     << DbTypeName(type) << " ff=" << fillfactor
                     << " threads=" << threads);
        bench::WorkloadConfig config;
        config.type = type;
        config.fillfactor = fillfactor;
        config.ntuples = 192;  // small paper database; all plans intact
        config.exec_threads = threads;

        auto paper = bench::BenchmarkDb::Create(config);
        ASSERT_TRUE(paper.ok()) << paper.status().ToString();

        bench::WorkloadConfig pooled_config = config;
        pooled_config.pool_frames = 64;
        pooled_config.pool_file_cap = 0;  // resolves to 1: paper parity
        auto pooled = bench::BenchmarkDb::Create(pooled_config);
        ASSERT_TRUE(pooled.ok()) << pooled.status().ToString();

        ASSERT_TRUE((*paper)->UniformUpdateRound().ok());
        ASSERT_TRUE((*pooled)->UniformUpdateRound().ok());

        auto base = ObserveAll(paper->get());
        auto alt = ObserveAll(pooled->get());
        ASSERT_EQ(base.size(), alt.size());
        ASSERT_FALSE(base.empty());
        for (size_t i = 0; i < base.size(); ++i) {
          SCOPED_TRACE(base[i].text);
          EXPECT_EQ(base[i].input_pages, alt[i].input_pages);
          EXPECT_EQ(base[i].output_pages, alt[i].output_pages);
          EXPECT_EQ(base[i].rows, alt[i].rows);
          EXPECT_EQ(base[i].rendering, alt[i].rendering);
        }
      }
    }
  }
}

// An uncapped warm pool must still return byte-identical rows — only the
// I/O counts change (fewer reads, never more).
TEST(BufferPoolDifferentialTest, UncappedPoolChangesIoButNotRows) {
  bench::WorkloadConfig config;
  config.type = DbType::kTemporal;
  config.ntuples = 192;
  auto paper = bench::BenchmarkDb::Create(config);
  ASSERT_TRUE(paper.ok());

  bench::WorkloadConfig pooled_config = config;
  pooled_config.pool_frames = 256;
  pooled_config.pool_file_cap = -1;  // uncapped
  auto pooled = bench::BenchmarkDb::Create(pooled_config);
  ASSERT_TRUE(pooled.ok());

  auto base = ObserveAll(paper->get());
  auto alt = ObserveAll(pooled->get());
  ASSERT_EQ(base.size(), alt.size());
  for (size_t i = 0; i < base.size(); ++i) {
    SCOPED_TRACE(base[i].text);
    EXPECT_EQ(base[i].rows, alt[i].rows);
    EXPECT_EQ(base[i].rendering, alt[i].rendering);
    EXPECT_LE(alt[i].input_pages, base[i].input_pages);
  }
}

}  // namespace
}  // namespace tdb
