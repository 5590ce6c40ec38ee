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

#include <memory>
#include <string>
#include <vector>

#include "benchlib/workload.h"
#include "env/env.h"
#include "storage/pager.h"
#include "storage/storage_file.h"
#include "util/stringx.h"

namespace tdb {
namespace {

class BufferPoolTest : public ::testing::Test {
 protected:
  std::unique_ptr<Pager> Open(const std::string& name, BufferPool* pool,
                              IoCounters* counters) {
    StorageOptions sopts;
    sopts.pool = pool;
    auto pager = Pager::Open(&env_, "/" + name, counters, /*frames=*/1,
                             /*journal=*/nullptr, sopts);
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
