// Tests of the single-frame pager: the paper's "1 buffer per relation"
// accounting discipline.  Every test here runs the PRIVATE-frame mode (no
// shared pool), so the per-file counter assertions are exact statements
// about one file's single frame; the pool-mode equivalents — including the
// proof that a pool capped at 1 frame/file reproduces these counters bit
// for bit, and the stale-frame-pointer generation regression — live in
// buffer_pool_test.cc.  The production page-size and checksum levers are
// per-file StorageOptions, so their contracts are pinned here.

#include "storage/pager.h"
#include "storage/storage_file.h"

#include <gtest/gtest.h>

#include <future>
#include <thread>

#include "env/env.h"

namespace tdb {
namespace {

class PagerTest : public ::testing::Test {
 protected:
  std::unique_ptr<Pager> Open(const std::string& name) {
    auto pager = Pager::Open(&env_, "/" + name, &counters_);
    EXPECT_TRUE(pager.ok());
    return std::move(pager).value();
  }

  MemEnv env_;
  IoCounters counters_;
};

TEST_F(PagerTest, StartsEmpty) {
  auto pager = Open("a");
  EXPECT_EQ(pager->page_count(), 0u);
  EXPECT_FALSE(pager->ReadPage(0, IoCategory::kData).ok());
}

TEST_F(PagerTest, AllocateExtendsAndLoadsFrame) {
  auto pager = Open("a");
  auto p0 = pager->AllocatePage(IoCategory::kData);
  ASSERT_TRUE(p0.ok());
  EXPECT_EQ(*p0, 0u);
  EXPECT_EQ(pager->page_count(), 1u);
  auto p1 = pager->AllocatePage(IoCategory::kData);
  EXPECT_EQ(*p1, 1u);
  EXPECT_EQ(pager->page_count(), 2u);
}

TEST_F(PagerTest, ReadOfResidentPageIsFree) {
  auto pager = Open("a");
  (void)pager->AllocatePage(IoCategory::kData);
  (void)pager->AllocatePage(IoCategory::kData);
  ASSERT_TRUE(pager->Flush().ok());
  counters_.Reset();

  ASSERT_TRUE(pager->ReadPage(0, IoCategory::kData).ok());
  EXPECT_EQ(counters_.TotalReads(), 1u);
  // Re-reading the resident page costs nothing.
  ASSERT_TRUE(pager->ReadPage(0, IoCategory::kData).ok());
  ASSERT_TRUE(pager->ReadPage(0, IoCategory::kData).ok());
  EXPECT_EQ(counters_.TotalReads(), 1u);
  // Another page evicts and costs one more read.
  ASSERT_TRUE(pager->ReadPage(1, IoCategory::kData).ok());
  EXPECT_EQ(counters_.TotalReads(), 2u);
  // Ping-pong: every switch is a miss (exactly the paper's discipline).
  ASSERT_TRUE(pager->ReadPage(0, IoCategory::kData).ok());
  ASSERT_TRUE(pager->ReadPage(1, IoCategory::kData).ok());
  EXPECT_EQ(counters_.TotalReads(), 4u);
}

TEST_F(PagerTest, DirtyFrameWriteCountedOnEviction) {
  auto pager = Open("a");
  (void)pager->AllocatePage(IoCategory::kData);
  (void)pager->AllocatePage(IoCategory::kData);
  ASSERT_TRUE(pager->Flush().ok());
  counters_.Reset();

  ASSERT_TRUE(pager->ReadPage(0, IoCategory::kData).ok());
  pager->MarkDirty();
  EXPECT_EQ(counters_.TotalWrites(), 0u);  // buffered
  ASSERT_TRUE(pager->ReadPage(1, IoCategory::kData).ok());  // evicts
  EXPECT_EQ(counters_.TotalWrites(), 1u);
}

TEST_F(PagerTest, FlushIsIdempotent) {
  auto pager = Open("a");
  (void)pager->AllocatePage(IoCategory::kData);
  pager->MarkDirty();
  ASSERT_TRUE(pager->Flush().ok());
  uint64_t writes = counters_.TotalWrites();
  ASSERT_TRUE(pager->Flush().ok());
  EXPECT_EQ(counters_.TotalWrites(), writes);
}

TEST_F(PagerTest, WritesPersistAcrossReopen) {
  {
    auto pager = Open("a");
    auto frame = pager->ReadPage(*pager->AllocatePage(IoCategory::kData),
                                 IoCategory::kData);
    (*frame)[100] = 0xAB;
    pager->MarkDirty();
    ASSERT_TRUE(pager->Flush().ok());
  }
  auto pager = Open("a");
  EXPECT_EQ(pager->page_count(), 1u);
  auto frame = pager->ReadPage(0, IoCategory::kData);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ((*frame)[100], 0xAB);
}

TEST_F(PagerTest, CategoriesAreTracked) {
  auto pager = Open("a");
  (void)pager->AllocatePage(IoCategory::kData);
  (void)pager->AllocatePage(IoCategory::kDirectory);
  ASSERT_TRUE(pager->Flush().ok());
  counters_.Reset();
  ASSERT_TRUE(pager->ReadPage(0, IoCategory::kData).ok());
  ASSERT_TRUE(pager->ReadPage(1, IoCategory::kDirectory).ok());
  EXPECT_EQ(counters_.reads[static_cast<int>(IoCategory::kData)], 1u);
  EXPECT_EQ(counters_.reads[static_cast<int>(IoCategory::kDirectory)], 1u);
  EXPECT_EQ(counters_.reads[static_cast<int>(IoCategory::kTemp)], 0u);
}

TEST_F(PagerTest, FlushAndDropMakesNextReadCount) {
  auto pager = Open("a");
  (void)pager->AllocatePage(IoCategory::kData);
  ASSERT_TRUE(pager->FlushAndDrop().ok());  // start with an empty frame
  counters_.Reset();
  ASSERT_TRUE(pager->ReadPage(0, IoCategory::kData).ok());
  ASSERT_TRUE(pager->FlushAndDrop().ok());
  ASSERT_TRUE(pager->ReadPage(0, IoCategory::kData).ok());
  EXPECT_EQ(counters_.TotalReads(), 2u);
}

TEST_F(PagerTest, NullCountersAllowed) {
  auto pager = Pager::Open(&env_, "/n", nullptr);
  ASSERT_TRUE(pager.ok());
  ASSERT_TRUE((*pager)->AllocatePage(IoCategory::kData).ok());
  EXPECT_TRUE((*pager)->Flush().ok());
}

TEST_F(PagerTest, RejectsUnalignedFile) {
  ASSERT_TRUE(env_.WriteStringToFile("/bad", "not a page").ok());
  EXPECT_FALSE(Pager::Open(&env_, "/bad", &counters_).ok());
}

TEST_F(PagerTest, ResetTruncates) {
  auto pager = Open("a");
  (void)pager->AllocatePage(IoCategory::kData);
  (void)pager->AllocatePage(IoCategory::kData);
  ASSERT_TRUE(pager->Reset().ok());
  EXPECT_EQ(pager->page_count(), 0u);
}

TEST_F(PagerTest, ConfigurablePageSizeRoundTrips) {
  StorageOptions sopts;
  sopts.page_size = 4096;
  {
    auto pager = Pager::Open(&env_, "/big", &counters_, 1, nullptr, sopts);
    ASSERT_TRUE(pager.ok());
    EXPECT_EQ((*pager)->page_size(), 4096u);
    EXPECT_EQ((*pager)->usable_size(), 4096u);  // no checksum trailer
    auto pno = (*pager)->AllocatePage(IoCategory::kData);
    ASSERT_TRUE(pno.ok());
    auto frame = (*pager)->ReadPage(*pno, IoCategory::kData);
    ASSERT_TRUE(frame.ok());
    (*frame)[4000] = 0x5A;  // past the 1024-byte boundary
    (*pager)->MarkDirty();
    ASSERT_TRUE((*pager)->Flush().ok());
  }
  auto image = env_.ReadFileToString("/big");
  ASSERT_TRUE(image.ok());
  EXPECT_EQ(image->size(), 4096u);
  auto pager = Pager::Open(&env_, "/big", &counters_, 1, nullptr, sopts);
  ASSERT_TRUE(pager.ok());
  EXPECT_EQ((*pager)->page_count(), 1u);
  auto frame = (*pager)->ReadPage(0, IoCategory::kData);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ((*frame)[4000], 0x5A);
}

TEST_F(PagerTest, PageSizeMisalignedFileRejected) {
  // A paper-sized (1024-byte) file is not a whole number of 4096-byte
  // pages; opening it at the wrong page size must fail, not shear pages.
  {
    auto pager = Open("a");
    (void)pager->AllocatePage(IoCategory::kData);
    ASSERT_TRUE(pager->Flush().ok());
  }
  StorageOptions sopts;
  sopts.page_size = 4096;
  EXPECT_FALSE(Pager::Open(&env_, "/a", &counters_, 1, nullptr, sopts).ok());
}

TEST_F(PagerTest, ChecksumDetectsCorruption) {
  StorageOptions sopts;
  sopts.checksum = true;
  {
    auto pager = Pager::Open(&env_, "/ck", &counters_, 1, nullptr, sopts);
    ASSERT_TRUE(pager.ok());
    // The CRC trailer costs 4 bytes of record space.
    EXPECT_EQ((*pager)->usable_size(), (*pager)->page_size() - 4);
    auto pno = (*pager)->AllocatePage(IoCategory::kData);
    auto frame = (*pager)->ReadPage(*pno, IoCategory::kData);
    ASSERT_TRUE(frame.ok());
    (*frame)[10] = 0x77;
    (*pager)->MarkDirty();
    ASSERT_TRUE((*pager)->Flush().ok());
  }
  // Intact image verifies on load.
  {
    auto pager = Pager::Open(&env_, "/ck", &counters_, 1, nullptr, sopts);
    ASSERT_TRUE(pager.ok());
    auto frame = (*pager)->ReadPage(0, IoCategory::kData);
    ASSERT_TRUE(frame.ok());
    EXPECT_EQ((*frame)[10], 0x77);
  }
  // Flip one byte on disk: the next verified load must fail loudly.
  auto image = env_.ReadFileToString("/ck");
  ASSERT_TRUE(image.ok());
  std::string corrupt = *image;
  corrupt[10] ^= 0xFF;
  ASSERT_TRUE(env_.WriteStringToFile("/ck", corrupt).ok());
  auto pager = Pager::Open(&env_, "/ck", &counters_, 1, nullptr, sopts);
  ASSERT_TRUE(pager.ok());  // Open does not read data pages
  EXPECT_FALSE((*pager)->ReadPage(0, IoCategory::kData).ok());
}

TEST_F(PagerTest, GenerationTracksFrameContentChanges) {
  auto pager = Open("a");
  (void)pager->AllocatePage(IoCategory::kData);
  (void)pager->AllocatePage(IoCategory::kData);
  ASSERT_TRUE(pager->Flush().ok());

  ASSERT_TRUE(pager->ReadPage(0, IoCategory::kData).ok());
  RecordBatch batch;  // slices of page 0 would alias the single frame
  batch.SetSource(pager.get());
  // A buffer hit leaves every outstanding frame pointer valid.
  ASSERT_TRUE(pager->ReadPage(0, IoCategory::kData).ok());
  EXPECT_TRUE(batch.fresh());
  // A miss recycles the single frame: pointers from before are stale.
  ASSERT_TRUE(pager->ReadPage(1, IoCategory::kData).ok());
  EXPECT_FALSE(batch.fresh());
  // Dropping frames invalidates too, even with no subsequent read.
  batch.SetSource(pager.get());
  ASSERT_TRUE(batch.fresh());
  ASSERT_TRUE(pager->FlushAndDrop().ok());
  EXPECT_FALSE(batch.fresh());
}

TEST(IoRegistryTest, ForFileAndTotals) {
  IoRegistry registry;
  IoCounters* a = registry.ForFile("a");
  IoCounters* b = registry.ForFile("b");
  EXPECT_NE(a, b);
  EXPECT_EQ(registry.ForFile("a"), a);  // stable
  a->reads[0] = 3;
  b->reads[1] = 4;
  b->writes[4] = 2;
  IoCounters total = registry.Total();
  EXPECT_EQ(total.TotalReads(), 7u);
  EXPECT_EQ(total.TotalWrites(), 2u);
  registry.ResetAll();
  EXPECT_EQ(registry.Total().TotalReads(), 0u);
}

// A session runs one statement at a time, but not always on one thread:
// the epoll server hands a connection to whichever worker is free.
TEST(IoRegistryTest, SuccessiveStatementsMayRunOnDifferentThreads) {
  IoRegistry registry;
  for (int i = 0; i < 3; ++i) {
    std::thread worker([&registry] {
      IoRegistry::StatementScope scope(&registry);
      registry.ForFile("r")->reads[0] += 1;
    });
    worker.join();
  }
  registry.ResetAll();
  EXPECT_EQ(registry.by_file().size(), 1u);
}

#ifndef NDEBUG
// Two threads inside one session at once — say, two benchmark cells
// sharing one Database — trip the debug check.
TEST(IoRegistryDeathTest, SecondThreadInsideAStatementAsserts) {
  IoRegistry registry;
  EXPECT_DEATH(
      {
        std::promise<void> inside;
        std::promise<void> release;
        std::thread first([&] {
          IoRegistry::StatementScope scope(&registry);
          inside.set_value();
          release.get_future().wait();
        });
        inside.get_future().wait();
        IoRegistry::StatementScope second(&registry);
        release.set_value();
        first.join();
      },
      "two threads inside one session");
}
#endif

}  // namespace
}  // namespace tdb
