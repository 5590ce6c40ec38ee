// Unit tests of the undo journal: record round-trips, pre-image dedup,
// rollback, recovery (including torn tails and idempotence).

#include "storage/journal.h"

#include <gtest/gtest.h>

#include "env/env.h"
#include "storage/page.h"

namespace tdb {
namespace {

std::vector<uint8_t> FilledPage(uint8_t fill) {
  return std::vector<uint8_t>(kPageSize, fill);
}

std::string FileContent(Env* env, const std::string& path) {
  auto r = env->ReadFileToString(path);
  return r.ok() ? *r : std::string("<missing>");
}

void WritePage(Env* env, const std::string& path, uint32_t pno, uint8_t fill) {
  auto file = env->OpenOrCreate(path);
  ASSERT_TRUE(file.ok());
  std::vector<uint8_t> page = FilledPage(fill);
  ASSERT_TRUE(
      (*file)->Write(uint64_t{pno} * kPageSize, page.data(), page.size()).ok());
}

class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(env_.CreateDirIfMissing("/db").ok());
    auto j = Journal::Open(&env_, "/db", DurabilityMode::kJournal);
    ASSERT_TRUE(j.ok()) << j.status().ToString();
    journal_ = std::move(j).value();
  }

  MemEnv env_;
  std::unique_ptr<Journal> journal_;
};

TEST(Crc32Test, MatchesKnownVector) {
  // The IEEE CRC-32 of "123456789" is the classic check value.
  const uint8_t data[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(Crc32(data, sizeof(data)), 0xCBF43926u);
  // Chaining via the seed equals one pass over the concatenation.
  uint32_t first = Crc32(data, 4);
  EXPECT_EQ(Crc32(data + 4, 5, first), 0xCBF43926u);
}

TEST(DurabilityModeNameTest, AllModes) {
  EXPECT_STREQ(DurabilityModeName(DurabilityMode::kOff), "off");
  EXPECT_STREQ(DurabilityModeName(DurabilityMode::kJournal), "journal");
  EXPECT_STREQ(DurabilityModeName(DurabilityMode::kJournalSync),
               "journal+sync");
}

TEST_F(JournalTest, RollbackRestoresOverwrittenPage) {
  WritePage(&env_, "/db/r.dat", 0, 0xAA);
  auto file = env_.OpenOrCreate("/db/r.dat");
  ASSERT_TRUE(file.ok());

  ASSERT_TRUE(journal_->Begin().ok());
  ASSERT_TRUE(journal_->BeforePageWrite("/db/r.dat", file->get(), 0).ok());
  WritePage(&env_, "/db/r.dat", 0, 0xBB);  // the in-place overwrite
  ASSERT_TRUE(journal_->Rollback().ok());

  std::string content = FileContent(&env_, "/db/r.dat");
  ASSERT_EQ(content.size(), kPageSize);
  EXPECT_EQ(static_cast<uint8_t>(content[0]), 0xAA);
  EXPECT_EQ(static_cast<uint8_t>(content[kPageSize - 1]), 0xAA);
}

TEST_F(JournalTest, RollbackTruncatesPagesAppendedMidBatch) {
  WritePage(&env_, "/db/r.dat", 0, 0xAA);
  auto file = env_.OpenOrCreate("/db/r.dat");
  ASSERT_TRUE(file.ok());

  ASSERT_TRUE(journal_->Begin().ok());
  // Page 1 lies beyond the batch-start EOF: the hook must log only the
  // file size, and rollback must cut the file back to one page.
  ASSERT_TRUE(journal_->BeforePageWrite("/db/r.dat", file->get(), 1).ok());
  WritePage(&env_, "/db/r.dat", 1, 0xBB);
  ASSERT_TRUE(journal_->Rollback().ok());

  EXPECT_EQ(FileContent(&env_, "/db/r.dat").size(), kPageSize);
}

TEST_F(JournalTest, RollbackDeletesFilesCreatedMidBatch) {
  ASSERT_TRUE(journal_->Begin().ok());
  ASSERT_TRUE(journal_->BeforeFileRewrite("/db/new.dat").ok());
  WritePage(&env_, "/db/new.dat", 0, 0xCC);
  ASSERT_TRUE(env_.FileExists("/db/new.dat"));
  ASSERT_TRUE(journal_->Rollback().ok());
  EXPECT_FALSE(env_.FileExists("/db/new.dat"));
}

TEST_F(JournalTest, RollbackRestoresDeletedFile) {
  ASSERT_TRUE(env_.WriteStringToFile("/db/cat", "keep me").ok());
  ASSERT_TRUE(journal_->Begin().ok());
  ASSERT_TRUE(journal_->BeforeDeleteFile("/db/cat").ok());
  ASSERT_TRUE(env_.DeleteFile("/db/cat").ok());
  ASSERT_TRUE(journal_->Rollback().ok());
  EXPECT_EQ(FileContent(&env_, "/db/cat"), "keep me");
}

TEST_F(JournalTest, RollbackRestoresShrunkFile) {
  WritePage(&env_, "/db/r.dat", 0, 0xAA);
  WritePage(&env_, "/db/r.dat", 1, 0xBB);
  auto file = env_.OpenOrCreate("/db/r.dat");
  ASSERT_TRUE(file.ok());

  ASSERT_TRUE(journal_->Begin().ok());
  ASSERT_TRUE(journal_->BeforeTruncate("/db/r.dat", file->get(), 0).ok());
  ASSERT_TRUE((*file)->Truncate(0).ok());
  ASSERT_TRUE(journal_->Rollback().ok());

  std::string content = FileContent(&env_, "/db/r.dat");
  ASSERT_EQ(content.size(), 2 * kPageSize);
  EXPECT_EQ(static_cast<uint8_t>(content[0]), 0xAA);
  EXPECT_EQ(static_cast<uint8_t>(content[kPageSize]), 0xBB);
}

TEST_F(JournalTest, CommitEmptiesJournalAndKeepsNewContent) {
  WritePage(&env_, "/db/r.dat", 0, 0xAA);
  auto file = env_.OpenOrCreate("/db/r.dat");
  ASSERT_TRUE(file.ok());

  ASSERT_TRUE(journal_->Begin().ok());
  ASSERT_TRUE(journal_->BeforePageWrite("/db/r.dat", file->get(), 0).ok());
  WritePage(&env_, "/db/r.dat", 0, 0xBB);
  auto ticket = journal_->CommitGroup();
  ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
  ASSERT_TRUE(journal_->WaitDurable(*ticket).ok());
  // The mark is durable, so the next batch starts from an empty journal.
  ASSERT_TRUE(journal_->Begin().ok());
  EXPECT_EQ(FileContent(&env_, Journal::PathFor("/db")), "");
  ASSERT_TRUE(journal_->Rollback().ok());

  EXPECT_EQ(static_cast<uint8_t>(FileContent(&env_, "/db/r.dat")[0]), 0xBB);
  // A committed batch must leave nothing for recovery to undo.
  ASSERT_TRUE(Journal::Recover(&env_, "/db").ok());
  EXPECT_EQ(static_cast<uint8_t>(FileContent(&env_, "/db/r.dat")[0]), 0xBB);
}

TEST_F(JournalTest, PreImageLoggedOncePerPagePerBatch) {
  WritePage(&env_, "/db/r.dat", 0, 0xAA);
  auto file = env_.OpenOrCreate("/db/r.dat");
  ASSERT_TRUE(file.ok());

  ASSERT_TRUE(journal_->Begin().ok());
  ASSERT_TRUE(journal_->BeforePageWrite("/db/r.dat", file->get(), 0).ok());
  WritePage(&env_, "/db/r.dat", 0, 0xBB);
  // Second hook on the same page must not re-capture the now-dirty bytes.
  ASSERT_TRUE(journal_->BeforePageWrite("/db/r.dat", file->get(), 0).ok());
  WritePage(&env_, "/db/r.dat", 0, 0xCC);
  ASSERT_TRUE(journal_->Rollback().ok());

  EXPECT_EQ(static_cast<uint8_t>(FileContent(&env_, "/db/r.dat")[0]), 0xAA);
}

TEST_F(JournalTest, RecoverRollsBackUncommittedBatch) {
  WritePage(&env_, "/db/r.dat", 0, 0xAA);
  auto file = env_.OpenOrCreate("/db/r.dat");
  ASSERT_TRUE(file.ok());

  ASSERT_TRUE(journal_->Begin().ok());
  ASSERT_TRUE(journal_->BeforePageWrite("/db/r.dat", file->get(), 0).ok());
  WritePage(&env_, "/db/r.dat", 0, 0xBB);
  // Simulate a crash: drop the Journal object without Commit/Rollback.
  journal_.reset();

  ASSERT_TRUE(Journal::Recover(&env_, "/db").ok());
  EXPECT_EQ(static_cast<uint8_t>(FileContent(&env_, "/db/r.dat")[0]), 0xAA);
}

TEST_F(JournalTest, RecoveryIsIdempotent) {
  WritePage(&env_, "/db/r.dat", 0, 0xAA);
  auto file = env_.OpenOrCreate("/db/r.dat");
  ASSERT_TRUE(file.ok());

  ASSERT_TRUE(journal_->Begin().ok());
  ASSERT_TRUE(journal_->BeforePageWrite("/db/r.dat", file->get(), 0).ok());
  WritePage(&env_, "/db/r.dat", 0, 0xBB);
  // Preserve the journal image so we can re-run recovery as if a crash had
  // interrupted the first pass.
  std::string journal_image = FileContent(&env_, Journal::PathFor("/db"));
  journal_.reset();

  ASSERT_TRUE(Journal::Recover(&env_, "/db").ok());
  ASSERT_TRUE(
      env_.WriteStringToFile(Journal::PathFor("/db"), journal_image).ok());
  ASSERT_TRUE(Journal::Recover(&env_, "/db").ok());
  ASSERT_TRUE(Journal::Recover(&env_, "/db").ok());
  EXPECT_EQ(static_cast<uint8_t>(FileContent(&env_, "/db/r.dat")[0]), 0xAA);
}

TEST_F(JournalTest, RecoverIgnoresTornTail) {
  WritePage(&env_, "/db/r.dat", 0, 0xAA);
  ASSERT_TRUE(env_.WriteStringToFile("/db/side", "side file, long enough to "
                                                 "tear mid-record").ok());
  auto file = env_.OpenOrCreate("/db/r.dat");
  ASSERT_TRUE(file.ok());

  ASSERT_TRUE(journal_->Begin().ok());
  ASSERT_TRUE(journal_->BeforePageWrite("/db/r.dat", file->get(), 0).ok());
  WritePage(&env_, "/db/r.dat", 0, 0xBB);
  // The crash interrupts this append: its pre-image record will be torn,
  // and (by the WAL ordering) the rewrite it protects never happened.
  ASSERT_TRUE(journal_->BeforeFileRewrite("/db/side").ok());
  journal_.reset();

  std::string image = FileContent(&env_, Journal::PathFor("/db"));
  ASSERT_GT(image.size(), 7u);
  image.resize(image.size() - 7);
  ASSERT_TRUE(env_.WriteStringToFile(Journal::PathFor("/db"), image).ok());

  // Recovery must undo the intact prefix (the page image) and ignore the
  // torn tail, leaving the never-rewritten side file alone.
  ASSERT_TRUE(Journal::Recover(&env_, "/db").ok());
  EXPECT_EQ(static_cast<uint8_t>(FileContent(&env_, "/db/r.dat")[0]), 0xAA);
  EXPECT_EQ(FileContent(&env_, "/db/side"),
            "side file, long enough to tear mid-record");
}

TEST_F(JournalTest, RecoverNoJournalIsNoop) {
  MemEnv fresh;
  ASSERT_TRUE(fresh.CreateDirIfMissing("/other").ok());
  EXPECT_TRUE(Journal::Recover(&fresh, "/other").ok());
}

TEST_F(JournalTest, HooksAreNoopsOutsideBatch) {
  WritePage(&env_, "/db/r.dat", 0, 0xAA);
  auto file = env_.OpenOrCreate("/db/r.dat");
  ASSERT_TRUE(file.ok());
  // No Begin(): the hooks must succeed without journaling anything.
  ASSERT_TRUE(journal_->BeforePageWrite("/db/r.dat", file->get(), 0).ok());
  ASSERT_TRUE(journal_->BeforeFileRewrite("/db/r.dat").ok());
  EXPECT_FALSE(journal_->active());
}

}  // namespace
}  // namespace tdb
