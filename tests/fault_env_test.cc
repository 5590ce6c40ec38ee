// Unit tests of the fault-injecting Env wrapper: operation counting, torn
// and short writes, transient sync failures, and the CrashAt freeze.

#include "env/fault_env.h"

#include <gtest/gtest.h>

#include <cstring>

#include "env/env.h"

namespace tdb {
namespace {

std::string Content(Env* env, const std::string& path) {
  auto r = env->ReadFileToString(path);
  return r.ok() ? *r : std::string("<missing>");
}

class FaultEnvTest : public ::testing::Test {
 protected:
  FaultEnvTest() : fault_(&base_) {}

  MemEnv base_;
  FaultEnv fault_;
};

TEST_F(FaultEnvTest, CountsOnlyMutatingOps) {
  auto file = fault_.OpenOrCreate("/f");
  ASSERT_TRUE(file.ok());
  EXPECT_EQ(fault_.op_count(), 0u);  // opening mutates nothing

  const uint8_t data[4] = {1, 2, 3, 4};
  ASSERT_TRUE((*file)->Write(0, data, 4).ok());
  EXPECT_EQ(fault_.op_count(), 1u);

  uint8_t buf[4];
  ASSERT_TRUE((*file)->Read(0, 4, buf).ok());
  ASSERT_TRUE((*file)->Size().ok());
  EXPECT_EQ(fault_.op_count(), 1u);  // reads are free

  ASSERT_TRUE((*file)->Sync().ok());
  ASSERT_TRUE((*file)->Truncate(0).ok());
  EXPECT_EQ(fault_.op_count(), 3u);

  ASSERT_TRUE(fault_.WriteStringToFile("/g", "x").ok());
  ASSERT_TRUE(fault_.RenameFile("/g", "/h").ok());
  ASSERT_TRUE(fault_.DeleteFile("/h").ok());
  EXPECT_EQ(fault_.op_count(), 6u);
}

TEST_F(FaultEnvTest, FailTruncateAtFailsOnceAndKeepsTheFile) {
  auto file = fault_.OpenOrCreate("/f");
  ASSERT_TRUE(file.ok());
  const uint8_t data[4] = {1, 2, 3, 4};
  ASSERT_TRUE((*file)->Write(0, data, 4).ok());
  fault_.FailTruncateAt(2);
  ASSERT_TRUE((*file)->Truncate(4).ok());
  EXPECT_FALSE((*file)->Truncate(1).ok());
  EXPECT_EQ(*(*file)->Size(), 4u);  // the failed truncate changed nothing
  ASSERT_TRUE((*file)->Truncate(2).ok());
  EXPECT_EQ(*(*file)->Size(), 2u);
  EXPECT_EQ(fault_.truncate_count(), 3u);
}

TEST_F(FaultEnvTest, CrashAtFreezesFileImage) {
  auto file = fault_.OpenOrCreate("/f");
  ASSERT_TRUE(file.ok());
  const uint8_t a[3] = {'a', 'a', 'a'};
  const uint8_t b[3] = {'b', 'b', 'b'};
  ASSERT_TRUE((*file)->Write(0, a, 3).ok());

  fault_.CrashAt(1);
  EXPECT_FALSE((*file)->Write(0, b, 3).ok());
  EXPECT_TRUE(fault_.crashed());
  // Everything after the crash point fails too, whatever the operation.
  EXPECT_FALSE((*file)->Truncate(0).ok());
  EXPECT_FALSE((*file)->Sync().ok());
  EXPECT_FALSE(fault_.DeleteFile("/f").ok());
  EXPECT_FALSE(fault_.WriteStringToFile("/g", "x").ok());
  // The frozen image still reads back, unchanged.
  EXPECT_EQ(Content(&base_, "/f"), "aaa");
  EXPECT_FALSE(base_.FileExists("/g"));
}

TEST_F(FaultEnvTest, TornWriteAppliesPrefixAtCrash) {
  auto file = fault_.OpenOrCreate("/f");
  ASSERT_TRUE(file.ok());
  const uint8_t a[4] = {'a', 'a', 'a', 'a'};
  ASSERT_TRUE((*file)->Write(0, a, 4).ok());

  fault_.CrashAt(1);
  fault_.set_torn_write_bytes(2);
  const uint8_t b[4] = {'b', 'b', 'b', 'b'};
  EXPECT_FALSE((*file)->Write(0, b, 4).ok());
  // First two bytes landed; the tail of the sector never did.
  EXPECT_EQ(Content(&base_, "/f"), "bbaa");

  // Only the first crashing write tears; later ops change nothing.
  const uint8_t c[4] = {'c', 'c', 'c', 'c'};
  EXPECT_FALSE((*file)->Write(0, c, 4).ok());
  EXPECT_EQ(Content(&base_, "/f"), "bbaa");
}

TEST_F(FaultEnvTest, FailSyncAtIsTransient) {
  auto file = fault_.OpenOrCreate("/f");
  ASSERT_TRUE(file.ok());
  fault_.FailSyncAt(2);

  ASSERT_TRUE((*file)->Sync().ok());       // 1st sync fine
  Status s = (*file)->Sync();              // 2nd fails once
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  EXPECT_TRUE((*file)->Sync().ok());       // and recovers
  EXPECT_FALSE(fault_.crashed());
}

TEST_F(FaultEnvTest, FailWriteShortPersistsPrefixOnce) {
  auto file = fault_.OpenOrCreate("/f");
  ASSERT_TRUE(file.ok());
  fault_.FailWriteShort(1, 2);

  const uint8_t a[4] = {'a', 'a', 'a', 'a'};
  Status s = (*file)->Write(0, a, 4);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(Content(&base_, "/f"), "aa");  // short write: prefix only

  // The fault is one-shot; retrying succeeds in full.
  ASSERT_TRUE((*file)->Write(0, a, 4).ok());
  EXPECT_EQ(Content(&base_, "/f"), "aaaa");
}

TEST_F(FaultEnvTest, FailReadAtFailsOnceWithoutAnOperationIndex) {
  auto file = fault_.OpenOrCreate("/f");
  ASSERT_TRUE(file.ok());
  const uint8_t data[4] = {'a', 'b', 'c', 'd'};
  ASSERT_TRUE((*file)->Write(0, data, 4).ok());
  fault_.FailReadAt(2);

  uint8_t buf[4] = {0, 0, 0, 0};
  ASSERT_TRUE((*file)->Read(0, 4, buf).ok());  // 1st read fine
  const uint8_t untouched[4] = {'x', 'x', 'x', 'x'};
  std::memcpy(buf, untouched, 4);
  Status s = (*file)->Read(0, 4, buf);  // 2nd fails once, filling nothing
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  EXPECT_EQ(std::memcmp(buf, untouched, 4), 0);
  ASSERT_TRUE((*file)->Read(0, 4, buf).ok());  // and recovers
  EXPECT_EQ(std::memcmp(buf, data, 4), 0);
  EXPECT_EQ(fault_.op_count(), 1u);  // only the write took an index
  EXPECT_FALSE(fault_.crashed());
}

// A whole-file rewrite counts as a write and a sync (one operation), as the
// POSIX env ends it with an fsync; a failed sync leaves the content written.
TEST_F(FaultEnvTest, WriteStringToFileEndsWithASync) {
  auto file = fault_.OpenOrCreate("/f");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Sync().ok());
  ASSERT_TRUE(fault_.WriteStringToFile("/g", "abc").ok());
  EXPECT_EQ(fault_.sync_count(), 2u);
  EXPECT_EQ(fault_.op_count(), 2u);

  fault_.FailSyncAt(3);
  Status s = fault_.WriteStringToFile("/g", "xyz");
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  EXPECT_EQ(Content(&base_, "/g"), "xyz");
  EXPECT_EQ(fault_.sync_count(), 3u);
}

TEST_F(FaultEnvTest, TornWriteStringToFile) {
  fault_.CrashAt(0);
  fault_.set_torn_write_bytes(3);
  EXPECT_FALSE(fault_.WriteStringToFile("/f", "abcdef").ok());
  EXPECT_EQ(Content(&base_, "/f"), "abc");
}

TEST_F(FaultEnvTest, ResetClearsScriptAndCounters) {
  fault_.CrashAt(0);
  EXPECT_FALSE(fault_.WriteStringToFile("/f", "x").ok());
  ASSERT_TRUE(fault_.crashed());

  fault_.Reset();
  EXPECT_FALSE(fault_.crashed());
  EXPECT_EQ(fault_.op_count(), 0u);
  EXPECT_TRUE(fault_.WriteStringToFile("/f", "x").ok());
}

TEST_F(FaultEnvTest, ReadsPassThroughAfterCrash) {
  ASSERT_TRUE(base_.WriteStringToFile("/f", "visible").ok());
  fault_.CrashAt(0);
  EXPECT_FALSE(fault_.WriteStringToFile("/g", "x").ok());
  // Reads keep working so tests can inspect the frozen image.
  auto r = fault_.ReadFileToString("/f");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, "visible");
  EXPECT_TRUE(fault_.FileExists("/f"));
  auto listing = fault_.ListDir("/");
  EXPECT_TRUE(listing.ok());
}

}  // namespace
}  // namespace tdb
