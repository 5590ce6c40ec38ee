#include "env/env.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

namespace tdb {
namespace {

class EnvTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    if (GetParam()) {
      env_ = Env::Default();
      char tmpl[] = "/tmp/tdb_env_test_XXXXXX";
      ASSERT_NE(::mkdtemp(tmpl), nullptr);
      dir_ = tmpl;
    } else {
      mem_ = std::make_unique<MemEnv>();
      env_ = mem_.get();
      dir_ = "/mem";
    }
  }

  std::string Path(const std::string& name) { return dir_ + "/" + name; }

  std::unique_ptr<MemEnv> mem_;
  Env* env_ = nullptr;
  std::string dir_;
};

TEST_P(EnvTest, CreateWriteReadRoundTrip) {
  auto file = env_->OpenOrCreate(Path("a"));
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  uint8_t data[5] = {1, 2, 3, 4, 5};
  ASSERT_TRUE((*file)->Write(0, data, 5).ok());
  uint8_t back[5] = {0};
  ASSERT_TRUE((*file)->Read(0, 5, back).ok());
  EXPECT_EQ(std::memcmp(data, back, 5), 0);
}

TEST_P(EnvTest, WriteAtOffsetExtends) {
  auto file = env_->OpenOrCreate(Path("b"));
  uint8_t byte = 9;
  ASSERT_TRUE((*file)->Write(100, &byte, 1).ok());
  auto size = (*file)->Size();
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 101u);
  // The gap reads as zeros.
  uint8_t gap = 1;
  ASSERT_TRUE((*file)->Read(50, 1, &gap).ok());
  EXPECT_EQ(gap, 0);
}

TEST_P(EnvTest, ReadPastEofFails) {
  auto file = env_->OpenOrCreate(Path("c"));
  uint8_t buf[4];
  EXPECT_FALSE((*file)->Read(0, 4, buf).ok());
}

TEST_P(EnvTest, TruncateShrinksAndExtends) {
  auto file = env_->OpenOrCreate(Path("d"));
  uint8_t data[8] = {1, 1, 1, 1, 1, 1, 1, 1};
  ASSERT_TRUE((*file)->Write(0, data, 8).ok());
  ASSERT_TRUE((*file)->Truncate(4).ok());
  EXPECT_EQ(*(*file)->Size(), 4u);
  ASSERT_TRUE((*file)->Truncate(16).ok());
  EXPECT_EQ(*(*file)->Size(), 16u);
  uint8_t tail = 9;
  ASSERT_TRUE((*file)->Read(12, 1, &tail).ok());
  EXPECT_EQ(tail, 0);  // zero filled
}

TEST_P(EnvTest, FileExistsAndDelete) {
  EXPECT_FALSE(env_->FileExists(Path("e")));
  { auto file = env_->OpenOrCreate(Path("e")); ASSERT_TRUE(file.ok()); }
  EXPECT_TRUE(env_->FileExists(Path("e")));
  EXPECT_TRUE(env_->DeleteFile(Path("e")).ok());
  EXPECT_FALSE(env_->FileExists(Path("e")));
  EXPECT_FALSE(env_->DeleteFile(Path("e")).ok());
}

TEST_P(EnvTest, RenameFile) {
  ASSERT_TRUE(env_->WriteStringToFile(Path("old"), "xyz").ok());
  ASSERT_TRUE(env_->RenameFile(Path("old"), Path("new")).ok());
  EXPECT_FALSE(env_->FileExists(Path("old")));
  auto text = env_->ReadFileToString(Path("new"));
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(*text, "xyz");
}

TEST_P(EnvTest, StringFileHelpers) {
  ASSERT_TRUE(env_->WriteStringToFile(Path("s"), "hello world").ok());
  auto text = env_->ReadFileToString(Path("s"));
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(*text, "hello world");
  // Overwrite replaces content entirely.
  ASSERT_TRUE(env_->WriteStringToFile(Path("s"), "hi").ok());
  EXPECT_EQ(*env_->ReadFileToString(Path("s")), "hi");
}

TEST_P(EnvTest, ListDir) {
  ASSERT_TRUE(env_->WriteStringToFile(Path("f1"), "1").ok());
  ASSERT_TRUE(env_->WriteStringToFile(Path("f2"), "2").ok());
  auto names = env_->ListDir(dir_);
  ASSERT_TRUE(names.ok());
  EXPECT_NE(std::find(names->begin(), names->end(), "f1"), names->end());
  EXPECT_NE(std::find(names->begin(), names->end(), "f2"), names->end());
}

INSTANTIATE_TEST_SUITE_P(MemAndPosix, EnvTest, ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Posix" : "Mem";
                         });

// Reads take no lock.  While one thread appends pages to a file (moving
// it across block boundaries), shrinks and regrows its tail, and grows and
// shrinks a second file, readers on four threads keep reading the file's
// first page whole, and never read past a size they were told.
TEST(MemEnvTest, ReadsStayWholeWhileTheFileGrowsAndShrinks) {
  MemEnv env;
  constexpr size_t kPage = 4096;
  auto file = env.OpenOrCreate("/mem/file");
  auto other = env.OpenOrCreate("/mem/other");
  ASSERT_TRUE(file.ok() && other.ok());
  std::vector<uint8_t> first(kPage);
  for (size_t i = 0; i < kPage; ++i) first[i] = static_cast<uint8_t>(i * 7);
  ASSERT_TRUE((*file)->Write(0, first.data(), kPage).ok());
  std::atomic<bool> done{false};
  std::atomic<int> bad{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      std::vector<uint8_t> buf(kPage);
      while (!done.load()) {
        if (!(*file)->Read(0, kPage, buf.data()).ok() || buf != first) {
          bad.fetch_add(1);
        }
        auto size = (*file)->Size();
        if (!size.ok() || *size < kPage) bad.fetch_add(1);
        (void)env.FileExists("/mem/other");
      }
    });
  }
  std::vector<uint8_t> page(kPage, 1);
  for (int round = 1; round <= 300; ++round) {
    ASSERT_TRUE((*file)->Write(kPage * round, page.data(), kPage).ok());
    if (round % 10 == 0) {
      ASSERT_TRUE((*file)->Truncate(kPage * (round - 5)).ok());
    }
    ASSERT_TRUE((*other)->Truncate(kPage * (round % 40 + 1)).ok());
  }
  done.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(bad.load(), 0);
  // A shrunk and regrown tail reads as zeros, as a real file's does.
  ASSERT_TRUE((*file)->Truncate(kPage).ok());
  ASSERT_TRUE((*file)->Truncate(2 * kPage).ok());
  std::vector<uint8_t> tail(kPage, 0xff);
  ASSERT_TRUE((*file)->Read(kPage, kPage, tail.data()).ok());
  EXPECT_EQ(tail, std::vector<uint8_t>(kPage, 0));
}

TEST(MemEnvTest, OpenHandleSurvivesDelete) {
  MemEnv env;
  auto file = env.OpenOrCreate("/x");
  uint8_t b = 7;
  ASSERT_TRUE((*file)->Write(0, &b, 1).ok());
  ASSERT_TRUE(env.DeleteFile("/x").ok());
  // Posix semantics: the open handle still works.
  uint8_t back = 0;
  EXPECT_TRUE((*file)->Read(0, 1, &back).ok());
  EXPECT_EQ(back, 7);
  // A re-created file is fresh.
  auto fresh = env.OpenOrCreate("/x");
  EXPECT_EQ(*(*fresh)->Size(), 0u);
}

}  // namespace
}  // namespace tdb
