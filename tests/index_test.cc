// Tests of secondary indexing (Section 6): 1-level vs 2-level, heap vs
// hash structures, maintenance under updates, and query integration.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "core/database.h"
#include "env/env.h"

namespace tdb {
namespace {

// The structure is a std::string, not a const char*: gtest prints a pointer
// parameter with its address, which would put an address that changes from
// run to run into every test's listed name.
class IndexTest : public ::testing::TestWithParam<
                      std::tuple<std::string, int>> {  // structure, levels
 protected:
  void SetUp() override {
    DatabaseOptions options;
    options.env = &env_;
    options.start_time = TimePoint(100000);
    auto db = Database::Open("/db", options);
    ASSERT_TRUE(db.ok());
    db_ = std::move(db).value();
    Exec("create persistent interval r (id = i4, amount = i4, pad = c100)");
    for (int i = 0; i < 32; ++i) {
      Exec("append to r (id = " + std::to_string(i) + ", amount = " +
           std::to_string(1000 + i) + ")");
    }
    Exec("modify r to hash on id where fillfactor = 100");
    Exec(std::string("index on r is am (amount) with structure = ") +
         Structure() + ", levels = " + std::to_string(Levels()));
    Exec("range of x is r");
  }

  const std::string& Structure() const { return std::get<0>(GetParam()); }
  int Levels() const { return std::get<1>(GetParam()); }

  void Exec(const std::string& text) {
    auto r = db_->Execute(text);
    ASSERT_TRUE(r.ok()) << text << " -> " << r.status().ToString();
  }

  uint64_t MeasureReads(const std::string& text, uint64_t* rows = nullptr) {
    EXPECT_TRUE(db_->DropAllBuffers().ok());
    db_->io()->ResetAll();
    auto r = db_->Execute(text);
    EXPECT_TRUE(r.ok()) << text << " -> " << r.status().ToString();
    if (rows != nullptr && r.ok()) {
      *rows = static_cast<uint64_t>(r->affected);
    }
    return db_->io()->Total().TotalReads();
  }

  MemEnv env_;
  std::unique_ptr<Database> db_;
};

TEST_P(IndexTest, EqualityProbeFindsTheTuple) {
  auto r = db_->Execute(
      "retrieve (x.id) where x.amount = 1007 when x overlap \"now\"");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->result.num_rows(), 1u);
  EXPECT_EQ(r->result.rows[0][0].AsInt(), 7);
}

TEST_P(IndexTest, ProbeIsCheaperThanScan) {
  uint64_t with_index = MeasureReads(
      "retrieve (x.id) where x.amount = 1007 when x overlap \"now\"");
  // The relation has 4 data pages; a scan would read all of them.
  auto rel = db_->GetRelation("r");
  uint64_t scan_cost = (*rel)->primary()->page_count();
  if (Structure() == "hash") {
    EXPECT_LT(with_index, scan_cost);
  } else {
    // A heap index scan may be comparable at this tiny size, but it must
    // at least find the right answer; cost is asserted for hash only.
    EXPECT_GT(with_index, 0u);
  }
}

TEST_P(IndexTest, IndexMaintainedAcrossReplaces) {
  for (int round = 0; round < 3; ++round) {
    db_->AdvanceSeconds(1000);
    Exec("replace x (pad = \"r\") where x.id = 7");
  }
  auto r = db_->Execute(
      "retrieve (x.id) where x.amount = 1007 when x overlap \"now\"");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->result.num_rows(), 1u);
  // All versions are reachable through the index too.
  auto all = db_->Execute(
      "retrieve (x.id) where x.amount = 1007 "
      "as of \"beginning\" through \"forever\"");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->result.num_rows(), 7u);
}

TEST_P(IndexTest, IndexedAttributeChangeMovesEntry) {
  db_->AdvanceSeconds(1000);
  Exec("replace x (amount = 9999) where x.id = 7");
  auto old_probe = db_->Execute(
      "retrieve (x.id) where x.amount = 1007 when x overlap \"now\"");
  ASSERT_TRUE(old_probe.ok());
  EXPECT_EQ(old_probe->result.num_rows(), 0u);
  auto new_probe = db_->Execute(
      "retrieve (x.id) where x.amount = 9999 when x overlap \"now\"");
  ASSERT_TRUE(new_probe.ok());
  EXPECT_EQ(new_probe->result.num_rows(), 1u);
}

TEST_P(IndexTest, CurrentOnlyProbeStaysCheapFor2Level) {
  if (Levels() != 2 || Structure() != "hash") GTEST_SKIP();
  uint64_t base = MeasureReads(
      "retrieve (x.id) where x.amount = 1007 when x overlap \"now\"");
  for (int round = 0; round < 5; ++round) {
    db_->AdvanceSeconds(1000);
    Exec("replace x (pad = \"u\")");
  }
  uint64_t after = MeasureReads(
      "retrieve (x.id) where x.amount = 1007 when x overlap \"now\"");
  // The 2-level index answers current-state probes from the (small)
  // current structure: flat cost — the paper's "3717 pages to 2" effect.
  EXPECT_EQ(after, base);
  EXPECT_LE(after, 2u);
}

TEST_P(IndexTest, DeleteRemovesFromCurrentProbe) {
  Exec("delete x where x.id = 7");
  auto r = db_->Execute(
      "retrieve (x.id) where x.amount = 1007 when x overlap \"now\"");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->result.num_rows(), 0u);
}

TEST_P(IndexTest, SurvivesModifyReorganization) {
  Exec("modify r to isam on id where fillfactor = 50");
  auto r = db_->Execute(
      "retrieve (x.id) where x.amount = 1007 when x overlap \"now\"");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->result.num_rows(), 1u);
}

TEST_P(IndexTest, PersistsAcrossReopen) {
  db_.reset();
  DatabaseOptions options;
  options.env = &env_;
  options.start_time = TimePoint(200000);
  auto db = Database::Open("/db", options);
  ASSERT_TRUE(db.ok());
  db_ = std::move(db).value();
  Exec("range of x is r");
  auto r = db_->Execute(
      "retrieve (x.id) where x.amount = 1010 when x overlap \"now\"");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->result.num_rows(), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Variants, IndexTest,
    ::testing::Combine(::testing::Values(std::string("heap"),
                                         std::string("hash")),
                       ::testing::Values(1, 2)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" +
             std::to_string(std::get<1>(info.param)) + "level";
    });

TEST(IndexDdlTest, Errors) {
  MemEnv env;
  DatabaseOptions options;
  options.env = &env;
  auto db = Database::Open("/db", options);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->Execute("create r (id = i4, v = i4)").ok());
  // Unknown relation / attribute, duplicate index.
  EXPECT_FALSE((*db)->Execute("index on nope is i (v)").ok());
  EXPECT_FALSE((*db)->Execute("index on r is i (nope)").ok());
  ASSERT_TRUE((*db)->Execute("index on r is i (v)").ok());
  EXPECT_FALSE((*db)->Execute("index on r is j (v)").ok());
}

}  // namespace
}  // namespace tdb
