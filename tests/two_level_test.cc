// Tests of the two-level store (Section 6): current versions stay in the
// primary store, retired versions move to the history store; static queries
// stay flat; version scans follow the per-key history chain.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/database.h"
#include "env/env.h"

namespace tdb {
namespace {

class TwoLevelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions options;
    options.env = &env_;
    options.start_time = TimePoint(100000);
    auto db = Database::Open("/db", options);
    ASSERT_TRUE(db.ok());
    db_ = std::move(db).value();
    Exec("create persistent interval r (id = i4, v = i4, pad = c100)");
    for (int i = 0; i < 32; ++i) {
      Exec("append to r (id = " + std::to_string(i) + ", v = 0)");
    }
    Exec("range of x is r");
  }

  void Exec(const std::string& text) {
    auto r = db_->Execute(text);
    ASSERT_TRUE(r.ok()) << text << " -> " << r.status().ToString();
  }

  void Modify(bool clustered) {
    Exec(std::string("modify r to twolevel hash on id where fillfactor = 100"
                     ", history = ") +
         (clustered ? "clustered" : "simple"));
  }

  uint64_t MeasureReads(const std::string& text) {
    EXPECT_TRUE(db_->DropAllBuffers().ok());
    db_->io()->ResetAll();
    auto r = db_->Execute(text);
    EXPECT_TRUE(r.ok()) << text << " -> " << r.status().ToString();
    return db_->io()->Total().TotalReads();
  }

  Relation* Rel() {
    auto rel = db_->GetRelation("r");
    EXPECT_TRUE(rel.ok());
    return *rel;
  }

  void UpdateRounds(int n) {
    for (int round = 0; round < n; ++round) {
      db_->AdvanceSeconds(1000);
      Exec("replace x (v = x.v + 1)");
    }
  }

  MemEnv env_;
  std::unique_ptr<Database> db_;
};

TEST_F(TwoLevelTest, ModifySplitsCurrentAndHistory) {
  UpdateRounds(2);  // conventional store accumulates versions first
  Modify(/*clustered=*/false);
  Relation* rel = Rel();
  ASSERT_TRUE(rel->two_level());
  ASSERT_NE(rel->history(), nullptr);
  ASSERT_NE(rel->anchors(), nullptr);
  // Primary holds exactly the 32 current versions (4 pages at 8/page).
  EXPECT_EQ(rel->primary()->page_count(), 4u);
  EXPECT_GT(rel->history()->page_count(), 0u);
}

TEST_F(TwoLevelTest, PrimaryStaysFlatUnderUpdates) {
  Modify(false);
  uint32_t before = Rel()->primary()->page_count();
  UpdateRounds(5);
  EXPECT_EQ(Rel()->primary()->page_count(), before);
  EXPECT_GT(Rel()->history()->page_count(), 0u);
}

TEST_F(TwoLevelTest, StaticQueryCostIsConstant) {
  Modify(false);
  uint64_t base =
      MeasureReads("retrieve (x.v) where x.id = 5 when x overlap \"now\"");
  UpdateRounds(6);
  uint64_t after =
      MeasureReads("retrieve (x.v) where x.id = 5 when x overlap \"now\"");
  EXPECT_EQ(after, base);  // the paper's headline two-level effect
  EXPECT_EQ(base, 1u);     // one bucket page
}

TEST_F(TwoLevelTest, VersionScanWalksHistoryChain) {
  Modify(false);
  UpdateRounds(3);
  auto r = db_->Execute(
      "retrieve (x.v) where x.id = 5 "
      "as of \"beginning\" through \"forever\"");
  ASSERT_TRUE(r.ok());
  // 1 original + 2 per replace = 7 versions reachable.
  EXPECT_EQ(r->result.num_rows(), 7u);
}

TEST_F(TwoLevelTest, RollbackQueryScansBothStores) {
  Modify(false);
  TimePoint past = db_->now();
  UpdateRounds(3);
  auto r = db_->Execute("retrieve (x.id) as of \"" + past.ToString() + "\"");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->result.num_rows(), 32u);  // the full state at `past`
}

TEST_F(TwoLevelTest, ClusteredHistorySharesPerTuplePages) {
  Modify(/*clustered=*/true);
  UpdateRounds(6);  // 12 history versions per tuple
  // Version scan: 1 bucket + 1 anchor + ceil(12/7) = 2 history pages.
  uint64_t reads = MeasureReads(
      "retrieve (x.v) where x.id = 5 "
      "as of \"beginning\" through \"forever\"");
  EXPECT_LE(reads, 4u);
}

TEST_F(TwoLevelTest, SimpleHistoryScattersVersions) {
  Modify(/*clustered=*/false);
  UpdateRounds(6);
  uint64_t simple_reads = MeasureReads(
      "retrieve (x.v) where x.id = 5 "
      "as of \"beginning\" through \"forever\"");
  // Scattered chains cost roughly one page per round (the two versions of
  // one round land adjacently), clearly above the clustered cost.
  EXPECT_GE(simple_reads, 6u);
}

TEST_F(TwoLevelTest, DeleteMovesTupleOutOfPrimary) {
  Modify(false);
  Exec("delete x where x.id = 5");
  auto cur = db_->Execute("retrieve (x.id) when x overlap \"now\"");
  ASSERT_TRUE(cur.ok());
  EXPECT_EQ(cur->result.num_rows(), 31u);
  // The history still knows it.
  auto all = db_->Execute(
      "retrieve (x.id) where x.id = 5 "
      "as of \"beginning\" through \"forever\"");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->result.num_rows(), 2u);  // stamped + correction
}

TEST_F(TwoLevelTest, AnchorsTrackNewestHistoryVersion) {
  Modify(false);
  UpdateRounds(1);
  Relation* rel = Rel();
  auto head = rel->AnchorLookup(Value::Int4(5));
  ASSERT_TRUE(head.ok());
  ASSERT_TRUE(head->has_value());
  auto back = rel->HistoryBackPtr(**head);
  ASSERT_TRUE(back.ok());
  ASSERT_TRUE(back->has_value());  // two history versions: chain of 2
  auto end = rel->HistoryBackPtr(**back);
  ASSERT_TRUE(end.ok());
  EXPECT_FALSE(end->has_value());
}

TEST_F(TwoLevelTest, ModifyBackToConventionalKeepsVersions) {
  Modify(false);
  UpdateRounds(2);
  Exec("modify r to hash on id where fillfactor = 100");
  Relation* rel = Rel();
  EXPECT_FALSE(rel->two_level());
  auto all = db_->Execute(
      "retrieve (x.v) where x.id = 5 "
      "as of \"beginning\" through \"forever\"");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->result.num_rows(), 5u);
}

TEST_F(TwoLevelTest, TwoLevelIsamPrimary) {
  Exec("modify r to twolevel isam on id where fillfactor = 100, "
       "history = clustered");
  UpdateRounds(3);
  uint64_t reads =
      MeasureReads("retrieve (x.v) where x.id = 5 when x overlap \"now\"");
  EXPECT_EQ(reads, 2u);  // 1 directory + 1 data page, flat forever
  auto r = db_->Execute("retrieve (x.v) where x.id = 5 when x overlap \"now\"");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->result.num_rows(), 1u);
  EXPECT_EQ(r->result.rows[0][0].AsInt(), 3);
}

TEST_F(TwoLevelTest, TwoLevelRequiresKeyedOrganization) {
  auto bad = db_->Execute("modify r to twolevel heap");
  EXPECT_FALSE(bad.ok());
}

TEST_F(TwoLevelTest, StaticRelationCannotBeTwoLevel) {
  Exec("create s (id = i4)");
  auto bad = db_->Execute(
      "modify s to twolevel hash on id where fillfactor = 100");
  EXPECT_FALSE(bad.ok());
}

TEST_F(TwoLevelTest, PersistsAcrossReopen) {
  Modify(true);
  UpdateRounds(2);
  db_.reset();
  DatabaseOptions options;
  options.env = &env_;
  options.start_time = TimePoint(500000);
  auto db = Database::Open("/db", options);
  ASSERT_TRUE(db.ok());
  db_ = std::move(db).value();
  Exec("range of x is r");
  auto r = db_->Execute(
      "retrieve (x.v) where x.id = 5 "
      "as of \"beginning\" through \"forever\"");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->result.num_rows(), 5u);
}

// --- Vacuum of a temporal relation's partial chains ------------------------
//
// In a temporal relation, transaction-retired versions and valid-time-closed
// current versions alternate along a key's history chain, so a vacuum moves
// only part of a chain: the moved suffix is re-linked into a segment
// (Relation::PatchHistoryBackPtr) and reads cross from the active history
// store into segments (the segment branches of FetchHistoryAt and
// HistoryBackPtr).  Every retrieve must answer as the unvacuumed relation
// did.

/// Rendered rows, sorted when `sorted` (a full scan visits segments after
/// the active store, so its order legitimately changes).
std::string Rendered(Database* db, const std::string& text, bool sorted) {
  auto r = db->Execute(text);
  EXPECT_TRUE(r.ok()) << text << " -> " << r.status().ToString();
  if (!r.ok()) return "";
  std::vector<std::string> lines;
  for (const Row& row : r->result.rows) {
    std::string line;
    for (const Value& v : row) line += v.ToString() + "|";
    lines.push_back(line);
  }
  if (sorted) std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) out += line + "\n";
  return out;
}

const char* const kKeyedHistory[] = {
    "retrieve (x.id, x.v) where x.id = 5 "
    "as of \"beginning\" through \"forever\"",
    "retrieve (x.id, x.v) where x.id = 30 "
    "as of \"beginning\" through \"forever\"",
};
const char* const kFullHistory =
    "retrieve (x.id, x.v) as of \"beginning\" through \"forever\"";
const char* const kKeyedCurrent = "retrieve (x.id, x.v) where x.id = 5";

class TwoLevelVacuumTest : public TwoLevelTest {
 protected:
  /// Six replace rounds on the two-level relation; returns the instant
  /// after the third.
  TimePoint SixRounds(bool clustered) {
    Modify(clustered);
    UpdateRounds(3);
    const TimePoint mid = db_->now();
    UpdateRounds(3);
    return mid;
  }

  /// Captures the three retrieves, runs `vacuums`, and checks the answers
  /// did not move and that a segment now holds versions.
  void VacuumKeepsAnswers(const std::vector<std::string>& vacuums) {
    std::vector<std::string> keyed;
    for (const char* text : kKeyedHistory) {
      keyed.push_back(Rendered(db_.get(), text, /*sorted=*/false));
    }
    const std::string full = Rendered(db_.get(), kFullHistory, true);
    const std::string current = Rendered(db_.get(), kKeyedCurrent, false);
    ASSERT_FALSE(keyed[0].empty());
    for (const std::string& vacuum : vacuums) {
      Exec(vacuum);
      ASSERT_FALSE(Rel()->segments().empty()) << vacuum;
      for (size_t i = 0; i < keyed.size(); ++i) {
        EXPECT_EQ(Rendered(db_.get(), kKeyedHistory[i], false), keyed[i])
            << "after " << vacuum;
      }
      EXPECT_EQ(Rendered(db_.get(), kFullHistory, true), full)
          << "after " << vacuum;
      EXPECT_EQ(Rendered(db_.get(), kKeyedCurrent, false), current)
          << "after " << vacuum;
    }
  }
};

TEST_F(TwoLevelVacuumTest, SimpleHistoryWholeVacuum) {
  SixRounds(/*clustered=*/false);
  VacuumKeepsAnswers({"vacuum r"});
}

TEST_F(TwoLevelVacuumTest, ClusteredHistoryWholeVacuum) {
  SixRounds(/*clustered=*/true);
  VacuumKeepsAnswers({"vacuum r"});
}

TEST_F(TwoLevelVacuumTest, SimpleHistoryVacuumBeforeMidThenWhole) {
  const TimePoint mid = SixRounds(/*clustered=*/false);
  // The second vacuum lands on chains the first one partly moved.
  VacuumKeepsAnswers(
      {"vacuum r before \"" + mid.ToString() + "\"", "vacuum r"});
}

TEST_F(TwoLevelVacuumTest, ClusteredHistoryVacuumBeforeMidThenWhole) {
  const TimePoint mid = SixRounds(/*clustered=*/true);
  VacuumKeepsAnswers(
      {"vacuum r before \"" + mid.ToString() + "\"", "vacuum r"});
}

}  // namespace
}  // namespace tdb
