// Tests of the explain statement and the physical-plan IR it surfaces:
// golden plan trees for the benchmark query shapes (keyed, ISAM range,
// secondary index, scan+filter, substitution, nested loop, constant), the
// no-execution guarantee, and — across all four database types — agreement
// between the explained plan and the plan the executor actually ran.

#include <gtest/gtest.h>

#include <memory>
#include <regex>

#include "benchlib/workload.h"
#include "core/database.h"
#include "env/env.h"
#include "exec/join_method.h"
#include "exec/plan.h"

namespace tdb {
namespace {

/// Replaces wall-clock annotations (`time=1.234ms`) with `time=*` so
/// analyzed plan trees can be golden-tested: every other stat (rows,
/// loops, page I/O) is deterministic under MemEnv.
std::string MaskTimes(const std::string& s) {
  static const std::regex kTime("time=[0-9]+\\.[0-9]{3}ms");
  return std::regex_replace(s, kTime, "time=*");
}

class ExplainTest : public ::testing::Test {
 protected:
  void SetUp() override { Open(JoinMethod::kPaper); }

  /// (Re)builds the fixture database planning joins with `method`.
  void Open(JoinMethod method) {
    db_.reset();
    env_ = std::make_unique<MemEnv>();
    DatabaseOptions options;
    options.env = env_.get();
    options.join_method = method;
    auto db = Database::Open("/db", options);
    ASSERT_TRUE(db.ok());
    db_ = std::move(db).value();
    Exec("create persistent interval hrel (id = i4, amount = i4, pad = c96)");
    Exec("create persistent interval irel (id = i4, amount = i4, pad = c96)");
    for (int i = 0; i < 20; ++i) {
      Exec("append to hrel (id = " + std::to_string(i) + ", amount = " +
           std::to_string(i * 7) + ")");
      Exec("append to irel (id = " + std::to_string(i) + ", amount = " +
           std::to_string(i * 7) + ")");
    }
    Exec("modify hrel to hash on id where fillfactor = 100");
    Exec("modify irel to isam on id where fillfactor = 100");
    Exec("index on hrel is am_h (amount) with structure = hash");
    Exec("range of h is hrel");
    Exec("range of i is irel");
  }

  void Exec(const std::string& text) {
    auto r = db_->Execute(text);
    ASSERT_TRUE(r.ok()) << text << " -> " << r.status().ToString();
  }

  std::string Explain(const std::string& text) {
    auto desc = db_->Explain(text);
    EXPECT_TRUE(desc.ok()) << text << " -> " << desc.status().ToString();
    return desc.ok() ? *desc : std::string();
  }

  std::unique_ptr<MemEnv> env_;
  std::unique_ptr<Database> db_;
};

// --- Golden plan trees (one per access-path shape) ----------------------

TEST_F(ExplainTest, KeyedLookupGolden) {
  EXPECT_EQ(Explain("retrieve (h.id) where h.id = 5"),
            "project (h.id)\n"
            "  filter [(h.id = 5)]\n"
            "    keyed-lookup h=hrel key=5\n");
}

TEST_F(ExplainTest, CurrentKeyedGolden) {
  // Q01 current-version shape: `when h overlap "now"` restricts the keyed
  // probe to current versions.
  EXPECT_EQ(Explain("retrieve (h.id) where h.id = 5 when h overlap \"now\""),
            "project (h.id)\n"
            "  filter [(h.id = 5); when (h overlap \"now\")]\n"
            "    keyed-lookup h=hrel key=5 (current)\n");
}

TEST_F(ExplainTest, IsamRangeGolden) {
  // Q04 shape: key inequalities on an ISAM relation become a range scan.
  EXPECT_EQ(Explain("retrieve (i.id) where i.id >= 4 and i.id < 9"),
            "project (i.id)\n"
            "  filter [(i.id >= 4); (i.id < 9)]\n"
            "    range-scan i=irel key>=4 key<9\n");
}

TEST_F(ExplainTest, SecondaryIndexGolden) {
  // Q12 shape: equality on a non-key indexed attribute probes the index.
  EXPECT_EQ(Explain("retrieve (h.id) where h.amount = 35"),
            "project (h.id)\n"
            "  filter [(h.amount = 35)]\n"
            "    index-eq h=hrel index=amount key=35\n");
}

TEST_F(ExplainTest, ScanWithFilterGolden) {
  // Q07/Q08 shape: no key or index applies, so scan + residual filter.
  EXPECT_EQ(Explain("retrieve (i.id) where i.amount = 35"),
            "project (i.id)\n"
            "  filter [(i.amount = 35)]\n"
            "    seq-scan i=irel\n");
}

TEST_F(ExplainTest, BareScanGolden) {
  EXPECT_EQ(Explain("retrieve (h.id, h.amount)"),
            "project (h.id, h.amount)\n"
            "  seq-scan h=hrel\n");
}

TEST_F(ExplainTest, SubstitutionGolden) {
  // Q09/Q10 shape: the join conjunct makes the hashed relation a keyed
  // inner; the other variable detaches into a temp as the outer.
  EXPECT_EQ(Explain("retrieve (h.id, i.amount) where h.id = i.id"),
            "project (h.id, i.amount)\n"
            "  substitution\n"
            "    outer: seq-scan i=irel\n"
            "    inner: filter [(h.id = i.id)]\n"
            "      keyed-lookup h=hrel key=i.id\n");
}

TEST_F(ExplainTest, NestedLoopGolden) {
  // Q11 shape: no probe-able conjunct, so left-deep nested scans.
  // The binder renames the colliding second `id` column; the rename shows
  // up in the projection since it names the output column.
  EXPECT_EQ(Explain("retrieve (h.id, i.id)"),
            "project (h.id, id_2 = i.id)\n"
            "  nested-loop\n"
            "    seq-scan h=hrel\n"
            "    seq-scan i=irel\n");
}

TEST_F(ExplainTest, ConstantGolden) {
  // A plain aggregate folds before iteration: no live variables remain.
  EXPECT_EQ(Explain("retrieve (n = count(h.id))"),
            "project (n = count(h.id))\n"
            "  constant\n");
}

TEST_F(ExplainTest, ProjectDecorationsGolden) {
  std::string desc = Explain("retrieve into tout unique (h.id) "
                             "as of \"1990\" sort by id desc");
  // The as-of constant renders as a full timestamp; check the decorations
  // structurally rather than pinning the time format.
  EXPECT_EQ(desc.substr(desc.find('\n') + 1), "  seq-scan h=hrel\n") << desc;
  EXPECT_NE(desc.find("project (h.id) unique into tout as of "),
            std::string::npos)
      << desc;
  EXPECT_NE(desc.find(" sort by id desc\n"), std::string::npos) << desc;
}

// --- Cost-based join methods (DatabaseOptions::join_method) ---------------

/// Forced hash join: the equality conjunct is consumed as the hash key and
/// every node carries the cost model's `[est=N]` cardinality tag.  Both
/// sides have 20 rows with 20 distinct ids, so est = 20*20/20 = 20.
TEST_F(ExplainTest, HashJoinGolden) {
  Open(JoinMethod::kHash);
  std::string desc = Explain("retrieve (h.id, i.amount) where h.id = i.id");
  EXPECT_EQ(desc,
            "project (h.id, i.amount)\n"
            "  hash-join key=(h.id = i.id) [est=20]\n"
            "    build: seq-scan h=hrel [est=20]\n"
            "    probe: seq-scan i=irel [est=20]\n");
}

/// Forced interval join: the cross `overlap` conjunct becomes the sweep
/// predicate; est = 0.5 * 20 * 20 = 200 (the coarse overlap selectivity).
TEST_F(ExplainTest, IntervalJoinGolden) {
  Open(JoinMethod::kMerge);
  std::string desc = Explain("retrieve (h.id, i.id) when h overlap i");
  EXPECT_EQ(desc,
            "project (h.id, id_2 = i.id)\n"
            "  interval-join when=(h overlap i) [est=200]\n"
            "    left: seq-scan h=hrel [est=20]\n"
            "    right: seq-scan i=irel [est=20]\n");
}

/// Residual conjuncts: the consumed equality disappears, per-side
/// restrictions sink into side filters, and the leftover cross conjunct
/// lands on the join node's own filter clause.
TEST_F(ExplainTest, HashJoinResidualGolden) {
  Open(JoinMethod::kHash);
  std::string desc = Explain(
      "retrieve (h.id, i.amount) where h.id = i.id and h.amount > 35 "
      "and h.amount < i.amount + 140");
  EXPECT_EQ(desc,
            "project (h.id, i.amount)\n"
            "  hash-join key=(h.id = i.id) "
            "filter [(h.amount < (i.amount + 140))] [est=7]\n"
            "    build: filter [(h.amount > 35)] [est=7]\n"
            "      seq-scan h=hrel\n"
            "    probe: seq-scan i=irel [est=20]\n");
}

/// A forced method that does not apply (no equality conjunct for hash, no
/// overlap for merge) falls back to the paper plan — with no est tags, so
/// the fallback rendering matches paper mode byte-for-byte.
TEST_F(ExplainTest, ForcedMethodFallsBackToPaperPlan) {
  std::string paper = Explain("retrieve (h.id, i.id)");
  Open(JoinMethod::kHash);
  std::string forced = Explain("retrieve (h.id, i.id)");
  EXPECT_EQ(paper, forced);
}

/// Paper mode never renders estimates: the lever off means byte-identical
/// output to the pre-cost-model plans.
TEST_F(ExplainTest, PaperModeHasNoEstimates) {
  std::string desc = Explain("retrieve (h.id, i.amount) where h.id = i.id");
  EXPECT_EQ(desc.find("est="), std::string::npos) << desc;
}

// --- The explain statement itself ---------------------------------------

TEST_F(ExplainTest, ExplainStatementReturnsPlanRows) {
  auto r = db_->Execute("explain retrieve (h.id) where h.id = 5");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->result.columns, std::vector<std::string>{"query plan"});
  ASSERT_EQ(r->result.rows.size(), 3u);
  EXPECT_EQ(r->result.rows[0][0].AsString(), "project (h.id)");
  EXPECT_EQ(r->message, "plan: hrel:keyed");
  ASSERT_NE(r->plan, nullptr);
  EXPECT_FALSE(r->plan->root->stats.executed);
}

TEST_F(ExplainTest, ExplainDoesNotExecute) {
  // Warm the relation cache, then require zero page I/O from explain.
  Exec("retrieve (h.id) where h.id = 5");
  Exec("retrieve (i.id) where i.id = 5");
  IoCounters before = db_->io()->Total();
  Exec("explain retrieve (h.id, i.amount) where h.id = i.id");
  IoCounters after = db_->io()->Total();
  EXPECT_EQ(after.TotalReads(), before.TotalReads());
  EXPECT_EQ(after.TotalWrites(), before.TotalWrites());
  // And no temp relation materialized for the substitution.
  EXPECT_EQ(db_->catalog()->Find("tout"), nullptr);
}

TEST_F(ExplainTest, ExplainRejectsNonRetrieve) {
  auto r = db_->Execute("explain delete h");
  EXPECT_FALSE(r.ok());
}

TEST_F(ExplainTest, PrinterRoundTripsExplain) {
  auto r = db_->Execute("explain retrieve (h.id) where h.id = 5");
  ASSERT_TRUE(r.ok());
  // Re-running the same text must keep working (parser round trip happens
  // in printer_test; here we just check explain composes with scripts).
  auto again = db_->Execute(
      "explain retrieve (h.id) where h.id = 5\n"
      "retrieve (h.id) where h.id = 5");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->result.rows.size(), 1u);
}

// --- Executed plans carry per-node statistics ----------------------------

TEST_F(ExplainTest, ExecutedPlanHasStats) {
  auto r = db_->Execute("retrieve (h.id) where h.id = 5");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_NE(r->plan, nullptr);
  const ProjectNode* root = r->plan->root.get();
  EXPECT_TRUE(root->stats.executed);
  EXPECT_EQ(root->stats.rows_emitted, 1u);
  const AccessNode* access = AccessOf(root->child.get());
  ASSERT_NE(access, nullptr);
  EXPECT_TRUE(access->stats.executed);
  EXPECT_EQ(access->stats.loops, 1u);
  EXPECT_GE(access->stats.rows_examined, 1u);
  std::string annotated = r->plan->Describe(/*with_stats=*/true);
  EXPECT_NE(annotated.find("[rows=1]"), std::string::npos) << annotated;
  EXPECT_NE(annotated.find("loops=1"), std::string::npos) << annotated;
}

TEST_F(ExplainTest, SubstitutionStatsCountProbes) {
  auto r = db_->Execute("retrieve (h.id, i.amount) where h.id = i.id");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_NE(r->plan, nullptr);
  ASSERT_EQ(r->plan->root->child->kind, PlanNode::Kind::kSubstitution);
  const auto* sub =
      static_cast<const SubstitutionNode*>(r->plan->root->child.get());
  const AccessNode* inner = AccessOf(sub->inner.get());
  ASSERT_NE(inner, nullptr);
  EXPECT_TRUE(inner->stats.executed);
  // One probe per distinct temp key: all 20 ids are distinct.
  EXPECT_EQ(inner->stats.loops, 20u);
  EXPECT_EQ(r->plan->root->stats.rows_emitted, 20u);
  // The temp relation's I/O lands on the substitution node itself.
  EXPECT_TRUE(sub->stats.executed);
  EXPECT_GT(sub->stats.io.TotalWrites(), 0u);
}

/// The substitution's inner level runs once per temp row: its filter counts
/// one loop per temp row, the probe phase's wall time lands on the inner
/// nodes, and every node's loops, examined and emitted are the same when
/// the probes run on four threads (4 KiB pages, uncapped shared pool).
TEST(ExplainSubstitutionTest, InnerLevelStatsMatchAcrossThreadCounts) {
  std::string base;
  for (int threads : {1, 4}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    MemEnv env;
    DatabaseOptions options;
    options.env = &env;
    options.page_size = 4096;
    options.pool_frames = 256;
    options.pool_file_cap = -1;
    options.exec_threads = threads;
    auto opened = Database::Open("/db", options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    Database* db = opened->get();
    auto exec = [&](const std::string& text) {
      auto r = db->Execute(text);
      EXPECT_TRUE(r.ok()) << text << " -> " << r.status().ToString();
    };
    exec("create persistent interval hrel (id = i4, amount = i4, pad = c96)");
    exec("create persistent interval irel (id = i4, amount = i4, pad = c96)");
    for (int i = 0; i < 64; ++i) {
      exec("append to hrel (id = " + std::to_string(i) + ", amount = " +
           std::to_string(i * 7) + ")");
      exec("append to irel (id = " + std::to_string(i % 40) +
           ", amount = " + std::to_string(i * 5) + ")");
    }
    exec("modify hrel to hash on id where fillfactor = 100");
    exec("range of h is hrel");
    exec("range of i is irel");
    exec("replace i (amount = i.amount + 3) where i.id < 20");

    auto r = db->Execute(
        "retrieve (h.id, i.amount) where h.id = i.id and "
        "h.amount <= i.amount");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_NE(r->plan, nullptr);
    ASSERT_EQ(r->plan->root->child->kind, PlanNode::Kind::kSubstitution);
    const auto* sub =
        static_cast<const SubstitutionNode*>(r->plan->root->child.get());
    ASSERT_EQ(sub->inner->kind, PlanNode::Kind::kFilter);
    const auto* filter = static_cast<const FilterNode*>(sub->inner.get());
    const AccessNode* inner = AccessOf(sub->inner.get());
    const uint64_t temp_rows = AccessOf(sub->outer.get())->stats.rows_emitted;
    ASSERT_GT(temp_rows, 64u);
    EXPECT_EQ(filter->stats.loops, temp_rows);
    EXPECT_GT(inner->stats.loops, 0u);
    EXPECT_LE(inner->stats.loops, temp_rows);
    EXPECT_GT(filter->stats.rows_examined, filter->stats.rows_emitted);
    EXPECT_GT(inner->stats.wall_nanos, 0u);
    EXPECT_GE(filter->stats.wall_nanos, inner->stats.wall_nanos);

    const std::string tree = r->plan->Describe(/*with_stats=*/true);
    if (threads == 1) {
      base = tree;
    } else {
      EXPECT_EQ(tree, base);
    }
  }
}

// --- explain analyze -----------------------------------------------------

TEST(MaskTimesTest, NormalizesOnlyWallClock) {
  EXPECT_EQ(MaskTimes("a [rows=1 time=0.034ms]\nb [loops=2 time=12.500ms]\n"),
            "a [rows=1 time=*]\nb [loops=2 time=*]\n");
  EXPECT_EQ(MaskTimes("no times here [rows=3]"), "no times here [rows=3]");
}

/// Same schema as ExplainTest; metrics are on (the default), so analyzed
/// plans carry real wall-clock samples.
class ExplainAnalyzeTest : public ::testing::Test {
 protected:
  void SetUp() override { Open(JoinMethod::kPaper); }

  /// (Re)builds the fixture database planning joins with `method`.
  void Open(JoinMethod method) {
    db_.reset();
    env_ = std::make_unique<MemEnv>();
    DatabaseOptions options;
    options.env = env_.get();
    options.join_method = method;
    auto db = Database::Open("/db", options);
    ASSERT_TRUE(db.ok());
    db_ = std::move(db).value();
    Exec("create persistent interval hrel (id = i4, amount = i4, pad = c96)");
    Exec("create persistent interval irel (id = i4, amount = i4, pad = c96)");
    for (int i = 0; i < 20; ++i) {
      Exec("append to hrel (id = " + std::to_string(i) + ", amount = " +
           std::to_string(i * 7) + ")");
      Exec("append to irel (id = " + std::to_string(i) + ", amount = " +
           std::to_string(i * 7) + ")");
    }
    Exec("modify hrel to hash on id where fillfactor = 100");
    Exec("range of h is hrel");
    Exec("range of i is irel");
  }

  void Exec(const std::string& text) {
    auto r = db_->Execute(text);
    ASSERT_TRUE(r.ok()) << text << " -> " << r.status().ToString();
  }

  /// Runs `explain analyze <query>` and returns the printed rows.
  std::string Analyze(const std::string& query) {
    auto r = db_->Execute("explain analyze " + query);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) return "";
    std::string tree;
    for (const auto& row : r->result.rows) tree += row[0].AsString() + "\n";
    return tree;
  }

  std::unique_ptr<MemEnv> env_;
  std::unique_ptr<Database> db_;
};

TEST_F(ExplainAnalyzeTest, KeyedLookupGolden) {
  EXPECT_EQ(
      MaskTimes(Analyze("retrieve (h.id) where h.id = 5 "
                        "when h overlap \"now\"")),
      "project (h.id) [rows=1 time=*]\n"
      "  filter [(h.id = 5); when (h overlap \"now\")] "
      "[loops=1 examined=1 emitted=1 time=*]\n"
      "    keyed-lookup h=hrel key=5 (current) "
      "[loops=1 examined=1 emitted=1 reads=1 (data=1) time=*]\n");
}

/// Estimated vs. actual, per node: the analyzed hash join reports the cost
/// model's `est=` next to the executed row counts.  20 ids join 1:1, and
/// the estimate (20*20 / 20 distinct) agrees exactly on this uniform data.
TEST_F(ExplainAnalyzeTest, HashJoinEstVsActualGolden) {
  Open(JoinMethod::kHash);
  std::string tree =
      MaskTimes(Analyze("retrieve (h.id, i.amount) where h.id = i.id"));
  EXPECT_EQ(tree,
            "project (h.id, i.amount) [rows=20 time=*]\n"
            "  hash-join key=(h.id = i.id) "
            "[loops=1 examined=20 emitted=20 est=20 time=*]\n"
            "    build: seq-scan h=hrel "
            "[loops=1 examined=20 emitted=20 est=20 reads=3 (data=3) time=*]\n"
            "    probe: seq-scan i=irel "
            "[loops=1 examined=20 emitted=20 est=20 reads=3 (data=3) "
            "time=*]\n");
}

TEST_F(ExplainAnalyzeTest, IntervalJoinEstVsActual) {
  Open(JoinMethod::kMerge);
  std::string tree =
      MaskTimes(Analyze("retrieve (h.id, i.id) when h overlap i"));
  // All 20x20 version pairs coexist (no history rounds), so the sweep
  // emits 400 rows against the coarse 200 estimate — est and actual are
  // both visible per node, which is the point of the annotation.
  EXPECT_NE(tree.find("interval-join when=(h overlap i)"), std::string::npos)
      << tree;
  EXPECT_NE(tree.find("emitted=400 est=200"), std::string::npos) << tree;
  EXPECT_NE(tree.find("left: seq-scan h=hrel"), std::string::npos) << tree;
  EXPECT_NE(tree.find("right: seq-scan i=irel"), std::string::npos) << tree;
}

TEST_F(ExplainAnalyzeTest, AnalyzeExecutesTheQuery) {
  // Unlike plain explain, analyze runs the plan: page reads happen and
  // executed stats (rows, loops, I/O) are real.
  Exec("retrieve (h.id) where h.id = 5");  // warm the relation cache
  ASSERT_TRUE(db_->DropAllBuffers().ok());  // force the probe back to disk
  IoCounters before = db_->io()->Total();
  auto r = db_->Execute("explain analyze retrieve (h.id) where h.id = 5");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  IoCounters after = db_->io()->Total();
  EXPECT_GT(after.TotalReads(), before.TotalReads());
  ASSERT_NE(r->plan, nullptr);
  EXPECT_TRUE(r->plan->root->stats.executed);
  EXPECT_EQ(r->plan->root->stats.rows_emitted, 1u);
}

TEST_F(ExplainAnalyzeTest, PlainExplainStaysUnexecuted) {
  std::string plain;
  {
    auto r = db_->Execute("explain retrieve (h.id) where h.id = 5");
    ASSERT_TRUE(r.ok());
    for (const auto& row : r->result.rows) plain += row[0].AsString() + "\n";
  }
  // No stats suffixes at all on the unexecuted form.
  EXPECT_EQ(plain.find("[rows="), std::string::npos) << plain;
  EXPECT_EQ(plain.find("time="), std::string::npos) << plain;
}

TEST_F(ExplainAnalyzeTest, AnalyzeIsDeterministicWhenMetricsDisabled) {
  // With metrics off the executor takes no clock samples: wall times stay
  // zero, making `explain analyze` output fully deterministic (the
  // property that keeps figure stdout byte-identical under TDB_METRICS=0).
  DatabaseOptions options;
  options.env = env_.get();
  options.metrics = false;
  auto db = Database::Open("/db", options);
  ASSERT_TRUE(db.ok());
  auto r = (*db)->Execute(
      "range of h is hrel\n"
      "explain analyze retrieve (h.id) where h.id = 5");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::string tree;
  for (const auto& row : r->result.rows) tree += row[0].AsString() + "\n";
  EXPECT_NE(tree.find("time=0.000ms"), std::string::npos) << tree;
  // Every time annotation is the deterministic zero.
  std::string masked = MaskTimes(tree);
  size_t zeros = 0;
  size_t masks = 0;
  for (size_t p = tree.find("time=0.000ms"); p != std::string::npos;
       p = tree.find("time=0.000ms", p + 1)) {
    ++zeros;
  }
  for (size_t p = masked.find("time=*"); p != std::string::npos;
       p = masked.find("time=*", p + 1)) {
    ++masks;
  }
  EXPECT_EQ(zeros, masks) << tree;
}

// --- Acceptance: explained plan == executed plan, all four db types ------

TEST(ExplainAcceptanceTest, ExplainMatchesExecutionAcrossDbTypes) {
  for (DbType type : {DbType::kStatic, DbType::kRollback, DbType::kHistorical,
                      DbType::kTemporal}) {
    bench::WorkloadConfig config;
    config.type = type;
    config.ntuples = 64;
    auto bench = bench::BenchmarkDb::Create(config);
    ASSERT_TRUE(bench.ok()) << bench.status().ToString();
    // One representative one-variable query (Q01: keyed probe) and one
    // two-variable query (Q09: substitution join) per type.
    for (int qnum : {1, 9}) {
      std::string text = (*bench)->QueryText(qnum);
      if (text.empty()) continue;  // not applicable to this type
      auto explained = (*bench)->db()->Explain(text);
      ASSERT_TRUE(explained.ok())
          << "Q" << qnum << " " << explained.status().ToString();
      auto run = (*bench)->db()->Execute(text);
      ASSERT_TRUE(run.ok()) << "Q" << qnum << " " << run.status().ToString();
      ASSERT_NE(run->plan, nullptr) << "Q" << qnum;
      // The plan explain predicted is byte-for-byte the plan that ran.
      EXPECT_EQ(*explained, run->plan->Describe(/*with_stats=*/false))
          << DbTypeName(type) << " Q" << qnum;
      EXPECT_TRUE(run->plan->root->stats.executed);
      // The executed plan really did the work it claims: the access path
      // surfaced at least one version and read at least one page.
      const AccessNode* access = AccessOf(
          run->plan->root->child->kind == PlanNode::Kind::kSubstitution
              ? static_cast<const SubstitutionNode*>(
                    run->plan->root->child.get())
                    ->outer.get()
              : run->plan->root->child.get());
      ASSERT_NE(access, nullptr) << DbTypeName(type) << " Q" << qnum;
      EXPECT_TRUE(access->stats.executed);
      EXPECT_GE(access->stats.rows_examined, 1u);
    }
  }
}

// The bench Measure now records the plan that produced its counts.
TEST(ExplainAcceptanceTest, MeasureCarriesPlan) {
  bench::WorkloadConfig config;
  config.type = DbType::kTemporal;
  config.ntuples = 64;
  auto bench = bench::BenchmarkDb::Create(config);
  ASSERT_TRUE(bench.ok()) << bench.status().ToString();
  auto m = (*bench)->RunQuery(1);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_FALSE(m->plan.empty());
  EXPECT_NE(m->plan_tree.find("[loops="), std::string::npos) << m->plan_tree;
}

}  // namespace
}  // namespace tdb
