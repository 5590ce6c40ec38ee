// Tests of the statement pipeline: the prepared-statement surface
// (`prepare name as <stmt>` / `execute name (args)` / `deallocate name`,
// and the Session::Prepare / ExecutePrepared / DeallocatePrepared API the
// wire protocol lands on) and the shared plan cache behind it —
// invalidation on DML, DDL, and vacuum, cross-session sharing, and
// cache-on/cache-off result equivalence.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "core/session.h"
#include "env/env.h"
#include "env/fault_env.h"
#include "obs/metrics.h"
#include "types/value.h"

namespace tdb {
namespace {

class PreparedStatementTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions options;
    options.env = &env_;
    auto db = Database::Open("/db", options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(db).value();
  }

  MemEnv env_;
  std::unique_ptr<Database> db_;
};

TEST_F(PreparedStatementTest, TquelSurfaceRoundTrip) {
  ASSERT_TRUE(db_->ExecuteScript("create emp (name = c8, sal = i4);"
                                 "range of e is emp;"
                                 "append to emp (name = \"ada\", sal = 120);"
                                 "append to emp (name = \"bob\", sal = 80)")
                  .ok());
  auto prep = db_->Execute(
      "prepare highpaid as retrieve (e.name, e.sal) where e.sal > $1");
  ASSERT_TRUE(prep.ok()) << prep.status().ToString();

  auto rows = db_->Query("execute highpaid (100)");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->rows.size(), 1u);
  EXPECT_EQ(rows->rows[0][1].AsInt(), 120);

  // Same statement, different argument — no re-prepare needed.
  rows = db_->Query("execute highpaid (50)");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows.size(), 2u);

  ASSERT_TRUE(db_->Execute("deallocate highpaid").ok());
  EXPECT_FALSE(db_->Execute("execute highpaid (100)").ok());
}

TEST_F(PreparedStatementTest, SessionApiMirrorsTheSurface) {
  ASSERT_TRUE(db_->Execute("create emp (sal = i4)").ok());
  auto session = db_->CreateSession();
  ASSERT_TRUE(session->Execute("range of e is emp").ok());

  auto prep =
      session->Prepare("ins", "append to emp (sal = $1)");
  ASSERT_TRUE(prep.ok()) << prep.status().ToString();
  for (int i = 0; i < 3; ++i) {
    auto run = session->ExecutePrepared("ins", {Value::Int4(100 + i)});
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(run->affected, 1);
  }
  auto count = session->Query("retrieve (n = count(e.sal))");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->rows[0][0].AsInt(), 3);

  // Wrong arity is rejected before execution.
  EXPECT_FALSE(session->ExecutePrepared("ins", {}).ok());
  EXPECT_FALSE(
      session->ExecutePrepared("ins", {Value::Int4(1), Value::Int4(2)}).ok());

  ASSERT_TRUE(session->DeallocatePrepared("ins").ok());
  EXPECT_FALSE(session->ExecutePrepared("ins", {Value::Int4(1)}).ok());
  EXPECT_FALSE(session->DeallocatePrepared("ins").ok());  // already gone
}

TEST_F(PreparedStatementTest, FailedPrepareLeavesNoState) {
  ASSERT_TRUE(db_->Execute("create emp (sal = i4)").ok());
  auto session = db_->CreateSession();
  ASSERT_TRUE(session->Execute("range of e is emp").ok());

  // Binding failure: unknown attribute.
  EXPECT_FALSE(session->Prepare("bad", "retrieve (e.nope)").ok());
  // Unsupported inner kind.
  EXPECT_FALSE(session->Prepare("bad", "create t (v = i4)").ok());
  // The failed prepares left no entry: the name is free for a valid one.
  auto prep = session->Prepare("bad", "retrieve (e.sal) where e.sal > $1");
  ASSERT_TRUE(prep.ok()) << prep.status().ToString();
  EXPECT_TRUE(session->ExecutePrepared("bad", {Value::Int4(0)}).ok());

  // A name in use rejects a second prepare without disturbing the first.
  EXPECT_FALSE(session->Prepare("bad", "retrieve (e.sal)").ok());
  EXPECT_TRUE(session->ExecutePrepared("bad", {Value::Int4(0)}).ok());
}

TEST_F(PreparedStatementTest, PreparedStatementsArePerSession) {
  ASSERT_TRUE(db_->Execute("create emp (sal = i4)").ok());
  auto s1 = db_->CreateSession();
  auto s2 = db_->CreateSession();
  ASSERT_TRUE(s1->Execute("range of e is emp").ok());
  ASSERT_TRUE(s2->Execute("range of e is emp").ok());
  ASSERT_TRUE(s1->Prepare("q", "retrieve (e.sal)").ok());
  EXPECT_TRUE(s1->ExecutePrepared("q", {}).ok());
  // s2 never prepared q.
  EXPECT_FALSE(s2->ExecutePrepared("q", {}).ok());
}

TEST_F(PreparedStatementTest, ReboundAtEveryExecuteSeesNewData) {
  ASSERT_TRUE(db_->ExecuteScript("create emp (sal = i4);"
                                 "range of e is emp")
                  .ok());
  auto session = db_->CreateSession();
  ASSERT_TRUE(session->Execute("range of e is emp").ok());
  ASSERT_TRUE(session->Prepare("q", "retrieve (e.sal) where e.sal > $1").ok());

  auto before = session->ExecutePrepared("q", {Value::Int4(0)});
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->result.rows.size(), 0u);
  ASSERT_TRUE(db_->Execute("append to emp (sal = 5)").ok());
  auto after = session->ExecutePrepared("q", {Value::Int4(0)});
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->result.rows.size(), 1u);
}

// --- the shared plan cache -------------------------------------------------

class PlanCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions options;
    options.env = &env_;
    options.metrics = true;
    options.plan_cache = true;
    auto db = Database::Open("/db", options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(db).value();
    ASSERT_TRUE(db_->ExecuteScript("create emp (name = c8, sal = i4);"
                                   "range of e is emp;"
                                   "append to emp (name = \"ada\", sal = 1);"
                                   "append to emp (name = \"bob\", sal = 2)")
                    .ok());
  }

  uint64_t Hits() { return db_->Snapshot().counter("plancache.hits"); }
  uint64_t Misses() { return db_->Snapshot().counter("plancache.misses"); }

  Result<ResultSet> Read() { return db_->Query("retrieve (e.sal)"); }

  MemEnv env_;
  std::unique_ptr<Database> db_;
};

TEST_F(PlanCacheTest, RepeatedRetrieveHitsTheCache) {
  ASSERT_TRUE(Read().ok());  // cold: miss, populates
  const uint64_t misses = Misses();
  const uint64_t hits = Hits();
  for (int i = 0; i < 3; ++i) {
    auto rows = Read();
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(rows->rows.size(), 2u);
  }
  EXPECT_EQ(Misses(), misses);
  EXPECT_EQ(Hits(), hits + 3);
}

TEST_F(PlanCacheTest, DmlKeepsThePlanAndSeesNewRows) {
  ASSERT_TRUE(Read().ok());
  ASSERT_TRUE(Read().ok());  // warm
  const uint64_t misses = Misses();
  const uint64_t hits = Hits();
  // A write changes no plan: the next read hits the cached plan, whose
  // access nodes re-open the relation, and sees the new row.
  ASSERT_TRUE(db_->Execute("append to emp (name = \"eve\", sal = 3)").ok());
  auto rows = Read();
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows.size(), 3u);
  EXPECT_EQ(Misses(), misses);
  EXPECT_EQ(Hits(), hits + 1);
}

TEST_F(PlanCacheTest, DdlInvalidates) {
  ASSERT_TRUE(Read().ok());
  ASSERT_TRUE(Read().ok());
  const uint64_t misses = Misses();
  // modify rebuilds the relation's storage and bumps the catalog
  // generation: the cached plan (a heap scan) must not survive.
  ASSERT_TRUE(db_->Execute("modify emp to hash on sal").ok());
  auto rows = Read();
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows.size(), 2u);
  EXPECT_EQ(Misses(), misses + 1);
}

TEST_F(PlanCacheTest, VacuumInvalidates) {
  // vacuum only applies to two-level transaction-time stores with retired
  // versions, so build one and retire a version of each tuple first.
  ASSERT_TRUE(
      db_->ExecuteScript(
             "create persistent hist (name = c8, sal = i4);"
             "range of h is hist;"
             "append to hist (name = \"ada\", sal = 1);"
             "append to hist (name = \"bob\", sal = 2);"
             "modify hist to twolevel hash on name where fillfactor = 100;"
             "replace h (sal = h.sal + 1)")
          .ok());
  auto read_hist = [&] { return db_->Query("retrieve (h.sal)"); };
  ASSERT_TRUE(read_hist().ok());
  ASSERT_TRUE(read_hist().ok());  // warm
  const uint64_t misses = Misses();
  ASSERT_TRUE(db_->Execute("vacuum hist").ok());
  auto rows = read_hist();
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows.size(), 2u);
  EXPECT_EQ(Misses(), misses + 1);
}

TEST_F(PlanCacheTest, SharedAcrossSessions) {
  auto s1 = db_->CreateSession();
  auto s2 = db_->CreateSession();
  ASSERT_TRUE(s1->Execute("range of e is emp").ok());
  ASSERT_TRUE(s2->Execute("range of e is emp").ok());
  ASSERT_TRUE(s1->Query("retrieve (e.sal)").ok());  // populates
  const uint64_t hits = Hits();
  auto rows = s2->Query("retrieve (e.sal)");  // same key: s2 hits s1's entry
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows.size(), 2u);
  EXPECT_EQ(Hits(), hits + 1);
}

TEST_F(PlanCacheTest, CachedResultsMatchUncached) {
  // The same query battery against this (cache-on) database and a twin
  // with the cache off must produce identical row sets — a cache hit may
  // change CPU cost, never results.
  DatabaseOptions options;
  options.env = &env_;
  options.plan_cache = false;
  auto plain = Database::Open("/db_plain", options);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE((*plain)
                  ->ExecuteScript("create emp (name = c8, sal = i4);"
                                  "range of e is emp;"
                                  "append to emp (name = \"ada\", sal = 1);"
                                  "append to emp (name = \"bob\", sal = 2)")
                  .ok());
  const char* queries[] = {
      "retrieve (e.sal)",
      "retrieve (e.name, e.sal) where e.sal > 1",
      "retrieve (e.sal) where e.sal = 2 or e.sal = 1",
  };
  for (const char* q : queries) {
    for (int round = 0; round < 2; ++round) {  // second round hits the cache
      auto cached = db_->Query(q);
      auto fresh = (*plain)->Query(q);
      ASSERT_TRUE(cached.ok()) << q;
      ASSERT_TRUE(fresh.ok()) << q;
      ASSERT_EQ(cached->rows.size(), fresh->rows.size()) << q;
      for (size_t r = 0; r < cached->rows.size(); ++r) {
        for (size_t col = 0; col < cached->rows[r].size(); ++col) {
          EXPECT_EQ(cached->rows[r][col].ToString(),
                    fresh->rows[r][col].ToString())
              << q;
        }
      }
    }
  }
}

TEST_F(PlanCacheTest, PreparedReadAfterReplaceHits) {
  auto session = db_->CreateSession();
  ASSERT_TRUE(session->Execute("range of e is emp").ok());
  ASSERT_TRUE(session->Prepare("q", "retrieve (e.sal) where e.sal = $1").ok());
  ASSERT_TRUE(
      session->Prepare("upd", "replace e (sal = e.sal + 10) where e.sal = $1")
          .ok());
  ASSERT_TRUE(session->ExecutePrepared("q", {Value::Int4(1)}).ok());
  const uint64_t misses = Misses();
  const uint64_t builds = db_->Snapshot().counter("plan.builds");
  for (int i = 0; i < 3; ++i) {
    auto upd = session->ExecutePrepared("upd", {Value::Int4(1 + 10 * i)});
    ASSERT_TRUE(upd.ok()) << upd.status().ToString();
    EXPECT_EQ(upd->affected, 1);
    auto rows = session->ExecutePrepared("q", {Value::Int4(11 + 10 * i)});
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(rows->result.rows.size(), 1u);
  }
  EXPECT_EQ(Misses(), misses);
  EXPECT_EQ(db_->Snapshot().counter("plan.builds"), builds);
}

TEST_F(PlanCacheTest, PreparedAggregateCountsAfresh) {
  // Aggregate folding rewrites the AST it runs on; a prepared aggregate
  // must not keep its first execution's value.
  ASSERT_TRUE(db_->Execute("prepare n as retrieve (n = count(e.sal))").ok());
  auto first = db_->Query("execute n");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->rows[0][0].AsInt(), 2);
  ASSERT_TRUE(db_->Execute("append to emp (name = \"eve\", sal = 3)").ok());
  auto second = db_->Query("execute n");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->rows[0][0].AsInt(), 3);
}

// --- implicit prepared statements --------------------------------------------

TEST_F(PlanCacheTest, LiteralVariantsShareOnePreparedPlan) {
  auto parses = [&] { return db_->Snapshot().counter("sql.parses"); };
  auto builds = [&] { return db_->Snapshot().counter("plan.builds"); };
  auto first = db_->Query("retrieve (e.name) where e.sal >= 1 and e.sal <= 1");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(first->rows.size(), 1u);
  EXPECT_EQ(first->rows[0][0].ToString(), "ada");
  const uint64_t p = parses(), b = builds(), h = Hits();
  auto second = db_->Query("retrieve (e.name) where e.sal >= 2 and e.sal <= 9");
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second->rows.size(), 1u);
  EXPECT_EQ(second->rows[0][0].ToString(), "bob");
  EXPECT_EQ(parses(), p);  // no parse, no plan: the shape was prepared
  EXPECT_EQ(builds(), b);
  EXPECT_EQ(Hits(), h + 1);
  // A float in the same slot is another statement; it finds no int rows
  // wrongly and plans once.
  auto fl = db_->Query("retrieve (e.name) where e.sal >= 1.5 and e.sal <= 9");
  ASSERT_TRUE(fl.ok());
  ASSERT_EQ(fl->rows.size(), 1u);
  EXPECT_EQ(parses(), p + 1);
}

TEST_F(PlanCacheTest, ImplicitStatementsAreNotNamedStatements) {
  ASSERT_TRUE(db_->Query("retrieve (e.sal) where e.sal = 1").ok());
  // `execute` and `deallocate` see only explicit prepares.
  EXPECT_EQ(db_->Execute("execute q (1)").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(db_->Execute("deallocate q").status().code(),
            StatusCode::kNotFound);
  // A raw `$1` is no implicit statement: it keeps its error.
  auto raw = db_->Query("retrieve (e.sal) where e.sal = $1");
  ASSERT_FALSE(raw.ok());
  EXPECT_NE(raw.status().ToString().find("parameter $1 is not bound"),
            std::string::npos)
      << raw.status().ToString();
  // Errors of an implicit shape are the literal text's own.
  auto bad = db_->Query("retrieve (e.nope) where e.sal = 1");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().ToString().find("no attribute 'nope'"),
            std::string::npos)
      << bad.status().ToString();
}

TEST_F(PlanCacheTest, StatementsFollowARedeclaredRange) {
  // A prepared statement's binding stands only while its variables name
  // the same relations: redeclaring `e` re-binds both kinds.
  ASSERT_TRUE(db_->ExecuteScript("create boss (name = c8, sal = i4);"
                                 "append to boss (name = \"cy\", sal = 9);"
                                 "prepare top as retrieve (e.name) "
                                 "where e.sal > $1")
                  .ok());
  const std::string raw = "retrieve (e.name) where e.sal > 0";
  auto names = [&](const std::string& text) {
    auto r = db_->Query(text);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    std::string out;
    for (const Row& row : r->rows) out += row[0].ToString() + " ";
    return out;
  };
  EXPECT_EQ(names(raw), "ada bob ");
  EXPECT_EQ(names("execute top (0)"), "ada bob ");
  ASSERT_TRUE(db_->Execute("range of e is boss").ok());
  EXPECT_EQ(names(raw), "cy ");
  EXPECT_EQ(names("execute top (0)"), "cy ");
  ASSERT_TRUE(db_->Execute("range of e is emp").ok());
  EXPECT_EQ(names(raw), "ada bob ");
}

TEST_F(PlanCacheTest, UncacheableShapesPlanEveryExecution) {
  ASSERT_TRUE(db_->ExecuteScript("create persistent hist (sal = i4);"
                                 "range of h is hist;"
                                 "append to hist (sal = 1)")
                  .ok());
  const char* texts[] = {
      "retrieve (h.sal) where h.sal = 1 as of \"now\"",
      "retrieve (n = count(e.sal where e.sal > 0))",
      "retrieve into tmp (e.sal) where e.sal = 1",
  };
  for (const char* text : texts) {
    SCOPED_TRACE(text);
    for (int round = 0; round < 2; ++round) {
      const auto before = db_->Snapshot();
      auto r = db_->Execute(text);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      const auto after = db_->Snapshot();
      EXPECT_EQ(after.counter("plan.builds") - before.counter("plan.builds"),
                1u);
      EXPECT_EQ(after.counter("sql.parses") - before.counter("sql.parses"),
                1u);
      EXPECT_EQ(after.counter("plancache.hits"),
                before.counter("plancache.hits"));
      if (round == 0 && std::string(text).find("into") != std::string::npos) {
        ASSERT_TRUE(db_->Execute("destroy tmp").ok());
      }
    }
  }
}

TEST(PlanCacheFaultTest, FailedModifyMovesTheCatalogGeneration) {
  // A modify that fails partway through its rebuild rolls back and reloads
  // the catalog.  Another session that cached a plan and a handle for the
  // relation must re-plan against the reloaded catalog and read the
  // restored rows.  Sweep the write the fault hits across the rebuild.
  int failed_modifies = 0;
  for (uint64_t nth = 1; nth <= 40; ++nth) {
    SCOPED_TRACE(testing::Message() << "failing write " << nth);
    MemEnv base;
    FaultEnv fault(&base);
    DatabaseOptions options;
    options.env = &fault;
    options.durability = DurabilityMode::kJournal;
    options.plan_cache = true;
    auto opened = Database::Open("/db", options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    std::unique_ptr<Database> db = std::move(opened).value();
    std::string script = "create emp (name = c8, sal = i4)\nrange of e is emp";
    for (int k = 0; k < 40; ++k) {
      script += "\nappend to emp (name = \"n" + std::to_string(k) +
                "\", sal = " + std::to_string(k) + ")";
    }
    ASSERT_TRUE(db->ExecuteScript(script).ok());
    auto reader = db->CreateSession();
    ASSERT_TRUE(reader->Execute("range of e is emp").ok());
    const std::string read = "retrieve (e.name) where e.sal >= 10";
    for (int i = 0; i < 2; ++i) {
      auto rows = reader->Query(read);
      ASSERT_TRUE(rows.ok()) << rows.status().ToString();
      ASSERT_EQ(rows->rows.size(), 30u);
    }

    fault.Reset();  // counts writes from here
    fault.FailWriteShort(nth, 0);
    Result<ExecResult> modify = db->Execute("modify emp to isam on sal");
    fault.Reset();
    if (modify.ok()) continue;
    ++failed_modifies;
    const uint64_t builds = db->Snapshot().counter("plan.builds");
    auto rows = reader->Query(read);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    EXPECT_EQ(rows->rows.size(), 30u);
    EXPECT_EQ(db->Snapshot().counter("plan.builds"), builds + 1);
  }
  EXPECT_GT(failed_modifies, 0);
}

TEST(PlanCacheStatsTest, CostPlansFollowTheStatsEpoch) {
  // Under cost planning a plan rests on relation stats: writes keep it
  // until a relation's version count doubles, which moves its stats
  // epoch and re-plans once.
  MemEnv env;
  DatabaseOptions options;
  options.env = &env;
  options.plan_cache = true;
  options.join_method = JoinMethod::kAuto;
  auto db = Database::Open("/db", options).value();
  std::string script =
      "create emp (id = i4, dept = i4)\ncreate dept (id = i4)\n"
      "range of e is emp\nrange of d is dept";
  for (int k = 0; k < 8; ++k) {
    script += "\nappend to emp (id = " + std::to_string(k) +
              ", dept = " + std::to_string(k % 2) + ")";
    script += "\nappend to dept (id = " + std::to_string(k) + ")";
  }
  ASSERT_TRUE(db->ExecuteScript(script).ok());
  auto builds = [&] { return db->Snapshot().counter("plan.builds"); };
  auto join = [&] {
    auto r = db->Query("retrieve (e.id) where e.dept = d.id and e.id >= 0");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r->rows.size() : 0;
  };
  EXPECT_EQ(join(), 8u);
  const uint64_t planned = builds();
  EXPECT_EQ(join(), 8u);
  EXPECT_EQ(builds(), planned);
  ASSERT_TRUE(db->Execute("append to emp (id = 8, dept = 0)").ok());
  EXPECT_EQ(join(), 9u);
  EXPECT_EQ(builds(), planned);  // 9 of 8 rows: same epoch, same plan
  for (int k = 9; k < 16; ++k) {
    ASSERT_TRUE(db->Execute("append to emp (id = " + std::to_string(k) +
                            ", dept = 1)")
                    .ok());
  }
  EXPECT_EQ(join(), 16u);
  EXPECT_EQ(builds(), planned + 1);  // doubled: re-planned
  EXPECT_EQ(join(), 16u);
  EXPECT_EQ(builds(), planned + 1);
}

TEST_F(PlanCacheTest, ConcurrentPrepareExecuteDeallocate) {
  // Several sessions hammer prepare/execute/deallocate and cached reads
  // at once; run under TSan in CI.  Every operation must succeed and the
  // shared cache must stay coherent with the interleaved writes.
  constexpr int kThreads = 4;
  constexpr int kRounds = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, t, &failures] {
      auto session = db_->CreateSession();
      if (!session->Execute("range of e is emp").ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kRounds; ++i) {
        const std::string name = "q" + std::to_string(t);
        if (!session->Prepare(name, "retrieve (e.sal) where e.sal > $1")
                 .ok() ||
            !session->ExecutePrepared(name, {Value::Int4(i % 3)}).ok() ||
            !session->DeallocatePrepared(name).ok()) {
          failures.fetch_add(1);
          return;
        }
        if (t == 0 && i % 5 == 0 &&
            !session->Execute("append to emp (name = \"w\", sal = 9)").ok()) {
          failures.fetch_add(1);
          return;
        }
        if (!session->Query("retrieve (e.name)").ok() ||
            !session->Query("retrieve (e.sal) where e.sal > " +
                            std::to_string(i % 3))
                 .ok()) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(Hits(), 0u);
}

}  // namespace
}  // namespace tdb
