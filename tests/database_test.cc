// End-to-end tests of the Database facade: the full TQuel surface over an
// in-memory environment, covering all four database types.

#include "core/database.h"

#include <gtest/gtest.h>

#include "env/env.h"

namespace tdb {
namespace {

class DatabaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions options;
    options.env = &env_;
    auto db = Database::Open("/db", options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(db).value();
  }

  ExecResult Exec(const std::string& text) {
    auto r = db_->Execute(text);
    EXPECT_TRUE(r.ok()) << text << " -> " << r.status().ToString();
    return r.ok() ? std::move(r).value() : ExecResult{};
  }

  Status ExecErr(const std::string& text) {
    auto r = db_->Execute(text);
    EXPECT_FALSE(r.ok()) << "expected failure: " << text;
    return r.status();
  }

  MemEnv env_;
  std::unique_ptr<Database> db_;
};

TEST_F(DatabaseTest, CreateAndAppendStatic) {
  Exec("create parts (id = i4, name = c12, qty = i4)");
  Exec("append to parts (id = 1, name = \"bolt\", qty = 40)");
  Exec("append to parts (id = 2, name = \"nut\", qty = 7)");
  Exec("range of p is parts");
  ExecResult r = Exec("retrieve (p.id, p.name, p.qty) where p.qty > 10");
  ASSERT_EQ(r.result.num_rows(), 1u);
  EXPECT_EQ(r.result.rows[0][0].AsInt(), 1);
  EXPECT_EQ(r.result.rows[0][1].ToString(), "bolt");
}

TEST_F(DatabaseTest, StaticDeleteAndReplace) {
  Exec("create parts (id = i4, qty = i4)");
  Exec("append to parts (id = 1, qty = 10)");
  Exec("append to parts (id = 2, qty = 20)");
  Exec("range of p is parts");
  ExecResult del = Exec("delete p where p.id = 1");
  EXPECT_EQ(del.affected, 1);
  ExecResult rep = Exec("replace p (qty = p.qty + 5)");
  EXPECT_EQ(rep.affected, 1);
  ExecResult r = Exec("retrieve (p.id, p.qty)");
  ASSERT_EQ(r.result.num_rows(), 1u);
  EXPECT_EQ(r.result.rows[0][0].AsInt(), 2);
  EXPECT_EQ(r.result.rows[0][1].AsInt(), 25);
}

TEST_F(DatabaseTest, ReplaceAndDeleteOfOneVariableOnly) {
  // A second range variable in a replace or delete qualification is a
  // bind error naming it, and the statement changes nothing.
  Exec("create persistent interval bench_h (id = i4, seq = i4)");
  Exec("create persistent interval bench_i (id = i4, seq = i4)");
  for (int id : {5, 6}) {
    Exec("append to bench_h (id = " + std::to_string(id) + ", seq = 0)");
    Exec("append to bench_i (id = " + std::to_string(id) + ", seq = 0)");
  }
  Exec("range of h is bench_h");
  Exec("range of i is bench_i");
  for (const char* text :
       {"replace h (seq = h.seq + 1) where h.id = 5 and i.id = 5 and "
        "i.seq = 0",
        "delete h where h.id = 6 and i.id = 6"}) {
    Status st = ExecErr(text);
    EXPECT_EQ(st.code(), StatusCode::kBindError) << st.ToString();
    EXPECT_NE(st.ToString().find("'i'"), std::string::npos) << st.ToString();
  }
  ExecResult r = Exec("retrieve (h.id, h.seq) when h overlap \"now\"");
  ASSERT_EQ(r.result.num_rows(), 2u);
  for (const Row& row : r.result.rows) EXPECT_EQ(row[1].AsInt(), 0);
}

TEST_F(DatabaseTest, RollbackAsOf) {
  Exec("create persistent emp (name = c10, sal = i4)");
  Exec("append to emp (name = \"ann\", sal = 100)");
  TimePoint after_insert = db_->now();
  db_->AdvanceSeconds(100);
  Exec("range of e is emp");
  Exec("replace e (sal = 200) where e.name = \"ann\"");

  // Current state.
  ExecResult cur = Exec("retrieve (e.sal) as of \"now\"");
  ASSERT_EQ(cur.result.num_rows(), 1u);
  EXPECT_EQ(cur.result.rows[0][0].AsInt(), 200);

  // Rolled-back state: reconstructs the pre-replace salary.
  ExecResult old = Exec("retrieve (e.sal) as of \"" +
                        after_insert.ToString() + "\"");
  ASSERT_EQ(old.result.num_rows(), 1u);
  EXPECT_EQ(old.result.rows[0][0].AsInt(), 100);
}

TEST_F(DatabaseTest, HistoricalWhenOverlap) {
  Exec("create interval emp (name = c10, sal = i4)");
  Exec("append to emp (name = \"bob\", sal = 50) "
       "valid from \"1/1/80\" to \"6/1/80\"");
  Exec("append to emp (name = \"bob\", sal = 75) "
       "valid from \"6/1/80\" to \"forever\"");
  Exec("range of e is emp");

  ExecResult spring = Exec(
      "retrieve (e.sal) where e.name = \"bob\" when e overlap \"3/1/80\"");
  ASSERT_EQ(spring.result.num_rows(), 1u);
  EXPECT_EQ(spring.result.rows[0][0].AsInt(), 50);

  ExecResult later = Exec(
      "retrieve (e.sal) where e.name = \"bob\" when e overlap \"7/1/80\"");
  ASSERT_EQ(later.result.num_rows(), 1u);
  EXPECT_EQ(later.result.rows[0][0].AsInt(), 75);

  // Result rows carry the valid interval.
  ASSERT_EQ(later.result.columns.size(), 3u);
  EXPECT_EQ(later.result.columns[1], "valid_from");
  EXPECT_EQ(later.result.columns[2], "valid_to");
}

TEST_F(DatabaseTest, TemporalReplaceKeepsFullHistory) {
  Exec("create persistent interval acct (id = i4, bal = i4)");
  Exec("append to acct (id = 7, bal = 10)");
  Exec("range of a is acct");
  db_->AdvanceSeconds(50);
  Exec("replace a (bal = 20) where a.id = 7");
  db_->AdvanceSeconds(50);
  Exec("replace a (bal = 30) where a.id = 7");

  // As of now (the TQuel default) the validity history has three entries:
  // bal 10 until the first replace, 20 until the second, 30 since.
  ExecResult history = Exec("retrieve (a.bal)");
  EXPECT_EQ(history.result.num_rows(), 3u);

  // Every stored version — including the two superseded ones — is reachable
  // by rolling back across all of transaction time: 1 + 2 + 2 = 5.
  ExecResult all =
      Exec("retrieve (a.bal) as of \"beginning\" through \"forever\"");
  EXPECT_EQ(all.result.num_rows(), 5u);

  // Static-style query sees only the latest balance.
  ExecResult cur = Exec(
      "retrieve (a.bal) where a.id = 7 when a overlap \"now\" as of \"now\"");
  ASSERT_EQ(cur.result.num_rows(), 1u);
  EXPECT_EQ(cur.result.rows[0][0].AsInt(), 30);
}

TEST_F(DatabaseTest, TemporalJoinQ12Shape) {
  Exec("create persistent interval t_h (id = i4, amount = i4)");
  Exec("create persistent interval t_i (id = i4, amount = i4)");
  Exec("append to t_h (id = 500, amount = 1)");
  Exec("append to t_i (id = 9, amount = 73700)");
  Exec("range of h is t_h");
  Exec("range of i is t_i");
  ExecResult r = Exec(
      "retrieve (h.id, i.id, i.amount) "
      "valid from start of (h overlap i) to end of (h extend i) "
      "where h.id = 500 and i.amount = 73700 "
      "when h overlap i as of \"now\"");
  ASSERT_EQ(r.result.num_rows(), 1u);
  EXPECT_EQ(r.result.rows[0][0].AsInt(), 500);
  EXPECT_EQ(r.result.rows[0][2].AsInt(), 73700);
}

TEST_F(DatabaseTest, ClauseApplicabilityErrors) {
  Exec("create s (id = i4)");
  Exec("create persistent r (id = i4)");
  Exec("create interval h (id = i4)");
  Exec("range of s is s");
  Exec("range of r is r");
  Exec("range of h is h");
  // Static relations accept neither when nor as-of.
  EXPECT_EQ(ExecErr("retrieve (s.id) when s overlap \"now\"").code(),
            StatusCode::kBindError);
  EXPECT_EQ(ExecErr("retrieve (s.id) as of \"now\"").code(),
            StatusCode::kBindError);
  // Rollback relations have no valid time -> no when.
  EXPECT_EQ(ExecErr("retrieve (r.id) when r overlap \"now\"").code(),
            StatusCode::kBindError);
  // Historical relations have no transaction time -> no as-of.
  EXPECT_EQ(ExecErr("retrieve (h.id) as of \"now\"").code(),
            StatusCode::kBindError);
  // But the applicable clauses work.
  Exec("retrieve (r.id) as of \"now\"");
  Exec("retrieve (h.id) when h overlap \"now\"");
}

TEST_F(DatabaseTest, ModifyToHashAndIsamPreservesData) {
  Exec("create parts (id = i4, qty = i4)");
  for (int i = 0; i < 50; ++i) {
    Exec("append to parts (id = " + std::to_string(i) + ", qty = " +
         std::to_string(i * 10) + ")");
  }
  Exec("modify parts to hash on id where fillfactor = 100");
  Exec("range of p is parts");
  ExecResult r1 = Exec("retrieve (p.qty) where p.id = 33");
  ASSERT_EQ(r1.result.num_rows(), 1u);
  EXPECT_EQ(r1.result.rows[0][0].AsInt(), 330);

  Exec("modify parts to isam on id where fillfactor = 50");
  ExecResult r2 = Exec("retrieve (p.qty) where p.id = 33");
  ASSERT_EQ(r2.result.num_rows(), 1u);
  EXPECT_EQ(r2.result.rows[0][0].AsInt(), 330);
  ExecResult all = Exec("retrieve (p.id)");
  EXPECT_EQ(all.result.num_rows(), 50u);
}

TEST_F(DatabaseTest, RetrieveIntoAndAggregates) {
  Exec("create parts (id = i4, qty = i4)");
  Exec("append to parts (id = 1, qty = 10)");
  Exec("append to parts (id = 2, qty = 30)");
  Exec("range of p is parts");
  ExecResult agg = Exec(
      "retrieve (n = count(p.id), total = sum(p.qty), top = max(p.qty))");
  ASSERT_EQ(agg.result.num_rows(), 1u);
  EXPECT_EQ(agg.result.rows[0][0].AsInt(), 2);
  EXPECT_EQ(agg.result.rows[0][1].AsInt(), 40);
  EXPECT_EQ(agg.result.rows[0][2].AsInt(), 30);

  Exec("retrieve into big (p.id, p.qty) where p.qty > 15");
  Exec("range of b is big");
  ExecResult r = Exec("retrieve (b.id)");
  ASSERT_EQ(r.result.num_rows(), 1u);
  EXPECT_EQ(r.result.rows[0][0].AsInt(), 2);
}

TEST_F(DatabaseTest, CopyRoundTrip) {
  Exec("create parts (id = i4, name = c8)");
  Exec("append to parts (id = 1, name = \"ab\")");
  Exec("append to parts (id = 2, name = \"cd\")");
  Exec("copy parts to \"/dump.tsv\"");
  Exec("create parts2 (id = i4, name = c8)");
  ExecResult r = Exec("copy parts2 from \"/dump.tsv\"");
  EXPECT_EQ(r.affected, 2);
  Exec("range of q is parts2");
  ExecResult rows = Exec("retrieve (q.id, q.name) where q.id = 2");
  ASSERT_EQ(rows.result.num_rows(), 1u);
  EXPECT_EQ(rows.result.rows[0][1].ToString(), "cd");
}

TEST_F(DatabaseTest, PersistenceAcrossReopen) {
  Exec("create persistent interval acct (id = i4, bal = i4)");
  Exec("append to acct (id = 1, bal = 10)");
  Exec("modify acct to hash on id where fillfactor = 100");
  db_.reset();

  DatabaseOptions options;
  options.env = &env_;
  auto reopened = Database::Open("/db", options);
  ASSERT_TRUE(reopened.ok());
  db_ = std::move(reopened).value();
  Exec("range of a is acct");
  ExecResult r = Exec("retrieve (a.bal) where a.id = 1");
  ASSERT_EQ(r.result.num_rows(), 1u);
  EXPECT_EQ(r.result.rows[0][0].AsInt(), 10);
}

TEST_F(DatabaseTest, DeleteOnTemporalKeepsRollbackView) {
  Exec("create persistent interval acct (id = i4, bal = i4)");
  Exec("append to acct (id = 1, bal = 10)");
  TimePoint before_delete = db_->now();
  db_->AdvanceSeconds(100);
  Exec("range of a is acct");
  Exec("delete a where a.id = 1");

  // Gone from the current state...
  ExecResult cur = Exec(
      "retrieve (a.bal) when a overlap \"now\" as of \"now\"");
  EXPECT_EQ(cur.result.num_rows(), 0u);
  // ...but the rollback view still reconstructs it.
  ExecResult old = Exec("retrieve (a.bal) when a overlap \"" +
                        before_delete.ToString() + "\" as of \"" +
                        before_delete.ToString() + "\"");
  ASSERT_EQ(old.result.num_rows(), 1u);
  EXPECT_EQ(old.result.rows[0][0].AsInt(), 10);
}

TEST_F(DatabaseTest, EventRelation) {
  Exec("create event ping (host = c8, ms = i4)");
  Exec("append to ping (host = \"a\", ms = 12) valid at \"08:00 1/1/80\"");
  Exec("append to ping (host = \"a\", ms = 20) valid at \"09:00 1/1/80\"");
  Exec("range of p is ping");
  ExecResult r = Exec(
      "retrieve (p.ms) when p overlap \"08:00 1/1/80\"");
  ASSERT_EQ(r.result.num_rows(), 1u);
  EXPECT_EQ(r.result.rows[0][0].AsInt(), 12);
}

TEST_F(DatabaseTest, UniqueAndExpressionTargets) {
  Exec("create parts (id = i4, qty = i4)");
  Exec("append to parts (id = 1, qty = 5)");
  Exec("append to parts (id = 2, qty = 5)");
  Exec("range of p is parts");
  ExecResult r = Exec("retrieve unique (p.qty)");
  EXPECT_EQ(r.result.num_rows(), 1u);
  ExecResult e = Exec("retrieve (twice = p.qty * 2) where p.id = 1");
  ASSERT_EQ(e.result.num_rows(), 1u);
  EXPECT_EQ(e.result.rows[0][0].AsInt(), 10);
}

TEST_F(DatabaseTest, ExecuteScriptReturnsPerStatementResults) {
  auto results = db_->ExecuteScript(
      "create parts (id = i4, qty = i4);"
      "append to parts (id = 1, qty = 5);"
      "range of p is parts;"
      "retrieve (p.id, p.qty)");
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->size(), 4u);
  EXPECT_NE((*results)[0].message.find("created"), std::string::npos);
  EXPECT_EQ((*results)[1].affected, 1);
  EXPECT_EQ((*results)[3].result.num_rows(), 1u);
}

TEST_F(DatabaseTest, ExecuteIsLastResultOfScript) {
  auto r = db_->Execute(
      "create parts (id = i4);"
      "append to parts (id = 7);"
      "range of p is parts;"
      "retrieve (p.id)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->result.num_rows(), 1u);
  EXPECT_EQ(r->result.rows[0][0].AsInt(), 7);
}

TEST_F(DatabaseTest, ScriptErrorCarriesStatementContext) {
  const std::string script =
      "create parts (id = i4);"
      "range of p is nonexistent";
  Status s = db_->ExecuteScript(script).status();
  ASSERT_FALSE(s.ok());
  ASSERT_NE(s.statement_context(), nullptr);
  EXPECT_EQ(s.statement_context()->statement_index, 2);
  EXPECT_EQ(s.statement_context()->source_offset,
            script.find("range of p"));
  EXPECT_NE(s.ToString().find("(statement 2, offset"), std::string::npos)
      << s.ToString();
  // Statement 1 ran before the failure.
  EXPECT_NE(db_->catalog()->Find("parts"), nullptr);
}

TEST_F(DatabaseTest, ParseErrorCarriesStatementContext) {
  const std::string script =
      "create parts (id = i4);"
      "banana split";
  Status s = db_->Execute(script).status();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  ASSERT_NE(s.statement_context(), nullptr);
  EXPECT_EQ(s.statement_context()->statement_index, 2);
  EXPECT_EQ(s.statement_context()->source_offset, script.find("banana"));
}

TEST_F(DatabaseTest, SingleStatementErrorContextIsStatementOne) {
  Status s = ExecErr("retrieve (zz.id)");
  ASSERT_NE(s.statement_context(), nullptr);
  EXPECT_EQ(s.statement_context()->statement_index, 1);
  EXPECT_EQ(s.statement_context()->source_offset, 0u);
}

TEST(DatabaseDurabilityTest, JournaledExecutionMatchesUnjournaled) {
  auto run = [](DurabilityMode mode) {
    MemEnv env;
    DatabaseOptions options;
    options.env = &env;
    options.durability = mode;
    auto db = Database::Open("/db", options);
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    auto results = (*db)->ExecuteScript(
        "create persistent emp (name = c8, sal = i4);"
        "append to emp (name = \"ada\", sal = 100);"
        "append to emp (name = \"bob\", sal = 200);"
        "range of e is emp;"
        "replace e (sal = e.sal + 10) where e.name = \"ada\";"
        "retrieve (e.name, e.sal) sort by name");
    EXPECT_TRUE(results.ok()) << results.status().ToString();
    return results.ok() ? results->back().result.ToString() : std::string();
  };
  std::string off = run(DurabilityMode::kOff);
  EXPECT_EQ(run(DurabilityMode::kJournal), off);
  EXPECT_EQ(run(DurabilityMode::kJournalSync), off);
  EXPECT_FALSE(off.empty());
}

TEST(DatabaseDurabilityTest, FailedStatementRollsBackAndReportsContext) {
  MemEnv env;
  DatabaseOptions options;
  options.env = &env;
  options.durability = DurabilityMode::kJournal;
  auto db = Database::Open("/db", options);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->Execute("create parts (id = i4)").ok());
  ASSERT_TRUE((*db)->Execute("append to parts (id = 1)").ok());

  // Statement 2 fails after statement 1 mutated: the script error names
  // statement 2 and statement 1's append stays committed.
  Status s = (*db)
                 ->ExecuteScript(
                     "append to parts (id = 2);"
                     "append to nonexistent (id = 3)")
                 .status();
  ASSERT_FALSE(s.ok());
  ASSERT_NE(s.statement_context(), nullptr);
  EXPECT_EQ(s.statement_context()->statement_index, 2);

  ASSERT_TRUE((*db)->Execute("range of p is parts").ok());
  auto rows = (*db)->Query("retrieve (p.id)");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->num_rows(), 2u);
}

// An invalid page size is refused before anything is written, so the
// directory is still a fresh database afterwards.
TEST(DatabaseStorageMetaTest, RefusedPageSizeLeavesNoLayoutBehind) {
  MemEnv env;
  DatabaseOptions bad;
  bad.env = &env;
  bad.page_size = 1000;
  auto refused = Database::Open("/db", bad);
  ASSERT_FALSE(refused.ok());
  EXPECT_NE(refused.status().ToString().find("page size 1000"),
            std::string::npos);

  DatabaseOptions defaults;
  defaults.env = &env;
  auto db = Database::Open("/db", defaults);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_TRUE((*db)->Execute("create parts (id = i4)").ok());
}

// A database created with the paper layout keeps its 1024-byte pages when
// reopened with another page size: the layout belongs to the directory.
TEST(DatabaseStorageMetaTest, PaperDirectoryKeepsItsPageSizeOnReopen) {
  MemEnv env;
  DatabaseOptions paper;
  paper.env = &env;
  {
    auto db = Database::Open("/db", paper);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    std::string script = "create parts (id = i4, name = c12)";
    for (int i = 0; i < 100; ++i) {
      script += ";append to parts (id = " + std::to_string(i) +
                ", name = \"p" + std::to_string(i) + "\")";
    }
    ASSERT_TRUE((*db)->ExecuteScript(script).ok());
  }
  DatabaseOptions production = paper;
  production.page_size = 4096;
  for (int reopen = 0; reopen < 2; ++reopen) {
    auto db = Database::Open("/db", reopen == 0 ? production : paper);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE((*db)->Execute("range of p is parts").ok());
    auto rows = (*db)->Query("retrieve (n = count(p.id))");
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    EXPECT_EQ(rows->rows[0][0].AsInt(), 100);
  }
  EXPECT_FALSE(env.FileExists("/db/storage"));
}

}  // namespace
}  // namespace tdb
