// Differential battery for the shared plan cache over the paper's eight
// benchmark databases (static / rollback / historical / temporal, each at
// fillfactor 100 and 50): every applicable query Q01..Q12 runs on four
// twin instances — plan cache off/on crossed with executor threads 1/4 —
// and all four must report identical rows AND identical per-file page
// I/O.  A cache hit (or a parallel scan) may change CPU cost, never
// results and never the paper's page counts; this is the test that keeps
// the 196-row golden table honest with the cache enabled.
//
// Each instance replays the same update rounds, and queries run twice per
// instance so the second execution of the cache-on twins is a genuine
// cache hit (the first populates).
//
// A second battery runs retrieves that differ only in numeric literals —
// the texts the cache-on twin runs as implicit prepared statements —
// between DML and DDL, from two sessions that bind one variable name to
// different relations, against a twin that re-plans every execution.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "benchlib/workload.h"
#include "core/database.h"
#include "env/env.h"
#include "exec/planner.h"
#include "util/stringx.h"

namespace tdb {
namespace bench {
namespace {

struct Variant {
  const char* label;
  bool plan_cache;
  int exec_threads;
};

const Variant kVariants[] = {
    {"cache-off/1t", false, 1},
    {"cache-on/1t", true, 1},
    {"cache-off/4t", false, 4},
    {"cache-on/4t", true, 4},
};

TEST(PlanCacheDifferentialTest, EightDatabasesFourVariantsAgree) {
  const DbType types[] = {DbType::kStatic, DbType::kRollback,
                          DbType::kHistorical, DbType::kTemporal};
  for (DbType type : types) {
    for (int ff : {100, 50}) {
      SCOPED_TRACE(testing::Message()
                   << DbTypeName(type) << " ff=" << ff);
      // Build the four twins: identical schema, population, and update
      // history — only the cache and thread knobs differ.
      std::vector<std::unique_ptr<BenchmarkDb>> dbs;
      for (const Variant& v : kVariants) {
        WorkloadConfig config;
        config.type = type;
        config.fillfactor = ff;
        config.ntuples = 256;  // smaller than paper scale: 32 runs below
        config.plan_cache = v.plan_cache;
        config.exec_threads = v.exec_threads;
        auto created = BenchmarkDb::Create(config);
        ASSERT_TRUE(created.ok()) << created.status().ToString();
        for (int round = 0; round < 3; ++round) {
          ASSERT_TRUE((*created)->UniformUpdateRound().ok());
        }
        dbs.push_back(std::move(created).value());
      }

      for (int qnum = 1; qnum <= 12; ++qnum) {
        if (dbs[0]->QueryText(qnum).empty()) continue;
        SCOPED_TRACE(testing::Message() << "Q" << qnum);
        // Two executions per twin: the second one hits the cache where
        // it is enabled.  Both must match the cache-off baseline.
        for (int round = 0; round < 2; ++round) {
          std::vector<std::string> renderings;
          for (size_t i = 0; i < dbs.size(); ++i) {
            auto m = dbs[i]->RunQuery(qnum);
            ASSERT_TRUE(m.ok())
                << kVariants[i].label << ": " << m.status().ToString();
            renderings.push_back(StrPrintf(
                "rows=%llu in=%llu out=%llu",
                static_cast<unsigned long long>(m->rows),
                static_cast<unsigned long long>(m->input_pages),
                static_cast<unsigned long long>(m->output_pages)));
          }
          for (size_t i = 1; i < renderings.size(); ++i) {
            EXPECT_EQ(renderings[0], renderings[i])
                << kVariants[i].label << " diverged on round " << round;
          }
        }
      }
    }
  }
}

// --- literal variants against re-planning ------------------------------------

/// One database of a twin pair, with two client sessions.
struct Twin {
  explicit Twin(bool plan_cache) {
    DatabaseOptions options;
    options.env = &env;
    options.plan_cache = plan_cache;
    db = Database::Open("/db", options).value();
    s1 = db->CreateSession();
    s2 = db->CreateSession();
  }
  MemEnv env;
  std::unique_ptr<Database> db;
  std::unique_ptr<Session> s1, s2;
};

/// What one statement showed its session: the error, or the row multiset
/// (sorted renderings) and the page I/O of every file it touched.
std::string Outcome(Session* session, const std::string& text) {
  session->io()->ResetAll();
  auto r = session->Execute(text);
  if (!r.ok()) return "error: " + r.status().ToString();
  std::vector<std::string> rows;
  for (const Row& row : r->result.rows) {
    std::string line;
    for (const Value& v : row) line += v.ToString() + "|";
    rows.push_back(line);
  }
  std::sort(rows.begin(), rows.end());
  std::string out = StrPrintf("affected=%lld rows:",
                              static_cast<long long>(r->affected));
  for (const std::string& line : rows) out += " " + line;
  out += " io:";
  for (const auto& [file, c] : session->io()->by_file()) {
    if (c->TotalReads() + c->TotalWrites() == 0) continue;
    out += StrPrintf(" %s=%llu/%llu", file.c_str(),
                     static_cast<unsigned long long>(c->TotalReads()),
                     static_cast<unsigned long long>(c->TotalWrites()));
  }
  return out;
}

std::string Populate(const std::string& rel, int salt) {
  std::string script =
      "create persistent interval " + rel +
      " (id = i4, amount = i4, small = i1, mid = i2, price = f8)\n";
  for (int k = 0; k < 24; ++k) {
    const int small = k % 3 == 0 ? 127 : k % 3 == 1 ? -128 : k - 12;
    const int mid = k % 4 == 0 ? 32767 : k % 4 == 1 ? -32768 : k * salt;
    script += StrPrintf(
        "append to %s (id = %d, amount = %d, small = %d, mid = %d, "
        "price = %d.5)\n",
        rel.c_str(), k, (k * 7 + salt) % 11 - 5, small, mid, k % 5);
  }
  return script;
}

TEST(PlanCacheDifferentialTest, LiteralVariantsMatchReplanning) {
  Twin on(true), off(false);
  for (Twin* t : {&on, &off}) {
    ASSERT_TRUE(t->db->ExecuteScript(Populate("acct", 3)).ok());
    ASSERT_TRUE(t->db->ExecuteScript(Populate("other", 5)).ok());
    // One variable name, a different relation in each session.
    ASSERT_TRUE(t->s1->Execute("range of a is acct").ok());
    ASSERT_TRUE(t->s2->Execute("range of a is other").ok());
  }
  // Texts that differ only in numeric literals: negatives, an int and a
  // float in one slot, i1 and i2 bounds and one past them, and one text
  // with other spacing.
  const std::vector<std::string> reads = {
      "retrieve (a.id, a.amount) where a.amount = -5",
      "retrieve (a.id, a.amount) where a.amount = 3",
      "retrieve (a.id, a.amount) where a.amount=3",
      "retrieve  (a.id,a.amount)   where a.amount =   -2",
      "retrieve (a.id) where a.amount >= -3 and a.amount <= 2",
      "retrieve (a.id) where a.amount >= -3.5 and a.amount <= 2",
      "retrieve (a.id) where a.amount > 2.5",
      "retrieve (a.id) where a.amount > 2",
      "retrieve (a.id, a.small) where a.small = 127",
      "retrieve (a.id, a.small) where a.small = -128",
      "retrieve (a.id, a.small) where a.small = 128",
      "retrieve (a.id, a.mid) where a.mid = 32767",
      "retrieve (a.id, a.mid) where a.mid = -32768",
      "retrieve (a.id, a.mid) where a.mid >= -32769 and a.mid < 0",
      "retrieve (a.id, a.price) where a.price = 2.5 or a.id = 7",
      "retrieve (a.id) where a.id = 4 when a overlap \"now\"",
      "retrieve (a.id) where a.id = 4",
  };
  // Writes and DDL between rounds of reads; `@` runs on the database's
  // default session, the others on both client sessions.
  const std::vector<std::string> steps = {
      "",
      "append to acct (id = 30, amount = -5, small = 127, mid = 32767, "
      "price = 2.5)",
      "replace a (amount = a.amount + 1) where a.id = 3",
      "delete a where a.id = 4",
      "@index on acct is acct_amount (amount)",
      "replace a (amount = -5) where a.amount = 3",
      "@modify acct to hash on small",
      "@modify other to isam on mid",
      "delete a where a.small = -128",
      "@destroy other",
      "@" + Populate("other", 7),
      "@modify acct to isam on amount",
  };
  auto session = [](Twin& t, int s) {
    return s == 0 ? t.s1.get() : t.s2.get();
  };
  for (const std::string& step : steps) {
    SCOPED_TRACE("after: " + step);
    if (!step.empty() && step[0] == '@') {
      ASSERT_TRUE(on.db->ExecuteScript(step.substr(1)).ok()) << step;
      ASSERT_TRUE(off.db->ExecuteScript(step.substr(1)).ok()) << step;
    } else if (!step.empty()) {
      for (int s = 0; s < 2; ++s) {
        EXPECT_EQ(Outcome(session(on, s), step),
                  Outcome(session(off, s), step));
      }
    }
    for (int round = 0; round < 2; ++round) {
      for (const std::string& text : reads) {
        for (int s = 0; s < 2; ++s) {
          SCOPED_TRACE(StrPrintf("session %d: ", s + 1) + text);
          const std::string want = Outcome(session(off, s), text);
          EXPECT_EQ(Outcome(session(on, s), text), want);
        }
      }
    }
  }
  // The cache-on twin ran the literal variants as implicit statements.
  EXPECT_GT(on.db->Snapshot().counter("plancache.hits"), 0u);
}

TEST(PlanCacheDifferentialTest, NormalizedFilterCompilesLikeItsLiteral) {
  // The normalized text's filter reads `a.amount = $1`; bound per
  // execution, it must lower to as many compiled programs as the literal
  // text's plan, or it would fall back to the AST walker.
  Twin on(true), off(false);
  const std::string text = "retrieve (a.id) where a.amount = 69400";
  auto programs = [&](Twin& t) -> size_t {
    auto r = t.s1->Execute(text);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok() || r->plan == nullptr) return 0;
    size_t n = 0;
    ForEachCompiledProgram(*r->plan, [&](const CompiledProgram&) { ++n; });
    return n;
  };
  for (Twin* t : {&on, &off}) {
    ASSERT_TRUE(t->db->ExecuteScript(Populate("acct", 3)).ok());
    ASSERT_TRUE(t->s1->Execute("range of a is acct").ok());
  }
  const size_t literal = programs(off);
  EXPECT_GT(literal, 0u);
  EXPECT_EQ(programs(on), literal);  // prepares the shape
  const uint64_t hits = on.db->Snapshot().counter("plancache.hits");
  EXPECT_EQ(programs(on), literal);  // a cache hit
  EXPECT_EQ(on.db->Snapshot().counter("plancache.hits"), hits + 1);
}

}  // namespace
}  // namespace bench
}  // namespace tdb
