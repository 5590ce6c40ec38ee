// Join-method differential harness: the vectorization fuzz extended with a
// join-method axis.  Every seeded join query runs under all five planner
// methods (paper substitution, forced nested loop, batched hash, sort/merge
// interval, cost-based auto) crossed with the vectorized vs tuple engines.
//
// Two invariants, deliberately different in strength:
//   * WITHIN one method, the vectorized and tuple runs must be
//     byte-identical — rows in the same order AND the per-node IoCounters
//     reported by `explain analyze` (batching never changes semantics or
//     I/O attribution, the PR-5 guarantee carried over to the new
//     operators).
//   * ACROSS methods, the row multiset must agree (compared as sorted
//     renderings): a hash join and a merge sweep legitimately emit pairs
//     in different orders, but never different pairs.
//
// A third axis — 1, 2, and 4 executor threads — pins the morsel-
// parallelism contract on top: within one method the vectorized engine
// must return byte-identical rows (and, in the seeded fuzz, identical
// analyzed per-node stats) at every thread count.
//
// A second sweep replays the join queries of the eight paper databases
// (4 database types x 2 fillfactors) under every method, and a unit test
// pins the advisory-only stats contract: wildly wrong cached statistics
// may flip the chosen plan but can never change results, and any append
// invalidates the cache.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <regex>
#include <string>
#include <vector>

#include "benchlib/workload.h"
#include "catalog/catalog.h"
#include "core/database.h"
#include "env/env.h"
#include "exec/join_method.h"
#include "util/random.h"
#include "util/stringx.h"

namespace tdb {
namespace {

int NumSeeds() {
  if (const char* env = std::getenv("TDB_DIFF_SEEDS")) {
    long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<int>(v);
  }
  return 25;
}

constexpr JoinMethod kAllMethods[] = {
    JoinMethod::kPaper, JoinMethod::kNestedLoop, JoinMethod::kHash,
    JoinMethod::kMerge, JoinMethod::kAuto,
};

/// Sorts the lines of a result rendering: the row-multiset view, order-
/// insensitive.  Header/separator lines are identical across variants, so
/// whole-rendering sorted-line equality is exactly multiset equality.
std::string SortedLines(const std::string& rendering) {
  std::vector<std::string> lines = Split(rendering, '\n');
  std::sort(lines.begin(), lines.end());
  return Join(lines, "\n");
}

/// Masks wall-clock times in an `explain analyze` rendering, leaving the
/// deterministic parts — structure, loops, rows, est, and the per-node
/// IoCounters — intact for byte comparison.
std::string MaskTimes(const std::string& text) {
  static const std::regex kTime("time=[0-9]+\\.[0-9]{3}ms");
  return std::regex_replace(text, kTime, "time=*");
}

/// Opens the test database at /db on `env` under `options`, with the
/// logical clock at `now` and the h/i range declarations every query here
/// uses.  Null on failure.
std::unique_ptr<Database> OpenAt(Env* env, DatabaseOptions options,
                                 TimePoint now) {
  options.env = env;
  auto db = Database::Open("/db", options);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  if (!db.ok()) return nullptr;
  std::unique_ptr<Database> d = std::move(db).value();
  d->SetNow(now);
  auto ranges = d->ExecuteScript("range of h is hrel; range of i is irel");
  EXPECT_TRUE(ranges.ok()) << ranges.status().ToString();
  return ranges.ok() ? std::move(d) : nullptr;
}

/// A generated database, closed after the build: each engine configuration
/// opens the same files again.
struct Instance {
  std::unique_ptr<MemEnv> env;
  TimePoint now;  // the logical clock when the build finished

  std::unique_ptr<Database> Open(JoinMethod method, bool vec,
                                 int threads) const {
    DatabaseOptions options;
    options.join_method = method;
    options.vector_exec = vec;
    options.exec_threads = threads;
    return OpenAt(env.get(), options, now);
  }
};

/// Seeded database: the differential_test generator, join-focused — two
/// interval relations with seed-dependent organizations and history rounds,
/// so forced methods face keyed, ISAM, and heap sides alike.  The env is
/// null when the build fails.
Instance MakeInstance(uint64_t seed) {
  Instance inst;
  inst.env = std::make_unique<MemEnv>();
  DatabaseOptions options;
  options.env = inst.env.get();
  auto db = Database::Open("/db", options);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  if (!db.ok()) {
    inst.env.reset();
    return inst;
  }
  Database* d = db->get();

  auto exec = [&](const std::string& text) {
    auto r = d->Execute(text);
    ASSERT_TRUE(r.ok()) << text << " -> " << r.status().ToString();
  };

  Random rng(seed);
  exec("create persistent interval hrel (id = i4, amount = i4, tag = c8)");
  exec("create persistent interval irel (id = i4, amount = i4)");
  exec("range of h is hrel");
  exec("range of i is irel");

  int nrows = 20 + static_cast<int>(rng.Uniform(30));
  for (int t = 0; t < nrows; ++t) {
    exec(StrPrintf("append to hrel (id = %d, amount = %d, tag = \"%s\")", t,
                   static_cast<int>(rng.Uniform(50)),
                   rng.NextString(4).c_str()));
    exec(StrPrintf("append to irel (id = %d, amount = %d)", t,
                   static_cast<int>(rng.Uniform(50))));
    if (rng.Uniform(4) == 0) d->AdvanceSeconds(60);
  }

  switch (rng.Uniform(3)) {
    case 0:
      exec("modify hrel to hash on id where fillfactor = 100");
      break;
    case 1:
      exec("modify hrel to isam on id where fillfactor = 50");
      break;
    default:
      break;  // heap
  }
  if (rng.Uniform(2) == 0) {
    exec("modify irel to hash on id where fillfactor = 100");
  }

  // History rounds: interval joins must sweep closed versions too.
  int rounds = 1 + static_cast<int>(rng.Uniform(3));
  for (int round = 0; round < rounds; ++round) {
    d->AdvanceSeconds(3600);
    exec(StrPrintf("replace h (amount = h.amount + %d) where h.id < %d",
                   static_cast<int>(rng.Uniform(9)) + 1,
                   static_cast<int>(rng.Uniform(nrows))));
    if (rng.Uniform(2) == 0) {
      exec(StrPrintf("delete h where h.id = %d",
                     static_cast<int>(rng.Uniform(nrows))));
    }
  }
  d->AdvanceSeconds(60);
  inst.now = d->now();
  return inst;
}

/// Random two-variable query: equality joins (hash-eligible), overlap
/// joins (merge-eligible), and mixes with residual cross conjuncts and
/// single-variable restrictions — the partitioning paths of the planner.
std::string GenJoinQuery(Random& rng) {
  if (rng.Uniform(3) == 0) {
    // Pure temporal join: no equality, the interval sweep's home turf.
    std::string q = "retrieve (h.id, i.id) when h overlap i";
    if (rng.Uniform(2) == 0) {
      q = StrPrintf("retrieve (h.id, i.id) where h.amount < %d when "
                    "h overlap i",
                    static_cast<int>(rng.Uniform(40)) + 5);
    }
    return q;
  }
  std::string q = "retrieve (h.id, i.amount) where h.id = i.id";
  if (rng.Uniform(2) == 0) {
    q += StrPrintf(" and h.amount + %d < %d",
                   static_cast<int>(rng.Uniform(5)),
                   static_cast<int>(rng.Uniform(50)) + 10);
  }
  if (rng.Uniform(3) == 0) {
    q += StrPrintf(" and i.amount != %d", static_cast<int>(rng.Uniform(50)));
  }
  if (rng.Uniform(2) == 0) q += " when h overlap i";
  return q;
}

TEST(JoinMethodDifferentialTest, AllMethodsAgree) {
  int seeds = NumSeeds();
  int queries_checked = 0;
  for (int seed = 1; seed <= seeds; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    Instance inst = MakeInstance(seed);
    ASSERT_NE(inst.env, nullptr);

    Random qrng(seed * 0x9E3779B9ULL + 7);
    for (int qi = 0; qi < 6; ++qi) {
      std::string text = GenJoinQuery(qrng);
      SCOPED_TRACE(text);
      std::string baseline_sorted;  // paper-method row multiset
      for (JoinMethod method : kAllMethods) {
        SCOPED_TRACE(JoinMethodName(method));
        std::vector<std::string> rows;     // per vec variant
        std::vector<std::string> analyze;  // per vec variant, times masked
        for (bool vec : {true, false}) {
          auto db = inst.Open(method, vec, /*threads=*/1);
          ASSERT_NE(db, nullptr);
          auto r = db->Execute(text);
          ASSERT_TRUE(r.ok()) << r.status().ToString();
          rows.push_back(r->result.ToString(TimeResolution::kSecond) +
                         StrPrintf("(%zu rows)", r->result.num_rows()));
          auto a = db->Execute("explain analyze " + text);
          ASSERT_TRUE(a.ok()) << a.status().ToString();
          std::string tree;
          for (const auto& row : a->result.rows) {
            tree += row[0].AsString() + "\n";
          }
          analyze.push_back(MaskTimes(tree));
        }
        // Within one method the engines must agree exactly: same rows in
        // the same order, and the same per-node loops/rows/IoCounters in
        // the analyzed plan.
        EXPECT_EQ(rows[0], rows[1]);
        EXPECT_EQ(analyze[0], analyze[1]);
        // Threads axis: the vectorized engine at 2 and 4 workers must match
        // its single-threaded run byte for byte — rows, row order, and the
        // analyzed per-node stats and IoCounters (the chunk-order merge and
        // frame-normalization contract of the parallel scan).
        for (int threads : {2, 4}) {
          SCOPED_TRACE(testing::Message() << threads << " threads");
          auto db = inst.Open(method, /*vec=*/true, threads);
          ASSERT_NE(db, nullptr);
          auto r = db->Execute(text);
          ASSERT_TRUE(r.ok()) << r.status().ToString();
          EXPECT_EQ(rows[0],
                    r->result.ToString(TimeResolution::kSecond) +
                        StrPrintf("(%zu rows)", r->result.num_rows()));
          auto a = db->Execute("explain analyze " + text);
          ASSERT_TRUE(a.ok()) << a.status().ToString();
          std::string tree;
          for (const auto& row : a->result.rows) {
            tree += row[0].AsString() + "\n";
          }
          EXPECT_EQ(analyze[0], MaskTimes(tree));
        }
        // Across methods only the multiset is pinned.
        std::string sorted = SortedLines(rows[0]);
        if (method == JoinMethod::kPaper) {
          baseline_sorted = sorted;
        } else {
          EXPECT_EQ(baseline_sorted, sorted);
        }
      }
      ++queries_checked;
    }
  }
  EXPECT_EQ(queries_checked, seeds * 6);
}

// ---- the eight paper databases ----

/// Every join query the paper workload defines for this database type runs
/// under all five methods; row multisets must agree.  kStatic/kRollback
/// relations carry no valid time, so the forced merge method falls back to
/// the paper plan there — the differential still holds.
TEST(JoinMethodDifferentialTest, MethodsAgreeOnAllPaperDatabases) {
  const DbType types[] = {DbType::kStatic, DbType::kRollback,
                          DbType::kHistorical, DbType::kTemporal};
  for (DbType type : types) {
    for (int fillfactor : {100, 50}) {
      // Page-size axis: the method differential repeats on 4096-byte
      // production pages, and the row multiset is pinned across page sizes
      // too (the baseline map outlives the page-size loop).
      std::map<int, std::string> baselines;
      for (uint32_t page_size : {0u, 4096u}) {
      SCOPED_TRACE(testing::Message()
                   << "type " << static_cast<int>(type) << " ff "
                   << fillfactor << " page " << (page_size ? page_size
                                                           : 1024u));
      bench::WorkloadConfig config;
      config.type = type;
      config.fillfactor = fillfactor;
      config.page_size = page_size;
      auto db = bench::BenchmarkDb::Create(config);
      ASSERT_TRUE(db.ok()) << db.status().ToString();
      ASSERT_TRUE((*db)->UniformUpdateRound().ok());
      ASSERT_TRUE((*db)->UniformUpdateRound().ok());

      for (JoinMethod method : kAllMethods) {
        SCOPED_TRACE(JoinMethodName(method));
        // Threads axis: within one method the result must be byte-
        // identical (same rows, same order) at 1, 2, and 4 executor
        // threads under the vectorized engine — the parallel build,
        // probe, and gather paths merge in chunk order by construction.
        std::map<int, std::string> exact_1thread;  // by query number
        for (int threads : {1, 2, 4}) {
          SCOPED_TRACE(testing::Message() << threads << " threads");
          DatabaseOptions options;
          options.join_method = method;
          options.exec_threads = threads;
          ASSERT_TRUE((*db)->Reopen(options).ok());
          for (int qnum : {9, 10}) {
            std::string text = (*db)->QueryText(qnum);
            if (text.empty()) continue;
            SCOPED_TRACE(testing::Message() << "Q" << qnum << ": " << text);
            auto r = (*db)->db()->Execute(text);
            ASSERT_TRUE(r.ok()) << r.status().ToString();
            std::string exact =
                r->result.ToString(TimeResolution::kSecond) +
                StrPrintf("(%zu rows)", r->result.num_rows());
            if (threads == 1) {
              exact_1thread[qnum] = exact;
            } else {
              EXPECT_EQ(exact_1thread[qnum], exact);
            }
          }
        }
        for (const auto& [qnum, exact] : exact_1thread) {
          SCOPED_TRACE(testing::Message() << "Q" << qnum);
          std::string sorted = SortedLines(exact);
          std::string& baseline = baselines[qnum];
          if (baseline.empty()) {
            baseline = sorted;  // paper method at paper page size
          } else {
            EXPECT_EQ(baseline, sorted);
          }
        }
      }
      }
    }
  }
}

// ---- the stats contract: advisory, never load-bearing ----

class StatsTest : public testing::Test {
 protected:
  void SetUp() override {
    env_ = std::make_unique<MemEnv>();
    DatabaseOptions options;
    options.env = env_.get();
    auto db = Database::Open("/db", options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(db).value();
    Exec("create persistent interval hrel (id = i4, amount = i4)");
    Exec("create persistent interval irel (id = i4, amount = i4)");
    Exec("range of h is hrel");
    Exec("range of i is irel");
    for (int t = 0; t < 24; ++t) {
      Exec(StrPrintf("append to hrel (id = %d, amount = %d)", t, t % 5));
      Exec(StrPrintf("append to irel (id = %d, amount = %d)", t, t % 7));
    }
    db_->AdvanceSeconds(60);
  }

  /// Opens the same files again planning joins with `method`.
  void Reopen(JoinMethod method) {
    const TimePoint now = db_->now();
    db_.reset();
    DatabaseOptions options;
    options.join_method = method;
    db_ = OpenAt(env_.get(), options, now);
    ASSERT_NE(db_, nullptr);
  }

  void Exec(const std::string& text) {
    auto r = db_->Execute(text);
    ASSERT_TRUE(r.ok()) << text << " -> " << r.status().ToString();
  }

  std::string Rows(const std::string& text) {
    auto r = db_->Execute(text);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) return "<error>";
    return SortedLines(r->result.ToString(TimeResolution::kSecond) +
                       StrPrintf("(%zu rows)", r->result.num_rows()));
  }

  std::string Explain(const std::string& text) {
    auto e = db_->Explain(text);
    EXPECT_TRUE(e.ok()) << e.status().ToString();
    return e.ok() ? *e : "<error>";
  }

  std::unique_ptr<MemEnv> env_;
  std::unique_ptr<Database> db_;
};

TEST_F(StatsTest, PaperModeNeverComputesStats) {
  const std::string q = "retrieve (h.id, i.amount) where h.id = i.id";
  Exec(q);  // default method: paper
  EXPECT_EQ(db_->catalog()->FindStats("hrel"), nullptr);
  EXPECT_EQ(db_->catalog()->FindStats("irel"), nullptr);
}

TEST_F(StatsTest, StaleStatsChangePlansNotResults) {
  const std::string q = "retrieve (h.id, i.amount) where h.id = i.id";
  const std::string paper_rows = Rows(q);

  // Warm the cache under cost-based planning; the lazily profiled stats
  // must now be cached and exact.
  Reopen(JoinMethod::kAuto);
  EXPECT_EQ(Rows(q), paper_rows);
  const RelationStats* hs = db_->catalog()->FindStats("hrel");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->rows, 24u);
  EXPECT_EQ(hs->DistinctOr("id", 0), 24u);
  EXPECT_EQ(hs->DistinctOr("amount", 0), 5u);

  // Inject wildly wrong statistics, slanted one way then the other.  The
  // chosen plan flips with the injected cardinalities — stats steer the
  // planner — but the result multiset never moves: stats are advisory.
  RelationStats huge;
  huge.rows = 1000000;
  huge.primary_pages = 4096;
  huge.distinct["id"] = 1000000;
  RelationStats tiny;
  tiny.rows = 2;
  tiny.primary_pages = 1;
  tiny.distinct["id"] = 2;

  db_->catalog()->SetStats("hrel", huge);
  db_->catalog()->SetStats("irel", tiny);
  std::string plan_build_i = Explain(q);
  EXPECT_EQ(Rows(q), paper_rows);

  db_->catalog()->SetStats("hrel", tiny);
  db_->catalog()->SetStats("irel", huge);
  std::string plan_build_h = Explain(q);
  EXPECT_EQ(Rows(q), paper_rows);

  EXPECT_NE(plan_build_i, plan_build_h);
}

TEST_F(StatsTest, DmlInvalidatesStats) {
  Reopen(JoinMethod::kAuto);
  Exec("retrieve (h.id, i.amount) where h.id = i.id");
  ASSERT_NE(db_->catalog()->FindStats("hrel"), nullptr);
  ASSERT_NE(db_->catalog()->FindStats("irel"), nullptr);

  Exec("append to hrel (id = 99, amount = 1)");
  EXPECT_EQ(db_->catalog()->FindStats("hrel"), nullptr);
  // The untouched relation keeps its cache.
  EXPECT_NE(db_->catalog()->FindStats("irel"), nullptr);

  // Recomputation sees the new row.
  Exec("retrieve (h.id, i.amount) where h.id = i.id");
  const RelationStats* hs = db_->catalog()->FindStats("hrel");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->rows, 25u);

  Exec("delete h where h.id = 99");
  EXPECT_EQ(db_->catalog()->FindStats("hrel"), nullptr);

  Exec("modify irel to hash on id where fillfactor = 100");
  EXPECT_EQ(db_->catalog()->FindStats("irel"), nullptr);
}

}  // namespace
}  // namespace tdb
