// Differential executor fuzz harness: seeded random TQuel retrieves over
// small generated temporal databases, each executed eight ways — compiled
// expressions vs the AST-walking Evaluator, crossed with durability off vs
// the rollback journal, crossed with the vectorized (morsel) engine vs
// tuple-at-a-time — asserting byte-identical result sets.  Any divergence
// pinpoints a semantic bug in exactly one layer (expression compiler,
// journal write path, batch kernels, or executor), which is why this
// harness guards the observability and vectorization PRs: instrumentation
// and batching must never change results.
//
// Each variant is its own database, opened with that engine configuration
// and built by the same seeded statement stream, so the generated DML runs
// under every variant too.  After every seed the metric invariants are
// checked on all eight databases:
// buffer requests == hits + misses, misses == physical reads per file, and
// journal commits == batches with zero rollbacks on a clean run.
//
// Seed count defaults to 25 and is raised in CI via TDB_DIFF_SEEDS (the
// sanitizer job runs 100 under ASan).

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/database.h"
#include "env/env.h"
#include "obs/metrics.h"
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

struct Instance {
  std::unique_ptr<MemEnv> env;
  std::unique_ptr<Database> db;
};

/// Builds one database instance from `seed`: two interval relations with
/// seed-dependent organizations, a seeded tuple population, and a few
/// update/delete rounds so history chains and (for 50%-style layouts)
/// overflow pages exist.  Every variant replays the identical statement
/// sequence, so the page images they query are the same.
Instance MakeInstance(uint64_t seed, DurabilityMode durability, bool vec,
                      bool compiled) {
  Instance inst;
  inst.env = std::make_unique<MemEnv>();
  DatabaseOptions options;
  options.env = inst.env.get();
  options.durability = durability;
  options.vector_exec = vec;
  options.compiled_expr = compiled;
  auto db = Database::Open("/db", options);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  if (!db.ok()) return inst;
  inst.db = std::move(db).value();
  Database* d = inst.db.get();

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

  // Seed-dependent physical layout: organizations change access paths
  // (keyed probe / ISAM range / scan), which is exactly the variation the
  // differential runs should agree across.
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
  if (rng.Uniform(2) == 0) {
    exec("index on hrel is am_idx (amount) with structure = hash");
  }

  // Update and delete rounds create history versions and tombstones.
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
  return inst;
}

/// Random scalar comparison on `var` (id/amount attributes, small
/// arithmetic), guaranteed valid — no division, no overflow at i4 scale.
std::string GenComparison(Random& rng, const std::string& var) {
  const char* attr = rng.Uniform(2) == 0 ? "id" : "amount";
  const char* op = nullptr;
  switch (rng.Uniform(6)) {
    case 0: op = "="; break;
    case 1: op = "!="; break;
    case 2: op = "<"; break;
    case 3: op = "<="; break;
    case 4: op = ">"; break;
    default: op = ">="; break;
  }
  std::string lhs = var + "." + attr;
  if (rng.Uniform(3) == 0) {
    lhs = StrPrintf("%s + %d", lhs.c_str(), static_cast<int>(rng.Uniform(5)));
  } else if (rng.Uniform(4) == 0) {
    lhs = StrPrintf("%s * 2", lhs.c_str());
  }
  return StrPrintf("%s %s %d", lhs.c_str(), op,
                   static_cast<int>(rng.Uniform(60)));
}

/// Random where clause: one to three comparisons joined by and/or, with an
/// occasional not — exercising the compiler's short-circuit jumps.
std::string GenWhere(Random& rng, const std::string& var) {
  std::string out = GenComparison(rng, var);
  int extra = static_cast<int>(rng.Uniform(3));
  for (int i = 0; i < extra; ++i) {
    const char* join = rng.Uniform(2) == 0 ? " and " : " or ";
    out += join + GenComparison(rng, var);
  }
  if (rng.Uniform(5) == 0) out = "not (" + out + ")";
  return out;
}

/// Random one-variable retrieve over h or i; occasionally a two-variable
/// substitution join.  Never `into` (executions must not mutate state).
std::string GenQuery(Random& rng) {
  if (rng.Uniform(5) == 0) {
    // Join shape: equality conjunct makes one side a keyed/scan inner.
    std::string q = "retrieve (h.id, i.amount) where h.id = i.id";
    if (rng.Uniform(2) == 0) q += " and " + GenComparison(rng, "h");
    if (rng.Uniform(2) == 0) q += " when h overlap i";
    return q;
  }
  std::string var = rng.Uniform(2) == 0 ? "h" : "i";
  std::string q;
  if (var == "h" && rng.Uniform(6) == 0) {
    q = "retrieve (h.id, n = count(h.amount))";  // aggregate fallback path
  } else if (var == "h") {
    q = StrPrintf("retrieve (h.id, x = h.amount + %d, h.tag)",
                  static_cast<int>(rng.Uniform(7)));
  } else {
    q = "retrieve (i.id, i.amount)";
  }
  if (rng.Uniform(4) != 0) q += " where " + GenWhere(rng, var);
  switch (rng.Uniform(5)) {
    case 0:
      q += " when " + var + " overlap \"now\"";
      break;
    case 1:
      q += " when start of " + var + " precede \"now\"";
      break;
    case 2:
      q += " when not " + var + " overlap \"forever\"";
      break;
    default:
      break;
  }
  if (rng.Uniform(4) == 0) q += " as of \"now\"";
  if (rng.Uniform(6) == 0) q += " sort by id desc";
  return q;
}

void CheckMetricInvariants(Database* db, bool journaled) {
  obs::MetricsSnapshot snap = db->Snapshot();
  size_t files = 0;
  for (const auto& [name, value] : snap.counters) {
    const std::string prefix = "bufpool.";
    const std::string suffix = ".requests";
    if (name.rfind(prefix, 0) != 0) continue;
    if (name.size() < prefix.size() + suffix.size() ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
      continue;
    }
    std::string file = name.substr(
        prefix.size(), name.size() - prefix.size() - suffix.size());
    ++files;
    SCOPED_TRACE(file);
    EXPECT_EQ(value, snap.counter("bufpool." + file + ".hits") +
                         snap.counter("bufpool." + file + ".misses"));
    EXPECT_EQ(snap.counter("bufpool." + file + ".misses"),
              snap.counter("pager." + file + ".read_pages"));
  }
  EXPECT_GT(files, 0u);
  if (journaled) {
    EXPECT_GT(snap.counter("journal.batches"), 0u);
    EXPECT_EQ(snap.counter("journal.commits"),
              snap.counter("journal.batches"));
    EXPECT_EQ(snap.counter("journal.rollbacks"), 0u);
  }
}

TEST(DifferentialTest, EightWayExecutionAgrees) {
  int seeds = NumSeeds();
  int queries_checked = 0;
  for (int seed = 1; seed <= seeds; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    // {vectorized, tuple} x {compiled, ast} x {off, journal}.
    std::vector<Instance> variants;
    for (bool vec : {true, false}) {
      for (bool compiled : {true, false}) {
        for (DurabilityMode durability :
             {DurabilityMode::kOff, DurabilityMode::kJournal}) {
          variants.push_back(MakeInstance(seed, durability, vec, compiled));
          ASSERT_NE(variants.back().db, nullptr);
        }
      }
    }

    // A separate query stream, so adding a data-generation step never
    // shifts which queries a seed runs.
    Random qrng(seed * 0x9E3779B9ULL + 1);
    for (int qi = 0; qi < 12; ++qi) {
      std::string text = GenQuery(qrng);
      SCOPED_TRACE(text);
      std::vector<std::string> renderings;
      for (Instance& inst : variants) {
        auto r = inst.db->Execute(text);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        renderings.push_back(r->result.ToString(TimeResolution::kSecond) +
                             StrPrintf("(%zu rows)", r->result.num_rows()));
      }
      ASSERT_EQ(renderings.size(), 8u);
      // Everything must agree with the first rendering.
      for (size_t i = 1; i < renderings.size(); ++i) {
        EXPECT_EQ(renderings[0], renderings[i]) << "variant " << i;
      }
      ++queries_checked;
    }
    for (size_t i = 0; i < variants.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "variant " << i);
      CheckMetricInvariants(variants[i].db.get(), /*journaled=*/i % 2 == 1);
    }
  }
  EXPECT_EQ(queries_checked, seeds * 12);
}

}  // namespace
}  // namespace tdb
