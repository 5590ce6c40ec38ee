// Golden page-I/O regression test: locks the paper metrics (input/output
// page counts for Q01..Q12) for all eight test databases at update counts
// 0, 5 and 15.  Any execution-layer change that alters a page access —
// however it performs on wall-clock — fails here.
//
// The table was captured from the seed implementation (the same numbers
// the fig07/fig08 binaries print).  It must be regenerated ONLY when a
// deliberate storage/planner change moves the modeled counts, never to
// absorb an accidental executor regression.
//
// The test runs the compiled-expression path (the default).  The AST
// fallback's page counts are covered by fig07 under TDB_COMPILED_EXPR=0,
// whose stdout the sanitizer CI job compares with the compiled run.

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "benchlib/workload.h"

namespace tdb {
namespace bench {
namespace {

struct GoldenRow {
  DbType type;
  int fillfactor;
  int uc;
  int qnum;
  uint64_t input_pages;
  uint64_t output_pages;
};

// clang-format off
const GoldenRow kGolden[] = {
#include "paper_metrics_golden.inc"
};
// clang-format on

TEST(PaperMetricsTest, GoldenPageCounts) {
  BenchmarkDb* bench = nullptr;
  std::unique_ptr<BenchmarkDb> owned;
  DbType cur_type = DbType::kStatic;
  int cur_ff = -1;

  for (const GoldenRow& row : kGolden) {
    if (bench == nullptr || row.type != cur_type || row.fillfactor != cur_ff) {
      WorkloadConfig config;
      config.type = row.type;
      config.fillfactor = row.fillfactor;
      auto created = BenchmarkDb::Create(config);
      ASSERT_TRUE(created.ok()) << created.status().ToString();
      owned = std::move(created).value();
      bench = owned.get();
      cur_type = row.type;
      cur_ff = row.fillfactor;
    }
    ASSERT_LE(bench->update_count(), row.uc)
        << "golden rows must be ordered by update count within a config";
    while (bench->update_count() < row.uc) {
      ASSERT_TRUE(bench->UniformUpdateRound().ok());
    }
    auto m = bench->RunQuery(row.qnum);
    ASSERT_TRUE(m.ok()) << m.status().ToString();
    SCOPED_TRACE(testing::Message()
                 << DbTypeName(row.type) << " ff=" << row.fillfactor
                 << " uc=" << row.uc << " Q" << row.qnum);
    EXPECT_EQ(m->input_pages, row.input_pages);
    EXPECT_EQ(m->output_pages, row.output_pages);
  }
}

// Page counts must not depend on how often a query ran (buffers are dropped
// per measurement), so a repeated measurement is bit-stable.
TEST(PaperMetricsTest, RepeatedMeasurementIsStable) {
  WorkloadConfig config;
  config.type = DbType::kTemporal;
  config.fillfactor = 100;
  auto created = BenchmarkDb::Create(config);
  ASSERT_TRUE(created.ok());
  auto bench = std::move(created).value();
  auto first = bench->RunQuery(7);
  ASSERT_TRUE(first.ok());
  auto second = bench->RunQuery(7);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->input_pages, second->input_pages);
  EXPECT_EQ(first->output_pages, second->output_pages);
}

// The key compares of Q09 and Q10 (the keyed-probe joins) on the paper
// database — temporal, 100% loading, update count 15 — are as deterministic
// as their page counts: every probe compares each stored key of the chain
// or page group it reads exactly once.  Pinned at both page sizes.
TEST(PaperMetricsTest, KeyComparesOfTheKeyedJoins) {
  struct Pinned {
    uint32_t page_size;
    uint64_t q09;
    uint64_t q10;
  };
  for (const Pinned& pinned :
       {Pinned{1024, 253952, 261120}, Pinned{4096, 1015808, 1020928}}) {
    SCOPED_TRACE(testing::Message() << "page size " << pinned.page_size);
    WorkloadConfig config;
    config.type = DbType::kTemporal;
    config.fillfactor = 100;
    config.page_size = pinned.page_size;
    auto created = BenchmarkDb::Create(config);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    auto bench = std::move(created).value();
    while (bench->update_count() < 15) {
      ASSERT_TRUE(bench->UniformUpdateRound().ok());
    }
    auto compares_of = [&](int qnum) -> uint64_t {
      const uint64_t before =
          bench->db()->Snapshot().counter("storage.key_compares");
      auto m = bench->RunQuery(qnum);
      EXPECT_TRUE(m.ok()) << m.status().ToString();
      return bench->db()->Snapshot().counter("storage.key_compares") - before;
    };
    EXPECT_EQ(compares_of(9), pinned.q09);
    EXPECT_EQ(compares_of(10), pinned.q10);
    // A second run compares exactly as much again.
    EXPECT_EQ(compares_of(9), pinned.q09);
  }
}

}  // namespace
}  // namespace bench
}  // namespace tdb
