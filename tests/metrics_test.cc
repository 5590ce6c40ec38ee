// Tests of the observability layer: metric primitives (counter, gauge,
// log2 histogram), the trace ring buffer, registry snapshots and their
// JSON form, the zero-wiring-when-disabled guarantee, and — the paper
// tie-in — exact buffer-pool/pager counts for Q01 and Q07 on the temporal
// database that must agree with the golden page model in
// paper_metrics_golden.inc.

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "benchlib/workload.h"
#include "core/database.h"
#include "env/env.h"
#include "exec/plan.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace tdb {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::MetricsRegistry;
using obs::MetricsSnapshot;
using obs::TraceEvent;
using obs::TraceSink;

// --- Primitives ---------------------------------------------------------

TEST(CounterTest, AddAndIncrement) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(GaugeTest, MovesBothWays) {
  Gauge g;
  g.Set(10);
  g.Add(-3);
  EXPECT_EQ(g.value(), 7);
  g.Add(-10);
  EXPECT_EQ(g.value(), -3);
}

TEST(HistogramTest, BucketOfIsBitWidth) {
  EXPECT_EQ(Histogram::BucketOf(0), 0);
  EXPECT_EQ(Histogram::BucketOf(1), 1);
  EXPECT_EQ(Histogram::BucketOf(2), 2);
  EXPECT_EQ(Histogram::BucketOf(3), 2);
  EXPECT_EQ(Histogram::BucketOf(4), 3);
  EXPECT_EQ(Histogram::BucketOf(1023), 10);
  EXPECT_EQ(Histogram::BucketOf(1024), 11);
  EXPECT_EQ(Histogram::BucketOf(~uint64_t{0}), 64);
}

TEST(HistogramTest, BucketUpperBoundsPartitionTheRange) {
  EXPECT_EQ(Histogram::BucketUpperBound(0), 0u);
  EXPECT_EQ(Histogram::BucketUpperBound(1), 1u);
  EXPECT_EQ(Histogram::BucketUpperBound(2), 3u);
  EXPECT_EQ(Histogram::BucketUpperBound(10), 1023u);
  EXPECT_EQ(Histogram::BucketUpperBound(64), ~uint64_t{0});
  // Every representable value lands in the bucket its upper bound implies.
  for (int i = 1; i < Histogram::kNumBuckets; ++i) {
    EXPECT_EQ(Histogram::BucketOf(Histogram::BucketUpperBound(i)), i);
  }
}

TEST(HistogramTest, RecordAccumulatesCountSumBuckets) {
  Histogram h;
  for (uint64_t v : {0u, 1u, 2u, 3u, 100u}) h.Record(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 106u);
  EXPECT_EQ(h.bucket(0), 1u);  // 0
  EXPECT_EQ(h.bucket(1), 1u);  // 1
  EXPECT_EQ(h.bucket(2), 2u);  // 2, 3
  EXPECT_EQ(h.bucket(7), 1u);  // 100
}

/// A snapshot holding `counts[i]` samples in log2 bucket i.
obs::HistogramSnapshot SnapshotOf(const std::vector<uint64_t>& counts) {
  obs::HistogramSnapshot snap;
  snap.buckets = counts;
  for (uint64_t c : counts) snap.count += c;
  return snap;
}

TEST(HistogramQuantileTest, EmptySnapshotIsZero) {
  obs::HistogramSnapshot empty;
  EXPECT_EQ(empty.Quantile(0), 0u);
  EXPECT_EQ(empty.Quantile(50), 0u);
  EXPECT_EQ(empty.Quantile(100), 0u);
}

TEST(HistogramQuantileTest, ExtremesBoundTheFirstAndLastSample) {
  // Samples 1, 5, 5, 900: buckets 1, 3 (twice) and 10.
  MetricsRegistry registry(/*enabled=*/true);
  Histogram* named = registry.histogram("lat");
  for (uint64_t v : {1u, 5u, 5u, 900u}) named->Record(v);
  const obs::HistogramSnapshot snap = registry.Snapshot().histograms.at("lat");
  ASSERT_EQ(snap.count, 4u);
  EXPECT_EQ(snap.Quantile(0), 1u);       // p=0 selects the first sample
  EXPECT_EQ(snap.Quantile(100), 1023u);  // p=100 bounds the maximum
  EXPECT_EQ(snap.Quantile(-5), 1u);      // clamped to 0
  EXPECT_EQ(snap.Quantile(250), 1023u);  // clamped to 100
}

TEST(HistogramQuantileTest, RankOnABucketEdgeStaysInThatBucket) {
  // Two samples in bucket 1 (value 1), two in bucket 2 (values 2..3).
  const obs::HistogramSnapshot snap = SnapshotOf({0, 2, 2});
  // p=50 ranks the 2nd of 4 samples: the last one of bucket 1.
  EXPECT_EQ(snap.Quantile(50), 1u);
  // Just past the edge the rank is still 2 (2.04 + 0.5 rounds down) ...
  EXPECT_EQ(snap.Quantile(51), 1u);
  // ... and p=63 ranks the 3rd sample, the first of bucket 2.
  EXPECT_EQ(snap.Quantile(63), 3u);
  EXPECT_EQ(snap.Quantile(75), 3u);
}

TEST(MetricsSnapshotTest, ToJsonEscapesControlCharactersInNames) {
  MetricsSnapshot snap;
  snap.counters["a\x01" "b"] = 1;
  snap.counters["q\"t\\n\nl\tt"] = 2;
  const std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"a\\u0001b\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"q\\\"t\\\\n\\nl\\tt\":2"), std::string::npos)
      << json;
  // No raw control character survives.
  for (char c : json) EXPECT_GE(static_cast<unsigned char>(c), 0x20u) << json;
}

// --- Trace sink ----------------------------------------------------------

TEST(TraceSinkTest, RingKeepsOnlyTheTail) {
  TraceSink sink(4);
  for (int i = 0; i < 6; ++i) {
    sink.Record(TraceEvent{"ev" + std::to_string(i), 0, 0, 0});
  }
  EXPECT_EQ(sink.size(), 4u);
  std::vector<TraceEvent> events = sink.Events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().name, "ev2");  // oldest retained
  EXPECT_EQ(events.back().name, "ev5");
  sink.Clear();
  EXPECT_EQ(sink.size(), 0u);
}

TEST(TraceSinkTest, SpansRecordNestingDepth) {
  MetricsRegistry registry(/*enabled=*/true);
  {
    obs::TraceSpan outer(&registry, "outer");
    obs::TraceSpan inner(&registry, "inner");
  }
  std::vector<TraceEvent> events = registry.trace()->Events();
  ASSERT_EQ(events.size(), 2u);
  // Inner completes (and records) first, at depth 1.
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[0].depth, 1u);
  EXPECT_EQ(events[1].name, "outer");
  EXPECT_EQ(events[1].depth, 0u);
  EXPECT_EQ(registry.trace()->depth(), 0u);
}

TEST(TraceSinkTest, NullRegistryIsANoOp) {
  obs::TraceSpan span(nullptr, "nothing");  // must not crash
}

// --- Registry and snapshots ----------------------------------------------

TEST(MetricsRegistryTest, NamedAccessorsAreStable) {
  MetricsRegistry registry(/*enabled=*/true);
  Counter* a = registry.counter("x");
  a->Add(3);
  EXPECT_EQ(registry.counter("x"), a);
  EXPECT_EQ(registry.counter("x")->value(), 3u);
  EXPECT_EQ(registry.pager("f"), registry.pager("f"));
}

TEST(MetricsRegistryTest, SnapshotFlattensPagerBlocks) {
  MetricsRegistry registry(/*enabled=*/true);
  obs::PagerMetrics* pm = registry.pager("rel_h");
  pm->requests.Add(10);
  pm->hits.Add(7);
  pm->misses.Add(3);
  pm->read_pages.Add(3);
  registry.counter("journal.commits")->Add(2);
  registry.gauge("g")->Set(-5);
  registry.histogram("lat")->Record(7);

  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counter("bufpool.rel_h.requests"), 10u);
  EXPECT_EQ(snap.counter("bufpool.rel_h.hits"), 7u);
  EXPECT_EQ(snap.counter("bufpool.rel_h.misses"), 3u);
  EXPECT_EQ(snap.counter("pager.rel_h.read_pages"), 3u);
  EXPECT_EQ(snap.counter("journal.commits"), 2u);
  EXPECT_EQ(snap.counter("no.such.counter"), 0u);
  EXPECT_EQ(snap.gauges.at("g"), -5);
  EXPECT_EQ(snap.histograms.at("lat").count, 1u);
  EXPECT_EQ(snap.histograms.at("lat").sum, 7u);
  EXPECT_EQ(snap.SumCounters("bufpool.", ".requests"), 10u);
  EXPECT_EQ(snap.SumCounters("", ""), 10u + 7u + 3u + 3u + 2u);
}

TEST(MetricsRegistryTest, ToJsonIsWellFormedAndOrdered) {
  MetricsRegistry registry(/*enabled=*/true);
  registry.counter("b")->Add(2);
  registry.counter("a")->Add(1);
  registry.histogram("h")->Record(3);
  std::string json = registry.Snapshot().ToJson();
  // Deterministic: map iteration order, single line.
  EXPECT_EQ(json.find('\n'), std::string::npos);
  size_t a = json.find("\"a\":1");
  size_t b = json.find("\"b\":2");
  ASSERT_NE(a, std::string::npos) << json;
  ASSERT_NE(b, std::string::npos) << json;
  EXPECT_LT(a, b);
  EXPECT_NE(json.find("\"h\":{\"count\":1,\"sum\":3,\"buckets\":[0,0,1]}"),
            std::string::npos)
      << json;
}

// --- Database wiring -----------------------------------------------------

TEST(DatabaseMetricsTest, DisabledRegistryIsNeverWired) {
  MemEnv env;
  DatabaseOptions options;
  options.env = &env;
  options.metrics = false;
  auto db = Database::Open("/db", options);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)->metrics(), nullptr);
  ASSERT_TRUE((*db)->Execute("create interval r (a = i4)").ok());
  ASSERT_TRUE((*db)->Execute("append to r (a = 1)").ok());
  // No counters exist: nothing in the stack ever touched the registry.
  MetricsSnapshot snap = (*db)->Snapshot();
  EXPECT_TRUE(snap.counters.empty());
  EXPECT_TRUE(snap.histograms.empty());
}

TEST(DatabaseMetricsTest, EnvDefaultRespectsOverride) {
  // TDB_METRICS=0 reaches a database only through DatabaseOptions::FromEnv;
  // a database opened with its own options keeps the default (on).
  const char* saved = std::getenv("TDB_METRICS");
  const std::string saved_value = saved != nullptr ? saved : "";
  ::setenv("TDB_METRICS", "0", 1);
  MemEnv env;
  DatabaseOptions from_env = DatabaseOptions::FromEnv();
  from_env.env = &env;
  auto off = Database::Open("/off", from_env);
  DatabaseOptions options;
  options.env = &env;
  auto on = Database::Open("/on", options);
  if (saved != nullptr) {
    ::setenv("TDB_METRICS", saved_value.c_str(), 1);
  } else {
    ::unsetenv("TDB_METRICS");
  }
  ASSERT_TRUE(off.ok());
  ASSERT_TRUE(on.ok());
  EXPECT_EQ((*off)->metrics(), nullptr);
  EXPECT_NE((*on)->metrics(), nullptr);
}

TEST(DatabaseMetricsTest, StatementsAndTracesRecorded) {
  MemEnv env;
  DatabaseOptions options;
  options.env = &env;
  auto db = Database::Open("/db", options);
  ASSERT_TRUE(db.ok());
  ASSERT_NE((*db)->metrics(), nullptr);
  ASSERT_TRUE((*db)->Execute("create interval r (a = i4)").ok());
  ASSERT_TRUE((*db)->Execute("append to r (a = 1)").ok());
  ASSERT_TRUE((*db)->Execute("range of t is r\nretrieve (t.a)").ok());

  MetricsSnapshot snap = (*db)->Snapshot();
  EXPECT_EQ(snap.counter("db.statements"), 4u);
  EXPECT_EQ(snap.histograms.at("db.statement_nanos").count, 4u);

  bool saw_statement = false;
  bool saw_retrieve = false;
  for (const TraceEvent& ev : (*db)->metrics()->trace()->Events()) {
    if (ev.name == "db.statement") saw_statement = true;
    if (ev.name == "exec.retrieve") {
      saw_retrieve = true;
      EXPECT_EQ(ev.depth, 1u);  // nested inside the statement span
    }
  }
  EXPECT_TRUE(saw_statement);
  EXPECT_TRUE(saw_retrieve);
}

TEST(DatabaseMetricsTest, JournalCountersBalance) {
  MemEnv env;
  DatabaseOptions options;
  options.env = &env;
  options.durability = DurabilityMode::kJournal;
  auto db = Database::Open("/db", options);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->Execute("create persistent interval r (a = i4)").ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        (*db)->Execute("append to r (a = " + std::to_string(i) + ")").ok());
  }
  MetricsSnapshot snap = (*db)->Snapshot();
  EXPECT_GT(snap.counter("journal.batches"), 0u);
  // Every batch committed cleanly: no rollbacks, no replays.
  EXPECT_EQ(snap.counter("journal.commits"), snap.counter("journal.batches"));
  EXPECT_EQ(snap.counter("journal.rollbacks"), 0u);
  EXPECT_EQ(snap.counter("journal.replay_ops"), 0u);
  EXPECT_GT(snap.counter("journal.records"), 0u);
  EXPECT_GT(snap.counter("journal.pre_image_bytes"), 0u);
}

TEST(DatabaseMetricsTest, SecondaryIndexProbesCounted) {
  MemEnv env;
  DatabaseOptions options;
  options.env = &env;
  auto db = Database::Open("/db", options);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)
                  ->Execute("create persistent interval r (id = i4, amt = i4)")
                  .ok());
  for (int i = 0; i < 10; ++i) {
    auto r = (*db)->Execute("append to r (id = " + std::to_string(i) +
                            ", amt = " + std::to_string(i * 7) + ")");
    ASSERT_TRUE(r.ok());
  }
  ASSERT_TRUE(
      (*db)->Execute("index on r is amt_idx (amt) with structure = hash").ok());
  ASSERT_TRUE((*db)->Execute("range of t is r").ok());
  ASSERT_TRUE((*db)->Execute("retrieve (t.id) where t.amt = 21").ok());
  MetricsSnapshot snap = (*db)->Snapshot();
  EXPECT_GT(snap.counter("index.amt_idx.inserts"), 0u);
  EXPECT_EQ(snap.counter("index.amt_idx.probes"), 1u);
  EXPECT_GE(snap.counter("index.amt_idx.entries_scanned"), 1u);
}

// --- Structural invariants under a real workload -------------------------

/// Per-file invariants: every buffer request is a hit or a miss, and every
/// miss is exactly one physical page read (the one-frame-per-relation
/// paper discipline has no prefetch and no read coalescing).
void CheckPoolInvariants(const MetricsSnapshot& snap) {
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
}

TEST(MetricsInvariantsTest, BufferPoolBalancesAcrossAWorkload) {
  bench::WorkloadConfig config;
  config.type = DbType::kTemporal;
  config.fillfactor = 100;
  config.ntuples = 64;
  auto bench = bench::BenchmarkDb::Create(config);
  ASSERT_TRUE(bench.ok()) << bench.status().ToString();
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE((*bench)->UniformUpdateRound().ok());
  }
  for (int q : {1, 7, 9}) {
    ASSERT_TRUE((*bench)->RunQuery(q).ok());
  }
  CheckPoolInvariants((*bench)->db()->Snapshot());
}

// --- Exact counts tied to the paper's page model -------------------------

/// Runs Qnum on a fresh snapshot window and returns the database-wide
/// buffer miss delta, asserting it equals both the pager read delta and
/// the Measure's input_pages (they count the same physical events).
uint64_t MissesForQuery(bench::BenchmarkDb* bench, int qnum) {
  MetricsSnapshot before = bench->db()->Snapshot();
  auto m = bench->RunQuery(qnum);
  EXPECT_TRUE(m.ok()) << m.status().ToString();
  MetricsSnapshot after = bench->db()->Snapshot();
  uint64_t misses = after.SumCounters("bufpool.", ".misses") -
                    before.SumCounters("bufpool.", ".misses");
  uint64_t reads = after.SumCounters("pager.", ".read_pages") -
                   before.SumCounters("pager.", ".read_pages");
  EXPECT_EQ(misses, reads);
  EXPECT_EQ(misses, m->input_pages);
  return misses;
}

TEST(MetricsExactCountTest, TemporalQ01AndQ07MatchGoldenPageModel) {
  bench::WorkloadConfig config;
  config.type = DbType::kTemporal;
  config.fillfactor = 100;
  auto bench = bench::BenchmarkDb::Create(config);
  ASSERT_TRUE(bench.ok()) << bench.status().ToString();
  // paper_metrics_golden.inc, temporal ff=100 uc=0: Q01 = 1 page (keyed
  // hash probe), Q07 = 128 pages (full scan of the 128-page relation).
  EXPECT_EQ(MissesForQuery(bench->get(), 1), 1u);
  EXPECT_EQ(MissesForQuery(bench->get(), 7), 128u);
}

// --- explain analyze across all twelve benchmark queries -----------------

TEST(ExplainAnalyzeAcceptanceTest, AllTwelveQueriesCarryRowsAndTime) {
  bench::WorkloadConfig config;
  config.type = DbType::kTemporal;
  config.ntuples = 64;
  auto bench = bench::BenchmarkDb::Create(config);
  ASSERT_TRUE(bench.ok()) << bench.status().ToString();
  for (int q = 1; q <= 12; ++q) {
    std::string text = (*bench)->QueryText(q);
    ASSERT_FALSE(text.empty()) << "Q" << q;  // temporal supports all twelve
    auto r = (*bench)->db()->Execute("explain analyze " + text);
    ASSERT_TRUE(r.ok()) << "Q" << q << ": " << r.status().ToString();
    std::string tree;
    for (const auto& row : r->result.rows) tree += row[0].AsString() + "\n";
    SCOPED_TRACE("Q" + std::to_string(q) + "\n" + tree);
    // Every analyzed plan carries executed per-node statistics: row
    // counts, page I/O and wall time.
    EXPECT_NE(tree.find("[rows="), std::string::npos);
    EXPECT_NE(tree.find("loops="), std::string::npos);
    EXPECT_NE(tree.find("time="), std::string::npos);
    ASSERT_NE(r->plan, nullptr);
    EXPECT_TRUE(r->plan->root->stats.executed);
  }
}

}  // namespace
}  // namespace tdb
