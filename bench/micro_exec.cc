// Execution hot-path microbenchmarks (google-benchmark): the wall-clock
// side of the PR's compiled-predicate + zero-copy work.  Page-I/O figures
// are unaffected by any of this (the golden test locks them); these numbers
// quantify the CPU cost per tuple.
//
// Pairs to compare:
//   BM_DecodeFullRow      vs BM_LazyDecodeTwoAttrs   (zero-copy binding)
//   BM_EvalAst            vs BM_EvalCompiled         (one predicate, bound)
//   BM_ScanFilterAst      vs BM_ScanFilterCompiled   (bind + filter loop)
//   BM_ScanFilterHotPath  vs BM_ScanFilterVectorized (selection-vector
//                                                     kernel over a morsel)
//   BM_ExecScanFilter* / BM_ExecJoin*                (end-to-end engine A/B,
//                                                     tuple vs vectorized)
//   BM_QueryQ04 / BM_QueryQ07                        (end to end; A/B via
//                                                     TDB_COMPILED_EXPR=0)
//
// scripts/make_bench_exec.py turns the --benchmark_format=json output into
// the repo-root BENCH_exec.json ns/tuple table.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "benchlib/workload.h"
#include "exec/compiled_expr.h"
#include "exec/eval.h"
#include "exec/join_method.h"
#include "exec/morsel.h"
#include "exec/version.h"
#include "types/schema.h"

namespace tdb {
namespace {

// The paper's 108-byte benchmark tuple on a temporal relation.
Schema BenchSchema() {
  std::vector<Attribute> attrs = {
      {"id", TypeId::kInt4, 4, false},
      {"amount", TypeId::kInt4, 4, false},
      {"seq", TypeId::kInt4, 4, false},
      {"string", TypeId::kChar, 96, false},
  };
  auto schema = Schema::Create(std::move(attrs), DbType::kTemporal);
  if (!schema.ok()) std::abort();
  return *std::move(schema);
}

std::vector<uint8_t> BenchRecord(const Schema& schema, int32_t id) {
  Row row;
  row.push_back(Value::Int4(id));
  row.push_back(Value::Int4(id * 100));
  row.push_back(Value::Int4(0));
  row.push_back(Value::Char(std::string(96, 'x')));
  for (size_t i = 4; i < schema.num_attrs(); ++i) {
    row.push_back(Value::Time(TimePoint(1000)));
  }
  auto rec = EncodeRecord(schema, row);
  if (!rec.ok()) std::abort();
  return *std::move(rec);
}

std::unique_ptr<Expr> Col(const char* name, int attr_index, TypeId type) {
  auto e = std::make_unique<Expr>();
  e->kind = Expr::Kind::kColumn;
  e->var = "h";
  e->attr = name;
  e->var_index = 0;
  e->attr_index = attr_index;
  e->column_type = type;
  return e;
}

std::unique_ptr<Expr> IntConst(int64_t v) {
  auto e = std::make_unique<Expr>();
  e->kind = Expr::Kind::kConstInt;
  e->int_val = v;
  return e;
}

std::unique_ptr<Expr> Bin(ExprOp op, std::unique_ptr<Expr> l,
                          std::unique_ptr<Expr> r) {
  auto e = std::make_unique<Expr>();
  e->kind = Expr::Kind::kBinary;
  e->op = op;
  e->left = std::move(l);
  e->right = std::move(r);
  return e;
}

// `h.id = 500 and h.amount > 1000` — the shape of the benchmark's selective
// probes (Q07/Q08): one key equality plus one non-key comparison.
std::unique_ptr<Expr> ProbePredicate() {
  return Bin(ExprOp::kAnd,
             Bin(ExprOp::kEq, Col("id", 0, TypeId::kInt4), IntConst(500)),
             Bin(ExprOp::kGt, Col("amount", 1, TypeId::kInt4),
                 IntConst(1000)));
}

void BM_DecodeFullRow(benchmark::State& state) {
  Schema schema = BenchSchema();
  std::vector<uint8_t> rec = BenchRecord(schema, 500);
  for (auto _ : state) {
    auto row = DecodeRecord(schema, rec.data(), rec.size());
    benchmark::DoNotOptimize(row);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DecodeFullRow);

void BM_LazyDecodeTwoAttrs(benchmark::State& state) {
  Schema schema = BenchSchema();
  std::vector<uint8_t> rec = BenchRecord(schema, 500);
  VersionRef ref;
  for (auto _ : state) {
    ref.BindRaw(schema, rec.data());
    benchmark::DoNotOptimize(ref.attr(0));
    benchmark::DoNotOptimize(ref.attr(1));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LazyDecodeTwoAttrs);

void BM_EvalAst(benchmark::State& state) {
  Schema schema = BenchSchema();
  std::vector<uint8_t> rec = BenchRecord(schema, 500);
  VersionRef ref;
  ref.BindRaw(schema, rec.data());
  Binding binding = {&ref};
  auto pred = ProbePredicate();
  Evaluator eval(TimePoint(0));
  for (auto _ : state) {
    auto r = eval.EvalBool(*pred, binding);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EvalAst);

void BM_EvalCompiled(benchmark::State& state) {
  Schema schema = BenchSchema();
  std::vector<uint8_t> rec = BenchRecord(schema, 500);
  VersionRef ref;
  ref.BindRaw(schema, rec.data());
  Binding binding = {&ref};
  auto pred = ProbePredicate();
  auto prog = CompiledProgram::CompileExpr(*pred);
  if (!prog.has_value()) std::abort();
  for (auto _ : state) {
    auto r = prog->EvalBool(binding, TimePoint(0));
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EvalCompiled);

// The scan-filter loop, per tuple, minus the pager.  Three variants:
//   Baseline  — what every tuple paid before the overhaul: decode the full
//               record into a Row, then walk the predicate AST;
//   AstLazy   — zero-copy binding but the AST evaluator (TDB_COMPILED_EXPR=0);
//   HotPath   — zero-copy binding + compiled predicate (the default).
constexpr int kScanTuples = 1024;

void BM_ScanFilterBaseline(benchmark::State& state) {
  Schema schema = BenchSchema();
  std::vector<std::vector<uint8_t>> recs;
  for (int i = 0; i < kScanTuples; ++i) recs.push_back(BenchRecord(schema, i));
  VersionRef ref;
  Binding binding = {&ref};
  auto pred = ProbePredicate();
  Evaluator eval(TimePoint(0));
  for (auto _ : state) {
    int hits = 0;
    for (const auto& rec : recs) {
      auto row = DecodeRecord(schema, rec.data(), rec.size());
      if (!row.ok()) std::abort();
      ref.SetRow(*std::move(row));
      auto r = eval.EvalBool(*pred, binding);
      if (r.ok() && *r) ++hits;
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * kScanTuples);
}
BENCHMARK(BM_ScanFilterBaseline);

void BM_ScanFilterAstLazy(benchmark::State& state) {
  Schema schema = BenchSchema();
  std::vector<std::vector<uint8_t>> recs;
  for (int i = 0; i < kScanTuples; ++i) recs.push_back(BenchRecord(schema, i));
  VersionRef ref;
  Binding binding = {&ref};
  auto pred = ProbePredicate();
  Evaluator eval(TimePoint(0));
  for (auto _ : state) {
    int hits = 0;
    for (const auto& rec : recs) {
      ref.BindRaw(schema, rec.data());
      auto r = eval.EvalBool(*pred, binding);
      if (r.ok() && *r) ++hits;
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * kScanTuples);
}
BENCHMARK(BM_ScanFilterAstLazy);

void BM_ScanFilterHotPath(benchmark::State& state) {
  Schema schema = BenchSchema();
  std::vector<std::vector<uint8_t>> recs;
  for (int i = 0; i < kScanTuples; ++i) recs.push_back(BenchRecord(schema, i));
  VersionRef ref;
  Binding binding = {&ref};
  auto pred = ProbePredicate();
  auto prog = CompiledProgram::CompileExpr(*pred);
  if (!prog.has_value()) std::abort();
  for (auto _ : state) {
    int hits = 0;
    for (const auto& rec : recs) {
      ref.BindRaw(schema, rec.data());
      auto r = prog->EvalBool(binding, TimePoint(0));
      if (r.ok() && *r) ++hits;
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * kScanTuples);
}
BENCHMARK(BM_ScanFilterHotPath);

void BM_ScanFilterVectorized(benchmark::State& state) {
  Schema schema = BenchSchema();
  std::vector<std::vector<uint8_t>> recs;
  for (int i = 0; i < kScanTuples; ++i) recs.push_back(BenchRecord(schema, i));
  Morsel m;
  m.EnsureArena(recs.size() * recs[0].size());
  for (const auto& rec : recs) m.AppendCopy(rec.data(), rec.size(), Tid());
  auto pred = ProbePredicate();
  auto prog = CompiledProgram::CompileExpr(*pred);
  if (!prog.has_value()) std::abort();
  Binding binding(1, nullptr);
  VersionRef scratch;
  SelVec sel;
  for (auto _ : state) {
    FillIdentity(&sel, m.size());
    auto st = prog->EvalBoolBatch(schema, 0, m, &binding, &scratch,
                                  TimePoint(0), &sel);
    if (!st.ok()) std::abort();
    benchmark::DoNotOptimize(sel.data());
    benchmark::DoNotOptimize(sel.size());
  }
  state.SetItemsProcessed(state.iterations() * kScanTuples);
}
BENCHMARK(BM_ScanFilterVectorized);

// End-to-end engine A/B on the paper's temporal database: the same query
// through the full stack (plan, pager, stats) with the morsel engine forced
// on or off.  Items = the 1024 tuples each execution examines, so the
// numbers read as ns/tuple alongside the loop benchmarks above.
void RunEngineBench(benchmark::State& state, const char* text,
                    bool vectorized, JoinMethod method = JoinMethod::kPaper,
                    int threads = bench::DriverOptions().exec_threads) {
  bench::WorkloadConfig config;
  config.type = DbType::kTemporal;
  config.fillfactor = 100;
  DatabaseOptions options = bench::DriverOptions();
  options.vector_exec = vectorized;
  options.join_method = method;
  options.exec_threads = threads;
  auto db = bench::BenchmarkDb::Create(config, options);
  if (!db.ok()) std::abort();
  for (auto _ : state) {
    auto r = (*db)->db()->Execute(text);
    if (!r.ok()) std::abort();
    benchmark::DoNotOptimize(r->affected);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}

// Full scan + kernel-eligible filter (the Q04/Q07 shape).
constexpr char kScanFilterQuery[] =
    "retrieve (h.id, h.amount) where h.amount > 1000 and h.seq >= 0";
// The paper's self-join workload (Section 5): an equi-join on the
// *unindexed* amount attribute, so tuple substitution rescans the whole
// inner relation per outer row — the honest nested-loop baseline.  (On
// `h.id = i.amount` the paper planner flips the order and probes h's id
// index, which is a keyed lookup, not a nested loop.)  The restriction
// on h exercises the cost model's build-side choice.
constexpr char kJoinQuery[] =
    "retrieve (h.id, i.amount) where h.amount = i.amount and h.amount > 1000";

void BM_ExecScanFilterTuple(benchmark::State& state) {
  RunEngineBench(state, kScanFilterQuery, /*vectorized=*/false);
}
BENCHMARK(BM_ExecScanFilterTuple);

void BM_ExecScanFilterVectorized(benchmark::State& state) {
  RunEngineBench(state, kScanFilterQuery, /*vectorized=*/true);
}
BENCHMARK(BM_ExecScanFilterVectorized);

void BM_ExecJoinTuple(benchmark::State& state) {
  RunEngineBench(state, kJoinQuery, /*vectorized=*/false);
}
BENCHMARK(BM_ExecJoinTuple);

void BM_ExecJoinVectorized(benchmark::State& state) {
  RunEngineBench(state, kJoinQuery, /*vectorized=*/true);
}
BENCHMARK(BM_ExecJoinVectorized);

// The same join through the batched hash join: build the smaller side once,
// probe the other in a single pass — no per-outer-row inner reopen.
void BM_ExecJoinHash(benchmark::State& state) {
  RunEngineBench(state, kJoinQuery, /*vectorized=*/false, JoinMethod::kHash);
}
BENCHMARK(BM_ExecJoinHash);

void BM_ExecJoinHashVectorized(benchmark::State& state) {
  RunEngineBench(state, kJoinQuery, /*vectorized=*/true, JoinMethod::kHash);
}
BENCHMARK(BM_ExecJoinHashVectorized);

// Thread scaling of the morsel-driven parallel pipelines (the shared
// worker pool): the same vectorized queries at 1/2/4 exec threads.  Rows,
// stats, and page counts are identical at every arg (the executor merges
// per-chunk results deterministically); only wall clock may move.  On a
// 1-core host the >1-thread args measure pool overhead, not speedup —
// BENCH_exec.json records hardware_concurrency so readers can tell.
void BM_ExecScanFilterThreads(benchmark::State& state) {
  RunEngineBench(state, kScanFilterQuery, /*vectorized=*/true,
                 JoinMethod::kPaper, static_cast<int>(state.range(0)));
}
BENCHMARK(BM_ExecScanFilterThreads)->Arg(1)->Arg(2)->Arg(4);

void BM_ExecJoinHashThreads(benchmark::State& state) {
  RunEngineBench(state, kJoinQuery, /*vectorized=*/true, JoinMethod::kHash,
                 static_cast<int>(state.range(0)));
}
BENCHMARK(BM_ExecJoinHashThreads)->Arg(1)->Arg(2)->Arg(4);

// Temporal join: 16 restricted outer versions against the 1024-tuple inner,
// `when h overlap i`.  Paper mode rescans the inner per outer row; the
// sort/merge sweep sorts both sides once and emits overlapping pairs.
constexpr char kIntervalJoinQuery[] =
    "retrieve (h.id, i.amount) where h.id < 16 when h overlap i";

void BM_ExecIntervalJoinPaper(benchmark::State& state) {
  RunEngineBench(state, kIntervalJoinQuery, /*vectorized=*/false,
                 JoinMethod::kPaper);
}
BENCHMARK(BM_ExecIntervalJoinPaper);

void BM_ExecIntervalJoinSweep(benchmark::State& state) {
  RunEngineBench(state, kIntervalJoinQuery, /*vectorized=*/false,
                 JoinMethod::kMerge);
}
BENCHMARK(BM_ExecIntervalJoinSweep);

// End-to-end queries on the paper's temporal database (100% loading, uc=0).
// Whether the compiled path runs is decided by TDB_COMPILED_EXPR, read at
// start-up; run the binary twice to A/B.
void RunQueryBench(benchmark::State& state, int qnum) {
  bench::WorkloadConfig config;
  config.type = DbType::kTemporal;
  config.fillfactor = 100;
  auto db = bench::BenchmarkDb::Create(config, bench::DriverOptions());
  if (!db.ok()) std::abort();
  for (auto _ : state) {
    auto m = (*db)->RunQuery(qnum);
    if (!m.ok()) std::abort();
    benchmark::DoNotOptimize(m->input_pages);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_QueryQ04(benchmark::State& state) { RunQueryBench(state, 4); }
BENCHMARK(BM_QueryQ04);  // full sequential scan

void BM_QueryQ07(benchmark::State& state) { RunQueryBench(state, 7); }
BENCHMARK(BM_QueryQ07);  // non-key selection over history

}  // namespace
}  // namespace tdb

// Custom main (vs BENCHMARK_MAIN) so the execution-engine context — the
// exec_threads the driver's options resolve to and the host's real
// hardware concurrency — lands in the JSON context block
// scripts/make_bench_exec.py copies into BENCH_exec.json.
int main(int argc, char** argv) {
  const tdb::bench::ExecContext ctx = tdb::bench::ExecContext::Detect();
  benchmark::AddCustomContext("exec_threads", std::to_string(ctx.exec_threads));
  benchmark::AddCustomContext("hardware_concurrency",
                              std::to_string(ctx.hardware_concurrency));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
