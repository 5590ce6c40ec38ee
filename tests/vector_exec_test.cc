// Vectorized-engine tests.  Two halves:
//
//   * selection-vector kernel edge cases — empty morsel, morsel of one,
//     all-pass / all-fail selections, kernel-vs-generic agreement, and the
//     page-boundary cut rule (zero-copy cursor batches never span a page);
//
//   * a differential sweep over all eight paper databases asserting the
//     morsel engine produces byte-identical rows AND identical page counts
//     (input, output, fixed, and the disk-model access split) to the
//     tuple-at-a-time engine for every applicable benchmark query, plus a
//     threads axis asserting the same byte-identity between 1, 2, and 4
//     executor threads (rows and per-file IoCounters alike).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "benchlib/workload.h"
#include "exec/compiled_expr.h"
#include "exec/eval.h"
#include "exec/join_method.h"
#include "exec/morsel.h"
#include "exec/plan.h"
#include "exec/version.h"
#include "obs/metrics.h"
#include "storage/heap_file.h"
#include "storage/io_stats.h"
#include "storage_test_util.h"
#include "types/schema.h"
#include "util/stringx.h"

namespace tdb {
namespace {

Schema TwoIntSchema() {
  std::vector<Attribute> attrs = {
      {"id", TypeId::kInt4, 4, false},
      {"amount", TypeId::kInt4, 4, false},
  };
  auto schema = Schema::Create(std::move(attrs), DbType::kStatic);
  EXPECT_TRUE(schema.ok());
  return *std::move(schema);
}

std::vector<uint8_t> TwoIntRecord(const Schema& schema, int64_t id,
                                  int64_t amount) {
  Row row;
  row.push_back(Value::Int4(id));
  row.push_back(Value::Int4(amount));
  auto rec = EncodeRecord(schema, row);
  EXPECT_TRUE(rec.ok());
  return *std::move(rec);
}

/// Fills `m` with copies of `recs` (tids are dummies; the kernels never
/// read them).
void FillMorsel(Morsel* m, const std::vector<std::vector<uint8_t>>& recs) {
  m->Clear();
  if (recs.empty()) return;
  m->EnsureArena(recs.size() * recs[0].size());
  for (const auto& rec : recs) m->AppendCopy(rec.data(), rec.size(), Tid());
}

std::unique_ptr<Expr> Col(const char* name, int attr_index) {
  auto e = std::make_unique<Expr>();
  e->kind = Expr::Kind::kColumn;
  e->var = "h";
  e->attr = name;
  e->var_index = 0;
  e->attr_index = attr_index;
  e->column_type = TypeId::kInt4;
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

/// Runs `prog` over the morsel with a full identity selection and returns
/// the surviving indexes.
SelVec RunBatch(const CompiledProgram& prog, const Schema& schema,
                const Morsel& m) {
  SelVec sel;
  FillIdentity(&sel, m.size());
  Binding binding(1, nullptr);
  VersionRef scratch;
  Status st = prog.EvalBoolBatch(schema, 0, m, &binding, &scratch,
                                 TimePoint(0), &sel);
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(binding[0], nullptr);  // generic path must restore the slot
  return sel;
}

/// Per-row reference: the scalar EvalBool over the same records.
SelVec RunScalar(const CompiledProgram& prog, const Schema& schema,
                 const Morsel& m) {
  SelVec expected;
  Binding binding(1, nullptr);
  VersionRef scratch;
  binding[0] = &scratch;
  for (size_t i = 0; i < m.size(); ++i) {
    scratch.BindRaw(schema, m.rec(i));
    auto r = prog.EvalBool(binding, TimePoint(0));
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (r.ok() && *r) expected.push_back(static_cast<uint16_t>(i));
  }
  return expected;
}

TEST(VectorKernelTest, EmptyMorselLeavesSelectionEmpty) {
  Schema schema = TwoIntSchema();
  Morsel m;
  FillMorsel(&m, {});
  auto prog = CompiledProgram::CompileExpr(
      *Bin(ExprOp::kGt, Col("id", 0), IntConst(5)));
  ASSERT_TRUE(prog.has_value());
  EXPECT_TRUE(RunBatch(*prog, schema, m).empty());
}

TEST(VectorKernelTest, MorselOfOne) {
  Schema schema = TwoIntSchema();
  Morsel m;
  FillMorsel(&m, {TwoIntRecord(schema, 7, 70)});
  auto hit = CompiledProgram::CompileExpr(
      *Bin(ExprOp::kEq, Col("id", 0), IntConst(7)));
  auto miss = CompiledProgram::CompileExpr(
      *Bin(ExprOp::kEq, Col("id", 0), IntConst(8)));
  ASSERT_TRUE(hit.has_value() && miss.has_value());
  EXPECT_EQ(RunBatch(*hit, schema, m), (SelVec{0}));
  EXPECT_TRUE(RunBatch(*miss, schema, m).empty());
}

TEST(VectorKernelTest, AllPassAndAllFailSelections) {
  Schema schema = TwoIntSchema();
  std::vector<std::vector<uint8_t>> recs;
  for (int i = 0; i < 100; ++i) recs.push_back(TwoIntRecord(schema, i, i * 3));
  Morsel m;
  FillMorsel(&m, recs);

  auto all = CompiledProgram::CompileExpr(
      *Bin(ExprOp::kGe, Col("id", 0), IntConst(0)));
  auto none = CompiledProgram::CompileExpr(
      *Bin(ExprOp::kLt, Col("id", 0), IntConst(0)));
  ASSERT_TRUE(all.has_value() && none.has_value());

  SelVec sel = RunBatch(*all, schema, m);
  ASSERT_EQ(sel.size(), 100u);
  for (uint16_t i = 0; i < 100; ++i) EXPECT_EQ(sel[i], i);  // order kept
  EXPECT_TRUE(RunBatch(*none, schema, m).empty());
}

TEST(VectorKernelTest, KernelChainMatchesScalarEvaluation) {
  Schema schema = TwoIntSchema();
  std::vector<std::vector<uint8_t>> recs;
  for (int i = 0; i < 257; ++i) {
    recs.push_back(TwoIntRecord(schema, i % 37, (i * 7) % 100));
  }
  Morsel m;
  FillMorsel(&m, recs);

  // Kernel-eligible: a left-associated AND chain of int compares, with one
  // reversed (const OP attr) operand order.
  auto chain = Bin(
      ExprOp::kAnd,
      Bin(ExprOp::kAnd, Bin(ExprOp::kGe, Col("id", 0), IntConst(5)),
          Bin(ExprOp::kLt, Col("amount", 1), IntConst(80))),
      Bin(ExprOp::kGt, IntConst(30), Col("id", 0)));
  // Kernel-ineligible (arithmetic inside the compare): exercises the
  // generic per-row fallback through the same entry point.
  auto generic = Bin(ExprOp::kGt,
                     Bin(ExprOp::kAdd, Col("id", 0), IntConst(1)),
                     IntConst(17));

  for (const auto* expr : {chain.get(), generic.get()}) {
    auto prog = CompiledProgram::CompileExpr(*expr);
    ASSERT_TRUE(prog.has_value());
    EXPECT_EQ(RunBatch(*prog, schema, m), RunScalar(*prog, schema, m));
  }
}

TEST(VectorMorselTest, CursorBatchesNeverSpanAPage) {
  MemEnv env;
  IoCounters counters;
  auto pager = Pager::Open(&env, "/heap", &counters);
  ASSERT_TRUE(pager.ok());
  auto heap = HeapFile::Open(std::move(*pager), testutil::SmallLayout(32));
  ASSERT_TRUE(heap.ok());
  const uint16_t cap = Page::Capacity(32);
  const size_t total = static_cast<size_t>(cap) * 2 + 3;
  for (size_t i = 0; i < total; ++i) {
    auto rec = testutil::KeyedRecord(static_cast<int32_t>(i));
    ASSERT_TRUE((*heap)->Insert(rec.data(), rec.size(), nullptr).ok());
  }

  // Even with an oversized request, each zero-copy batch is cut at the page
  // fetch: all slices of one batch alias the single resident frame.
  auto cur = (*heap)->Scan();
  ASSERT_TRUE(cur.ok());
  Morsel m;
  std::vector<size_t> sizes;
  size_t seen = 0;
  int32_t next_key = 0;
  while (true) {
    auto n = (*cur)->NextBatch(&m, 10000);
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    if (*n == 0) break;
    sizes.push_back(*n);
    EXPECT_LE(*n, static_cast<size_t>(cap));
    for (size_t i = 0; i < *n; ++i) {
      int32_t k;
      std::memcpy(&k, m.rec(i), 4);
      EXPECT_EQ(k, next_key++);  // insertion order preserved
    }
    seen += *n;
  }
  EXPECT_EQ(seen, total);
  ASSERT_EQ(sizes.size(), 3u);
  EXPECT_EQ(sizes[0], static_cast<size_t>(cap));
  EXPECT_EQ(sizes[1], static_cast<size_t>(cap));
  EXPECT_EQ(sizes[2], 3u);

  // A max of one yields single-row morsels without changing the stream.
  auto cur1 = (*heap)->Scan();
  ASSERT_TRUE(cur1.ok());
  auto n1 = (*cur1)->NextBatch(&m, 1);
  ASSERT_TRUE(n1.ok());
  EXPECT_EQ(*n1, 1u);
  int32_t k;
  std::memcpy(&k, m.rec(0), 4);
  EXPECT_EQ(k, 0);
}

// ---- differential sweep: the eight paper databases ----

/// Sorted-line view of a rendering: the order-insensitive row multiset.
/// Physical row order legitimately shifts with page geometry (a 4096-byte
/// hash bucket holds more rows per page), so cross-page-size checks compare
/// multisets while the within-page-size engine differential stays exact.
std::string SortedLines(const std::string& rendering) {
  std::vector<std::string> lines = Split(rendering, '\n');
  std::sort(lines.begin(), lines.end());
  return Join(lines, "\n");
}

struct EngineRun {
  bench::Measure measure;
  std::string rows;
};

EngineRun RunOnce(bench::BenchmarkDb* db, int qnum, bool vectorized) {
  EngineRun run;
  DatabaseOptions options;
  options.vector_exec = vectorized;
  Status reopened = db->Reopen(options);
  EXPECT_TRUE(reopened.ok()) << reopened.ToString();
  auto m = db->RunQuery(qnum);
  EXPECT_TRUE(m.ok()) << m.status().ToString();
  if (m.ok()) run.measure = *std::move(m);
  auto r = db->db()->Execute(db->QueryText(qnum));
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (r.ok()) run.rows = r->result.ToString(TimeResolution::kSecond);
  return run;
}

/// Renders the registry's per-file counters — every read and write, split
/// by category — for byte comparison across runs.
std::string CountersString(Database* db) {
  std::string out;
  for (const auto& [name, c] : db->io()->by_file()) {
    out += name;
    for (int i = 0; i < kNumIoCategories; ++i) {
      out += StrPrintf(" %s=%llu/%llu", IoCategoryName(IoCategory(i)),
                       static_cast<unsigned long long>(c->reads[i]),
                       static_cast<unsigned long long>(c->writes[i]));
    }
    out += "\n";
  }
  return out;
}

TEST(VectorExecDifferentialTest, EnginesAgreeOnAllPaperDatabases) {
  const DbType types[] = {DbType::kStatic, DbType::kRollback,
                          DbType::kHistorical, DbType::kTemporal};
  for (DbType type : types) {
    for (int fillfactor : {100, 50}) {
      // Page-size axis: the sweep repeats on production 4096-byte pages.
      // Within one page size the engines must agree on everything; across
      // page sizes the rendered rows must be byte-identical (page counts
      // legitimately shrink on bigger pages).
      std::map<int, std::string> rows_paper_pages;
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
        // A few update rounds so history versions and overflow chains exist.
        ASSERT_TRUE((*db)->UniformUpdateRound().ok());
        ASSERT_TRUE((*db)->UniformUpdateRound().ok());

        for (int qnum = 1; qnum <= 12; ++qnum) {
          if ((*db)->QueryText(qnum).empty()) continue;
          SCOPED_TRACE(testing::Message() << "Q" << qnum);
          EngineRun vec = RunOnce(db->get(), qnum, /*vectorized=*/true);
          EngineRun tup = RunOnce(db->get(), qnum, /*vectorized=*/false);
          EXPECT_EQ(vec.rows, tup.rows);
          EXPECT_EQ(vec.measure.rows, tup.measure.rows);
          EXPECT_EQ(vec.measure.input_pages, tup.measure.input_pages);
          EXPECT_EQ(vec.measure.output_pages, tup.measure.output_pages);
          EXPECT_EQ(vec.measure.fixed_pages, tup.measure.fixed_pages);
          EXPECT_EQ(vec.measure.random_accesses, tup.measure.random_accesses);
          EXPECT_EQ(vec.measure.sequential_accesses,
                    tup.measure.sequential_accesses);
          EXPECT_EQ(vec.measure.plan, tup.measure.plan);
          if (page_size == 0) {
            rows_paper_pages[qnum] = SortedLines(vec.rows);
          } else {
            EXPECT_EQ(SortedLines(vec.rows), rows_paper_pages[qnum])
                << "row multiset drifted between 1024- and 4096-byte pages";
          }
        }
      }
    }
  }
}

/// The threads axis of the sweep: with the vectorized engine fixed, every
/// applicable paper query must produce byte-identical rows AND per-file
/// IoCounters (every category, reads and writes) at 1, 2, and 4 executor
/// threads.  This is the morsel-parallelism contract — the worker pool may
/// only change wall-clock time, never results or the paper's page counts.
/// Queries run through Database::Execute (no I/O trace) so the parallel
/// scan path actually engages at threads >= 2.
TEST(VectorExecDifferentialTest, ThreadCountsAgreeOnAllPaperDatabases) {
  const DbType types[] = {DbType::kStatic, DbType::kRollback,
                          DbType::kHistorical, DbType::kTemporal};
  for (DbType type : types) {
    for (int fillfactor : {100, 50}) {
      SCOPED_TRACE(testing::Message() << "type " << static_cast<int>(type)
                                      << " ff " << fillfactor);
      bench::WorkloadConfig config;
      config.type = type;
      config.fillfactor = fillfactor;
      auto db = bench::BenchmarkDb::Create(config);
      ASSERT_TRUE(db.ok()) << db.status().ToString();
      ASSERT_TRUE((*db)->UniformUpdateRound().ok());
      ASSERT_TRUE((*db)->UniformUpdateRound().ok());

      for (int qnum = 1; qnum <= 12; ++qnum) {
        std::string text = (*db)->QueryText(qnum);
        if (text.empty()) continue;
        SCOPED_TRACE(testing::Message() << "Q" << qnum);
        std::string base_rows, base_io;
        for (int threads : {1, 2, 4}) {
          SCOPED_TRACE(testing::Message() << threads << " threads");
          DatabaseOptions options;
          options.exec_threads = threads;
          ASSERT_TRUE((*db)->Reopen(options).ok());
          // Warm-up run: the single-frame pagers keep their last page
          // resident across queries, so the first execution after a reset
          // can pay a cold read the repeats do not.  One unmeasured run
          // pins the resident state; every measured run then starts from
          // the same frames.
          ASSERT_TRUE((*db)->db()->Execute(text).ok());
          (*db)->db()->io()->ResetAll();
          auto r = (*db)->db()->Execute(text);
          ASSERT_TRUE(r.ok()) << r.status().ToString();
          std::string rows =
              r->result.ToString(TimeResolution::kSecond) +
              StrPrintf("(%zu rows)", r->result.num_rows());
          std::string io = CountersString((*db)->db());
          if (threads == 1) {
            base_rows = rows;
            base_io = io;
          } else {
            EXPECT_EQ(rows, base_rows);
            EXPECT_EQ(io, base_io);
          }
        }
      }
    }
  }
}

/// Everything a statement's parallel substitution probes must leave as the
/// serial probe loop leaves it.
struct ProbeObservation {
  std::string rows;      // rendered, in result order
  std::string io;        // per-file IoCounters
  std::string requests;  // every bufpool.<file>.requests and .hits delta
  uint64_t key_compares = 0;
  std::string plan;      // every node's loops, examined, emitted and I/O
};

ProbeObservation ObserveProbes(Database* db, const std::string& text) {
  ProbeObservation obs;
  db->io()->ResetAll();
  const obs::MetricsSnapshot before = db->Snapshot();
  auto r = db->Execute(text);
  EXPECT_TRUE(r.ok()) << text << " -> " << r.status().ToString();
  if (!r.ok()) return obs;
  const obs::MetricsSnapshot after = db->Snapshot();
  obs.rows = r->result.ToString(TimeResolution::kSecond) +
             StrPrintf("(%zu rows)", r->result.num_rows());
  obs.io = CountersString(db);
  const auto ends_with = [](const std::string& name, const char* suffix) {
    const size_t n = std::strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  for (const auto& [name, value] : after.counters) {
    if (!ends_with(name, ".requests") && !ends_with(name, ".hits")) continue;
    obs.requests += StrPrintf("%s=%llu\n", name.c_str(),
                              static_cast<unsigned long long>(
                                  value - before.counter(name)));
  }
  obs.key_compares = after.counter("storage.key_compares") -
                     before.counter("storage.key_compares");
  if (r->plan != nullptr) obs.plan = r->plan->Describe(/*with_stats=*/true);
  return obs;
}

/// The probe phase of tuple substitution runs on the worker pool when the
/// inner relation sits in an uncapped shared pool.  Over every paper
/// database type, after 0, 5 and 15 update rounds, on 4 KiB pages in a pool
/// that holds the whole database, Q01-Q12 and further substitution shapes
/// must give the same rows in the same order, per-file IoCounters, pool
/// requests, key compares and per-node stats at 1, 2 and 4 exec threads.
/// At 15 rounds Q09/Q10's temp relations span several probe rounds.
TEST(VectorExecDifferentialTest, ParallelProbesMatchSerialProbes) {
  const DbType types[] = {DbType::kStatic, DbType::kRollback,
                          DbType::kHistorical, DbType::kTemporal};
  for (DbType type : types) {
    bench::WorkloadConfig config;
    config.type = type;
    config.ntuples = 256;
    config.page_size = 4096;
    config.pool_frames = 4096;
    config.pool_file_cap = -1;  // uncapped
    auto db = bench::BenchmarkDb::Create(config);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    const bool vt = HasValidTime(type);
    const bool tx = HasTransactionTime(type);
    std::vector<std::string> texts;
    for (int qnum = 1; qnum <= 12; ++qnum) {
      if (!(*db)->QueryText(qnum).empty()) {
        texts.push_back((*db)->QueryText(qnum));
      }
    }
    // Substitution shapes beyond Q09/Q10: a hashed inner on its own key,
    // runs of equal probe keys (all outer rows, or eight in a row of the
    // ISAM-ordered outer) that must not be split between batches, a
    // residual filter across both variables, `unique`, and a temporal
    // qualifier on the inner variable.
    texts.push_back("retrieve (h.id, i.id, i.seq) where h.id = i.id");
    texts.push_back("retrieve (h.id, i.amount) where i.id = h.seq");
    texts.push_back("retrieve (i.id, h.amount) where h.id = i.id / 8");
    texts.push_back(
        "retrieve (h.id, h.seq, i.amount) where h.id = i.id and "
        "h.amount + i.seq > i.amount");
    texts.push_back("retrieve unique (h.seq, i.seq) where h.id = i.id");
    if (vt) {
      texts.push_back(
          "retrieve (h.id, i.amount) where h.id = i.id when h overlap i");
    }
    if (tx) {
      texts.push_back(
          "retrieve (i.id, h.seq) where i.id = h.amount as of \"now\"");
    }

    int rounds_done = 0;
    for (int rounds : {0, 5, 15}) {
      for (; rounds_done < rounds; ++rounds_done) {
        ASSERT_TRUE((*db)->UniformUpdateRound().ok());
      }
      for (const std::string& text : texts) {
        SCOPED_TRACE(testing::Message() << DbTypeName(type) << ", "
                                        << rounds << " rounds: " << text);
        ProbeObservation base;
        for (int threads : {1, 2, 4}) {
          SCOPED_TRACE(testing::Message() << threads << " threads");
          DatabaseOptions options;
          options.exec_threads = threads;
          ASSERT_TRUE((*db)->Reopen(options).ok());
          // Warm-up: the measured run then starts with the database
          // resident, whatever the thread count.
          ASSERT_TRUE((*db)->db()->Execute(text).ok());
          ProbeObservation obs = ObserveProbes((*db)->db(), text);
          if (threads == 1) {
            base = std::move(obs);
            ASSERT_FALSE(base.rows.empty());
            continue;
          }
          EXPECT_EQ(obs.rows, base.rows);
          EXPECT_EQ(obs.io, base.io);
          EXPECT_EQ(obs.requests, base.requests);
          EXPECT_EQ(obs.key_compares, base.key_compares);
          EXPECT_EQ(obs.plan, base.plan);
        }
      }
    }
  }
}

/// Every scan the executor can run on its workers — lone scans,
/// substitution outers, nested-loop inner levels, hash-join sides and
/// interval-join gathers, over heap, hash and ISAM stores — must leave what
/// the serial scan leaves: the same rows in the same order, per-file
/// IoCounters, pool requests and hits, key compares, per-node stats and the
/// pages left resident at 1, 2 and 4 exec threads.  Over the eight paper
/// databases after 0, 5 and 15 update rounds, in paper mode (one frame per
/// file, read through copy-outs) and on 4 KiB pages in an uncapped pool
/// that holds the data (read in place under reader pins).
TEST(VectorExecDifferentialTest, ParallelScansMatchSerialScans) {
  const DbType types[] = {DbType::kStatic, DbType::kRollback,
                          DbType::kHistorical, DbType::kTemporal};
  struct Shape {
    JoinMethod method;
    std::string text;
  };
  for (DbType type : types) {
    for (int fillfactor : {100, 50}) {
      for (bool pooled : {false, true}) {
        bench::WorkloadConfig config;
        config.type = type;
        config.fillfactor = fillfactor;
        config.ntuples = 256;
        if (pooled) {
          config.page_size = 4096;
          config.pool_frames = 4096;
          config.pool_file_cap = -1;  // uncapped
        }
        auto db = bench::BenchmarkDb::Create(config);
        ASSERT_TRUE(db.ok()) << db.status().ToString();
        // A heap relation: three copies of the hashed relation's current
        // state, so that even on 4 KiB pages it cuts into several chunks.
        ASSERT_TRUE((*db)->db()->Execute(
                        "retrieve into p (id = h.id, seq = h.seq, "
                        "amount = h.amount)").ok());
        ASSERT_TRUE((*db)->db()->Execute("range of p is p").ok());
        for (int copy = 1; copy <= 2; ++copy) {
          ASSERT_TRUE((*db)->db()->Execute(StrPrintf(
                          "append to p (id = h.id, seq = h.seq + %d, "
                          "amount = h.amount)", copy)).ok());
        }
        const bool vt = HasValidTime(type);
        std::vector<Shape> shapes;
        for (int qnum = 1; qnum <= 12; ++qnum) {
          if (!(*db)->QueryText(qnum).empty()) {
            shapes.push_back({JoinMethod::kPaper, (*db)->QueryText(qnum)});
          }
        }
        // Heap stores: a lone scan, a substitution's outer, and a nested
        // loop's inner level.
        shapes.push_back({JoinMethod::kPaper,
                          "retrieve (p.id, p.seq) where p.amount > 500"});
        shapes.push_back({JoinMethod::kPaper,
                          "retrieve (p.id, i.seq) where i.id = p.amount"});
        shapes.push_back({JoinMethod::kNestedLoop,
                          "retrieve (h.id, p.id) where h.id = 7 and "
                          "p.amount < h.amount"});
        // Nested-loop inner levels over hash and ISAM stores.
        shapes.push_back({JoinMethod::kNestedLoop,
                          "retrieve (p.id, i.id, i.seq) where p.id < 3 and "
                          "i.amount = p.amount"});
        shapes.push_back({JoinMethod::kNestedLoop,
                          "retrieve (p.id, h.id, h.seq) where p.id < 3 and "
                          "h.amount = p.amount"});
        // A self-join: the inner level rescans the outer level's store.
        shapes.push_back({JoinMethod::kNestedLoop,
                          "retrieve (p.id, q.seq) where p.id < 3 and "
                          "q.amount = p.amount"});
        // Hash-join build and probe sides.
        shapes.push_back({JoinMethod::kHash, (*db)->QueryText(9)});
        shapes.push_back({JoinMethod::kHash, (*db)->QueryText(10)});
        shapes.push_back({JoinMethod::kHash,
                          "retrieve (p.id, h.seq) where p.amount = h.id"});
        // Interval-join gathers.
        if (vt) {
          shapes.push_back({JoinMethod::kMerge,
                            "retrieve (h.id, i.seq) where h.id = i.id and "
                            "h.id < 16 when h overlap i"});
          shapes.push_back({JoinMethod::kMerge,
                            "retrieve (p.id, i.seq) where p.id = i.id and "
                            "i.id < 16 when p overlap i"});
        }

        int rounds_done = 0;
        for (int rounds : {0, 5, 15}) {
          for (; rounds_done < rounds; ++rounds_done) {
            ASSERT_TRUE((*db)->UniformUpdateRound().ok());
          }
          for (const Shape& shape : shapes) {
            SCOPED_TRACE(testing::Message()
                         << DbTypeName(type) << " ff " << fillfactor
                         << (pooled ? " pool" : " paper") << ", " << rounds
                         << " rounds, " << JoinMethodName(shape.method)
                         << ": " << shape.text);
            ProbeObservation base;
            std::string base_resident;
            for (int threads : {1, 2, 4}) {
              SCOPED_TRACE(testing::Message() << threads << " threads");
              DatabaseOptions options;
              options.exec_threads = threads;
              options.join_method = shape.method;
              ASSERT_TRUE((*db)->Reopen(options).ok());
              ASSERT_TRUE((*db)->db()->Execute("range of p is p").ok());
              ASSERT_TRUE((*db)->db()->Execute("range of q is p").ok());
              // Warm-up: the measured run then starts from the same
              // resident pages, whatever the thread count.
              ASSERT_TRUE((*db)->db()->Execute(shape.text).ok());
              ProbeObservation obs = ObserveProbes((*db)->db(), shape.text);
              // The pages each relation leaves resident, which the next
              // statement's first reads hit.
              std::string resident;
              for (const char* name : {"bench_h", "bench_i", "p"}) {
                auto rel = (*db)->db()->GetRelation(name);
                ASSERT_TRUE(rel.ok());
                resident += name;
                for (uint32_t pno :
                     (*rel)->primary()->pager()->ResidentPages()) {
                  resident += StrPrintf(" %u", pno);
                }
                resident += "\n";
              }
              if (threads == 1) {
                base = std::move(obs);
                base_resident = resident;
                ASSERT_FALSE(base.rows.empty());
                continue;
              }
              EXPECT_EQ(obs.rows, base.rows);
              EXPECT_EQ(obs.io, base.io);
              EXPECT_EQ(obs.requests, base.requests);
              EXPECT_EQ(obs.key_compares, base.key_compares);
              EXPECT_EQ(obs.plan, base.plan);
              EXPECT_EQ(resident, base_resident);
            }
          }
        }
      }
    }
  }
}

/// A pool smaller than the scanned relations: the workers' reader pins
/// keep their pages, and their LRU moves are approximate, so which pages
/// miss may differ from the serial run, but the rows, in order, may not.
/// A lone scan (Q03), a substitution (Q09) and a nested loop (Q11) run at 1
/// and 4 threads; each run records its pool hits, misses and overflow
/// frames as test properties.
TEST(VectorExecDifferentialTest, ParallelScansInASmallPoolKeepTheRows) {
  bench::WorkloadConfig config;
  config.type = DbType::kTemporal;
  config.ntuples = 256;
  config.page_size = 4096;
  config.pool_frames = 16;
  config.pool_file_cap = -1;
  auto db = bench::BenchmarkDb::Create(config);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  for (int round = 0; round < 15; ++round) {
    ASSERT_TRUE((*db)->UniformUpdateRound().ok());
  }
  ASSERT_GT((*db)->db()->GetRelation("bench_h").value()->primary()
                ->page_count(),
            16u);
  for (int qnum : {3, 9, 11}) {
    SCOPED_TRACE(testing::Message() << "Q" << qnum);
    std::string base;
    for (int threads : {1, 4}) {
      SCOPED_TRACE(testing::Message() << threads << " threads");
      DatabaseOptions options;
      options.exec_threads = threads;
      ASSERT_TRUE((*db)->Reopen(options).ok());
      BufferPool* pool = (*db)->db()->buffer_pool();
      const BufferPool::Stats before = pool->GetStats();
      auto r = (*db)->db()->Execute((*db)->QueryText(qnum));
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      const BufferPool::Stats after = pool->GetStats();
      // The pool really was too small for the scan.
      EXPECT_GT(after.evictions, before.evictions);
      const std::string key = StrPrintf("q%02d_%dt_", qnum, threads);
      testing::Test::RecordProperty(key + "hits",
                                    std::to_string(after.hits - before.hits));
      testing::Test::RecordProperty(
          key + "misses", std::to_string(after.misses - before.misses));
      testing::Test::RecordProperty(
          key + "overflow_frames",
          std::to_string(after.overflow_frames - before.overflow_frames));
      const std::string rows =
          r->result.ToString(TimeResolution::kSecond) +
          StrPrintf("(%zu rows)", r->result.num_rows());
      if (threads == 1) {
        base = rows;
        ASSERT_GT(r->result.num_rows(), 0u);
      } else {
        EXPECT_EQ(rows, base);
      }
    }
  }
}

/// In a pool far smaller than the inner relation the parallel workers miss
/// and evict each other's pages, so only the rows, in order, must equal the
/// serial probe loop's; which pages miss depends on the interleaving.
TEST(VectorExecDifferentialTest, ParallelProbesInASmallPoolKeepTheRows) {
  bench::WorkloadConfig config;
  config.type = DbType::kTemporal;
  config.ntuples = 256;
  config.page_size = 4096;
  config.pool_frames = 16;
  config.pool_file_cap = -1;
  auto db = bench::BenchmarkDb::Create(config);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  for (int round = 0; round < 15; ++round) {
    ASSERT_TRUE((*db)->UniformUpdateRound().ok());
  }
  const std::vector<std::string> texts = {
      (*db)->QueryText(9), (*db)->QueryText(10),
      "retrieve (h.id, i.amount) where i.id = h.seq",
      "retrieve (h.id, h.seq, i.amount) where h.id = i.id and "
      "h.amount + i.seq > i.amount"};
  for (const std::string& text : texts) {
    SCOPED_TRACE(text);
    std::string base;
    for (int threads : {1, 2, 4}) {
      SCOPED_TRACE(testing::Message() << threads << " threads");
      DatabaseOptions options;
      options.exec_threads = threads;
      ASSERT_TRUE((*db)->Reopen(options).ok());
      const BufferPool::Stats before = (*db)->db()->buffer_pool()->GetStats();
      auto r = (*db)->db()->Execute(text);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      // The pool really was too small for the probes.
      EXPECT_GT((*db)->db()->buffer_pool()->GetStats().evictions,
                before.evictions);
      const std::string rows =
          r->result.ToString(TimeResolution::kSecond) +
          StrPrintf("(%zu rows)", r->result.num_rows());
      if (threads == 1) {
        base = rows;
        ASSERT_GT(r->result.num_rows(), 0u);
      } else {
        EXPECT_EQ(rows, base);
      }
    }
  }
}

}  // namespace
}  // namespace tdb
