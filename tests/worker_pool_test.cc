// Tests of the morsel-parallelism layer, bottom-up:
//
//   * WorkerPool — the id contract (body(id) exactly once per id in
//     [0, n)), the inline single-worker path, and the nested-Run fallback
//     that keeps correctness independent of helper availability;
//   * ResolveExecThreads — the [1, 64] clamp Database::Open applies to
//     DatabaseOptions::exec_threads, whether the value came from code or
//     from TDB_EXEC_THREADS through DatabaseOptions::FromEnv;
//   * CutScanChunks — page-range tiling of linear-scan stores in the
//     serial visit order, ISAM data-page ranges whose chains replay the
//     ISAM cursor, the cursor fallback for B-tree primaries, empty-store
//     skipping, and history-after-primary ordering on two-level relations;
//   * end-to-end determinism — a skewed database (one giant store, tiny
//     and empty neighbors) where rows, per-file IoCounters, and analyzed
//     per-node plan stats must be byte-identical at 1, 2, 4, and 8
//     executor threads, and per-Database exec options must not change
//     results.

#include "exec/worker_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <iterator>
#include <cstdlib>
#include <memory>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "env/env.h"
#include "exec/version_source.h"
#include "storage/isam_file.h"
#include "storage/io_stats.h"
#include "util/stringx.h"

namespace tdb {
namespace {

// ---- WorkerPool: the id contract ----

TEST(WorkerPoolTest, RunCoversEveryIdExactlyOnce) {
  for (int workers : {2, 3, 8, 16}) {
    std::vector<std::atomic<int>> hits(workers);
    for (auto& h : hits) h = 0;
    WorkerPool::Shared().Run(workers,
                             [&](int id) { hits[id].fetch_add(1); });
    for (int id = 0; id < workers; ++id) {
      EXPECT_EQ(hits[id].load(), 1) << "id " << id << " of " << workers;
    }
  }
}

TEST(WorkerPoolTest, SingleWorkerRunsInlineOnTheCaller) {
  std::thread::id caller = std::this_thread::get_id();
  int calls = 0;
  WorkerPool::Shared().Run(1, [&](int id) {
    EXPECT_EQ(id, 0);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(WorkerPoolTest, NestedRunFallsBackInline) {
  // While an outer Run owns the pool, an inner Run must execute every id
  // on the thread that issued it — never deadlock, never drop an id.
  constexpr int kOuter = 2;
  constexpr int kInner = 3;
  std::atomic<int> inner_hits[kOuter][kInner] = {};
  WorkerPool::Shared().Run(kOuter, [&](int outer) {
    std::thread::id outer_thread = std::this_thread::get_id();
    WorkerPool::Shared().Run(kInner, [&, outer](int inner) {
      EXPECT_EQ(std::this_thread::get_id(), outer_thread);
      inner_hits[outer][inner].fetch_add(1);
    });
  });
  for (int o = 0; o < kOuter; ++o) {
    for (int i = 0; i < kInner; ++i) {
      EXPECT_EQ(inner_hits[o][i].load(), 1) << o << "/" << i;
    }
  }
}

TEST(WorkerPoolTest, RepeatedRunsKeepTheContract) {
  // Helpers park between runs; the epoch guard must keep stale helpers
  // out of new work.  Hammer the pool and check coverage every round.
  for (int round = 0; round < 200; ++round) {
    std::atomic<int> sum{0};
    WorkerPool::Shared().Run(4, [&](int id) { sum.fetch_add(id + 1); });
    ASSERT_EQ(sum.load(), 1 + 2 + 3 + 4) << "round " << round;
  }
}

// ---- ResolveExecThreads: clamping ----

class ResolveExecThreadsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* env = std::getenv("TDB_EXEC_THREADS");
    if (env != nullptr) saved_env_ = env;
    ::unsetenv("TDB_EXEC_THREADS");
  }
  void TearDown() override {
    if (saved_env_.has_value()) {
      ::setenv("TDB_EXEC_THREADS", saved_env_->c_str(), 1);
    } else {
      ::unsetenv("TDB_EXEC_THREADS");
    }
  }
  std::optional<std::string> saved_env_;
};

TEST_F(ResolveExecThreadsTest, DefaultIsSingleThreaded) {
  EXPECT_EQ(ResolveExecThreads(DatabaseOptions{}.exec_threads), 1);
  EXPECT_EQ(ResolveExecThreads(0), 1);
  EXPECT_EQ(ResolveExecThreads(-3), 1);
}

TEST_F(ResolveExecThreadsTest, EnvParsesAndClamps) {
  auto from_env = [] {
    return ResolveExecThreads(DatabaseOptions::FromEnv().exec_threads);
  };
  ::setenv("TDB_EXEC_THREADS", "3", 1);
  EXPECT_EQ(from_env(), 3);
  ::setenv("TDB_EXEC_THREADS", "100", 1);
  EXPECT_EQ(from_env(), 64);
  ::setenv("TDB_EXEC_THREADS", "0", 1);
  EXPECT_EQ(from_env(), 1);
  ::setenv("TDB_EXEC_THREADS", "-5", 1);
  EXPECT_EQ(from_env(), 1);
  // Malformed values are ignored, not clamped.
  ::setenv("TDB_EXEC_THREADS", "abc", 1);
  EXPECT_EQ(from_env(), 1);
  ::setenv("TDB_EXEC_THREADS", "7x", 1);
  EXPECT_EQ(from_env(), 1);
}

TEST_F(ResolveExecThreadsTest, OptionBeatsEnv) {
  ::setenv("TDB_EXEC_THREADS", "3", 1);
  EXPECT_EQ(ResolveExecThreads(2), 2);
  EXPECT_EQ(ResolveExecThreads(100), 64);  // the option is clamped
  EXPECT_EQ(ResolveExecThreads(0), 1);     // the environment is not read
}

// ---- CutScanChunks: the dispatch units of a parallel scan ----

class CutScanChunksTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions options;
    options.env = &env_;
    auto db = Database::Open("/db", options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(db).value();
  }

  void Exec(const std::string& text) {
    auto r = db_->Execute(text);
    ASSERT_TRUE(r.ok()) << text << " -> " << r.status().ToString();
  }

  Relation* Rel(const std::string& name) {
    auto rel = db_->GetRelation(name);
    EXPECT_TRUE(rel.ok()) << rel.status().ToString();
    return rel.ok() ? *rel : nullptr;
  }

  /// A heap relation with enough pages that chunk_pages = 2 cuts several
  /// chunks (the c100 pad keeps tuples-per-page low).
  void MakePaddedHeap(const std::string& name, int rows) {
    Exec("create persistent interval " + name +
         " (id = i4, v = i4, pad = c100)");
    for (int i = 0; i < rows; ++i) {
      Exec(StrPrintf("append to %s (id = %d, v = %d)", name.c_str(), i,
                     i * 10));
    }
  }

  MemEnv env_;
  std::unique_ptr<Database> db_;
};

TEST_F(CutScanChunksTest, PageRangeChunksTileLinearStores) {
  MakePaddedHeap("r", 60);
  Relation* rel = Rel("r");
  ASSERT_NE(rel, nullptr);
  const uint32_t pages = rel->primary()->page_count();
  ASSERT_GE(pages, 4u);

  auto chunks = CutScanChunks(rel, /*current_only=*/false, 2);
  ASSERT_GE(chunks.size(), 2u);
  uint32_t expect_begin = 0;
  for (const ScanChunk& c : chunks) {
    EXPECT_EQ(c.file, rel->primary());
    EXPECT_FALSE(c.in_history);
    EXPECT_FALSE(c.use_cursor);
    EXPECT_EQ(c.begin, expect_begin);  // contiguous, ascending, disjoint
    EXPECT_GT(c.end, c.begin);
    EXPECT_LE(c.end - c.begin, 2u);
    expect_begin = c.end;
  }
  EXPECT_EQ(expect_begin, pages);  // full coverage, nothing beyond

  // chunk_pages = 0 degrades to single-page chunks, never an empty cut.
  auto fine = CutScanChunks(rel, false, 0);
  EXPECT_EQ(fine.size(), pages);
}

TEST_F(CutScanChunksTest, BTreePrimariesFallBackToCursor) {
  MakePaddedHeap("r", 40);
  Exec("modify r to btree on id");
  Relation* rel = Rel("r");
  ASSERT_NE(rel, nullptr);
  auto chunks = CutScanChunks(rel, false, 2);
  // B-tree scans follow leaf links, so the store cannot be cut by page
  // number: one whole-store cursor chunk.
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_TRUE(chunks[0].use_cursor);
  EXPECT_EQ(chunks[0].file, rel->primary());
}

TEST_F(CutScanChunksTest, IsamChunksReplayTheSerialVisitOrder) {
  MakePaddedHeap("r", 40);
  Exec("modify r to isam on id where fillfactor = 100");
  // One long overflow chain, on the data page that holds id 5; every other
  // data page keeps an empty chain.
  for (int k = 0; k < 30; ++k) {
    Exec(StrPrintf("append to r (id = 5, v = %d)", k));
  }
  Relation* rel = Rel("r");
  ASSERT_NE(rel, nullptr);
  auto* isam = static_cast<IsamFile*>(rel->primary());
  const uint32_t data_pages = isam->meta().data_pages;
  const uint32_t chain_start = data_pages + isam->meta().dir_total();
  ASSERT_GE(data_pages, 4u);
  ASSERT_GE(isam->page_count(), chain_start + 3);  // the chain spans pages

  // Data-page ranges tile [0, data_pages); directory pages are never read.
  auto chunks = CutScanChunks(rel, /*current_only=*/false, 2);
  uint32_t expect_begin = 0;
  for (const ScanChunk& c : chunks) {
    EXPECT_EQ(c.file, rel->primary());
    EXPECT_TRUE(c.chains);
    EXPECT_FALSE(c.use_cursor);
    EXPECT_EQ(c.begin, expect_begin);
    EXPECT_GT(c.end, c.begin);
    EXPECT_LE(c.end - c.begin, 2u);
    expect_begin = c.end;
  }
  EXPECT_EQ(expect_begin, data_pages);

  // Walking the chunks in order — each data page, then its overflow chain —
  // visits the serial cursor's records in the cursor's order.
  const auto render = [](const Tid& t) {
    return StrPrintf("%u:%u", t.page, static_cast<unsigned>(t.slot));
  };
  std::vector<std::string> serial;
  auto cur = isam->Scan();
  ASSERT_TRUE(cur.ok());
  while (true) {
    auto have = (*cur)->Next();
    ASSERT_TRUE(have.ok());
    if (!*have) break;
    serial.push_back(render((*cur)->tid()));
  }
  std::vector<std::string> chunked;
  uint32_t chain_pages = 0;
  Pager* pager = isam->pager();
  for (const ScanChunk& c : chunks) {
    for (uint32_t first = c.begin; first < c.end; ++first) {
      for (uint32_t pno = first; pno != kNoPage;) {
        if (pno >= chain_start) ++chain_pages;
        auto frame = pager->ReadPage(pno, isam->ScanCategory(pno));
        ASSERT_TRUE(frame.ok());
        Page page(*frame, isam->layout().record_size, pager->usable_size());
        for (uint16_t s = 0; s < page.capacity(); ++s) {
          if (page.SlotUsed(s)) chunked.push_back(render(Tid{pno, s}));
        }
        pno = page.next_overflow();
      }
    }
  }
  EXPECT_EQ(chunked, serial);
  EXPECT_EQ(chain_pages, isam->page_count() - chain_start);
}

TEST_F(CutScanChunksTest, EmptyStoreYieldsNoChunks) {
  Exec("create persistent interval r (id = i4, v = i4)");
  Relation* rel = Rel("r");
  ASSERT_NE(rel, nullptr);
  EXPECT_TRUE(CutScanChunks(rel, false, 2).empty());
}

TEST_F(CutScanChunksTest, HistoryChunksFollowPrimaryInVisitOrder) {
  MakePaddedHeap("r", 40);
  Exec("range of x is r");
  Exec("modify r to twolevel hash on id where fillfactor = 100, "
       "history = simple");
  for (int round = 0; round < 3; ++round) {
    db_->AdvanceSeconds(1000);
    Exec("replace x (v = x.v + 1)");
  }
  Relation* rel = Rel("r");
  ASSERT_NE(rel, nullptr);
  ASSERT_TRUE(rel->two_level());
  ASSERT_NE(rel->history(), nullptr);
  ASSERT_GT(rel->history()->page_count(), 0u);

  auto chunks = CutScanChunks(rel, /*current_only=*/false, 2);
  // All primary chunks strictly precede all history chunks — the serial
  // scan's visit order, which chunk-order merging relies on.
  bool seen_history = false;
  size_t history_chunks = 0;
  for (const ScanChunk& c : chunks) {
    if (c.in_history) {
      seen_history = true;
      ++history_chunks;
      EXPECT_EQ(c.file, static_cast<StorageFile*>(rel->history()));
      EXPECT_FALSE(c.use_cursor);  // history heap is linear
    } else {
      EXPECT_FALSE(seen_history) << "primary chunk after a history chunk";
    }
  }
  EXPECT_GT(history_chunks, 0u);

  // current_only drops the history store entirely.
  for (const ScanChunk& c : CutScanChunks(rel, /*current_only=*/true, 2)) {
    EXPECT_FALSE(c.in_history);
  }
}

// ---- end-to-end determinism on a skewed database ----

/// Masks wall-clock times in an `explain analyze` rendering, leaving
/// structure, loops, rows, and per-node IoCounters for byte comparison.
std::string MaskTimes(const std::string& text) {
  static const std::regex kTime("time=[0-9]+\\.[0-9]{3}ms");
  return std::regex_replace(text, kTime, "time=*");
}

/// Renders the registry's per-file counters for byte comparison.
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

class ThreadDeterminismTest : public ::testing::Test {
 protected:
  /// Opens a fresh skewed database whose executor runs `threads` threads,
  /// replacing the previous one.
  void Open(int threads) {
    db_.reset();
    env_ = std::make_unique<MemEnv>();
    DatabaseOptions options;
    options.env = env_.get();
    options.exec_threads = threads;
    auto db = Database::Open("/db", options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(db).value();
    // Skewed morsel distribution: one giant heap (many chunks), one tiny
    // relation (a fraction of a chunk), and one empty relation (zero
    // chunks) — the worst case for static partitioning, handled here by
    // work-stealing over the chunk list.
    Exec("create persistent interval giant (id = i4, v = i4, pad = c100)");
    Exec("create persistent interval tiny (id = i4, v = i4)");
    Exec("create persistent interval empty (id = i4, v = i4)");
    Exec("range of g is giant");
    Exec("range of t is tiny");
    Exec("range of e is empty");
    for (int i = 0; i < 300; ++i) {
      Exec(StrPrintf("append to giant (id = %d, v = %d)", i, i % 50));
    }
    for (int i = 0; i < 3; ++i) {
      Exec(StrPrintf("append to tiny (id = %d, v = %d)", i * 100, i));
    }
    db_->AdvanceSeconds(60);
  }

  void Exec(const std::string& text) {
    auto r = db_->Execute(text);
    ASSERT_TRUE(r.ok()) << text << " -> " << r.status().ToString();
  }

  /// Runs `text` and returns (rows + io counters + masked analyze) as one
  /// comparable blob.
  std::string Observe(const std::string& text) {
    db_->io()->ResetAll();
    auto r = db_->Execute(text);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) return "<error>";
    std::string blob = r->result.ToString(TimeResolution::kSecond) +
                       StrPrintf("(%zu rows)\n", r->result.num_rows());
    blob += CountersString(db_.get());
    auto a = db_->Execute("explain analyze " + text);
    EXPECT_TRUE(a.ok()) << a.status().ToString();
    if (!a.ok()) return "<error>";
    for (const auto& row : a->result.rows) {
      blob += row[0].AsString() + "\n";
    }
    return MaskTimes(blob);
  }

  std::unique_ptr<MemEnv> env_;
  std::unique_ptr<Database> db_;
};

TEST_F(ThreadDeterminismTest, SkewedScansAreIdenticalAtEveryThreadCount) {
  const std::string queries[] = {
      "retrieve (g.id, g.v) where g.v < 7",
      "retrieve (g.id) where g.v = 13 and g.id > 100",
      "retrieve (t.id, t.v)",
      "retrieve (e.id)",                        // zero chunks
      "retrieve (g.id, t.v) where g.id = t.id"  // giant x tiny join
  };
  std::vector<std::string> base;
  for (int threads : {1, 2, 4, 8}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    Open(threads);
    for (size_t i = 0; i < std::size(queries); ++i) {
      SCOPED_TRACE(queries[i]);
      // Warm-up pins the single-frame pagers' resident pages so every
      // measured run starts from the same buffer state.
      ASSERT_TRUE(db_->Execute(queries[i]).ok());
      std::string blob = Observe(queries[i]);
      if (threads == 1) {
        base.push_back(blob);
      } else {
        EXPECT_EQ(blob, base[i]);
      }
    }
  }
}

TEST_F(ThreadDeterminismTest, UpdatesAndHistoryStayDeterministic) {
  const std::string query = "retrieve (g.id, g.v) where g.v < 9";
  std::string base;
  for (int threads : {1, 2, 4, 8}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    Open(threads);
    // Pile history versions onto the giant relation, then sweep: the
    // history pages multiply the chunk count and every version qualifies.
    for (int round = 0; round < 2; ++round) {
      db_->AdvanceSeconds(1000);
      Exec("replace g (v = g.v + 1) where g.id < 150");
    }
    db_->AdvanceSeconds(60);
    ASSERT_TRUE(db_->Execute(query).ok());
    std::string blob = Observe(query);
    if (threads == 1) {
      base = blob;
    } else {
      EXPECT_EQ(blob, base);
    }
  }
}

// ---- per-Database exec options ----

TEST(ExecOptionsTest, PerDatabaseOptionsDoNotChangeResults) {
  auto build = [](Env* env, DatabaseOptions options) {
    options.env = env;
    auto db = Database::Open("/db", options);
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    auto d = std::move(db).value();
    auto exec = [&](const std::string& text) {
      auto r = d->Execute(text);
      ASSERT_TRUE(r.ok()) << text << " -> " << r.status().ToString();
    };
    exec("create persistent interval r (id = i4, v = i4, pad = c100)");
    exec("range of x is r");
    for (int i = 0; i < 120; ++i) {
      exec(StrPrintf("append to r (id = %d, v = %d)", i, i % 11));
    }
    d->AdvanceSeconds(60);
    return d;
  };
  auto rows = [](Database* db, const std::string& text) {
    auto r = db->Execute(text);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) return std::string("<error>");
    return r->result.ToString(TimeResolution::kSecond) +
           StrPrintf("(%zu rows)", r->result.num_rows());
  };

  MemEnv env_default, env_tuned;
  auto plain = build(&env_default, DatabaseOptions{});
  DatabaseOptions tuned;
  tuned.vector_exec = true;
  tuned.morsel_capacity = 7;  // tiny morsels: many batch boundaries
  tuned.exec_threads = 4;
  auto fancy = build(&env_tuned, tuned);

  const std::string queries[] = {
      "retrieve (x.id, x.v) where x.v < 4",
      "retrieve (x.v) where x.id > 57 and x.v != 2",
  };
  for (const std::string& q : queries) {
    SCOPED_TRACE(q);
    EXPECT_EQ(rows(plain.get(), q), rows(fancy.get(), q));
  }
}

}  // namespace
}  // namespace tdb
