// Production-storage sweep: page size x buffer pool x vacuum partition
// policy (ROADMAP item 3, the levers DESIGN.md section 14 documents).
//
// Axis 1/2 (the query grid): the paper's temporal workload at update count
// 4 runs its query mix under every (page_size, pool) cell.  The paper cell
// (1024-byte pages, one private frame per relation) reproduces the paper's
// counts; the production cells show what bigger pages and a shared pool
// buy — 4096-byte pages cut the page count of every sequential scan ~4x,
// and an uncapped warm pool eliminates the re-reads the single-frame
// discipline was designed to expose (ISAM directory roots, join
// ping-pong, temp re-reads).
//
// Axis 3 (vacuum): a two-level history relation is vacuumed under each
// partition policy; the sweep reports versions migrated, segments created,
// vacuum cost, and the query mix's page-count shift.  (History queries
// still read every version after a vacuum — correctness is pinned by the
// test battery — so the mix count moves only slightly; the vacuum win is
// organizational: cold versions live in epoch-partitioned segment files
// the active store no longer carries.)
//
// Output is a single JSON object on stdout; scripts/make_bench_storage.py
// adds the headline ratios and writes BENCH_storage.json.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"

using namespace tdb;
using namespace tdb::bench;

namespace {

constexpr int kUpdateRounds = 4;
const std::vector<int> kQueries = {1, 3, 5, 9, 10, 11, 12};

struct GridCell {
  std::string pool;  // "paper" | "pool_cap1" | "pool_warm"
  uint32_t page_size;
  int pool_frames;
  int pool_file_cap;
  uint64_t input_pages = 0;
  uint64_t output_pages = 0;
  uint64_t rows = 0;
  double wall_ms = 0;
};

/// Runs the query mix once and accumulates its totals into `cell`.
void RunMix(BenchmarkDb* bench, GridCell* cell) {
  for (int q : kQueries) {
    if (bench->QueryText(q).empty()) continue;
    Measure m = CheckOk(bench->RunQuery(q), "query");
    cell->input_pages += m.input_pages;
    cell->output_pages += m.output_pages;
    cell->rows += m.rows;
    cell->wall_ms += m.wall_ms;
  }
}

std::string JsonGridCell(const GridCell& c) {
  return StrPrintf(
      "    {\"pool\": \"%s\", \"page_size\": %u, \"pool_frames\": %d, "
      "\"pool_file_cap\": %d, \"input_pages\": %llu, \"output_pages\": "
      "%llu, \"rows\": %llu, \"wall_ms\": %.2f}",
      c.pool.c_str(), c.page_size, c.pool_frames, c.pool_file_cap,
      static_cast<unsigned long long>(c.input_pages),
      static_cast<unsigned long long>(c.output_pages),
      static_cast<unsigned long long>(c.rows), c.wall_ms);
}

struct VacuumRun {
  std::string policy;
  uint32_t page_size;
  int64_t migrated = 0;
  std::string message;
  double vacuum_ms = 0;
  uint64_t mix_pages_before = 0;
  uint64_t mix_pages_after = 0;
};

}  // namespace

int main(int argc, char** argv) {
  int ntuples = 1024;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--ntuples=", 0) == 0) {
      ntuples = std::atoi(arg.c_str() + 10);
    }
  }

  // ---- axes 1 and 2: page size x pool over the paper query mix ----
  struct PoolVariant {
    const char* name;
    int frames;
    int cap;
  };
  const PoolVariant kPools[] = {
      {"paper", 0, 0},         // private single frame per relation
      {"pool_cap1", 64, 0},    // shared pool at paper parity (1/file)
      {"pool_warm", 256, -1},  // uncapped pool, warm across relations
  };

  std::vector<GridCell> cells;
  for (uint32_t page_size : {1024u, 4096u}) {
    for (const PoolVariant& pv : kPools) {
      WorkloadConfig config;
      config.type = DbType::kTemporal;
      config.fillfactor = 100;
      config.ntuples = ntuples;
      config.page_size = page_size == 1024 ? 0 : page_size;
      config.pool_frames = pv.frames;
      config.pool_file_cap = pv.cap;
      auto bench = CheckOk(BenchmarkDb::Create(config, DriverOptions()), "create");
      for (int round = 0; round < kUpdateRounds; ++round) {
        CheckOk(bench->UniformUpdateRound(), "update");
      }
      GridCell cell;
      cell.pool = pv.name;
      cell.page_size = page_size;
      cell.pool_frames = pv.frames;
      cell.pool_file_cap = pv.cap;
      // One unmeasured pass warms the pool (the paper cell's single frames
      // hold only the trailing page, so it stays effectively cold).
      RunMix(bench.get(), &cell);
      cell = GridCell{pv.name, page_size, pv.frames, pv.cap};
      RunMix(bench.get(), &cell);
      cells.push_back(cell);
    }
  }

  // ---- axis 3: vacuum partition policy on a two-level history store ----
  // The historical type retires versions with a plain valid-to stamp, so
  // whole chains go cold and each update round's day lands in its own
  // epoch segment.  (Temporal relations interleave tx_stop=Forever
  // correction versions, which vacuum rightly never moves — rollback can
  // still surface them — so only the oldest cold run would migrate there.)
  std::vector<VacuumRun> vacuums;
  for (uint32_t page_size : {1024u, 4096u}) {
    for (const char* policy : {"single", "epoch:86400"}) {
      WorkloadConfig config;
      config.type = DbType::kHistorical;
      config.fillfactor = 100;
      config.ntuples = ntuples;
      config.two_level = true;
      config.page_size = page_size == 1024 ? 0 : page_size;
      config.vacuum_partition = policy;
      auto bench = CheckOk(BenchmarkDb::Create(config, DriverOptions()), "create");
      for (int round = 0; round < kUpdateRounds; ++round) {
        CheckOk(bench->UniformUpdateRound(), "update");
      }
      VacuumRun run;
      run.policy = policy;
      run.page_size = page_size;
      for (int q : kQueries) {
        if (bench->QueryText(q).empty()) continue;
        run.mix_pages_before +=
            CheckOk(bench->RunQuery(q), "query").input_pages;
      }
      auto t0 = std::chrono::steady_clock::now();
      auto r = bench->db()->Execute("vacuum bench_h");
      CheckOk(r.status(), "vacuum");
      run.vacuum_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
      run.migrated = r->affected;
      run.message = r->message;
      for (int q : kQueries) {
        if (bench->QueryText(q).empty()) continue;
        run.mix_pages_after +=
            CheckOk(bench->RunQuery(q), "query").input_pages;
      }
      vacuums.push_back(run);
    }
  }

  // ---- emit ----
  std::printf("{\n");
  std::printf("  \"source\": \"bench/storage_sweep.cc\",\n");
  std::printf("  \"workload\": {\"type\": \"temporal\", \"ntuples\": %d, "
              "\"update_rounds\": %d, \"queries\": \"Q1 Q3 Q5 Q9-Q12\"},\n",
              ntuples, kUpdateRounds);
  std::printf("  \"cells\": [\n");
  for (size_t i = 0; i < cells.size(); ++i) {
    std::printf("%s%s\n", JsonGridCell(cells[i]).c_str(),
                i + 1 < cells.size() ? "," : "");
  }
  std::printf("  ],\n");
  std::printf("  \"vacuum\": [\n");
  for (size_t i = 0; i < vacuums.size(); ++i) {
    const VacuumRun& v = vacuums[i];
    std::printf(
        "    {\"policy\": \"%s\", \"page_size\": %u, \"migrated\": %lld, "
        "\"vacuum_ms\": %.2f, \"mix_pages_before\": %llu, "
        "\"mix_pages_after\": %llu, \"message\": \"%s\"}%s\n",
        v.policy.c_str(), v.page_size, static_cast<long long>(v.migrated),
        v.vacuum_ms, static_cast<unsigned long long>(v.mix_pages_before),
        static_cast<unsigned long long>(v.mix_pages_after),
        v.message.c_str(), i + 1 < vacuums.size() ? "," : "");
  }
  std::printf("  ]\n");
  std::printf("}\n");
  return 0;
}
