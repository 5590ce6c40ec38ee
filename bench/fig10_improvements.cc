// Reproduces Figure 10: "Improvements for the Temporal Database" — the
// Section 6 enhancements, measured (the paper's numbers were estimates):
//
//   conventional uc0 / uc14   the prototype baseline,
//   2-level simple            current versions in the primary store,
//                             history appended to a heap history store,
//   2-level clustered         history versions of one tuple clustered on
//                             per-tuple pages,
//   + index on amount         secondary index as 1-level/2-level x
//                             heap/hash (shown for Q07/Q08, the non-key
//                             selections it accelerates).
//
// Paper values (Fig. 10, uc=14): Q05 29 -> 1; Q07 3717 -> 129 (two-level)
// -> 324/30 (1-level heap/hash) -> 12/2 (2-level heap/hash); Q01 29 -> 5
// (clustered); Q10 34493 -> 2233.

#include "bench_util.h"

using namespace tdb;
using namespace tdb::bench;

namespace {

std::map<int, Measure> RunVariant(const WorkloadConfig& config, int uc,
                                  size_t cell, const std::string& label,
                                  MetricsSink* sink) {
  auto bench = CheckOk(BenchmarkDb::Create(config, DriverOptions()), "create");
  auto sweep = Sweep(bench.get(), uc, AllQueries());
  sink->Add(cell, label, bench->db());
  return sweep.back();
}

}  // namespace

int main(int argc, char** argv) {
  constexpr int kUc = 14;
  MetricsSink sink(argc, argv, "METRICS_fig10.json");
  WorkloadConfig base;
  base.type = DbType::kTemporal;
  base.fillfactor = 100;

  WorkloadConfig simple = base;
  simple.two_level = true;

  WorkloadConfig clustered = simple;
  clustered.clustered_history = true;

  // All eight variants (4 store layouts + 4 index layouts) are independent
  // databases: run them as concurrent cells.  The index runs are keyed by
  // name below exactly as before, so the printed tables are unchanged.
  struct Variant {
    std::string name;
    WorkloadConfig config;
    int uc;
  };
  std::vector<Variant> variants = {
      {"conv0", base, 0},
      {"conv14", base, kUc},
      {"2lvl simple", simple, kUc},
      {"2lvl clustered", clustered, kUc},
  };
  for (const char* structure : {"heap", "hash"}) {
    for (int levels : {1, 2}) {
      WorkloadConfig config = clustered;
      config.index_structure = structure;
      config.index_levels = levels;
      variants.push_back(
          {StrPrintf("%dlvl %s", levels, structure), config, kUc});
    }
  }
  int64_t t0 = NowMillis();
  auto runs = RunCells(variants.size(), [&](size_t i) {
    return RunVariant(variants[i].config, variants[i].uc, i, variants[i].name,
                      &sink);
  });
  std::fprintf(stderr, "fig10: %zu cells on %zu threads in %lld ms\n",
               variants.size(), BenchThreads(variants.size()),
               static_cast<long long>(NowMillis() - t0));

  auto& conventional0 = runs[0];
  auto& conventional14 = runs[1];
  auto& twolevel_simple = runs[2];
  auto& twolevel_clustered = runs[3];
  std::map<std::string, std::map<int, Measure>> idx_runs;
  for (size_t i = 4; i < variants.size(); ++i) {
    idx_runs[variants[i].name] = std::move(runs[i]);
  }

  TablePrinter table({"query", "conv uc0", "conv uc14", "2lvl simple",
                      "2lvl clustered"});
  for (int q = 1; q <= 12; ++q) {
    auto cell = [&](const std::map<int, Measure>& m) {
      auto it = m.find(q);
      return it == m.end() ? std::string("-") : Cell(it->second.input_pages);
    };
    table.AddRow({StrPrintf("Q%02d", q), cell(conventional0),
                  cell(conventional14), cell(twolevel_simple),
                  cell(twolevel_clustered)});
  }
  std::printf(
      "Figure 10 (part 1): two-level store for the temporal database, 100%% "
      "loading, uc=14\n\n%s\n",
      table.ToString().c_str());

  // Secondary index variants, measured on the clustered two-level store.
  TablePrinter idx_table({"query", "no index", "1lvl heap", "1lvl hash",
                          "2lvl heap", "2lvl hash"});
  for (int q : {7, 8}) {
    idx_table.AddRow({StrPrintf("Q%02d", q),
                      Cell(twolevel_clustered.at(q).input_pages),
                      Cell(idx_runs["1lvl heap"].at(q).input_pages),
                      Cell(idx_runs["1lvl hash"].at(q).input_pages),
                      Cell(idx_runs["2lvl heap"].at(q).input_pages),
                      Cell(idx_runs["2lvl hash"].at(q).input_pages)});
  }
  std::printf(
      "Figure 10 (part 2): secondary index on `amount` (two-level store, "
      "uc=14)\n\n%s\n",
      idx_table.ToString().c_str());
  std::printf(
      "Paper (Fig. 10): static queries become flat under the two-level "
      "store;\nthe 2-level hash index answers Q07 in 2 page reads instead of "
      "3717.\n");
  sink.Write();
  return 0;
}
