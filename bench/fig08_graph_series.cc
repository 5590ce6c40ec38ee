// Reproduces Figure 8: "Graphs for Input Pages" as plottable CSV series.
//   (a) the temporal database with 100% loading — straight lines of
//       different slope per query;
//   (b) the rollback database with 50% loading — the jagged lines caused
//       by odd-numbered updates filling the slack left at 50% fill before
//       new overflow pages are added.
//
// Output: CSV to stdout (uc, then one column per query), two blocks.

#include "bench_util.h"

using namespace tdb;
using namespace tdb::bench;

namespace {

struct SeriesSpec {
  const char* title;
  DbType type;
  int fillfactor;
  int max_uc;
};

struct SeriesData {
  std::vector<int> qs;  // queries defined for this database type
  std::vector<std::map<int, Measure>> sweep;
};

// Measurement only — printing happens serially afterwards so the two
// series can be computed concurrently without reordering stdout.
SeriesData ComputeSeries(const SeriesSpec& spec, size_t cell,
                         MetricsSink* sink) {
  WorkloadConfig config;
  config.type = spec.type;
  config.fillfactor = spec.fillfactor;
  auto bench = CheckOk(BenchmarkDb::Create(config, DriverOptions()), "create");
  SeriesData data;
  for (int q = 1; q <= 12; ++q) {
    if (!bench->QueryText(q).empty()) data.qs.push_back(q);
  }
  data.sweep = Sweep(bench.get(), spec.max_uc, AllQueries());
  sink->Add(cell, spec.title, bench->db());
  return data;
}

void PrintSeries(const SeriesSpec& spec, const SeriesData& data) {
  std::printf("# %s\n", spec.title);
  std::printf("uc");
  for (int q : data.qs) std::printf(",Q%02d", q);
  std::printf("\n");
  for (int uc = 0; uc <= spec.max_uc; ++uc) {
    std::printf("%d", uc);
    for (int q : data.qs) {
      std::printf(",%llu",
                  (unsigned long long)data.sweep[uc].at(q).input_pages);
    }
    std::printf("\n");
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  MetricsSink sink(argc, argv, "METRICS_fig08.json");
  const std::vector<SeriesSpec> specs = {
      {"Figure 8(a): temporal database, 100% loading", DbType::kTemporal, 100,
       15},
      {"Figure 8(b): rollback database, 50% loading (jagged lines)",
       DbType::kRollback, 50, 15},
  };
  int64_t t0 = NowMillis();
  auto series = RunCells(
      specs.size(), [&](size_t i) { return ComputeSeries(specs[i], i, &sink); });
  std::fprintf(stderr, "fig08: %zu cells on %zu threads in %lld ms\n",
               specs.size(), BenchThreads(specs.size()),
               static_cast<long long>(NowMillis() - t0));
  for (size_t i = 0; i < specs.size(); ++i) PrintSeries(specs[i], series[i]);
  sink.Write();
  return 0;
}
