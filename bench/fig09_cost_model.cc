// Reproduces Figure 9: "Fixed Costs, Variable Costs and Growth Rates" and
// validates the Section 5.3 cost formula.
//
// The fixed portion of a query's cost (ISAM directory traversal +
// temporary-relation I/O) is *measured* here via categorized page-read
// accounting, not estimated.  The growth rate is
//   (cost(n) - cost(0)) / (variable cost * n)
// and the paper's central result is that it depends only on the database
// type and the loading factor:
//   rollback/historical: rate ~= loading;  temporal: rate ~= 2 x loading.
//
// The second table checks the predictive formula
//   cost(n) = fixed + variable * (1 + rate * n)
// using the *law-implied* rate (loading x type multiplier) against the
// measured cost at every update count.

#include <cmath>

#include "bench_util.h"

using namespace tdb;
using namespace tdb::bench;

int main(int argc, char** argv) {
  constexpr int kMaxUc = 14;
  MetricsSink sink(argc, argv, "METRICS_fig09.json");
  TablePrinter table({"type", "loading", "query", "fixed", "variable",
                      "growth rate", "law-implied rate"});
  TablePrinter formula({"type", "loading", "query", "measured uc7",
                        "predicted uc7", "rel err %", "max rel err % (all uc)"});

  struct Cfg {
    DbType type;
    int fillfactor;
  };
  std::vector<Cfg> cfgs;
  for (DbType type : {DbType::kRollback, DbType::kTemporal}) {
    for (int fillfactor : {100, 50}) cfgs.push_back({type, fillfactor});
  }
  // Sweep the four (type, loading) cells concurrently; the tables are built
  // serially below, in cell order, so stdout is unchanged.
  int64_t t0 = NowMillis();
  auto sweeps = RunCells(cfgs.size(), [&](size_t i) {
    WorkloadConfig config;
    config.type = cfgs[i].type;
    config.fillfactor = cfgs[i].fillfactor;
    auto bench = CheckOk(BenchmarkDb::Create(config, DriverOptions()), "create");
    auto sweep = Sweep(bench.get(), kMaxUc, AllQueries());
    sink.Add(i, std::string(DbTypeName(cfgs[i].type)) + " " +
                    LoadingName(cfgs[i].fillfactor),
             bench->db());
    return sweep;
  });
  std::fprintf(stderr, "fig09: %zu cells on %zu threads in %lld ms\n",
               cfgs.size(), BenchThreads(cfgs.size()),
               static_cast<long long>(NowMillis() - t0));

  for (size_t ci = 0; ci < cfgs.size(); ++ci) {
    {
      DbType type = cfgs[ci].type;
      int fillfactor = cfgs[ci].fillfactor;
      const auto& sweep = sweeps[ci];

      double implied_rate = (type == DbType::kTemporal ? 2.0 : 1.0) *
                            (fillfactor / 100.0);
      for (int q = 1; q <= 12; ++q) {
        if (sweep[0].find(q) == sweep[0].end()) continue;
        const Measure& m0 = sweep[0].at(q);
        const Measure& mN = sweep[kMaxUc].at(q);
        double fixed = static_cast<double>(m0.fixed_pages);
        double variable = static_cast<double>(m0.input_pages) - fixed;
        if (variable <= 0) variable = 1;  // degenerate tiny queries
        double rate =
            (static_cast<double>(mN.input_pages) -
             static_cast<double>(m0.input_pages)) /
            (variable * kMaxUc);
        table.AddRow({DbTypeName(type), LoadingName(fillfactor),
                      StrPrintf("Q%02d", q), Cell((uint64_t)fixed),
                      Cell((uint64_t)variable), Cell(rate, 2),
                      Cell(implied_rate, 2)});

        // Formula check across every measured update count.
        double max_err = 0;
        double pred7 = 0;
        for (int uc = 0; uc <= kMaxUc; ++uc) {
          double predicted = fixed + variable * (1.0 + implied_rate * uc);
          double measured = static_cast<double>(sweep[uc].at(q).input_pages);
          double err = measured > 0
                           ? std::fabs(predicted - measured) / measured * 100
                           : 0;
          max_err = std::max(max_err, err);
          if (uc == 7) pred7 = predicted;
        }
        double measured7 = static_cast<double>(sweep[7].at(q).input_pages);
        formula.AddRow({DbTypeName(type), LoadingName(fillfactor),
                        StrPrintf("Q%02d", q), Cell((uint64_t)measured7),
                        Cell(pred7, 0),
                        Cell(std::fabs(pred7 - measured7) / measured7 * 100,
                             1),
                        Cell(max_err, 1)});
      }
    }
  }

  std::printf(
      "Figure 9: fixed cost, variable cost and measured growth rate\n"
      "(historical behaves like rollback; static does not grow)\n\n%s\n",
      table.ToString().c_str());
  std::printf(
      "Section 5.3 formula check: cost(n) = fixed + variable*(1 + rate*n) "
      "with the law-implied rate\n\n%s\n",
      formula.ToString().c_str());
  sink.Write();
  return 0;
}
