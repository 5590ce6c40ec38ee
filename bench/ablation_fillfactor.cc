// Ablation: the loading-factor trade-off of Section 6.
//
// "Since lower loading reduces the number of overflow pages ... it results
//  in a lower growth rate.  Hence better performance is achieved with a
//  lower loading factor when the update count is high.  But there is an
//  overhead ... which may cause worse performance than a higher loading
//  when the update count is low."  (The paper's example: Q10 at uc=0 costs
//  3385 pages at 50% loading vs 2233 at 100%.)
//
// This sweep varies the fill factor over {100, 75, 50, 25} on the temporal
// database and prints the Q07 (sequential scan) and Q05 (hashed access)
// costs per update count, exposing the crossover.

#include "bench_util.h"

using namespace tdb;
using namespace tdb::bench;

int main() {
  constexpr int kMaxUc = 12;
  const std::vector<int> kFillfactors = {100, 75, 50, 25};

  std::map<int, std::vector<std::map<int, Measure>>> sweeps;
  for (int ff : kFillfactors) {
    WorkloadConfig config;
    config.type = DbType::kTemporal;
    config.fillfactor = ff;
    auto bench = CheckOk(BenchmarkDb::Create(config, DriverOptions()), "create");
    sweeps[ff] = Sweep(bench.get(), kMaxUc, {5, 7, 10});
  }

  for (int q : {5, 7, 10}) {
    std::vector<std::string> headers = {"uc"};
    for (int ff : kFillfactors) {
      headers.push_back(StrPrintf("ff=%d", ff));
    }
    TablePrinter table(std::move(headers));
    for (int uc = 0; uc <= kMaxUc; ++uc) {
      std::vector<std::string> row = {Cell(uint64_t(uc))};
      for (int ff : kFillfactors) {
        row.push_back(Cell(sweeps[ff][uc].at(q).input_pages));
      }
      table.AddRow(std::move(row));
    }
    std::printf("Q%02d input pages by fill factor (temporal database)\n\n%s\n",
                q, table.ToString().c_str());
  }
  std::printf(
      "Lower loading starts more expensive (more primary/directory pages) "
      "but\ngrows more slowly; the curves cross as the update count "
      "rises.\n");
  return 0;
}
