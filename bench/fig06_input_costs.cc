// Reproduces Figure 6: "Input Costs for the Temporal Database with 100%
// Loading" — page reads for Q01..Q12 as the average update count grows
// from 0 to 15.
//
// Paper values at selected cells (Fig. 6):
//   Q01: 1, 3, 5, ..., 31          Q03: 129, 387, ..., 3975
//   Q05: 1, 3, 5, ..., 31          Q07: 129, 387, ..., 3975
//   Q09: 1290, 3512, ..., 35654    Q10: 2233, 4539, ..., 36709
//   Q11: 385, 1155, ..., 11911     Q12: 131, 389, ..., 4001

#include "bench_util.h"

using namespace tdb;
using namespace tdb::bench;

int main() {
  constexpr int kMaxUc = 15;
  WorkloadConfig config;
  config.type = DbType::kTemporal;
  config.fillfactor = 100;
  auto bench = CheckOk(BenchmarkDb::Create(config, DriverOptions()), "create");
  auto sweep = Sweep(bench.get(), kMaxUc, AllQueries());

  std::vector<std::string> headers = {"query"};
  for (int uc = 0; uc <= kMaxUc; ++uc) headers.push_back(Cell(uint64_t(uc)));
  TablePrinter table(std::move(headers));
  for (int q = 1; q <= 12; ++q) {
    std::vector<std::string> row = {StrPrintf("Q%02d", q)};
    for (int uc = 0; uc <= kMaxUc; ++uc) {
      row.push_back(Cell(sweep[uc].at(q).input_pages));
    }
    table.AddRow(std::move(row));
  }
  std::printf(
      "Figure 6: Input costs (pages read) for the temporal database, 100%% "
      "loading, update count 0..15\n\n%s\n",
      table.ToString().c_str());

  // Output (temporary relation) costs, constant across update counts.
  TablePrinter out_table({"query", "output pages (any uc)"});
  for (int q : {9, 10, 12}) {
    out_table.AddRow({StrPrintf("Q%02d", q),
                      Cell(sweep[kMaxUc].at(q).output_pages)});
  }
  std::printf(
      "Output costs (temporary-relation writes; 0 for all other queries):\n\n"
      "%s\n",
      out_table.ToString().c_str());
  return 0;
}
