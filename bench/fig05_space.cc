// Reproduces Figure 5: "Space Requirements (in Pages)" — the size of the
// hashed (H) and ISAM (I) relations of each database type at update counts
// 0 and 14, the growth per update, and the growth rate (growth / size at
// update count 0).
//
// Paper values for comparison (Fig. 5):
//   rollback/historical 100%: size0 129/129, size14 1927/1921, growth ~128,
//                             rate ~1
//   rollback/historical  50%: size0 257/259, size14 2048/2051, growth ~128,
//                             rate ~0.5
//   temporal 100%: size0 129/129, size14 3717/3713, growth ~256, rate ~2
//   temporal  50%: size0 257/259, size14 3839/3843, growth ~256, rate ~1

#include "bench_util.h"

using namespace tdb;
using namespace tdb::bench;

int main() {
  constexpr int kMaxUc = 15;
  TablePrinter table({"type", "loading", "rel", "size uc0", "size uc14",
                      "growth/update", "growth rate"});

  for (DbType type : {DbType::kStatic, DbType::kRollback, DbType::kHistorical,
                      DbType::kTemporal}) {
    for (int fillfactor : {100, 50}) {
      WorkloadConfig config;
      config.type = type;
      config.fillfactor = fillfactor;
      auto bench = CheckOk(BenchmarkDb::Create(config, DriverOptions()), "create");

      std::map<int, std::pair<uint64_t, uint64_t>> sizes;  // uc -> (H, I)
      for (int uc = 0; uc <= kMaxUc; ++uc) {
        sizes[uc] = {CheckOk(bench->PagesOf("h"), "pages h"),
                     CheckOk(bench->PagesOf("i"), "pages i")};
        if (uc < kMaxUc) CheckOk(bench->UniformUpdateRound(), "update");
      }

      for (const char* rel : {"h", "i"}) {
        bool is_h = rel[0] == 'h';
        uint64_t s0 = is_h ? sizes[0].first : sizes[0].second;
        uint64_t s14 = is_h ? sizes[14].first : sizes[14].second;
        if (type == DbType::kStatic) {
          table.AddRow({DbTypeName(type), LoadingName(fillfactor),
                        is_h ? "H" : "I", Cell(s0), "-", "-", "-"});
          continue;
        }
        double growth = static_cast<double>(s14 - s0) / 14.0;
        double rate = growth / static_cast<double>(s0);
        table.AddRow({DbTypeName(type), LoadingName(fillfactor),
                      is_h ? "H" : "I", Cell(s0), Cell(s14), Cell(growth, 1),
                      Cell(rate, 2)});
      }
    }
  }
  std::printf("Figure 5: Space Requirements (in pages)\n\n%s\n",
              table.ToString().c_str());
  std::printf(
      "Paper (Fig. 5): rollback/historical grow ~128 pages/update (rate = "
      "loading factor);\ntemporal grows ~256 pages/update (rate = 2x loading "
      "factor); static does not grow.\n");
  return 0;
}
