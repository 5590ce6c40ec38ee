// Ablation: buffer frames per relation.
//
// The paper's methodology pins ONE buffer frame per user relation: "the
// number of disk accesses varies greatly depending on the number of
// internal buffers and the algorithm for buffer management.  To eliminate
// such influences ... we allocated only 1 buffer for each user relation."
//
// This sweep shows what they eliminated: with more frames per relation the
// measured page reads of the same queries drop (re-reads of hot pages —
// ISAM directory roots, probe chains, temp pages — become free), so cost
// numbers from different buffer budgets would not be comparable.

#include "bench_util.h"

using namespace tdb;
using namespace tdb::bench;

int main() {
  constexpr int kUc = 4;
  const std::vector<int> kFrames = {1, 2, 4, 8, 16};

  std::map<int, std::map<int, Measure>> runs;  // frames -> query -> measure
  for (int frames : kFrames) {
    WorkloadConfig config;
    config.type = DbType::kTemporal;
    config.fillfactor = 100;
    config.buffer_frames = frames;
    auto bench = CheckOk(BenchmarkDb::Create(config, DriverOptions()), "create");
    for (int round = 0; round < kUc; ++round) {
      CheckOk(bench->UniformUpdateRound(), "update");
    }
    for (int q : {1, 3, 9, 10, 11, 12}) {
      runs[frames][q] = CheckOk(bench->RunQuery(q), "query");
    }
  }

  std::vector<std::string> headers = {"query"};
  for (int frames : kFrames) headers.push_back(StrPrintf("frames=%d", frames));
  TablePrinter table(std::move(headers));
  for (int q : {1, 3, 9, 10, 11, 12}) {
    std::vector<std::string> row = {StrPrintf("Q%02d", q)};
    for (int frames : kFrames) {
      row.push_back(Cell(runs[frames][q].input_pages));
    }
    table.AddRow(std::move(row));
  }
  std::printf(
      "Input pages at uc=%d by buffer frames per relation (temporal, 100%%)\n"
      "\n%s\n",
      kUc, table.ToString().c_str());
  std::printf(
      "Chain re-reads and directory hits become free as the pool grows —\n"
      "which is why the paper pinned the pool at one frame per relation.\n");
  return 0;
}
