// Reproduces the Section 5.4 experiment: non-uniform update distribution.
//
// Instead of updating every tuple once per round, a SINGLE tuple is updated
// repeatedly (the maximum-variance case).  The paper's claim: the growth
// rate *averaged over all tuples* is the same as under uniform updates —
// e.g. updating one tuple of a 100%-loaded temporal relation 1024 times
// (average update count 1) makes a hashed access to any tuple sharing the
// hot tuple's page cost 257 reads while every other access costs 1, so the
// weighted average is 3, identical to the uniform case.
//
// We scale the experiment (updating one tuple n*N times costs O(n^2) page
// writes, as the paper notes) to average update counts 0..2 with N=256.

#include "bench_util.h"

using namespace tdb;
using namespace tdb::bench;

int main() {
  constexpr int kTuples = 256;
  constexpr int kHotId = 17;
  constexpr int kMaxAvgUc = 2;

  TablePrinter table({"avg uc", "distribution", "Q01 hot tuple",
                      "Q01 cold tuple", "Q01 weighted avg", "uniform Q01"});

  // Uniform baseline.
  WorkloadConfig uniform_config;
  uniform_config.type = DbType::kTemporal;
  uniform_config.fillfactor = 100;
  uniform_config.ntuples = kTuples;
  auto uniform = CheckOk(BenchmarkDb::Create(uniform_config, DriverOptions()), "create");
  std::vector<uint64_t> uniform_q01;
  for (int uc = 0; uc <= kMaxAvgUc; ++uc) {
    uniform_q01.push_back(
        CheckOk(uniform->RunQuery(1), "q01").input_pages);
    if (uc < kMaxAvgUc) CheckOk(uniform->UniformUpdateRound(), "update");
  }

  // Non-uniform: all updates hit tuple kHotId.
  WorkloadConfig hot_config = uniform_config;
  auto hot = CheckOk(BenchmarkDb::Create(hot_config, DriverOptions()), "create");
  for (int uc = 0; uc <= kMaxAvgUc; ++uc) {
    // Hashed access to the hot tuple vs a tuple in an untouched bucket.
    auto hot_probe = CheckOk(
        hot->RunText(StrPrintf("retrieve (h.id, h.seq) where h.id = %d",
                               kHotId)),
        "hot probe");
    auto cold_probe = CheckOk(
        hot->RunText(StrPrintf("retrieve (h.id, h.seq) where h.id = %d",
                               kHotId + 1)),  // different bucket (mod hash)
        "cold probe");
    // Tuples sharing the hot bucket see the full chain; with division
    // hashing the hot bucket holds `tuples/buckets` tuples.
    auto rel = hot->db()->GetRelation("bench_h");
    CheckOk(rel.status(), "relation");
    uint32_t buckets = 0;
    if ((*rel)->primary()->org() == Organization::kHash) {
      buckets = static_cast<HashFile*>((*rel)->primary())->nbuckets();
    }
    double per_bucket = buckets > 0 ? double(kTuples) / buckets : 1;
    double weighted =
        (per_bucket * double(hot_probe.input_pages) +
         double(kTuples - per_bucket) * double(cold_probe.input_pages)) /
        double(kTuples);
    table.AddRow({Cell(uint64_t(uc)), "single hot tuple",
                  Cell(hot_probe.input_pages), Cell(cold_probe.input_pages),
                  Cell(weighted, 2), Cell(uniform_q01[uc])});
    if (uc < kMaxAvgUc) {
      CheckOk(hot->UpdateSingleTuple(kHotId, kTuples), "hot updates");
    }
  }

  std::printf(
      "Section 5.4: non-uniform (maximum variance) update distribution\n\n"
      "%s\n",
      table.ToString().c_str());
  std::printf(
      "Paper's claim: the weighted-average cost equals the uniform-"
      "distribution cost,\nso the growth rate is independent of the update "
      "distribution.\n");
  return 0;
}
