// Crash-recovery proof for the journal (ISSUE: crash-safe durability).
//
// The matrix test freezes the file image at *every* mutating env-operation
// index k (a simulated power cut), reopens the database, and asserts the
// recovered byte image equals exactly the pre- or the post-statement state
// of whichever statement operation k fell in, and that the recovered clock
// is later than every transaction stamp the relations hold (the crash
// points include every op of the clock-ceiling write, which the first
// append makes).  A seeded-random sweep then replays the same contract
// with randomized crash points, torn-write sizes, and durability modes;
// failures dump the seed and the journal image to $TDB_CRASH_ARTIFACT_DIR
// for CI to upload.
//
// Production storage mode rides the same machinery: a second matrix runs
// the workload on 4096-byte pages, and a dedicated sweep crashes a vacuum
// migration at every op index — recovery must restore the pre-vacuum image
// or complete the statement, idempotently, including deleting segment
// files the crashed vacuum created mid-batch.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "clock_test_util.h"
#include "core/chronoquel.h"
#include "env/fault_env.h"

namespace tdb {
namespace {

// A workload touching every journaled path: relation creation, appends
// (page writes + allocation), replace/delete (two-level moves), secondary
// index DDL + maintenance, a modify rebuild, and a destroy.
const std::vector<std::string>& Script() {
  static const std::vector<std::string> kScript = {
      "create persistent emp (name = c8, sal = i4)",
      "append to emp (name = \"ada\", sal = 100)",
      "append to emp (name = \"bob\", sal = 200)",
      "append to emp (name = \"eve\", sal = 300)",
      "range of e is emp",
      "replace e (sal = e.sal + 10) where e.name = \"ada\"",
      "delete e where e.name = \"bob\"",
      "index on emp is emp_sal (sal)",
      "append to emp (name = \"kay\", sal = 400)",
      "modify emp to hash on name",
      "create scratch (id = i4)",
      "append to scratch (id = 1)",
      "destroy scratch",
  };
  return kScript;
}

// History-maintenance workload: builds a two-level store with retired
// versions, vacuums it twice (the second onto existing segments, under an
// epoch partition policy so several segment files exist), keeps mutating
// between the vacuums, and finally destroys the relation so segment-file
// deletion is journaled too.
const std::vector<std::string>& VacuumScript() {
  static const std::vector<std::string> kScript = {
      "create persistent emp (name = c8, sal = i4)",
      "append to emp (name = \"ada\", sal = 100)",
      "append to emp (name = \"bob\", sal = 200)",
      "modify emp to twolevel hash on name where fillfactor = 100",
      "range of e is emp",
      "replace e (sal = e.sal + 1)",
      "replace e (sal = e.sal + 1)",
      "vacuum emp",
      "append to emp (name = \"kay\", sal = 300)",
      "replace e (sal = e.sal + 2) where e.name = \"kay\"",
      "vacuum emp",
      "destroy emp",
  };
  return kScript;
}

/// One crash-matrix configuration: the statement script plus the storage
/// levers under test (everything else is the paper default).
struct RunConfig {
  const std::vector<std::string>* script = &Script();
  DurabilityMode mode = DurabilityMode::kJournal;
  uint32_t page_size = kPageSize;  // the paper's 1024
  std::string vacuum_partition;  // "" = single
};

/// Byte-level digest of a database directory, minus the journal (recovery
/// owns that file; its content is not database state).
std::string Digest(Env* env, const std::string& dir) {
  auto names = env->ListDir(dir);
  if (!names.ok()) return "<unlistable>";
  std::vector<std::string> sorted = *names;
  std::sort(sorted.begin(), sorted.end());
  std::string out;
  for (const std::string& name : sorted) {
    if (name == "journal" || name == dir + "/journal") continue;
    std::string path =
        name.rfind(dir, 0) == 0 ? name : dir + "/" + name;
    auto content = env->ReadFileToString(path);
    out += name;
    out += '\0';
    out += content.ok() ? *content : std::string("<unreadable>");
    out += '\1';
  }
  return out;
}

DatabaseOptions Opts(Env* env, const RunConfig& config) {
  DatabaseOptions options;
  options.env = env;
  options.durability = config.mode;
  options.page_size = config.page_size;
  options.vacuum_partition = config.vacuum_partition;
  return options;
}

/// Statement-boundary digests from a fault-free run: digests[0] is the
/// post-Open state, digests[s] the state after statement s (1-based).
std::vector<std::string> BoundaryDigests(const RunConfig& config) {
  MemEnv env;
  auto db = Database::Open("/db", Opts(&env, config));
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  std::vector<std::string> digests;
  digests.push_back(Digest(&env, "/db"));
  for (const std::string& stmt : *config.script) {
    auto r = (*db)->Execute(stmt);
    EXPECT_TRUE(r.ok()) << stmt << " -> " << r.status().ToString();
    digests.push_back(Digest(&env, "/db"));
  }
  return digests;
}

/// Cumulative mutating-op counts from a fault-free run under FaultEnv:
/// ops[0] after Open, ops[s] after statement s.
std::vector<uint64_t> BoundaryOps(const RunConfig& config) {
  MemEnv base;
  FaultEnv fault(&base);
  auto db = Database::Open("/db", Opts(&fault, config));
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  std::vector<uint64_t> ops;
  ops.push_back(fault.op_count());
  for (const std::string& stmt : *config.script) {
    auto r = (*db)->Execute(stmt);
    EXPECT_TRUE(r.ok()) << stmt << " -> " << r.status().ToString();
    ops.push_back(fault.op_count());
  }
  return ops;
}

/// Runs the workload under a crash scheduled at op `k`, then recovers on
/// the underlying env and returns the recovered digest.  `torn` applies
/// that many bytes of the crashing write.  The digest is computed after a
/// second reopen, so the test also proves recovery leaves a state that
/// recovery accepts as final (idempotence).  A third open checks the clock
/// oracle: the recovered clock resumes after every stored transaction
/// stamp, whichever op of the clock-ceiling write the crash cut.
std::string CrashRunAndRecover(const RunConfig& config, uint64_t k, uint64_t torn,
                               std::string* journal_image_out) {
  MemEnv base;
  {
    FaultEnv fault(&base);
    fault.CrashAt(k);
    if (torn > 0) fault.set_torn_write_bytes(torn);
    auto db = Database::Open("/db", Opts(&fault, config));
    if (db.ok()) {
      for (const std::string& stmt : *config.script) {
        if (!(*db)->Execute(stmt).ok()) break;  // frozen env: stop at error
      }
    }
    // The Database destructor runs against the frozen env here; it must
    // tolerate the failing flushes.
  }
  if (journal_image_out != nullptr) {
    auto j = base.ReadFileToString(Journal::PathFor("/db"));
    *journal_image_out = j.ok() ? *j : std::string();
  }
  // Reopen twice on the healthy env: the first Open recovers, the second
  // must find nothing left to do (idempotence at the API level).
  {
    auto db = Database::Open("/db", Opts(&base, config));
    EXPECT_TRUE(db.ok()) << "reopen after crash at op " << k << ": "
                         << db.status().ToString();
  }
  std::string digest = Digest(&base, "/db");
  {
    auto db = Database::Open("/db", Opts(&base, config));
    EXPECT_TRUE(db.ok()) << "second reopen after crash at op " << k;
  }
  EXPECT_EQ(digest, Digest(&base, "/db"))
      << "recovery not idempotent (crash at op " << k << ")";
  {
    auto db = Database::Open("/db", Opts(&base, config));
    EXPECT_TRUE(db.ok()) << "third reopen after crash at op " << k;
    if (db.ok()) {
      EXPECT_GT((*db)->now(), testutil::LatestTxStamp(db->get()))
          << "recovered clock could reissue a stamp (crash at op " << k
          << ")";
    }
  }
  return digest;
}

/// Which statement op `k` falls in: 0 = during Open, s >= 1 = statement s.
size_t StatementOfOp(const std::vector<uint64_t>& ops, uint64_t k) {
  for (size_t s = 0; s < ops.size(); ++s) {
    if (k < ops[s]) return s;
  }
  return ops.size();  // past the last op (no crash triggers)
}

void ExpectBoundaryState(const RunConfig& config,
                         const std::vector<std::string>& digests,
                         const std::vector<uint64_t>& ops, uint64_t k,
                         const std::string& recovered, const char* what) {
  size_t s = StatementOfOp(ops, k);
  if (s == 0) {
    // Crash during Open: nothing executed, nothing to undo.
    EXPECT_EQ(recovered, digests[0]) << what << ": crash at op " << k
                                     << " (during Open)";
    return;
  }
  if (s >= digests.size()) {
    EXPECT_EQ(recovered, digests.back())
        << what << ": crash at op " << k << " (after the last statement)";
    return;
  }
  EXPECT_TRUE(recovered == digests[s - 1] || recovered == digests[s])
      << what << ": crash at op " << k << " during statement " << s << " ('"
      << (*config.script)[s - 1] << "') recovered to neither the pre- nor "
      << "the post-statement state";
}

/// The shared every-op sweep: crash at each mutating op index of a
/// fault-free run, recover, and demand a statement-boundary image.
void RunFullMatrix(const RunConfig& config, const char* what) {
  std::vector<std::string> digests = BoundaryDigests(config);
  std::vector<uint64_t> ops = BoundaryOps(config);
  ASSERT_EQ(digests.size(), ops.size());
  ASSERT_FALSE(::testing::Test::HasFailure());

  const uint64_t total = ops.back();
  ASSERT_GT(total, 50u) << "workload too small to be a meaningful matrix";
  for (uint64_t k = 0; k < total; ++k) {
    std::string recovered = CrashRunAndRecover(config, k, /*torn=*/0, nullptr);
    ExpectBoundaryState(config, digests, ops, k, recovered, what);
    if (::testing::Test::HasFailure()) break;  // one failure says it all
  }
}

TEST(CrashRecoveryMatrixTest, EveryOpIndexRecoversToAStatementBoundary) {
  RunFullMatrix(RunConfig{}, "matrix");
}

// The identical contract on 4096-byte production pages: every journal
// pre-image carries its own length, so recovery restores big pages without
// any out-of-band page-size knowledge.
TEST(CrashRecoveryMatrixTest, EveryOpIndexRecoversOn4096BytePages) {
  RunConfig config;
  config.page_size = 4096;
  RunFullMatrix(config, "matrix-4096");
}

// Vacuum crash sweep: a crash at ANY op of a vacuum migration — including
// segment-file creation, chain rewrites, anchor patches, erases from the
// active history store, and the catalog update — must recover to the
// pre-vacuum image or the completed vacuum, never a half-migrated chain.
TEST(VacuumCrashSweepTest, EveryOpIndexRecoversToAStatementBoundary) {
  RunConfig config;
  config.script = &VacuumScript();
  config.vacuum_partition = "epoch:2";
  RunFullMatrix(config, "vacuum-sweep");
}

// The vacuum sweep again on 4096-byte pages (the production combination).
TEST(VacuumCrashSweepTest, EveryOpIndexRecoversOn4096BytePages) {
  RunConfig config;
  config.script = &VacuumScript();
  config.vacuum_partition = "epoch:2";
  config.page_size = 4096;
  RunFullMatrix(config, "vacuum-sweep-4096");
}

TEST(CrashRecoveryMatrixTest, CrashDuringRecoveryStaysRecoverable) {
  RunConfig config;
  std::vector<std::string> digests = BoundaryDigests(config);
  std::vector<uint64_t> ops = BoundaryOps(config);
  ASSERT_FALSE(::testing::Test::HasFailure());

  // Crash mid-append of statement 2 (one op past its first), leaving a
  // journal with pre-images to undo; then crash recovery itself at every
  // one of its own op indexes and recover again on the healthy env.  Every
  // double-crash must still land on a statement boundary.
  const uint64_t k = ops[1] + 1;
  for (uint64_t j = 0;; ++j) {
    // Recovery mutates the image, so rebuild the crash state from scratch
    // for each recovery crash point.
    MemEnv replay;
    {
      FaultEnv fault(&replay);
      fault.CrashAt(k);
      auto db = Database::Open("/db", Opts(&fault, config));
      if (db.ok()) {
        for (const std::string& stmt : *config.script) {
          if (!(*db)->Execute(stmt).ok()) break;
        }
      }
    }
    FaultEnv recover_fault(&replay);
    recover_fault.CrashAt(j);
    Status first = Journal::Recover(&recover_fault, "/db");
    if (!recover_fault.crashed()) {
      // Recovery finished before op j existed: the sweep is complete.
      EXPECT_TRUE(first.ok());
      break;
    }
    EXPECT_FALSE(first.ok()) << "recovery crashed at op " << j
                             << " but reported success";
    auto db = Database::Open("/db", Opts(&replay, config));
    ASSERT_TRUE(db.ok()) << "re-recovery failed after recovery crash at op "
                         << j << ": " << db.status().ToString();
    std::string recovered = Digest(&replay, "/db");
    ExpectBoundaryState(config, digests, ops, k, recovered, "double-crash");
    ASSERT_FALSE(::testing::Test::HasFailure());
  }
}

TEST(CrashRecoverySeededTest, RandomFaultSchedules) {
  // CI runs 200 schedules (TDB_CRASH_SEEDS=200); the default keeps local
  // runs quick.
  int seeds = 40;
  if (const char* env_seeds = std::getenv("TDB_CRASH_SEEDS")) {
    seeds = std::max(1, std::atoi(env_seeds));
  }
  const char* artifact_dir = std::getenv("TDB_CRASH_ARTIFACT_DIR");

  RunConfig config_j;
  RunConfig config_s;
  config_s.mode = DurabilityMode::kJournalSync;
  std::vector<std::string> digests_j = BoundaryDigests(config_j);
  std::vector<uint64_t> ops_j = BoundaryOps(config_j);
  std::vector<std::string> digests_s = BoundaryDigests(config_s);
  std::vector<uint64_t> ops_s = BoundaryOps(config_s);
  ASSERT_FALSE(::testing::Test::HasFailure());

  for (int seed = 0; seed < seeds; ++seed) {
    std::mt19937 rng(static_cast<uint32_t>(seed) * 2654435761u + 1);
    const bool sync_mode = (rng() & 1) != 0;
    const RunConfig& config = sync_mode ? config_s : config_j;
    const auto& digests = sync_mode ? digests_s : digests_j;
    const auto& ops = sync_mode ? ops_s : ops_j;
    const uint64_t total = ops.back();
    const uint64_t k = rng() % total;
    // Half the schedules tear the crashing write part-way through.
    const uint64_t torn = (rng() & 1) != 0 ? 1 + rng() % 1023 : 0;

    std::string journal_image;
    std::string recovered = CrashRunAndRecover(config, k, torn, &journal_image);
    ExpectBoundaryState(config, digests, ops, k, recovered, "seeded");
    if (::testing::Test::HasFailure()) {
      if (artifact_dir != nullptr) {
        std::ofstream info(std::string(artifact_dir) + "/failing_seed.txt");
        info << "seed=" << seed << " crash_at=" << k << " torn=" << torn
             << " mode=" << DurabilityModeName(config.mode) << "\n";
        std::ofstream journal(std::string(artifact_dir) + "/journal.bin",
                              std::ios::binary);
        journal.write(journal_image.data(),
                      static_cast<std::streamsize>(journal_image.size()));
      }
      FAIL() << "seed " << seed << " (crash_at=" << k << ", torn=" << torn
             << ", mode=" << DurabilityModeName(config.mode) << ") failed";
    }
  }
}

// Transient (non-crash) faults: a failing fsync at commit must roll the
// statement back and leave the database usable.
TEST(CrashRecoveryTest, FailedCommitSyncRollsBackStatement) {
  MemEnv base;
  FaultEnv fault(&base);
  RunConfig config;
  config.mode = DurabilityMode::kJournalSync;
  auto db = Database::Open("/db", Opts(&fault, config));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE((*db)->Execute("create persistent emp (name = c8, sal = i4)")
                  .ok());
  ASSERT_TRUE(
      (*db)->Execute("append to emp (name = \"ada\", sal = 100)").ok());
  std::string before = Digest(&base, "/db");

  // Arm the very next sync to fail: in kJournalSync the journal syncs its
  // first pre-image before any page overwrite, so the statement dies at its
  // first commit barrier.
  fault.Reset();
  fault.FailSyncAt(1);
  Status s = (*db)->Execute("append to emp (name = \"bob\", sal = 200)")
                 .status();
  EXPECT_FALSE(s.ok());
  ASSERT_TRUE(s.statement_context() != nullptr);
  EXPECT_EQ(s.statement_context()->statement_index, 1);

  // The failed statement left no trace on disk...
  EXPECT_EQ(Digest(&base, "/db"), before);
  // ...and the database keeps working.
  fault.Reset();
  ASSERT_TRUE(
      (*db)->Execute("append to emp (name = \"eve\", sal = 300)").ok());
  ASSERT_TRUE((*db)->Execute("range of e is emp").ok());
  auto rows = (*db)->Query("retrieve (e.name) sort by name");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->num_rows(), 2u);  // ada + eve; bob's append rolled back
}

}  // namespace
}  // namespace tdb
