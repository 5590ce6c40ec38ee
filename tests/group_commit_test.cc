// Group commit at the journal level, where its contract is deterministic:
//
//   * CommitGroup appends the commit mark without fsync or truncation and
//     returns a ticket; WaitDurable's leader fsync covers every mark
//     appended so far, so later tickets are satisfied for free;
//   * Begin reclaims the journal file only once everything committed is
//     synced;
//   * the group window holds a leader's fsync only while another writer
//     is open, so a lone writer never waits it out;
//   * a crash between batch fsyncs recovers to the last durable commit
//     mark — synced batches survive, the unsynced tail rolls back.

#include "storage/journal.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>

#include "core/database.h"
#include "core/session.h"
#include "env/env.h"
#include "env/fault_env.h"
#include "obs/metrics.h"
#include "storage/page.h"

namespace tdb {
namespace {

void WritePage(Env* env, const std::string& path, uint32_t pno,
               uint8_t fill) {
  auto file = env->OpenOrCreate(path);
  ASSERT_TRUE(file.ok());
  std::vector<uint8_t> page(kPageSize, fill);
  ASSERT_TRUE(
      (*file)->Write(uint64_t{pno} * kPageSize, page.data(), page.size())
          .ok());
}

class GroupCommitTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(env_.CreateDirIfMissing("/db").ok());
    auto j = Journal::Open(&env_, "/db", DurabilityMode::kJournalSync);
    ASSERT_TRUE(j.ok()) << j.status().ToString();
    journal_ = std::move(j).value();
    metrics_ = std::make_unique<obs::MetricsRegistry>(true);
    journal_->set_metrics(metrics_.get());
  }

  uint64_t GroupSyncs() {
    return metrics_->Snapshot().counters.count("journal.group_syncs") != 0
               ? metrics_->Snapshot().counters.at("journal.group_syncs")
               : 0;
  }

  /// One journaled batch: pre-image page 0 of `path`, overwrite it.
  uint64_t CommitOneBatch(const std::string& path, uint8_t fill) {
    WritePage(&env_, path, 0, fill);
    auto file = env_.OpenOrCreate(path);
    EXPECT_TRUE(file.ok());
    EXPECT_TRUE(journal_->Begin().ok());
    EXPECT_TRUE(journal_->BeforePageWrite(path, file->get(), 0).ok());
    WritePage(&env_, path, 0, static_cast<uint8_t>(fill + 1));
    auto ticket = journal_->CommitGroup();
    EXPECT_TRUE(ticket.ok()) << ticket.status().ToString();
    return ticket.ok() ? *ticket : 0;
  }

  MemEnv env_;
  std::unique_ptr<Journal> journal_;
  std::unique_ptr<obs::MetricsRegistry> metrics_;
};

TEST_F(GroupCommitTest, OneFsyncCoversEveryEarlierTicket) {
  const uint64_t t1 = CommitOneBatch("/db/a.dat", 0x10);
  const uint64_t t2 = CommitOneBatch("/db/b.dat", 0x20);
  const uint64_t t3 = CommitOneBatch("/db/c.dat", 0x30);
  ASSERT_LT(t1, t2);
  ASSERT_LT(t2, t3);
  EXPECT_EQ(GroupSyncs(), 0u);  // CommitGroup never fsyncs

  // The latest ticket's wait syncs once and covers everything before it.
  ASSERT_TRUE(journal_->WaitDurable(t3).ok());
  EXPECT_EQ(GroupSyncs(), 1u);
  ASSERT_TRUE(journal_->WaitDurable(t1).ok());
  ASSERT_TRUE(journal_->WaitDurable(t2).ok());
  EXPECT_EQ(GroupSyncs(), 1u);  // already durable: no further fsync
}

TEST_F(GroupCommitTest, BeginReclaimsTheFileOnlyWhenEverythingIsSynced) {
  const uint64_t t1 = CommitOneBatch("/db/a.dat", 0x10);
  auto size_r = env_.OpenOrCreate(Journal::PathFor("/db"));
  ASSERT_TRUE(size_r.ok());
  auto after_first = (*size_r)->Size();
  ASSERT_TRUE(after_first.ok());
  ASSERT_GT(*after_first, 0u);

  // Unsynced commit marks pin the file: the next Begin must append, not
  // truncate (truncation would discard a mark a waiter still needs).
  const uint64_t t2 = CommitOneBatch("/db/b.dat", 0x20);
  auto after_second = (*env_.OpenOrCreate(Journal::PathFor("/db")))->Size();
  ASSERT_TRUE(after_second.ok());
  EXPECT_GT(*after_second, *after_first);

  // Once durable, the next Begin reclaims the whole file.
  ASSERT_TRUE(journal_->WaitDurable(t2).ok());
  (void)t1;
  ASSERT_TRUE(journal_->Begin().ok());
  auto after_reclaim = (*env_.OpenOrCreate(Journal::PathFor("/db")))->Size();
  ASSERT_TRUE(after_reclaim.ok());
  EXPECT_LT(*after_reclaim, *after_second);
  ASSERT_TRUE(journal_->Rollback().ok());
}

TEST_F(GroupCommitTest, RecoverRollsBackOnlyPastTheLastCommitMark) {
  // Two committed batches, no truncation between them (group mode), then
  // a third batch that never commits — the crash case.
  CommitOneBatch("/db/a.dat", 0x10);
  CommitOneBatch("/db/b.dat", 0x20);
  WritePage(&env_, "/db/c.dat", 0, 0x30);
  auto file = env_.OpenOrCreate("/db/c.dat");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(journal_->Begin().ok());
  ASSERT_TRUE(journal_->BeforePageWrite("/db/c.dat", file->get(), 0).ok());
  WritePage(&env_, "/db/c.dat", 0, 0x31);  // the doomed overwrite
  journal_.reset();                        // crash: no commit mark for c

  ASSERT_TRUE(Journal::Recover(&env_, "/db").ok());
  // a and b keep their committed (overwritten) images; c rolled back.
  auto read_fill = [&](const std::string& path) {
    auto content = env_.ReadFileToString(path);
    EXPECT_TRUE(content.ok());
    return content.ok() ? static_cast<uint8_t>((*content)[0]) : 0;
  };
  EXPECT_EQ(read_fill("/db/a.dat"), 0x11);
  EXPECT_EQ(read_fill("/db/b.dat"), 0x21);
  EXPECT_EQ(read_fill("/db/c.dat"), 0x30);
}

// The window only holds an fsync for writers that could share it: a
// session writing with nobody behind it syncs at once, however long the
// window.
TEST(GroupCommitWindowTest, LoneWriterDoesNotWaitOutTheWindow) {
  MemEnv env;
  DatabaseOptions options;
  options.env = &env;
  options.durability = DurabilityMode::kJournalSync;
  options.group_commit_window_micros = 30'000'000;
  auto db = Database::Open("/db", options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto session = (*db)->CreateSession();
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(session
                  ->ExecuteScript("create emp (sal = i4);"
                                  "append to emp (sal = 1);"
                                  "append to emp (sal = 2)")
                  .ok());
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(10));
  // Each writing statement still made its commit mark durable.
  EXPECT_EQ((*db)->Snapshot().counters.at("journal.group_syncs"), 3u);
}

/// End-to-end crash sweep through the concurrent commit path: open a
/// kJournalSync database on a fault-injecting env, run statements through
/// a session (the group-commit path), crash at every mutating-operation
/// index, reopen, and require the recovered database to hold a statement
/// prefix — never a torn statement.
TEST(GroupCommitCrashTest, EveryCrashPointRecoversToAStatementBoundary) {
  // Fault-free run first, to learn the operation budget.
  uint64_t total_ops = 0;
  {
    MemEnv base;
    FaultEnv fault(&base);
    DatabaseOptions options;
    options.env = &fault;
    options.durability = DurabilityMode::kJournalSync;
    auto db = Database::Open("/db", options);
    ASSERT_TRUE(db.ok());
    auto session = (*db)->CreateSession();
    ASSERT_TRUE(session
                    ->ExecuteScript("create emp (sal = i4);"
                                    "range of e is emp;"
                                    "append to emp (sal = 100);"
                                    "append to emp (sal = 200);"
                                    "replace e (sal = 300) where e.sal = 100")
                    .ok());
    total_ops = fault.op_count();
  }
  ASSERT_GT(total_ops, 0u);

  for (uint64_t crash_at = 1; crash_at < total_ops; ++crash_at) {
    MemEnv base;
    FaultEnv fault(&base);
    DatabaseOptions options;
    options.env = &fault;
    options.durability = DurabilityMode::kJournalSync;
    auto db = Database::Open("/db", options);
    ASSERT_TRUE(db.ok());
    {
      auto session = (*db)->CreateSession();
      fault.CrashAt(crash_at);
      // Statements fail once the crash point hits; that is expected.
      (void)session->ExecuteScript(
          "create emp (sal = i4);"
          "range of e is emp;"
          "append to emp (sal = 100);"
          "append to emp (sal = 200);"
          "replace e (sal = 300) where e.sal = 100");
    }
    db->reset();
    fault.Reset();

    // Reopen on the frozen image: recovery runs in Open.
    auto reopened = Database::Open("/db", options);
    ASSERT_TRUE(reopened.ok())
        << "crash_at=" << crash_at << ": "
        << reopened.status().ToString();
    auto session = (*reopened)->CreateSession();
    auto help = session->Execute("help");
    ASSERT_TRUE(help.ok()) << "crash_at=" << crash_at;
    // If emp exists, its content must be one of the statement-boundary
    // states: {}, {100}, {100,200}, {300,200} (+history).
    auto ranged = session->Execute("range of e is emp");
    if (!ranged.ok()) continue;  // crashed before the create committed
    auto rows = session->Query("retrieve (e.sal) sort by sal");
    ASSERT_TRUE(rows.ok()) << "crash_at=" << crash_at;
    std::vector<int64_t> current;
    for (const Row& r : rows->rows) current.push_back(r[0].AsInt());
    const bool boundary =
        current.empty() || current == std::vector<int64_t>{100} ||
        current == std::vector<int64_t>{100, 200} ||
        current == std::vector<int64_t>{200, 300};
    EXPECT_TRUE(boundary) << "crash_at=" << crash_at << ": "
                          << ::testing::PrintToString(current);
  }
}

}  // namespace
}  // namespace tdb
