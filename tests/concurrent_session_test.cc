// Concurrency tests of the service layer: sessions executing in parallel
// from multiple threads against one Database.
//
//   * snapshot isolation — N pinned readers see a frozen world while a
//     writer commits through it;
//   * serial-replay equivalence — 8 concurrent clients produce exactly
//     the state a serial run of the same statements produces;
//   * writer/writer isolation — per-relation locks serialize writers on
//     one relation, run them in parallel on distinct relations;
//   * group commit — overlapping kJournalSync commits share fsyncs, so
//     journal.group_syncs stays below journal.commits.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "core/session.h"
#include "env/env.h"

namespace tdb {
namespace {

/// A MemEnv whose fsync takes as long as a fast device's.  On plain MemEnv
/// a commit's fsyncs are free, its writer section lasts microseconds, and
/// whether two writers ever overlap there is scheduler luck.
class SlowSyncEnv : public MemEnv {
 public:
  Result<std::unique_ptr<RandomRWFile>> OpenOrCreate(
      const std::string& path) override {
    TDB_ASSIGN_OR_RETURN(auto file, MemEnv::OpenOrCreate(path));
    return std::unique_ptr<RandomRWFile>(new SlowSyncFile(std::move(file)));
  }

 private:
  class SlowSyncFile : public RandomRWFile {
   public:
    explicit SlowSyncFile(std::unique_ptr<RandomRWFile> base)
        : base_(std::move(base)) {}
    Status Read(uint64_t offset, size_t n, uint8_t* buf) const override {
      return base_->Read(offset, n, buf);
    }
    Status Write(uint64_t offset, const uint8_t* data, size_t n) override {
      return base_->Write(offset, data, n);
    }
    Result<uint64_t> Size() const override { return base_->Size(); }
    Status Truncate(uint64_t size) override { return base_->Truncate(size); }
    Status Sync() override {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      return base_->Sync();
    }

   private:
    std::unique_ptr<RandomRWFile> base_;
  };
};

int64_t Count(Session* s) {
  auto rows = s->Query("retrieve (n = count(e.sal))");
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  return rows.ok() ? rows->rows[0][0].AsInt() : -1;
}

TEST(ConcurrentSessionTest, PinnedReadersSeeFrozenSnapshots) {
  MemEnv env;
  DatabaseOptions options;
  options.env = &env;
  auto db = Database::Open("/db", options);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)
                  ->ExecuteScript("create persistent emp (sal = i4);"
                                  "range of e is emp;"
                                  "append to emp (sal = 100)")
                  .ok());
  const TimePoint pin = (*db)->now();
  // Move the clock past the pin: a write stamped exactly at the pin
  // instant is legitimately visible "as of" it.
  (*db)->AdvanceSeconds(1);

  constexpr int kReaders = 8;
  constexpr int kWriterStatements = 24;
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&db, &stop, &failures, pin] {
      auto session = (*db)->CreateSession();
      session->PinAsOf(pin);
      if (!session->Execute("range of e is emp").ok()) {
        failures.fetch_add(1);
        return;
      }
      // Whatever the writer commits, every read through the pin must see
      // exactly the one row that existed at the pin instant.
      while (!stop.load(std::memory_order_acquire)) {
        auto rows = session->Query("retrieve (e.sal)");
        if (!rows.ok() || rows->num_rows() != 1 ||
            rows->rows[0][0].AsInt() != 100) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }

  {
    auto writer = (*db)->CreateSession();
    ASSERT_TRUE(writer->Execute("range of e is emp").ok());
    for (int i = 0; i < kWriterStatements; ++i) {
      ASSERT_TRUE(writer
                      ->Execute("append to emp (sal = " +
                                std::to_string(1000 + i) + ")")
                      .ok());
    }
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Unpinned, the same database shows everything the writer committed.
  auto check = (*db)->CreateSession();
  ASSERT_TRUE(check->Execute("range of e is emp").ok());
  EXPECT_EQ(Count(check.get()), 1 + kWriterStatements);
}

TEST(ConcurrentSessionTest, EightClientsMatchSerialReplay) {
  constexpr int kClients = 8;
  constexpr int kRowsEach = 20;

  // Concurrent run: every client appends its rows to a shared relation
  // and to its own relation, interleaving freely.
  MemEnv env;
  DatabaseOptions options;
  options.env = &env;
  auto db = Database::Open("/db", options);
  ASSERT_TRUE(db.ok());
  {
    std::string setup = "create shared (who = i4, v = i4)";
    for (int c = 0; c < kClients; ++c) {
      setup += ";create own" + std::to_string(c) + " (v = i4)";
    }
    ASSERT_TRUE((*db)->ExecuteScript(setup).ok());
  }
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&db, &failures, c] {
      auto session = (*db)->CreateSession();
      for (int i = 0; i < kRowsEach; ++i) {
        const int v = c * kRowsEach + i;
        std::string script = "append to shared (who = " + std::to_string(c) +
                             ", v = " + std::to_string(v) + ")";
        if (!session->Execute(script).ok()) failures.fetch_add(1);
        script = "append to own" + std::to_string(c) +
                 " (v = " + std::to_string(v) + ")";
        if (!session->Execute(script).ok()) failures.fetch_add(1);
        // A read mixed into the write stream, as a real client would.
        if (!session
                 ->ExecuteScript("range of s is shared;"
                                 "retrieve (n = count(s.v))")
                 .ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  ASSERT_EQ(failures.load(), 0);

  // Serial replay: the same statements, one after another.
  MemEnv serial_env;
  DatabaseOptions serial_options;
  serial_options.env = &serial_env;
  auto serial = Database::Open("/db", serial_options);
  ASSERT_TRUE(serial.ok());
  {
    std::string setup = "create shared (who = i4, v = i4)";
    for (int c = 0; c < kClients; ++c) {
      setup += ";create own" + std::to_string(c) + " (v = i4)";
    }
    ASSERT_TRUE((*serial)->ExecuteScript(setup).ok());
    for (int c = 0; c < kClients; ++c) {
      for (int i = 0; i < kRowsEach; ++i) {
        const int v = c * kRowsEach + i;
        ASSERT_TRUE((*serial)
                        ->Execute("append to shared (who = " +
                                  std::to_string(c) + ", v = " +
                                  std::to_string(v) + ")")
                        .ok());
        ASSERT_TRUE((*serial)
                        ->Execute("append to own" + std::to_string(c) +
                                  " (v = " + std::to_string(v) + ")")
                        .ok());
      }
    }
  }

  // The content must agree relation by relation (sorted: the concurrent
  // interleaving may order the shared relation differently).
  auto dump = [](Database* d, const std::string& rel) {
    std::vector<int64_t> values;
    EXPECT_TRUE(d->Execute("range of x is " + rel).ok());
    auto rows = d->Query("retrieve (x.v) sort by v");
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    if (rows.ok()) {
      for (const Row& r : rows->rows) values.push_back(r[0].AsInt());
    }
    return values;
  };
  EXPECT_EQ(dump(db->get(), "shared"), dump(serial->get(), "shared"));
  for (int c = 0; c < kClients; ++c) {
    const std::string rel = "own" + std::to_string(c);
    EXPECT_EQ(dump(db->get(), rel), dump(serial->get(), rel));
  }
}

TEST(ConcurrentSessionTest, WritersOnOneRelationSerializeCleanly) {
  MemEnv env;
  DatabaseOptions options;
  options.env = &env;
  options.durability = DurabilityMode::kJournal;
  auto db = Database::Open("/db", options);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->Execute("create acct (v = i4)").ok());

  constexpr int kWriters = 6;
  constexpr int kAppendsEach = 15;
  std::vector<std::thread> writers;
  std::atomic<int> failures{0};
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&db, &failures, w] {
      auto session = (*db)->CreateSession();
      for (int i = 0; i < kAppendsEach; ++i) {
        if (!session
                 ->Execute("append to acct (v = " +
                           std::to_string(w * 100 + i) + ")")
                 .ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : writers) t.join();
  ASSERT_EQ(failures.load(), 0);
  auto check = (*db)->CreateSession();
  ASSERT_TRUE(check->Execute("range of a is acct").ok());
  auto rows = check->Query("retrieve (n = count(a.v))");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows[0][0].AsInt(), kWriters * kAppendsEach);
}

TEST(ConcurrentSessionTest, GroupCommitSharesFsyncsAcrossWriters) {
  // Fsyncs that take time, so writers really overlap in the journal, and a
  // generous group window, so a leader holds the door open for them.
  SlowSyncEnv env;
  DatabaseOptions options;
  options.env = &env;
  options.durability = DurabilityMode::kJournalSync;
  options.metrics = true;
  options.group_commit_window_micros = 2000;
  auto db = Database::Open("/db", options);
  ASSERT_TRUE(db.ok());

  constexpr int kWriters = 8;
  constexpr int kAppendsEach = 12;
  {
    std::string setup;
    for (int w = 0; w < kWriters; ++w) {
      if (w > 0) setup += ";";
      setup += "create r" + std::to_string(w) + " (v = i4)";
    }
    ASSERT_TRUE((*db)->ExecuteScript(setup).ok());
  }
  const uint64_t syncs_before =
      (*db)->Snapshot().counters.count("journal.group_syncs") != 0
          ? (*db)->Snapshot().counters.at("journal.group_syncs")
          : 0;

  // Distinct target relations, so the statements overlap freely; the one
  // journal serializes only the Begin..CommitGroup window and the
  // commit-mark fsync happens in WaitDurable, where waiters batch.
  std::vector<std::thread> writers;
  std::atomic<int> failures{0};
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&db, &failures, w] {
      auto session = (*db)->CreateSession();
      for (int i = 0; i < kAppendsEach; ++i) {
        if (!session
                 ->Execute("append to r" + std::to_string(w) + " (v = " +
                           std::to_string(i) + ")")
                 .ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : writers) t.join();
  ASSERT_EQ(failures.load(), 0);

  auto counters = (*db)->Snapshot().counters;
  const uint64_t total_commits = kWriters * kAppendsEach;
  ASSERT_NE(counters.count("journal.group_syncs"), 0u);
  const uint64_t group_syncs =
      counters.at("journal.group_syncs") - syncs_before;
  EXPECT_GT(group_syncs, 0u);
  // The whole point of group commit: strictly fewer fsyncs than
  // clients x statements.  With a 2ms window and 8 overlapping writers
  // the batching factor is large; "strictly fewer" is the safe floor.
  EXPECT_LT(group_syncs, total_commits);

  // Nothing was lost to the batching: every row is present.
  for (int w = 0; w < kWriters; ++w) {
    auto check = (*db)->CreateSession();
    ASSERT_TRUE(
        check->Execute("range of x is r" + std::to_string(w)).ok());
    auto rows = check->Query("retrieve (n = count(x.v))");
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(rows->rows[0][0].AsInt(), kAppendsEach);
  }
}

}  // namespace
}  // namespace tdb
