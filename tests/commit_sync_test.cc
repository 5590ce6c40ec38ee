// What a commit fsyncs, and the clock ceiling that keeps the clock file out
// of most commits.
//
//   * CommitSyncTest pins the exact fsyncs — count and file — of four
//     statements on the paper's temporal relations under kJournalSync, at
//     1 KiB and 4 KiB pages: a one-row replace that fits its chain page
//     makes three (the flush's pre-images, the data file, the commit mark),
//     and a relation a statement only reads is never synced.
//   * ClockCeilingTest drives the ceiling rule: the clock file holds the
//     stamp that wrote it plus Database::kClockCeilingStep; a failed
//     ceiling write fails its statement and leaves the ceiling where it
//     was; a reopened database resumes after the ceiling; an unparsable
//     clock file fails Open.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "clock_test_util.h"
#include "core/chronoquel.h"
#include "env/fault_env.h"
#include "util/stringx.h"

namespace tdb {
namespace {

using testutil::LatestTxStamp;

/// Passes every call through to `base` and logs each write and sync with
/// the file it reached, in order, so a test can tell which file each fsync
/// of a commit hit.  WriteStringToFile logs a write and then a sync, as
/// FaultEnv counts it.  Single-threaded use.
class OpLogEnv : public Env {
 public:
  struct Op {
    bool sync = false;
    std::string file;  // path without the database directory
  };

  explicit OpLogEnv(Env* base) : base_(base) {}

  const std::vector<Op>& ops() const { return ops_; }

  Result<std::unique_ptr<RandomRWFile>> OpenOrCreate(
      const std::string& path) override {
    TDB_ASSIGN_OR_RETURN(auto file, base_->OpenOrCreate(path));
    return std::unique_ptr<RandomRWFile>(
        new LoggedFile(this, path, std::move(file)));
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  Status DeleteFile(const std::string& path) override {
    return base_->DeleteFile(path);
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  Status CreateDirIfMissing(const std::string& path) override {
    return base_->CreateDirIfMissing(path);
  }
  Result<std::vector<std::string>> ListDir(const std::string& path) override {
    return base_->ListDir(path);
  }
  Result<std::string> ReadFileToString(const std::string& path) override {
    return base_->ReadFileToString(path);
  }
  Status WriteStringToFile(const std::string& path,
                           const std::string& data) override {
    Log(false, path);
    Log(true, path);
    return base_->WriteStringToFile(path, data);
  }

 private:
  class LoggedFile : public RandomRWFile {
   public:
    LoggedFile(OpLogEnv* env, std::string path,
               std::unique_ptr<RandomRWFile> base)
        : env_(env), path_(std::move(path)), base_(std::move(base)) {}
    Status Read(uint64_t offset, size_t n, uint8_t* buf) const override {
      return base_->Read(offset, n, buf);
    }
    Status Write(uint64_t offset, const uint8_t* data, size_t n) override {
      env_->Log(false, path_);
      return base_->Write(offset, data, n);
    }
    Result<uint64_t> Size() const override { return base_->Size(); }
    Status Truncate(uint64_t size) override { return base_->Truncate(size); }
    Status Sync() override {
      env_->Log(true, path_);
      return base_->Sync();
    }

   private:
    OpLogEnv* env_;
    std::string path_;
    std::unique_ptr<RandomRWFile> base_;
  };

  void Log(bool sync, const std::string& path) {
    const size_t slash = path.rfind('/');
    ops_.push_back({sync, slash == std::string::npos ? path
                                                     : path.substr(slash + 1)});
  }

  Env* base_;
  std::vector<Op> ops_;
};

/// The files the syncs in ops[from..] hit, in order.
std::vector<std::string> SyncedFiles(const OpLogEnv& log, size_t from) {
  std::vector<std::string> files;
  for (size_t i = from; i < log.ops().size(); ++i) {
    if (log.ops()[i].sync) files.push_back(log.ops()[i].file);
  }
  return files;
}

/// A MemEnv behind a FaultEnv behind an OpLogEnv: the database runs on
/// `log`, faults are scripted on `fault`, and `base` survives a reopen.
struct Stack {
  MemEnv base;
  FaultEnv fault{&base};
  OpLogEnv log{&fault};
};

DatabaseOptions Opts(Env* env, DurabilityMode mode,
                     uint32_t page_size = kPageSize) {
  DatabaseOptions options;
  options.env = env;
  options.durability = mode;
  options.page_size = page_size;
  return options;
}

std::unique_ptr<Database> OpenDb(const DatabaseOptions& options) {
  auto db = Database::Open("/db", options);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return db.ok() ? std::move(db).value() : nullptr;
}

void Exec(Database* db, const std::string& text) {
  auto r = db->Execute(text);
  ASSERT_TRUE(r.ok()) << text << " -> " << r.status().ToString();
}

// --- the fsyncs of one commit --------------------------------------------

class CommitSyncTest : public ::testing::TestWithParam<uint32_t> {
 protected:
  /// Runs `text` and returns the files its syncs hit, checking that
  /// FaultEnv counted exactly those syncs.
  std::vector<std::string> Syncs(const std::string& text) {
    const size_t from = stack_.log.ops().size();
    const uint64_t before = stack_.fault.sync_count();
    auto r = db_->Execute(text);
    EXPECT_TRUE(r.ok()) << text << " -> " << r.status().ToString();
    std::vector<std::string> files = SyncedFiles(stack_.log, from);
    EXPECT_EQ(stack_.fault.sync_count() - before, files.size());
    return files;
  }

  uint64_t FileSize(const std::string& name) {
    auto content = stack_.base.ReadFileToString("/db/" + name);
    EXPECT_TRUE(content.ok());
    return content.ok() ? content->size() : 0;
  }

  Stack stack_;
  std::unique_ptr<Database> db_;
};

// The paper's temporal relations (bench_h hashed and bench_i ISAM on id, at
// fill factor 100) in the production pool that temporal_oltp runs (256
// frames, no per-file cap), reopened so every handle starts closed.  The
// statements then run in one session, each measured alone.  (With the
// paper's single private frame a statement also pre-images each dirty page
// it evicts mid-statement, one sync per eviction.)
TEST_P(CommitSyncTest, ExactFsyncsOfOneRowWrites) {
  DatabaseOptions options =
      Opts(&stack_.log, DurabilityMode::kJournalSync, GetParam());
  options.pool_frames = 256;
  options.pool_file_cap = -1;
  db_ = OpenDb(options);
  ASSERT_NE(db_, nullptr);
  for (const char* rel : {"bench_h", "bench_i"}) {
    Exec(db_.get(), std::string("create persistent interval ") + rel +
                        " (id = i4, amount = i4, seq = i4, string = c96)");
    for (int id = 0; id < 64; ++id) {
      Exec(db_.get(), StrPrintf("append to %s (id = %d, amount = %d, "
                                "seq = 0, string = \"s%d\")",
                                rel, id, id * 7, id));
    }
  }
  Exec(db_.get(), "modify bench_h to hash on id where fillfactor = 100");
  Exec(db_.get(), "modify bench_i to isam on id where fillfactor = 100");
  db_.reset();
  db_ = OpenDb(options);
  ASSERT_NE(db_, nullptr);
  Exec(db_.get(), "range of h is bench_h");
  Exec(db_.get(), "range of i is bench_i");

  const std::vector<std::string> kFits = {"journal", "bench_h.dat",
                                          "journal"};
  const std::vector<std::string> kGrows = {"journal", "journal",
                                           "bench_h.dat", "journal"};

  // The first write after the reopen passes the clock ceiling, so it also
  // pre-images the clock file and rewrites it: two syncs more.
  uint64_t size = FileSize("bench_h.dat");
  std::vector<std::string> first =
      Syncs("replace h (seq = h.seq + 1) where h.id = 3");
  std::vector<std::string> expect_first =
      FileSize("bench_h.dat") > size ? kGrows : kFits;
  expect_first.insert(expect_first.end() - 2, {"journal", "clock"});
  EXPECT_EQ(first, expect_first);

  // Replace one key until its chain allocates a page: that statement also
  // makes the batch-start size of the file durable before growing it.
  bool grew = false;
  for (int n = 0; n < 64 && !grew; ++n) {
    size = FileSize("bench_h.dat");
    std::vector<std::string> syncs =
        Syncs("replace h (seq = h.seq + 1) where h.id = 5");
    grew = FileSize("bench_h.dat") > size;
    EXPECT_EQ(syncs, grew ? kGrows : kFits) << "replace " << n;
  }
  ASSERT_TRUE(grew);

  // The next replace of that key fits the page it allocated.
  size = FileSize("bench_h.dat");
  EXPECT_EQ(Syncs("replace h (seq = h.seq + 1) where h.id = 5"), kFits);
  EXPECT_EQ(FileSize("bench_h.dat"), size);

  // A relation the session has open but the statement does not write is
  // not synced.
  auto read = db_->Query("retrieve (i.seq) where i.id = 5");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(Syncs("replace h (seq = h.seq + 1) where h.id = 5"), kFits);
  EXPECT_EQ(FileSize("bench_h.dat"), size);

  // A one-row append lands in the chain of its key.
  std::vector<std::string> append = Syncs(
      "append to bench_h (id = 500, amount = 1, seq = 0, string = \"new\")");
  EXPECT_EQ(append, FileSize("bench_h.dat") > size ? kGrows : kFits);
}

INSTANTIATE_TEST_SUITE_P(PageSizes, CommitSyncTest,
                         ::testing::Values(1024u, 4096u),
                         [](const ::testing::TestParamInfo<uint32_t>& info) {
                           return "page" + std::to_string(info.param);
                         });

// --- the clock ceiling -----------------------------------------------------

/// A journal+sync database with one committed row (ada), reopened so that
/// the next write passes the ceiling and writes it again.
std::unique_ptr<Database> OpenWithOneRow(Stack* stack, TimePoint* ada_stamp) {
  const DatabaseOptions options =
      Opts(&stack->log, DurabilityMode::kJournalSync);
  auto db = OpenDb(options);
  if (db == nullptr) return nullptr;
  Exec(db.get(), "create persistent interval emp (name = c8, sal = i4)");
  *ada_stamp = db->now();
  Exec(db.get(), "append to emp (name = \"ada\", sal = 100)");
  db.reset();
  db = OpenDb(options);
  if (db != nullptr) Exec(db.get(), "range of e is emp");
  return db;
}

std::vector<std::string> Names(Database* db) {
  auto rows = db->Query("retrieve (e.name) sort by name");
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  std::vector<std::string> names;
  if (rows.ok()) {
    for (const auto& row : rows->rows) names.push_back(Trim(row[0].AsString()));
  }
  return names;
}

/// The 1-based sync and write numbers, counted from `from`, of the ops a
/// fault-free run of the bob append makes; the journal sync just before
/// the clock file's own is the ceiling's pre-image.
struct CeilingOps {
  uint64_t capture_sync = 0;
  uint64_t clock_sync = 0;
  uint64_t data_sync = 0;
  uint64_t clock_write = 0;
};

const char* kBob = "append to emp (name = \"bob\", sal = 200)";
const char* kEve = "append to emp (name = \"eve\", sal = 300)";

CeilingOps FindCeilingOps() {
  Stack stack;
  TimePoint ada;
  auto db = OpenWithOneRow(&stack, &ada);
  CeilingOps found;
  if (db == nullptr) return found;
  const size_t from = stack.log.ops().size();
  Exec(db.get(), kBob);
  // pre-image of the emp page, clock pre-image, clock file, emp file, mark.
  EXPECT_EQ(SyncedFiles(stack.log, from),
            (std::vector<std::string>{"journal", "journal", "clock",
                                      "emp.dat", "journal"}));
  uint64_t syncs = 0;
  uint64_t writes = 0;
  for (size_t i = from; i < stack.log.ops().size(); ++i) {
    const OpLogEnv::Op& op = stack.log.ops()[i];
    if (!op.sync) {
      ++writes;
      if (op.file == "clock") found.clock_write = writes;
      continue;
    }
    ++syncs;
    if (op.file == "clock") {
      found.clock_sync = syncs;
      found.capture_sync = syncs - 1;
    }
    if (op.file == "emp.dat") found.data_sync = syncs;
  }
  return found;
}

TEST(ClockCeilingTest, ReopenResumesAfterTheCeiling) {
  Stack stack;
  TimePoint ada;
  auto db = OpenWithOneRow(&stack, &ada);
  ASSERT_NE(db, nullptr);
  EXPECT_EQ(db->now(), ada.AddSeconds(Database::kClockCeilingStep + 1));
  auto clock = stack.base.ReadFileToString("/db/clock");
  ASSERT_TRUE(clock.ok());
  EXPECT_EQ(*clock, StrPrintf("%d", ada.seconds() +
                                        static_cast<int32_t>(
                                            Database::kClockCeilingStep)));
}

// Without a journal (paper mode) the ceiling holds as soon as it is
// written: a run of writes rewrites the clock file once, and a reopen
// still resumes after every stamp.
TEST(ClockCeilingTest, PaperModeWritesTheClockOnce) {
  Stack stack;
  const DatabaseOptions options = Opts(&stack.log, DurabilityMode::kOff);
  auto db = OpenDb(options);
  ASSERT_NE(db, nullptr);
  Exec(db.get(), "create persistent interval emp (name = c8, sal = i4)");
  const size_t from = stack.log.ops().size();
  for (int n = 0; n < 20; ++n) {
    Exec(db.get(), StrPrintf("append to emp (name = \"n%d\", sal = %d)", n, n));
  }
  EXPECT_EQ(SyncedFiles(stack.log, from), std::vector<std::string>{"clock"});
  db.reset();
  db = OpenDb(options);
  ASSERT_NE(db, nullptr);
  EXPECT_GT(db->now(), LatestTxStamp(db.get()));
}

/// Runs the bob append with `arm` scripting one fault on it, then checks:
/// the statement failed, bob is absent, the next writer (eve) writes a
/// ceiling again, and a reopened clock is later than every stamp.
void ExpectFailedCeilingWrite(const std::function<void(FaultEnv*)>& arm,
                              const char* what) {
  SCOPED_TRACE(what);
  Stack stack;
  TimePoint ada;
  auto db = OpenWithOneRow(&stack, &ada);
  ASSERT_NE(db, nullptr);
  stack.fault.Reset();
  arm(&stack.fault);
  Status s = db->Execute(kBob).status();
  EXPECT_FALSE(s.ok());
  stack.fault.Reset();
  EXPECT_EQ(Names(db.get()), (std::vector<std::string>{"ada"}));

  // The failed statement left the ceiling where it was, so eve's stamp
  // passes it and eve persists a new one.
  const size_t from = stack.log.ops().size();
  Exec(db.get(), kEve);
  const std::vector<std::string> synced = SyncedFiles(stack.log, from);
  EXPECT_EQ(std::count(synced.begin(), synced.end(), "clock"), 1);

  db.reset();
  auto reopened = OpenDb(Opts(&stack.base, DurabilityMode::kJournalSync));
  ASSERT_NE(reopened, nullptr);
  Exec(reopened.get(), "range of e is emp");
  EXPECT_EQ(Names(reopened.get()), (std::vector<std::string>{"ada", "eve"}));
  EXPECT_GT(reopened->now(), LatestTxStamp(reopened.get()));
}

TEST(ClockCeilingTest, FailedCeilingSyncFailsTheStatement) {
  const CeilingOps ops = FindCeilingOps();
  ASSERT_GT(ops.capture_sync, 0u);
  ExpectFailedCeilingWrite(
      [&](FaultEnv* f) { f->FailSyncAt(ops.capture_sync); },
      "the clock's pre-image sync fails");
  ExpectFailedCeilingWrite(
      [&](FaultEnv* f) { f->FailSyncAt(ops.clock_sync); },
      "the clock file's own sync fails");
}

TEST(ClockCeilingTest, ShortCeilingWriteFailsTheStatement) {
  const CeilingOps ops = FindCeilingOps();
  ASSERT_GT(ops.clock_write, 0u);
  for (uint64_t bytes : {0u, 3u}) {
    ExpectFailedCeilingWrite(
        [&](FaultEnv* f) { f->FailWriteShort(ops.clock_write, bytes); },
        bytes == 0 ? "the clock write lands nothing"
                   : "the clock write lands 3 bytes");
  }
}

// The statement writes its ceiling and then fails at the data-file sync:
// the rollback restores the old clock file, so the next writer must write a
// ceiling again.
TEST(ClockCeilingTest, RolledBackCeilingIsWrittenAgain) {
  const CeilingOps ops = FindCeilingOps();
  ASSERT_GT(ops.data_sync, ops.clock_sync);
  ExpectFailedCeilingWrite(
      [&](FaultEnv* f) { f->FailSyncAt(ops.data_sync); },
      "the data-file sync after the ceiling write fails");
}

TEST(ClockCeilingTest, UnparsableClockFailsOpen) {
  MemEnv env;
  {
    auto db = OpenDb(Opts(&env, DurabilityMode::kOff));
    ASSERT_NE(db, nullptr);
  }
  ASSERT_TRUE(env.WriteStringToFile("/db/clock", "not a time").ok());
  auto db = Database::Open("/db", Opts(&env, DurabilityMode::kOff));
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace tdb
