// Tests of the session layer and of engine configuration:
//
//   * DatabaseOptions::FromEnv — the one reader of the TDB_* levers;
//   * options fixed at Open — changing the environment afterwards changes
//     neither plans, plan-cache keys nor rows;
//   * Session as client state — own range declarations, own temp files,
//     pinned as-of snapshots, and mutating statements that always stamp
//     the live clock;
//   * the embedded wrappers staying exact: Database::Execute is the
//     default session, byte-for-byte.

#include "core/session.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <optional>
#include <string>

#include "core/database.h"
#include "core/plan_cache.h"
#include "env/env.h"

namespace tdb {
namespace {

/// Saves and restores one environment variable around a test.
class EnvVarGuard {
 public:
  explicit EnvVarGuard(const char* name) : name_(name) {
    const char* v = std::getenv(name);
    if (v != nullptr) saved_ = v;
    ::unsetenv(name);
  }
  ~EnvVarGuard() {
    if (saved_.has_value()) {
      ::setenv(name_, saved_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

/// Clears every lever FromEnv reads for the lifetime of the guard.
struct AllLeversGuard {
  EnvVarGuard g1{"TDB_METRICS"}, g2{"TDB_JOIN_METHOD"};
  EnvVarGuard g3{"TDB_VECTOR_EXEC"}, g4{"TDB_MORSEL_CAP"};
  EnvVarGuard g5{"TDB_EXEC_THREADS"}, g6{"TDB_COMPILED_EXPR"};
  EnvVarGuard g7{"TDB_PAGE_SIZE"}, g8{"TDB_PAGE_CHECKSUM"};
  EnvVarGuard g9{"TDB_POOL_FRAMES"}, g10{"TDB_POOL_FILE_CAP"};
  EnvVarGuard g11{"TDB_VACUUM_PARTITION"}, g12{"TDB_PLAN_CACHE"};
};

TEST(FromEnvTest, AbsentVariablesLeaveEveryFieldUnset) {
  AllLeversGuard guard;
  const DatabaseOptions o = DatabaseOptions::FromEnv();
  const DatabaseOptions d;
  EXPECT_EQ(o.metrics, d.metrics);
  EXPECT_EQ(o.join_method, d.join_method);
  EXPECT_EQ(o.vector_exec, d.vector_exec);
  EXPECT_EQ(o.morsel_capacity, d.morsel_capacity);
  EXPECT_EQ(o.exec_threads, d.exec_threads);
  EXPECT_EQ(o.compiled_expr, d.compiled_expr);
  EXPECT_EQ(o.page_size, d.page_size);
  EXPECT_EQ(o.page_checksum, d.page_checksum);
  EXPECT_EQ(o.pool_frames, d.pool_frames);
  EXPECT_EQ(o.pool_file_cap, d.pool_file_cap);
  EXPECT_EQ(o.vacuum_partition, d.vacuum_partition);
  EXPECT_EQ(o.plan_cache, d.plan_cache);
}

TEST(FromEnvTest, ReadsEveryLever) {
  AllLeversGuard guard;
  ::setenv("TDB_METRICS", "0", 1);
  ::setenv("TDB_JOIN_METHOD", "cost", 1);
  ::setenv("TDB_VECTOR_EXEC", "0", 1);
  ::setenv("TDB_MORSEL_CAP", "256", 1);
  ::setenv("TDB_EXEC_THREADS", "4", 1);
  ::setenv("TDB_COMPILED_EXPR", "0", 1);
  ::setenv("TDB_PAGE_SIZE", "4096", 1);
  ::setenv("TDB_PAGE_CHECKSUM", "1", 1);
  ::setenv("TDB_POOL_FRAMES", "64", 1);
  ::setenv("TDB_POOL_FILE_CAP", "-1", 1);
  ::setenv("TDB_VACUUM_PARTITION", "epoch:60", 1);
  ::setenv("TDB_PLAN_CACHE", "1", 1);
  const DatabaseOptions o = DatabaseOptions::FromEnv();
  EXPECT_FALSE(o.metrics);
  EXPECT_EQ(o.join_method, JoinMethod::kAuto);
  EXPECT_FALSE(o.vector_exec);
  EXPECT_EQ(o.morsel_capacity, 256);
  EXPECT_EQ(o.exec_threads, 4);
  EXPECT_FALSE(o.compiled_expr);
  EXPECT_EQ(o.page_size, 4096u);
  EXPECT_TRUE(o.page_checksum);
  EXPECT_EQ(o.pool_frames, 64);
  EXPECT_EQ(o.pool_file_cap, -1);
  EXPECT_EQ(o.vacuum_partition, "epoch:60");
  EXPECT_TRUE(o.plan_cache);
}

// Database::Open fixes the configuration: a lever set in the environment
// after Open reaches neither the planner, the plan-cache key, nor the
// executor of that database.
TEST(FromEnvTest, OptionsAreFixedAtOpen) {
  AllLeversGuard guard;
  MemEnv env;
  DatabaseOptions options;
  options.env = &env;
  options.plan_cache = true;
  auto opened = Database::Open("/fixed", options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<Database> db = std::move(opened).value();
  ASSERT_TRUE(db->ExecuteScript("create r (id = i4, v = i4);"
                                "create s (id = i4, w = i4);"
                                "append to r (id = 1, v = 10);"
                                "append to r (id = 2, v = 20);"
                                "append to s (id = 2, w = 200);"
                                "append to s (id = 1, w = 100);"
                                "range of r is r;"
                                "range of s is s")
                  .ok());
  const std::string query = "retrieve (r.v, s.w) where r.id = s.id";
  auto observe = [&] {
    auto plan = db->Explain(query);
    auto rows = db->Query(query);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    return (plan.ok() ? *plan : "") + "\n" +
           (rows.ok() ? rows->ToString(TimeResolution::kSecond) : "");
  };

  GlobalPlanCache().Clear();
  const std::string before = observe();
  const uint64_t hits = GlobalPlanCache().hits();
  const uint64_t misses = GlobalPlanCache().misses();
  ::setenv("TDB_JOIN_METHOD", "hash", 1);
  ::setenv("TDB_VECTOR_EXEC", "0", 1);
  ::setenv("TDB_COMPILED_EXPR", "0", 1);
  EXPECT_EQ(observe(), before);
  // Same plan-cache key: the second execution hits the first's entry.
  EXPECT_EQ(GlobalPlanCache().misses(), misses);
  EXPECT_EQ(GlobalPlanCache().hits(), hits + 1);
  GlobalPlanCache().Clear();
}

class SessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions options;
    options.env = &env_;
    auto db = Database::Open("/db", options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(db).value();
  }

  int64_t Count(Session* s, const std::string& rel_var) {
    auto rows = s->Query("retrieve (n = count(" + rel_var + ".sal))");
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    return rows.ok() ? rows->rows[0][0].AsInt() : -1;
  }

  MemEnv env_;
  std::unique_ptr<Database> db_;
};

TEST_F(SessionTest, RangeDeclarationsArePerSession) {
  ASSERT_TRUE(db_->Execute("create emp (name = c8, sal = i4)").ok());
  auto s1 = db_->CreateSession();
  auto s2 = db_->CreateSession();
  ASSERT_TRUE(s1->Execute("range of e is emp").ok());
  // s2 never declared e: binding must fail there, succeed in s1.
  EXPECT_TRUE(s1->Execute("retrieve (e.name)").ok());
  EXPECT_FALSE(s2->Execute("retrieve (e.name)").ok());
  EXPECT_EQ(s1->ranges().count("e"), 1u);
  EXPECT_EQ(s2->ranges().count("e"), 0u);
}

TEST_F(SessionTest, PinnedAsOfFreezesReadsButNotWrites) {
  ASSERT_TRUE(db_->ExecuteScript("create persistent emp (sal = i4);"
                                 "range of e is emp;"
                                 "append to emp (sal = 100)")
                  .ok());
  auto session = db_->CreateSession();
  ASSERT_TRUE(session->Execute("range of e is emp").ok());
  const TimePoint pin = db_->now();
  db_->AdvanceSeconds(1);  // move past the pin instant

  // More data arrives after the pin instant.
  ASSERT_TRUE(db_->Execute("append to emp (sal = 200)").ok());
  ASSERT_EQ(Count(session.get(), "e"), 2);

  session->PinAsOf(pin);
  EXPECT_EQ(Count(session.get(), "e"), 1);  // the world as of `pin`

  // A mutating statement through the pinned session stamps the live
  // clock — history cannot be written into — and the pin then hides it.
  ASSERT_TRUE(session->Execute("append to emp (sal = 300)").ok());
  EXPECT_EQ(Count(session.get(), "e"), 1);

  session->PinAsOf(std::nullopt);
  EXPECT_EQ(Count(session.get(), "e"), 3);
}

TEST_F(SessionTest, SessionSeesOtherSessionsCommittedWrites) {
  ASSERT_TRUE(db_->ExecuteScript("create emp (sal = i4);"
                                 "range of e is emp")
                  .ok());
  auto writer = db_->CreateSession();
  auto reader = db_->CreateSession();
  ASSERT_TRUE(writer->Execute("range of e is emp").ok());
  ASSERT_TRUE(reader->Execute("range of e is emp").ok());
  ASSERT_EQ(Count(reader.get(), "e"), 0);
  ASSERT_TRUE(writer->Execute("append to emp (sal = 1)").ok());
  // The statement committed and its locks dropped: visible at the
  // reader's next statement.
  EXPECT_EQ(Count(reader.get(), "e"), 1);
}

TEST_F(SessionTest, DdlInOneSessionInvalidatesOthers) {
  ASSERT_TRUE(db_->Execute("create emp (sal = i4)").ok());
  auto s1 = db_->CreateSession();
  auto s2 = db_->CreateSession();
  ASSERT_TRUE(s1->ExecuteScript("range of e is emp;"
                                "append to emp (sal = 1)")
                  .ok());
  ASSERT_TRUE(s2->Execute("range of e is emp").ok());
  ASSERT_EQ(Count(s2.get(), "e"), 1);
  // s1 rebuilds the relation's files; s2's cached handle must not
  // survive into its next statement.
  ASSERT_TRUE(s1->Execute("modify emp to hash on sal").ok());
  EXPECT_EQ(Count(s2.get(), "e"), 1);
}

TEST_F(SessionTest, ErrorsCarryStatementContextThroughSessions) {
  auto session = db_->CreateSession();
  auto result = session->ExecuteScript("create emp (sal = i4);"
                                       "range of e is nope");
  ASSERT_FALSE(result.ok());
  ASSERT_NE(result.status().statement_context(), nullptr);
  EXPECT_EQ(result.status().statement_context()->statement_index, 2);
}

TEST_F(SessionTest, EmbeddedWrappersStillWorkAfterSessionsExist) {
  ASSERT_TRUE(db_->Execute("create emp (sal = i4)").ok());
  auto session = db_->CreateSession();  // flips concurrent mode
  ASSERT_TRUE(session->Execute("range of e is emp").ok());
  // The embedded wrappers route through the default session on the
  // concurrent path now; they must keep working mid-flight.
  ASSERT_TRUE(db_->ExecuteScript("range of e is emp;"
                                 "append to emp (sal = 1)")
                  .ok());
  EXPECT_EQ(Count(session.get(), "e"), 1);
}

}  // namespace
}  // namespace tdb
