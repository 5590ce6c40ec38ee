#ifndef CHRONOQUEL_CORE_DATABASE_H_
#define CHRONOQUEL_CORE_DATABASE_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include <vector>

#include "catalog/catalog.h"
#include "core/lock_table.h"
#include "core/relation.h"
#include "core/result_set.h"
#include "core/session.h"
#include "env/env.h"
#include "exec/exec_env.h"
#include "exec/join_method.h"
#include "obs/metrics.h"
#include "storage/buffer_pool.h"
#include "storage/io_stats.h"
#include "storage/journal.h"
#include "storage/pager.h"
#include "types/timepoint.h"
#include "util/status.h"

namespace tdb {

struct Statement;  // tquel/ast.h

/// 1980-01-01 00:00:00 UTC — the epoch the paper's benchmark databases are
/// initialized around, and the default logical start time.
inline constexpr TimePoint kDefaultStartTime = TimePoint(315532800);

struct DatabaseOptions {
  /// Filesystem backend; null selects the shared Posix environment.  Pass a
  /// MemEnv for hermetic tests and benchmarks.
  Env* env = nullptr;
  /// Initial logical "now".
  TimePoint start_time = kDefaultStartTime;
  /// Seconds the logical clock advances after each mutating statement, so
  /// successive transactions get distinct timestamps.  0 freezes the clock.
  int auto_advance_seconds = 1;
  /// Buffer frames per relation file.  The paper's methodology (and the
  /// default) is 1; `bench/ablation_buffers` sweeps this.
  int buffer_frames = 1;
  /// Crash safety for mutating statements.  kOff (the default, and the
  /// benchmark configuration) writes pages in place with no journal.
  /// kJournal pre-images every page overwrite to a rollback journal so a
  /// process crash leaves each statement atomic; kJournalSync additionally
  /// fsyncs at the commit barriers for power-cut safety.  Recovery runs
  /// automatically in Open() whatever the mode.
  DurabilityMode durability = DurabilityMode::kOff;
  /// Observability: counters, histograms, per-node wall time, and trace
  /// spans.  When off, no instrumentation pointer is ever wired and the
  /// measured page counts / figure stdout are byte-identical to a run
  /// without the obs layer.
  bool metrics = true;
  /// Join planning mode (see exec/join_method.h).  kPaper's plans — and
  /// therefore every measured page count — are byte-identical to the
  /// pre-cost-model system.
  JoinMethod join_method = JoinMethod::kPaper;
  /// Morsel-at-a-time execution; off selects the tuple-at-a-time engine.
  /// Identical page I/O either way.
  bool vector_exec = true;
  /// Morsel capacity in records, clamped to [1, 65535] at Open.
  int morsel_capacity = 1024;
  /// Worker threads for morsel-driven parallel pipelines, clamped to
  /// [1, 64] at Open.  1 is the paper's single-threaded measurement
  /// discipline, whose IoCounters and figure stdout are bit-identical to
  /// the pre-parallel system.
  int exec_threads = 1;
  /// Compiled postfix expression programs; off evaluates every expression
  /// on the AST walker.  Identical results and page I/O either way.
  bool compiled_expr = true;
  /// Group-commit window at kJournalSync: when another writer holds or
  /// awaits the journal's writer lock as the leader of a commit group is
  /// about to fsync, the leader waits this long so that writer can land its
  /// mark and share the fsync (MySQL's binlog_group_commit_sync_delay plays
  /// the same role).  A lone writer never waits.  0 disables the window.
  int group_commit_window_micros = 200;

  // --- production storage mode ----------------------------------------
  // Every field defaults to the paper configuration; the page size and
  // checksum flag are persisted in a `storage` meta file inside the
  // database directory, which is AUTHORITATIVE on reopen (on-disk layout
  // cannot change under an existing database).

  /// Bytes per page: the paper's 1024, or 4096 in production mode.  Must
  /// be in [512, 65536] and a multiple of 256.
  uint32_t page_size = kPageSize;
  /// CRC32-stamp every data page in a 4-byte trailer, verified on load.
  bool page_checksum = false;
  /// Total frames of the process-shared buffer pool.  0 means no pool —
  /// every relation keeps the paper's private single frame.  Any positive
  /// count enables the shared pool for every file of this database.
  int pool_frames = 0;
  /// Per-file resident-page cap inside the shared pool.  1 is the paper's
  /// single-frame discipline (byte-identical row output and IoCounters);
  /// -1 = uncapped (production).
  int pool_file_cap = 1;
  /// Vacuum segment-partition policy: "single" or "epoch:<seconds>".
  std::string vacuum_partition = "single";
  /// Shared plan cache for retrieve statements (see core/plan_cache.h).
  /// Off by default: the paper's measured page counts and figure stdout
  /// never touch the cache unless asked.  On, repeated statements
  /// (prepared or raw) skip parsing and/or planning; results and per-file
  /// IoCounters are identical either way.
  bool plan_cache = false;

  /// Reads the TDB_* levers from the process environment on top of the
  /// defaults: TDB_METRICS, TDB_JOIN_METHOD, TDB_VECTOR_EXEC,
  /// TDB_MORSEL_CAP, TDB_EXEC_THREADS, TDB_COMPILED_EXPR, TDB_PAGE_SIZE,
  /// TDB_PAGE_CHECKSUM, TDB_POOL_FRAMES, TDB_POOL_FILE_CAP,
  /// TDB_VACUUM_PARTITION and TDB_PLAN_CACHE.  A field whose variable is
  /// absent (or unparseable) keeps its default.  The library never calls
  /// this: programs (tquel_shell, tquel_server, the bench drivers) call it
  /// once at start-up, and Database::Open fixes whatever options it is
  /// given for the life of the database.
  static DatabaseOptions FromEnv();
};

/// The TQuel temporal DBMS facade: a database directory containing a
/// catalog plus one or more relation files, queried and updated through
/// TQuel text.
///
///   auto db = Database::Open("/data/mydb", {}).value();
///   db->Execute("create persistent interval emp (name = c20, sal = i4)");
///   db->Execute("range of e is emp");
///   auto rows = db->Execute("retrieve (e.name) where e.sal > 100");
///
/// The logical clock stands in for wall-clock transaction time so runs are
/// reproducible; use SetNow / AdvanceSeconds to script an evolution.
class Database {
 public:
  static Result<std::unique_ptr<Database>> Open(const std::string& dir,
                                                DatabaseOptions options = {});

  /// Parses and executes a script of one or more statements, returning one
  /// ExecResult per statement in script order.  The first error aborts the
  /// remainder; the returned Status then carries a StatementContext naming
  /// the failing statement (1-based index + source offset).  With
  /// durability on, each statement is atomic: a failure (or crash) rolls
  /// the database back to the previous statement boundary.
  ///
  /// A thin wrapper over an implicit default Session (as are Execute and
  /// Query); multi-client code holds its own sessions via CreateSession.
  Result<std::vector<ExecResult>> ExecuteScript(const std::string& text);

  /// Like ExecuteScript(), returning only the last statement's result.
  Result<ExecResult> Execute(const std::string& text);

  /// Convenience wrapper asserting the text is a single retrieve.
  Result<ResultSet> Query(const std::string& text);

  /// Opens a new client session.  It runs statements exactly as the
  /// default session behind the wrappers above does: statement locks, a
  /// pinned as-of snapshot for reads, group-committed journal batches for
  /// writes.  Sessions may execute concurrently from different threads
  /// (one statement at a time per session) and must be destroyed before
  /// the Database.
  std::unique_ptr<Session> CreateSession(SessionOptions options = {});

  /// Plans `text` — a single retrieve, with or without a leading `explain`
  /// — and returns the structured physical plan WITHOUT executing anything.
  /// The plan's runtime stats are all zero; only the pre-rendered node text
  /// remains meaningful once this call returns.
  Result<std::shared_ptr<const PhysicalPlan>> Plan(const std::string& text);

  /// Like Plan(), rendered: the multi-line plan tree `explain` would print.
  Result<std::string> Explain(const std::string& text);

  /// How far past the stamp that writes it the persisted clock ceiling
  /// lies, in logical seconds: a reopened database resumes after the
  /// ceiling, up to this much past the last stamp.
  static constexpr int64_t kClockCeilingStep = 3600;

  TimePoint now() const {
    std::lock_guard<std::mutex> lock(clock_mu_);
    return now_;
  }
  void SetNow(TimePoint tp) {
    std::lock_guard<std::mutex> lock(clock_mu_);
    now_ = tp;
  }
  void AdvanceSeconds(int64_t secs) {
    std::lock_guard<std::mutex> lock(clock_mu_);
    now_ = now_.AddSeconds(secs);
  }

  /// Adjusts the per-statement clock advance (0 freezes the clock so a
  /// group of statements shares one transaction timestamp).
  void set_auto_advance_seconds(int secs) {
    options_.auto_advance_seconds = secs;
  }
  int auto_advance_seconds() const { return options_.auto_advance_seconds; }

  Env* env() { return env_; }
  const std::string& dir() const { return dir_; }
  Catalog* catalog() { return &catalog_; }
  IoRegistry* io() { return default_session_->io(); }

  /// The metrics registry, or null when metrics are disabled for this
  /// database — callers branch on null exactly like the storage layer.
  obs::MetricsRegistry* metrics() {
    return metrics_.enabled() ? &metrics_ : nullptr;
  }

  /// Structured dump of every metric (empty when metrics are disabled).
  obs::MetricsSnapshot Snapshot() const { return metrics_.Snapshot(); }

  /// The shared buffer pool, or null when running the paper's private
  /// single-frame discipline.
  BufferPool* buffer_pool() { return pool_.get(); }
  /// True when retrieves route through the process-shared plan cache.
  bool plan_cache_enabled() const { return options_.plan_cache; }

  Result<Relation*> GetRelation(const std::string& name);

  /// Flushes and empties the buffer frame of every relation file the
  /// default session has open.  Measurement runs call this before each
  /// query so the single frame per relation starts cold, as in the
  /// paper's methodology.
  Status DropAllBuffers() { return default_session_->DropAllBuffers(); }

  /// The default session's range declarations (variable -> relation).
  const std::map<std::string, std::string>& ranges() const {
    return default_session_->ranges();
  }

 private:
  friend class Session;

  Database(Env* env, std::string dir, DatabaseOptions options)
      : env_(env),
        dir_(std::move(dir)),
        instance_id_(NextInstanceId()),
        options_(options),
        catalog_(env, dir_),
        metrics_(options.metrics),
        now_(options.start_time) {}

  static uint64_t NextInstanceId();

  /// Stamps a writer: returns the transaction time and advances the clock
  /// atomically, so overlapping writers get distinct stamps.
  TimePoint AcquireTxTime();

  /// Fixes the engine configuration for the life of the database: reads
  /// the on-disk layout from the directory's `storage` meta file (or
  /// records the requested one), creates the shared pool when asked, and
  /// resolves `options_` into `exec_template_`.  Called by Open() before
  /// anything touches a relation file.
  Status ResolveExecEnv();

  /// The logical clock is persisted alongside the catalog so that a
  /// reopened database resumes *after* every recorded transaction time —
  /// otherwise "now" would rewind and rollback views would hide recent
  /// updates.  The file holds a ceiling, not the last stamp: the stamp that
  /// wrote it plus kClockCeilingStep logical seconds, so a writer rewrites
  /// it only when its stamp passes the ceiling.
  std::string ClockPath() const { return dir_ + "/clock"; }
  /// Persists a new ceiling when `stamp` passes the current one, through
  /// the journal when there is one.  With a journal, returns the new
  /// ceiling, which the writer publishes with RaiseClockCeiling once its
  /// batch commits (a rolled-back batch restores the old file, so the old
  /// ceiling stands); without one the new ceiling holds at once.  Returns
  /// nullopt when nothing was written.
  Result<std::optional<TimePoint>> PersistClock(TimePoint stamp);
  void RaiseClockCeiling(TimePoint ceiling);
  /// Resumes the clock one second after the persisted ceiling.  A missing
  /// clock file is a new database; an unreadable or unparsable one fails.
  Status RestoreClock();

  Env* env_;
  std::string dir_;
  /// Unique per Database object in the process: plan-cache keys start
  /// with it, so a database reopened at the same directory (or another
  /// MemEnv's database at the same path) never meets the plans of an
  /// earlier one.
  const uint64_t instance_id_;
  DatabaseOptions options_;
  Catalog catalog_;
  /// Declared before the registries and journal, which hold raw pointers
  /// into it while metrics are enabled.
  obs::MetricsRegistry metrics_;
  /// Declared before default_session_ (and before journal_, whose hooks
  /// pool write-backs run through) so session pagers — which flush their
  /// pool frames on destruction — die first.
  std::unique_ptr<BufferPool> pool_;
  /// Declared before default_session_ so session pagers (whose destructors
  /// flush through the journal hooks) are destroyed first.
  std::unique_ptr<Journal> journal_;
  /// The executor environment every statement copies: the database-wide
  /// fields (env, catalog, journal, storage mode, engine knobs) resolved
  /// once by Open(); sessions fill in their own registry, relation cache,
  /// clock reading and scratch tag.
  ExecEnv exec_template_;

  // --- statement concurrency (every session, the default one included) ---
  std::atomic<int> next_session_id_{1};
  LockTable lock_table_;
  mutable std::mutex clock_mu_;
  /// Cross-session cache invalidation: a writer bumps its target
  /// relations' versions (and DDL the catalog generation) at commit, and
  /// every session drops handles it discovers stale at statement start.
  std::mutex version_mu_;
  std::map<std::string, uint64_t> rel_versions_;
  uint64_t catalog_gen_ = 0;

  /// Owns the embedded API's registry/relations/ranges.
  std::unique_ptr<Session> default_session_;
  TimePoint now_;  // guarded by clock_mu_
  /// The ceiling the clock file holds for every committed batch; no stamp
  /// at or below it needs a clock write.  Guarded by clock_mu_.
  TimePoint clock_ceiling_ = TimePoint::Beginning();
};

}  // namespace tdb

#endif  // CHRONOQUEL_CORE_DATABASE_H_
