#ifndef CHRONOQUEL_CORE_SESSION_H_
#define CHRONOQUEL_CORE_SESSION_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/relation.h"
#include "core/result_set.h"
#include "storage/io_stats.h"
#include "types/timepoint.h"
#include "types/value.h"
#include "util/status.h"

namespace tdb {

class Database;
struct Statement;          // tquel/ast.h
struct RetrieveStmt;       // tquel/ast.h
struct PrepareStmt;        // tquel/ast.h
struct ExecPreparedStmt;   // tquel/ast.h
struct BoundStatement;     // tquel/binder.h
struct CachedPlan;         // core/plan_cache.h
struct ExecEnv;            // exec/exec_env.h

/// Per-session options.  Engine configuration is not among them: it is
/// fixed per database by DatabaseOptions at Database::Open.
struct SessionOptions {
  /// Pinned `as of` transaction timestamp for read statements: every
  /// retrieve in this session sees the database exactly as it stood at
  /// this instant, whatever concurrent writers commit meanwhile.  Unset
  /// pins each statement at its own start time (snapshot-read MVCC over
  /// the append-only stores).  Mutating statements always stamp with the
  /// live clock — history cannot be written into.
  std::optional<TimePoint> as_of;
};

/// One client's connection to a Database: the unit of statement execution
/// and client state (range declarations, open relation handles, I/O
/// accounting, pinned as-of timestamp).  The embedded API
/// (`Database::Execute`) is a thin wrapper over an implicit default
/// session; the server's connection handlers each own one.
///
/// Sessions created by Database::CreateSession() may execute statements
/// concurrently from different threads — the database's lock table
/// serializes writers per relation, readers run in parallel against
/// pinned snapshots, and the journal group-commits overlapping writers.
/// One Session is still one client: its own methods must not be called
/// concurrently with each other.  Every Session must be destroyed before
/// its Database.
class Session {
 public:
  ~Session();

  /// Statement execution, identical semantics to the Database methods of
  /// the same names (which delegate here).
  Result<std::vector<ExecResult>> ExecuteScript(const std::string& text);
  Result<ExecResult> Execute(const std::string& text);
  Result<ResultSet> Query(const std::string& text);

  int id() const { return id_; }
  Database* database() { return db_; }

  const SessionOptions& options() const { return options_; }
  void set_options(SessionOptions options) { options_ = std::move(options); }

  /// Pins (or with nullopt, unpins) the session's as-of read timestamp.
  void PinAsOf(std::optional<TimePoint> at) { options_.as_of = at; }
  std::optional<TimePoint> pinned_as_of() const { return options_.as_of; }

  /// Prepared-statement API, mirroring the TQuel surface (`prepare name as
  /// <stmt>` / `execute name (args)` / `deallocate name`) for callers that
  /// already hold the pieces — the wire protocol's kPrepare / kExecPrepared
  /// / kClose frames land here.  `ExecutePrepared` binds already-decoded
  /// values as the statement's `$N` parameters, skipping parsing entirely;
  /// with the plan cache enabled, repeated executions also skip planning.
  Result<ExecResult> Prepare(const std::string& name, const std::string& text);
  Result<ExecResult> ExecutePrepared(const std::string& name,
                                     std::vector<Value> args);
  Result<ExecResult> DeallocatePrepared(const std::string& name);

  /// This session's range declarations (variable -> relation).
  const std::map<std::string, std::string>& ranges() const { return ranges_; }

  /// This session's I/O accounting (per-file page read/write counters).
  IoRegistry* io() { return &registry_; }

  /// Flushes and empties the buffer frame of every relation file this
  /// session has open (the paper's cold-start discipline).
  Status DropAllBuffers();

 private:
  friend class Database;

  Session(Database* db, int id, SessionOptions options);

  /// The executor environment for one statement at logical time `now`:
  /// the database's template plus this session's registry, relation
  /// cache and scratch tag.
  ExecEnv MakeExecEnv(TimePoint now);

  /// Executes one already-parsed statement through the embedded or
  /// concurrent machinery (journal batch, locks, clock) — the body of
  /// ExecuteScript's loop, also used by the prepared-statement API where
  /// there is no text to parse.
  Result<ExecResult> ExecuteOne(Statement* stmt);

  /// The per-statement kind switch, shared by the embedded and concurrent
  /// paths.  Sets *data_mutating for statements that stamp transaction
  /// time (append/delete/replace/copy-from).
  Result<ExecResult> RunStatement(Statement* stmt, ExecEnv& exec,
                                  bool* data_mutating);

  /// The statement whose reads/writes decide a LockPlan: an `execute` of a
  /// prepared statement classifies as its stored inner statement (an
  /// unknown name classifies as itself and errors later, under the default
  /// shared latch).
  const Statement* EffectiveStatement(const Statement* stmt) const;

  // --- prepared statements -----------------------------------------------

  /// `prepare name as <stmt>`.  Validates completely — inner kind, `$N`
  /// parameter numbering, bind against the live catalog — before touching
  /// any session state, so a failed prepare leaves no prepared entry, no
  /// range binding, and no scratch-file tag behind.
  Result<ExecResult> RunPrepare(PrepareStmt* prep, ExecEnv& exec);

  /// `execute name (args)`.  Evaluates the argument expressions (or takes
  /// the wire path's pre-decoded values), re-binds the stored AST against
  /// the live catalog, and runs it with `exec.params` pointing at the
  /// argument vector for the `$N` evaluator.
  Result<ExecResult> RunExecPrepared(ExecPreparedStmt* ex, ExecEnv& exec,
                                     bool* data_mutating);

  // --- shared plan cache (DatabaseOptions::plan_cache) -------------------

  /// Retrieve entry point: routes through the shared plan cache when the
  /// database enables it and the statement is cacheable, falling back to
  /// plan-and-execute otherwise (and on any cache-path failure — a cache
  /// hit may change CPU cost, never results).
  Result<ExecResult> RunRetrieve(RetrieveStmt* stmt,
                                 const BoundStatement& bound, ExecEnv& exec);
  Result<ExecResult> RetrieveViaPlanCache(RetrieveStmt* stmt,
                                          const BoundStatement& bound,
                                          ExecEnv& exec);

  /// The cache key: database directory + canonical statement text + every
  /// referenced relation's version stamp + catalog generation + engine-knob
  /// fingerprint.  Any write or DDL moves a component, so stale entries
  /// never hit.
  std::string PlanCacheKeyFor(const RetrieveStmt& stmt,
                              const BoundStatement& bound,
                              const ExecEnv& exec);

  /// Builds a self-contained cache entry: the statement printed, re-parsed
  /// (so the entry owns its AST), re-bound, and planned into a template.
  Result<std::shared_ptr<const CachedPlan>> BuildCacheEntry(
      const RetrieveStmt& stmt, ExecEnv& exec);

  /// Clones the entry's plan template for this execution and interprets it
  /// against the entry's (read-only, shared) AST.
  Result<ExecResult> ExecuteCachedPlan(const CachedPlan& entry, ExecEnv& exec);

  /// Version-stamp bump after an embedded-path write, mirroring what the
  /// concurrent path publishes under its locks — the plan cache keys off
  /// these stamps, so they must move on every write even with one session.
  /// Only runs when the plan cache is enabled, keeping paper mode free of
  /// the version mutex.
  void BumpVersionsEmbedded(const Statement* stmt);

  /// Embedded path: byte-identical to the pre-session Database behavior.
  Result<ExecResult> ExecuteStatementEmbedded(Statement* stmt);
  Status CommitStatementEmbedded();
  Status RollbackStatementEmbedded();

  /// Concurrent path: statement locks, pinned snapshot or acquired tx
  /// time, journal group commit, cross-session handle invalidation.
  Result<ExecResult> ExecuteStatementConcurrent(Statement* stmt);

  /// Drops relation handles another session's committed statement made
  /// stale.  Called at statement start while this statement's locks are
  /// held, so the handles it keeps stay fresh for the statement.
  void InvalidateStaleHandles();

  Database* db_;
  int id_;
  /// Distinguishes this session's scratch files (`__temp<tag><n>.dat`);
  /// empty for the default session, keeping embedded names byte-identical.
  std::string temp_tag_;
  SessionOptions options_;
  IoRegistry registry_;
  /// Declared after registry_ (pagers point into it) and destroyed first.
  std::map<std::string, std::unique_ptr<Relation>> relations_;
  std::map<std::string, std::string> ranges_;
  /// One prepared statement: canonical text (for display), the owned
  /// parsed AST (re-bound at every execute so DDL between executions is
  /// picked up), and its `$N` parameter count.
  struct PreparedEntry {
    std::string text;
    std::unique_ptr<Statement> stmt;
    int param_count = 0;
  };
  std::map<std::string, PreparedEntry> prepared_;
  /// While a prepared statement executes: its stored canonical text, so
  /// PlanCacheKeyFor can skip re-printing the AST on every execution (the
  /// printer is deterministic, so the stored text is exactly what a fresh
  /// print would produce).
  const std::string* prepared_text_hint_ = nullptr;
  /// Last database-wide relation versions this session reconciled with.
  std::map<std::string, uint64_t> seen_versions_;
  uint64_t seen_catalog_gen_ = 0;
};

}  // namespace tdb

#endif  // CHRONOQUEL_CORE_SESSION_H_
