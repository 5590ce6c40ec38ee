#ifndef CHRONOQUEL_CORE_SESSION_H_
#define CHRONOQUEL_CORE_SESSION_H_

#include <list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/relation.h"
#include "core/result_set.h"
#include "storage/io_stats.h"
#include "tquel/binder.h"
#include "types/timepoint.h"
#include "types/value.h"
#include "util/status.h"

namespace tdb {

class Database;
struct Statement;          // tquel/ast.h
struct RetrieveStmt;       // tquel/ast.h
struct PrepareStmt;        // tquel/ast.h
struct ExecPreparedStmt;   // tquel/ast.h
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
/// (`Database::Execute`) is a thin wrapper over the database's default
/// session; the server's connection handlers each own one.
///
/// Every session, the default one included, runs its statements the same
/// way, so sessions may execute concurrently from different threads — the
/// database's lock table serializes writers per relation, readers run in
/// parallel against pinned snapshots, and the journal group-commits
/// overlapping writers.  One Session is still one client: its own methods
/// must not be called concurrently with each other (debug builds assert
/// it), though successive statements may come from different threads.
/// Every Session must be destroyed before its Database.
class Session {
 public:
  ~Session();

  /// Statement execution, identical semantics to the Database methods of
  /// the same names (which delegate here).  With the plan cache on, a text
  /// that is one plain retrieve runs as an implicit prepared statement:
  /// its numeric literals become the arguments of a statement prepared
  /// once per shape (see kImplicitStatements).
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

  /// Executes one already-parsed statement, with metrics around
  /// ExecuteStatement — the body of ExecuteScript's loop, also used by the
  /// prepared-statement API where there is no text to parse.
  Result<ExecResult> ExecuteOne(Statement* stmt);

  /// The per-statement kind switch.
  Result<ExecResult> RunStatement(Statement* stmt, ExecEnv& exec);

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
  /// the wire path's pre-decoded values) and runs the stored statement
  /// with `exec.params` pointing at the argument vector.
  Result<ExecResult> RunExecPrepared(ExecPreparedStmt* ex, ExecEnv& exec);

  struct PreparedEntry;
  /// The explicit or implicit prepared statement an `execute` names, or
  /// null.
  PreparedEntry* FindPrepared(const ExecPreparedStmt& ex);
  const PreparedEntry* FindPrepared(const ExecPreparedStmt& ex) const;

  /// Runs a prepared retrieve, re-binding its stored AST only when the
  /// binding of its last execution no longer stands (BindingStands).
  Result<ExecResult> RunPreparedRetrieve(PreparedEntry& entry, ExecEnv& exec);

  /// True while `entry`'s last binding is valid: no catalog reload since
  /// it was made (the generation is unchanged, so its relation metadata
  /// pointers are live) and every range variable it used still names the
  /// same relation.
  bool BindingStands(const PreparedEntry& entry) const;

  // --- implicit prepared statements ---------------------------------------

  /// Runs `text` as an implicit prepared statement when it normalizes to a
  /// single cacheable retrieve.  Returns nullopt when it does not, and when
  /// the statement fails: the caller then runs the literal text the usual
  /// way, which reports exactly the usual error (a retrieve without `into`
  /// writes nothing, so running it again is safe).
  std::optional<ExecResult> ExecuteImplicit(const std::string& text);

  // --- shared plan cache (DatabaseOptions::plan_cache) -------------------

  /// Retrieve entry point: routes through the shared plan cache when the
  /// database enables it and the statement is cacheable, falling back to
  /// plan-and-execute otherwise (and on any cache-path failure — a cache
  /// hit may change CPU cost, never results).  `key_text` is the
  /// statement's text for the cache key: a prepared statement's own, or
  /// null to print the statement.
  Result<ExecResult> RunRetrieve(RetrieveStmt* stmt,
                                 const BoundStatement& bound,
                                 const std::string* key_text, ExecEnv& exec);
  Result<ExecResult> RetrieveViaPlanCache(RetrieveStmt* stmt,
                                          const BoundStatement& bound,
                                          const std::string& key_text,
                                          ExecEnv& exec);

  /// The cache key: what a plan depends on.  The Database instance, the
  /// statement text, each bound variable's relation, the catalog
  /// generation, the engine knobs, and under cost planning each relation's
  /// stats epoch.  Data writes are not in it: a plan holds no relation
  /// handle, and the paper planner reads no data.
  std::string PlanCacheKeyFor(const std::string& text,
                              const BoundStatement& bound,
                              const ExecEnv& exec) const;

  /// Plans a cache entry from a copy of the bound statement, which the
  /// entry owns: its plan's expression pointers alias that copy.
  Result<std::shared_ptr<const CachedPlan>> BuildCacheEntry(
      const RetrieveStmt& stmt, const BoundStatement& bound, ExecEnv& exec);

  /// Clones the entry's plan template for this execution and interprets it
  /// against the entry's (read-only, shared) AST.  `bound` is the
  /// caller's binding of the same text, which the key made identical.
  Result<ExecResult> ExecuteCachedPlan(const CachedPlan& entry,
                                       const BoundStatement& bound,
                                       ExecEnv& exec);

  /// The one statement path: statement locks, a pinned snapshot or an
  /// acquired transaction time, journal group commit, and publishing the
  /// written relations' versions to other sessions.
  Result<ExecResult> ExecuteStatement(Statement* stmt);

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
  /// One prepared statement: its text (the plan-cache key text), the
  /// owned parsed AST, and its `$N` parameter count.  A retrieve keeps
  /// the binding of its last execution and the catalog generation it was
  /// made under; other statements re-bind at every execute.
  struct PreparedEntry {
    std::string text;
    std::unique_ptr<Statement> stmt;
    int param_count = 0;
    std::optional<BoundStatement> bound;
    uint64_t bound_gen = 0;
  };
  std::map<std::string, PreparedEntry> prepared_;

  /// Implicit prepared statements, keyed by normalized text plus literal
  /// types, most recently used first.  An entry without a statement marks
  /// a shape that did not prepare, so its texts go straight to the usual
  /// path.  A fixed bound: a client's ad-hoc shapes are few, and an
  /// evicted shape costs one parse to prepare again.
  static constexpr size_t kImplicitStatements = 64;
  std::list<std::pair<std::string, PreparedEntry>> implicit_lru_;
  std::unordered_map<std::string, decltype(implicit_lru_)::iterator>
      implicit_;
  /// Last database-wide relation versions this session reconciled with.
  std::map<std::string, uint64_t> seen_versions_;
  uint64_t seen_catalog_gen_ = 0;
};

}  // namespace tdb

#endif  // CHRONOQUEL_CORE_SESSION_H_
