#include "core/session.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <set>
#include <utility>

#include "core/database.h"
#include "core/plan_cache.h"
#include "exec/ddl_executor.h"
#include "exec/dml_executor.h"
#include "exec/eval.h"
#include "exec/exec_env.h"
#include "exec/plan.h"
#include "exec/planner.h"
#include "exec/query_executor.h"
#include "tquel/ast.h"
#include "tquel/binder.h"
#include "tquel/parser.h"
#include "tquel/printer.h"
#include "util/stringx.h"

namespace tdb {

namespace {

/// What one statement needs from the lock table, derived from its AST
/// before execution (so locks are held before any page is touched).
struct LockPlan {
  StatementLocks::DdlMode ddl = StatementLocks::DdlMode::kShared;
  /// (relation, exclusive?) pairs; shared entries cover every relation a
  /// range variable can reach, exclusive ones the statement's write target.
  std::vector<std::pair<std::string, bool>> rels;
  /// Writes database files, so it needs a journal batch and a post-commit
  /// version bump for other sessions.
  bool writes = false;
  /// DML: stamps transaction time and advances the logical clock.
  bool data_mutating = false;
};

/// Collects the tuple-variable names a statement's clauses reference, so
/// the lock plan can cover exactly the relations the statement can touch.
/// A session may hold many declared ranges; a statement that mentions one
/// of them must not contend with writers of the others.
struct VarCollector {
  std::set<std::string> vars;  // lower-cased

  void Scalar(const Expr* e) {
    if (e == nullptr) return;
    if (e->kind == Expr::Kind::kColumn) vars.insert(ToLower(e->var));
    Scalar(e->left.get());
    Scalar(e->right.get());
    Scalar(e->agg_arg.get());
    Scalar(e->agg_by.get());
    Scalar(e->agg_where.get());
  }
  void Temporal(const TemporalExpr* t) {
    if (t == nullptr) return;
    if (t->kind == TemporalExpr::Kind::kVar) vars.insert(ToLower(t->var));
    Temporal(t->left.get());
    Temporal(t->right.get());
  }
  void Pred(const TemporalPred* p) {
    if (p == nullptr) return;
    Temporal(p->lexpr.get());
    Temporal(p->rexpr.get());
    Pred(p->left.get());
    Pred(p->right.get());
  }
  void Valid(const std::optional<ValidClause>& v) {
    if (!v.has_value()) return;
    Temporal(v->from.get());
    Temporal(v->to.get());
  }
  void AsOf(const std::optional<AsOfClause>& a) {
    if (!a.has_value()) return;
    Temporal(a->at.get());
    Temporal(a->through.get());
  }
  void Targets(const std::vector<TargetItem>& targets) {
    for (const TargetItem& t : targets) Scalar(t.expr.get());
  }
};

LockPlan ClassifyStatement(const Statement* stmt,
                           const std::map<std::string, std::string>& ranges) {
  LockPlan lp;
  // Precise read set: only the relations whose range variables the
  // statement actually references.  Shared locks on every declared range
  // would make any two sessions' writes conflict as soon as each has a
  // range over the other's relation, serializing workloads that never
  // touch the same data.
  auto read_referenced = [&](const VarCollector& vc) {
    for (const std::string& var : vc.vars) {
      auto it = ranges.find(var);
      if (it != ranges.end()) lp.rels.emplace_back(it->second, false);
    }
  };
  switch (stmt->kind) {
    case Statement::Kind::kRange:
    case Statement::Kind::kHelp:
      break;  // catalog reads only; the shared DDL latch covers them
    case Statement::Kind::kRetrieve: {
      auto* r = static_cast<const RetrieveStmt*>(stmt);
      VarCollector vc;
      vc.Targets(r->targets);
      vc.Scalar(r->where.get());
      vc.Pred(r->when.get());
      vc.Valid(r->valid);
      vc.AsOf(r->as_of);
      read_referenced(vc);
      if (!r->into.empty()) {
        // `retrieve into` creates a relation: catalog shape changes.
        lp.ddl = StatementLocks::DdlMode::kExclusive;
        lp.writes = true;
      }
      break;
    }
    case Statement::Kind::kExplain: {
      // analyze executes; plain planning still reads
      auto* e = static_cast<const ExplainStmt*>(stmt);
      const RetrieveStmt* r = e->query.get();
      VarCollector vc;
      vc.Targets(r->targets);
      vc.Scalar(r->where.get());
      vc.Pred(r->when.get());
      vc.Valid(r->valid);
      vc.AsOf(r->as_of);
      read_referenced(vc);
      break;
    }
    case Statement::Kind::kAppend: {
      auto* a = static_cast<const AppendStmt*>(stmt);
      VarCollector vc;
      vc.Targets(a->targets);
      vc.Scalar(a->where.get());
      vc.Pred(a->when.get());
      vc.Valid(a->valid);
      read_referenced(vc);
      lp.rels.emplace_back(a->relation, true);
      lp.writes = lp.data_mutating = true;
      break;
    }
    case Statement::Kind::kDelete: {
      auto* d = static_cast<const DeleteStmt*>(stmt);
      VarCollector vc;
      vc.Scalar(d->where.get());
      vc.Pred(d->when.get());
      vc.Valid(d->valid);
      read_referenced(vc);
      auto it = ranges.find(ToLower(d->var));
      if (it != ranges.end()) lp.rels.emplace_back(it->second, true);
      lp.writes = lp.data_mutating = true;
      break;
    }
    case Statement::Kind::kReplace: {
      auto* r = static_cast<const ReplaceStmt*>(stmt);
      VarCollector vc;
      vc.Targets(r->targets);
      vc.Scalar(r->where.get());
      vc.Pred(r->when.get());
      vc.Valid(r->valid);
      read_referenced(vc);
      auto it = ranges.find(ToLower(r->var));
      if (it != ranges.end()) lp.rels.emplace_back(it->second, true);
      lp.writes = lp.data_mutating = true;
      break;
    }
    case Statement::Kind::kCopy: {
      auto* c = static_cast<const CopyStmt*>(stmt);
      lp.rels.emplace_back(c->relation, c->from);
      lp.writes = lp.data_mutating = c->from;
      break;
    }
    case Statement::Kind::kCreate:
    case Statement::Kind::kDestroy:
    case Statement::Kind::kModify:
    case Statement::Kind::kIndex:
    // Vacuum restructures a relation's history storage (like modify), so
    // it runs DDL-exclusive even though the logical contents don't change.
    case Statement::Kind::kVacuum:
      lp.ddl = StatementLocks::DdlMode::kExclusive;
      lp.writes = true;
      break;
    // Prepare binds against the catalog (the shared DDL latch covers it)
    // and deallocate touches only session-local state.  An `execute` is
    // classified by its stored inner statement — callers resolve it via
    // Session::EffectiveStatement before calling here; reaching this case
    // directly means the name is unknown and the statement will error
    // under the default shared latch.
    case Statement::Kind::kPrepare:
    case Statement::Kind::kExecPrepared:
    case Statement::Kind::kDeallocate:
      break;
  }
  return lp;
}

/// Largest `$N` index referenced anywhere in an expression tree (0 when
/// parameter-free).
int MaxParamIndex(const Expr* e) {
  if (e == nullptr) return 0;
  int n = e->kind == Expr::Kind::kParam ? e->param_index : 0;
  n = std::max(n, MaxParamIndex(e->left.get()));
  n = std::max(n, MaxParamIndex(e->right.get()));
  n = std::max(n, MaxParamIndex(e->agg_arg.get()));
  n = std::max(n, MaxParamIndex(e->agg_by.get()));
  n = std::max(n, MaxParamIndex(e->agg_where.get()));
  return n;
}

/// Largest `$N` index referenced by a preparable statement's clauses.
/// Temporal expressions cannot carry parameters (the grammar has no `$N`
/// production there), so only the scalar clauses are walked.
int MaxParamIndex(const Statement* stmt) {
  int n = 0;
  switch (stmt->kind) {
    case Statement::Kind::kRetrieve: {
      auto* r = static_cast<const RetrieveStmt*>(stmt);
      for (const TargetItem& t : r->targets) {
        n = std::max(n, MaxParamIndex(t.expr.get()));
      }
      n = std::max(n, MaxParamIndex(r->where.get()));
      break;
    }
    case Statement::Kind::kAppend: {
      auto* a = static_cast<const AppendStmt*>(stmt);
      for (const TargetItem& t : a->targets) {
        n = std::max(n, MaxParamIndex(t.expr.get()));
      }
      n = std::max(n, MaxParamIndex(a->where.get()));
      break;
    }
    case Statement::Kind::kDelete: {
      auto* d = static_cast<const DeleteStmt*>(stmt);
      n = MaxParamIndex(d->where.get());
      break;
    }
    case Statement::Kind::kReplace: {
      auto* r = static_cast<const ReplaceStmt*>(stmt);
      for (const TargetItem& t : r->targets) {
        n = std::max(n, MaxParamIndex(t.expr.get()));
      }
      n = std::max(n, MaxParamIndex(r->where.get()));
      break;
    }
    default:
      break;
  }
  return n;
}

/// True when the expression can be evaluated with no row bound — the
/// requirement on `execute` arguments (literals and arithmetic over them).
bool IsConstExpr(const Expr* e) {
  if (e == nullptr) return true;
  switch (e->kind) {
    case Expr::Kind::kColumn:
    case Expr::Kind::kAggregate:
    case Expr::Kind::kParam:
      return false;
    default:
      return IsConstExpr(e->left.get()) && IsConstExpr(e->right.get());
  }
}

bool HasAggregate(const Expr* e) {
  if (e == nullptr) return false;
  if (e->kind == Expr::Kind::kAggregate) return true;
  return HasAggregate(e->left.get()) || HasAggregate(e->right.get());
}

/// The plan-cache admission gate.  Excluded:
///   * `retrieve into` — creates a relation (DDL, runs once);
///   * aggregates — FoldAggregates rewrites the AST destructively, so a
///     shared read-only AST cannot carry them;
///   * an explicit `as of` — the planner evaluates the rollback point at
///     plan time, and caching would bake an `as of`-equals-now coincidence
///     into plans reused at later clock values.
/// Everything else (including `$N` parameters, whose plans deliberately
/// outlive any one argument vector) is admissible.
bool PlanCacheable(const RetrieveStmt& stmt) {
  if (!stmt.into.empty()) return false;
  if (stmt.as_of.has_value()) return false;
  for (const TargetItem& t : stmt.targets) {
    if (HasAggregate(t.expr.get())) return false;
  }
  if (HasAggregate(stmt.where.get())) return false;
  return true;
}

}  // namespace

Session::Session(Database* db, int id, SessionOptions options)
    : db_(db), id_(id), options_(std::move(options)) {
  // The default session (id 0) keeps the legacy scratch names
  // ("__temp0.dat") so embedded page accounting stays byte-identical.
  if (id_ > 0) temp_tag_ = StrPrintf("s%d_", id_);
  if (obs::MetricsRegistry* m = db_->metrics()) registry_.set_metrics(m);
}

Session::~Session() = default;

ExecEnv Session::MakeExecEnv(TimePoint now) {
  ExecEnv exec = db_->exec_template_;
  exec.registry = &registry_;
  exec.relations = &relations_;
  exec.now = now;
  exec.temp_tag = temp_tag_;
  return exec;
}

Status Session::DropAllBuffers() {
  for (auto& [_, rel] : relations_) {
    TDB_RETURN_NOT_OK(rel->FlushAndDropBuffers());
  }
  return Status::OK();
}

Result<std::vector<ExecResult>> Session::ExecuteScript(
    const std::string& text) {
  TDB_ASSIGN_OR_RETURN(auto stmts, Parser::ParseScript(text));
  if (stmts.empty()) return Status::ParseError("empty statement");
  if (obs::MetricsRegistry* m = db_->metrics()) {
    // Parser invocations, per statement: the prepared-statement path skips
    // this counter entirely — load generators diff it against plan.builds
    // to show what prepare/execute saves.
    m->counter("sql.parses")->Add(stmts.size());
  }

  std::vector<ExecResult> results;
  results.reserve(stmts.size());
  for (size_t i = 0; i < stmts.size(); ++i) {
    Statement* stmt = stmts[i].get();
    const StatementContext ctx{static_cast<int>(i) + 1, stmt->source_offset};
    Result<ExecResult> result = ExecuteOne(stmt);
    if (!result.ok()) return result.status().WithStatementContext(ctx);
    results.push_back(std::move(*result));
  }
  return results;
}

Result<ExecResult> Session::ExecuteOne(Statement* stmt) {
  IoRegistry::StatementScope scope(&registry_);
  obs::MetricsRegistry* m = db_->metrics();
  if (m == nullptr) return ExecuteStatement(stmt);
  obs::TraceSpan span(m, "db.statement");
  auto start = std::chrono::steady_clock::now();
  Result<ExecResult> result = ExecuteStatement(stmt);
  m->counter("db.statements")->Increment();
  m->histogram("db.statement_nanos")
      ->Record(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start)
              .count()));
  return result;
}

Result<ExecResult> Session::Execute(const std::string& text) {
  TDB_ASSIGN_OR_RETURN(auto results, ExecuteScript(text));
  return std::move(results.back());
}

Result<ResultSet> Session::Query(const std::string& text) {
  TDB_ASSIGN_OR_RETURN(ExecResult r, Execute(text));
  return r.result;
}

Result<ExecResult> Session::RunStatement(Statement* stmt, ExecEnv& exec) {
  Binder binder(&db_->catalog_, &ranges_);
  ExecResult last;
  switch (stmt->kind) {
    case Statement::Kind::kRange: {
      auto* range = static_cast<RangeStmt*>(stmt);
      if (db_->catalog_.Find(range->relation) == nullptr) {
        return Status::BindError("relation '" + range->relation +
                                 "' does not exist");
      }
      ranges_[ToLower(range->var)] = range->relation;
      last = ExecResult{};
      last.message = "range of " + range->var + " is " + range->relation;
      break;
    }
    case Statement::Kind::kRetrieve: {
      auto* retrieve = static_cast<RetrieveStmt*>(stmt);
      TDB_ASSIGN_OR_RETURN(BoundStatement bound,
                           binder.BindRetrieve(retrieve));
      TDB_ASSIGN_OR_RETURN(last, RunRetrieve(retrieve, bound, exec));
      break;
    }
    case Statement::Kind::kAppend: {
      auto* append = static_cast<AppendStmt*>(stmt);
      TDB_ASSIGN_OR_RETURN(BoundStatement bound, binder.BindAppend(append));
      DmlExecutor dml(exec);
      TDB_ASSIGN_OR_RETURN(last, dml.Append(append, bound));
      break;
    }
    case Statement::Kind::kDelete: {
      auto* del = static_cast<DeleteStmt*>(stmt);
      TDB_ASSIGN_OR_RETURN(BoundStatement bound, binder.BindDelete(del));
      DmlExecutor dml(exec);
      TDB_ASSIGN_OR_RETURN(last, dml.Delete(del, bound));
      break;
    }
    case Statement::Kind::kReplace: {
      auto* replace = static_cast<ReplaceStmt*>(stmt);
      TDB_ASSIGN_OR_RETURN(BoundStatement bound,
                           binder.BindReplace(replace));
      DmlExecutor dml(exec);
      TDB_ASSIGN_OR_RETURN(last, dml.Replace(replace, bound));
      break;
    }
    case Statement::Kind::kCreate: {
      DdlExecutor ddl(exec);
      TDB_ASSIGN_OR_RETURN(last,
                           ddl.Create(*static_cast<CreateStmt*>(stmt)));
      break;
    }
    case Statement::Kind::kDestroy: {
      DdlExecutor ddl(exec);
      TDB_ASSIGN_OR_RETURN(
          last, ddl.Destroy(*static_cast<DestroyStmt*>(stmt)));
      break;
    }
    case Statement::Kind::kModify: {
      DdlExecutor ddl(exec);
      TDB_ASSIGN_OR_RETURN(last,
                           ddl.Modify(*static_cast<ModifyStmt*>(stmt)));
      break;
    }
    case Statement::Kind::kVacuum: {
      DdlExecutor ddl(exec);
      TDB_ASSIGN_OR_RETURN(last,
                           ddl.Vacuum(*static_cast<VacuumStmt*>(stmt)));
      break;
    }
    case Statement::Kind::kIndex: {
      DdlExecutor ddl(exec);
      TDB_ASSIGN_OR_RETURN(last,
                           ddl.Index(*static_cast<IndexStmt*>(stmt)));
      break;
    }
    case Statement::Kind::kHelp: {
      DdlExecutor ddl(exec);
      TDB_ASSIGN_OR_RETURN(last,
                           ddl.Help(*static_cast<HelpStmt*>(stmt)));
      break;
    }
    case Statement::Kind::kCopy: {
      DdlExecutor ddl(exec);
      TDB_ASSIGN_OR_RETURN(last, ddl.Copy(*static_cast<CopyStmt*>(stmt)));
      break;
    }
    case Statement::Kind::kPrepare: {
      TDB_ASSIGN_OR_RETURN(last,
                           RunPrepare(static_cast<PrepareStmt*>(stmt), exec));
      break;
    }
    case Statement::Kind::kExecPrepared: {
      TDB_ASSIGN_OR_RETURN(
          last, RunExecPrepared(static_cast<ExecPreparedStmt*>(stmt), exec));
      break;
    }
    case Statement::Kind::kDeallocate: {
      auto* dealloc = static_cast<DeallocateStmt*>(stmt);
      auto it = prepared_.find(ToLower(dealloc->name));
      if (it == prepared_.end()) {
        return Status::NotFound("prepared statement '" + dealloc->name +
                                "' does not exist");
      }
      prepared_.erase(it);
      last = ExecResult{};
      last.message = "deallocate " + dealloc->name;
      break;
    }
    case Statement::Kind::kExplain: {
      // Plain explain plans the wrapped retrieve without executing it;
      // `explain analyze` runs it and annotates each node with its runtime
      // stats and wall time.  Either way the tree comes back as rows, one
      // line per node, and the query's own result rows are discarded.
      auto* explain = static_cast<ExplainStmt*>(stmt);
      TDB_ASSIGN_OR_RETURN(BoundStatement bound,
                           binder.BindRetrieve(explain->query.get()));
      std::shared_ptr<PhysicalPlan> plan;
      if (explain->analyze) {
        QueryExecutor qexec(exec);
        TDB_ASSIGN_OR_RETURN(ExecResult run,
                             qexec.Retrieve(explain->query.get(), bound));
        plan = std::const_pointer_cast<PhysicalPlan>(run.plan);
      } else {
        TDB_ASSIGN_OR_RETURN(plan, BuildPlan(*explain->query, bound, exec));
      }
      last = ExecResult{};
      last.result.columns.push_back("query plan");
      const std::string tree = explain->analyze
                                   ? plan->Describe(/*with_stats=*/true,
                                                    /*with_timing=*/true)
                                   : plan->Describe();
      for (const std::string& line : Split(tree, '\n')) {
        if (line.empty()) continue;
        Row row;
        row.push_back(Value::Char(line));
        last.result.rows.push_back(std::move(row));
      }
      last.message = "plan: " + plan->Summary();
      last.plan = std::move(plan);
      break;
    }
  }
  return last;
}

const Statement* Session::EffectiveStatement(const Statement* stmt) const {
  if (stmt->kind != Statement::Kind::kExecPrepared) return stmt;
  auto* ex = static_cast<const ExecPreparedStmt*>(stmt);
  auto it = prepared_.find(ToLower(ex->name));
  return it == prepared_.end() ? stmt : it->second.stmt.get();
}

Result<ExecResult> Session::RunPrepare(PrepareStmt* prep, ExecEnv& exec) {
  (void)exec;
  const std::string key = ToLower(prep->name);
  // Validate everything before touching any session state: a failed
  // prepare must leave no prepared entry, range binding, or scratch tag
  // behind (early returns below are all side-effect free).
  if (prepared_.count(key) != 0) {
    return Status::Invalid("prepared statement '" + prep->name +
                           "' already exists (deallocate it first)");
  }
  Statement* inner = prep->inner.get();
  switch (inner->kind) {
    case Statement::Kind::kRetrieve:
    case Statement::Kind::kAppend:
    case Statement::Kind::kDelete:
    case Statement::Kind::kReplace:
      break;
    default:
      return Status::Invalid(
          "only retrieve, append, delete, and replace statements can be "
          "prepared");
  }
  // Bind against the live catalog so unknown relations/attributes fail at
  // prepare time.  The annotations this writes into the AST are refreshed
  // again at every execute, so drift between now and then is harmless.
  Binder binder(&db_->catalog_, &ranges_);
  switch (inner->kind) {
    case Statement::Kind::kRetrieve:
      TDB_RETURN_NOT_OK(
          binder.BindRetrieve(static_cast<RetrieveStmt*>(inner)).status());
      break;
    case Statement::Kind::kAppend:
      TDB_RETURN_NOT_OK(
          binder.BindAppend(static_cast<AppendStmt*>(inner)).status());
      break;
    case Statement::Kind::kDelete:
      TDB_RETURN_NOT_OK(
          binder.BindDelete(static_cast<DeleteStmt*>(inner)).status());
      break;
    default:
      TDB_RETURN_NOT_OK(
          binder.BindReplace(static_cast<ReplaceStmt*>(inner)).status());
      break;
  }

  PreparedEntry entry;
  entry.text = PrintStatement(*inner);
  entry.param_count = MaxParamIndex(inner);
  entry.stmt = std::move(prep->inner);
  const int params = entry.param_count;
  prepared_[key] = std::move(entry);

  ExecResult r;
  r.message = StrPrintf("prepare %s (%d parameter%s)", prep->name.c_str(),
                        params, params == 1 ? "" : "s");
  return r;
}

Result<ExecResult> Session::RunExecPrepared(ExecPreparedStmt* ex,
                                            ExecEnv& exec) {
  auto it = prepared_.find(ToLower(ex->name));
  if (it == prepared_.end()) {
    return Status::NotFound("prepared statement '" + ex->name +
                            "' does not exist");
  }
  PreparedEntry& entry = it->second;

  std::vector<Value> args;
  if (ex->use_bound_args) {
    args = ex->bound_args;  // wire path: values arrive already decoded
  } else {
    Evaluator eval(exec.now);
    Binding no_row;
    for (const auto& arg : ex->args) {
      if (!IsConstExpr(arg.get())) {
        return Status::Invalid(
            "execute arguments must be constant expressions");
      }
      TDB_ASSIGN_OR_RETURN(Value v, eval.Eval(*arg, no_row));
      args.push_back(std::move(v));
    }
  }
  if (static_cast<int>(args.size()) != entry.param_count) {
    return Status::Invalid(StrPrintf(
        "prepared statement '%s' takes %d argument(s), got %zu",
        ex->name.c_str(), entry.param_count, args.size()));
  }

  // The `$N` evaluator reads the arguments through exec.params; the
  // executors capture the pointer at construction, inside RunStatement.
  exec.params = &args;
  prepared_text_hint_ = &entry.text;
  Result<ExecResult> result = RunStatement(entry.stmt.get(), exec);
  prepared_text_hint_ = nullptr;
  exec.params = nullptr;  // args dies with this frame
  return result;
}

Result<ExecResult> Session::RunRetrieve(RetrieveStmt* stmt,
                                        const BoundStatement& bound,
                                        ExecEnv& exec) {
  if (db_->plan_cache_enabled() && PlanCacheable(*stmt)) {
    Result<ExecResult> cached = RetrieveViaPlanCache(stmt, bound, exec);
    if (cached.ok()) return cached;
    // Any cache-path failure falls through to plan-and-execute: a genuine
    // query error reproduces below; a cache-only artifact (say, an index
    // dropped between keying and cloning) vanishes.
  }
  QueryExecutor qexec(exec);
  return qexec.Retrieve(stmt, bound);
}

std::string Session::PlanCacheKeyFor(const RetrieveStmt& stmt,
                                     const BoundStatement& bound,
                                     const ExecEnv& exec) {
  std::string key = db_->dir_;
  key += '\x1f';
  // A prepared execution already owns the statement's canonical text;
  // everything else prints it fresh (the printer is deterministic, so the
  // two spellings of the same statement produce the same key).
  key += prepared_text_hint_ != nullptr ? *prepared_text_hint_
                                        : PrintStatement(stmt);
  std::set<std::string> rels;
  for (const BoundVar& v : bound.vars) rels.insert(ToLower(v.rel->name));
  {
    std::lock_guard<std::mutex> lock(db_->version_mu_);
    for (const std::string& rel : rels) {
      auto it = db_->rel_versions_.find(rel);
      key += '\x1f';
      key += rel;
      key += '=';
      key += std::to_string(it == db_->rel_versions_.end() ? 0 : it->second);
    }
    key += '\x1f';
    key += "g=";
    key += std::to_string(db_->catalog_gen_);
  }
  key += StrPrintf("\x1f" "k=%d%d%d", static_cast<int>(exec.join_method),
                   exec.vector_exec ? 1 : 0, exec.compiled_expr ? 1 : 0);
  return key;
}

Result<std::shared_ptr<const CachedPlan>> Session::BuildCacheEntry(
    const RetrieveStmt& stmt, ExecEnv& exec) {
  // Print -> re-parse so the entry owns a self-contained AST the plan's
  // expression pointers can alias for as long as the entry lives.
  const std::string text = PrintStatement(stmt);
  TDB_ASSIGN_OR_RETURN(auto stmts, Parser::ParseScript(text));
  if (stmts.size() != 1 ||
      stmts[0]->kind != Statement::Kind::kRetrieve) {
    return Status::Internal("canonical statement text did not round-trip: " +
                            text);
  }
  auto owned = std::unique_ptr<RetrieveStmt>(
      static_cast<RetrieveStmt*>(stmts[0].release()));
  Binder binder(&db_->catalog_, &ranges_);
  TDB_ASSIGN_OR_RETURN(BoundStatement bound, binder.BindRetrieve(owned.get()));
  TDB_ASSIGN_OR_RETURN(std::shared_ptr<PhysicalPlan> tmpl,
                       BuildPlan(*owned, bound, exec));
  auto entry = std::make_shared<CachedPlan>();
  for (const BoundVar& v : bound.vars) {
    entry->vars.emplace_back(v.name, v.rel->name);
  }
  entry->stmt = std::move(owned);
  entry->plan = std::move(tmpl);
  return std::shared_ptr<const CachedPlan>(std::move(entry));
}

Result<ExecResult> Session::ExecuteCachedPlan(const CachedPlan& entry,
                                              ExecEnv& exec) {
  // Rebuild the BoundStatement from names: the RelationMeta pointers a
  // bound statement holds dangle whenever the catalog reloads, so the
  // cache never stores them.
  BoundStatement bound;
  for (const auto& [var, rel] : entry.vars) {
    const RelationMeta* meta = db_->catalog_.Find(rel);
    if (meta == nullptr) {
      return Status::NotFound("cached plan references dropped relation '" +
                              rel + "'");
    }
    bound.vars.push_back(BoundVar{var, meta});
  }
  TDB_ASSIGN_OR_RETURN(std::shared_ptr<PhysicalPlan> plan,
                       ClonePlanForExec(*entry.plan, exec));
  QueryExecutor qexec(exec);
  return qexec.Retrieve(entry.stmt.get(), bound, std::move(plan));
}

Result<ExecResult> Session::RetrieveViaPlanCache(RetrieveStmt* stmt,
                                                 const BoundStatement& bound,
                                                 ExecEnv& exec) {
  const std::string key = PlanCacheKeyFor(*stmt, bound, exec);
  PlanCache& cache = GlobalPlanCache();
  obs::MetricsRegistry* m = db_->metrics();
  if (std::shared_ptr<const CachedPlan> entry = cache.Lookup(key)) {
    Result<ExecResult> hit = ExecuteCachedPlan(*entry, exec);
    if (hit.ok()) {
      if (m != nullptr) m->counter("plancache.hits")->Increment();
      return hit;
    }
    // Stale in a way the key missed (should not happen; be safe): rebuild.
  }
  if (m != nullptr) m->counter("plancache.misses")->Increment();
  TDB_ASSIGN_OR_RETURN(std::shared_ptr<const CachedPlan> entry,
                       BuildCacheEntry(*stmt, exec));
  cache.Insert(key, entry);
  return ExecuteCachedPlan(*entry, exec);
}

Result<ExecResult> Session::Prepare(const std::string& name,
                                    const std::string& text) {
  TDB_ASSIGN_OR_RETURN(auto stmts, Parser::ParseScript(text));
  if (stmts.size() != 1) {
    return Status::Invalid("prepare expects exactly one statement");
  }
  PrepareStmt prep;
  prep.name = name;
  prep.inner = std::move(stmts[0]);
  return ExecuteOne(&prep);
}

Result<ExecResult> Session::ExecutePrepared(const std::string& name,
                                            std::vector<Value> args) {
  ExecPreparedStmt ex;
  ex.name = name;
  ex.bound_args = std::move(args);
  ex.use_bound_args = true;
  return ExecuteOne(&ex);
}

Result<ExecResult> Session::DeallocatePrepared(const std::string& name) {
  DeallocateStmt dealloc;
  dealloc.name = name;
  return ExecuteOne(&dealloc);
}

void Session::InvalidateStaleHandles() {
  std::lock_guard<std::mutex> lock(db_->version_mu_);
  if (seen_catalog_gen_ != db_->catalog_gen_) {
    // DDL elsewhere: relation files may have been rebuilt or deleted.
    // Handles are only cached between statements, so dropping them all is
    // cheap and always safe (a reader's frames are clean by definition).
    for (auto& [_, rel] : relations_) rel->DiscardBuffers();
    relations_.clear();
    seen_versions_.clear();
    seen_catalog_gen_ = db_->catalog_gen_;
  }
  for (auto it = relations_.begin(); it != relations_.end();) {
    auto vit = db_->rel_versions_.find(it->first);
    const uint64_t current =
        vit == db_->rel_versions_.end() ? 0 : vit->second;
    auto sit = seen_versions_.find(it->first);
    const uint64_t seen = sit == seen_versions_.end() ? 0 : sit->second;
    if (seen != current) {
      it->second->DiscardBuffers();
      it = relations_.erase(it);
    } else {
      ++it;
    }
  }
  // Record what this statement will observe.  Its locks are already held,
  // so these versions cannot move until the statement is over.
  for (const auto& [name, version] : db_->rel_versions_) {
    seen_versions_[name] = version;
  }
}

Result<ExecResult> Session::ExecuteStatement(Statement* stmt) {
  // An `execute` takes the locks of its stored inner statement.
  LockPlan lp = ClassifyStatement(EffectiveStatement(stmt), ranges_);
  Journal* journal = db_->journal_.get();
  Result<ExecResult> result = ExecResult{};
  uint64_t ticket = 0;
  bool wait_durable = false;
  {
    StatementLocks locks(&db_->lock_table_, lp.ddl, lp.rels);
    InvalidateStaleHandles();

    // The MVCC pin: read statements freeze logical time at statement start
    // (or at the session's explicit as-of), so whatever writers commit
    // meanwhile stays invisible — their transaction stamps are later than
    // the pin.  Writers draw a fresh stamp, advancing the shared clock.
    const TimePoint stmt_now =
        lp.data_mutating ? db_->AcquireTxTime()
                         : options_.as_of.value_or(db_->now());
    ExecEnv exec = MakeExecEnv(stmt_now);

    // One journal, one writer batch at a time: Begin..CommitGroup runs
    // under the journal's writer lock.  The commit-mark fsync happens after
    // the statement's locks drop, where overlapping writers share it (group
    // commit).
    const bool journaled = lp.writes && journal != nullptr;
    std::optional<Journal::WriterLock> batch;
    if (journaled) {
      batch.emplace(journal);
      TDB_RETURN_NOT_OK(journal->Begin());
    }
    result = RunStatement(stmt, exec);
    if (result.ok() && lp.data_mutating) db_->PersistClock();
    if (result.ok() && lp.writes) {
      Status commit = [&]() -> Status {
        // Write back dirty frames before the exclusive lock drops, so other
        // sessions' reopened handles see this statement's pages.
        for (auto& [_, rel] : relations_) {
          TDB_RETURN_NOT_OK(rel->FlushBuffers());
        }
        if (!journaled) return Status::OK();
        if (journal->mode() == DurabilityMode::kJournalSync) {
          // Data must be durable before the commit mark exists: a durable
          // mark asserts exactly that (see Journal group-commit contract).
          for (auto& [_, rel] : relations_) {
            TDB_RETURN_NOT_OK(rel->SyncFiles());
          }
        }
        TDB_ASSIGN_OR_RETURN(ticket, journal->CommitGroup());
        wait_durable = journal->mode() == DurabilityMode::kJournalSync;
        return Status::OK();
      }();
      if (!commit.ok()) result = commit;
    }
    if (!result.ok() && journaled) {
      for (auto& [_, rel] : relations_) rel->DiscardBuffers();
      relations_.clear();
      TDB_RETURN_NOT_OK(journal->Rollback());
      if (lp.ddl == StatementLocks::DdlMode::kExclusive) {
        // Only DDL rewrites catalog.meta; reloading it under the shared
        // latch would race other sessions' catalog reads.
        TDB_RETURN_NOT_OK(db_->catalog_.Load());
      }
    }
    batch.reset();

    if (result.ok() && lp.writes) {
      // Publish: bump the versions of everything written (still under this
      // statement's exclusive locks) so other sessions drop stale handles.
      std::lock_guard<std::mutex> vlock(db_->version_mu_);
      for (const auto& [name, exclusive] : lp.rels) {
        if (!exclusive) continue;
        const std::string key = ToLower(name);
        seen_versions_[key] = ++db_->rel_versions_[key];
      }
      if (lp.ddl == StatementLocks::DdlMode::kExclusive) {
        seen_catalog_gen_ = ++db_->catalog_gen_;
      }
    }
  }  // locks released

  // Early lock release: the statement's effects are committed in memory
  // and published above, so the fsync wait happens without any locks held
  // and overlapping committers can batch into one sync (group commit).
  // Safe against crashes because every page overwrite is pre-imaged and
  // the pre-image is durable before the page changes: if this commit mark
  // is lost, recovery rolls this statement (and anything after it) back.
  if (result.ok() && wait_durable) {
    TDB_RETURN_NOT_OK(journal->WaitDurable(ticket));
  }
  return result;
}

}  // namespace tdb
