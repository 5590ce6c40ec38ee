#ifndef CHRONOQUEL_EXEC_PLANNER_H_
#define CHRONOQUEL_EXEC_PLANNER_H_

#include <functional>
#include <memory>
#include <set>
#include <vector>

#include "core/relation.h"
#include "exec/exec_env.h"
#include "exec/plan.h"
#include "tquel/ast.h"
#include "tquel/binder.h"

namespace tdb {

/// One top-level AND factor of the where clause, with the set of tuple
/// variables it references.
struct Conjunct {
  const Expr* expr;
  std::set<int> vars;
};

/// One top-level AND factor of the when clause.
struct TemporalConjunct {
  const TemporalPred* pred;
  std::set<int> vars;
};

/// Splits a where expression on top-level ANDs.
void SplitWhere(const Expr* where, std::vector<Conjunct>* out);

/// Splits a when predicate on top-level ANDs.
void SplitWhen(const TemporalPred* when, std::vector<TemporalConjunct>* out);

void CollectExprVars(const Expr* expr, std::set<int>* out);
void CollectTemporalExprVars(const TemporalExpr* expr, std::set<int>* out);
void CollectTemporalPredVars(const TemporalPred* pred, std::set<int>* out);

/// The access path chosen for one variable at one nesting level.
struct AccessChoice {
  enum class Kind {
    kScan,     // sequential scan (data + overflow pages)
    kKeyed,    // hashed / ISAM access on the organization key
    kIndexEq,  // secondary index equality probe
    kRange,    // ISAM key-range scan
  };
  Kind kind = Kind::kScan;
  /// For kKeyed / kIndexEq: the expression producing the probe value; it
  /// references only variables in the `available` set given to ChooseAccess.
  const Expr* key_expr = nullptr;
  SecondaryIndex* index = nullptr;  // kIndexEq
  // kRange bounds (either may be null).
  const Expr* lo_expr = nullptr;
  const Expr* hi_expr = nullptr;
  bool lo_inclusive = true;
  bool hi_inclusive = true;
};

/// Picks the cheapest access path for variable `var` of relation `rel`
/// given the where conjuncts and the set of variables already bound by
/// outer loops.  Preference: organization key > secondary index > scan —
/// the same choices Ingres's one-variable query processor makes.
AccessChoice ChooseAccess(int var, Relation* rel,
                          const std::vector<Conjunct>& conjuncts,
                          const std::set<int>& available);

/// True when the statement's clauses restrict `var` to *current* versions:
/// a `when` conjunct of the shape `var overlap "now"` (interval relations),
/// or — for relations with transaction time but no valid time — an
/// effective rollback point of "now" (`as_of_is_now`).  Lets the two-level
/// store and 2-level indexes skip history data.
bool WantsCurrentOnly(int var, const Relation* rel,
                      const std::vector<TemporalConjunct>& when_conjuncts,
                      bool as_of_is_now);

/// Builds the complete physical plan for a bound retrieve statement: every
/// access-path and join-order decision is made here, before execution.  The
/// shape mirrors the Ingres decomposition the executor implements:
///   * no tuple variables left live after aggregate folding -> a constant
///     plan (ProjectNode without input) emitting exactly one row;
///   * one variable -> its chosen access path, wrapped in a FilterNode when
///     residual conjuncts remain;
///   * two variables with a keyed/indexed candidate -> SubstitutionNode
///     (detach the other variable to a temp, probe this one per temp row);
///   * otherwise -> left-deep NestedLoopNode with per-level access choice.
/// The rollback point (`as of`, defaulting to now) is evaluated here so the
/// plan and the executor agree on it.  The returned plan aliases
/// expressions owned by `stmt` — execute it while the statement is alive;
/// the pre-rendered node text stays printable afterwards.
Result<std::shared_ptr<PhysicalPlan>> BuildPlan(const RetrieveStmt& stmt,
                                                const BoundStatement& bound,
                                                const ExecEnv& env);

/// Deep-copies a cached plan template for one execution: fresh (zeroed)
/// node stats, relation and index handles re-resolved against `env`,
/// compiled programs copied (their operand stacks are per-object scratch,
/// so concurrent executions must never share them), and the rollback
/// point re-stamped to env.now — only statements without an explicit
/// `as of` clause are cacheable, for which as_of is always "now".
/// Expression pointers keep aliasing the cache entry's AST, which must
/// stay alive while the clone executes.
Result<std::shared_ptr<PhysicalPlan>> ClonePlanForExec(const PhysicalPlan& tmpl,
                                                       const ExecEnv& env);

/// Calls `fn` on every compiled program of the plan's nodes: probe keys,
/// range bounds, join keys, and filter and residual conjuncts.
void ForEachCompiledProgram(
    const PhysicalPlan& plan,
    const std::function<void(const CompiledProgram&)>& fn);

/// Binds one execution's `$N` arguments into every compiled program of a
/// plan the caller owns (a fresh BuildPlan, or a ClonePlanForExec copy —
/// never a shared template), so parameterized filters take the same
/// compiled and batch paths as literal ones.
void BindPlanParams(PhysicalPlan* plan, const std::vector<Value>& params);

}  // namespace tdb

#endif  // CHRONOQUEL_EXEC_PLANNER_H_
