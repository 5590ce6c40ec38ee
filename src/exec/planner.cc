#include "exec/planner.h"

#include <algorithm>

#include "exec/compiled_expr.h"
#include "exec/cost.h"
#include "exec/eval.h"
#include "obs/metrics.h"
#include "util/stringx.h"

namespace tdb {

void CollectExprVars(const Expr* expr, std::set<int>* out) {
  if (expr == nullptr) return;
  switch (expr->kind) {
    case Expr::Kind::kColumn:
      out->insert(expr->var_index);
      return;
    case Expr::Kind::kBinary:
      CollectExprVars(expr->left.get(), out);
      CollectExprVars(expr->right.get(), out);
      return;
    case Expr::Kind::kUnary:
      CollectExprVars(expr->left.get(), out);
      return;
    case Expr::Kind::kAggregate:
      CollectExprVars(expr->agg_arg.get(), out);
      CollectExprVars(expr->agg_by.get(), out);
      CollectExprVars(expr->agg_where.get(), out);
      return;
    default:
      return;
  }
}

void CollectTemporalExprVars(const TemporalExpr* expr, std::set<int>* out) {
  if (expr == nullptr) return;
  if (expr->kind == TemporalExpr::Kind::kVar) {
    out->insert(expr->var_index);
    return;
  }
  CollectTemporalExprVars(expr->left.get(), out);
  CollectTemporalExprVars(expr->right.get(), out);
}

void CollectTemporalPredVars(const TemporalPred* pred, std::set<int>* out) {
  if (pred == nullptr) return;
  CollectTemporalExprVars(pred->lexpr.get(), out);
  CollectTemporalExprVars(pred->rexpr.get(), out);
  CollectTemporalPredVars(pred->left.get(), out);
  CollectTemporalPredVars(pred->right.get(), out);
}

void SplitWhere(const Expr* where, std::vector<Conjunct>* out) {
  if (where == nullptr) return;
  if (where->kind == Expr::Kind::kBinary && where->op == ExprOp::kAnd) {
    SplitWhere(where->left.get(), out);
    SplitWhere(where->right.get(), out);
    return;
  }
  Conjunct c;
  c.expr = where;
  CollectExprVars(where, &c.vars);
  out->push_back(std::move(c));
}

void SplitWhen(const TemporalPred* when, std::vector<TemporalConjunct>* out) {
  if (when == nullptr) return;
  if (when->kind == TemporalPred::Kind::kAnd) {
    SplitWhen(when->left.get(), out);
    SplitWhen(when->right.get(), out);
    return;
  }
  TemporalConjunct c;
  c.pred = when;
  CollectTemporalPredVars(when, &c.vars);
  out->push_back(std::move(c));
}

namespace {

bool IsSubset(const std::set<int>& sub, const std::set<int>& super) {
  for (int v : sub) {
    if (super.count(v) == 0) return false;
  }
  return true;
}

/// If `conj` is `var.attr OP e` (either side, OP from `ops`) where e's
/// variables are all in `available`, returns the probe expression, the
/// attribute index, and the operator as seen with the column on the left.
const Expr* MatchCmpOnAttr(const Conjunct& conj, int var,
                           const std::set<int>& available,
                           std::initializer_list<ExprOp> ops, int* attr_index,
                           ExprOp* op_out) {
  const Expr* e = conj.expr;
  if (e->kind != Expr::Kind::kBinary) return nullptr;
  bool wanted = false;
  for (ExprOp op : ops) wanted = wanted || e->op == op;
  if (!wanted) return nullptr;
  for (int side = 0; side < 2; ++side) {
    const Expr* col = side == 0 ? e->left.get() : e->right.get();
    const Expr* other = side == 0 ? e->right.get() : e->left.get();
    if (col->kind != Expr::Kind::kColumn || col->var_index != var) continue;
    std::set<int> other_vars;
    CollectExprVars(other, &other_vars);
    if (other_vars.count(var) > 0) continue;
    if (!IsSubset(other_vars, available)) continue;
    *attr_index = col->attr_index;
    ExprOp op = e->op;
    if (side == 1) {  // mirror: `c < var.attr` is `var.attr > c`
      switch (e->op) {
        case ExprOp::kLt:
          op = ExprOp::kGt;
          break;
        case ExprOp::kLe:
          op = ExprOp::kGe;
          break;
        case ExprOp::kGt:
          op = ExprOp::kLt;
          break;
        case ExprOp::kGe:
          op = ExprOp::kLe;
          break;
        default:
          break;
      }
    }
    *op_out = op;
    return other;
  }
  return nullptr;
}

const Expr* MatchEqOnAttr(const Conjunct& conj, int var,
                          const std::set<int>& available, int* attr_index) {
  ExprOp op;
  return MatchCmpOnAttr(conj, var, available, {ExprOp::kEq}, attr_index, &op);
}

}  // namespace

AccessChoice ChooseAccess(int var, Relation* rel,
                          const std::vector<Conjunct>& conjuncts,
                          const std::set<int>& available) {
  AccessChoice choice;
  const Schema& schema = rel->schema();
  int key_idx = rel->meta().key_attr.empty()
                    ? -1
                    : schema.FindAttr(rel->meta().key_attr);
  const Expr* index_probe = nullptr;
  SecondaryIndex* index = nullptr;

  for (const Conjunct& conj : conjuncts) {
    if (conj.vars.count(var) == 0) continue;
    int attr_index = -1;
    const Expr* probe = MatchEqOnAttr(conj, var, available, &attr_index);
    if (probe == nullptr) continue;
    // The organization key wins outright.
    if (attr_index == key_idx && rel->primary()->org() != Organization::kHeap) {
      choice.kind = AccessChoice::Kind::kKeyed;
      choice.key_expr = probe;
      return choice;
    }
    if (index == nullptr) {
      SecondaryIndex* idx =
          rel->FindIndex(schema.attr(static_cast<size_t>(attr_index)).name);
      if (idx != nullptr) {
        index = idx;
        index_probe = probe;
      }
    }
  }
  if (index != nullptr) {
    choice.kind = AccessChoice::Kind::kIndexEq;
    choice.key_expr = index_probe;
    choice.index = index;
    return choice;
  }
  // Order-preserving organizations (ISAM, B-tree) also support key-range
  // access for inequality predicates on the key.
  if (key_idx >= 0 && (rel->primary()->org() == Organization::kIsam ||
                       rel->primary()->org() == Organization::kBtree)) {
    for (const Conjunct& conj : conjuncts) {
      if (conj.vars.count(var) == 0) continue;
      int attr_index = -1;
      ExprOp op;
      const Expr* bound = MatchCmpOnAttr(
          conj, var, available,
          {ExprOp::kLt, ExprOp::kLe, ExprOp::kGt, ExprOp::kGe}, &attr_index,
          &op);
      if (bound == nullptr || attr_index != key_idx) continue;
      if (op == ExprOp::kGt || op == ExprOp::kGe) {
        if (choice.lo_expr == nullptr) {
          choice.lo_expr = bound;
          choice.lo_inclusive = op == ExprOp::kGe;
        }
      } else {
        if (choice.hi_expr == nullptr) {
          choice.hi_expr = bound;
          choice.hi_inclusive = op == ExprOp::kLe;
        }
      }
    }
    if (choice.lo_expr != nullptr || choice.hi_expr != nullptr) {
      choice.kind = AccessChoice::Kind::kRange;
    }
  }
  return choice;
}

namespace {

bool IsNowExpr(const TemporalExpr* e) {
  return e != nullptr && e->kind == TemporalExpr::Kind::kNow;
}

bool IsVarExpr(const TemporalExpr* e, int var) {
  return e != nullptr && e->kind == TemporalExpr::Kind::kVar &&
         e->var_index == var;
}

/// Matches `var overlap "now"` in either operand order, in both the bare
/// (kNonEmpty over an overlap expression) and explicit kOverlap forms.
bool IsVarOverlapNow(const TemporalPred* pred, int var) {
  const TemporalExpr* a = nullptr;
  const TemporalExpr* b = nullptr;
  if (pred->kind == TemporalPred::Kind::kOverlap) {
    a = pred->lexpr.get();
    b = pred->rexpr.get();
  } else if (pred->kind == TemporalPred::Kind::kNonEmpty &&
             pred->lexpr->kind == TemporalExpr::Kind::kOverlap) {
    a = pred->lexpr->left.get();
    b = pred->lexpr->right.get();
  } else {
    return false;
  }
  return (IsVarExpr(a, var) && IsNowExpr(b)) ||
         (IsVarExpr(b, var) && IsNowExpr(a));
}

}  // namespace

bool WantsCurrentOnly(int var, const Relation* rel,
                      const std::vector<TemporalConjunct>& when_conjuncts,
                      bool as_of_is_now) {
  const Schema& schema = rel->schema();
  DbType type = schema.db_type();
  if (HasValidTime(type) && schema.entity_kind() == EntityKind::kInterval) {
    for (const TemporalConjunct& c : when_conjuncts) {
      if (IsVarOverlapNow(c.pred, var)) return true;
    }
    return false;
  }
  // Rollback relations (transaction time only): rolling back to "now"
  // selects the versions whose transaction interval is still open.
  return HasTransactionTime(type) && as_of_is_now;
}

namespace {

/// Variables still referenced once aggregates fold: a plain (ungrouped)
/// aggregate becomes a constant before iteration starts, so it keeps none
/// of its variables live; a `by` aggregate keeps its node (group lookup per
/// output row) and therefore all of them.
void CollectPostFoldVars(const Expr* expr, std::set<int>* out) {
  if (expr == nullptr) return;
  switch (expr->kind) {
    case Expr::Kind::kColumn:
      out->insert(expr->var_index);
      return;
    case Expr::Kind::kBinary:
      CollectPostFoldVars(expr->left.get(), out);
      CollectPostFoldVars(expr->right.get(), out);
      return;
    case Expr::Kind::kUnary:
      CollectPostFoldVars(expr->left.get(), out);
      return;
    case Expr::Kind::kAggregate:
      if (expr->agg_by != nullptr) {
        CollectExprVars(expr->agg_arg.get(), out);
        CollectExprVars(expr->agg_by.get(), out);
        CollectExprVars(expr->agg_where.get(), out);
      }
      return;
    default:
      return;
  }
}

/// Converts an AccessChoice into the corresponding plan leaf, rendering the
/// probe/bound expressions for display and, when `compiled`, lowering them
/// to programs.
std::unique_ptr<AccessNode> NodeForChoice(const AccessChoice& choice, int var,
                                          const std::string& var_name,
                                          Relation* rel, bool current_only,
                                          bool compiled) {
  std::unique_ptr<AccessNode> node;
  switch (choice.kind) {
    case AccessChoice::Kind::kScan:
      node = std::make_unique<SeqScanNode>();
      break;
    case AccessChoice::Kind::kKeyed: {
      auto keyed = std::make_unique<KeyedLookupNode>();
      keyed->key_expr = choice.key_expr;
      keyed->key_text = choice.key_expr->ToString();
      if (compiled) {
        keyed->key_prog = CompiledProgram::CompileExpr(*choice.key_expr);
      }
      node = std::move(keyed);
      break;
    }
    case AccessChoice::Kind::kIndexEq: {
      auto ix = std::make_unique<IndexEqNode>();
      ix->key_expr = choice.key_expr;
      ix->key_text = choice.key_expr->ToString();
      if (compiled) {
        ix->key_prog = CompiledProgram::CompileExpr(*choice.key_expr);
      }
      ix->index = choice.index;
      ix->index_attr = choice.index->meta().attr;
      node = std::move(ix);
      break;
    }
    case AccessChoice::Kind::kRange: {
      auto range = std::make_unique<RangeScanNode>();
      range->lo_expr = choice.lo_expr;
      range->hi_expr = choice.hi_expr;
      range->lo_inclusive = choice.lo_inclusive;
      range->hi_inclusive = choice.hi_inclusive;
      if (choice.lo_expr != nullptr) range->lo_text = choice.lo_expr->ToString();
      if (choice.hi_expr != nullptr) range->hi_text = choice.hi_expr->ToString();
      if (compiled) {
        if (choice.lo_expr != nullptr) {
          range->lo_prog = CompiledProgram::CompileExpr(*choice.lo_expr);
        }
        if (choice.hi_expr != nullptr) {
          range->hi_prog = CompiledProgram::CompileExpr(*choice.hi_expr);
        }
      }
      node = std::move(range);
      break;
    }
  }
  node->var = var;
  node->var_name = var_name;
  node->rel_name = rel->meta().name;
  node->rel = rel;
  node->current_only = current_only;
  return node;
}

/// The residual conjuncts one nesting level applies.
struct LevelConjuncts {
  std::vector<const Conjunct*> where;
  std::vector<const TemporalConjunct*> when;
};

/// Assigns each top-level conjunct to the first level (in binding order)
/// at which all its variables are bound.  Variable-free conjuncts go to the
/// outermost level — evaluating them once is equivalent to the historical
/// executor's re-evaluation at every level.
std::vector<LevelConjuncts> AssignConjuncts(
    const std::vector<int>& order, const std::vector<Conjunct>& where,
    const std::vector<TemporalConjunct>& when) {
  std::vector<LevelConjuncts> out(order.size());
  std::set<int> bound;
  for (size_t level = 0; level < order.size(); ++level) {
    bound.insert(order[level]);
    for (const Conjunct& c : where) {
      if (c.vars.empty()) {
        if (level == 0) out[0].where.push_back(&c);
        continue;
      }
      if (c.vars.count(order[level]) == 0) continue;  // not newly covered
      if (!IsSubset(c.vars, bound)) continue;
      out[level].where.push_back(&c);
    }
    for (const TemporalConjunct& c : when) {
      if (c.vars.empty()) {
        if (level == 0) out[0].when.push_back(&c);
        continue;
      }
      if (c.vars.count(order[level]) == 0) continue;
      if (!IsSubset(c.vars, bound)) continue;
      out[level].when.push_back(&c);
    }
  }
  return out;
}

/// Populates `filter` with the given conjuncts: ASTs, rendered text, and —
/// all-or-nothing — compiled programs when `compiled`.
void FillFilterNode(FilterNode* filter, const LevelConjuncts& residual,
                    bool compiled) {
  for (const Conjunct* c : residual.where) {
    filter->where.push_back(c->expr);
    filter->pred_text.push_back(c->expr->ToString());
  }
  for (const TemporalConjunct* c : residual.when) {
    filter->when.push_back(c->pred);
    filter->pred_text.push_back("when " + c->pred->ToString());
  }
  if (compiled) {
    // All-or-nothing: the executor takes the compiled path only when every
    // conjunct of the level lowered (aggregates in `where` are rejected by
    // the binder, so in practice this always succeeds).
    bool all = true;
    for (const Expr* e : filter->where) {
      auto prog = CompiledProgram::CompileExpr(*e);
      if (!prog.has_value()) {
        all = false;
        break;
      }
      filter->where_prog.push_back(std::move(*prog));
    }
    if (all) {
      for (const TemporalPred* p : filter->when) {
        filter->when_prog.push_back(CompiledProgram::CompilePred(*p));
      }
    } else {
      filter->where_prog.clear();
    }
  }
}

/// Wraps an access leaf in a FilterNode when its level has residual
/// conjuncts to apply.
std::unique_ptr<PlanNode> WrapLevel(std::unique_ptr<AccessNode> access,
                                    const LevelConjuncts& residual,
                                    bool compiled) {
  if (residual.where.empty() && residual.when.empty()) return access;
  auto filter = std::make_unique<FilterNode>();
  FillFilterNode(filter.get(), residual, compiled);
  filter->child = std::move(access);
  return filter;
}

/// If `conj` is an equality linking exactly variables `a` and `b` — one
/// operand referencing only `a`, the other only `b` — returns true and
/// outputs the two operand expressions by variable.
bool MatchCrossEq(const Conjunct& conj, int a, int b, const Expr** a_side,
                  const Expr** b_side) {
  const Expr* e = conj.expr;
  if (e->kind != Expr::Kind::kBinary || e->op != ExprOp::kEq) return false;
  std::set<int> lv;
  std::set<int> rv;
  CollectExprVars(e->left.get(), &lv);
  CollectExprVars(e->right.get(), &rv);
  if (lv == std::set<int>{a} && rv == std::set<int>{b}) {
    *a_side = e->left.get();
    *b_side = e->right.get();
    return true;
  }
  if (lv == std::set<int>{b} && rv == std::set<int>{a}) {
    *a_side = e->right.get();
    *b_side = e->left.get();
    return true;
  }
  return false;
}

/// If `conj` is `x overlap y` over two bare variables (explicit kOverlap or
/// the bare kNonEmpty form), returns true and outputs the variable pair.
bool MatchCrossOverlap(const TemporalConjunct& conj, int* x, int* y) {
  const TemporalExpr* a = nullptr;
  const TemporalExpr* b = nullptr;
  const TemporalPred* pred = conj.pred;
  if (pred->kind == TemporalPred::Kind::kOverlap) {
    a = pred->lexpr.get();
    b = pred->rexpr.get();
  } else if (pred->kind == TemporalPred::Kind::kNonEmpty &&
             pred->lexpr->kind == TemporalExpr::Kind::kOverlap) {
    a = pred->lexpr->left.get();
    b = pred->lexpr->right.get();
  } else {
    return false;
  }
  if (a == nullptr || b == nullptr) return false;
  if (a->kind != TemporalExpr::Kind::kVar ||
      b->kind != TemporalExpr::Kind::kVar) {
    return false;
  }
  if (a->var_index == b->var_index) return false;
  *x = a->var_index;
  *y = b->var_index;
  return true;
}

}  // namespace

Result<std::shared_ptr<PhysicalPlan>> BuildPlan(const RetrieveStmt& stmt,
                                                const BoundStatement& bound,
                                                const ExecEnv& env) {
  if (env.registry != nullptr && env.registry->metrics() != nullptr) {
    env.registry->metrics()->counter("plan.builds")->Increment();
  }
  auto plan = std::make_shared<PhysicalPlan>();
  Evaluator eval(env.now);

  std::vector<Relation*> rels;
  for (const BoundVar& bv : bound.vars) {
    TDB_ASSIGN_OR_RETURN(Relation * rel, env.GetRelation(bv.rel->name));
    rels.push_back(rel);
  }

  std::vector<Conjunct> where_conjuncts;
  std::vector<TemporalConjunct> when_conjuncts;
  SplitWhere(stmt.where.get(), &where_conjuncts);
  SplitWhen(stmt.when.get(), &when_conjuncts);

  // TQuel semantics: without an explicit `as of`, relations with
  // transaction time are viewed as of *now*.  The rollback point is a
  // constant of the statement, so it is evaluated at plan time.
  plan->as_of_at = env.now;
  std::string as_of_text;
  if (stmt.as_of.has_value()) {
    Binding empty;
    TDB_ASSIGN_OR_RETURN(Interval at, eval.EvalTemporal(*stmt.as_of->at, empty));
    plan->as_of_at = at.from;
    as_of_text = stmt.as_of->at->ToString();
    if (stmt.as_of->through != nullptr) {
      plan->has_through = true;
      TDB_ASSIGN_OR_RETURN(Interval through,
                           eval.EvalTemporal(*stmt.as_of->through, empty));
      plan->as_of_through = through.from;
      as_of_text += " through " + stmt.as_of->through->ToString();
    }
  }
  bool as_of_is_now = !plan->has_through && plan->as_of_at == env.now;

  std::vector<bool> current_only(rels.size(), false);
  for (size_t i = 0; i < rels.size(); ++i) {
    current_only[i] = WantsCurrentOnly(static_cast<int>(i), rels[i],
                                       when_conjuncts, as_of_is_now);
  }

  // Variables that stay live once plain aggregates fold to constants; a
  // query with none (e.g. `retrieve (n = count(p.id))`) emits one row.
  std::set<int> live;
  for (const TargetItem& t : stmt.targets) {
    CollectPostFoldVars(t.expr.get(), &live);
  }
  CollectExprVars(stmt.where.get(), &live);
  CollectTemporalPredVars(stmt.when.get(), &live);
  if (stmt.valid.has_value()) {
    CollectTemporalExprVars(stmt.valid->from.get(), &live);
    CollectTemporalExprVars(stmt.valid->to.get(), &live);
  }

  // Does the result carry a valid interval?
  bool valid_output = stmt.valid.has_value();
  if (!valid_output && !rels.empty()) {
    valid_output = true;
    for (Relation* rel : rels) {
      if (!HasValidTime(rel->schema().db_type())) valid_output = false;
    }
  }

  auto root = std::make_unique<ProjectNode>();
  root->unique = stmt.unique;
  root->into = stmt.into;
  root->valid_output = valid_output;
  root->as_of_text = as_of_text;
  for (const TargetItem& t : stmt.targets) {
    // The binder derives a name for bare column targets; showing it would
    // just repeat the attribute ("id = h.id"), so keep implicit names out.
    bool implicit = t.name.empty() || (t.expr->kind == Expr::Kind::kColumn &&
                                       t.name == t.expr->attr);
    root->target_text.push_back(
        implicit ? t.expr->ToString() : t.name + " = " + t.expr->ToString());
  }
  {
    std::vector<std::string> keys;
    for (const SortKey& key : stmt.sort_by) {
      keys.push_back(key.target + (key.descending ? " desc" : ""));
    }
    root->sort_text = Join(keys, ", ");
  }

  auto access_for = [&](int var, const std::set<int>& available) {
    AccessChoice choice = ChooseAccess(var, rels[static_cast<size_t>(var)],
                                       where_conjuncts, available);
    return NodeForChoice(choice, var, bound.vars[static_cast<size_t>(var)].name,
                         rels[static_cast<size_t>(var)],
                         current_only[static_cast<size_t>(var)],
                         env.compiled_expr);
  };
  auto nested_plan = [&](const std::vector<int>& order) {
    std::vector<LevelConjuncts> residual =
        AssignConjuncts(order, where_conjuncts, when_conjuncts);
    auto nested = std::make_unique<NestedLoopNode>();
    std::set<int> outer;
    for (size_t level = 0; level < order.size(); ++level) {
      nested->levels.push_back(
          WrapLevel(access_for(order[level], outer), residual[level],
                    env.compiled_expr));
      outer.insert(order[level]);
    }
    return nested;
  };
  auto identity_order = [&]() {
    std::vector<int> order;
    for (size_t i = 0; i < rels.size(); ++i) order.push_back(static_cast<int>(i));
    return order;
  };

  // The historical multi-variable plan: tuple substitution into a keyed
  // inner variable when one exists (the Ingres decomposition the paper's
  // two-variable queries measure), left-deep nested loops otherwise.
  auto paper_join = [&]() -> std::unique_ptr<PlanNode> {
    if (rels.size() == 2) {
      int inner = -1;
      AccessChoice inner_choice;
      for (int cand = 0; cand < 2; ++cand) {
        std::set<int> avail = {1 - cand};
        AccessChoice c = ChooseAccess(cand, rels[static_cast<size_t>(cand)],
                                      where_conjuncts, avail);
        if (c.kind == AccessChoice::Kind::kKeyed ||
            (c.kind == AccessChoice::Kind::kIndexEq && inner < 0)) {
          inner = cand;
          inner_choice = c;
          if (c.kind == AccessChoice::Kind::kKeyed) break;
        }
      }
      if (inner >= 0) {
        int outer = 1 - inner;
        std::vector<LevelConjuncts> residual =
            AssignConjuncts({outer, inner}, where_conjuncts, when_conjuncts);
        auto sub = std::make_unique<SubstitutionNode>();
        sub->outer = WrapLevel(access_for(outer, {}), residual[0],
                               env.compiled_expr);
        sub->inner = WrapLevel(
            NodeForChoice(inner_choice, inner,
                          bound.vars[static_cast<size_t>(inner)].name,
                          rels[static_cast<size_t>(inner)],
                          current_only[static_cast<size_t>(inner)],
                          env.compiled_expr),
            residual[1], env.compiled_expr);
        return sub;
      }
    }
    return nested_plan(identity_order());
  };

  // Cost-based join planning (join_method != kPaper): estimate modeled
  // disk time from catalog stats for every candidate method/order and pick
  // (or force) one.  See DESIGN.md §11 for the formulas.
  auto cost_join = [&]() -> Result<std::unique_ptr<PlanNode>> {
    std::vector<const RelationStats*> st(rels.size());
    for (size_t i = 0; i < rels.size(); ++i) {
      TDB_ASSIGN_OR_RETURN(st[i], GetOrComputeStats(env.catalog, rels[i]));
    }
    CostModel cm;

    auto pages_of = [&](int v) -> uint64_t {
      const RelationStats& s = *st[static_cast<size_t>(v)];
      uint64_t pages =
          s.primary_pages +
          (current_only[static_cast<size_t>(v)] ? 0 : s.history_pages);
      return pages == 0 ? 1 : pages;
    };
    // Input cardinality after this variable's single-variable restrictions.
    auto est_input = [&](int v) {
      const RelationStats& s = *st[static_cast<size_t>(v)];
      double sel = 1.0;
      std::set<int> self{v};
      for (const Conjunct& c : where_conjuncts) {
        if (c.vars != self) continue;
        int attr_index = -1;
        if (MatchEqOnAttr(c, v, {}, &attr_index) != nullptr) {
          sel *= EstimateEqSelectivity(
              s, rels[static_cast<size_t>(v)]->schema().attr(
                     static_cast<size_t>(attr_index)).name);
        } else {
          sel *= DefaultSelectivity();
        }
      }
      return static_cast<double>(s.rows) * sel;
    };
    std::vector<double> est_in(rels.size());
    for (size_t i = 0; i < rels.size(); ++i) {
      est_in[i] = est_input(static_cast<int>(i));
    }

    if (rels.size() > 2) {
      // Beyond two variables only the join *order* is optimized: levels run
      // smallest estimated input first, so inner reopen counts shrink.
      // Forced hash/merge fall back to the paper plan (they are two-way
      // operators here).
      if (env.join_method == JoinMethod::kHash ||
          env.join_method == JoinMethod::kMerge) {
        return paper_join();
      }
      std::vector<int> order = identity_order();
      std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
        return est_in[static_cast<size_t>(a)] < est_in[static_cast<size_t>(b)];
      });
      auto nested = nested_plan(order);
      for (size_t level = 0; level < nested->levels.size(); ++level) {
        nested->levels[level]->est_rows =
            est_in[static_cast<size_t>(order[level])];
      }
      return std::unique_ptr<PlanNode>(std::move(nested));
    }

    // Two variables: find the cross conjuncts the specialized joins consume.
    const Conjunct* equi = nullptr;
    const Expr* key0 = nullptr;  // equi operand referencing variable 0
    const Expr* key1 = nullptr;
    for (const Conjunct& c : where_conjuncts) {
      if (MatchCrossEq(c, 0, 1, &key0, &key1)) {
        equi = &c;
        break;
      }
    }
    const TemporalConjunct* overlap = nullptr;
    bool both_valid = HasValidTime(rels[0]->schema().db_type()) &&
                      HasValidTime(rels[1]->schema().db_type());
    if (both_valid) {
      for (const TemporalConjunct& c : when_conjuncts) {
        int x = -1;
        int y = -1;
        if (MatchCrossOverlap(c, &x, &y) &&
            ((x == 0 && y == 1) || (x == 1 && y == 0))) {
          overlap = &c;
          break;
        }
      }
    }

    auto distinct_for = [&](int v, const Expr* side) -> uint64_t {
      const RelationStats& s = *st[static_cast<size_t>(v)];
      uint64_t fallback = s.rows == 0 ? 1 : s.rows;
      if (side != nullptr && side->kind == Expr::Kind::kColumn) {
        return s.DistinctOr(rels[static_cast<size_t>(v)]->schema().attr(
                                static_cast<size_t>(side->attr_index)).name,
                            fallback);
      }
      return fallback;
    };
    double est_join;
    if (equi != nullptr) {
      est_join = EstimateEqJoinRows(est_in[0], est_in[1],
                                    distinct_for(0, key0),
                                    distinct_for(1, key1));
    } else if (overlap != nullptr) {
      est_join = EstimateOverlapJoinRows(est_in[0], est_in[1]);
    } else {
      est_join = est_in[0] * est_in[1] * DefaultSelectivity();
    }

    // Candidate costs (modeled ms).
    auto nlj_cost = [&](int o) {
      int i = 1 - o;
      AccessChoice c = ChooseAccess(i, rels[static_cast<size_t>(i)],
                                    where_conjuncts, {o});
      // A keyed/indexed reopen touches ~2 random pages (bucket or directory
      // plus data/history); a scan reopen re-reads the inner file.
      double per_row = c.kind == AccessChoice::Kind::kScan
                           ? cm.ScanMs(pages_of(i))
                           : cm.ProbeMs(2.0);
      return cm.ScanMs(pages_of(o)) + est_in[static_cast<size_t>(o)] * per_row;
    };
    auto sub_cost = [&](int o) {
      int i = 1 - o;
      AccessChoice c = ChooseAccess(i, rels[static_cast<size_t>(i)],
                                    where_conjuncts, {o});
      if (c.kind != AccessChoice::Kind::kKeyed &&
          c.kind != AccessChoice::Kind::kIndexEq) {
        return 1e18;  // substitution needs a keyed inner
      }
      // Scan + detach to the temp relation (write + re-read, sequential) +
      // one keyed probe per temp row.
      return cm.ScanMs(pages_of(o)) +
             2.0 * static_cast<double>(pages_of(o)) * cm.SeqMs() +
             est_in[static_cast<size_t>(o)] * cm.ProbeMs(2.0);
    };
    auto hash_cost = [&](int b) {
      int p = 1 - b;
      return cm.ScanMs(pages_of(b)) + cm.ScanMs(pages_of(p)) +
             cm.cpu_row_ms * (est_in[static_cast<size_t>(b)] +
                              est_in[static_cast<size_t>(p)] + est_join);
    };
    auto merge_cost = [&]() {
      return cm.ScanMs(pages_of(0)) + cm.ScanMs(pages_of(1)) +
             cm.cpu_row_ms * (est_in[0] + est_in[1] + est_join);
    };

    // Partition the conjuncts: per-side restrictions and variable-free
    // factors become side filters (variable-free ones run on the side that
    // executes once); the consumed cross conjunct is dropped; every other
    // cross conjunct becomes the join node's residual filter.
    auto partition = [&](int once_side, const void* consumed,
                         LevelConjuncts sides[2], LevelConjuncts* cross) {
      for (const Conjunct& c : where_conjuncts) {
        if (static_cast<const void*>(&c) == consumed) continue;
        if (c.vars.empty()) {
          sides[once_side].where.push_back(&c);
        } else if (c.vars == std::set<int>{0}) {
          sides[0].where.push_back(&c);
        } else if (c.vars == std::set<int>{1}) {
          sides[1].where.push_back(&c);
        } else {
          cross->where.push_back(&c);
        }
      }
      for (const TemporalConjunct& c : when_conjuncts) {
        if (static_cast<const void*>(&c) == consumed) continue;
        if (c.vars.empty()) {
          sides[once_side].when.push_back(&c);
        } else if (c.vars == std::set<int>{0}) {
          sides[0].when.push_back(&c);
        } else if (c.vars == std::set<int>{1}) {
          sides[1].when.push_back(&c);
        } else {
          cross->when.push_back(&c);
        }
      }
    };
    auto side_node = [&](int v, const LevelConjuncts& lc) {
      auto node = WrapLevel(access_for(v, {}), lc, env.compiled_expr);
      node->est_rows = est_in[static_cast<size_t>(v)];
      return node;
    };

    auto build_hash = [&]() -> std::unique_ptr<PlanNode> {
      // Build on the smaller estimated input.
      int b = est_in[0] <= est_in[1] ? 0 : 1;
      int p = 1 - b;
      LevelConjuncts sides[2];
      LevelConjuncts cross;
      partition(b, equi, sides, &cross);
      auto node = std::make_unique<HashJoinNode>();
      node->build = side_node(b, sides[b]);
      node->probe = side_node(p, sides[p]);
      node->build_key = b == 0 ? key0 : key1;
      node->probe_key = p == 0 ? key0 : key1;
      node->key_text =
          node->build_key->ToString() + " = " + node->probe_key->ToString();
      if (env.compiled_expr) {
        node->build_prog = CompiledProgram::CompileExpr(*node->build_key);
        node->probe_prog = CompiledProgram::CompileExpr(*node->probe_key);
      }
      FillFilterNode(&node->residual, cross, env.compiled_expr);
      node->est_rows = est_join;
      return node;
    };
    auto build_merge = [&]() -> std::unique_ptr<PlanNode> {
      LevelConjuncts sides[2];
      LevelConjuncts cross;
      partition(0, overlap, sides, &cross);
      auto node = std::make_unique<IntervalJoinNode>();
      node->left = side_node(0, sides[0]);
      node->right = side_node(1, sides[1]);
      node->pred_text = overlap->pred->ToString();
      FillFilterNode(&node->residual, cross, env.compiled_expr);
      node->est_rows = est_join;
      return node;
    };
    auto build_nlj = [&](int o) -> std::unique_ptr<PlanNode> {
      auto nested = nested_plan({o, 1 - o});
      nested->levels[0]->est_rows = est_in[static_cast<size_t>(o)];
      nested->levels[1]->est_rows = est_join;
      nested->est_rows = est_join;
      return nested;
    };

    switch (env.join_method) {
      case JoinMethod::kNestedLoop:
        return build_nlj(nlj_cost(0) <= nlj_cost(1) ? 0 : 1);
      case JoinMethod::kHash:
        if (equi == nullptr) return paper_join();
        return build_hash();
      case JoinMethod::kMerge:
        if (overlap == nullptr) return paper_join();
        return build_merge();
      default:
        break;
    }

    // kAuto: cheapest of every applicable candidate.
    double best = std::min(
        {nlj_cost(0), nlj_cost(1), std::min(sub_cost(0), sub_cost(1))});
    enum class Pick { kSub, kNlj, kHash, kMerge };
    Pick pick = std::min(sub_cost(0), sub_cost(1)) <= std::min(nlj_cost(0),
                                                               nlj_cost(1))
                    ? Pick::kSub
                    : Pick::kNlj;
    if (equi != nullptr && hash_cost(est_in[0] <= est_in[1] ? 0 : 1) < best) {
      best = hash_cost(est_in[0] <= est_in[1] ? 0 : 1);
      pick = Pick::kHash;
    }
    if (overlap != nullptr && merge_cost() < best) {
      best = merge_cost();
      pick = Pick::kMerge;
    }
    switch (pick) {
      case Pick::kHash:
        return build_hash();
      case Pick::kMerge:
        return build_merge();
      case Pick::kNlj:
        return build_nlj(nlj_cost(0) <= nlj_cost(1) ? 0 : 1);
      case Pick::kSub: {
        auto node = paper_join();
        node->est_rows = est_join;
        return node;
      }
    }
    return paper_join();
  };

  if (rels.empty() || live.empty()) {
    // Constant plan: root without input.
  } else if (rels.size() == 1) {
    std::vector<LevelConjuncts> residual =
        AssignConjuncts({0}, where_conjuncts, when_conjuncts);
    root->child =
        WrapLevel(access_for(0, {}), residual[0], env.compiled_expr);
  } else if (env.join_method != JoinMethod::kPaper) {
    TDB_ASSIGN_OR_RETURN(root->child, cost_join());
  } else {
    root->child = paper_join();
  }

  plan->root = std::move(root);
  return plan;
}

namespace {

Result<std::unique_ptr<PlanNode>> CloneNode(const PlanNode* node,
                                            const ExecEnv& env);

/// Copies the shared AccessNode fields and re-resolves the relation handle
/// against the executing environment.
Status FillAccess(const AccessNode& src, AccessNode* dst, const ExecEnv& env) {
  dst->var = src.var;
  dst->var_name = src.var_name;
  dst->rel_name = src.rel_name;
  dst->current_only = src.current_only;
  dst->est_rows = src.est_rows;
  TDB_ASSIGN_OR_RETURN(dst->rel, env.GetRelation(src.rel_name));
  return Status::OK();
}

/// Copies a FilterNode's conjuncts and programs into `dst`; the child is
/// cloned only when present (join residual filters keep it null).
Status CloneFilterInto(const FilterNode& src, FilterNode* dst,
                       const ExecEnv& env) {
  dst->where = src.where;
  dst->when = src.when;
  dst->where_prog = src.where_prog;
  dst->when_prog = src.when_prog;
  dst->pred_text = src.pred_text;
  dst->est_rows = src.est_rows;
  if (src.child != nullptr) {
    TDB_ASSIGN_OR_RETURN(dst->child, CloneNode(src.child.get(), env));
  }
  return Status::OK();
}

Result<std::unique_ptr<PlanNode>> CloneNode(const PlanNode* node,
                                            const ExecEnv& env) {
  switch (node->kind) {
    case PlanNode::Kind::kSeqScan: {
      auto out = std::make_unique<SeqScanNode>();
      TDB_RETURN_NOT_OK(
          FillAccess(*static_cast<const SeqScanNode*>(node), out.get(), env));
      return std::unique_ptr<PlanNode>(std::move(out));
    }
    case PlanNode::Kind::kKeyedLookup: {
      const auto& src = *static_cast<const KeyedLookupNode*>(node);
      auto out = std::make_unique<KeyedLookupNode>();
      TDB_RETURN_NOT_OK(FillAccess(src, out.get(), env));
      out->key_expr = src.key_expr;
      out->key_prog = src.key_prog;
      out->key_text = src.key_text;
      return std::unique_ptr<PlanNode>(std::move(out));
    }
    case PlanNode::Kind::kIndexEq: {
      const auto& src = *static_cast<const IndexEqNode*>(node);
      auto out = std::make_unique<IndexEqNode>();
      TDB_RETURN_NOT_OK(FillAccess(src, out.get(), env));
      out->key_expr = src.key_expr;
      out->key_prog = src.key_prog;
      out->key_text = src.key_text;
      out->index_attr = src.index_attr;
      out->index = out->rel->FindIndex(src.index_attr);
      if (out->index == nullptr) {
        return Status::NotFound("cached plan references a dropped index on " +
                                src.rel_name + "." + src.index_attr);
      }
      return std::unique_ptr<PlanNode>(std::move(out));
    }
    case PlanNode::Kind::kRangeScan: {
      const auto& src = *static_cast<const RangeScanNode*>(node);
      auto out = std::make_unique<RangeScanNode>();
      TDB_RETURN_NOT_OK(FillAccess(src, out.get(), env));
      out->lo_expr = src.lo_expr;
      out->hi_expr = src.hi_expr;
      out->lo_prog = src.lo_prog;
      out->hi_prog = src.hi_prog;
      out->lo_inclusive = src.lo_inclusive;
      out->hi_inclusive = src.hi_inclusive;
      out->lo_text = src.lo_text;
      out->hi_text = src.hi_text;
      return std::unique_ptr<PlanNode>(std::move(out));
    }
    case PlanNode::Kind::kFilter: {
      auto out = std::make_unique<FilterNode>();
      TDB_RETURN_NOT_OK(CloneFilterInto(*static_cast<const FilterNode*>(node),
                                        out.get(), env));
      return std::unique_ptr<PlanNode>(std::move(out));
    }
    case PlanNode::Kind::kNestedLoop: {
      const auto& src = *static_cast<const NestedLoopNode*>(node);
      auto out = std::make_unique<NestedLoopNode>();
      out->est_rows = src.est_rows;
      for (const auto& level : src.levels) {
        TDB_ASSIGN_OR_RETURN(auto cloned, CloneNode(level.get(), env));
        out->levels.push_back(std::move(cloned));
      }
      return std::unique_ptr<PlanNode>(std::move(out));
    }
    case PlanNode::Kind::kSubstitution: {
      const auto& src = *static_cast<const SubstitutionNode*>(node);
      auto out = std::make_unique<SubstitutionNode>();
      out->est_rows = src.est_rows;
      TDB_ASSIGN_OR_RETURN(out->outer, CloneNode(src.outer.get(), env));
      TDB_ASSIGN_OR_RETURN(out->inner, CloneNode(src.inner.get(), env));
      return std::unique_ptr<PlanNode>(std::move(out));
    }
    case PlanNode::Kind::kHashJoin: {
      const auto& src = *static_cast<const HashJoinNode*>(node);
      auto out = std::make_unique<HashJoinNode>();
      out->est_rows = src.est_rows;
      TDB_ASSIGN_OR_RETURN(out->build, CloneNode(src.build.get(), env));
      TDB_ASSIGN_OR_RETURN(out->probe, CloneNode(src.probe.get(), env));
      out->build_key = src.build_key;
      out->probe_key = src.probe_key;
      out->build_prog = src.build_prog;
      out->probe_prog = src.probe_prog;
      out->key_text = src.key_text;
      TDB_RETURN_NOT_OK(CloneFilterInto(src.residual, &out->residual, env));
      return std::unique_ptr<PlanNode>(std::move(out));
    }
    case PlanNode::Kind::kIntervalJoin: {
      const auto& src = *static_cast<const IntervalJoinNode*>(node);
      auto out = std::make_unique<IntervalJoinNode>();
      out->est_rows = src.est_rows;
      TDB_ASSIGN_OR_RETURN(out->left, CloneNode(src.left.get(), env));
      TDB_ASSIGN_OR_RETURN(out->right, CloneNode(src.right.get(), env));
      out->pred_text = src.pred_text;
      TDB_RETURN_NOT_OK(CloneFilterInto(src.residual, &out->residual, env));
      return std::unique_ptr<PlanNode>(std::move(out));
    }
    case PlanNode::Kind::kProject:
      return Status::Internal("project nodes are cloned only at the root");
  }
  return Status::Internal("unreachable plan node kind");
}

}  // namespace

Result<std::shared_ptr<PhysicalPlan>> ClonePlanForExec(const PhysicalPlan& tmpl,
                                                       const ExecEnv& env) {
  auto plan = std::make_shared<PhysicalPlan>();
  // Cacheable statements carry no `as of` clause, so the rollback point is
  // always the executing statement's "now".
  plan->as_of_at = env.now;
  plan->has_through = false;

  const ProjectNode& src = *tmpl.root;
  auto root = std::make_unique<ProjectNode>();
  root->target_text = src.target_text;
  root->unique = src.unique;
  root->valid_output = src.valid_output;
  root->into = src.into;
  root->as_of_text = src.as_of_text;
  root->sort_text = src.sort_text;
  root->est_rows = src.est_rows;
  if (src.child != nullptr) {
    TDB_ASSIGN_OR_RETURN(root->child, CloneNode(src.child.get(), env));
  }
  plan->root = std::move(root);
  return plan;
}

namespace {

void ForEachNodeProgram(const PlanNode* node,
                        const std::function<void(const CompiledProgram&)>& fn);

void ForEachFilterProgram(
    const FilterNode* filter,
    const std::function<void(const CompiledProgram&)>& fn) {
  for (const CompiledProgram& p : filter->where_prog) fn(p);
  for (const CompiledProgram& p : filter->when_prog) fn(p);
  if (filter->child != nullptr) ForEachNodeProgram(filter->child.get(), fn);
}

void ForEachNodeProgram(const PlanNode* node,
                        const std::function<void(const CompiledProgram&)>& fn) {
  auto opt = [&](const std::optional<CompiledProgram>& p) {
    if (p.has_value()) fn(*p);
  };
  switch (node->kind) {
    case PlanNode::Kind::kSeqScan:
      return;
    case PlanNode::Kind::kKeyedLookup:
      opt(static_cast<const KeyedLookupNode*>(node)->key_prog);
      return;
    case PlanNode::Kind::kIndexEq:
      opt(static_cast<const IndexEqNode*>(node)->key_prog);
      return;
    case PlanNode::Kind::kRangeScan: {
      const auto* range = static_cast<const RangeScanNode*>(node);
      opt(range->lo_prog);
      opt(range->hi_prog);
      return;
    }
    case PlanNode::Kind::kFilter:
      ForEachFilterProgram(static_cast<const FilterNode*>(node), fn);
      return;
    case PlanNode::Kind::kNestedLoop:
      for (const auto& level :
           static_cast<const NestedLoopNode*>(node)->levels) {
        ForEachNodeProgram(level.get(), fn);
      }
      return;
    case PlanNode::Kind::kSubstitution: {
      const auto* sub = static_cast<const SubstitutionNode*>(node);
      ForEachNodeProgram(sub->outer.get(), fn);
      ForEachNodeProgram(sub->inner.get(), fn);
      return;
    }
    case PlanNode::Kind::kHashJoin: {
      const auto* hj = static_cast<const HashJoinNode*>(node);
      ForEachNodeProgram(hj->build.get(), fn);
      ForEachNodeProgram(hj->probe.get(), fn);
      opt(hj->build_prog);
      opt(hj->probe_prog);
      ForEachFilterProgram(&hj->residual, fn);
      return;
    }
    case PlanNode::Kind::kIntervalJoin: {
      const auto* ij = static_cast<const IntervalJoinNode*>(node);
      ForEachNodeProgram(ij->left.get(), fn);
      ForEachNodeProgram(ij->right.get(), fn);
      ForEachFilterProgram(&ij->residual, fn);
      return;
    }
    case PlanNode::Kind::kProject: {
      const auto* project = static_cast<const ProjectNode*>(node);
      if (project->child != nullptr) {
        ForEachNodeProgram(project->child.get(), fn);
      }
      return;
    }
  }
}

}  // namespace

void ForEachCompiledProgram(
    const PhysicalPlan& plan,
    const std::function<void(const CompiledProgram&)>& fn) {
  ForEachNodeProgram(plan.root.get(), fn);
}

void BindPlanParams(PhysicalPlan* plan, const std::vector<Value>& params) {
  // The caller owns `plan`, so its programs are not const objects.
  ForEachCompiledProgram(*plan, [&](const CompiledProgram& p) {
    const_cast<CompiledProgram&>(p).BindParams(params);
  });
}

}  // namespace tdb
