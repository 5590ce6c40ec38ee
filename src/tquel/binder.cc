#include "tquel/binder.h"

#include "util/stringx.h"

namespace tdb {

Result<int> Binder::BindVar(const std::string& var, BoundStatement* bound) {
  for (size_t i = 0; i < bound->vars.size(); ++i) {
    if (EqualsIgnoreCase(bound->vars[i].name, var)) return static_cast<int>(i);
  }
  auto it = ranges_->find(ToLower(var));
  if (it == ranges_->end()) {
    return Status::BindError("tuple variable '" + var +
                             "' has no range declaration");
  }
  const RelationMeta* rel = catalog_->Find(it->second);
  if (rel == nullptr) {
    return Status::BindError("relation '" + it->second + "' (range of '" +
                             var + "') does not exist");
  }
  bound->vars.push_back(BoundVar{var, rel});
  return static_cast<int>(bound->vars.size() - 1);
}

Status Binder::BindExpr(Expr* expr, BoundStatement* bound,
                        bool allow_aggregates) {
  switch (expr->kind) {
    case Expr::Kind::kConstInt:
    case Expr::Kind::kConstFloat:
    case Expr::Kind::kConstString:
    case Expr::Kind::kParam:
      return Status::OK();
    case Expr::Kind::kColumn: {
      TDB_ASSIGN_OR_RETURN(expr->var_index, BindVar(expr->var, bound));
      const RelationMeta* rel = bound->vars[expr->var_index].rel;
      expr->attr_index = rel->schema.FindAttr(expr->attr);
      if (expr->attr_index < 0) {
        return Status::BindError("relation '" + rel->name +
                                 "' has no attribute '" + expr->attr + "'");
      }
      expr->column_type =
          rel->schema.attr(static_cast<size_t>(expr->attr_index)).type;
      return Status::OK();
    }
    case Expr::Kind::kBinary:
      TDB_RETURN_NOT_OK(BindExpr(expr->left.get(), bound, allow_aggregates));
      return BindExpr(expr->right.get(), bound, allow_aggregates);
    case Expr::Kind::kUnary:
      return BindExpr(expr->left.get(), bound, allow_aggregates);
    case Expr::Kind::kAggregate: {
      if (!allow_aggregates) {
        return Status::BindError(
            "aggregates are only allowed in retrieve target lists");
      }
      TDB_RETURN_NOT_OK(BindExpr(expr->agg_arg.get(), bound, false));
      if (expr->agg_by != nullptr) {
        TDB_RETURN_NOT_OK(BindExpr(expr->agg_by.get(), bound, false));
      }
      if (expr->agg_where != nullptr) {
        TDB_RETURN_NOT_OK(BindExpr(expr->agg_where.get(), bound, false));
      }
      return Status::OK();
    }
  }
  return Status::Internal("unreachable expression kind");
}

Status Binder::BindTemporalExpr(TemporalExpr* expr, BoundStatement* bound) {
  switch (expr->kind) {
    case TemporalExpr::Kind::kConst:
    case TemporalExpr::Kind::kNow:
      return Status::OK();
    case TemporalExpr::Kind::kVar: {
      TDB_ASSIGN_OR_RETURN(expr->var_index, BindVar(expr->var, bound));
      const RelationMeta* rel = bound->vars[expr->var_index].rel;
      if (!HasValidTime(rel->schema.db_type())) {
        return Status::BindError(
            "variable '" + expr->var + "' ranges over " +
            DbTypeName(rel->schema.db_type()) + " relation '" + rel->name +
            "', which carries no valid time");
      }
      return Status::OK();
    }
    case TemporalExpr::Kind::kStartOf:
    case TemporalExpr::Kind::kEndOf:
      return BindTemporalExpr(expr->left.get(), bound);
    case TemporalExpr::Kind::kOverlap:
    case TemporalExpr::Kind::kExtend:
      TDB_RETURN_NOT_OK(BindTemporalExpr(expr->left.get(), bound));
      return BindTemporalExpr(expr->right.get(), bound);
  }
  return Status::Internal("unreachable temporal expression kind");
}

Status Binder::BindTemporalPred(TemporalPred* pred, BoundStatement* bound) {
  switch (pred->kind) {
    case TemporalPred::Kind::kPrecede:
    case TemporalPred::Kind::kOverlap:
    case TemporalPred::Kind::kEqual:
      TDB_RETURN_NOT_OK(BindTemporalExpr(pred->lexpr.get(), bound));
      return BindTemporalExpr(pred->rexpr.get(), bound);
    case TemporalPred::Kind::kNonEmpty:
      return BindTemporalExpr(pred->lexpr.get(), bound);
    case TemporalPred::Kind::kAnd:
    case TemporalPred::Kind::kOr:
      TDB_RETURN_NOT_OK(BindTemporalPred(pred->left.get(), bound));
      return BindTemporalPred(pred->right.get(), bound);
    case TemporalPred::Kind::kNot:
      return BindTemporalPred(pred->left.get(), bound);
  }
  return Status::Internal("unreachable temporal predicate kind");
}

Status Binder::BindValid(ValidClause* valid, BoundStatement* bound) {
  TDB_RETURN_NOT_OK(BindTemporalExpr(valid->from.get(), bound));
  if (valid->to != nullptr) {
    TDB_RETURN_NOT_OK(BindTemporalExpr(valid->to.get(), bound));
  }
  return Status::OK();
}

namespace {

/// `as of` expressions must not mention tuple variables — the rollback
/// point is a constant of the statement.
Status CheckAsOfConstant(const TemporalExpr* expr) {
  if (expr == nullptr) return Status::OK();
  if (expr->kind == TemporalExpr::Kind::kVar) {
    return Status::BindError(
        "as-of expressions must be constant (no tuple variables)");
  }
  TDB_RETURN_NOT_OK(CheckAsOfConstant(expr->left.get()));
  return CheckAsOfConstant(expr->right.get());
}

}  // namespace

Status Binder::BindAsOf(AsOfClause* as_of, BoundStatement* bound) {
  (void)bound;
  TDB_RETURN_NOT_OK(CheckAsOfConstant(as_of->at.get()));
  return CheckAsOfConstant(as_of->through.get());
}

Status Binder::CheckWhenApplicable(const BoundStatement& bound) {
  for (const BoundVar& v : bound.vars) {
    if (!HasValidTime(v.rel->schema.db_type())) {
      return Status::BindError(
          "when/valid clause is not applicable: relation '" + v.rel->name +
          "' is " + DbTypeName(v.rel->schema.db_type()));
    }
  }
  return Status::OK();
}

Status Binder::CheckAsOfApplicable(const BoundStatement& bound) {
  for (const BoundVar& v : bound.vars) {
    if (!HasTransactionTime(v.rel->schema.db_type())) {
      return Status::BindError(
          "as-of clause is not applicable: relation '" + v.rel->name +
          "' is " + DbTypeName(v.rel->schema.db_type()));
    }
  }
  return Status::OK();
}

Result<BoundStatement> Binder::BindRetrieve(RetrieveStmt* stmt) {
  BoundStatement bound;

  // Expand `t.all` targets into one target per user attribute.
  std::vector<TargetItem> expanded;
  for (TargetItem& item : stmt->targets) {
    Expr* e = item.expr.get();
    if (e->kind == Expr::Kind::kColumn && EqualsIgnoreCase(e->attr, "all")) {
      auto it = ranges_->find(ToLower(e->var));
      if (it == ranges_->end()) {
        return Status::BindError("tuple variable '" + e->var +
                                 "' has no range declaration");
      }
      const RelationMeta* rel = catalog_->Find(it->second);
      if (rel == nullptr) {
        return Status::BindError("relation '" + it->second +
                                 "' does not exist");
      }
      for (size_t i = 0; i < rel->schema.num_user_attrs(); ++i) {
        TargetItem t;
        t.name = rel->schema.attr(i).name;
        t.expr = Expr::Column(e->var, rel->schema.attr(i).name);
        expanded.push_back(std::move(t));
      }
      continue;
    }
    expanded.push_back(std::move(item));
  }
  stmt->targets = std::move(expanded);

  // Derive missing target names and make them unique.
  for (TargetItem& item : stmt->targets) {
    if (item.name.empty()) {
      item.name = item.expr->kind == Expr::Kind::kColumn ? item.expr->attr
                                                         : "expr";
    }
  }
  for (size_t i = 0; i < stmt->targets.size(); ++i) {
    int dup = 0;
    for (size_t j = 0; j < i; ++j) {
      if (EqualsIgnoreCase(stmt->targets[j].name, stmt->targets[i].name)) {
        ++dup;
      }
    }
    if (dup > 0) {
      stmt->targets[i].name += StrPrintf("_%d", dup + 1);
    }
  }

  for (TargetItem& item : stmt->targets) {
    TDB_RETURN_NOT_OK(BindExpr(item.expr.get(), &bound,
                               /*allow_aggregates=*/true));
  }
  if (stmt->where != nullptr) {
    TDB_RETURN_NOT_OK(BindExpr(stmt->where.get(), &bound, false));
  }
  if (stmt->when != nullptr) {
    TDB_RETURN_NOT_OK(BindTemporalPred(stmt->when.get(), &bound));
  }
  if (stmt->valid.has_value()) {
    TDB_RETURN_NOT_OK(BindValid(&*stmt->valid, &bound));
  }
  if (stmt->as_of.has_value()) {
    TDB_RETURN_NOT_OK(BindAsOf(&*stmt->as_of, &bound));
  }

  if (stmt->when != nullptr || stmt->valid.has_value()) {
    TDB_RETURN_NOT_OK(CheckWhenApplicable(bound));
  }
  if (stmt->as_of.has_value()) {
    TDB_RETURN_NOT_OK(CheckAsOfApplicable(bound));
  }
  if (stmt->targets.empty()) {
    return Status::BindError("retrieve needs a non-empty target list");
  }
  if (!stmt->into.empty() && catalog_->Find(stmt->into) != nullptr) {
    return Status::BindError("retrieve into: relation '" + stmt->into +
                             "' already exists");
  }
  return bound;
}

namespace {

Status CheckTargetNames(const std::vector<TargetItem>& targets,
                        const RelationMeta* rel) {
  for (const TargetItem& item : targets) {
    if (item.name.empty()) {
      return Status::BindError(
          "append/replace targets must be written attr = expr");
    }
    int idx = rel->schema.FindAttr(item.name);
    if (idx < 0 || static_cast<size_t>(idx) >= rel->schema.num_user_attrs()) {
      return Status::BindError("relation '" + rel->name +
                               "' has no user attribute '" + item.name + "'");
    }
  }
  return Status::OK();
}

/// Replace and delete act on the tuples of one variable; the executors
/// bind no other, so a second variable is refused here rather than left
/// to fail mid-statement.
Status CheckOneVariable(const char* verb, const BoundStatement& bound) {
  if (bound.vars.size() <= 1) return Status::OK();
  return Status::BindError(StrPrintf(
      "%s may reference only its own tuple variable '%s', not '%s'", verb,
      bound.vars[0].name.c_str(), bound.vars[1].name.c_str()));
}

}  // namespace

Result<BoundStatement> Binder::BindAppend(AppendStmt* stmt) {
  BoundStatement bound;
  const RelationMeta* rel = catalog_->Find(stmt->relation);
  if (rel == nullptr) {
    return Status::BindError("relation '" + stmt->relation +
                             "' does not exist");
  }
  TDB_RETURN_NOT_OK(CheckTargetNames(stmt->targets, rel));
  for (TargetItem& item : stmt->targets) {
    TDB_RETURN_NOT_OK(BindExpr(item.expr.get(), &bound, false));
  }
  if (stmt->where != nullptr) {
    TDB_RETURN_NOT_OK(BindExpr(stmt->where.get(), &bound, false));
  }
  if (stmt->when != nullptr) {
    TDB_RETURN_NOT_OK(BindTemporalPred(stmt->when.get(), &bound));
    TDB_RETURN_NOT_OK(CheckWhenApplicable(bound));
  }
  if (stmt->valid.has_value()) {
    if (!HasValidTime(rel->schema.db_type())) {
      return Status::BindError("valid clause is not applicable: relation '" +
                               rel->name + "' is " +
                               DbTypeName(rel->schema.db_type()));
    }
    TDB_RETURN_NOT_OK(BindValid(&*stmt->valid, &bound));
  }
  return bound;
}

Result<BoundStatement> Binder::BindDelete(DeleteStmt* stmt) {
  BoundStatement bound;
  TDB_ASSIGN_OR_RETURN(int idx, BindVar(stmt->var, &bound));
  const RelationMeta* rel = bound.vars[static_cast<size_t>(idx)].rel;
  if (stmt->where != nullptr) {
    TDB_RETURN_NOT_OK(BindExpr(stmt->where.get(), &bound, false));
  }
  if (stmt->when != nullptr) {
    TDB_RETURN_NOT_OK(BindTemporalPred(stmt->when.get(), &bound));
    TDB_RETURN_NOT_OK(CheckWhenApplicable(bound));
  }
  if (stmt->valid.has_value()) {
    if (!HasValidTime(rel->schema.db_type())) {
      return Status::BindError("valid clause is not applicable: relation '" +
                               rel->name + "' is " +
                               DbTypeName(rel->schema.db_type()));
    }
    TDB_RETURN_NOT_OK(BindValid(&*stmt->valid, &bound));
  }
  TDB_RETURN_NOT_OK(CheckOneVariable("delete", bound));
  return bound;
}

Result<BoundStatement> Binder::BindReplace(ReplaceStmt* stmt) {
  BoundStatement bound;
  TDB_ASSIGN_OR_RETURN(int idx, BindVar(stmt->var, &bound));
  const RelationMeta* rel = bound.vars[static_cast<size_t>(idx)].rel;
  TDB_RETURN_NOT_OK(CheckTargetNames(stmt->targets, rel));
  for (TargetItem& item : stmt->targets) {
    TDB_RETURN_NOT_OK(BindExpr(item.expr.get(), &bound, false));
  }
  if (stmt->where != nullptr) {
    TDB_RETURN_NOT_OK(BindExpr(stmt->where.get(), &bound, false));
  }
  if (stmt->when != nullptr) {
    TDB_RETURN_NOT_OK(BindTemporalPred(stmt->when.get(), &bound));
    TDB_RETURN_NOT_OK(CheckWhenApplicable(bound));
  }
  if (stmt->valid.has_value()) {
    if (!HasValidTime(rel->schema.db_type())) {
      return Status::BindError("valid clause is not applicable: relation '" +
                               rel->name + "' is " +
                               DbTypeName(rel->schema.db_type()));
    }
    TDB_RETURN_NOT_OK(BindValid(&*stmt->valid, &bound));
  }
  TDB_RETURN_NOT_OK(CheckOneVariable("replace", bound));
  return bound;
}

}  // namespace tdb
