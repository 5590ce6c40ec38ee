#include "tquel/ast.h"

#include "util/stringx.h"

namespace tdb {

namespace {

const char* OpName(ExprOp op) {
  switch (op) {
    case ExprOp::kAdd:
      return "+";
    case ExprOp::kSub:
      return "-";
    case ExprOp::kMul:
      return "*";
    case ExprOp::kDiv:
      return "/";
    case ExprOp::kMod:
      return "%";
    case ExprOp::kEq:
      return "=";
    case ExprOp::kNe:
      return "!=";
    case ExprOp::kLt:
      return "<";
    case ExprOp::kLe:
      return "<=";
    case ExprOp::kGt:
      return ">";
    case ExprOp::kGe:
      return ">=";
    case ExprOp::kAnd:
      return "and";
    case ExprOp::kOr:
      return "or";
    case ExprOp::kNot:
      return "not";
    case ExprOp::kNeg:
      return "-";
  }
  return "?";
}

const char* AggName(AggFunc f) {
  switch (f) {
    case AggFunc::kCount:
      return "count";
    case AggFunc::kSum:
      return "sum";
    case AggFunc::kAvg:
      return "avg";
    case AggFunc::kMin:
      return "min";
    case AggFunc::kMax:
      return "max";
    case AggFunc::kAny:
      return "any";
  }
  return "?";
}

}  // namespace

std::unique_ptr<Expr> Expr::Int(int64_t v) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kConstInt;
  e->int_val = v;
  return e;
}

std::unique_ptr<Expr> Expr::Float(double v) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kConstFloat;
  e->float_val = v;
  return e;
}

std::unique_ptr<Expr> Expr::Str(std::string v) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kConstString;
  e->str_val = std::move(v);
  return e;
}

std::unique_ptr<Expr> Expr::Column(std::string var, std::string attr) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kColumn;
  e->var = std::move(var);
  e->attr = std::move(attr);
  return e;
}

std::unique_ptr<Expr> Expr::Binary(ExprOp op, std::unique_ptr<Expr> l,
                                   std::unique_ptr<Expr> r) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kBinary;
  e->op = op;
  e->left = std::move(l);
  e->right = std::move(r);
  return e;
}

std::unique_ptr<Expr> Expr::Unary(ExprOp op, std::unique_ptr<Expr> operand) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kUnary;
  e->op = op;
  e->left = std::move(operand);
  return e;
}

std::unique_ptr<Expr> Expr::Param(int index) {
  auto e = std::make_unique<Expr>();
  e->kind = Kind::kParam;
  e->param_index = index;
  return e;
}

std::string Expr::ToString() const {
  switch (kind) {
    case Kind::kConstInt:
      return StrPrintf("%lld", static_cast<long long>(int_val));
    case Kind::kConstFloat:
      return StrPrintf("%g", float_val);
    case Kind::kConstString:
      return "\"" + str_val + "\"";
    case Kind::kColumn:
      return var.empty() ? attr : var + "." + attr;
    case Kind::kBinary:
      return "(" + left->ToString() + " " + OpName(op) + " " +
             right->ToString() + ")";
    case Kind::kUnary:
      return std::string("(") + OpName(op) + " " + left->ToString() + ")";
    case Kind::kAggregate: {
      std::string s = std::string(AggName(agg)) + "(" +
                      (agg_arg != nullptr ? agg_arg->ToString() : "?");
      if (agg_by != nullptr) s += " by " + agg_by->ToString();
      if (agg_where != nullptr) s += " where " + agg_where->ToString();
      return s + ")";
    }
    case Kind::kParam:
      return StrPrintf("$%d", param_index);
  }
  return "?";
}

std::unique_ptr<TemporalExpr> TemporalExpr::Var(std::string name) {
  auto e = std::make_unique<TemporalExpr>();
  e->kind = Kind::kVar;
  e->var = std::move(name);
  return e;
}

std::unique_ptr<TemporalExpr> TemporalExpr::Const(TimePoint tp) {
  auto e = std::make_unique<TemporalExpr>();
  e->kind = Kind::kConst;
  e->const_time = tp;
  return e;
}

std::unique_ptr<TemporalExpr> TemporalExpr::Now() {
  auto e = std::make_unique<TemporalExpr>();
  e->kind = Kind::kNow;
  return e;
}

std::unique_ptr<TemporalExpr> TemporalExpr::Make(
    Kind k, std::unique_ptr<TemporalExpr> l, std::unique_ptr<TemporalExpr> r) {
  auto e = std::make_unique<TemporalExpr>();
  e->kind = k;
  e->left = std::move(l);
  e->right = std::move(r);
  return e;
}

std::string TemporalExpr::ToString() const {
  switch (kind) {
    case Kind::kVar:
      return var;
    case Kind::kConst:
      return "\"" + const_time.ToString() + "\"";
    case Kind::kNow:
      return "\"now\"";
    case Kind::kStartOf:
      return "start of " + left->ToString();
    case Kind::kEndOf:
      return "end of " + left->ToString();
    case Kind::kOverlap:
      return "(" + left->ToString() + " overlap " + right->ToString() + ")";
    case Kind::kExtend:
      return "(" + left->ToString() + " extend " + right->ToString() + ")";
  }
  return "?";
}

std::string TemporalPred::ToString() const {
  switch (kind) {
    case Kind::kPrecede:
      return "(" + lexpr->ToString() + " precede " + rexpr->ToString() + ")";
    case Kind::kOverlap:
      return "(" + lexpr->ToString() + " overlap " + rexpr->ToString() + ")";
    case Kind::kEqual:
      return "(" + lexpr->ToString() + " equal " + rexpr->ToString() + ")";
    case Kind::kAnd:
      return "(" + left->ToString() + " and " + right->ToString() + ")";
    case Kind::kOr:
      return "(" + left->ToString() + " or " + right->ToString() + ")";
    case Kind::kNot:
      return "(not " + left->ToString() + ")";
    case Kind::kNonEmpty:
      return lexpr->ToString();
  }
  return "?";
}

namespace {

template <typename T>
std::unique_ptr<T> CloneOrNull(const std::unique_ptr<T>& p) {
  return p != nullptr ? p->Clone() : nullptr;
}

}  // namespace

std::unique_ptr<Expr> Expr::Clone() const {
  auto e = std::make_unique<Expr>();
  e->kind = kind;
  e->int_val = int_val;
  e->float_val = float_val;
  e->str_val = str_val;
  e->param_index = param_index;
  e->var = var;
  e->attr = attr;
  e->var_index = var_index;
  e->attr_index = attr_index;
  e->column_type = column_type;
  e->op = op;
  e->left = CloneOrNull(left);
  e->right = CloneOrNull(right);
  e->agg = agg;
  e->agg_arg = CloneOrNull(agg_arg);
  e->agg_by = CloneOrNull(agg_by);
  e->agg_where = CloneOrNull(agg_where);
  return e;
}

std::unique_ptr<TemporalExpr> TemporalExpr::Clone() const {
  auto e = std::make_unique<TemporalExpr>();
  e->kind = kind;
  e->var = var;
  e->var_index = var_index;
  e->const_time = const_time;
  e->left = CloneOrNull(left);
  e->right = CloneOrNull(right);
  return e;
}

std::unique_ptr<TemporalPred> TemporalPred::Clone() const {
  auto p = std::make_unique<TemporalPred>();
  p->kind = kind;
  p->lexpr = CloneOrNull(lexpr);
  p->rexpr = CloneOrNull(rexpr);
  p->left = CloneOrNull(left);
  p->right = CloneOrNull(right);
  return p;
}

std::unique_ptr<RetrieveStmt> RetrieveStmt::Clone() const {
  auto s = std::make_unique<RetrieveStmt>();
  s->source_offset = source_offset;
  s->into = into;
  s->unique = unique;
  for (const TargetItem& t : targets) {
    s->targets.push_back(TargetItem{t.name, t.expr->Clone()});
  }
  if (valid.has_value()) {
    s->valid.emplace();
    s->valid->at = valid->at;
    s->valid->from = CloneOrNull(valid->from);
    s->valid->to = CloneOrNull(valid->to);
  }
  s->where = CloneOrNull(where);
  s->when = CloneOrNull(when);
  if (as_of.has_value()) {
    s->as_of.emplace();
    s->as_of->at = CloneOrNull(as_of->at);
    s->as_of->through = CloneOrNull(as_of->through);
  }
  s->sort_by = sort_by;
  return s;
}

}  // namespace tdb
