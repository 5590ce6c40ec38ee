#include "exec/compiled_expr.h"

#include "util/stringx.h"

namespace tdb {

namespace {

bool Truthy(const Value& v) {
  if (v.is_integer()) return v.AsInt() != 0;
  if (v.type() == TypeId::kFloat8) return v.AsDouble() != 0;
  return false;
}

}  // namespace

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

std::optional<CompiledProgram> CompiledProgram::CompileExpr(const Expr& expr) {
  CompiledProgram prog(Kind::kScalar);
  if (!prog.EmitExpr(expr)) return std::nullopt;
  return prog;
}

CompiledProgram CompiledProgram::CompileTemporal(const TemporalExpr& expr) {
  CompiledProgram prog(Kind::kInterval);
  prog.EmitTemporal(expr);
  return prog;
}

CompiledProgram CompiledProgram::CompilePred(const TemporalPred& pred) {
  CompiledProgram prog(Kind::kPredicate);
  prog.EmitPred(pred);
  return prog;
}

bool CompiledProgram::EmitExpr(const Expr& expr) {
  switch (expr.kind) {
    case Expr::Kind::kConstInt: {
      Instr in{Op::kPushInt};
      in.ival = expr.int_val;
      code_.push_back(std::move(in));
      return true;
    }
    case Expr::Kind::kConstFloat: {
      Instr in{Op::kPushFloat};
      in.fval = expr.float_val;
      code_.push_back(std::move(in));
      return true;
    }
    case Expr::Kind::kConstString: {
      Instr in{Op::kPushStr};
      in.sval = expr.str_val;
      code_.push_back(std::move(in));
      return true;
    }
    case Expr::Kind::kColumn: {
      Instr in{Op::kLoadCol};
      in.a = expr.var_index;
      in.b = expr.attr_index;
      in.sval = expr.var + "." + expr.attr;  // for the unbound-tuple error
      code_.push_back(std::move(in));
      return true;
    }
    case Expr::Kind::kUnary: {
      if (!EmitExpr(*expr.left)) return false;
      code_.push_back(
          Instr{expr.op == ExprOp::kNot ? Op::kNot : Op::kNeg});
      return true;
    }
    case Expr::Kind::kBinary: {
      if (expr.op == ExprOp::kAnd || expr.op == ExprOp::kOr) {
        // Short circuit exactly like the Evaluator: a falsy (truthy) left
        // operand yields Int4(0) (Int4(1)) without touching the right one;
        // otherwise the result is the right operand coerced to 0/1.
        if (!EmitExpr(*expr.left)) return false;
        size_t jump_at = code_.size();
        code_.push_back(
            Instr{expr.op == ExprOp::kAnd ? Op::kAndJump : Op::kOrJump});
        if (!EmitExpr(*expr.right)) return false;
        code_.push_back(Instr{Op::kCoerceBool});
        code_[jump_at].a = static_cast<int32_t>(code_.size());
        return true;
      }
      if (!EmitExpr(*expr.left)) return false;
      if (!EmitExpr(*expr.right)) return false;
      switch (expr.op) {
        case ExprOp::kEq:
          code_.push_back(Instr{Op::kCmpEq});
          return true;
        case ExprOp::kNe:
          code_.push_back(Instr{Op::kCmpNe});
          return true;
        case ExprOp::kLt:
          code_.push_back(Instr{Op::kCmpLt});
          return true;
        case ExprOp::kLe:
          code_.push_back(Instr{Op::kCmpLe});
          return true;
        case ExprOp::kGt:
          code_.push_back(Instr{Op::kCmpGt});
          return true;
        case ExprOp::kGe:
          code_.push_back(Instr{Op::kCmpGe});
          return true;
        case ExprOp::kAdd:
          code_.push_back(Instr{Op::kAdd});
          return true;
        case ExprOp::kSub:
          code_.push_back(Instr{Op::kSub});
          return true;
        case ExprOp::kMul:
          code_.push_back(Instr{Op::kMul});
          return true;
        case ExprOp::kDiv:
          code_.push_back(Instr{Op::kDiv});
          return true;
        case ExprOp::kMod:
          code_.push_back(Instr{Op::kMod});
          return true;
        default:
          return false;
      }
    }
    case Expr::Kind::kAggregate:
      // Plain aggregates are folded into constants before target programs
      // are compiled; grouped (`by`) aggregates keep their node and look a
      // map up per row — those stay on the Evaluator path.
      return false;
    case Expr::Kind::kParam: {
      // Resolved by BindParams against each execution's arguments.
      Instr in{Op::kPushParam};
      in.a = expr.param_index;
      code_.push_back(std::move(in));
      return true;
    }
  }
  return false;
}

void CompiledProgram::BindParams(const std::vector<Value>& params) {
  bool changed = false;
  for (Instr& in : code_) {
    if (in.op != Op::kPushParam) continue;
    if (in.a < 1 || static_cast<size_t>(in.a) > params.size()) {
      in.b = static_cast<int32_t>(params.size());
      continue;
    }
    const Value& v = params[static_cast<size_t>(in.a - 1)];
    switch (v.type()) {
      case TypeId::kInt4:
        in.op = Op::kPushInt;
        in.ival = v.AsInt();
        break;
      case TypeId::kFloat8:
        in.op = Op::kPushFloat;
        in.fval = v.AsDouble();
        break;
      case TypeId::kChar:
        in.op = Op::kPushStr;
        in.sval = v.AsString();
        break;
      case TypeId::kTime:
        in.op = Op::kPushTyped;
        in.b = static_cast<int32_t>(v.type());
        in.tval = v.AsTime();
        break;
      default:  // kInt1, kInt2
        in.op = Op::kPushTyped;
        in.b = static_cast<int32_t>(v.type());
        in.ival = v.AsInt();
        break;
    }
    changed = true;
  }
  // The batch-kernel analysis reads the constants: redo it on this copy.
  if (changed) batch_cache_.reset();
}

void CompiledProgram::EmitTemporal(const TemporalExpr& expr) {
  switch (expr.kind) {
    case TemporalExpr::Kind::kVar: {
      Instr in{Op::kIvalVar};
      in.a = expr.var_index;
      in.sval = expr.var;
      code_.push_back(std::move(in));
      return;
    }
    case TemporalExpr::Kind::kConst: {
      Instr in{Op::kIvalConst};
      in.tval = expr.const_time;
      code_.push_back(std::move(in));
      return;
    }
    case TemporalExpr::Kind::kNow:
      code_.push_back(Instr{Op::kIvalNow});
      return;
    case TemporalExpr::Kind::kStartOf:
      EmitTemporal(*expr.left);
      code_.push_back(Instr{Op::kIvalStart});
      return;
    case TemporalExpr::Kind::kEndOf:
      EmitTemporal(*expr.left);
      code_.push_back(Instr{Op::kIvalEnd});
      return;
    case TemporalExpr::Kind::kOverlap:
      EmitTemporal(*expr.left);
      EmitTemporal(*expr.right);
      code_.push_back(Instr{Op::kIvalIntersect});
      return;
    case TemporalExpr::Kind::kExtend:
      EmitTemporal(*expr.left);
      EmitTemporal(*expr.right);
      code_.push_back(Instr{Op::kIvalSpan});
      return;
  }
}

void CompiledProgram::EmitPred(const TemporalPred& pred) {
  switch (pred.kind) {
    case TemporalPred::Kind::kPrecede:
      EmitTemporal(*pred.lexpr);
      EmitTemporal(*pred.rexpr);
      code_.push_back(Instr{Op::kPredPrecede});
      return;
    case TemporalPred::Kind::kOverlap:
      EmitTemporal(*pred.lexpr);
      EmitTemporal(*pred.rexpr);
      code_.push_back(Instr{Op::kPredOverlap});
      return;
    case TemporalPred::Kind::kEqual:
      EmitTemporal(*pred.lexpr);
      EmitTemporal(*pred.rexpr);
      code_.push_back(Instr{Op::kPredEqual});
      return;
    case TemporalPred::Kind::kNonEmpty: {
      // Bare `a overlap b` uses the precise overlap test (touching
      // half-open intervals do not overlap); any other bare interval
      // expression tests non-emptiness — mirroring Evaluator::EvalPred.
      const TemporalExpr& e = *pred.lexpr;
      if (e.kind == TemporalExpr::Kind::kOverlap) {
        EmitTemporal(*e.left);
        EmitTemporal(*e.right);
        code_.push_back(Instr{Op::kPredOverlap});
        return;
      }
      EmitTemporal(e);
      code_.push_back(Instr{Op::kPredNonEmpty});
      return;
    }
    case TemporalPred::Kind::kAnd: {
      EmitPred(*pred.left);
      size_t jump_at = code_.size();
      code_.push_back(Instr{Op::kPredAndJump});
      EmitPred(*pred.right);
      code_[jump_at].a = static_cast<int32_t>(code_.size());
      return;
    }
    case TemporalPred::Kind::kOr: {
      EmitPred(*pred.left);
      size_t jump_at = code_.size();
      code_.push_back(Instr{Op::kPredOrJump});
      EmitPred(*pred.right);
      code_[jump_at].a = static_cast<int32_t>(code_.size());
      return;
    }
    case TemporalPred::Kind::kNot:
      EmitPred(*pred.left);
      code_.push_back(Instr{Op::kPredNot});
      return;
  }
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

Status CompiledProgram::Run(const Binding& binding, TimePoint now) const {
  vals_.clear();
  ivals_.clear();
  bools_.clear();

  size_t i = 0;
  const size_t n = code_.size();
  while (i < n) {
    const Instr& in = code_[i];
    ++i;
    switch (in.op) {
      case Op::kPushInt:
        vals_.push_back(Value::Int4(in.ival));
        break;
      case Op::kPushFloat:
        vals_.push_back(Value::Float8(in.fval));
        break;
      case Op::kPushStr:
        vals_.push_back(Value::Char(in.sval));
        break;
      case Op::kPushTyped:
        switch (static_cast<TypeId>(in.b)) {
          case TypeId::kInt1:
            vals_.push_back(Value::Int1(in.ival));
            break;
          case TypeId::kInt2:
            vals_.push_back(Value::Int2(in.ival));
            break;
          default:
            vals_.push_back(Value::Time(in.tval));
            break;
        }
        break;
      case Op::kPushParam:
        return Status::Invalid(
            StrPrintf("parameter $%d is not bound (statement executed with "
                      "%d argument(s))",
                      in.a, in.b));
      case Op::kLoadCol: {
        if (in.a < 0 || static_cast<size_t>(in.a) >= binding.size() ||
            binding[static_cast<size_t>(in.a)] == nullptr) {
          return Status::Internal("column '" + in.sval +
                                  "' evaluated without a bound tuple");
        }
        vals_.push_back(binding[static_cast<size_t>(in.a)]->attr(
            static_cast<size_t>(in.b)));
        break;
      }
      case Op::kAdd:
      case Op::kSub:
      case Op::kMul:
      case Op::kDiv:
      case Op::kMod: {
        Value b = std::move(vals_.back());
        vals_.pop_back();
        Value& a = vals_.back();
        if (!a.is_numeric() || !b.is_numeric()) {
          return Status::Invalid("arithmetic requires numeric operands");
        }
        if (a.type() == TypeId::kFloat8 || b.type() == TypeId::kFloat8) {
          double x = a.AsDouble();
          double y = b.AsDouble();
          switch (in.op) {
            case Op::kAdd:
              a = Value::Float8(x + y);
              break;
            case Op::kSub:
              a = Value::Float8(x - y);
              break;
            case Op::kMul:
              a = Value::Float8(x * y);
              break;
            case Op::kDiv:
              if (y == 0) return Status::Invalid("division by zero");
              a = Value::Float8(x / y);
              break;
            default:
              return Status::Invalid("modulo requires integer operands");
          }
        } else {
          int64_t x = a.AsInt();
          int64_t y = b.AsInt();
          switch (in.op) {
            case Op::kAdd:
              a = Value::Int4(x + y);
              break;
            case Op::kSub:
              a = Value::Int4(x - y);
              break;
            case Op::kMul:
              a = Value::Int4(x * y);
              break;
            case Op::kDiv:
              if (y == 0) return Status::Invalid("division by zero");
              a = Value::Int4(x / y);
              break;
            default:
              if (y == 0) return Status::Invalid("modulo by zero");
              a = Value::Int4(x % y);
              break;
          }
        }
        break;
      }
      case Op::kCmpEq:
      case Op::kCmpNe:
      case Op::kCmpLt:
      case Op::kCmpLe:
      case Op::kCmpGt:
      case Op::kCmpGe: {
        Value b = std::move(vals_.back());
        vals_.pop_back();
        Value& a = vals_.back();
        int c = 0;
        if (!Value::TryCompare(a, b, &c)) {
          return Value::Compare(a, b).status();
        }
        bool out = false;
        switch (in.op) {
          case Op::kCmpEq:
            out = c == 0;
            break;
          case Op::kCmpNe:
            out = c != 0;
            break;
          case Op::kCmpLt:
            out = c < 0;
            break;
          case Op::kCmpLe:
            out = c <= 0;
            break;
          case Op::kCmpGt:
            out = c > 0;
            break;
          default:
            out = c >= 0;
            break;
        }
        a = Value::Int4(out ? 1 : 0);
        break;
      }
      case Op::kNot: {
        Value& a = vals_.back();
        a = Value::Int4(Truthy(a) ? 0 : 1);
        break;
      }
      case Op::kNeg: {
        Value& a = vals_.back();
        if (a.is_integer()) {
          a = Value::Int4(-a.AsInt());
        } else if (a.type() == TypeId::kFloat8) {
          a = Value::Float8(-a.AsDouble());
        } else {
          return Status::Invalid("unary minus requires a numeric operand");
        }
        break;
      }
      case Op::kAndJump: {
        bool t = Truthy(vals_.back());
        vals_.pop_back();
        if (!t) {
          vals_.push_back(Value::Int4(0));
          i = static_cast<size_t>(in.a);
        }
        break;
      }
      case Op::kOrJump: {
        bool t = Truthy(vals_.back());
        vals_.pop_back();
        if (t) {
          vals_.push_back(Value::Int4(1));
          i = static_cast<size_t>(in.a);
        }
        break;
      }
      case Op::kCoerceBool: {
        Value& a = vals_.back();
        a = Value::Int4(Truthy(a) ? 1 : 0);
        break;
      }
      case Op::kIvalVar: {
        if (in.a < 0 || static_cast<size_t>(in.a) >= binding.size() ||
            binding[static_cast<size_t>(in.a)] == nullptr) {
          return Status::Internal("temporal variable '" + in.sval +
                                  "' evaluated without a bound tuple");
        }
        ivals_.push_back(binding[static_cast<size_t>(in.a)]->valid);
        break;
      }
      case Op::kIvalConst:
        ivals_.push_back(Interval::Event(in.tval));
        break;
      case Op::kIvalNow:
        ivals_.push_back(Interval::Event(now));
        break;
      case Op::kIvalStart: {
        Interval& a = ivals_.back();
        a = Interval::Event(a.from);
        break;
      }
      case Op::kIvalEnd: {
        Interval& a = ivals_.back();
        a = Interval::Event(a.to);
        break;
      }
      case Op::kIvalIntersect: {
        Interval b = ivals_.back();
        ivals_.pop_back();
        Interval& a = ivals_.back();
        a = Interval::Intersect(a, b);
        break;
      }
      case Op::kIvalSpan: {
        Interval b = ivals_.back();
        ivals_.pop_back();
        Interval& a = ivals_.back();
        a = Interval::Span(a, b);
        break;
      }
      case Op::kPredPrecede: {
        Interval b = ivals_.back();
        ivals_.pop_back();
        Interval a = ivals_.back();
        ivals_.pop_back();
        bools_.push_back(a.Precedes(b) ? 1 : 0);
        break;
      }
      case Op::kPredOverlap: {
        Interval b = ivals_.back();
        ivals_.pop_back();
        Interval a = ivals_.back();
        ivals_.pop_back();
        bools_.push_back(a.Overlaps(b) ? 1 : 0);
        break;
      }
      case Op::kPredEqual: {
        Interval b = ivals_.back();
        ivals_.pop_back();
        Interval a = ivals_.back();
        ivals_.pop_back();
        bools_.push_back(a == b ? 1 : 0);
        break;
      }
      case Op::kPredNonEmpty: {
        Interval a = ivals_.back();
        ivals_.pop_back();
        bools_.push_back(a.empty() ? 0 : 1);
        break;
      }
      case Op::kPredNot:
        bools_.back() = bools_.back() ? 0 : 1;
        break;
      case Op::kPredAndJump:
        if (!bools_.back()) {
          i = static_cast<size_t>(in.a);
        } else {
          bools_.pop_back();
        }
        break;
      case Op::kPredOrJump:
        if (bools_.back()) {
          i = static_cast<size_t>(in.a);
        } else {
          bools_.pop_back();
        }
        break;
    }
  }
  return Status::OK();
}

Result<Value> CompiledProgram::Eval(const Binding& binding,
                                    TimePoint now) const {
  TDB_RETURN_NOT_OK(Run(binding, now));
  return std::move(vals_.back());
}

Result<bool> CompiledProgram::EvalBool(const Binding& binding,
                                       TimePoint now) const {
  TDB_RETURN_NOT_OK(Run(binding, now));
  return Truthy(vals_.back());
}

Result<Interval> CompiledProgram::EvalInterval(const Binding& binding,
                                               TimePoint now) const {
  TDB_RETURN_NOT_OK(Run(binding, now));
  return ivals_.back();
}

Result<bool> CompiledProgram::EvalPred(const Binding& binding,
                                       TimePoint now) const {
  TDB_RETURN_NOT_OK(Run(binding, now));
  return bools_.back() != 0;
}

// ---------------------------------------------------------------------------
// Batch execution
// ---------------------------------------------------------------------------

namespace {

// Local replicas of the record codec's little-endian helpers (they live in
// schema.cc's anonymous namespace); the decode must match DecodeAttr bit
// for bit so kernel and interpreter agree on every value.
inline uint64_t BatchGetIntLE(const uint8_t* p, size_t width) {
  uint64_t v = 0;
  for (size_t i = 0; i < width; ++i) {
    v |= static_cast<uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

inline int64_t BatchSignExtend(uint64_t v, size_t width) {
  if (width >= 8) return static_cast<int64_t>(v);
  uint64_t sign = 1ULL << (8 * width - 1);
  if (v & sign) v |= ~((sign << 1) - 1);
  return static_cast<int64_t>(v);
}

/// Valid-time lifespan decoded straight from the record bytes — the same
/// derivation RefreshIntervals performs through attr().AsTime().  Events
/// share one stored attribute (valid_from_index == valid_to_index), so
/// they decode to the degenerate [t, t] exactly as in the scalar path.
inline Interval DecodeValidInterval(const Schema& schema, const uint8_t* rec) {
  int from_idx = schema.valid_from_index();
  if (from_idx < 0) {
    return Interval(TimePoint::Beginning(), TimePoint::Forever());
  }
  auto at = [&](int idx) {
    return TimePoint(static_cast<int32_t>(
        BatchGetIntLE(rec + schema.offset(static_cast<size_t>(idx)), 4)));
  };
  return Interval(at(from_idx), at(schema.valid_to_index()));
}

}  // namespace

struct CompiledProgram::BatchKernelCache {
  // --- scalar: AND-chain of `column OP integer-constant` compares ---
  struct CmpUnit {
    int var = 0;
    int attr = 0;
    Op op = Op::kCmpEq;  // normalized to (column OP constant)
    int64_t rhs = 0;
    std::string name;  // column name for the unbound-tuple error
  };
  bool scalar_kernel = false;
  std::vector<CmpUnit> units;

  // --- predicate: one temporal predicate, var interval vs constant ---
  enum class IvalSel : uint8_t { kWhole, kStart, kEnd };
  bool pred_kernel = false;
  int pred_var = 0;
  IvalSel pred_sel = IvalSel::kWhole;
  Op pred_op = Op::kPredOverlap;  // kPredPrecede / kPredOverlap / kPredEqual
  bool var_is_left = true;
  bool negate = false;
  bool const_is_now = false;  // constant side is `now`, resolved per call
  TimePoint const_time;
};

namespace {

/// Branch-light selection-vector compaction: decode a W-byte little-endian
/// integer at `off` in every live record and keep the rows where `cmp`
/// holds.  The store is unconditional and the increment predicated, so the
/// loop carries no data-dependent branch.
template <size_t W, typename Cmp>
size_t CompactCmp(const Morsel& m, uint16_t off, Cmp cmp, SelVec* sel) {
  size_t out = 0;
  for (uint16_t idx : *sel) {
    int64_t v = BatchSignExtend(BatchGetIntLE(m.rec(idx) + off, W), W);
    (*sel)[out] = idx;
    out += cmp(v) ? 1 : 0;
  }
  return out;
}

}  // namespace

const CompiledProgram::BatchKernelCache& CompiledProgram::Analysis() const {
  if (batch_cache_ != nullptr) return *batch_cache_;
  auto cache = std::make_shared<BatchKernelCache>();
  const size_t n = code_.size();

  if (kind_ == Kind::kScalar) {
    // Grammar: unit (AndJump unit CoerceBool)*, a unit being the three
    // instructions of one column-vs-integer-constant compare, with every
    // AndJump landing immediately after its matching CoerceBool (the shape
    // EmitExpr produces for left-associated AND chains).  Refining the
    // selection by each unit in order is then exactly the interpreter's
    // short-circuit evaluation.
    auto parse_unit = [&](size_t pos, BatchKernelCache::CmpUnit* u) {
      if (pos + 3 > n) return false;
      const Instr& i0 = code_[pos];
      const Instr& i1 = code_[pos + 1];
      const Instr& cmp = code_[pos + 2];
      bool col_first;
      if (i0.op == Op::kLoadCol && i1.op == Op::kPushInt) {
        col_first = true;
      } else if (i0.op == Op::kPushInt && i1.op == Op::kLoadCol) {
        col_first = false;
      } else {
        return false;
      }
      switch (cmp.op) {
        case Op::kCmpEq:
        case Op::kCmpNe:
        case Op::kCmpLt:
        case Op::kCmpLe:
        case Op::kCmpGt:
        case Op::kCmpGe:
          break;
        default:
          return false;
      }
      const Instr& col = col_first ? i0 : i1;
      const Instr& cst = col_first ? i1 : i0;
      u->var = col.a;
      u->attr = col.b;
      u->name = col.sval;
      u->rhs = cst.ival;
      u->op = cmp.op;
      if (!col_first) {
        // constant OP column → column mirrored-OP constant
        switch (cmp.op) {
          case Op::kCmpLt:
            u->op = Op::kCmpGt;
            break;
          case Op::kCmpLe:
            u->op = Op::kCmpGe;
            break;
          case Op::kCmpGt:
            u->op = Op::kCmpLt;
            break;
          case Op::kCmpGe:
            u->op = Op::kCmpLe;
            break;
          default:
            break;  // Eq / Ne are symmetric
        }
      }
      return true;
    };
    BatchKernelCache::CmpUnit u;
    if (parse_unit(0, &u)) {
      cache->units.push_back(u);
      size_t pos = 3;
      bool ok = true;
      while (ok && pos < n) {
        if (code_[pos].op != Op::kAndJump || !parse_unit(pos + 1, &u) ||
            pos + 4 >= n || code_[pos + 4].op != Op::kCoerceBool ||
            static_cast<size_t>(code_[pos].a) != pos + 5) {
          ok = false;
          break;
        }
        cache->units.push_back(u);
        pos += 5;
      }
      cache->scalar_kernel = ok && pos == n;
    }
    if (!cache->scalar_kernel) cache->units.clear();
  }

  if (kind_ == Kind::kPredicate) {
    // Grammar: side side PredOp [PredNot], one side being the variable's
    // interval (optionally `start of` / `end of`) and the other a constant
    // or `now` event.  `start of` / `end of` an event is the event itself,
    // so the transform folds away on the constant side.
    struct Side {
      bool is_var = false;
      int var = 0;
      BatchKernelCache::IvalSel sel = BatchKernelCache::IvalSel::kWhole;
      bool is_now = false;
      TimePoint time;
      size_t len = 0;
    };
    auto parse_side = [&](size_t pos, Side* s) {
      if (pos >= n) return false;
      const Instr& i0 = code_[pos];
      if (i0.op == Op::kIvalVar) {
        s->is_var = true;
        s->var = i0.a;
      } else if (i0.op == Op::kIvalConst) {
        s->is_var = false;
        s->is_now = false;
        s->time = i0.tval;
      } else if (i0.op == Op::kIvalNow) {
        s->is_var = false;
        s->is_now = true;
      } else {
        return false;
      }
      s->len = 1;
      s->sel = BatchKernelCache::IvalSel::kWhole;
      if (pos + 1 < n && (code_[pos + 1].op == Op::kIvalStart ||
                          code_[pos + 1].op == Op::kIvalEnd)) {
        s->sel = code_[pos + 1].op == Op::kIvalStart
                     ? BatchKernelCache::IvalSel::kStart
                     : BatchKernelCache::IvalSel::kEnd;
        s->len = 2;
      }
      return true;
    };
    Side s1, s2;
    if (parse_side(0, &s1) && parse_side(s1.len, &s2)) {
      size_t pos = s1.len + s2.len;
      if (pos < n && (code_[pos].op == Op::kPredPrecede ||
                      code_[pos].op == Op::kPredOverlap ||
                      code_[pos].op == Op::kPredEqual)) {
        Op pop = code_[pos].op;
        ++pos;
        bool neg = false;
        if (pos < n && code_[pos].op == Op::kPredNot) {
          neg = true;
          ++pos;
        }
        if (pos == n && s1.is_var != s2.is_var) {
          const Side& vs = s1.is_var ? s1 : s2;
          const Side& cs = s1.is_var ? s2 : s1;
          cache->pred_kernel = true;
          cache->pred_var = vs.var;
          cache->pred_sel = vs.sel;
          cache->pred_op = pop;
          cache->var_is_left = s1.is_var;
          cache->negate = neg;
          cache->const_is_now = cs.is_now;
          cache->const_time = cs.time;
        }
      }
    }
  }

  batch_cache_ = std::move(cache);
  return *batch_cache_;
}

Status CompiledProgram::EvalBatchGeneric(const Schema& schema, int var,
                                         const Morsel& m, Binding* binding,
                                         VersionRef* scratch, TimePoint now,
                                         SelVec* sel) const {
  if (var < 0 || static_cast<size_t>(var) >= binding->size()) {
    return Status::Internal("batch filter variable out of range");
  }
  (*binding)[static_cast<size_t>(var)] = scratch;
  size_t out = 0;
  for (uint16_t idx : *sel) {
    scratch->BindRaw(schema, m.rec(idx));
    Result<bool> pass = kind_ == Kind::kPredicate ? EvalPred(*binding, now)
                                                  : EvalBool(*binding, now);
    if (!pass.ok()) {
      (*binding)[static_cast<size_t>(var)] = nullptr;
      return pass.status();
    }
    if (*pass) (*sel)[out++] = idx;
  }
  (*binding)[static_cast<size_t>(var)] = nullptr;
  sel->resize(out);
  return Status::OK();
}

Status CompiledProgram::EvalBoolBatch(const Schema& schema, int var,
                                      const Morsel& m, Binding* binding,
                                      VersionRef* scratch, TimePoint now,
                                      SelVec* sel) const {
  const BatchKernelCache& k = Analysis();
  if (!k.scalar_kernel) {
    return EvalBatchGeneric(schema, var, m, binding, scratch, now, sel);
  }
  // The fixed-width kernels only cover integer attributes of the morsel's
  // variable; anything else (float promotion, char/time operands whose
  // compare errors) takes the interpreter so semantics stay identical.
  for (const auto& u : k.units) {
    if (u.var != var) continue;
    TypeId t = schema.attr(static_cast<size_t>(u.attr)).type;
    if (t != TypeId::kInt1 && t != TypeId::kInt2 && t != TypeId::kInt4) {
      return EvalBatchGeneric(schema, var, m, binding, scratch, now, sel);
    }
  }
  for (const auto& u : k.units) {
    if (sel->empty()) return Status::OK();
    if (u.var != var) {
      // Outer variable: one value for the whole morsel — compare once.
      if (u.var < 0 || static_cast<size_t>(u.var) >= binding->size() ||
          (*binding)[static_cast<size_t>(u.var)] == nullptr) {
        return Status::Internal("column '" + u.name +
                                "' evaluated without a bound tuple");
      }
      const Value& cv = (*binding)[static_cast<size_t>(u.var)]->attr(
          static_cast<size_t>(u.attr));
      Value rhs = Value::Int4(u.rhs);
      int c = 0;
      if (!Value::TryCompare(cv, rhs, &c)) {
        return Value::Compare(cv, rhs).status();
      }
      bool pass = false;
      switch (u.op) {
        case Op::kCmpEq:
          pass = c == 0;
          break;
        case Op::kCmpNe:
          pass = c != 0;
          break;
        case Op::kCmpLt:
          pass = c < 0;
          break;
        case Op::kCmpLe:
          pass = c <= 0;
          break;
        case Op::kCmpGt:
          pass = c > 0;
          break;
        default:
          pass = c >= 0;
          break;
      }
      if (!pass) sel->clear();
      continue;
    }
    const uint16_t off = schema.offset(static_cast<size_t>(u.attr));
    const size_t w = schema.attr(static_cast<size_t>(u.attr)).width;
    const int64_t rhs = u.rhs;
    auto run_cmp = [&](auto cmp) {
      size_t out;
      switch (w) {
        case 1:
          out = CompactCmp<1>(m, off, cmp, sel);
          break;
        case 2:
          out = CompactCmp<2>(m, off, cmp, sel);
          break;
        default:
          out = CompactCmp<4>(m, off, cmp, sel);
          break;
      }
      sel->resize(out);
    };
    switch (u.op) {
      case Op::kCmpEq:
        run_cmp([rhs](int64_t v) { return v == rhs; });
        break;
      case Op::kCmpNe:
        run_cmp([rhs](int64_t v) { return v != rhs; });
        break;
      case Op::kCmpLt:
        run_cmp([rhs](int64_t v) { return v < rhs; });
        break;
      case Op::kCmpLe:
        run_cmp([rhs](int64_t v) { return v <= rhs; });
        break;
      case Op::kCmpGt:
        run_cmp([rhs](int64_t v) { return v > rhs; });
        break;
      default:
        run_cmp([rhs](int64_t v) { return v >= rhs; });
        break;
    }
  }
  return Status::OK();
}

Status CompiledProgram::EvalPredBatch(const Schema& schema, int var,
                                      const Morsel& m, Binding* binding,
                                      VersionRef* scratch, TimePoint now,
                                      SelVec* sel) const {
  const BatchKernelCache& k = Analysis();
  if (!k.pred_kernel || k.pred_var != var) {
    return EvalBatchGeneric(schema, var, m, binding, scratch, now, sel);
  }
  const Interval cst = Interval::Event(k.const_is_now ? now : k.const_time);
  size_t out = 0;
  for (uint16_t idx : *sel) {
    Interval v = DecodeValidInterval(schema, m.rec(idx));
    switch (k.pred_sel) {
      case BatchKernelCache::IvalSel::kStart:
        v = Interval::Event(v.from);
        break;
      case BatchKernelCache::IvalSel::kEnd:
        v = Interval::Event(v.to);
        break;
      default:
        break;
    }
    const Interval& a = k.var_is_left ? v : cst;
    const Interval& b = k.var_is_left ? cst : v;
    bool r;
    switch (k.pred_op) {
      case Op::kPredPrecede:
        r = a.Precedes(b);
        break;
      case Op::kPredEqual:
        r = a == b;
        break;
      default:
        r = a.Overlaps(b);
        break;
    }
    r = r != k.negate;
    (*sel)[out] = idx;
    out += r ? 1 : 0;
  }
  sel->resize(out);
  return Status::OK();
}

}  // namespace tdb
