#ifndef CHRONOQUEL_EXEC_COMPILED_EXPR_H_
#define CHRONOQUEL_EXEC_COMPILED_EXPR_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "exec/eval.h"
#include "exec/morsel.h"
#include "temporal/interval.h"
#include "tquel/ast.h"
#include "types/value.h"

namespace tdb {

/// A flat postfix evaluation program lowered from an `Expr`,
/// `TemporalExpr`, or `TemporalPred` tree at plan-build time.  Execution
/// replaces the per-tuple recursive `Evaluator` walk (one virtual-free
/// switch dispatch per instruction, operands on a small reused stack) and
/// reads column operands lazily through `VersionRef::attr`, so a predicate
/// touching two attributes of a 108-byte tuple decodes exactly those two.
///
/// Semantics — including numeric promotion, char blank-padding, division
/// errors, and short-circuit evaluation — are bit-identical to the
/// Evaluator; the program performs no page I/O, so the paper's page-read
/// accounting is structurally unaffected.
///
/// A program reuses its operand stacks across calls and is therefore NOT
/// thread-safe; each executor owns its plan (and thus its programs)
/// exclusively, matching the one-writer-per-Env isolation rule.
class CompiledProgram {
 public:
  enum class Kind : uint8_t { kScalar, kInterval, kPredicate };

  /// Lowers a scalar expression.  Returns nullopt when the tree contains a
  /// construct the compiler does not handle (grouped aggregates) — callers
  /// fall back to the Evaluator for that expression.
  static std::optional<CompiledProgram> CompileExpr(const Expr& expr);

  /// Lowers a temporal expression to an interval program (never fails —
  /// every TemporalExpr kind is supported).
  static CompiledProgram CompileTemporal(const TemporalExpr& expr);

  /// Lowers a temporal predicate to a boolean program (never fails).
  static CompiledProgram CompilePred(const TemporalPred& pred);

  Kind kind() const { return kind_; }
  size_t size() const { return code_.size(); }

  /// Binds one execution's `$N` arguments into the program as constants,
  /// so a parameterized program runs exactly as its literal text would —
  /// batch kernels included.  A `$N` without an argument stays unbound and
  /// fails at evaluation with the Evaluator's message.  Programs compiled
  /// from a shared plan template are bound only on their per-execution
  /// copy.
  void BindParams(const std::vector<Value>& params);

  /// Scalar programs.
  Result<Value> Eval(const Binding& binding, TimePoint now) const;
  Result<bool> EvalBool(const Binding& binding, TimePoint now) const;

  /// Interval programs.
  Result<Interval> EvalInterval(const Binding& binding, TimePoint now) const;

  /// Predicate programs.
  Result<bool> EvalPred(const Binding& binding, TimePoint now) const;

  /// Batch variants over a morsel of raw records (laid out per `schema`)
  /// bound to variable `var`.  `sel` holds the morsel indexes still live
  /// and is refined in place, order preserved; rows outside `sel` are
  /// never evaluated.  `binding` supplies any other (outer) variables;
  /// `scratch` is a caller-owned VersionRef the generic per-row path
  /// rebinds row by row (binding[var] is pointed at it and restored to
  /// null on return).
  ///
  /// Per-row semantics are identical to EvalBool/EvalPred.  The fast path
  /// — an AND-chain of fixed-width integer `attr OP const` compares, or a
  /// single interval predicate against a constant/now — runs branch-light
  /// kernels straight over the record bytes.  The only observable
  /// divergence is error *ordering*: a batch finishes one conjunct over
  /// all live rows before starting the next, so when several rows would
  /// error, a different row's error can surface first (the query fails
  /// either way).
  Status EvalBoolBatch(const Schema& schema, int var, const Morsel& m,
                       Binding* binding, VersionRef* scratch, TimePoint now,
                       SelVec* sel) const;
  Status EvalPredBatch(const Schema& schema, int var, const Morsel& m,
                       Binding* binding, VersionRef* scratch, TimePoint now,
                       SelVec* sel) const;

 private:
  enum class Op : uint8_t {
    // scalar value stack
    kPushInt,     // push Int4(ival)
    kPushFloat,   // push Float8(fval)
    kPushStr,     // push Char(sval)
    kPushTyped,   // push a bound argument of type b: Int1/Int2(ival), Time(tval)
    kPushParam,   // `$a`, not bound (BindParams saw b arguments): fails
    kLoadCol,     // push binding[a]->attr(b)
    kAdd, kSub, kMul, kDiv, kMod,
    kCmpEq, kCmpNe, kCmpLt, kCmpLe, kCmpGt, kCmpGe,
    kNot,         // pop, push Int4(!truthy)
    kNeg,         // pop, push numeric negation
    kAndJump,     // pop; if !truthy push Int4(0) and jump a
    kOrJump,      // pop; if truthy push Int4(1) and jump a
    kCoerceBool,  // pop, push Int4(truthy ? 1 : 0)
    // interval stack
    kIvalVar,     // push binding[a]->valid
    kIvalConst,   // push Event(tval)
    kIvalNow,     // push Event(now)
    kIvalStart, kIvalEnd,        // pop 1, push event
    kIvalIntersect, kIvalSpan,   // pop 2, push 1
    // predicate (bool) stack
    kPredPrecede, kPredOverlap, kPredEqual,  // pop 2 intervals, push bool
    kPredNonEmpty,                           // pop 1 interval, push bool
    kPredNot,                                // invert top bool
    kPredAndJump,  // if !top jump a (keep as result) else pop and continue
    kPredOrJump,   // if top jump a (keep as result) else pop and continue
  };

  struct Instr {
    Op op;
    int32_t a = 0;  // var index or jump target
    int32_t b = 0;  // attr index
    int64_t ival = 0;
    double fval = 0;
    TimePoint tval;
    std::string sval;  // string constant, or name for error messages
  };

  explicit CompiledProgram(Kind kind) : kind_(kind) {}

  bool EmitExpr(const Expr& expr);
  void EmitTemporal(const TemporalExpr& expr);
  void EmitPred(const TemporalPred& pred);

  /// Runs the program; on success the result is the top of the stack
  /// matching kind_.
  Status Run(const Binding& binding, TimePoint now) const;

  /// One-time structural analysis of code_ for the batch kernels; defined
  /// in the .cc.  Shared (not cloned) on program copy — it is derived
  /// purely from the immutable code_.
  struct BatchKernelCache;
  const BatchKernelCache& Analysis() const;
  Status EvalBatchGeneric(const Schema& schema, int var, const Morsel& m,
                          Binding* binding, VersionRef* scratch,
                          TimePoint now, SelVec* sel) const;

  Kind kind_;
  std::vector<Instr> code_;
  mutable std::shared_ptr<BatchKernelCache> batch_cache_;

  // Operand stacks, reused across calls (cleared, capacity kept).
  mutable std::vector<Value> vals_;
  mutable std::vector<Interval> ivals_;
  mutable std::vector<char> bools_;
};

}  // namespace tdb

#endif  // CHRONOQUEL_EXEC_COMPILED_EXPR_H_
