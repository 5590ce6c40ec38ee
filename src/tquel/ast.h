#ifndef CHRONOQUEL_TQUEL_AST_H_
#define CHRONOQUEL_TQUEL_AST_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "types/timepoint.h"
#include "types/value.h"

namespace tdb {

// ---------------------------------------------------------------------------
// Value expressions (where clause, target lists)
// ---------------------------------------------------------------------------

/// Binary / unary operators of Quel expressions.
enum class ExprOp {
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMod,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
  kNot,
  kNeg,  // unary minus
};

/// Quel aggregate functions (supported in one-variable queries).
enum class AggFunc { kCount, kSum, kAvg, kMin, kMax, kAny };

/// A scalar expression tree.  Column references are annotated by the binder
/// (var_index / attr_index / type) before execution.
struct Expr {
  enum class Kind {
    kConstInt,
    kConstFloat,
    kConstString,
    kColumn,
    kBinary,
    kUnary,
    kAggregate,
    kParam,  // $N positional parameter of a prepared statement
  };

  Kind kind;

  // kConst*
  int64_t int_val = 0;
  double float_val = 0;
  std::string str_val;

  // kParam: 1-based position in the `execute` argument list
  int param_index = 0;

  // kColumn: var.attr
  std::string var;
  std::string attr;
  int var_index = -1;   // index into the statement's bound variables
  int attr_index = -1;  // index into the relation's stored schema
  TypeId column_type = TypeId::kInt4;

  // kBinary / kUnary
  ExprOp op = ExprOp::kAdd;
  std::unique_ptr<Expr> left;
  std::unique_ptr<Expr> right;

  // kAggregate: func(arg [by group-expr] [where agg_where])
  AggFunc agg = AggFunc::kCount;
  std::unique_ptr<Expr> agg_arg;
  std::unique_ptr<Expr> agg_by;     // Quel aggregate function: per-group
  std::unique_ptr<Expr> agg_where;
  /// Filled by the executor for `by` aggregates: group key (rendered) ->
  /// aggregate value; plain aggregates are folded to constants instead.
  std::shared_ptr<std::map<std::string, Value>> agg_groups;

  static std::unique_ptr<Expr> Int(int64_t v);
  static std::unique_ptr<Expr> Float(double v);
  static std::unique_ptr<Expr> Str(std::string v);
  static std::unique_ptr<Expr> Column(std::string var, std::string attr);
  static std::unique_ptr<Expr> Binary(ExprOp op, std::unique_ptr<Expr> l,
                                      std::unique_ptr<Expr> r);
  static std::unique_ptr<Expr> Unary(ExprOp op, std::unique_ptr<Expr> e);
  static std::unique_ptr<Expr> Param(int index);

  /// Deep copy, binder annotations included.  `agg_groups` is per
  /// execution and is not copied.
  std::unique_ptr<Expr> Clone() const;

  std::string ToString() const;
};

// ---------------------------------------------------------------------------
// Temporal expressions (valid / when / as-of clauses)
// ---------------------------------------------------------------------------

/// A temporal expression denoting an interval or an event:
///   tuple variable | time constant | now |
///   start of e | end of e | e1 overlap e2 | e1 extend e2
struct TemporalExpr {
  enum class Kind {
    kVar,      // a tuple variable's valid interval
    kConst,    // a time constant (event)
    kNow,      // the current logical time (event)
    kStartOf,  // event: start of operand
    kEndOf,    // event: end of operand
    kOverlap,  // interval: intersection
    kExtend,   // interval: span
  };

  Kind kind;
  std::string var;
  int var_index = -1;
  TimePoint const_time;
  std::unique_ptr<TemporalExpr> left;
  std::unique_ptr<TemporalExpr> right;

  static std::unique_ptr<TemporalExpr> Var(std::string name);
  static std::unique_ptr<TemporalExpr> Const(TimePoint tp);
  static std::unique_ptr<TemporalExpr> Now();
  static std::unique_ptr<TemporalExpr> Make(Kind k,
                                            std::unique_ptr<TemporalExpr> l,
                                            std::unique_ptr<TemporalExpr> r);

  /// Deep copy, binder annotations included.
  std::unique_ptr<TemporalExpr> Clone() const;

  std::string ToString() const;
};

/// A temporal predicate (when clause):
///   e1 precede e2 | e1 overlap e2 | e1 equal e2 |
///   p and p | p or p | not p
/// A bare interval expression used as a predicate tests non-emptiness
/// (so `when h overlap i` means the intervals share an instant).
struct TemporalPred {
  enum class Kind {
    kPrecede,
    kOverlap,
    kEqual,
    kAnd,
    kOr,
    kNot,
    kNonEmpty,  // bare interval expression
  };

  Kind kind;
  std::unique_ptr<TemporalExpr> lexpr;  // comparisons / kNonEmpty
  std::unique_ptr<TemporalExpr> rexpr;
  std::unique_ptr<TemporalPred> left;   // boolean combinations; kNot: left
  std::unique_ptr<TemporalPred> right;

  /// Deep copy, binder annotations included.
  std::unique_ptr<TemporalPred> Clone() const;

  std::string ToString() const;
};

// ---------------------------------------------------------------------------
// Clauses
// ---------------------------------------------------------------------------

/// `valid from e1 to e2` or `valid at e`.
struct ValidClause {
  bool at = false;  // event form
  std::unique_ptr<TemporalExpr> from;  // also carries the `at` expression
  std::unique_ptr<TemporalExpr> to;    // null in the `at` form
};

/// `as of e [through e2]` — the rollback operation.
struct AsOfClause {
  std::unique_ptr<TemporalExpr> at;
  std::unique_ptr<TemporalExpr> through;  // optional
};

/// One element of a target list: `[name =] expr`.
struct TargetItem {
  std::string name;  // may be empty for a bare column reference
  std::unique_ptr<Expr> expr;
};

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

struct Statement {
  enum class Kind {
    kRange,
    kRetrieve,
    kAppend,
    kDelete,
    kReplace,
    kCreate,
    kDestroy,
    kModify,
    kIndex,
    kCopy,
    kHelp,
    kExplain,
    kVacuum,
    kPrepare,
    kExecPrepared,
    kDeallocate,
  };
  explicit Statement(Kind k) : kind(k) {}
  virtual ~Statement() = default;
  Kind kind;
  /// Byte offset of the statement's first token in the script text; lets
  /// error reporting point at the failing statement.
  size_t source_offset = 0;
};

/// `range of t is R`
struct RangeStmt : Statement {
  RangeStmt() : Statement(Kind::kRange) {}
  std::string var;
  std::string relation;
};

/// One `sort by` key: a target name, optionally descending.
struct SortKey {
  std::string target;
  bool descending = false;
  int target_index = -1;  // resolved by the binder
};

/// `retrieve [into R] [unique] (targets) [valid ...] [where ...]
///  [when ...] [as of ...] [sort by name [desc] {, ...}]`
struct RetrieveStmt : Statement {
  RetrieveStmt() : Statement(Kind::kRetrieve) {}
  std::string into;  // empty: return rows to the caller
  bool unique = false;
  std::vector<TargetItem> targets;
  std::optional<ValidClause> valid;
  std::unique_ptr<Expr> where;
  std::unique_ptr<TemporalPred> when;
  std::optional<AsOfClause> as_of;
  std::vector<SortKey> sort_by;

  /// Deep copy of a bound statement: the plan cache keeps one, so that the
  /// plans it shares between sessions alias an AST no session re-binds.
  std::unique_ptr<RetrieveStmt> Clone() const;
};

/// `append to R (a = e, ...) [valid ...] [where ...] [when ...]`
struct AppendStmt : Statement {
  AppendStmt() : Statement(Kind::kAppend) {}
  std::string relation;
  std::vector<TargetItem> targets;
  std::optional<ValidClause> valid;
  std::unique_ptr<Expr> where;
  std::unique_ptr<TemporalPred> when;
};

/// `delete t [valid ...] [where ...] [when ...]` — the valid clause gives
/// the instant the fact stopped holding (defaults to now).
struct DeleteStmt : Statement {
  DeleteStmt() : Statement(Kind::kDelete) {}
  std::string var;
  std::optional<ValidClause> valid;
  std::unique_ptr<Expr> where;
  std::unique_ptr<TemporalPred> when;
};

/// `replace t (a = e, ...) [valid ...] [where ...] [when ...]`
struct ReplaceStmt : Statement {
  ReplaceStmt() : Statement(Kind::kReplace) {}
  std::string var;
  std::vector<TargetItem> targets;
  std::optional<ValidClause> valid;
  std::unique_ptr<Expr> where;
  std::unique_ptr<TemporalPred> when;
};

/// `create [persistent] [interval|event] R (a = i4, ...)`
/// `persistent` adds transaction time; `interval`/`event` adds valid time —
/// their combination selects one of the four database types (Figure 1).
struct CreateStmt : Statement {
  CreateStmt() : Statement(Kind::kCreate) {}
  std::string relation;
  bool persistent = false;          // transaction time
  bool has_valid_time = false;      // interval/event given
  bool event = false;               // event (vs interval)
  struct AttrDef {
    std::string name;
    std::string type_name;  // "i1" "i2" "i4" "f8" "c<N>"
  };
  std::vector<AttrDef> attrs;
};

/// `destroy R`
struct DestroyStmt : Statement {
  DestroyStmt() : Statement(Kind::kDestroy) {}
  std::string relation;
};

/// `vacuum R [before e]` — history maintenance for a two-level relation:
/// migrates every history version whose end stamp precedes `e` (default:
/// now) out of the active history store into cold segment files, keeping
/// the hot store small.  Queries keep seeing every version.
struct VacuumStmt : Statement {
  VacuumStmt() : Statement(Kind::kVacuum) {}
  std::string relation;
  std::unique_ptr<TemporalExpr> before;  // null: everything before now
};

/// `modify R to heap | hash on k | isam on k [where fillfactor = n
///  {, history = clustered|simple}]`
/// The extension `modify R to twolevel hash|isam on k ...` rebuilds R as a
/// two-level store (Section 6).
struct ModifyStmt : Statement {
  ModifyStmt() : Statement(Kind::kModify) {}
  std::string relation;
  std::string organization;  // "heap" | "hash" | "isam"
  bool two_level = false;
  bool clustered_history = false;
  std::string key_attr;  // for hash / isam
  int fillfactor = 100;
};

/// `index on R is I (attr) [with structure = heap|hash, levels = 1|2]`
struct IndexStmt : Statement {
  IndexStmt() : Statement(Kind::kIndex) {}
  std::string relation;
  std::string index_name;
  std::string attr;
  std::string structure = "heap";
  int levels = 1;
};

/// `help` (list relations) or `help R` (describe one relation).
struct HelpStmt : Statement {
  HelpStmt() : Statement(Kind::kHelp) {}
  std::string relation;  // empty: list all
};

/// `copy R from "path"` / `copy R to "path"` — batch input/output with
/// temporal attributes converted to/from human-readable form.
struct CopyStmt : Statement {
  CopyStmt() : Statement(Kind::kCopy) {}
  std::string relation;
  bool from = false;  // true: load, false: dump
  std::string path;
};

/// `prepare name as <statement>` — parses and validates the wrapped
/// statement once; later `execute name (...)` runs it with `$N`
/// parameters bound to the argument list.
struct PrepareStmt : Statement {
  PrepareStmt() : Statement(Kind::kPrepare) {}
  std::string name;
  std::unique_ptr<Statement> inner;
};

/// `execute name` or `execute name (e1, e2, ...)` — arguments are
/// constant expressions supplying `$1..$n` of the prepared statement.
struct ExecPreparedStmt : Statement {
  ExecPreparedStmt() : Statement(Kind::kExecPrepared) {}
  std::string name;
  std::vector<std::unique_ptr<Expr>> args;
  /// Wire-protocol form: the client sent already-decoded argument values
  /// instead of TQuel expressions.  When set, `args` is empty and the
  /// session binds these directly as the statement's parameters.
  std::vector<Value> bound_args;
  bool use_bound_args = false;
  /// Set only by the session running a raw retrieve as an implicit
  /// prepared statement: `name` is then that statement's normalized key,
  /// which no `execute` or `deallocate` text can name.
  bool implicit = false;
};

/// `deallocate name` — drops a prepared statement.
struct DeallocateStmt : Statement {
  DeallocateStmt() : Statement(Kind::kDeallocate) {}
  std::string name;
};

/// `explain retrieve ...` — plans the wrapped query and returns the plan
/// tree as rows, without executing it.
struct ExplainStmt : Statement {
  ExplainStmt() : Statement(Kind::kExplain) {}
  std::unique_ptr<RetrieveStmt> query;
  /// `explain analyze`: execute the query and annotate the printed plan
  /// with per-node runtime stats and wall time.
  bool analyze = false;
};

}  // namespace tdb

#endif  // CHRONOQUEL_TQUEL_AST_H_
