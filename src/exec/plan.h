#ifndef CHRONOQUEL_EXEC_PLAN_H_
#define CHRONOQUEL_EXEC_PLAN_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "exec/compiled_expr.h"
#include "storage/io_stats.h"
#include "tquel/ast.h"
#include "types/timepoint.h"

namespace tdb {

class Relation;
class SecondaryIndex;

/// Runtime statistics accumulated on a plan node while the executor
/// interprets it.  All zero (and `executed` false) for a plan produced by
/// `explain`, which never runs.
struct PlanNodeStats {
  bool executed = false;
  /// Times the operator was (re)opened — inner levels of a nested loop are
  /// reopened once per outer row; a substitution inner probe opens once per
  /// distinct probe key (consecutive equal keys are served from the cache).
  uint64_t loops = 0;
  /// Versions surfaced by the access path (before as-of qualification for
  /// access nodes; before predicate evaluation for filter nodes).
  uint64_t rows_examined = 0;
  /// Rows this node passed to its parent.
  uint64_t rows_emitted = 0;
  /// Page I/O attributed to this node, scoped via IoCounters deltas around
  /// the node's own storage operations (children's I/O is excluded).
  IoCounters io;
  /// Inclusive wall time spent inside this node (children included), summed
  /// over loops.  Populated only when the Database has a metrics registry
  /// wired; stays 0 otherwise so timed renderings remain deterministic.
  uint64_t wall_nanos = 0;
};

/// A node of the physical plan: the tree the planner builds *before*
/// execution and the executor interprets.  Nodes reference expressions in
/// the parsed statement (valid only while it lives) but also pre-render
/// every display string, so an annotated plan attached to an ExecResult can
/// be printed after the statement is gone.
struct PlanNode {
  enum class Kind {
    kSeqScan,       // sequential scan: data + overflow (+ history) pages
    kKeyedLookup,   // hashed / ISAM / B-tree access on the organization key
    kIndexEq,       // secondary-index equality probe
    kRangeScan,     // key-range scan of an order-preserving organization
    kNestedLoop,    // left-deep nested iteration over its levels
    kSubstitution,  // detach outer to a temp, probe keyed inner per temp row
    kHashJoin,      // build a hash table on one side, probe with the other
    kIntervalJoin,  // sort/merge sweep over valid-time intervals (overlap)
    kFilter,        // residual where/when conjuncts applied at one level
    kProject,       // target-list evaluation, unique/sort/into (plan root)
  };

  explicit PlanNode(Kind k) : kind(k) {}
  virtual ~PlanNode() = default;

  Kind kind;
  PlanNodeStats stats;
  /// The cost model's output-cardinality estimate, set only when cost-based
  /// join planning is active.  Negative means "not estimated" and renders
  /// nothing, so paper-mode explain output is byte-identical.
  double est_rows = -1.0;
};

const char* PlanNodeKindName(PlanNode::Kind k);

/// Base of the four leaf access paths: how one tuple variable's versions
/// are produced at its nesting level.  Carries the variable, its relation,
/// and the `current_only` qualifier (skip history stores — set when the
/// statement restricts the variable to current versions).
struct AccessNode : PlanNode {
  explicit AccessNode(Kind k) : PlanNode(k) {}

  int var = -1;               // index into the statement's bound variables
  std::string var_name;       // the range variable, for display
  std::string rel_name;
  Relation* rel = nullptr;    // valid while the owning Database stays open
  bool current_only = false;

  /// `rel:kind` summary fragment, e.g. "bench_h:keyed(current)" — the
  /// historical ExecResult plan-message vocabulary.
  std::string Brief() const;
};

struct SeqScanNode : AccessNode {
  SeqScanNode() : AccessNode(Kind::kSeqScan) {}
};

struct KeyedLookupNode : AccessNode {
  KeyedLookupNode() : AccessNode(Kind::kKeyedLookup) {}
  /// Probe expression; references only variables bound by outer levels.
  const Expr* key_expr = nullptr;
  /// Lowered form of key_expr, built at plan time when compiled evaluation
  /// is enabled and the expression is compilable.
  std::optional<CompiledProgram> key_prog;
  std::string key_text;
};

struct IndexEqNode : AccessNode {
  IndexEqNode() : AccessNode(Kind::kIndexEq) {}
  const Expr* key_expr = nullptr;
  std::optional<CompiledProgram> key_prog;
  std::string key_text;
  SecondaryIndex* index = nullptr;
  std::string index_attr;  // the indexed attribute, for display
};

struct RangeScanNode : AccessNode {
  RangeScanNode() : AccessNode(Kind::kRangeScan) {}
  // Either bound may be null (one-sided range).
  const Expr* lo_expr = nullptr;
  const Expr* hi_expr = nullptr;
  std::optional<CompiledProgram> lo_prog;
  std::optional<CompiledProgram> hi_prog;
  bool lo_inclusive = true;
  bool hi_inclusive = true;
  std::string lo_text;
  std::string hi_text;
};

/// Residual conjuncts applied as its child access node produces versions:
/// the top-level where / when factors whose variables are all bound once
/// this level binds, and that no outer level already applied.
struct FilterNode : PlanNode {
  FilterNode() : PlanNode(Kind::kFilter) {}
  std::vector<const Expr*> where;
  std::vector<const TemporalPred*> when;
  /// Lowered forms of the conjuncts, 1:1 with where / when.  Populated at
  /// plan time only when compiled evaluation is enabled and every conjunct
  /// at this level compiles; otherwise left empty and the executor walks
  /// the ASTs.
  std::vector<CompiledProgram> where_prog;
  std::vector<CompiledProgram> when_prog;
  std::vector<std::string> pred_text;  // rendered, where factors then when
  std::unique_ptr<PlanNode> child;     // the access node this level guards
};

/// Left-deep nested iteration: levels run outermost first; inner levels are
/// reopened per outer row with the outer binding available to their probe
/// expressions.
struct NestedLoopNode : PlanNode {
  NestedLoopNode() : PlanNode(Kind::kNestedLoop) {}
  std::vector<std::unique_ptr<PlanNode>> levels;  // FilterNode or AccessNode
};

/// The Ingres decomposition plan for two-variable queries: one-variable
/// detachment of the outer variable into a temporary relation, then tuple
/// substitution probing the keyed inner variable once per temp row.  The
/// temporary relation's I/O is attributed to this node itself.
struct SubstitutionNode : PlanNode {
  SubstitutionNode() : PlanNode(Kind::kSubstitution) {}
  std::unique_ptr<PlanNode> outer;  // detached into the temp relation
  std::unique_ptr<PlanNode> inner;  // probed per temp row
};

/// The batched hash join (cost-based planning only): the build side runs to
/// completion populating an in-memory table keyed on its join expression,
/// then the probe side streams — vectorized through the morsel machinery
/// when ExecEnv::vector_exec is on — looking up matches per row.  `residual`
/// holds the cross-variable conjuncts beyond the consumed equality; its
/// child stays null (both sides are this node's own children).
struct HashJoinNode : PlanNode {
  HashJoinNode() : PlanNode(Kind::kHashJoin) {}
  std::unique_ptr<PlanNode> build;  // FilterNode or AccessNode
  std::unique_ptr<PlanNode> probe;
  const Expr* build_key = nullptr;  // references only the build variable
  const Expr* probe_key = nullptr;  // references only the probe variable
  std::optional<CompiledProgram> build_prog;
  std::optional<CompiledProgram> probe_prog;
  std::string key_text;  // rendered `build = probe` equality
  /// Residual cross conjuncts evaluated per candidate match (child null).
  FilterNode residual;
};

/// The sort/merge temporal interval join (cost-based planning only): both
/// sides materialize, sort by valid-interval start, and a two-pointer sweep
/// emits pairs whose valid intervals overlap — the consumed `a overlap b`
/// conjunct.  Extra cross conjuncts land in `residual` (child null).
struct IntervalJoinNode : PlanNode {
  IntervalJoinNode() : PlanNode(Kind::kIntervalJoin) {}
  std::unique_ptr<PlanNode> left;
  std::unique_ptr<PlanNode> right;
  std::string pred_text;  // rendered `a overlap b`
  FilterNode residual;
};

/// Root of every retrieve plan: evaluates the target list (plus the default
/// or explicit valid interval), applies `unique` and `sort by`, and
/// materializes `into` when present.  A constant plan — no live variables
/// after aggregate folding — has no child and emits exactly one row.
struct ProjectNode : PlanNode {
  ProjectNode() : PlanNode(Kind::kProject) {}
  std::vector<std::string> target_text;
  bool unique = false;
  bool valid_output = false;  // result carries valid_from / valid_to
  std::string into;           // empty: rows go to the caller
  std::string as_of_text;     // empty: the implicit `as of now`
  std::string sort_text;      // empty: unsorted
  std::unique_ptr<PlanNode> child;  // null: constant plan
};

/// A complete physical plan for one retrieve statement, decided entirely
/// before execution.  The rollback point is evaluated at plan time (it is
/// constant within a statement) so the executor and the explain output
/// agree on it.
struct PhysicalPlan {
  std::unique_ptr<ProjectNode> root;

  // The statement's rollback point: `as of` when given, the logical now
  // otherwise (TQuel's default view of transaction time).
  TimePoint as_of_at;
  bool has_through = false;
  TimePoint as_of_through;

  /// Multi-line tree rendering (the `explain` output).  With `with_stats`,
  /// each line is annotated with the node's runtime statistics — the
  /// post-execution form attached to ExecResult.  `with_timing`
  /// additionally appends each node's wall time (the `explain analyze`
  /// form); the benchmark figures never pass it, keeping their stdout
  /// byte-identical whether or not metrics are compiled in and enabled.
  std::string Describe(bool with_stats = false, bool with_timing = false) const;

  /// One-line access-path summary, e.g. "substitution(a:keyed); b:scan" or
  /// "constant" — byte-compatible with the historical ExecResult message.
  std::string Summary() const;
};

/// The access node beneath `node` (through a FilterNode), or the node
/// itself when it already is one.  Null for composite nodes.
const AccessNode* AccessOf(const PlanNode* node);
AccessNode* AccessOf(PlanNode* node);

}  // namespace tdb

#endif  // CHRONOQUEL_EXEC_PLAN_H_
