#ifndef CHRONOQUEL_EXEC_QUERY_EXECUTOR_H_
#define CHRONOQUEL_EXEC_QUERY_EXECUTOR_H_

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/result_set.h"
#include "exec/eval.h"
#include "exec/exec_env.h"
#include "exec/plan.h"
#include "exec/planner.h"
#include "exec/version_source.h"
#include "tquel/ast.h"
#include "tquel/binder.h"

namespace tdb {

struct RowProjector;  // query_executor.cc
template <typename T>
class PerWorker;  // query_executor.cc

/// Interprets the physical plan BuildPlan produces for a retrieve
/// statement.  All access-path and join-order decisions were made by the
/// planner; this class only evaluates the tree, the way the prototype (and
/// Ingres) executes it:
///   * an access leaf streams one variable's versions through the chosen
///     path (hashed/ISAM lookup, secondary index, key range, or scan);
///   * a FilterNode applies that level's residual where/when conjuncts;
///   * a NestedLoopNode iterates its levels left-deep;
///   * a SubstitutionNode detaches the outer variable into a temporary
///     relation, then probes the keyed inner variable per temp row (the
///     asymmetric Q09/Q10 plans).
/// While executing it annotates every node's PlanNodeStats — loops, rows,
/// and page I/O scoped via IoCounters deltas — and attaches the annotated
/// plan to the ExecResult.
class QueryExecutor {
 public:
  explicit QueryExecutor(const ExecEnv& env)
      : env_(env), eval_(env.now, env.params) {}

  /// Executes a retrieve.  `prebuilt`, when given, skips planning and
  /// interprets the supplied plan instead — the plan-cache path; it must
  /// have been cloned for this execution (fresh stats, relation handles
  /// resolved against this env) and `stmt` is treated as read-only so a
  /// cached AST can be shared across sessions.
  Result<ExecResult> Retrieve(RetrieveStmt* stmt, const BoundStatement& bound,
                              std::shared_ptr<PhysicalPlan> prebuilt = nullptr);

 private:
  /// Callback receiving each fully-bound row candidate.
  using EmitFn = std::function<Status(const Binding&)>;

  /// Pre-computes aggregate target sub-expressions into constants.
  Status FoldAggregates(RetrieveStmt* stmt, const BoundStatement& bound);
  Status FoldAggregate(Expr* expr, const BoundStatement& bound);

  /// True when the version's transaction interval qualifies under `as of`.
  bool QualifiesAsOf(const Interval& tx) const;

  /// Evaluates a FilterNode's residual conjuncts against the binding.
  Result<bool> EvalFilter(const FilterNode& filter, const Binding& binding);

  /// Runs one nesting level (FilterNode or access leaf), calling `body` per
  /// version that passes the level's as-of check and residual filters.
  Status ExecuteLevel(PlanNode* level, Binding* binding, const EmitFn& body);

  /// Streams an access leaf, accumulating its stats and I/O.
  Status ExecuteAccess(AccessNode* node, Binding* binding, const EmitFn& body);

  // --- vectorized (morsel-at-a-time) variants, used when env_.vector_exec
  // and the level is safe to batch (see ExecuteNestedLoop's routing rule) ---

  /// Morsel-driven ExecuteLevel: fuses the level's access leaf and optional
  /// FilterNode — versions are gathered in batches, the as-of check and the
  /// residual conjuncts run as selection-vector kernels, and `body` is
  /// invoked per surviving row.  Row/IO/loop stats match the tuple path.
  Status ExecuteLevelVectorized(PlanNode* level, Binding* binding,
                                const EmitFn& body);
  Status ExecuteAccessVectorized(AccessNode* node, FilterNode* filter,
                                 Binding* binding, const EmitFn& body);

  /// Drops from `sel` the morsel rows whose transaction interval fails the
  /// statement's as-of qualification.  Only called for schemas with
  /// transaction time.
  void FilterAsOfBatch(const Schema& schema, const Morsel& m,
                       SelVec* sel) const;

  /// Batch form of EvalFilter over `sel` (refined in place).  Uses the
  /// compiled batch kernels when the node's conjuncts all compiled,
  /// otherwise interprets the ASTs row by row through `scratch`.
  Status EvalFilterBatch(const FilterNode& filter, const Schema& schema,
                         int var, const Morsel& m, Binding* binding,
                         VersionRef* scratch, SelVec* sel);

  /// EvalFilter / EvalFilterBatch against caller-owned compiled-program
  /// copies: a CompiledProgram's operand stacks are per-object scratch, so
  /// parallel scan workers must never share the plan node's own programs.
  /// `compiled` is the node's all-or-nothing lowering gate, pre-computed.
  Result<bool> EvalFilterWith(const FilterNode& filter,
                              const std::vector<CompiledProgram>& where_prog,
                              const std::vector<CompiledProgram>& when_prog,
                              bool compiled, const Binding& binding) const;
  Status EvalFilterBatchWith(const FilterNode& filter,
                             const std::vector<CompiledProgram>& where_prog,
                             const std::vector<CompiledProgram>& when_prog,
                             bool compiled, const Schema& schema, int var,
                             const Morsel& m, Binding* binding,
                             VersionRef* scratch, SelVec* sel) const;

  // --- morsel-driven intra-query parallelism (see exec/worker_pool.h) ---

  /// A planned parallel scan: the sequential-scan leaf (with its optional
  /// fused FilterNode) plus the store chunks workers claim.
  struct ParScan {
    AccessNode* node = nullptr;
    FilterNode* filter = nullptr;
    std::vector<ScanChunk> chunks;
    /// Every store sits in an uncapped shared pool, read in place under
    /// each worker's own pins; otherwise every page-range store has a
    /// single frame, read through copy-outs.
    bool pooled = false;
  };

  /// Row counters of a parallel scan, accumulated per worker and added to
  /// the plan nodes after the pool joins, so the annotated stats are
  /// identical to a serial run at any thread count.
  struct ChunkStats {
    uint64_t examined = 0;
    uint64_t emitted = 0;
    uint64_t filter_examined = 0;
    uint64_t filter_emitted = 0;
  };

  struct ScanWorkerState;  // per-worker scratch, defined in the .cc

  /// Receives each surviving row of a parallel scan ON A WORKER THREAD:
  /// `worker` (< exec_threads) indexes per-worker state such as projector
  /// copies, `task` is the chunk index (index per-task output buffers with
  /// it; one worker owns a task at a time), `binding` is the worker's
  /// private copy with the scanned variable bound.  Must not touch shared
  /// mutable state.
  using ParallelRowFn =
      std::function<Status(int worker, size_t task, Binding* binding)>;

  /// Decides whether `level` — an access leaf, optionally under a
  /// FilterNode — can run as a parallel scan.  Requires >= 2 exec threads,
  /// the vectorized engine, no active I/O trace (workers would interleave
  /// its per-page log), a plain kSeqScan leaf, >= 2 chunks, and either
  /// every store in an uncapped shared pool or the paper's single frame on
  /// every page-range store (the I/O replay rules below are derived for
  /// exactly that configuration).
  std::optional<ParScan> TryPlanParallelScan(PlanNode* level);

  /// Runs the scan's chunks on the shared worker pool, calling `row` per
  /// surviving version.  Deterministic by construction: chunks are cut in
  /// the serial visit order, claimed via an atomic counter, and every
  /// merge (stats, errors, and the caller's per-task outputs) happens
  /// after the join, the ordered ones in chunk order.  For single-frame
  /// stores, buffer-frame normalization before dispatch plus re-priming
  /// after it keep the relation's IoCounters bit-identical to the serial
  /// scan's at any thread count.
  Status RunParallelScan(ParScan* ps, const Binding& binding,
                         const ParallelRowFn& row);

  /// Scans one chunk on a worker: page-range chunks replay the serial
  /// cursor's slot walk over frames the worker pins (pool stores) or over
  /// private copies read through Pager::ReadPageInto (single-frame stores),
  /// setting `*last_read` to the last page read; use_cursor chunks stream
  /// the store's ordinary Scan() (that worker is the store's only reader).
  Status ProcessScanChunk(const ParScan& ps, const ScanChunk& chunk,
                          size_t task, ScanWorkerState* ws,
                          const ParallelRowFn& row,
                          uint32_t* last_read) const;

  Status ExecuteNestedLoop(NestedLoopNode* node, size_t level,
                           Binding* binding, const EmitFn& emit);
  /// The nested loop's innermost level for the outer levels' versions in
  /// `binding`, as the parallel scan `nlj_par_`: workers project rows into
  /// per-chunk buffers, which drain through the root sink in chunk order.
  Status ExecuteInnermostParallel(NestedLoopNode* node,
                                  const Binding& binding);
  Status ExecuteSubstitution(SubstitutionNode* node, Binding* binding,
                             const EmitFn& emit);

  // --- the substitution's probe phase ---

  /// Reads the next temp row of a substitution, expanded to the outer
  /// schema, into `ref`; false at the end.
  using TempRowFn = std::function<Result<bool>(VersionRef* ref)>;

  /// Row counts of a substitution's probe phase, kept per batch by the
  /// parallel workers and added to the plan nodes in batch order.
  struct ProbeCounts {
    uint64_t probes = 0;  // inner access loops: one per run of equal keys
    uint64_t examined = 0;
    uint64_t access_emitted = 0;
    uint64_t temp_rows = 0;  // inner filter loops
    uint64_t filter_examined = 0;
    uint64_t filter_emitted = 0;
    uint64_t emitted = 0;  // the substitution node's rows

    void AddTo(SubstitutionNode* node) const;
  };

  /// The inner level for one temp row (bound in `binding`): binds each of
  /// `matches` that qualifies `as of` and passes the inner filter, run
  /// through `where_prog`/`when_prog` (the filter's programs or a
  /// worker's copies), and passes the binding to `out`.
  Status MatchInner(SubstitutionNode* node,
                    const std::vector<VersionRef>& matches,
                    const std::vector<CompiledProgram>& where_prog,
                    const std::vector<CompiledProgram>& when_prog,
                    Binding* binding, ProbeCounts* counts,
                    const EmitFn& out) const;

  /// Whether the probe phase may run on the worker pool: >= 2 exec
  /// threads, the root's split emit path, no active I/O trace, a keyed
  /// inner access, and every inner store in an uncapped shared pool.
  bool ProbesRunInParallel(SubstitutionNode* node) const;

  /// Probes the inner variable once per distinct key of consecutive temp
  /// rows and emits each qualifying pair, on the calling thread.
  Status ProbeSerial(SubstitutionNode* node, Binding* binding,
                     const TempRowFn& next_row, const EmitFn& emit);

  /// The same probes on the worker pool.  Temp rows and their probe keys
  /// are read in bounded rounds, cut into batches where the key changes;
  /// while one round is probed, one worker reads the next.  Each worker
  /// probes through its own VersionSource, pins (a BufferPool::ReaderScope)
  /// and filter-program copies, projecting rows into its batch.  Batches
  /// merge in order through the root sink on the calling thread, so rows,
  /// node stats and page requests equal ProbeSerial's.
  Status ProbeParallel(SubstitutionNode* node, const Binding& binding,
                       const TempRowFn& next_row);

  /// Batched hash join (cost-based planning): runs the build side to
  /// completion into an in-memory table keyed on the normalized build-key
  /// value, then streams the probe side — both sides morsel-batched when
  /// vectorized execution is on — emitting per matching pair that passes
  /// the residual filter.
  Status ExecuteHashJoin(HashJoinNode* node, Binding* binding,
                         const EmitFn& emit);
  /// Sort/merge temporal interval join (cost-based planning): materializes
  /// both sides, sorts by valid-interval start, and sweeps with two
  /// pointers emitting pairs whose valid intervals overlap.
  Status ExecuteIntervalJoin(IntervalJoinNode* node, Binding* binding,
                             const EmitFn& emit);

  /// Builds the AccessSpec (evaluating the probe expression) for a leaf.
  Result<AccessSpec> SpecFor(const AccessNode& node,
                             const Binding& binding) const;

  ExecEnv env_;
  Evaluator eval_;

  // Per-statement state.
  /// True when the owning Database has a metrics registry wired: per-node
  /// wall clocks run and trace spans record.  False keeps the clock out of
  /// the hot path entirely (the zero-cost-when-disabled guarantee).
  bool timing_ = false;
  RetrieveStmt* stmt_ = nullptr;
  std::vector<Relation*> rels_;  // per bound variable
  TimePoint as_of_at_;
  bool has_through_ = false;
  TimePoint as_of_through_;
  int temp_counter_ = 0;

  /// True when this statement runs the morsel-driven engine
  /// (ExecEnv::vector_exec).
  bool vectorized_ = false;
  /// Root projector/sink split of Retrieve's emit path, wired while a
  /// statement runs: the projector is the thread-safe row-building half
  /// (copied per parallel-probe task), the sink the ordering-sensitive
  /// half (`unique` dedup + result push) that stays on the coordinator.
  const RowProjector* root_proj_ = nullptr;
  const std::function<Status(Row&&)>* root_sink_ = nullptr;
  /// Within a nested loop: true when every level reads a distinct relation.
  /// Zero-copy morsels pin one buffer frame of their relation's pager, so a
  /// non-innermost level may batch only if the levels below it never touch
  /// the same pager (a self-join's inner rescans would both evict the
  /// outer's pinned frame and change the re-read counts).  The innermost
  /// level is always safe: its per-row body does no page I/O.
  bool nlj_distinct_rels_ = true;
  /// Within a nested loop under the root's split emit path: the innermost
  /// level's parallel scan, planned once, or null when it runs serially,
  /// and the workers' projector copies, which serve every outer row.
  ParScan* nlj_par_ = nullptr;
  PerWorker<RowProjector>* nlj_projs_ = nullptr;

  /// Reusable per-level batch state (morsel arena, selection vector, and the
  /// scratch VersionRef rows are bound through).  Pooled so inner levels —
  /// reopened once per outer row — do not reallocate every time.
  struct VecScratch {
    Morsel morsel;
    SelVec sel;
    VersionRef ref;
  };
  std::unique_ptr<VecScratch> AcquireVecScratch();
  void ReleaseVecScratch(std::unique_ptr<VecScratch> s);
  std::vector<std::unique_ptr<VecScratch>> vec_pool_;
};

}  // namespace tdb

#endif  // CHRONOQUEL_EXEC_QUERY_EXECUTOR_H_
