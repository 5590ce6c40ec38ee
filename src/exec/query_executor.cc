#include "exec/query_executor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <set>
#include <unordered_map>

#include "exec/worker_pool.h"
#include "obs/metrics.h"
#include "storage/heap_file.h"
#include "storage/page.h"
#include "util/stringx.h"

namespace tdb {

namespace {

/// Pages per parallel-scan chunk.  Fixed (never derived from the thread
/// count) so the chunk boundaries — and therefore every per-chunk merge —
/// are identical at any exec_threads, which is what makes row order,
/// stats, and IoCounters reproducible across thread counts.
constexpr uint32_t kParallelChunkPages = 4;

/// Temp rows per parallel probe batch: a batch takes at least this many and
/// ends only where the probe key changes, so each run of equal keys stays
/// in one batch and is probed once, as the serial loop probes it.
constexpr size_t kProbeBatchRows = 16;
/// Temp rows per round of parallel probes (rounds also end only where the
/// key changes): the first round is small, so probing starts early, and
/// each next one up to kProbeGrowth times larger, up to kProbeRoundRows,
/// which bounds the memory a round holds.
constexpr size_t kProbeFirstRoundRows = 64;
constexpr size_t kProbeGrowth = 3;
constexpr size_t kProbeRoundRows = 1024;

/// True when the planner lowered every conjunct of this filter — the
/// all-or-nothing compiled-path gate both EvalFilter variants share.
bool FilterCompiled(const FilterNode& filter) {
  return filter.where_prog.size() == filter.where.size() &&
         filter.when_prog.size() == filter.when.size() &&
         (!filter.where_prog.empty() || !filter.when_prog.empty());
}

/// Accumulates the scope's wall time into a node's inclusive wall_nanos.
/// Disabled (no clock reads at all) unless the executor runs with timing —
/// i.e. unless the Database has a metrics registry wired.
class ScopedNodeTimer {
 public:
  ScopedNodeTimer(bool enabled, PlanNodeStats* stats)
      : stats_(enabled ? stats : nullptr) {
    if (stats_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedNodeTimer() {
    if (stats_ == nullptr) return;
    stats_->wall_nanos += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
  }

  ScopedNodeTimer(const ScopedNodeTimer&) = delete;
  ScopedNodeTimer& operator=(const ScopedNodeTimer&) = delete;

 private:
  PlanNodeStats* stats_;
  std::chrono::steady_clock::time_point start_;
};

/// Sums a fixed set of per-file IoCounters — the files one plan node's
/// storage operations can touch — so scoping an operation's I/O costs a
/// handful of array adds instead of a registry-wide map walk per tuple.
/// Correct because a VersionSource (or temp-relation operation) only ever
/// performs I/O through the pagers registered here; every other file's
/// counters are provably unchanged across the window.
class IoWindow {
 public:
  void Add(const IoCounters* c) {
    if (c != nullptr) files_.push_back(c);
  }
  void AddRelation(Relation* rel) {
    Add(rel->primary()->pager()->counters());
    if (rel->history() != nullptr) Add(rel->history()->pager()->counters());
    if (rel->anchors() != nullptr) Add(rel->anchors()->pager()->counters());
    for (const auto& idx : rel->indexes()) {
      Add(idx->current_counters());
      Add(idx->history_counters());
    }
  }
  void Begin() { Snapshot(&before_); }
  /// Adds the delta since the last Begin() into `into`.
  void End(IoCounters* into) {
    IoCounters after;
    Snapshot(&after);
    AccumulateDelta(into, before_, after);
  }

 private:
  void Snapshot(IoCounters* out) const {
    out->Reset();
    for (const IoCounters* c : files_) *out += *c;
  }

  std::vector<const IoCounters*> files_;
  IoCounters before_;
};

/// Little-endian int32 load, matching the record codec in types/schema.cc.
int32_t GetI32LE(const uint8_t* p) {
  uint32_t v = static_cast<uint32_t>(p[0]) |
               (static_cast<uint32_t>(p[1]) << 8) |
               (static_cast<uint32_t>(p[2]) << 16) |
               (static_cast<uint32_t>(p[3]) << 24);
  return static_cast<int32_t>(v);
}

/// Infers the output attribute for a target expression (used by
/// `retrieve into` and temp-relation schemas).
Attribute InferAttribute(const std::string& name, const Expr& expr,
                         const std::vector<BoundVar>& vars) {
  Attribute a;
  a.name = name;
  switch (expr.kind) {
    case Expr::Kind::kColumn: {
      const Schema& schema = vars[static_cast<size_t>(expr.var_index)]
                                 .rel->schema;
      a.type = schema.attr(static_cast<size_t>(expr.attr_index)).type;
      a.width = schema.attr(static_cast<size_t>(expr.attr_index)).width;
      return a;
    }
    case Expr::Kind::kConstString:
      a.type = TypeId::kChar;
      a.width = static_cast<uint16_t>(std::max<size_t>(1, expr.str_val.size()));
      return a;
    case Expr::Kind::kConstFloat:
      a.type = TypeId::kFloat8;
      a.width = 8;
      return a;
    case Expr::Kind::kAggregate:
      a.type = (expr.agg == AggFunc::kAvg) ? TypeId::kFloat8 : TypeId::kInt4;
      a.width = TypeWidth(a.type);
      return a;
    default:
      a.type = TypeId::kInt4;
      a.width = 4;
      return a;
  }
}

/// Collects the attribute indexes of `var` referenced by `expr`.
void CollectAttrRefs(const Expr* expr, int var, std::set<int>* out) {
  if (expr == nullptr) return;
  if (expr->kind == Expr::Kind::kColumn) {
    if (expr->var_index == var) out->insert(expr->attr_index);
    return;
  }
  CollectAttrRefs(expr->left.get(), var, out);
  CollectAttrRefs(expr->right.get(), var, out);
  CollectAttrRefs(expr->agg_arg.get(), var, out);
  CollectAttrRefs(expr->agg_where.get(), var, out);
}

}  // namespace

bool QueryExecutor::QualifiesAsOf(const Interval& tx) const {
  if (!has_through_) return tx.Contains(as_of_at_);
  // `as of t1 through t2`: current at any moment of the closed range.
  return tx.Overlaps(Interval(as_of_at_, as_of_through_)) ||
         tx.Contains(as_of_through_);
}

Result<bool> QueryExecutor::EvalFilter(const FilterNode& filter,
                                       const Binding& binding) {
  return EvalFilterWith(filter, filter.where_prog, filter.when_prog,
                        FilterCompiled(filter), binding);
}

Result<bool> QueryExecutor::EvalFilterWith(
    const FilterNode& filter, const std::vector<CompiledProgram>& where_prog,
    const std::vector<CompiledProgram>& when_prog, bool compiled,
    const Binding& binding) const {
  // Compiled fast path: the planner lowered every conjunct of this level.
  if (compiled) {
    for (const CompiledProgram& prog : where_prog) {
      TDB_ASSIGN_OR_RETURN(bool ok, prog.EvalBool(binding, env_.now));
      if (!ok) return false;
    }
    for (const CompiledProgram& prog : when_prog) {
      TDB_ASSIGN_OR_RETURN(bool ok, prog.EvalPred(binding, env_.now));
      if (!ok) return false;
    }
    return true;
  }
  for (const Expr* e : filter.where) {
    TDB_ASSIGN_OR_RETURN(bool ok, eval_.EvalBool(*e, binding));
    if (!ok) return false;
  }
  for (const TemporalPred* p : filter.when) {
    TDB_ASSIGN_OR_RETURN(bool ok, eval_.EvalPred(*p, binding));
    if (!ok) return false;
  }
  return true;
}

Result<AccessSpec> QueryExecutor::SpecFor(const AccessNode& node,
                                          const Binding& binding) const {
  AccessSpec spec;
  spec.current_only = node.current_only;
  switch (node.kind) {
    case PlanNode::Kind::kSeqScan:
      spec.kind = AccessSpec::Kind::kScan;
      return spec;
    case PlanNode::Kind::kRangeScan: {
      const auto& range = static_cast<const RangeScanNode&>(node);
      spec.kind = AccessSpec::Kind::kRange;
      spec.lo_inclusive = range.lo_inclusive;
      spec.hi_inclusive = range.hi_inclusive;
      if (range.lo_expr != nullptr) {
        TDB_ASSIGN_OR_RETURN(
            Value lo, range.lo_prog.has_value()
                          ? range.lo_prog->Eval(binding, env_.now)
                          : eval_.Eval(*range.lo_expr, binding));
        spec.lo = std::move(lo);
      }
      if (range.hi_expr != nullptr) {
        TDB_ASSIGN_OR_RETURN(
            Value hi, range.hi_prog.has_value()
                          ? range.hi_prog->Eval(binding, env_.now)
                          : eval_.Eval(*range.hi_expr, binding));
        spec.hi = std::move(hi);
      }
      return spec;
    }
    case PlanNode::Kind::kKeyedLookup: {
      const auto& keyed = static_cast<const KeyedLookupNode&>(node);
      spec.kind = AccessSpec::Kind::kKeyed;
      TDB_ASSIGN_OR_RETURN(spec.key,
                           keyed.key_prog.has_value()
                               ? keyed.key_prog->Eval(binding, env_.now)
                               : eval_.Eval(*keyed.key_expr, binding));
      return spec;
    }
    case PlanNode::Kind::kIndexEq: {
      const auto& ix = static_cast<const IndexEqNode&>(node);
      spec.kind = AccessSpec::Kind::kIndexEq;
      spec.index = ix.index;
      TDB_ASSIGN_OR_RETURN(spec.key,
                           ix.key_prog.has_value()
                               ? ix.key_prog->Eval(binding, env_.now)
                               : eval_.Eval(*ix.key_expr, binding));
      return spec;
    }
    default:
      return Status::Internal("SpecFor: not an access node");
  }
}

Status QueryExecutor::ExecuteAccess(AccessNode* node, Binding* binding,
                                    const EmitFn& body) {
  ScopedNodeTimer timer(timing_, &node->stats);
  node->stats.executed = true;
  ++node->stats.loops;
  TDB_ASSIGN_OR_RETURN(AccessSpec spec, SpecFor(*node, *binding));

  IoWindow win;
  win.AddRelation(node->rel);
  win.Begin();
  auto src_result = VersionSource::Create(node->rel, std::move(spec));
  win.End(&node->stats.io);
  if (!src_result.ok()) return src_result.status();
  std::unique_ptr<VersionSource> src = std::move(*src_result);

  bool tx_time = HasTransactionTime(node->rel->schema().db_type());
  // Row counters accumulate locally and land on the node once per scan,
  // keeping the stats stores out of the inner loop.
  uint64_t examined = 0;
  uint64_t emitted = 0;
  Status status = Status::OK();
  while (true) {
    win.Begin();
    auto have_result = src->Next();
    win.End(&node->stats.io);
    if (!have_result.ok()) {
      status = have_result.status();
      break;
    }
    if (!*have_result) break;
    ++examined;
    (*binding)[static_cast<size_t>(node->var)] = &src->ref();
    if (tx_time && !QualifiesAsOf(src->ref().tx)) continue;
    ++emitted;
    status = body(*binding);
    if (!status.ok()) break;
  }
  (*binding)[static_cast<size_t>(node->var)] = nullptr;
  node->stats.rows_examined += examined;
  node->stats.rows_emitted += emitted;
  return status;
}

std::unique_ptr<QueryExecutor::VecScratch> QueryExecutor::AcquireVecScratch() {
  if (vec_pool_.empty()) return std::make_unique<VecScratch>();
  auto s = std::move(vec_pool_.back());
  vec_pool_.pop_back();
  return s;
}

void QueryExecutor::ReleaseVecScratch(std::unique_ptr<VecScratch> s) {
  vec_pool_.push_back(std::move(s));
}

void QueryExecutor::FilterAsOfBatch(const Schema& schema, const Morsel& m,
                                    SelVec* sel) const {
  const uint16_t so = schema.offset(static_cast<size_t>(schema.tx_start_index()));
  const uint16_t eo = schema.offset(static_cast<size_t>(schema.tx_stop_index()));
  size_t out = 0;
  for (uint16_t idx : *sel) {
    const uint8_t* rec = m.rec(idx);
    Interval tx(TimePoint(GetI32LE(rec + so)), TimePoint(GetI32LE(rec + eo)));
    (*sel)[out] = idx;
    out += QualifiesAsOf(tx) ? 1 : 0;
  }
  sel->resize(out);
}

Status QueryExecutor::EvalFilterBatch(const FilterNode& filter,
                                      const Schema& schema, int var,
                                      const Morsel& m, Binding* binding,
                                      VersionRef* scratch, SelVec* sel) {
  return EvalFilterBatchWith(filter, filter.where_prog, filter.when_prog,
                             FilterCompiled(filter), schema, var, m, binding,
                             scratch, sel);
}

Status QueryExecutor::EvalFilterBatchWith(
    const FilterNode& filter, const std::vector<CompiledProgram>& where_prog,
    const std::vector<CompiledProgram>& when_prog, bool compiled,
    const Schema& schema, int var, const Morsel& m, Binding* binding,
    VersionRef* scratch, SelVec* sel) const {
  // Compiled fast path, mirroring EvalFilter's all-or-nothing gate: every
  // conjunct runs as a batch kernel (or the program's generic row loop),
  // refining `sel` in short-circuit order.
  if (compiled) {
    for (const CompiledProgram& prog : where_prog) {
      if (sel->empty()) return Status::OK();
      TDB_RETURN_NOT_OK(prog.EvalBoolBatch(schema, var, m, binding, scratch,
                                           env_.now, sel));
    }
    for (const CompiledProgram& prog : when_prog) {
      if (sel->empty()) return Status::OK();
      TDB_RETURN_NOT_OK(prog.EvalPredBatch(schema, var, m, binding, scratch,
                                           env_.now, sel));
    }
    return Status::OK();
  }
  // AST fallback: interpret per row over the selection.
  (*binding)[static_cast<size_t>(var)] = scratch;
  size_t out = 0;
  for (uint16_t idx : *sel) {
    scratch->BindRaw(schema, m.rec(idx));
    scratch->in_history = m.in_history;
    bool pass = true;
    for (const Expr* e : filter.where) {
      TDB_ASSIGN_OR_RETURN(pass, eval_.EvalBool(*e, *binding));
      if (!pass) break;
    }
    if (pass) {
      for (const TemporalPred* p : filter.when) {
        TDB_ASSIGN_OR_RETURN(pass, eval_.EvalPred(*p, *binding));
        if (!pass) break;
      }
    }
    if (pass) (*sel)[out++] = idx;
  }
  (*binding)[static_cast<size_t>(var)] = nullptr;
  sel->resize(out);
  return Status::OK();
}

Status QueryExecutor::ExecuteAccessVectorized(AccessNode* node,
                                              FilterNode* filter,
                                              Binding* binding,
                                              const EmitFn& body) {
  ScopedNodeTimer timer(timing_, &node->stats);
  node->stats.executed = true;
  ++node->stats.loops;
  TDB_ASSIGN_OR_RETURN(AccessSpec spec, SpecFor(*node, *binding));

  IoWindow win;
  win.AddRelation(node->rel);
  win.Begin();
  auto src_result = VersionSource::Create(node->rel, std::move(spec));
  win.End(&node->stats.io);
  if (!src_result.ok()) return src_result.status();
  std::unique_ptr<VersionSource> src = std::move(*src_result);

  const Schema& schema = node->rel->schema();
  const bool tx_time = HasTransactionTime(schema.db_type());
  const size_t cap = env_.morsel_cap;
  const size_t var = static_cast<size_t>(node->var);

  std::unique_ptr<VecScratch> scratch = AcquireVecScratch();
  Morsel& m = scratch->morsel;
  SelVec& sel = scratch->sel;
  VersionRef& ref = scratch->ref;

  uint64_t examined = 0;
  uint64_t emitted = 0;
  uint64_t filter_examined = 0;
  uint64_t filter_emitted = 0;
  Status status = Status::OK();
  while (status.ok()) {
    win.Begin();
    auto n_result = src->NextBatch(&m, cap);
    win.End(&node->stats.io);
    if (!n_result.ok()) {
      status = n_result.status();
      break;
    }
    const size_t n = *n_result;
    if (n == 0) break;
    examined += n;
    FillIdentity(&sel, n);
    if (tx_time) FilterAsOfBatch(schema, m, &sel);
    emitted += sel.size();
    if (filter != nullptr) {
      filter_examined += sel.size();
      status = EvalFilterBatch(*filter, schema, node->var, m, binding, &ref,
                               &sel);
      if (!status.ok()) break;
      filter_emitted += sel.size();
    }
    // Emit the survivors tuple-wise; the consumer never sees morsels, so
    // every downstream path (join recursion, projection) is unchanged.
    for (uint16_t idx : sel) {
      ref.BindRaw(schema, m.rec(idx));
      ref.tid = m.tid(idx);
      ref.in_history = m.in_history;
      (*binding)[var] = &ref;
      status = body(*binding);
      if (!status.ok()) break;
    }
  }
  (*binding)[var] = nullptr;
  node->stats.rows_examined += examined;
  node->stats.rows_emitted += emitted;
  if (filter != nullptr) {
    filter->stats.rows_examined += filter_examined;
    filter->stats.rows_emitted += filter_emitted;
  }
  ReleaseVecScratch(std::move(scratch));
  return status;
}

Status QueryExecutor::ExecuteLevelVectorized(PlanNode* level, Binding* binding,
                                             const EmitFn& body) {
  if (level->kind == PlanNode::Kind::kFilter) {
    auto* filter = static_cast<FilterNode*>(level);
    ScopedNodeTimer timer(timing_, &filter->stats);
    filter->stats.executed = true;
    ++filter->stats.loops;
    return ExecuteAccessVectorized(
        static_cast<AccessNode*>(filter->child.get()), filter, binding, body);
  }
  return ExecuteAccessVectorized(static_cast<AccessNode*>(level), nullptr,
                                 binding, body);
}

// ---------------------------------------------------------------------------
// Morsel-driven intra-query parallelism.
//
// A parallel scan keeps the serial scan's exact page-I/O accounting.  Its
// workers read a store in one of two ways:
//  * In an uncapped shared pool, each worker reads frames in place under
//    pins of its own (a BufferPool::ReaderScope): every page is one request,
//    a hit or a counted miss, as in the serial scan.
//  * Through the paper's single frame, which the serial engine's reads of a
//    store's pages 0..N-1 recycle: a free hit if page 0 was already
//    resident, a dirty-eviction write if some other page was resident and
//    dirty, one physical read per non-resident page, and the last page left
//    resident.  Workers instead read through Pager::ReadPageInto — the
//    resident frame serves hits, everything else is a read into
//    worker-private memory that leaves the frame untouched.  RunParallelScan
//    brackets the dispatch with a normalization (below) and a re-prime, and
//    adds the workers' tallies at the join, so the counter deltas, observed
//    only at this coordinator level, are bit-identical to serial.
// A chunk requests each page once; the serial cursor requests a page again
// only when a morsel holds less than the page (a morsel cap below the
// page's slot count), a hit either way.
// ---------------------------------------------------------------------------

/// The row-building half of Retrieve's emit path: evaluates the target list
/// and the valid-interval output columns for one fully-bound row.  Copyable
/// so each parallel task evaluates through private program copies (compiled
/// operand stacks are per-object scratch); the ordering-sensitive half —
/// `unique` dedup and the result push — stays on the coordinator sink.
struct RowProjector {
  const RetrieveStmt* stmt = nullptr;
  bool valid_output = false;
  std::vector<std::optional<CompiledProgram>> target_progs;
  std::optional<CompiledProgram> valid_from_prog;
  std::optional<CompiledProgram> valid_to_prog;
  TimePoint now;
  const Evaluator* eval = nullptr;

  /// Builds the output row; false = drop it (vacuous default valid
  /// interval), mirroring the serial emit path exactly.
  Result<bool> BuildRow(const Binding& binding, Row* row) const {
    row->clear();
    row->reserve(stmt->targets.size() + 2);
    for (size_t ti = 0; ti < stmt->targets.size(); ++ti) {
      Value v;
      if (target_progs[ti].has_value()) {
        TDB_ASSIGN_OR_RETURN(v, target_progs[ti]->Eval(binding, now));
      } else {
        TDB_ASSIGN_OR_RETURN(v, eval->Eval(*stmt->targets[ti].expr, binding));
      }
      row->push_back(std::move(v));
    }
    if (valid_output) {
      Interval iv(TimePoint::Beginning(), TimePoint::Forever());
      if (stmt->valid.has_value()) {
        Interval from;
        if (valid_from_prog.has_value()) {
          TDB_ASSIGN_OR_RETURN(from, valid_from_prog->EvalInterval(binding,
                                                                   now));
        } else {
          TDB_ASSIGN_OR_RETURN(from,
                               eval->EvalTemporal(*stmt->valid->from, binding));
        }
        if (stmt->valid->at) {
          iv = Interval::Event(from.from);
        } else {
          Interval to;
          if (valid_to_prog.has_value()) {
            TDB_ASSIGN_OR_RETURN(to, valid_to_prog->EvalInterval(binding,
                                                                 now));
          } else {
            TDB_ASSIGN_OR_RETURN(to,
                                 eval->EvalTemporal(*stmt->valid->to, binding));
          }
          iv = Interval(from.from, to.from);
        }
      } else {
        // Default: the overlap of every participating tuple's lifespan;
        // vacuous rows (no shared instant) are dropped.
        bool first = true;
        for (const VersionRef* ref : binding) {
          if (ref == nullptr) continue;
          iv = first ? ref->valid : Interval::Intersect(iv, ref->valid);
          first = false;
        }
        if (iv.empty()) return false;
      }
      row->push_back(Value::Time(iv.from));
      row->push_back(Value::Time(iv.to));
    }
    return true;
  }
};

/// One slot per chunk or per worker of a parallel scan, each on a cache
/// line of its own: workers fill neighbouring slots at the same time.
template <typename T>
class Slots {
 public:
  explicit Slots(size_t n) : slots_(n) {}

  T& operator[](size_t i) { return slots_[i].value; }
  size_t size() const { return slots_.size(); }

 private:
  struct alignas(64) Slot {
    T value;
  };
  std::vector<Slot> slots_;
};

/// Copies of `proto` made lazily, one per parallel worker, each on a cache
/// line of its own: compiled programs keep their operand stacks in the
/// program object, so workers never share one.  A copy serves every chunk
/// its worker claims.
template <typename T>
class PerWorker {
 public:
  PerWorker(const T& proto, int workers)
      : proto_(proto), copies_(static_cast<size_t>(workers)) {}

  T& Get(int worker) {
    std::optional<T>& copy = copies_[static_cast<size_t>(worker)];
    if (!copy.has_value()) copy.emplace(proto_);
    return *copy;
  }

 private:
  const T& proto_;
  Slots<std::optional<T>> copies_;
};

/// Per-worker scratch for a parallel scan: a private binding, morsel,
/// selection vector, scratch ref, filter-program copies, row counts, and
/// the page buffer and tallies of copy-out reads.
struct QueryExecutor::ScanWorkerState {
  ScanWorkerState(int worker, const Binding& b, uint32_t page_size)
      : id(worker), binding(b), page_buf(page_size) {}

  /// The tally of this worker's copy-out reads of `pager`.
  ReadTally* TallyFor(Pager* pager) {
    for (auto& [p, tally] : tallies) {
      if (p == pager) return &tally;
    }
    tallies.emplace_back(pager, ReadTally{});
    return &tallies.back().second;
  }

  int id;
  Binding binding;  // the scanned variable's slot is rebound per row
  Morsel morsel;
  SelVec sel;
  VersionRef ref;
  // Lazily-taken private copies of the fused filter's compiled programs:
  // their operand stacks are scratch, so the plan node's own copies cannot
  // be shared across workers.
  bool progs_init = false;
  bool compiled = false;
  std::vector<CompiledProgram> where_prog;
  std::vector<CompiledProgram> when_prog;
  ChunkStats stats;
  std::vector<uint8_t> page_buf;  // copy-out reads, sized to the page size
  std::vector<std::pair<Pager*, ReadTally>> tallies;
};

std::optional<QueryExecutor::ParScan> QueryExecutor::TryPlanParallelScan(
    PlanNode* level) {
  if (env_.exec_threads < 2 || !vectorized_) return std::nullopt;
  // An enabled I/O trace logs every page touch in serial order; concurrent
  // workers would interleave it, so tracing pins the serial engine (this is
  // also what keeps the figure drivers' traced goldens byte-identical).
  if (env_.registry->trace()->enabled()) return std::nullopt;
  ParScan ps;
  PlanNode* leaf = level;
  if (level->kind == PlanNode::Kind::kFilter) {
    ps.filter = static_cast<FilterNode*>(level);
    leaf = ps.filter->child.get();
  }
  if (leaf->kind != PlanNode::Kind::kSeqScan) return std::nullopt;
  ps.node = static_cast<AccessNode*>(leaf);
  ps.chunks = CutScanChunks(ps.node->rel, ps.node->current_only,
                            kParallelChunkPages);
  if (ps.chunks.size() < 2) return std::nullopt;
  // Either every store sits in an uncapped shared pool, or every
  // page-range store has the single frame the I/O-replay bracketing is
  // derived for; other frame budgets keep the serial engine.
  bool pooled = true;
  bool single = true;
  for (const ScanChunk& c : ps.chunks) {
    const Pager* pager = c.file->pager();
    pooled = pooled && pager->pool() != nullptr && pager->num_frames() == 0;
    single = single && (c.use_cursor || pager->num_frames() == 1);
  }
  if (!pooled && !single) return std::nullopt;
  ps.pooled = pooled;
  return ps;
}

Status QueryExecutor::RunParallelScan(ParScan* ps, const Binding& binding,
                                      const ParallelRowFn& row) {
  AccessNode* node = ps->node;
  FilterNode* filter = ps->filter;
  ScopedNodeTimer timer(timing_, &node->stats);
  std::optional<ScopedNodeTimer> filter_timer;
  if (filter != nullptr) {
    filter_timer.emplace(timing_, &filter->stats);
    filter->stats.executed = true;
    ++filter->stats.loops;
  }
  node->stats.executed = true;
  ++node->stats.loops;

  IoWindow win;
  win.AddRelation(node->rel);
  win.Begin();

  // Normalize each single-frame store's buffer frame so the workers'
  // frame-bypassing reads reproduce the serial counts: an empty frame needs
  // nothing; page 0 resident stays (the serial scan's first read — and the
  // workers' ReadPageInto(0) — hit it for free); any other resident page,
  // which the serial scan would evict (writing it first if dirty) before
  // its cold reads, is flushed and dropped up front.
  std::vector<StorageFile*> chunked;
  for (const ScanChunk& c : ps->chunks) {
    if (ps->pooled || c.use_cursor) continue;
    if (!chunked.empty() && chunked.back() == c.file) continue;
    chunked.push_back(c.file);
  }
  Status status = Status::OK();
  for (StorageFile* f : chunked) {
    std::vector<uint32_t> resident = f->pager()->ResidentPages();
    if (resident.empty()) continue;
    status = (resident.size() == 1 && resident[0] == 0)
                 ? f->pager()->Flush()
                 : f->pager()->FlushAndDrop();
    if (!status.ok()) break;
  }

  const size_t ntasks = ps->chunks.size();
  const int workers = static_cast<int>(
      std::min<size_t>(static_cast<size_t>(env_.exec_threads), ntasks));
  std::vector<std::unique_ptr<ScanWorkerState>> states(
      static_cast<size_t>(workers));
  std::vector<Status> errors(ntasks, Status::OK());
  // The last page each single-frame chunk read: the serial scan leaves its
  // store's last one resident.
  std::vector<uint32_t> last_read(ntasks, kNoPage);
  if (status.ok()) {
    // Work stealing: workers claim chunk indexes from a shared counter, so
    // a skewed chunk (one giant store) never idles the rest of the pool.
    std::atomic<size_t> next{0};
    std::atomic<bool> abort{false};
    WorkerPool::Shared().Run(workers, [&](int w) {
      // Pool stores are read in place, under pins of this worker's own.
      std::optional<BufferPool::ReaderScope> reader;
      if (ps->pooled) reader.emplace();
      auto& ws = states[static_cast<size_t>(w)];
      ws = std::make_unique<ScanWorkerState>(w, binding,
                                             env_.storage.page_size);
      while (true) {
        const size_t t = next.fetch_add(1, std::memory_order_relaxed);
        if (t >= ntasks) break;
        if (abort.load(std::memory_order_relaxed)) continue;
        Status st = ProcessScanChunk(*ps, ps->chunks[t], t, ws.get(), row,
                                     &last_read[t]);
        if (!st.ok()) {
          errors[t] = std::move(st);
          abort.store(true, std::memory_order_relaxed);
        }
      }
    });
    for (const auto& ws : states) {
      for (const auto& [pager, tally] : ws->tallies) pager->AddTally(tally);
    }
    // Re-prime: the serial scan ends with each store's last page resident
    // (its read already counted), so install it without counting before
    // the window closes.
    for (size_t t = 0; t < ntasks && status.ok(); ++t) {
      const ScanChunk& c = ps->chunks[t];
      const bool store_ends =
          t + 1 == ntasks || ps->chunks[t + 1].file != c.file;
      const uint32_t pno = last_read[t];
      if (ps->pooled || c.use_cursor || !store_ends || pno == kNoPage) {
        continue;
      }
      status = c.file->pager()->PrimeFrame(pno, c.file->ScanCategory(pno));
    }
  }
  win.End(&node->stats.io);
  TDB_RETURN_NOT_OK(status);
  // First error in chunk order — the same failure a serial scan reports.
  for (size_t t = 0; t < ntasks; ++t) TDB_RETURN_NOT_OK(errors[t]);

  for (const auto& ws : states) {
    node->stats.rows_examined += ws->stats.examined;
    node->stats.rows_emitted += ws->stats.emitted;
    if (filter != nullptr) {
      filter->stats.rows_examined += ws->stats.filter_examined;
      filter->stats.rows_emitted += ws->stats.filter_emitted;
    }
  }
  return Status::OK();
}

Status QueryExecutor::ProcessScanChunk(const ParScan& ps,
                                       const ScanChunk& chunk, size_t task,
                                       ScanWorkerState* ws,
                                       const ParallelRowFn& row,
                                       uint32_t* last_read) const {
  AccessNode* node = ps.node;
  FilterNode* filter = ps.filter;
  const Schema& schema = node->rel->schema();
  const bool tx_time = HasTransactionTime(schema.db_type());
  const size_t var = static_cast<size_t>(node->var);
  if (filter != nullptr && !ws->progs_init) {
    ws->progs_init = true;
    ws->compiled = FilterCompiled(*filter);
    if (ws->compiled) {
      ws->where_prog = filter->where_prog;
      ws->when_prog = filter->when_prog;
    }
  }
  Morsel& m = ws->morsel;
  SelVec& sel = ws->sel;
  VersionRef& ref = ws->ref;
  Binding* binding = &ws->binding;
  ChunkStats* stats = &ws->stats;

  auto flush_batch = [&]() -> Status {
    const size_t n = m.size();
    stats->examined += n;
    FillIdentity(&sel, n);
    if (tx_time) FilterAsOfBatch(schema, m, &sel);
    stats->emitted += sel.size();
    if (filter != nullptr) {
      stats->filter_examined += sel.size();
      TDB_RETURN_NOT_OK(EvalFilterBatchWith(*filter, ws->where_prog,
                                            ws->when_prog, ws->compiled,
                                            schema, node->var, m, binding,
                                            &ref, &sel));
      stats->filter_emitted += sel.size();
    }
    for (uint16_t idx : sel) {
      ref.BindRaw(schema, m.rec(idx));
      ref.tid = m.tid(idx);
      ref.in_history = m.in_history;
      (*binding)[var] = &ref;
      TDB_RETURN_NOT_OK(row(ws->id, task, binding));
    }
    (*binding)[var] = nullptr;
    return Status::OK();
  };

  if (chunk.use_cursor) {
    // Whole-store chunk (B-tree primaries): this worker is the store's only
    // reader, so the ordinary cursor path behaves exactly as it does
    // serially.
    TDB_ASSIGN_OR_RETURN(auto cur, chunk.file->Scan());
    while (true) {
      m.Clear();
      TDB_ASSIGN_OR_RETURN(size_t n, cur->NextBatch(&m, env_.morsel_cap));
      if (n == 0) break;
      m.in_history = chunk.in_history;
      TDB_RETURN_NOT_OK(flush_batch());
    }
    return Status::OK();
  }

  // Page-range chunk: replay the cursor's walk — pages ascending (an ISAM
  // data page followed by its overflow chain), used slots ascending — over
  // frames pinned for this worker (pool stores) or private copies
  // (single-frame stores).
  const uint16_t record_size = chunk.file->layout().record_size;
  Pager* pager = chunk.file->pager();
  ReadTally* tally = ps.pooled ? nullptr : ws->TallyFor(pager);
  uint32_t last = kNoPage;
  for (uint32_t first = chunk.begin; first < chunk.end; ++first) {
    for (uint32_t pno = first; pno != kNoPage;) {
      const IoCategory cat = chunk.file->ScanCategory(pno);
      uint8_t* data = ws->page_buf.data();
      if (ps.pooled) {
        TDB_ASSIGN_OR_RETURN(data, pager->ReadPage(pno, cat));
      } else {
        TDB_RETURN_NOT_OK(pager->ReadPageInto(pno, cat, data, tally));
      }
      last = pno;
      Page page(data, record_size, pager->usable_size());
      m.Clear();
      m.in_history = chunk.in_history;
      uint64_t bits = page.used_bitmap();
      while (bits != 0) {
        const uint16_t s = static_cast<uint16_t>(__builtin_ctzll(bits));
        bits &= bits - 1;
        if (s >= page.capacity()) break;
        m.AppendSlice(page.RecordAt(s), Tid{pno, s});
      }
      if (ps.pooled) m.SetSource(pager);
      pno = chunk.chains ? page.next_overflow() : kNoPage;
      if (!m.empty()) TDB_RETURN_NOT_OK(flush_batch());
    }
  }
  *last_read = last;
  return Status::OK();
}

Status QueryExecutor::ExecuteLevel(PlanNode* level, Binding* binding,
                                   const EmitFn& body) {
  if (level->kind == PlanNode::Kind::kFilter) {
    auto* filter = static_cast<FilterNode*>(level);
    ScopedNodeTimer timer(timing_, &filter->stats);
    filter->stats.executed = true;
    ++filter->stats.loops;
    auto* access = static_cast<AccessNode*>(filter->child.get());
    return ExecuteAccess(access, binding, [&](const Binding& b) -> Status {
      ++filter->stats.rows_examined;
      TDB_ASSIGN_OR_RETURN(bool pass, EvalFilter(*filter, b));
      if (!pass) return Status::OK();
      ++filter->stats.rows_emitted;
      return body(b);
    });
  }
  return ExecuteAccess(static_cast<AccessNode*>(level), binding, body);
}

Status QueryExecutor::ExecuteNestedLoop(NestedLoopNode* node, size_t level,
                                        Binding* binding, const EmitFn& emit) {
  ScopedNodeTimer timer(timing_ && level == 0, &node->stats);
  // Set at level 0, for the statement's one nested loop.
  std::optional<ParScan> par;
  std::optional<PerWorker<RowProjector>> projs;
  if (level == 0) {
    node->stats.executed = true;
    ++node->stats.loops;
    if (vectorized_) {
      // Batching routing rule: a non-innermost level holds zero-copy morsel
      // slices pinned in its relation's buffer frame while the levels below
      // it run, so it may batch only when no inner level reads the same
      // relation (a self-join's inner rescans would evict the pinned frame
      // and change the outer's page re-read counts).  The innermost level
      // is always safe: its per-row body performs no page I/O.
      std::set<const Relation*> rels;
      nlj_distinct_rels_ = true;
      for (const auto& lv : node->levels) {
        if (!rels.insert(AccessOf(lv.get())->rel).second) {
          nlj_distinct_rels_ = false;
          break;
        }
      }
    }
    // The innermost level may scan in parallel through the root's split
    // emit path, which `emit` is: a nested loop sits directly under the
    // plan root.
    if (root_proj_ != nullptr && root_sink_ != nullptr) {
      par = TryPlanParallelScan(node->levels.back().get());
    }
    if (par.has_value()) {
      projs.emplace(*root_proj_, env_.exec_threads);
      nlj_par_ = &*par;
      nlj_projs_ = &*projs;
    }
  }
  Status status = Status::OK();
  if (level == node->levels.size()) {
    ++node->stats.rows_emitted;
    status = emit(*binding);
  } else if (level + 1 == node->levels.size() && nlj_par_ != nullptr) {
    status = ExecuteInnermostParallel(node, *binding);
  } else {
    const bool innermost = level + 1 == node->levels.size();
    const bool batch = vectorized_ && (innermost || nlj_distinct_rels_);
    const EmitFn next = [&](const Binding&) -> Status {
      return ExecuteNestedLoop(node, level + 1, binding, emit);
    };
    status = batch ? ExecuteLevelVectorized(node->levels[level].get(),
                                            binding, next)
                   : ExecuteLevel(node->levels[level].get(), binding, next);
  }
  if (level == 0) {
    nlj_par_ = nullptr;
    nlj_projs_ = nullptr;
  }
  return status;
}

Status QueryExecutor::ExecuteInnermostParallel(NestedLoopNode* node,
                                               const Binding& binding) {
  // The workers read the outer levels' versions through their binding
  // copies: decode them fully first, so no worker fills a lazy-decode
  // cache.
  for (const VersionRef* ref : binding) {
    if (ref != nullptr) ref->FullRow();
  }
  struct ChunkOut {
    std::vector<Row> rows;
    uint64_t bindings = 0;  // complete bindings, kept or not
  };
  Slots<ChunkOut> out(nlj_par_->chunks.size());
  ParallelRowFn chunk_row = [&](int worker, size_t task,
                                Binding* b) -> Status {
    ChunkOut& o = out[task];
    ++o.bindings;
    Row row;
    TDB_ASSIGN_OR_RETURN(bool keep,
                         nlj_projs_->Get(worker).BuildRow(*b, &row));
    if (keep) o.rows.push_back(std::move(row));
    return Status::OK();
  };
  TDB_RETURN_NOT_OK(RunParallelScan(nlj_par_, binding, chunk_row));
  for (size_t t = 0; t < out.size(); ++t) {
    ChunkOut& o = out[t];
    node->stats.rows_emitted += o.bindings;
    for (Row& row : o.rows) TDB_RETURN_NOT_OK((*root_sink_)(std::move(row)));
  }
  return Status::OK();
}

namespace {

/// The inner level's residual filter of a substitution, or null.
FilterNode* InnerFilterOf(SubstitutionNode* node) {
  return node->inner->kind == PlanNode::Kind::kFilter
             ? static_cast<FilterNode*>(node->inner.get())
             : nullptr;
}

/// Reads every inner version the probe `spec` reaches into `matches`,
/// counting each on `examined`.
Status ProbeInner(Relation* rel, AccessSpec spec,
                  std::vector<VersionRef>* matches, uint64_t* examined) {
  TDB_ASSIGN_OR_RETURN(auto src, VersionSource::Create(rel, std::move(spec)));
  while (true) {
    TDB_ASSIGN_OR_RETURN(bool have, src->Next());
    if (!have) return Status::OK();
    ++*examined;
    // Materialize: the source's ref borrows cursor bytes that die on the
    // next advance, so the cache needs an owning copy.
    matches->push_back(src->ref().Clone());
  }
}

}  // namespace

Status QueryExecutor::ExecuteSubstitution(SubstitutionNode* node,
                                          Binding* binding,
                                          const EmitFn& emit) {
  ScopedNodeTimer timer(timing_, &node->stats);
  obs::TraceSpan span(env_.registry->metrics(), "exec.substitution");
  node->stats.executed = true;
  ++node->stats.loops;

  AccessNode* outer_access = AccessOf(node->outer.get());
  AccessNode* inner_access = AccessOf(node->inner.get());
  FilterNode* inner_filter = InnerFilterOf(node);
  int outer_var = outer_access->var;
  const Schema& oschema = outer_access->rel->schema();

  // ---- one-variable detachment: project the outer variable's qualifying
  // versions into a temporary relation ----
  std::set<int> proj;
  for (const TargetItem& t : stmt_->targets) {
    CollectAttrRefs(t.expr.get(), outer_var, &proj);
  }
  CollectAttrRefs(stmt_->where.get(), outer_var, &proj);
  // The implicit time attributes travel along for when / as-of / valid
  // evaluation against the temp rows.
  for (size_t i = oschema.num_user_attrs(); i < oschema.num_attrs(); ++i) {
    proj.insert(static_cast<int>(i));
  }
  std::vector<int> proj_attrs(proj.begin(), proj.end());

  std::vector<Attribute> temp_attrs;
  for (size_t i = 0; i < proj_attrs.size(); ++i) {
    Attribute a = oschema.attr(static_cast<size_t>(proj_attrs[i]));
    a.name = StrPrintf("a%zu", i);  // positional names avoid reserved ones
    a.implicit = false;
    temp_attrs.push_back(std::move(a));
  }
  TDB_ASSIGN_OR_RETURN(Schema temp_schema,
                       Schema::CreateStatic(std::move(temp_attrs)));

  std::string temp_name =
      StrPrintf("__temp%s%d", env_.temp_tag.c_str(), temp_counter_++);
  std::string temp_path = env_.dir + "/" + temp_name + ".dat";
  RecordLayout temp_layout;
  temp_layout.record_size = temp_schema.record_size();
  // The substitution node's own I/O all flows through the temp file, so its
  // window watches just that one counter block.
  IoWindow temp_win;
  IoCounters* temp_counters = env_.registry->ForFile(temp_name);
  temp_win.Add(temp_counters);
  temp_win.Begin();
  // Detachment temporaries are scratch: deleted at the end of the query and
  // orphaned harmlessly by a crash (the catalog never references them), so
  // they deliberately bypass the journal.
  auto temp_pager_result = Pager::Open(env_.env, temp_path, temp_counters,
                                       env_.buffer_frames,
                                       /*journal=*/nullptr, env_.storage);
  temp_win.End(&node->stats.io);
  if (!temp_pager_result.ok()) return temp_pager_result.status();
  TDB_RETURN_NOT_OK((*temp_pager_result)->Reset());
  TDB_ASSIGN_OR_RETURN(auto temp,
                       HeapFile::Open(std::move(*temp_pager_result),
                                      temp_layout, IoCategory::kTemp));

  // The temp record of one outer version, projected through `trow`.
  const auto encode = [&](const VersionRef& ref, Row* trow)
      -> Result<std::vector<uint8_t>> {
    trow->clear();
    trow->reserve(proj_attrs.size());
    for (int ai : proj_attrs) {
      trow->push_back(ref.attr(static_cast<size_t>(ai)));
    }
    return EncodeRecord(temp_schema, *trow);
  };
  if (std::optional<ParScan> par = TryPlanParallelScan(node->outer.get());
      par.has_value()) {
    // Parallel detachment: workers encode the qualifying outer versions'
    // temp records into per-chunk buffers; the coordinator inserts them in
    // chunk order, so the temp relation is written as the serial scan
    // writes it.
    const size_t rec_size = temp_schema.record_size();
    Slots<Row> trows(static_cast<size_t>(env_.exec_threads));
    Slots<std::vector<uint8_t>> recs(par->chunks.size());
    ParallelRowFn chunk_row = [&](int worker, size_t task,
                                  Binding* b) -> Status {
      TDB_ASSIGN_OR_RETURN(
          auto rec, encode(*(*b)[static_cast<size_t>(outer_var)],
                           &trows[static_cast<size_t>(worker)]));
      recs[task].insert(recs[task].end(), rec.begin(), rec.end());
      return Status::OK();
    };
    TDB_RETURN_NOT_OK(RunParallelScan(&*par, *binding, chunk_row));
    temp_win.Begin();
    Status st = Status::OK();
    for (size_t t = 0; t < recs.size(); ++t) {
      const std::vector<uint8_t>& chunk = recs[t];
      for (size_t off = 0; off < chunk.size() && st.ok(); off += rec_size) {
        st = temp->Insert(chunk.data() + off, rec_size, nullptr);
      }
    }
    temp_win.End(&node->stats.io);
    TDB_RETURN_NOT_OK(st);
  } else {
    Row trow;  // scratch, reused across outer rows
    const EmitFn detach = [&](const Binding& b) -> Status {
      TDB_ASSIGN_OR_RETURN(
          auto rec, encode(*b[static_cast<size_t>(outer_var)], &trow));
      temp_win.Begin();
      Status st = temp->Insert(rec.data(), rec.size(), nullptr);
      temp_win.End(&node->stats.io);
      return st;
    };
    // The detachment body writes only to the temp pager, never to the
    // outer relation's files, so the outer level may batch with zero-copy
    // morsels.
    TDB_RETURN_NOT_OK(vectorized_
                          ? ExecuteLevelVectorized(node->outer.get(), binding,
                                                   detach)
                          : ExecuteLevel(node->outer.get(), binding, detach));
  }

  // ---- tuple substitution: probe the inner variable per temp row ----
  temp_win.Begin();
  auto cur_result = temp->Scan();
  temp_win.End(&node->stats.io);
  if (!cur_result.ok()) return cur_result.status();
  std::unique_ptr<Cursor> cur = std::move(*cur_result);
  const TempRowFn next_row = [&](VersionRef* ref) -> Result<bool> {
    temp_win.Begin();
    Result<bool> have = cur->Next();
    temp_win.End(&node->stats.io);
    if (!have.ok() || !*have) return have;
    // Expand into a full-schema row (unprojected attributes default),
    // reusing the ref's row storage.
    Row& full = ref->MutableRow();
    full.resize(oschema.num_attrs());
    for (size_t i = 0; i < oschema.num_attrs(); ++i) {
      switch (oschema.attr(i).type) {
        case TypeId::kChar:
          full[i] = Value::Char("");
          break;
        case TypeId::kFloat8:
          full[i] = Value::Float8(0);
          break;
        case TypeId::kTime:
          full[i] = Value::Time(TimePoint(0));
          break;
        default:
          full[i] = Value::Int4(0);
      }
    }
    for (size_t i = 0; i < proj_attrs.size(); ++i) {
      full[static_cast<size_t>(proj_attrs[i])] =
          DecodeAttr(temp_schema, i, cur->record().data());
    }
    RefreshIntervals(oschema, ref);
    return true;
  };
  Status status = Status::OK();
  {
    // The probe phase's wall time belongs to the inner level (the filter's
    // timer encloses its child's).
    std::optional<ScopedNodeTimer> filter_timer;
    if (inner_filter != nullptr) {
      filter_timer.emplace(timing_, &inner_filter->stats);
    }
    ScopedNodeTimer access_timer(timing_, &inner_access->stats);
    status = ProbesRunInParallel(node)
                 ? ProbeParallel(node, *binding, next_row)
                 : ProbeSerial(node, binding, next_row, emit);
  }
  cur.reset();
  (*binding)[static_cast<size_t>(outer_var)] = nullptr;
  temp_win.Begin();
  temp.reset();  // flush before deleting
  // A temp left behind by a failed delete is harmless: the catalog never
  // names it, and the next detachment under its name Reset()s it.
  (void)env_.env->DeleteFile(temp_path);
  temp_win.End(&node->stats.io);
  return status;
}

bool QueryExecutor::ProbesRunInParallel(SubstitutionNode* node) const {
  // A substitution sits directly under the plan root, so its emit is the
  // root's projector+sink pair, which the workers need split.
  if (env_.exec_threads < 2 || root_proj_ == nullptr ||
      root_sink_ == nullptr) {
    return false;
  }
  // Workers would interleave an enabled I/O trace's per-page log.
  if (env_.registry->trace()->enabled()) return false;
  const AccessNode* inner = AccessOf(node->inner.get());
  if (inner->kind != PlanNode::Kind::kKeyedLookup) return false;
  // Workers read the inner stores concurrently, each through pins of its
  // own: only the shared pool has them, and a per-file cap would have the
  // workers evict each other's frames.
  auto uncapped = [](StorageFile* f) {
    return f == nullptr ||
           (f->pager()->pool() != nullptr && f->pager()->num_frames() == 0);
  };
  Relation* rel = inner->rel;
  if (!uncapped(rel->primary()) || !uncapped(rel->history()) ||
      !uncapped(rel->anchors())) {
    return false;
  }
  for (const Relation::Segment& seg : rel->segments()) {
    if (!uncapped(seg.file.get())) return false;
  }
  return true;
}

void QueryExecutor::ProbeCounts::AddTo(SubstitutionNode* node) const {
  AccessNode* inner_access = AccessOf(node->inner.get());
  if (probes > 0) inner_access->stats.executed = true;
  inner_access->stats.loops += probes;
  inner_access->stats.rows_examined += examined;
  inner_access->stats.rows_emitted += access_emitted;
  if (FilterNode* filter = InnerFilterOf(node);
      filter != nullptr && temp_rows > 0) {
    // The inner level runs once per temp row, against the cached matches.
    filter->stats.executed = true;
    filter->stats.loops += temp_rows;
    filter->stats.rows_examined += filter_examined;
    filter->stats.rows_emitted += filter_emitted;
  }
  node->stats.rows_emitted += emitted;
}

Status QueryExecutor::MatchInner(
    SubstitutionNode* node, const std::vector<VersionRef>& matches,
    const std::vector<CompiledProgram>& where_prog,
    const std::vector<CompiledProgram>& when_prog, Binding* binding,
    ProbeCounts* counts, const EmitFn& out) const {
  const AccessNode* inner_access = AccessOf(node->inner.get());
  const FilterNode* inner_filter = InnerFilterOf(node);
  const size_t inner_var = static_cast<size_t>(inner_access->var);
  const bool inner_tx_time =
      HasTransactionTime(inner_access->rel->schema().db_type());
  ++counts->temp_rows;
  for (const VersionRef& iref : matches) {
    (*binding)[inner_var] = &iref;
    bool pass = !inner_tx_time || QualifiesAsOf(iref.tx);
    if (pass) ++counts->access_emitted;
    if (pass && inner_filter != nullptr) {
      ++counts->filter_examined;
      TDB_ASSIGN_OR_RETURN(
          pass, EvalFilterWith(*inner_filter, where_prog, when_prog,
                               FilterCompiled(*inner_filter), *binding));
      if (pass) ++counts->filter_emitted;
    }
    if (!pass) continue;
    ++counts->emitted;
    TDB_RETURN_NOT_OK(out(*binding));
  }
  (*binding)[inner_var] = nullptr;
  return Status::OK();
}

Status QueryExecutor::ProbeSerial(SubstitutionNode* node, Binding* binding,
                                  const TempRowFn& next_row,
                                  const EmitFn& emit) {
  AccessNode* inner_access = AccessOf(node->inner.get());
  const FilterNode* inner_filter = InnerFilterOf(node);
  static const std::vector<CompiledProgram> kNoPrograms;
  const std::vector<CompiledProgram>& where_prog =
      inner_filter != nullptr ? inner_filter->where_prog : kNoPrograms;
  const std::vector<CompiledProgram>& when_prog =
      inner_filter != nullptr ? inner_filter->when_prog : kNoPrograms;
  const size_t outer_var =
      static_cast<size_t>(AccessOf(node->outer.get())->var);
  IoWindow inner_win;
  inner_win.AddRelation(inner_access->rel);
  VersionRef outer_ref;  // reused across temp rows
  // Consecutive temp rows often probe the same key (all versions of one
  // tuple share it); the matching inner versions are cached so the chain is
  // read once per distinct key, as Ingres achieves by sorting.
  bool have_cached_key = false;
  Value cached_key;
  std::vector<VersionRef> cached_matches;
  ProbeCounts counts;
  Status status = Status::OK();
  while (status.ok()) {
    Result<bool> have = next_row(&outer_ref);
    if (!have.ok() || !*have) {
      status = have.status();
      break;
    }
    (*binding)[outer_var] = &outer_ref;
    Result<AccessSpec> spec = SpecFor(*inner_access, *binding);
    if (!spec.ok()) {
      status = spec.status();
      break;
    }
    if (!have_cached_key || !cached_key.Equals(spec->key)) {
      cached_key = spec->key;
      have_cached_key = true;
      cached_matches.clear();
      ++counts.probes;
      inner_win.Begin();
      status = ProbeInner(inner_access->rel, std::move(spec).value(),
                          &cached_matches, &counts.examined);
      inner_win.End(&inner_access->stats.io);
      if (!status.ok()) break;
    }
    status = MatchInner(node, cached_matches, where_prog, when_prog, binding,
                        &counts, emit);
  }
  counts.AddTo(node);
  return status;
}

Status QueryExecutor::ProbeParallel(SubstitutionNode* node,
                                    const Binding& binding,
                                    const TempRowFn& next_row) {
  AccessNode* inner_access = AccessOf(node->inner.get());
  const FilterNode* inner_filter = InnerFilterOf(node);
  const size_t outer_var =
      static_cast<size_t>(AccessOf(node->outer.get())->var);
  Relation* inner_rel = inner_access->rel;
  IoWindow inner_win;
  inner_win.AddRelation(inner_rel);

  struct ProbeRow {
    VersionRef outer;  // the temp row, expanded to the outer schema
    AccessSpec spec;   // its probe
  };
  /// Temp rows [begin, end) of a round, probed by one worker; its counts
  /// and projected rows merge in batch order after the round.
  struct Batch {
    size_t begin = 0;
    size_t end = 0;
    std::vector<Row> rows;
    ProbeCounts counts;
    Status status = Status::OK();
  };
  /// Consecutive temp rows and their batches.
  struct Round {
    std::vector<ProbeRow> rows;
    std::vector<Batch> batches;
    bool last = false;  // the temp relation ends with this round
  };
  /// One worker's private evaluation state: compiled programs keep their
  /// operand stacks in the program object, so each worker has copies.
  struct Worker {
    Binding binding;
    RowProjector proj;
    std::vector<CompiledProgram> where_prog;
    std::vector<CompiledProgram> when_prog;
    std::vector<VersionRef> matches;

    Status Probe(const QueryExecutor& ex, SubstitutionNode* node,
                 const Round& round, size_t outer_var, Batch* batch) {
      const Value* key = nullptr;  // of the cached matches
      const EmitFn project = [&](const Binding& b) -> Status {
        Row row;
        TDB_ASSIGN_OR_RETURN(bool keep, proj.BuildRow(b, &row));
        if (keep) batch->rows.push_back(std::move(row));
        return Status::OK();
      };
      for (size_t i = batch->begin; i < batch->end; ++i) {
        const ProbeRow& r = round.rows[i];
        binding[outer_var] = &r.outer;
        if (key == nullptr || !key->Equals(r.spec.key)) {
          key = &r.spec.key;
          matches.clear();
          ++batch->counts.probes;
          TDB_RETURN_NOT_OK(ProbeInner(AccessOf(node->inner.get())->rel,
                                       r.spec, &matches,
                                       &batch->counts.examined));
        }
        TDB_RETURN_NOT_OK(ex.MatchInner(node, matches, where_prog, when_prog,
                                        &binding, &batch->counts, project));
      }
      binding[outer_var] = nullptr;
      return Status::OK();
    }
  };

  // Reads up to `limit` more temp rows (further only to finish a run of
  // equal keys) with their probes, cut into batches.  One thread at a time:
  // it is the only user of the temp cursor and the key program.
  Binding scratch = binding;
  ProbeRow carry;  // read past the end of the previous round
  bool have_carry = false;
  const auto read_round = [&](Round* round, size_t limit) -> Status {
    round->rows.clear();
    round->batches.clear();
    round->last = false;
    if (have_carry) {
      round->rows.push_back(std::move(carry));
      round->batches.emplace_back();
      have_carry = false;
    }
    while (true) {
      ProbeRow r;
      TDB_ASSIGN_OR_RETURN(bool have, next_row(&r.outer));
      if (!have) {
        round->last = true;
        break;
      }
      scratch[outer_var] = &r.outer;
      Result<AccessSpec> spec = SpecFor(*inner_access, scratch);
      scratch[outer_var] = nullptr;
      TDB_RETURN_NOT_OK(spec.status());
      r.spec = std::move(spec).value();
      std::vector<ProbeRow>& rows = round->rows;
      const bool new_key =
          rows.empty() || !rows.back().spec.key.Equals(r.spec.key);
      if (new_key && rows.size() >= limit) {
        carry = std::move(r);
        have_carry = true;
        break;
      }
      if (rows.empty() ||
          (new_key &&
           rows.size() - round->batches.back().begin >= kProbeBatchRows)) {
        round->batches.emplace_back();
        round->batches.back().begin = rows.size();
      }
      rows.push_back(std::move(r));
    }
    for (size_t t = 0; t + 1 < round->batches.size(); ++t) {
      round->batches[t].end = round->batches[t + 1].begin;
    }
    if (!round->batches.empty()) {
      round->batches.back().end = round->rows.size();
    }
    return Status::OK();
  };

  // Only the first round is read before probing starts.  While a round is
  // probed, the first worker to arrive reads the next one, up to
  // kProbeGrowth times larger: reading a row costs a fraction of probing
  // it, so the reader stays ahead of the other workers.
  Round cur;
  Round next;
  size_t limit = kProbeFirstRoundRows;
  TDB_RETURN_NOT_OK(read_round(&cur, limit));
  while (!cur.rows.empty()) {
    const bool read_ahead = !cur.last;
    limit = std::min(limit * kProbeGrowth, kProbeRoundRows);
    Status read_status = Status::OK();
    std::atomic<bool> reader_taken{false};
    std::atomic<size_t> claim{0};
    std::atomic<bool> abort{false};
    const int workers = static_cast<int>(std::min<size_t>(
        static_cast<size_t>(env_.exec_threads),
        cur.batches.size() + (read_ahead ? 1 : 0)));
    inner_win.Begin();
    WorkerPool::Shared().Run(workers, [&](int) {
      // Pins of this worker's own: its pages stay valid whatever the other
      // workers request from the same pagers.
      BufferPool::ReaderScope reader;
      if (read_ahead && !reader_taken.exchange(true)) {
        read_status = read_round(&next, limit);
      }
      Worker w{binding, *root_proj_, {}, {}, {}};
      if (inner_filter != nullptr) {
        w.where_prog = inner_filter->where_prog;
        w.when_prog = inner_filter->when_prog;
      }
      while (true) {
        const size_t t = claim.fetch_add(1, std::memory_order_relaxed);
        if (t >= cur.batches.size()) break;
        if (abort.load(std::memory_order_relaxed)) continue;
        Batch& batch = cur.batches[t];
        batch.status = w.Probe(*this, node, cur, outer_var, &batch);
        if (!batch.status.ok()) abort.store(true, std::memory_order_relaxed);
      }
    });
    inner_win.End(&inner_access->stats.io);

    // Merge in batch order, which is the serial row order; the first error
    // in that order is the one the serial loop reports.
    for (Batch& batch : cur.batches) {
      TDB_RETURN_NOT_OK(batch.status);
      batch.counts.AddTo(node);
      for (Row& row : batch.rows) {
        TDB_RETURN_NOT_OK((*root_sink_)(std::move(row)));
      }
    }
    TDB_RETURN_NOT_OK(read_status);
    if (!read_ahead) break;
    std::swap(cur, next);
  }
  return Status::OK();
}

namespace {

/// Hash key for one join-key value, normalized so that cross-type numeric
/// equality (int vs float) lands on the same bucket — matching the kEq
/// semantics the nested-loop plans evaluate.  Numerics key on the bit
/// pattern of their double value (one memcpy, no formatting) with -0.0
/// collapsed into +0.0.  Reuses the caller's buffer; returns false for a
/// key that can never compare equal under kEq (NaN), which the caller
/// skips on both sides.
bool NormalizedJoinKey(const Value& v, std::string* out) {
  if (v.is_numeric()) {
    double d = v.AsDouble();
    if (d != d) return false;   // NaN: kEq is always false
    if (d == 0.0) d = 0.0;      // -0.0 == +0.0 under kEq
    out->assign(1 + sizeof(double), 'n');
    std::memcpy(out->data() + 1, &d, sizeof(double));
    return true;
  }
  if (v.type() == TypeId::kChar) {
    out->assign(1, 's');
  } else {
    out->assign(1, 't');
  }
  out->append(v.ToString());
  return true;
}

}  // namespace

Status QueryExecutor::ExecuteHashJoin(HashJoinNode* node, Binding* binding,
                                      const EmitFn& emit) {
  ScopedNodeTimer timer(timing_, &node->stats);
  obs::TraceSpan span(env_.registry->metrics(), "exec.hash_join");
  node->stats.executed = true;
  ++node->stats.loops;

  AccessNode* build_access = AccessOf(node->build.get());
  size_t build_var = static_cast<size_t>(build_access->var);
  bool has_residual =
      !node->residual.where.empty() || !node->residual.when.empty();

  // ---- build: run the build side to completion into the hash table.  The
  // per-row body only evaluates the key and copies the version into the
  // table — no page I/O — so morsel batching is always safe here.
  std::unordered_map<std::string, std::vector<VersionRef>> table;
  std::string keybuf;
  std::optional<ParScan> par_build = TryPlanParallelScan(node->build.get());
  if (par_build.has_value()) {
    // Parallel build: workers evaluate keys and clone versions into
    // per-chunk staging vectors; the coordinator inserts them in chunk
    // order, so every bucket's match list keeps the serial row order.
    struct BuildWorker {
      std::optional<CompiledProgram> prog;  // private build-key program
      std::string keybuf;
    };
    const BuildWorker proto{node->build_prog, {}};
    PerWorker<BuildWorker> workers(proto, env_.exec_threads);
    Slots<std::vector<std::pair<std::string, VersionRef>>> out(
        par_build->chunks.size());
    ParallelRowFn build_chunk_row = [&](int worker, size_t task,
                                        Binding* b) -> Status {
      BuildWorker& w = workers.Get(worker);
      Value key;
      if (w.prog.has_value()) {
        TDB_ASSIGN_OR_RETURN(key, w.prog->Eval(*b, env_.now));
      } else {
        TDB_ASSIGN_OR_RETURN(key, eval_.Eval(*node->build_key, *b));
      }
      if (!NormalizedJoinKey(key, &w.keybuf)) return Status::OK();
      out[task].emplace_back(w.keybuf, (*b)[build_var]->Clone());
      return Status::OK();
    };
    TDB_RETURN_NOT_OK(RunParallelScan(&*par_build, *binding, build_chunk_row));
    for (size_t t = 0; t < out.size(); ++t) {
      for (auto& [k, v] : out[t]) table[k].push_back(std::move(v));
    }
  } else {
    const EmitFn build_row = [&](const Binding& b) -> Status {
      Value key;
      if (node->build_prog.has_value()) {
        TDB_ASSIGN_OR_RETURN(key, node->build_prog->Eval(b, env_.now));
      } else {
        TDB_ASSIGN_OR_RETURN(key, eval_.Eval(*node->build_key, b));
      }
      if (!NormalizedJoinKey(key, &keybuf)) return Status::OK();
      // Materialize: the producer's ref borrows cursor/morsel bytes that
      // die on the next advance, so the table needs an owning copy.
      table[keybuf].push_back(b[build_var]->Clone());
      return Status::OK();
    };
    TDB_RETURN_NOT_OK(
        vectorized_
            ? ExecuteLevelVectorized(node->build.get(), binding, build_row)
            : ExecuteLevel(node->build.get(), binding, build_row));
  }

  // ---- probe: stream the probe side, looking up matches per row.  The
  // emit body does no page I/O (into-materialization runs after iteration),
  // so the probe side batches too.
  uint64_t candidates = 0;
  uint64_t matches = 0;
  Status status = Status::OK();
  // A hash join always sits directly under the plan root, so `emit` is the
  // root's projector+sink pair; the parallel probe needs them split (rows
  // built on workers, ordering-sensitive sink on the coordinator).
  std::optional<ParScan> par_probe =
      root_proj_ != nullptr && root_sink_ != nullptr
          ? TryPlanParallelScan(node->probe.get())
          : std::nullopt;
  if (par_probe.has_value()) {
    // Freeze the table for concurrent probing: materialize every entry's
    // row up front so the workers' attr() reads never race on the refs'
    // lazy-decode caches.
    for (auto& [k, vec] : table) {
      (void)k;
      for (VersionRef& v : vec) v.FullRow();
    }
    const bool residual_compiled = FilterCompiled(node->residual);
    struct ProbeWorker {
      std::optional<CompiledProgram> prog;  // private probe-key program
      std::vector<CompiledProgram> res_where;
      std::vector<CompiledProgram> res_when;
      RowProjector proj;
      std::string keybuf;
    };
    ProbeWorker proto{node->probe_prog, {}, {}, *root_proj_, {}};
    if (residual_compiled) {
      proto.res_where = node->residual.where_prog;
      proto.res_when = node->residual.when_prog;
    }
    PerWorker<ProbeWorker> workers(proto, env_.exec_threads);
    struct ProbeOut {
      std::vector<Row> rows;
      uint64_t candidates = 0;
      uint64_t matches = 0;
    };
    Slots<ProbeOut> out(par_probe->chunks.size());
    ParallelRowFn probe_chunk_row = [&](int worker, size_t task,
                                        Binding* b) -> Status {
      ProbeWorker& t = workers.Get(worker);
      ProbeOut& o = out[task];
      Value key;
      if (t.prog.has_value()) {
        TDB_ASSIGN_OR_RETURN(key, t.prog->Eval(*b, env_.now));
      } else {
        TDB_ASSIGN_OR_RETURN(key, eval_.Eval(*node->probe_key, *b));
      }
      if (!NormalizedJoinKey(key, &t.keybuf)) return Status::OK();
      auto it = table.find(t.keybuf);
      if (it == table.end()) return Status::OK();
      for (const VersionRef& bref : it->second) {
        ++o.candidates;
        (*b)[build_var] = &bref;
        bool pass = true;
        if (has_residual) {
          auto pr = EvalFilterWith(node->residual, t.res_where, t.res_when,
                                   residual_compiled, *b);
          if (!pr.ok()) {
            (*b)[build_var] = nullptr;
            return pr.status();
          }
          pass = *pr;
        }
        if (!pass) continue;
        ++o.matches;
        Row row;
        TDB_ASSIGN_OR_RETURN(bool keep, t.proj.BuildRow(*b, &row));
        if (keep) o.rows.push_back(std::move(row));
      }
      (*b)[build_var] = nullptr;
      return Status::OK();
    };
    status = RunParallelScan(&*par_probe, *binding, probe_chunk_row);
    if (status.ok()) {
      // Merge in chunk order = the serial emit order.
      for (size_t t = 0; t < out.size(); ++t) {
        candidates += out[t].candidates;
        matches += out[t].matches;
        for (Row& row : out[t].rows) {
          status = (*root_sink_)(std::move(row));
          if (!status.ok()) break;
        }
        if (!status.ok()) break;
      }
    }
  } else {
    const EmitFn probe_row = [&](const Binding& b) -> Status {
      Value key;
      if (node->probe_prog.has_value()) {
        TDB_ASSIGN_OR_RETURN(key, node->probe_prog->Eval(b, env_.now));
      } else {
        TDB_ASSIGN_OR_RETURN(key, eval_.Eval(*node->probe_key, b));
      }
      if (!NormalizedJoinKey(key, &keybuf)) return Status::OK();
      auto it = table.find(keybuf);
      if (it == table.end()) return Status::OK();
      for (const VersionRef& bref : it->second) {
        ++candidates;
        (*binding)[build_var] = &bref;
        bool pass = true;
        if (has_residual) {
          TDB_ASSIGN_OR_RETURN(pass, EvalFilter(node->residual, *binding));
        }
        if (!pass) continue;
        ++matches;
        TDB_RETURN_NOT_OK(emit(*binding));
      }
      (*binding)[build_var] = nullptr;
      return Status::OK();
    };
    status = vectorized_
                 ? ExecuteLevelVectorized(node->probe.get(), binding,
                                          probe_row)
                 : ExecuteLevel(node->probe.get(), binding, probe_row);
  }
  (*binding)[build_var] = nullptr;
  node->stats.rows_examined += candidates;
  node->stats.rows_emitted += matches;
  return status;
}

Status QueryExecutor::ExecuteIntervalJoin(IntervalJoinNode* node,
                                          Binding* binding,
                                          const EmitFn& emit) {
  ScopedNodeTimer timer(timing_, &node->stats);
  obs::TraceSpan span(env_.registry->metrics(), "exec.interval_join");
  node->stats.executed = true;
  ++node->stats.loops;

  size_t lvar = static_cast<size_t>(AccessOf(node->left.get())->var);
  size_t rvar = static_cast<size_t>(AccessOf(node->right.get())->var);
  bool has_residual =
      !node->residual.where.empty() || !node->residual.when.empty();

  // Materialize both sides; as-of qualification and the per-side filters
  // already ran inside the levels.  Each side's gather body only clones the
  // bound version, so it parallelizes as per-chunk staging vectors merged
  // in chunk order (= the serial gather order, preserved through the
  // stable sort below).
  auto gather = [&](PlanNode* side, size_t var,
                    std::vector<VersionRef>* out) -> Status {
    std::optional<ParScan> par = TryPlanParallelScan(side);
    if (par.has_value()) {
      Slots<std::vector<VersionRef>> tasks(par->chunks.size());
      ParallelRowFn chunk_row = [&](int, size_t task, Binding* b) -> Status {
        tasks[task].push_back((*b)[var]->Clone());
        return Status::OK();
      };
      TDB_RETURN_NOT_OK(RunParallelScan(&*par, *binding, chunk_row));
      for (size_t t = 0; t < tasks.size(); ++t) {
        for (VersionRef& v : tasks[t]) out->push_back(std::move(v));
      }
      return Status::OK();
    }
    const EmitFn keep = [&](const Binding& b) -> Status {
      out->push_back(b[var]->Clone());
      return Status::OK();
    };
    return vectorized_ ? ExecuteLevelVectorized(side, binding, keep)
                       : ExecuteLevel(side, binding, keep);
  };
  std::vector<VersionRef> left;
  std::vector<VersionRef> right;
  TDB_RETURN_NOT_OK(gather(node->left.get(), lvar, &left));
  TDB_RETURN_NOT_OK(gather(node->right.get(), rvar, &right));

  // Sort by valid-interval start (stable, ties by end) so the sweep can
  // retire each version once.
  auto by_start = [](const VersionRef& a, const VersionRef& b) {
    if (!(a.valid.from == b.valid.from)) return a.valid.from < b.valid.from;
    return a.valid.to < b.valid.to;
  };
  std::stable_sort(left.begin(), left.end(), by_start);
  std::stable_sort(right.begin(), right.end(), by_start);

  // Two-pointer sweep: retire the side with the smaller start, scanning the
  // other side from its pointer while starts stay within the retired
  // interval (an inclusive bound — a safe superset of overlap, and exact
  // for the event-interval equality case).  Every overlapping pair is
  // examined exactly once, at the first retirement of either version.
  uint64_t candidates = 0;
  uint64_t matches = 0;
  Status status = Status::OK();
  auto pair_body = [&](const VersionRef& l, const VersionRef& r) -> Status {
    ++candidates;
    if (!l.valid.Overlaps(r.valid)) return Status::OK();
    (*binding)[lvar] = &l;
    (*binding)[rvar] = &r;
    bool pass = true;
    if (has_residual) {
      TDB_ASSIGN_OR_RETURN(pass, EvalFilter(node->residual, *binding));
    }
    if (!pass) return Status::OK();
    ++matches;
    return emit(*binding);
  };
  size_t li = 0;
  size_t rj = 0;
  while (li < left.size() && rj < right.size() && status.ok()) {
    if (left[li].valid.from <= right[rj].valid.from) {
      const VersionRef& cur = left[li];
      for (size_t k = rj; k < right.size() && status.ok(); ++k) {
        if (cur.valid.to < right[k].valid.from) break;
        status = pair_body(cur, right[k]);
      }
      ++li;
    } else {
      const VersionRef& cur = right[rj];
      for (size_t k = li; k < left.size() && status.ok(); ++k) {
        if (cur.valid.to < left[k].valid.from) break;
        status = pair_body(left[k], cur);
      }
      ++rj;
    }
  }
  (*binding)[lvar] = nullptr;
  (*binding)[rvar] = nullptr;
  node->stats.rows_examined += candidates;
  node->stats.rows_emitted += matches;
  return status;
}

namespace {

/// Accumulator for one aggregate group.
struct AggAccumulator {
  int64_t count = 0;
  double sum = 0;
  bool sum_is_float = false;
  bool have_minmax = false;
  Value minv;
  Value maxv;

  Status Add(const Value& v) {
    ++count;
    if (v.is_numeric()) {
      sum += v.AsDouble();
      if (v.type() == TypeId::kFloat8) sum_is_float = true;
    }
    if (!have_minmax) {
      minv = maxv = v;
      have_minmax = true;
    } else {
      int cmin = 0;
      if (!Value::TryCompare(v, minv, &cmin)) {
        return Value::Compare(v, minv).status();
      }
      if (cmin < 0) minv = v;
      int cmax = 0;
      if (!Value::TryCompare(v, maxv, &cmax)) {
        return Value::Compare(v, maxv).status();
      }
      if (cmax > 0) maxv = v;
    }
    return Status::OK();
  }

  Value Finish(AggFunc func) const {
    switch (func) {
      case AggFunc::kCount:
        return Value::Int4(count);
      case AggFunc::kAny:
        return Value::Int4(count > 0 ? 1 : 0);
      case AggFunc::kSum:
        return sum_is_float ? Value::Float8(sum)
                            : Value::Int4(static_cast<int64_t>(sum));
      case AggFunc::kAvg:
        return Value::Float8(count > 0 ? sum / static_cast<double>(count)
                                       : 0);
      case AggFunc::kMin:
        return have_minmax ? minv : Value::Int4(0);
      case AggFunc::kMax:
        return have_minmax ? maxv : Value::Int4(0);
    }
    return Value::Int4(0);
  }
};

}  // namespace

Status QueryExecutor::FoldAggregate(Expr* expr, const BoundStatement& bound) {
  if (expr == nullptr) return Status::OK();
  if (expr->kind != Expr::Kind::kAggregate) {
    TDB_RETURN_NOT_OK(FoldAggregate(expr->left.get(), bound));
    TDB_RETURN_NOT_OK(FoldAggregate(expr->right.get(), bound));
    return Status::OK();
  }
  std::set<int> agg_vars;
  CollectExprVars(expr->agg_arg.get(), &agg_vars);
  CollectExprVars(expr->agg_by.get(), &agg_vars);
  CollectExprVars(expr->agg_where.get(), &agg_vars);
  if (agg_vars.size() != 1) {
    return Status::NotSupported(
        "aggregates must reference exactly one tuple variable");
  }
  int var = *agg_vars.begin();
  Relation* rel = rels_[static_cast<size_t>(var)];
  const Schema& schema = rel->schema();

  // Aggregates are independent one-variable subqueries over the state of
  // the relation at the statement's rollback point (`as of`, defaulting to
  // now): versions whose transaction interval covers the rollback point and
  // — for interval relations — that are valid at it.  `by` aggregates
  // accumulate per group.
  AccessSpec spec;
  spec.kind = AccessSpec::Kind::kScan;
  TDB_ASSIGN_OR_RETURN(auto src, VersionSource::Create(rel, spec));
  Binding binding(rels_.size(), nullptr);

  std::map<std::string, AggAccumulator> groups;
  while (true) {
    TDB_ASSIGN_OR_RETURN(bool have, src->Next());
    if (!have) break;
    const VersionRef& ref = src->ref();
    if (HasTransactionTime(schema.db_type()) && !QualifiesAsOf(ref.tx)) {
      continue;
    }
    if (HasValidTime(schema.db_type()) &&
        schema.entity_kind() == EntityKind::kInterval &&
        !ref.valid.Contains(as_of_at_)) {
      continue;
    }
    binding[static_cast<size_t>(var)] = &src->ref();
    if (expr->agg_where != nullptr) {
      TDB_ASSIGN_OR_RETURN(bool ok, eval_.EvalBool(*expr->agg_where, binding));
      if (!ok) continue;
    }
    std::string group;
    if (expr->agg_by != nullptr) {
      TDB_ASSIGN_OR_RETURN(Value by, eval_.Eval(*expr->agg_by, binding));
      group = by.ToString();
    }
    TDB_ASSIGN_OR_RETURN(Value v, eval_.Eval(*expr->agg_arg, binding));
    TDB_RETURN_NOT_OK(groups[group].Add(v));
  }

  AggFunc func = expr->agg;
  if (expr->agg_by != nullptr) {
    // Keep the node; evaluation looks the group up per output row.
    auto result = std::make_shared<std::map<std::string, Value>>();
    for (const auto& [key, acc] : groups) {
      (*result)[key] = acc.Finish(func);
    }
    expr->agg_groups = std::move(result);
    return Status::OK();
  }

  // Plain aggregate: replace the node with a constant.
  Value v = groups[""].Finish(func);
  expr->agg_arg.reset();
  expr->agg_where.reset();
  if (v.type() == TypeId::kChar) {
    expr->kind = Expr::Kind::kConstString;
    expr->str_val = v.ToString();
  } else if (v.type() == TypeId::kFloat8) {
    expr->kind = Expr::Kind::kConstFloat;
    expr->float_val = v.AsDouble();
  } else {
    expr->kind = Expr::Kind::kConstInt;
    expr->int_val = v.AsInt();
  }
  return Status::OK();
}

Status QueryExecutor::FoldAggregates(RetrieveStmt* stmt,
                                     const BoundStatement& bound) {
  for (TargetItem& item : stmt->targets) {
    TDB_RETURN_NOT_OK(FoldAggregate(item.expr.get(), bound));
  }
  return Status::OK();
}

Result<ExecResult> QueryExecutor::Retrieve(RetrieveStmt* stmt,
                                           const BoundStatement& bound,
                                           std::shared_ptr<PhysicalPlan> prebuilt) {
  timing_ = env_.registry->metrics() != nullptr;
  vectorized_ = env_.vector_exec;
  obs::TraceSpan span(env_.registry->metrics(), "exec.retrieve");
  stmt_ = stmt;
  rels_.clear();
  for (const BoundVar& bv : bound.vars) {
    TDB_ASSIGN_OR_RETURN(Relation * rel, env_.GetRelation(bv.rel->name));
    rels_.push_back(rel);
  }

  // All planning decisions — access paths, join order, residual-filter
  // placement, the rollback point — are made up front (or were, for a
  // cached plan cloned into `prebuilt`).
  std::shared_ptr<PhysicalPlan> plan = std::move(prebuilt);
  if (plan == nullptr) {
    TDB_ASSIGN_OR_RETURN(plan, BuildPlan(*stmt, bound, env_));
  }
  if (env_.params != nullptr) BindPlanParams(plan.get(), *env_.params);
  // Root wall time covers everything from here on (folding, iteration,
  // sort, materialization); the stats object outlives this frame through
  // the shared plan, so the timer's late write lands safely.
  ScopedNodeTimer root_timer(timing_, &plan->root->stats);
  as_of_at_ = plan->as_of_at;
  has_through_ = plan->has_through;
  as_of_through_ = plan->as_of_through;

  // Aggregate folding runs before iteration starts (it performs its own
  // one-variable scans); its I/O is deliberately outside the plan tree.
  TDB_RETURN_NOT_OK(FoldAggregates(stmt, bound));

  // Lower the target list and valid clause AFTER folding: plain aggregates
  // are constants by now, and grouped aggregates (which keep their node)
  // fail to compile and stay on the Evaluator per target.
  std::vector<std::optional<CompiledProgram>> target_progs;
  std::optional<CompiledProgram> valid_from_prog;
  std::optional<CompiledProgram> valid_to_prog;
  if (env_.compiled_expr) {
    target_progs.reserve(stmt->targets.size());
    for (const TargetItem& t : stmt->targets) {
      target_progs.push_back(CompiledProgram::CompileExpr(*t.expr));
      if (target_progs.back().has_value() && env_.params != nullptr) {
        target_progs.back()->BindParams(*env_.params);
      }
    }
    if (stmt->valid.has_value()) {
      valid_from_prog = CompiledProgram::CompileTemporal(*stmt->valid->from);
      if (!stmt->valid->at) {
        valid_to_prog = CompiledProgram::CompileTemporal(*stmt->valid->to);
      }
    }
  } else {
    target_progs.resize(stmt->targets.size());
  }

  bool valid_output = plan->root->valid_output;

  ResultSet result;
  for (const TargetItem& t : stmt->targets) result.columns.push_back(t.name);
  if (valid_output) {
    result.columns.push_back(kAttrValidFrom);
    result.columns.push_back(kAttrValidTo);
  }

  // The emit path is split in two: the projector builds output rows (pure
  // given a binding — parallel scans copy it per task and run it on worker
  // threads), the sink applies `unique` dedup and appends to the result
  // (ordering-sensitive — always coordinator-side, in serial row order).
  RowProjector proj;
  proj.stmt = stmt;
  proj.valid_output = valid_output;
  proj.target_progs = std::move(target_progs);
  proj.valid_from_prog = std::move(valid_from_prog);
  proj.valid_to_prog = std::move(valid_to_prog);
  proj.now = env_.now;
  proj.eval = &eval_;

  std::set<std::string> seen;  // for `unique`
  std::function<Status(Row&&)> sink = [&](Row&& row) -> Status {
    if (stmt->unique) {
      std::string key;
      for (const Value& v : row) {
        key += v.ToString();
        key += '\x1f';
      }
      if (!seen.insert(std::move(key)).second) return Status::OK();
    }
    result.rows.push_back(std::move(row));
    return Status::OK();
  };
  EmitFn emit = [&](const Binding& binding) -> Status {
    Row row;
    TDB_ASSIGN_OR_RETURN(bool keep, proj.BuildRow(binding, &row));
    if (!keep) return Status::OK();
    return sink(std::move(row));
  };
  root_proj_ = &proj;
  root_sink_ = &sink;

  Binding binding(rels_.size(), nullptr);
  PlanNode* input = plan->root->child.get();
  if (input == nullptr) {
    // Constant plan: one row from an empty binding.
    TDB_RETURN_NOT_OK(emit(binding));
  } else if (input->kind == PlanNode::Kind::kNestedLoop) {
    TDB_RETURN_NOT_OK(ExecuteNestedLoop(static_cast<NestedLoopNode*>(input),
                                        0, &binding, emit));
  } else if (input->kind == PlanNode::Kind::kSubstitution) {
    TDB_RETURN_NOT_OK(ExecuteSubstitution(
        static_cast<SubstitutionNode*>(input), &binding, emit));
  } else if (input->kind == PlanNode::Kind::kHashJoin) {
    TDB_RETURN_NOT_OK(
        ExecuteHashJoin(static_cast<HashJoinNode*>(input), &binding, emit));
  } else if (input->kind == PlanNode::Kind::kIntervalJoin) {
    TDB_RETURN_NOT_OK(ExecuteIntervalJoin(
        static_cast<IntervalJoinNode*>(input), &binding, emit));
  } else if (std::optional<ParScan> par = TryPlanParallelScan(input);
             par.has_value()) {
    // Parallel lone level: workers project rows into per-chunk buffers;
    // the coordinator drains them through the sink in chunk order, which
    // IS the serial row order.
    PerWorker<RowProjector> projs(proj, env_.exec_threads);
    Slots<std::vector<Row>> rows(par->chunks.size());
    ParallelRowFn chunk_row = [&](int worker, size_t task,
                                  Binding* b) -> Status {
      Row row;
      TDB_ASSIGN_OR_RETURN(bool keep, projs.Get(worker).BuildRow(*b, &row));
      if (keep) rows[task].push_back(std::move(row));
      return Status::OK();
    };
    TDB_RETURN_NOT_OK(RunParallelScan(&*par, binding, chunk_row));
    for (size_t t = 0; t < rows.size(); ++t) {
      for (Row& row : rows[t]) TDB_RETURN_NOT_OK(sink(std::move(row)));
    }
  } else {
    // A lone level's emit body does no page I/O, so batching is always safe.
    TDB_RETURN_NOT_OK(vectorized_
                          ? ExecuteLevelVectorized(input, &binding, emit)
                          : ExecuteLevel(input, &binding, emit));
  }
  root_proj_ = nullptr;
  root_sink_ = nullptr;

  // `sort by` orders the result by named output columns (stable, so
  // secondary keys listed later act as tie breakers of earlier ones).
  // Keys are resolved into a local copy: the statement may be a cached
  // AST shared by concurrent sessions, so it is never written here.
  if (!stmt->sort_by.empty()) {
    std::vector<SortKey> sort_keys = stmt->sort_by;
    for (SortKey& key : sort_keys) {
      key.target_index = -1;
      for (size_t i = 0; i < result.columns.size(); ++i) {
        if (EqualsIgnoreCase(result.columns[i], key.target)) {
          key.target_index = static_cast<int>(i);
          break;
        }
      }
      if (key.target_index < 0) {
        return Status::BindError("sort by: no output column named '" +
                                 key.target + "'");
      }
    }
    Status sort_error = Status::OK();
    std::stable_sort(result.rows.begin(), result.rows.end(),
                     [&](const Row& a, const Row& b) {
                       for (const SortKey& key : sort_keys) {
                         size_t i = static_cast<size_t>(key.target_index);
                         int c = 0;
                         if (!Value::TryCompare(a[i], b[i], &c)) {
                           sort_error = Value::Compare(a[i], b[i]).status();
                           return false;
                         }
                         if (c != 0) return key.descending ? c > 0 : c < 0;
                       }
                       return false;
                     });
    TDB_RETURN_NOT_OK(sort_error);
  }

  plan->root->stats.executed = true;
  plan->root->stats.loops = 1;
  plan->root->stats.rows_emitted = result.rows.size();

  ExecResult out;
  if (!stmt->into.empty()) {
    // Materialize into a new relation: historical when a valid interval was
    // computed, plain static otherwise.
    std::vector<Attribute> attrs;
    for (const TargetItem& t : stmt->targets) {
      attrs.push_back(InferAttribute(t.name, *t.expr, bound.vars));
    }
    DbType type = valid_output ? DbType::kHistorical : DbType::kStatic;
    TDB_ASSIGN_OR_RETURN(Schema schema, Schema::Create(std::move(attrs), type));
    RelationMeta meta;
    meta.name = stmt->into;
    meta.schema = schema;
    meta.org = Organization::kHeap;
    TDB_RETURN_NOT_OK(env_.catalog->Create(meta));
    TDB_ASSIGN_OR_RETURN(Relation * rel, env_.GetRelation(stmt->into));
    for (const Row& row : result.rows) {
      TDB_ASSIGN_OR_RETURN(auto rec, EncodeRecord(schema, row));
      Tid tid;
      TDB_RETURN_NOT_OK(rel->InsertPrimary(rec, &tid));
    }
    TDB_RETURN_NOT_OK(rel->primary()->pager()->Flush());
    out.affected = static_cast<int64_t>(result.rows.size());
    out.message = StrPrintf("retrieved %lld tuples into %s",
                            static_cast<long long>(out.affected),
                            stmt->into.c_str());
  } else {
    out.affected = static_cast<int64_t>(result.rows.size());
    out.result = std::move(result);
  }
  if (out.message.empty()) {
    out.message = "plan: " + plan->Summary();
  }
  out.plan = std::move(plan);
  return out;
}

}  // namespace tdb
