#ifndef CHRONOQUEL_CORE_PLAN_CACHE_H_
#define CHRONOQUEL_CORE_PLAN_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "exec/plan.h"
#include "tquel/ast.h"

namespace tdb {

/// One cached compiled statement: a bound copy of the statement's AST plus
/// the physical-plan template built from it.  Immutable after insertion —
/// every execution deep-copies the template (ClonePlanForExec), binds its
/// arguments into the copy, and treats the AST as read-only, so concurrent
/// sessions can share one entry.
///
/// The AST belongs to the entry, not to the session that planned it: the
/// plan's expression pointers alias it, so the entry must outlive every
/// clone executing against it — guaranteed by handing entries out as
/// shared_ptr<const CachedPlan>.  An executing session supplies its own
/// BoundStatement for the same key; the key fixes its variables.
struct CachedPlan {
  std::unique_ptr<RetrieveStmt> stmt;
  std::shared_ptr<const PhysicalPlan> plan;
};

/// Process-shared, sharded LRU cache of compiled retrieve plans.
///
/// Keys are flat strings built by the session layer (Session::
/// PlanCacheKeyFor) from what a plan depends on: the Database instance,
/// the statement text, each variable's relation, the catalog generation,
/// the engine knobs and, under cost planning, the relations' stats epochs.
/// DDL moves the generation, so plans outlive data writes but not schema
/// changes, and stale entries age out of the LRU.  A cache hit may change
/// CPU cost, never results.
///
/// Sharded by key hash (8 shards, one mutex each) so concurrent sessions
/// rarely contend; within a shard, lookups refresh LRU position and
/// insertion evicts from the cold end past `capacity / kShards` entries.
class PlanCache {
 public:
  static constexpr int kShards = 8;

  explicit PlanCache(size_t capacity = 256);

  /// Returns the entry for `key` (refreshing its LRU position), or null.
  std::shared_ptr<const CachedPlan> Lookup(const std::string& key);

  /// Inserts (or replaces) the entry for `key`, evicting the shard's
  /// least-recently-used entries past its capacity.
  void Insert(const std::string& key, std::shared_ptr<const CachedPlan> entry);

  /// Drops every entry (tests; also useful after closing a database whose
  /// directory will be reused).
  void Clear();

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  size_t size() const;

 private:
  struct Shard {
    mutable std::mutex mu;
    /// Most-recently-used at the front.
    std::list<std::pair<std::string, std::shared_ptr<const CachedPlan>>> lru;
    std::unordered_map<std::string, decltype(lru)::iterator> index;
  };

  Shard* ShardFor(const std::string& key);

  size_t shard_capacity_;
  Shard shards_[kShards];
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
};

/// The process-wide cache every Database shares (entries are keyed by
/// Database instance, so distinct databases never collide).
PlanCache& GlobalPlanCache();

}  // namespace tdb

#endif  // CHRONOQUEL_CORE_PLAN_CACHE_H_
