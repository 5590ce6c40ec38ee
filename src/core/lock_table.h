#ifndef CHRONOQUEL_CORE_LOCK_TABLE_H_
#define CHRONOQUEL_CORE_LOCK_TABLE_H_

#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

namespace tdb {

/// Per-relation reader-writer locks plus a database-wide DDL latch, the
/// whole concurrency control of the service layer.  Statement-granularity
/// two-phase locking: a session acquires every lock its statement needs up
/// front (DDL latch first, then relations in sorted name order — a total
/// order, so no deadlocks) and releases them when the statement finishes.
/// Readers share; a writer excludes other access to its target relation
/// only, so writers on distinct relations and readers of other relations
/// all proceed in parallel.  Logical snapshot isolation on top of this
/// comes from the temporal model itself: each read statement pins an
/// `as of` transaction timestamp, so committed-later versions are filtered
/// even after the locks are gone.  A Database used alone takes the same
/// locks through its default session, uncontended.
class LockTable {
 public:
  /// The relation lock for `name` (case-insensitive), created on first use
  /// and never removed — entries are tiny and relation names few, so a
  /// destroyed relation leaving a lock behind is harmless.
  std::shared_mutex& ForRelation(const std::string& name);

  /// Catalog-shape latch: held shared by every ordinary statement and
  /// exclusively by DDL (create/destroy/modify/index and `retrieve into`),
  /// which mutates the shared catalog image and the relation name space.
  std::shared_mutex& ddl_latch() { return ddl_latch_; }

 private:
  std::mutex mu_;  // guards the map, not the locks
  std::shared_mutex ddl_latch_;
  std::map<std::string, std::unique_ptr<std::shared_mutex>> locks_;
};

/// RAII acquisition of everything one statement needs.  Relations are
/// deduplicated (exclusive wins) and locked in sorted order after the DDL
/// latch; destruction releases in reverse.
class StatementLocks {
 public:
  enum class DdlMode { kShared, kExclusive };

  /// `relations` holds (case-insensitive name, exclusive?) pairs in any
  /// order, duplicates allowed.
  StatementLocks(LockTable* table, DdlMode ddl,
                 std::vector<std::pair<std::string, bool>> relations);
  ~StatementLocks();

  StatementLocks(const StatementLocks&) = delete;
  StatementLocks& operator=(const StatementLocks&) = delete;

 private:
  LockTable* table_;
  DdlMode ddl_;
  /// Sorted, deduplicated (lock, exclusive) acquisition order.
  std::vector<std::pair<std::shared_mutex*, bool>> held_;
};

}  // namespace tdb

#endif  // CHRONOQUEL_CORE_LOCK_TABLE_H_
