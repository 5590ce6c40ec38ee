#ifndef CHRONOQUEL_EXEC_EXEC_ENV_H_
#define CHRONOQUEL_EXEC_EXEC_ENV_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "core/relation.h"
#include "env/env.h"
#include "exec/join_method.h"
#include "storage/io_stats.h"
#include "storage/journal.h"
#include "storage/pager.h"
#include "types/timepoint.h"

namespace tdb {

/// Everything an executor needs from the owning Database: the environment,
/// the catalog, the open-relation cache, the I/O registry, the current
/// logical time, and the engine configuration.  Database::Open resolves
/// its DatabaseOptions once into a template of this struct; each statement
/// copies the template and fills in its session's fields.  A plain struct
/// so executors stay decoupled from the Database facade.
struct ExecEnv {
  Env* env = nullptr;
  std::string dir;
  Catalog* catalog = nullptr;
  IoRegistry* registry = nullptr;
  std::map<std::string, std::unique_ptr<Relation>>* relations = nullptr;
  TimePoint now;
  /// Buffer frames per relation file (1 = the paper's discipline).
  int buffer_frames = 1;
  /// The owning database's write-ahead journal; null when durability is
  /// off.  Executors route every pager and every file deletion through it.
  Journal* journal = nullptr;
  /// How the planner chooses join order/method.  kPaper (the default)
  /// reproduces the tuple-substitution plans of the paper exactly.
  JoinMethod join_method = JoinMethod::kPaper;
  /// Morsel-at-a-time execution (off: the tuple-at-a-time engine).
  bool vector_exec = true;
  /// Lower expressions to compiled programs (off: the AST Evaluator).
  bool compiled_expr = true;
  size_t morsel_cap = 1024;
  /// Worker threads for morsel-driven parallel pipelines.  1 (the paper's
  /// measurement discipline) keeps execution strictly single-threaded.
  int exec_threads = 1;
  /// Session tag folded into scratch-file names ("__temp<tag><n>.dat") so
  /// concurrent sessions never collide on temporaries.  Empty for the
  /// default session, keeping embedded scratch names byte-identical.
  std::string temp_tag;
  /// Production storage mode for every file the executors open or rebuild
  /// (page size, checksums, shared pool).  Defaults reproduce
  /// the paper byte-for-byte.
  StorageOptions storage;
  /// Vacuum segment-partition policy: "single" (one segment absorbs every
  /// cold version) or "epoch:<seconds>" (segments bucket versions by stamp
  /// into fixed epochs).
  std::string vacuum_partition = "single";
  /// Argument values of an `execute` of a prepared statement; `$N`
  /// expressions resolve to (*params)[N-1].  Null outside prepared
  /// execution — a raw statement containing `$N` then fails to evaluate.
  const std::vector<Value>* params = nullptr;

  /// Usable bytes per page under `storage` (page size minus the CRC
  /// trailer when checksums are on); sizing computations (hash bucket
  /// counts, record-size caps) must use this, not kPageSize.
  uint32_t usable_page_size() const {
    return storage.page_size - (storage.checksum ? 4u : 0u);
  }

  /// Returns the open handle for `name`, opening it from the catalog on
  /// first use.
  Result<Relation*> GetRelation(const std::string& name) const;

  /// Drops the open handle (the files stay); used before destroy / modify.
  void CloseRelation(const std::string& name) const;
};

}  // namespace tdb

#endif  // CHRONOQUEL_EXEC_EXEC_ENV_H_
