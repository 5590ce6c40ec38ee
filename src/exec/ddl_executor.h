#ifndef CHRONOQUEL_EXEC_DDL_EXECUTOR_H_
#define CHRONOQUEL_EXEC_DDL_EXECUTOR_H_

#include <vector>

#include "core/result_set.h"
#include "exec/exec_env.h"
#include "tquel/ast.h"

namespace tdb {

/// Executes the schema / storage statements: create, destroy, modify
/// (reorganize into heap / hash / ISAM, optionally as a two-level store),
/// index (build a secondary index), and copy (batch load/dump with temporal
/// attributes in human-readable form).
class DdlExecutor {
 public:
  explicit DdlExecutor(const ExecEnv& env) : env_(env) {}

  Result<ExecResult> Create(const CreateStmt& stmt);
  Result<ExecResult> Destroy(const DestroyStmt& stmt);
  Result<ExecResult> Modify(const ModifyStmt& stmt);
  Result<ExecResult> Vacuum(const VacuumStmt& stmt);
  Result<ExecResult> Index(const IndexStmt& stmt);
  Result<ExecResult> Copy(const CopyStmt& stmt);
  Result<ExecResult> Help(const HelpStmt& stmt);

 private:
  /// Deletes every physical file belonging to `meta` (data, history,
  /// anchors, index files), each after its journal pre-image; stops at the
  /// first pre-image or delete that fails.
  Status DeleteFiles(const RelationMeta& meta, bool indexes_too);

  /// Re-derives every secondary index of `name` from its stored versions.
  Status RebuildIndexes(const std::string& name);

  ExecEnv env_;
};

/// Parses a surface type name ("i1", "i2", "i4", "f8", "c96") into an
/// attribute type and width.
Result<Attribute> ParseAttrType(const std::string& name,
                                const std::string& type_name);

}  // namespace tdb

#endif  // CHRONOQUEL_EXEC_DDL_EXECUTOR_H_
