#ifndef CHRONOQUEL_EXEC_JOIN_METHOD_H_
#define CHRONOQUEL_EXEC_JOIN_METHOD_H_

#include <optional>
#include <string>

namespace tdb {

/// How the planner decides multi-variable plans.
///
///   kPaper      — the historical behavior: tuple substitution into a keyed
///                 inner when one exists, left-deep nested loops otherwise.
///                 This is the paper-mode default; every page-I/O golden is
///                 pinned to it.
///   kAuto       — cost-based: the planner estimates page I/O (diskmodel
///                 parameters x catalog cardinalities) for every candidate
///                 join order and method and picks the cheapest among
///                 substitution, nested loop, batched hash join, and the
///                 sort/merge temporal interval join.
///   kNestedLoop — force left-deep nested loops (no substitution), with
///                 cost-estimated annotations.
///   kHash       — force the batched hash join when an equality conjunct
///                 links two variables; falls back to the paper plan
///                 otherwise.
///   kMerge      — force the sort/merge interval join when an `overlap`
///                 conjunct links two valid-time variables; falls back to
///                 the paper plan otherwise.
enum class JoinMethod {
  kPaper,
  kAuto,
  kNestedLoop,
  kHash,
  kMerge,
};

const char* JoinMethodName(JoinMethod m);

/// Parses "paper"/"auto"/"nlj"/"hash"/"merge" (case-insensitive).
std::optional<JoinMethod> ParseJoinMethod(const std::string& text);

}  // namespace tdb

#endif  // CHRONOQUEL_EXEC_JOIN_METHOD_H_
