#include "exec/join_method.h"

#include "util/stringx.h"

namespace tdb {

const char* JoinMethodName(JoinMethod m) {
  switch (m) {
    case JoinMethod::kPaper:
      return "paper";
    case JoinMethod::kAuto:
      return "auto";
    case JoinMethod::kNestedLoop:
      return "nlj";
    case JoinMethod::kHash:
      return "hash";
    case JoinMethod::kMerge:
      return "merge";
  }
  return "?";
}

std::optional<JoinMethod> ParseJoinMethod(const std::string& text) {
  std::string t = ToLower(Trim(text));
  if (t == "paper") return JoinMethod::kPaper;
  if (t == "auto" || t == "cost") return JoinMethod::kAuto;
  if (t == "nlj" || t == "nested-loop") return JoinMethod::kNestedLoop;
  if (t == "hash") return JoinMethod::kHash;
  if (t == "merge" || t == "interval") return JoinMethod::kMerge;
  return std::nullopt;
}

}  // namespace tdb
