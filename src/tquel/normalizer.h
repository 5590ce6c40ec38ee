#ifndef CHRONOQUEL_TQUEL_NORMALIZER_H_
#define CHRONOQUEL_TQUEL_NORMALIZER_H_

#include <optional>
#include <string>
#include <vector>

#include "tquel/token.h"
#include "types/value.h"

namespace tdb {

/// A raw single-statement retrieve with the numeric literals of its
/// clauses lifted out as `$1..$k` parameters: texts that differ only in
/// those constants normalize to one text, which a session prepares once.
struct NormalizedRetrieve {
  /// The source text with each lifted literal spliced out for its `$N`.
  std::string text;
  /// `text` plus the lifted literals' types (i4 or f8): the key of the
  /// session's implicit prepared statements.
  std::string key;
  /// The lifted literals, as the Evaluator would produce them.
  std::vector<Value> args;
  /// Byte offset of the statement's first token in the source text.
  size_t offset = 0;
};

/// Normalizes `text`, already lexed into `tokens`, when it is a single
/// `retrieve` the plan cache admits: no `into`, no `as of`, no aggregate
/// and no `$N` of its own.  Only literals after the target list are lifted
/// (those of the `where` clause; `when` and `valid` take no numbers), so
/// the result's columns and types do not depend on them.  Returns nullopt
/// for anything else.  The check is lexical; the caller's parse of `text`
/// is the final word on the shape.
std::optional<NormalizedRetrieve> NormalizeRetrieve(
    const std::string& text, const std::vector<Token>& tokens);

}  // namespace tdb

#endif  // CHRONOQUEL_TQUEL_NORMALIZER_H_
