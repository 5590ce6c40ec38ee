#include "tquel/normalizer.h"

#include "util/stringx.h"

namespace tdb {

namespace {

bool IsAggregateName(const Token& t) {
  for (const char* name : {"count", "sum", "avg", "min", "max", "any"}) {
    if (t.IsKeyword(name)) return true;
  }
  return false;
}

}  // namespace

std::optional<NormalizedRetrieve> NormalizeRetrieve(
    const std::string& text, const std::vector<Token>& tokens) {
  // tokens always ends with kEnd.
  size_t end = tokens.size() - 1;
  while (end > 0 && tokens[end - 1].Is(TokenType::kSemi)) --end;
  if (end == 0 || !tokens[0].IsKeyword("retrieve")) return std::nullopt;

  size_t i = 1;
  if (tokens[i].IsKeyword("unique")) ++i;
  if (!tokens[i].Is(TokenType::kLParen)) return std::nullopt;  // or `into`
  // The target list runs to the matching ')'.
  int depth = 0;
  size_t body = i;
  for (; body < end; ++body) {
    if (tokens[body].Is(TokenType::kLParen)) ++depth;
    if (tokens[body].Is(TokenType::kRParen) && --depth == 0) break;
  }
  if (body == end) return std::nullopt;

  NormalizedRetrieve out;
  out.offset = tokens[0].pos;
  std::string types;
  size_t copied = 0;  // source bytes already in out.text
  for (size_t k = 0; k < end; ++k) {
    const Token& t = tokens[k];
    if (t.Is(TokenType::kParam) || t.Is(TokenType::kSemi)) {
      return std::nullopt;
    }
    if (t.IsKeyword("as") && tokens[k + 1].IsKeyword("of")) {
      return std::nullopt;
    }
    if (IsAggregateName(t) && tokens[k + 1].Is(TokenType::kLParen)) {
      return std::nullopt;
    }
    const bool number = t.Is(TokenType::kInt) || t.Is(TokenType::kFloat);
    if (k <= body || !number) continue;
    out.text.append(text, copied, t.pos - copied);
    out.args.push_back(t.Is(TokenType::kInt) ? Value::Int4(t.int_val)
                                             : Value::Float8(t.float_val));
    out.text += StrPrintf("$%zu", out.args.size());
    types += t.Is(TokenType::kInt) ? " i4" : " f8";
    copied = t.pos + t.text.size();
  }
  out.text.append(text, copied, std::string::npos);
  out.key = out.text + "\x1f" + types;
  return out;
}

}  // namespace tdb
