// TQuel front-end microbenchmarks: lexing, parsing, and full execution of
// the benchmark queries against a small in-memory database.

#include <benchmark/benchmark.h>

#include "core/database.h"
#include "tquel/lexer.h"
#include "tquel/parser.h"

namespace tdb {
namespace {

const char* kQ12 =
    "retrieve (h.id, h.seq, i.id, i.seq, i.amount) "
    "valid from start of (h overlap i) to end of (h extend i) "
    "where h.id = 500 and i.amount = 73700 "
    "when h overlap i as of \"now\"";

void BM_Lex(benchmark::State& state) {
  std::string text = kQ12;
  for (auto _ : state) {
    auto tokens = Lexer::Tokenize(text);
    benchmark::DoNotOptimize(tokens.ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Lex);

void BM_Parse(benchmark::State& state) {
  std::string text = kQ12;
  for (auto _ : state) {
    auto stmt = Parser::ParseStatement(text);
    benchmark::DoNotOptimize(stmt.ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Parse);

void BM_ExecutePointQuery(benchmark::State& state) {
  MemEnv env;
  DatabaseOptions options = DatabaseOptions::FromEnv();
  options.env = &env;
  auto db = Database::Open("/db", options);
  (void)(*db)->Execute(
      "create persistent interval acct (id = i4, bal = i4)");
  for (int i = 0; i < 256; ++i) {
    (void)(*db)->Execute("append to acct (id = " + std::to_string(i) +
                         ", bal = " + std::to_string(i * 3) + ")");
  }
  (void)(*db)->Execute("modify acct to hash on id where fillfactor = 100");
  (void)(*db)->Execute("range of a is acct");
  for (auto _ : state) {
    auto r = (*db)->Execute(
        "retrieve (a.bal) where a.id = 123 when a overlap \"now\"");
    benchmark::DoNotOptimize(r.ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExecutePointQuery);

void BM_Replace(benchmark::State& state) {
  MemEnv env;
  DatabaseOptions options = DatabaseOptions::FromEnv();
  options.env = &env;
  auto db = Database::Open("/db", options);
  (void)(*db)->Execute(
      "create persistent interval acct (id = i4, bal = i4)");
  for (int i = 0; i < 64; ++i) {
    (void)(*db)->Execute("append to acct (id = " + std::to_string(i) +
                         ", bal = 0)");
  }
  (void)(*db)->Execute("modify acct to hash on id where fillfactor = 100");
  (void)(*db)->Execute("range of a is acct");
  int key = 0;
  for (auto _ : state) {
    auto r = (*db)->Execute("replace a (bal = a.bal + 1) where a.id = " +
                            std::to_string(key++ % 64));
    benchmark::DoNotOptimize(r.ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Replace);

}  // namespace
}  // namespace tdb

BENCHMARK_MAIN();
