#include <cstdlib>
#include <string_view>

#include "core/database.h"
#include "exec/join_method.h"
#include "util/stringx.h"

namespace tdb {

namespace {

/// "on unless 0" boolean levers; absent keeps `*field`.
void BoolFromEnv(const char* name, bool* field) {
  if (const char* v = std::getenv(name)) *field = std::string_view(v) != "0";
}

/// Positive integer levers; absent, unparseable or non-positive keeps
/// `*field`.
template <typename T>
void IntFromEnv(const char* name, T* field) {
  const char* v = std::getenv(name);
  if (v == nullptr) return;
  int64_t parsed = 0;
  if (!ParseInt64(v, &parsed) || parsed <= 0) return;
  if (parsed > INT32_MAX) parsed = INT32_MAX;
  *field = static_cast<T>(parsed);
}

}  // namespace

DatabaseOptions DatabaseOptions::FromEnv() {
  DatabaseOptions o;
  BoolFromEnv("TDB_METRICS", &o.metrics);
  if (const char* v = std::getenv("TDB_JOIN_METHOD")) {
    // Present but unparseable degrades to kPaper: the lever never failed
    // open.
    o.join_method = ParseJoinMethod(v).value_or(JoinMethod::kPaper);
  }
  BoolFromEnv("TDB_VECTOR_EXEC", &o.vector_exec);
  IntFromEnv("TDB_MORSEL_CAP", &o.morsel_capacity);
  IntFromEnv("TDB_EXEC_THREADS", &o.exec_threads);
  BoolFromEnv("TDB_COMPILED_EXPR", &o.compiled_expr);
  IntFromEnv("TDB_PAGE_SIZE", &o.page_size);
  BoolFromEnv("TDB_PAGE_CHECKSUM", &o.page_checksum);
  IntFromEnv("TDB_POOL_FRAMES", &o.pool_frames);
  if (const char* v = std::getenv("TDB_POOL_FILE_CAP")) {
    int64_t parsed = 0;
    if (ParseInt64(v, &parsed) && parsed != 0) {
      o.pool_file_cap = parsed < 0 ? -1 : static_cast<int>(parsed);
    }
  }
  if (const char* v = std::getenv("TDB_VACUUM_PARTITION")) {
    o.vacuum_partition = v;
  }
  BoolFromEnv("TDB_PLAN_CACHE", &o.plan_cache);
  return o;
}

}  // namespace tdb
