#ifndef CHRONOQUEL_TESTS_CLOCK_TEST_UTIL_H_
#define CHRONOQUEL_TESTS_CLOCK_TEST_UTIL_H_

// The clock oracle shared by the commit and crash tests: a database's
// now() must be later than every transaction stamp it has stored, or a
// reopened database could reissue a committed stamp.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/chronoquel.h"

namespace tdb {
namespace testutil {

/// The latest transaction stamp stored in any version of any relation with
/// transaction time ("forever" stops excluded; Beginning() when none).
inline TimePoint LatestTxStamp(Database* db) {
  TimePoint latest = TimePoint::Beginning();
  for (const std::string& name : db->catalog()->RelationNames()) {
    if (!HasTransactionTime(db->catalog()->Find(name)->schema.db_type())) {
      continue;
    }
    auto session = db->CreateSession();
    EXPECT_TRUE(session->Execute("range of x is " + name).ok());
    auto rows = session->Query(
        "retrieve (s = x.transaction_start, t = x.transaction_stop) "
        "as of \"beginning\" through \"forever\"");
    EXPECT_TRUE(rows.ok()) << name << ": " << rows.status().ToString();
    if (!rows.ok()) continue;
    for (const auto& row : rows->rows) {
      for (const Value& v : row) {
        if (!v.AsTime().is_forever()) latest = std::max(latest, v.AsTime());
      }
    }
  }
  return latest;
}

}  // namespace testutil
}  // namespace tdb

#endif  // CHRONOQUEL_TESTS_CLOCK_TEST_UTIL_H_
