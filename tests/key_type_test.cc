// Differential oracle for keyed access over every key type.  Keyed probes
// and range bounds are compared with stored keys straight from the slot
// bytes (storage/key_compare.h); this test checks that path against
// decoded Values and `Value::Compare`.  For each key type (i1, i2, i4, f8, c<N>, time),
// page size (1 KiB, 4 KiB) and organization (hash, ISAM at two fill
// factors, B+-tree, and heap and hash secondary indexes), the rows of
// ScanKey / ScanRange / SecondaryIndex::Lookup — or their error status —
// must equal a `Value::Compare` filter over a full Scan of the same file.
// Both cursor entry points (Next and NextBatch) are drained.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "env/env.h"
#include "index/secondary_index.h"
#include "storage/btree_file.h"
#include "storage/hash_file.h"
#include "storage/isam_file.h"
#include "storage/key_compare.h"
#include "util/random.h"
#include "util/stringx.h"

namespace tdb {
namespace {

constexpr int kKeyOffset = 4;  // records: [seq u32][key][4 bytes padding]
constexpr int kDomain = 200;   // distinct keys per file

struct KeyType {
  const char* name;
  TypeId type;
  uint16_t width;
};

const KeyType kKeyTypes[] = {
    {"i1", TypeId::kInt1, 1},     {"i2", TypeId::kInt2, 2},
    {"i4", TypeId::kInt4, 4},     {"f8", TypeId::kFloat8, 8},
    {"c8", TypeId::kChar, 8},     {"time", TypeId::kTime, 4},
};

RecordLayout LayoutFor(const KeyType& kt) {
  RecordLayout layout;
  layout.key_offset = kKeyOffset;
  layout.key_type = kt.type;
  layout.key_width = kt.width;
  layout.record_size = static_cast<uint16_t>(kKeyOffset + kt.width + 4);
  return layout;
}

std::string CharKey(int i) {
  if (i % 10 == 0) return StrPrintf("k%04dabc", i);  // exactly the width
  if (i % 10 == 5) return StrPrintf(" b%03d", i);    // a leading blank
  return StrPrintf("k%04d", i);                      // blank padded
}

/// The i-th distinct key of the domain, ascending for numbers and times.
Value DomainKey(const KeyType& kt, int i) {
  switch (kt.type) {
    case TypeId::kInt1:
      return Value::Int1(i - 100);
    case TypeId::kInt2:
      return Value::Int2(-30000 + 300 * i);
    case TypeId::kInt4:
      return Value::Int4(-2000000000LL + 20000000LL * i);
    case TypeId::kFloat8:
      return Value::Float8((i - 100) * 0.5);
    case TypeId::kChar:
      return Value::Char(CharKey(i));
    case TypeId::kTime:
      return Value::Time(TimePoint(1000000 + 3600 * i));
  }
  return Value();
}

void EncodeKey(const KeyType& kt, const Value& v, uint8_t* out) {
  switch (kt.type) {
    case TypeId::kInt1:
    case TypeId::kInt2:
    case TypeId::kInt4: {
      const int64_t x = v.AsInt();
      std::memcpy(out, &x, kt.width);  // little endian
      break;
    }
    case TypeId::kFloat8: {
      const double d = v.AsDouble();
      std::memcpy(out, &d, 8);
      break;
    }
    case TypeId::kChar: {
      const std::string& s = v.AsString();
      std::memset(out, ' ', kt.width);
      std::memcpy(out, s.data(), std::min<size_t>(s.size(), kt.width));
      break;
    }
    case TypeId::kTime: {
      const int32_t secs = v.AsTime().seconds();
      std::memcpy(out, &secs, 4);
      break;
    }
  }
}

using Record = std::vector<uint8_t>;

/// 1 to 4 versions of each domain key, shuffled.
std::vector<Record> MakeRecords(const KeyType& kt, uint64_t seed) {
  const RecordLayout layout = LayoutFor(kt);
  Random rng(seed);
  std::vector<Record> records;
  uint32_t seq = 0;
  for (int i = 0; i < kDomain; ++i) {
    const int versions = 1 + static_cast<int>(rng.Uniform(4));
    for (int v = 0; v < versions; ++v) {
      Record rec(layout.record_size, 0);
      std::memcpy(rec.data(), &seq, 4);
      ++seq;
      EncodeKey(kt, DomainKey(kt, i), rec.data() + kKeyOffset);
      records.push_back(std::move(rec));
    }
  }
  for (size_t i = records.size(); i > 1; --i) {
    std::swap(records[i - 1], records[rng.Uniform(i)]);
  }
  return records;
}

/// Equality probes: exact, other numeric widths and types, fractional,
/// out-of-range, blank-padded and over-width strings, absent keys, and
/// types the key cannot be compared with.
std::vector<Value> Probes(const KeyType& kt) {
  std::vector<Value> p = {DomainKey(kt, 17), DomainKey(kt, 0),
                          DomainKey(kt, kDomain - 1)};
  switch (kt.type) {
    case TypeId::kInt1:
    case TypeId::kInt2:
    case TypeId::kInt4: {
      const int64_t k = DomainKey(kt, 17).AsInt();
      const int64_t gap = DomainKey(kt, 18).AsInt() - k;
      p.push_back(Value::Int1(DomainKey(kt, 99).AsInt() % 100));
      p.push_back(Value::Int2(k % 30000));
      p.push_back(Value::Int4(k));             // wider integer probe
      p.push_back(Value::Int4(k + gap / 2));   // absent, in range
      p.push_back(Value::Int4(300));           // out of i1 range
      p.push_back(Value::Int4(-70000));        // out of i2 range
      p.push_back(Value::Int4(int64_t{1} << 40));  // out of i4 range
      p.push_back(Value::Float8(static_cast<double>(k)));  // integral f8
      p.push_back(Value::Float8(static_cast<double>(k) + 0.5));
      p.push_back(Value::Char("17"));
      p.push_back(Value::Time(TimePoint(17)));
      break;
    }
    case TypeId::kFloat8:
      p.push_back(Value::Float8(8.5));
      p.push_back(Value::Int4(-12));  // integer probe of an integral key
      p.push_back(Value::Int1(3));
      p.push_back(Value::Float8(0.25));  // fractional, absent
      p.push_back(Value::Float8(1e300));
      p.push_back(Value::Char("1"));
      p.push_back(Value::Time(TimePoint(1)));
      break;
    case TypeId::kChar:
      p.push_back(Value::Char("k0017   "));         // blank padded
      p.push_back(Value::Char("k0017          "));  // over-width blanks
      p.push_back(Value::Char("k0017xyzzy"));       // over-width, absent
      p.push_back(Value::Char("k0010abc"));         // exactly the width
      p.push_back(Value::Char("k0010abcd"));        // one byte too many
      p.push_back(Value::Char("b025"));             // stored as " b025"
      p.push_back(Value::Char("  b025  "));
      p.push_back(Value::Char(""));
      p.push_back(Value::Char("zzz"));
      p.push_back(Value::Int4(17));
      p.push_back(Value::Time(TimePoint(17)));
      break;
    case TypeId::kTime:
      p.push_back(Value::Time(TimePoint(1000000 + 3600 * 17 + 1)));
      p.push_back(Value::Time(TimePoint(0)));
      p.push_back(Value::Int4(1000000 + 3600 * 17));
      p.push_back(Value::Float8(1.0));
      p.push_back(Value::Char("17"));
      break;
  }
  return p;
}

/// Range bounds, all comparable with the key, in no particular order.
std::vector<Value> Bounds(const KeyType& kt) {
  switch (kt.type) {
    case TypeId::kInt1:
    case TypeId::kInt2:
    case TypeId::kInt4: {
      const int64_t k40 = DomainKey(kt, 40).AsInt();
      const int64_t k60 = DomainKey(kt, 60).AsInt();
      return {Value::Int4(k40), Value::Float8(static_cast<double>(k60) + 0.5),
              Value::Int2(DomainKey(kt, 150).AsInt() % 30000),
              Value::Float8(-1e12), Value::Int4(int64_t{1} << 40)};
    }
    case TypeId::kFloat8:
      return {Value::Float8(-30.0), Value::Int4(-10),
              Value::Float8(20.25), Value::Float8(-1e300),
              Value::Float8(1e300)};
    case TypeId::kChar:
      return {Value::Char("k0040"), Value::Char("k0060   "),
              Value::Char("k01"), Value::Char(""),
              Value::Char("k0150zzzzzz")};
    case TypeId::kTime:
      return {DomainKey(kt, 40),
              Value::Time(TimePoint(1000000 + 3600 * 60 + 1)),
              Value::Time(TimePoint(0)), DomainKey(kt, 150),
              DomainKey(kt, kDomain - 1)};
  }
  return {};
}

/// A record's sequence number: unique per record, so it names the row.
uint32_t SeqOf(const uint8_t* rec) {
  uint32_t seq;
  std::memcpy(&seq, rec, 4);
  return seq;
}

/// Rows (as sorted sequence numbers) or the error that ended them.
struct Outcome {
  Status status = Status::OK();
  std::vector<uint32_t> rows;
};

::testing::AssertionResult Same(const Outcome& want, const Outcome& got) {
  if (want.status.ok() != got.status.ok() ||
      (!want.status.ok() &&
       want.status.ToString() != got.status.ToString())) {
    return ::testing::AssertionFailure()
           << "status: want '" << want.status.ToString() << "', got '"
           << got.status.ToString() << "'";
  }
  if (want.rows != got.rows) {
    return ::testing::AssertionFailure()
           << "rows: want " << want.rows.size() << ", got " << got.rows.size();
  }
  return ::testing::AssertionSuccess();
}

/// Drains a cursor through Next, or (batched) through NextBatch.
Outcome Drain(Result<std::unique_ptr<Cursor>> opened, bool batched) {
  Outcome out;
  if (!opened.ok()) {
    out.status = opened.status();
    return out;
  }
  Cursor* cur = opened->get();
  RecordBatch batch;
  while (true) {
    if (batched) {
      batch.Clear();
      Result<size_t> n = cur->NextBatch(&batch, 7);
      if (!n.ok()) {
        out.status = n.status();
        break;
      }
      if (*n == 0) break;
      for (size_t i = 0; i < batch.size(); ++i) {
        EXPECT_TRUE(batch.fresh());
        out.rows.push_back(SeqOf(batch.rec(i)));
      }
    } else {
      Result<bool> have = cur->Next();
      if (!have.ok()) {
        out.status = have.status();
        break;
      }
      if (!*have) break;
      out.rows.push_back(SeqOf(cur->record().data()));
    }
  }
  std::sort(out.rows.begin(), out.rows.end());
  return out;
}

/// `Value::Compare` of every stored key with the predicate's operands,
/// over a full scan of `file`.
using Pred = std::function<Result<bool>(const Value& key)>;

Outcome Oracle(StorageFile* file, const Pred& pred) {
  Outcome out;
  auto scan = file->Scan();
  EXPECT_TRUE(scan.ok());
  while (true) {
    Result<bool> have = (*scan)->Next();
    EXPECT_TRUE(have.ok());
    if (!*have) break;
    const Record& rec = (*scan)->record();
    Result<bool> keep = pred(file->layout().KeyOf(rec.data()));
    if (!keep.ok()) {
      out.status = keep.status();
      out.rows.clear();
      return out;
    }
    if (*keep) out.rows.push_back(SeqOf(rec.data()));
  }
  std::sort(out.rows.begin(), out.rows.end());
  return out;
}

Pred EqualTo(const Value& probe) {
  return [probe](const Value& key) -> Result<bool> {
    TDB_ASSIGN_OR_RETURN(int c, Value::Compare(key, probe));
    return c == 0;
  };
}

Pred Within(const std::optional<Value>& lo, bool lo_inclusive,
            const std::optional<Value>& hi, bool hi_inclusive) {
  return [=](const Value& key) -> Result<bool> {
    if (lo.has_value()) {
      TDB_ASSIGN_OR_RETURN(int c, Value::Compare(key, *lo));
      if (c < 0 || (c == 0 && !lo_inclusive)) return false;
    }
    if (hi.has_value()) {
      TDB_ASSIGN_OR_RETURN(int c, Value::Compare(key, *hi));
      if (c > 0 || (c == 0 && !hi_inclusive)) return false;
    }
    return true;
  };
}

class KeyTypeTest : public ::testing::TestWithParam<uint32_t> {
 protected:
  std::unique_ptr<Pager> OpenPager(const std::string& name) {
    StorageOptions sopts;
    sopts.page_size = GetParam();
    auto pager = Pager::Open(&env_, "/" + name, &counters_, 1, nullptr, sopts);
    EXPECT_TRUE(pager.ok()) << pager.status().ToString();
    return std::move(pager).value();
  }

  /// The full scan must hold exactly the records put in, byte for byte.
  void ExpectHolds(StorageFile* file, const std::vector<Record>& records) {
    std::vector<const Record*> by_seq(records.size(), nullptr);
    for (const Record& rec : records) by_seq[SeqOf(rec.data())] = &rec;
    auto scan = file->Scan();
    ASSERT_TRUE(scan.ok());
    std::vector<uint32_t> seen;
    while (true) {
      Result<bool> have = (*scan)->Next();
      ASSERT_TRUE(have.ok());
      if (!*have) break;
      const Record& rec = (*scan)->record();
      const uint32_t seq = SeqOf(rec.data());
      ASSERT_LT(seq, by_seq.size());
      ASSERT_EQ(rec.size(), by_seq[seq]->size());
      EXPECT_EQ(std::memcmp(rec.data(), by_seq[seq]->data(), rec.size()), 0);
      seen.push_back(seq);
    }
    std::sort(seen.begin(), seen.end());
    ASSERT_EQ(seen.size(), records.size());
    for (uint32_t i = 0; i < seen.size(); ++i) ASSERT_EQ(seen[i], i);
  }

  void CheckProbes(StorageFile* file, const KeyType& kt) {
    for (const Value& probe : Probes(kt)) {
      SCOPED_TRACE("probe " + std::string(TypeIdName(probe.type())) + " " +
                   probe.ToString());
      const Outcome want = Oracle(file, EqualTo(probe));
      EXPECT_TRUE(Same(want, Drain(file->ScanKey(probe), false)));
      EXPECT_TRUE(Same(want, Drain(file->ScanKey(probe), true)));
    }
  }

  void CheckRanges(StorageFile* file, const KeyType& kt) {
    const std::vector<Value> bounds = Bounds(kt);
    std::vector<std::optional<Value>> ends = {std::nullopt};
    for (const Value& b : bounds) ends.emplace_back(b);
    for (const auto& lo : ends) {
      for (const auto& hi : ends) {
        for (int flags = 0; flags < 4; ++flags) {
          const bool lo_inc = (flags & 1) != 0;
          const bool hi_inc = (flags & 2) != 0;
          SCOPED_TRACE(StrPrintf(
              "range %s%s, %s%s", lo_inc ? "[" : "(",
              lo.has_value() ? lo->ToString().c_str() : "-inf",
              hi.has_value() ? hi->ToString().c_str() : "+inf",
              hi_inc ? "]" : ")"));
          const Outcome want = Oracle(file, Within(lo, lo_inc, hi, hi_inc));
          EXPECT_TRUE(Same(want, Drain(file->ScanRange(lo, lo_inc, hi, hi_inc),
                                       false)));
          EXPECT_TRUE(Same(want, Drain(file->ScanRange(lo, lo_inc, hi, hi_inc),
                                       true)));
        }
      }
    }
    // A bound the key cannot be compared with, on either side.
    const Value bad = kt.type == TypeId::kChar ? Value::Int4(1)
                                               : Value::Char("1");
    for (int side = 0; side < 2; ++side) {
      std::optional<Value> lo = side == 0 ? std::optional<Value>(bad)
                                          : std::optional<Value>(bounds[0]);
      std::optional<Value> hi = side == 0 ? std::optional<Value>(bounds[0])
                                          : std::optional<Value>(bad);
      const Outcome want = Oracle(file, Within(lo, true, hi, true));
      ASSERT_FALSE(want.status.ok());
      EXPECT_TRUE(Same(want, Drain(file->ScanRange(lo, true, hi, true),
                                   false)));
    }
  }

  MemEnv env_;
  IoCounters counters_;
};

TEST_P(KeyTypeTest, HashScanKeyMatchesValueCompare) {
  for (const KeyType& kt : kKeyTypes) {
    SCOPED_TRACE(kt.name);
    const std::vector<Record> records = MakeRecords(kt, 11);
    auto file = HashFile::Create(OpenPager(std::string("h_") + kt.name),
                                 LayoutFor(kt), 7);
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    for (const Record& rec : records) {
      ASSERT_TRUE((*file)->Insert(rec.data(), rec.size(), nullptr).ok());
    }
    ExpectHolds(file->get(), records);
    CheckProbes(file->get(), kt);
  }
}

TEST_P(KeyTypeTest, IsamScanKeyAndRangeMatchValueCompare) {
  for (const KeyType& kt : kKeyTypes) {
    for (int fillfactor : {2, 80}) {
      SCOPED_TRACE(StrPrintf("%s ff=%d", kt.name, fillfactor));
      const std::vector<Record> records = MakeRecords(kt, 12);
      // Bulk load 70%; the rest arrives afterwards into pages and chains.
      const size_t loaded = records.size() * 7 / 10;
      std::vector<Record> bulk(records.begin(), records.begin() + loaded);
      IsamMeta meta;
      auto file = IsamFile::BulkLoad(
          OpenPager(StrPrintf("i_%s_%d", kt.name, fillfactor)), LayoutFor(kt),
          bulk, fillfactor, &meta);
      ASSERT_TRUE(file.ok()) << file.status().ToString();
      for (size_t i = loaded; i < records.size(); ++i) {
        ASSERT_TRUE(
            (*file)->Insert(records[i].data(), records[i].size(), nullptr)
                .ok());
      }
      if (fillfactor == 2 && GetParam() == kPageSize && kt.width >= 4) {
        // One record per primary page: the directory has two levels.
        EXPECT_GE(meta.level_counts.size(), 2u);
      }
      ExpectHolds(file->get(), records);
      CheckProbes(file->get(), kt);
      CheckRanges(file->get(), kt);
    }
  }
}

TEST_P(KeyTypeTest, BtreeScanKeyAndRangeMatchValueCompare) {
  for (const KeyType& kt : kKeyTypes) {
    SCOPED_TRACE(kt.name);
    const std::vector<Record> records = MakeRecords(kt, 13);
    auto file = BtreeFile::Create(OpenPager(std::string("b_") + kt.name),
                                  LayoutFor(kt));
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    for (const Record& rec : records) {
      ASSERT_TRUE((*file)->Insert(rec.data(), rec.size(), nullptr).ok());
    }
    auto height = (*file)->Height();
    ASSERT_TRUE(height.ok());
    EXPECT_GE(*height, 2);
    ExpectHolds(file->get(), records);
    CheckProbes(file->get(), kt);
    CheckRanges(file->get(), kt);
  }
}

TEST_P(KeyTypeTest, SecondaryIndexLookupMatchesValueCompare) {
  for (const KeyType& kt : kKeyTypes) {
    for (Organization org : {Organization::kHash, Organization::kHeap}) {
      SCOPED_TRACE(StrPrintf("%s %s", kt.name, OrganizationName(org)));
      const RecordLayout layout = LayoutFor(kt);
      const std::vector<Record> records = MakeRecords(kt, 14);
      IndexMeta meta;
      meta.name = StrPrintf("x_%s_%s", kt.name, OrganizationName(org));
      meta.org = org;
      meta.nbuckets = 5;
      Attribute attr;
      attr.name = "k";
      attr.type = kt.type;
      attr.width = kt.width;
      StorageOptions sopts;
      sopts.page_size = GetParam();
      IoCounters history;
      auto index = SecondaryIndex::Open(&env_, "", meta, attr, &counters_,
                                        &history, 1, nullptr, nullptr, sopts);
      ASSERT_TRUE(index.ok()) << index.status().ToString();
      // Each entry points at its record's sequence number.
      for (const Record& rec : records) {
        ASSERT_TRUE((*index)
                        ->InsertCurrent(layout.KeyOf(rec.data()),
                                        Tid{SeqOf(rec.data()), 0}, false)
                        .ok());
      }
      for (const Value& probe : Probes(kt)) {
        SCOPED_TRACE("probe " + std::string(TypeIdName(probe.type())) + " " +
                     probe.ToString());
        Status want_status = Status::OK();
        std::vector<uint32_t> want;
        for (const Record& rec : records) {
          Result<int> c = Value::Compare(layout.KeyOf(rec.data()), probe);
          if (!c.ok()) {
            want_status = c.status();
            want.clear();
            break;
          }
          if (*c == 0) want.push_back(SeqOf(rec.data()));
        }
        auto got = (*index)->Lookup(probe, /*current_only=*/true);
        ASSERT_EQ(want_status.ok(), got.ok());
        if (!got.ok()) {
          EXPECT_EQ(want_status.ToString(), got.status().ToString());
          continue;
        }
        std::vector<uint32_t> seqs;
        for (const IndexEntryRef& ref : *got) seqs.push_back(ref.tid.page);
        std::sort(want.begin(), want.end());
        std::sort(seqs.begin(), seqs.end());
        EXPECT_EQ(want, seqs);
      }
    }
  }
}

TEST(KeyProbeTest, StoredKeysCompareLikeTheirValues) {
  for (const KeyType& kt : kKeyTypes) {
    SCOPED_TRACE(kt.name);
    const RecordLayout layout = LayoutFor(kt);
    std::vector<Record> records = MakeRecords(kt, 15);
    records.resize(60);
    for (const Record& a : records) {
      for (const Record& b : records) {
        Result<int> want =
            Value::Compare(layout.KeyOf(a.data()), layout.KeyOf(b.data()));
        ASSERT_TRUE(want.ok());
        const uint8_t* ka = a.data() + kKeyOffset;
        const uint8_t* kb = b.data() + kKeyOffset;
        EXPECT_EQ(*want, KeyProbe::CompareStored(layout, ka, kb));
        EXPECT_EQ(*want, KeyProbe::FromStored(layout, kb).Compare(ka));
        auto probe = KeyProbe::Encode(layout, layout.KeyOf(b.data()));
        ASSERT_TRUE(probe.ok());
        EXPECT_EQ(*want, probe->Compare(ka));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PageSizes, KeyTypeTest,
                         ::testing::Values(1024u, 4096u),
                         [](const ::testing::TestParamInfo<uint32_t>& info) {
                           return StrPrintf("page%u", info.param);
                         });

}  // namespace
}  // namespace tdb
