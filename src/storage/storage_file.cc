#include "storage/storage_file.h"

#include <cstring>

namespace tdb {

const char* OrganizationName(Organization o) {
  switch (o) {
    case Organization::kHeap:
      return "heap";
    case Organization::kHash:
      return "hash";
    case Organization::kIsam:
      return "isam";
    case Organization::kBtree:
      return "btree";
  }
  return "?";
}

Result<size_t> Cursor::NextBatch(RecordBatch* batch, size_t max) {
  // Fallback for cursors without a zero-copy override (e.g. the B-tree's
  // buffered leaf groups): drain Next() into the batch arena.  The copies
  // survive any later page I/O, so this never needs a page-boundary cut.
  size_t n = 0;
  while (n < max) {
    TDB_ASSIGN_OR_RETURN(bool have, Next());
    if (!have) break;
    if (n == 0) batch->EnsureArena(batch->size() == 0 ? max * record_.size()
                                                      : record_.size() * max);
    batch->AppendCopy(record_.data(), record_.size(), tid_);
    ++n;
  }
  return n;
}

Value RecordLayout::KeyOf(const uint8_t* rec) const {
  const uint8_t* p = rec + key_offset;
  switch (key_type) {
    case TypeId::kInt1: {
      int8_t v;
      std::memcpy(&v, p, 1);
      return Value::Int1(v);
    }
    case TypeId::kInt2: {
      int16_t v;
      std::memcpy(&v, p, 2);
      return Value::Int2(v);
    }
    case TypeId::kInt4: {
      int32_t v;
      std::memcpy(&v, p, 4);
      return Value::Int4(v);
    }
    case TypeId::kFloat8: {
      double v;
      std::memcpy(&v, p, 8);
      return Value::Float8(v);
    }
    case TypeId::kChar:
      return Value::Char(
          std::string(reinterpret_cast<const char*>(p), key_width));
    case TypeId::kTime: {
      int32_t v;
      std::memcpy(&v, p, 4);
      return Value::Time(TimePoint(v));
    }
  }
  return Value();
}

}  // namespace tdb
