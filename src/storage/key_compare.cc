#include "storage/key_compare.h"

namespace tdb {

Result<KeyProbe> KeyProbe::Encode(const RecordLayout& layout,
                                  const Value& probe) {
  KeyProbe k;
  k.width_ = layout.key_width;
  const TypeId key = layout.key_type;
  const bool key_integer = key == TypeId::kInt1 || key == TypeId::kInt2 ||
                           key == TypeId::kInt4;
  if ((key_integer || key == TypeId::kFloat8) && probe.is_numeric()) {
    if (key == TypeId::kFloat8) {
      k.rule_ = Rule::kDouble;
      k.d_ = probe.AsDouble();
    } else if (probe.type() == TypeId::kFloat8) {
      k.rule_ = Rule::kIntAsDouble;
      k.d_ = probe.AsDouble();
    } else {
      k.rule_ = key == TypeId::kInt1   ? Rule::kInt1
                : key == TypeId::kInt2 ? Rule::kInt2
                                       : Rule::kInt4;
      k.i_ = probe.AsInt();
    }
    return k;
  }
  if (key == TypeId::kChar && probe.type() == TypeId::kChar) {
    k.rule_ = Rule::kChar;
    k.s_ = std::string(TrimView(probe.AsString()));
    return k;
  }
  if (key == TypeId::kTime && probe.type() == TypeId::kTime) {
    k.rule_ = Rule::kInt4;
    k.i_ = probe.AsTime().seconds();
    return k;
  }
  return Status::Invalid(StrPrintf("cannot compare %s with %s",
                                   TypeIdName(key), TypeIdName(probe.type())));
}

KeyProbe KeyProbe::FromStored(const RecordLayout& layout, const uint8_t* key) {
  KeyProbe k;
  k.width_ = layout.key_width;
  switch (layout.key_type) {
    case TypeId::kInt1:
      k.rule_ = Rule::kInt1;
      k.i_ = Load<int8_t>(key);
      break;
    case TypeId::kInt2:
      k.rule_ = Rule::kInt2;
      k.i_ = Load<int16_t>(key);
      break;
    case TypeId::kInt4:
    case TypeId::kTime:
      k.rule_ = Rule::kInt4;
      k.i_ = Load<int32_t>(key);
      break;
    case TypeId::kFloat8:
      k.rule_ = Rule::kDouble;
      k.d_ = Load<double>(key);
      break;
    case TypeId::kChar:
      k.rule_ = Rule::kChar;
      k.s_ = std::string(TrimView(
          std::string_view(reinterpret_cast<const char*>(key), k.width_)));
      break;
  }
  return k;
}

Result<KeyRange> KeyRange::Encode(const RecordLayout& layout,
                                  const std::optional<Value>& lo,
                                  bool lo_inclusive,
                                  const std::optional<Value>& hi,
                                  bool hi_inclusive) {
  KeyRange r;
  if (lo.has_value()) {
    TDB_ASSIGN_OR_RETURN(r.lo_, KeyProbe::Encode(layout, *lo));
  }
  if (hi.has_value()) {
    TDB_ASSIGN_OR_RETURN(r.hi_, KeyProbe::Encode(layout, *hi));
  }
  r.lo_inclusive_ = lo_inclusive;
  r.hi_inclusive_ = hi_inclusive;
  r.point_ = lo.has_value() && hi.has_value() && lo_inclusive &&
             hi_inclusive && lo->Equals(*hi);
  return r;
}

}  // namespace tdb
