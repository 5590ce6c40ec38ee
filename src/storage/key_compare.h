#ifndef CHRONOQUEL_STORAGE_KEY_COMPARE_H_
#define CHRONOQUEL_STORAGE_KEY_COMPARE_H_

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>

#include "obs/metrics.h"
#include "storage/pager.h"
#include "storage/storage_file.h"
#include "types/value.h"
#include "util/status.h"
#include "util/stringx.h"

namespace tdb {

/// A probe key or range bound, encoded once against a file's key attribute
/// and then compared with stored keys in place, straight from the slot
/// bytes: no Value is built per record.  The rules are exactly those of
/// `Value::TryCompare(stored, probe)`:
///   * integer key (i1/i2/i4) against an integer probe: 64-bit integers;
///   * any numeric pair involving f8: both sides as doubles;
///   * c<N> against c<N>: byte order of the two strings with leading and
///     trailing white space trimmed (so blank padding and an over-width
///     probe compare as the decoded Value would);
///   * time against time: seconds.
/// Any other pairing is refused at `Encode` with the same error
/// `Value::Compare` reports for it.
class KeyProbe {
 public:
  /// Encodes `probe` against `layout`'s key attribute.
  static Result<KeyProbe> Encode(const RecordLayout& layout,
                                 const Value& probe);

  /// A probe equal to the stored key at `key` (a record's key bytes or an
  /// ISAM / B+-tree directory entry) — the insert paths' descent key.
  static KeyProbe FromStored(const RecordLayout& layout, const uint8_t* key);

  /// Sign of (stored key at `key`) minus this probe: -1, 0 or 1.
  int Compare(const uint8_t* key) const {
    switch (rule_) {
      case Rule::kInt1:
        return Sign(Load<int8_t>(key), i_);
      case Rule::kInt2:
        return Sign(Load<int16_t>(key), i_);
      case Rule::kInt4:  // i4 and time keys
        return Sign(Load<int32_t>(key), i_);
      case Rule::kIntAsDouble:
        return Sign(static_cast<double>(LoadInt(width_, key)), d_);
      case Rule::kDouble:
        return Sign(Load<double>(key), d_);
      case Rule::kChar:
        return Sign(TrimView(std::string_view(
                                 reinterpret_cast<const char*>(key), width_))
                        .compare(s_),
                    0);
    }
    return 0;
  }

  /// Three-way compare of two stored keys of one layout (sorting records
  /// by key, detecting runs of one key).  Same rules as `Compare`.
  static int CompareStored(const RecordLayout& layout, const uint8_t* a,
                           const uint8_t* b) {
    if (layout.key_type == TypeId::kChar) {
      auto view = [&](const uint8_t* p) {
        return TrimView(std::string_view(reinterpret_cast<const char*>(p),
                                         layout.key_width));
      };
      return Sign(view(a).compare(view(b)), 0);
    }
    return FromStored(layout, b).Compare(a);
  }

 private:
  enum class Rule : uint8_t {
    kInt1,
    kInt2,
    kInt4,
    kIntAsDouble,  // integer key, f8 probe
    kDouble,       // f8 key, numeric probe
    kChar,
  };

  template <typename T>
  static T Load(const uint8_t* p) {
    T v;
    std::memcpy(&v, p, sizeof(T));
    return v;
  }
  static int64_t LoadInt(uint16_t width, const uint8_t* p) {
    if (width == 1) return Load<int8_t>(p);
    if (width == 2) return Load<int16_t>(p);
    return Load<int32_t>(p);
  }
  template <typename A, typename B>
  static int Sign(A a, B b) {
    return a < b ? -1 : (a > b ? 1 : 0);
  }

  Rule rule_ = Rule::kInt4;
  uint16_t width_ = 0;
  int64_t i_ = 0;  // integer probe, or a time probe's seconds
  double d_ = 0;
  std::string s_;  // trimmed c<N> probe
};

/// Key compares made by one cursor or one lookup, counted in a plain local
/// and added to the file's `key_compares` metric once, when the tally goes
/// out of scope — one relaxed atomic add per cursor, none per compare.
class CompareTally {
 public:
  explicit CompareTally(const Pager* pager)
      : sink_(pager->counters() == nullptr ||
                      pager->counters()->metrics == nullptr
                  ? nullptr
                  : &pager->counters()->metrics->key_compares) {}
  ~CompareTally() {
    if (sink_ != nullptr && count_ != 0) sink_->Add(count_);
  }
  CompareTally(const CompareTally&) = delete;
  CompareTally& operator=(const CompareTally&) = delete;

  /// `probe.Compare(key)`, counted.
  int Compare(const KeyProbe& probe, const uint8_t* key) {
    ++count_;
    return probe.Compare(key);
  }

 private:
  obs::Counter* sink_;
  uint64_t count_ = 0;
};

/// The bounds lo (<|<=) key (<|<=) hi of a range or keyed access, either
/// bound optional, encoded once.  A default KeyRange is unbounded.
class KeyRange {
 public:
  enum class Place { kBelow, kInside, kAbove };

  KeyRange() = default;

  /// Encodes both bounds; fails as KeyProbe::Encode does, lo first.
  static Result<KeyRange> Encode(const RecordLayout& layout,
                                 const std::optional<Value>& lo,
                                 bool lo_inclusive,
                                 const std::optional<Value>& hi,
                                 bool hi_inclusive);

  const std::optional<KeyProbe>& lo() const { return lo_; }
  const std::optional<KeyProbe>& hi() const { return hi_; }

  /// Where the stored key at `key` lies against the bounds.  A point range
  /// (lo and hi one key, both inclusive) takes one compare.
  Place PlaceOf(const uint8_t* key, CompareTally* tally) const {
    if (point_) {
      const int c = tally->Compare(*hi_, key);
      return c < 0 ? Place::kBelow : (c > 0 ? Place::kAbove : Place::kInside);
    }
    if (hi_.has_value()) {
      const int c = tally->Compare(*hi_, key);
      if (c > 0 || (c == 0 && !hi_inclusive_)) return Place::kAbove;
    }
    if (lo_.has_value()) {
      const int c = tally->Compare(*lo_, key);
      if (c < 0 || (c == 0 && !lo_inclusive_)) return Place::kBelow;
    }
    return Place::kInside;
  }

 private:
  std::optional<KeyProbe> lo_;
  std::optional<KeyProbe> hi_;
  bool lo_inclusive_ = true;
  bool hi_inclusive_ = true;
  bool point_ = false;
};

}  // namespace tdb

#endif  // CHRONOQUEL_STORAGE_KEY_COMPARE_H_
