// Argument / return values carried by invocations and responses.
//
// The paper's examples need: unit (no argument, e.g. pop()), booleans,
// integers (possibly the POP_SENTINAL "infinity"), pairs (bool, int) as
// returned by exchange() and pop(), and small integer vectors (needed by
// the immediate-snapshot CA-spec from the related-work discussion).
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <vector>

namespace cal {

/// The POP_SENTINAL / "infinity" value used by the elimination stack
/// (Fig. 2, line 26) to mark a popping thread's exchange offer.
inline constexpr std::int64_t kInfinity = INT64_MAX;

/// A closed value universe, totally ordered and hashable so values can be
/// used as map keys and inside canonicalized CA-elements.
class Value {
 public:
  enum class Kind : std::uint8_t { kUnit, kBool, kInt, kPair, kVec };

  constexpr Value() noexcept : kind_(Kind::kUnit) {}

  [[nodiscard]] static Value unit() noexcept { return Value{}; }
  [[nodiscard]] static Value boolean(bool b) noexcept {
    Value v;
    v.kind_ = Kind::kBool;
    v.int_ = b ? 1 : 0;
    return v;
  }
  [[nodiscard]] static Value integer(std::int64_t i) noexcept {
    Value v;
    v.kind_ = Kind::kInt;
    v.int_ = i;
    return v;
  }
  /// A (bool, int) pair, e.g. the result of exchange() or pop().
  [[nodiscard]] static Value pair(bool ok, std::int64_t i) noexcept {
    Value v;
    v.kind_ = Kind::kPair;
    v.bool_of_pair_ = ok;
    v.int_ = i;
    return v;
  }
  [[nodiscard]] static Value vec(std::vector<std::int64_t> items) {
    Value v;
    v.kind_ = Kind::kVec;
    v.vec_ = std::move(items);
    return v;
  }

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool is_unit() const noexcept { return kind_ == Kind::kUnit; }

  /// Requires kind() == kBool.
  [[nodiscard]] bool as_bool() const noexcept { return int_ != 0; }
  /// Requires kind() == kInt.
  [[nodiscard]] std::int64_t as_int() const noexcept { return int_; }
  /// Requires kind() == kPair.
  [[nodiscard]] bool pair_ok() const noexcept { return bool_of_pair_; }
  /// Requires kind() == kPair.
  [[nodiscard]] std::int64_t pair_int() const noexcept { return int_; }
  /// Requires kind() == kVec.
  [[nodiscard]] const std::vector<std::int64_t>& as_vec() const noexcept {
    return vec_;
  }

  friend bool operator==(const Value& a, const Value& b) noexcept {
    if (a.kind_ != b.kind_) return false;
    switch (a.kind_) {
      case Kind::kUnit:
        return true;
      case Kind::kBool:
      case Kind::kInt:
        return a.int_ == b.int_;
      case Kind::kPair:
        return a.bool_of_pair_ == b.bool_of_pair_ && a.int_ == b.int_;
      case Kind::kVec:
        return a.vec_ == b.vec_;
    }
    return false;
  }
  friend bool operator!=(const Value& a, const Value& b) noexcept {
    return !(a == b);
  }
  friend bool operator<(const Value& a, const Value& b) noexcept {
    if (a.kind_ != b.kind_) return a.kind_ < b.kind_;
    switch (a.kind_) {
      case Kind::kUnit:
        return false;
      case Kind::kBool:
      case Kind::kInt:
        return a.int_ < b.int_;
      case Kind::kPair:
        if (a.bool_of_pair_ != b.bool_of_pair_) return b.bool_of_pair_;
        return a.int_ < b.int_;
      case Kind::kVec:
        return a.vec_ < b.vec_;
    }
    return false;
  }

  [[nodiscard]] std::size_t hash() const noexcept {
    std::size_t h = static_cast<std::size_t>(kind_) * 0x9e3779b97f4a7c15ull;
    auto mix = [&h](std::size_t x) {
      h ^= x + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    };
    switch (kind_) {
      case Kind::kUnit:
        break;
      case Kind::kBool:
      case Kind::kInt:
        mix(static_cast<std::size_t>(int_));
        break;
      case Kind::kPair:
        mix(bool_of_pair_ ? 1u : 0u);
        mix(static_cast<std::size_t>(int_));
        break;
      case Kind::kVec:
        for (std::int64_t x : vec_) mix(static_cast<std::size_t>(x));
        break;
    }
    return h;
  }

  /// Appends the value's exact key to `out`: the kind, then the fields —
  /// for a vector its length, then the items. Distinct values get
  /// distinct keys, and a key delimits itself, so a sequence of keys
  /// identifies a sequence of values. hash() does neither: (false,0) and
  /// (true,63) hash alike. Dedup keys that stand for values use this.
  void encode(std::vector<std::int64_t>& out) const {
    out.push_back(static_cast<std::int64_t>(kind_));
    switch (kind_) {
      case Kind::kUnit:
        break;
      case Kind::kBool:
      case Kind::kInt:
        out.push_back(int_);
        break;
      case Kind::kPair:
        out.push_back(bool_of_pair_ ? 1 : 0);
        out.push_back(int_);
        break;
      case Kind::kVec:
        out.push_back(static_cast<std::int64_t>(vec_.size()));
        out.insert(out.end(), vec_.begin(), vec_.end());
        break;
    }
  }

  /// Human-readable rendering, e.g. "(true,7)", "42", "()", "inf".
  [[nodiscard]] std::string to_string() const;

 private:
  Kind kind_;
  bool bool_of_pair_ = false;
  std::int64_t int_ = 0;
  std::vector<std::int64_t> vec_;
};

}  // namespace cal

template <>
struct std::hash<cal::Value> {
  std::size_t operator()(const cal::Value& v) const noexcept {
    return v.hash();
  }
};
