#pragma once

// `Value` is the universal, comparable, hashable datum used for proposals,
// decisions, and message payloads across the library.
//
// The paper works with (potentially infinite) proposal/decision sets V_I and
// V_O; concrete experiments only ever need a small recursive value universe:
// null (the "no decision yet" / bottom symbol), booleans/bits, integers,
// strings (transactions, signatures as bytes), and vectors (interactive-
// consistency decisions are vectors of n entries).
//
// Representation: the string and vector arms are copy-on-write. Copying a
// Value copies a refcounted pointer to an immutable shared payload, so the
// runtime's fan-out of one payload to n - 1 receivers costs n - 1 refcount
// bumps instead of n - 1 deep copies (see docs/RUNTIME_PERF.md). The
// external value semantics are unchanged:
//   * equality / ordering / hashing compare payload *contents* (with a
//     same-payload fast path), never identity;
//   * the non-const `as_vec()` accessor un-shares (clones) the payload when
//     it is shared, so mutating one Value never changes another.
// The one sharpened contract: the reference returned by non-const `as_vec()`
// is invalidated by copying or hashing-relevant re-sharing of the Value it
// came from — copy the Value first, then mutate, never the other way round
// while holding the reference.
//
// Shared payloads memoize their hash (computed lazily, cached in a relaxed
// atomic). A payload that has ever been exposed through non-const `as_vec()`
// is permanently excluded from caching: a live mutable reference could
// change it at any time.

#include <atomic>
#include <compare>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

namespace ba {

class Value;
using ValueVec = std::vector<Value>;

class Value {
 public:
  enum class Kind : std::uint8_t { kNull = 0, kBool, kInt, kStr, kVec };

  Value() : rep_(std::monostate{}) {}
  Value(bool b) : rep_(b) {}                           // NOLINT(google-explicit-constructor)
  Value(std::int64_t i) : rep_(i) {}                   // NOLINT
  Value(int i) : rep_(static_cast<std::int64_t>(i)) {} // NOLINT
  Value(std::string s);                                // NOLINT
  Value(const char* s);                                // NOLINT
  Value(ValueVec v);                                   // NOLINT

  Value(const Value&) = default;
  Value& operator=(const Value&) = default;
  // A moved-from Value must stay usable (the seed representation left an
  // empty string/vector behind); reset the source to null rather than
  // leaving it holding a dead shared-payload handle.
  Value(Value&& o) noexcept : rep_(std::move(o.rep_)) {
    o.rep_ = std::monostate{};
  }
  Value& operator=(Value&& o) noexcept {
    if (this != &o) {
      rep_ = std::move(o.rep_);
      o.rep_ = std::monostate{};
    }
    return *this;
  }
  ~Value() = default;

  static Value null() { return Value{}; }
  static Value bit(int b) { return Value{b != 0}; }
  static Value vec(std::initializer_list<Value> elems) {
    return Value{ValueVec(elems)};
  }

  [[nodiscard]] Kind kind() const {
    return static_cast<Kind>(rep_.index());
  }
  [[nodiscard]] bool is_null() const { return kind() == Kind::kNull; }
  [[nodiscard]] bool is_bool() const { return kind() == Kind::kBool; }
  [[nodiscard]] bool is_int() const { return kind() == Kind::kInt; }
  [[nodiscard]] bool is_str() const { return kind() == Kind::kStr; }
  [[nodiscard]] bool is_vec() const { return kind() == Kind::kVec; }

  [[nodiscard]] bool as_bool() const { return std::get<bool>(rep_); }
  [[nodiscard]] std::int64_t as_int() const {
    return std::get<std::int64_t>(rep_);
  }
  [[nodiscard]] const std::string& as_str() const;
  [[nodiscard]] const ValueVec& as_vec() const;
  /// Mutable access; clones the payload first when it is shared with other
  /// Values (copy-on-write), so mutation never aliases into copies.
  [[nodiscard]] ValueVec& as_vec();

  /// Interpret a kBool or kInt value as a binary bit; nullopt otherwise.
  [[nodiscard]] std::optional<int> try_bit() const;

  [[nodiscard]] std::string to_string() const;
  [[nodiscard]] std::size_t hash() const;

  /// True iff this and `other` share the same payload object (always true
  /// after a copy, until one side is mutated). Identity-level introspection
  /// for tests and diagnostics; never part of value semantics.
  [[nodiscard]] bool shares_rep_with(const Value& other) const;
  /// The address of the shared string/vector payload, or nullptr for the
  /// scalar kinds. Two Values return the same non-null address exactly when
  /// `shares_rep_with` holds for them, so a codec can serialize a payload
  /// once per object. Read-only identity, never part of value semantics.
  [[nodiscard]] const void* payload_identity() const;

  friend bool operator==(const Value& a, const Value& b);
  friend std::strong_ordering operator<=>(const Value& a, const Value& b);

 private:
  struct StrRep;
  struct VecRep;
  using StrPtr = std::shared_ptr<const StrRep>;
  using VecPtr = std::shared_ptr<VecRep>;
  using Rep =
      std::variant<std::monostate, bool, std::int64_t, StrPtr, VecPtr>;
  Rep rep_;
};

/// Immutable shared string payload. Strings have no mutating accessor, so
/// the lazily computed hash cache is always valid once set.
struct Value::StrRep {
  std::string str;
  /// 0 = not computed yet (a true hash of 0 is simply never cached).
  mutable std::atomic<std::size_t> cached_hash{0};

  explicit StrRep(std::string s) : str(std::move(s)) {}
};

/// Shared vector payload. Immutable while shared; non-const `as_vec()`
/// un-shares it and marks it permanently uncacheable (a mutable reference to
/// `elems` may still be live at any later point).
struct Value::VecRep {
  ValueVec elems;
  mutable std::atomic<std::size_t> cached_hash{0};
  bool hash_cacheable{true};

  VecRep() = default;
  explicit VecRep(ValueVec e) : elems(std::move(e)) {}
  // Clone used by copy-on-write: element Values are copied (refcount bumps,
  // not deep copies); the clone starts with a fresh, empty hash cache.
  VecRep(const VecRep& o) : elems(o.elems) {}
  VecRep& operator=(const VecRep&) = delete;
};

inline Value::Value(std::string s)
    : rep_(std::make_shared<const StrRep>(std::move(s))) {}
inline Value::Value(const char* s)
    : rep_(std::make_shared<const StrRep>(std::string(s))) {}
inline Value::Value(ValueVec v)
    : rep_(std::make_shared<VecRep>(std::move(v))) {}

inline const std::string& Value::as_str() const {
  return std::get<StrPtr>(rep_)->str;
}
inline const ValueVec& Value::as_vec() const {
  return std::get<VecPtr>(rep_)->elems;
}

std::ostream& operator<<(std::ostream& os, const Value& v);

}  // namespace ba

template <>
struct std::hash<ba::Value> {
  std::size_t operator()(const ba::Value& v) const { return v.hash(); }
};
