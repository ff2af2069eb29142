#pragma once

// Minimal JSON document model for the campaign service.
//
// The CampaignSpec surface (docs/SERVICE.md) is JSON because campaign files
// are written by humans and external sweep generators; everything else in
// the repo that *emits* JSON (bench writers, NDJSON rows) does so by string
// building. This is the one place that *parses* it, so the parser is scoped
// to exactly what specs and result rows need: objects, arrays, strings,
// 64-bit integers, doubles, booleans, null, UTF-8 passthrough, and the
// standard two-character escapes. Parse errors throw std::runtime_error
// with a byte offset so a broken campaign file is diagnosable.
//
// Objects preserve no duplicate keys (last wins) and are stored in a sorted
// std::map: iteration order is deterministic by construction, which keeps
// the service replay-safe (tools/check_determinism.py scans this tree).

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace ba::service {

/// The deepest array/object nesting Json::parse accepts: deeper input throws
/// `json: nesting too deep at byte N` instead of recursing once per level
/// until the stack runs out. Specs and rows nest at most two levels.
inline constexpr std::uint32_t kMaxJsonNesting = 64;

class Json {
 public:
  // kUint holds non-negative integers above INT64_MAX (campaign seeds and
  // SipHash-derived values use the full 64-bit range); smaller integers
  // always parse as kInt.
  enum class Kind {
    kNull, kBool, kInt, kUint, kDouble, kString, kArray, kObject
  };

  using Array = std::vector<Json>;
  using Object = std::map<std::string, Json>;

  Json() = default;
  explicit Json(bool b) : kind_(Kind::kBool), bool_(b) {}
  explicit Json(std::int64_t i) : kind_(Kind::kInt), int_(i) {}
  explicit Json(std::uint64_t u) : kind_(Kind::kUint), uint_(u) {}
  explicit Json(double d) : kind_(Kind::kDouble), double_(d) {}
  explicit Json(std::string s) : kind_(Kind::kString), string_(std::move(s)) {}
  explicit Json(Array a) : kind_(Kind::kArray), array_(std::move(a)) {}
  explicit Json(Object o) : kind_(Kind::kObject), object_(std::move(o)) {}

  /// Parses `text` as one JSON document (trailing non-whitespace is an
  /// error). Throws std::runtime_error with a byte offset on malformed
  /// input, including nesting deeper than kMaxJsonNesting.
  static Json parse(std::string_view text);

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_bool() const { return kind_ == Kind::kBool; }
  [[nodiscard]] bool is_int() const { return kind_ == Kind::kInt; }
  /// Any integer, either representation.
  [[nodiscard]] bool is_integer() const {
    return kind_ == Kind::kInt || kind_ == Kind::kUint;
  }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::kString; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors; throw std::runtime_error on kind mismatch (the error
  /// names the expected kind so spec validation messages stay readable).
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] std::int64_t as_int() const;    // accepts fitting kUint too
  [[nodiscard]] std::uint64_t as_uint() const;  // accepts non-negative kInt
  [[nodiscard]] double as_double() const;       // accepts any integer kind
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const Json* find(const std::string& key) const;

 private:
  Kind kind_{Kind::kNull};
  bool bool_{false};
  std::int64_t int_{0};
  std::uint64_t uint_{0};
  double double_{0.0};
  std::string string_;
  Array array_;
  Object object_;
};

/// Appends `s` to `out` with JSON string escaping (quotes, backslash,
/// control characters). Shared by every NDJSON/JSON emitter in the service.
void json_escape_to(std::string& out, std::string_view s);

}  // namespace ba::service
