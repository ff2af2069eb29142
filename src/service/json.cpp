#include "service/json.h"

#include <cctype>
#include <charconv>
#include <limits>
#include <cstdio>
#include <stdexcept>

namespace ba::service {
namespace {

[[noreturn]] void fail_at(std::size_t pos, const std::string& what) {
  throw std::runtime_error("json: " + what + " at byte " +
                           std::to_string(pos));
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail_at(pos_, "trailing content");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail_at(pos_, "unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail_at(pos_, std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Json parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        if (depth_ == kMaxJsonNesting) fail_at(pos_, "nesting too deep");
        ++depth_;
        Json v = c == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': return Json(parse_string());
      case 't':
        if (consume_literal("true")) return Json(true);
        fail_at(pos_, "bad literal");
      case 'f':
        if (consume_literal("false")) return Json(false);
        fail_at(pos_, "bad literal");
      case 'n':
        if (consume_literal("null")) return Json();
        fail_at(pos_, "bad literal");
      default: return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    Json::Object members;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Json(std::move(members));
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      members[std::move(key)] = parse_value();
      skip_ws();
      const char sep = peek();
      if (sep == ',') {
        ++pos_;
        continue;
      }
      if (sep == '}') {
        ++pos_;
        return Json(std::move(members));
      }
      fail_at(pos_, "expected ',' or '}' in object");
    }
  }

  Json parse_array() {
    expect('[');
    Json::Array items;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Json(std::move(items));
    }
    while (true) {
      items.push_back(parse_value());
      skip_ws();
      const char sep = peek();
      if (sep == ',') {
        ++pos_;
        continue;
      }
      if (sep == ']') {
        ++pos_;
        return Json(std::move(items));
      }
      fail_at(pos_, "expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail_at(pos_, "unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        if (static_cast<unsigned char>(c) < 0x20) {
          fail_at(pos_ - 1, "raw control character in string");
        }
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail_at(pos_, "unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          // Only the \u00XX range used by our own escaper (control bytes);
          // anything else in the BMP is passed through as raw UTF-8 by spec
          // writers, so reject surrogate gymnastics instead of mis-decoding.
          if (pos_ + 4 > text_.size()) fail_at(pos_, "short \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail_at(pos_ - 1, "bad \\u escape digit");
          }
          if (code > 0x7f) fail_at(pos_ - 4, "non-ASCII \\u escape unsupported");
          out.push_back(static_cast<char>(code));
          break;
        }
        default: fail_at(pos_ - 1, "unknown escape");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    bool integral = true;
    if (pos_ < text_.size() &&
        (text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      while (pos_ < text_.size() &&
             (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
              text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (token.empty() || token == "-") fail_at(start, "bad number");
    if (integral) {
      std::int64_t value = 0;
      const auto [ptr, ec] =
          std::from_chars(token.data(), token.data() + token.size(), value);
      if (ec == std::errc{} && ptr == token.data() + token.size()) {
        return Json(value);
      }
      // Above INT64_MAX: retry unsigned (full-range u64 seeds and hashes).
      if (ec == std::errc::result_out_of_range && token.front() != '-') {
        std::uint64_t uvalue = 0;
        const auto [uptr, uec] = std::from_chars(
            token.data(), token.data() + token.size(), uvalue);
        if (uec == std::errc{} && uptr == token.data() + token.size()) {
          return Json(uvalue);
        }
      }
      fail_at(start, "integer out of range");
    }
    double value = 0.0;
    const auto [ptr, ec] =
        std::from_chars(token.data(), token.data() + token.size(), value);
    if (ec != std::errc{} || ptr != token.data() + token.size()) {
      fail_at(start, "bad number");
    }
    return Json(value);
  }

  std::string_view text_;
  std::size_t pos_{0};
  std::uint32_t depth_{0};  // enclosing arrays and objects
};

[[noreturn]] void wrong_kind(const char* expected) {
  throw std::runtime_error(std::string("json: value is not ") + expected);
}

}  // namespace

Json Json::parse(std::string_view text) { return Parser(text).parse_document(); }

bool Json::as_bool() const {
  if (kind_ != Kind::kBool) wrong_kind("a bool");
  return bool_;
}

std::int64_t Json::as_int() const {
  if (kind_ == Kind::kUint &&
      uint_ <= static_cast<std::uint64_t>(
                   std::numeric_limits<std::int64_t>::max())) {
    return static_cast<std::int64_t>(uint_);
  }
  if (kind_ != Kind::kInt) wrong_kind("an integer");
  return int_;
}

std::uint64_t Json::as_uint() const {
  if (kind_ == Kind::kUint) return uint_;
  if (kind_ != Kind::kInt || int_ < 0) wrong_kind("an unsigned integer");
  return static_cast<std::uint64_t>(int_);
}

double Json::as_double() const {
  if (kind_ == Kind::kInt) return static_cast<double>(int_);
  if (kind_ == Kind::kUint) return static_cast<double>(uint_);
  if (kind_ != Kind::kDouble) wrong_kind("a number");
  return double_;
}

const std::string& Json::as_string() const {
  if (kind_ != Kind::kString) wrong_kind("a string");
  return string_;
}

const Json::Array& Json::as_array() const {
  if (kind_ != Kind::kArray) wrong_kind("an array");
  return array_;
}

const Json::Object& Json::as_object() const {
  if (kind_ != Kind::kObject) wrong_kind("an object");
  return object_;
}

const Json* Json::find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  const auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

void json_escape_to(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
}

}  // namespace ba::service
