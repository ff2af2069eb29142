#include "runtime/serde.h"

#include <cstring>

namespace ba {

void BytesWriter::flush() {
  out_.insert(out_.end(), stage_, stage_ + staged_);
  staged_ = 0;
}

void BytesWriter::str(const std::string& s) {
  u64(s.size());
  flush();
  out_.insert(out_.end(), s.begin(), s.end());
}

void BytesWriter::bytes(const Bytes& b) {
  u64(b.size());
  flush();
  out_.insert(out_.end(), b.begin(), b.end());
}

void BytesWriter::repeat(std::size_t offset, std::size_t len) {
  if (len == 0) return;
  // Short copies go through the stage, from a source already in out_.
  if (offset + len > out_.size() || kStage - staged_ < len) flush();
  if (len <= kStage - staged_) {
    std::memcpy(stage_ + staged_, out_.data() + offset, len);
    staged_ += len;
    return;
  }
  const std::size_t end = out_.size();
  out_.resize(end + len);
  std::memcpy(out_.data() + end, out_.data() + offset, len);
}

void BytesWriter::value(const Value& v) {
  switch (v.kind()) {
    case Value::Kind::kNull:
      u8(static_cast<std::uint8_t>(Value::Kind::kNull));
      break;
    case Value::Kind::kBool:
      u8(static_cast<std::uint8_t>(Value::Kind::kBool));
      u8(v.as_bool() ? 1 : 0);
      break;
    case Value::Kind::kInt:
      int_value(v.as_int());
      break;
    case Value::Kind::kStr:
      u8(static_cast<std::uint8_t>(Value::Kind::kStr));
      str(v.as_str());
      break;
    case Value::Kind::kVec:
      vec_header(v.as_vec().size());
      for (const Value& e : v.as_vec()) value(e);
      break;
  }
}

void BytesReader::fail(const char* what) { throw SerdeError(what); }

std::string BytesReader::str() {
  const std::uint64_t len = u64();
  const auto* p = reinterpret_cast<const char*>(take(len));
  return std::string(p, len);
}

Bytes BytesReader::bytes() {
  const std::uint64_t len = u64();
  const std::uint8_t* p = take(len);
  return Bytes(p, p + len);
}

Value BytesReader::value_at(std::uint32_t depth) {
  switch (kind()) {
    case Value::Kind::kNull:
      return Value::null();
    case Value::Kind::kBool:
      return Value{boolean()};
    case Value::Kind::kInt:
      return Value{i64()};
    case Value::Kind::kStr:
      return Value{str()};
    case Value::Kind::kVec: {
      if (depth == kMaxValueNesting) fail("nesting too deep");
      const std::uint64_t len = vec_len();
      ValueVec vec;
      vec.reserve(len);
      for (std::uint64_t i = 0; i < len; ++i) {
        vec.push_back(value_at(depth + 1));
      }
      return Value{std::move(vec)};
    }
  }
  fail("bad value tag");
}

void BytesReader::skip_value() {
  // The encoding is the value's pre-order, so counting the values still
  // owed (a vector adds its elements) walks and checks exactly the bytes
  // value() would, with no recursion however deep the nesting.
  std::uint64_t pending = 1;
  while (pending > 0) {
    --pending;
    switch (kind()) {
      case Value::Kind::kNull:
        break;
      case Value::Kind::kBool:
        boolean();
        break;
      case Value::Kind::kInt:
        take(8);
        break;
      case Value::Kind::kStr:
        take(u64());
        break;
      case Value::Kind::kVec:
        pending += vec_len();
        break;
    }
  }
}

std::size_t encoded_size(const Value& v) {
  switch (v.kind()) {
    case Value::Kind::kNull:
      return 1;
    case Value::Kind::kBool:
      return 2;
    case Value::Kind::kInt:
      return 9;
    case Value::Kind::kStr:
      return 9 + v.as_str().size();
    case Value::Kind::kVec: {
      std::size_t n = 9;
      for (const Value& e : v.as_vec()) n += encoded_size(e);
      return n;
    }
  }
  return 0;
}

Bytes encode_value(const Value& v) {
  BytesWriter w;
  w.value(v);
  return w.take();
}

Value decode_value(std::span<const std::uint8_t> data) {
  BytesReader r(data);
  Value v = r.value();
  if (!r.done()) throw SerdeError("trailing bytes");
  return v;
}

}  // namespace ba
