#pragma once

// Canonical binary serialization. Used to derive signing bytes for the
// authentication substrate and stable hashes for execution comparison.
//
// A value is a kind tag byte followed by its body: nothing for null, one
// byte (0 or 1) for a bool, 8 little-endian bytes for an int, a u64 length
// plus the bytes for a string, and a u64 count plus the elements for a
// vector. The encoding is canonical: every accepted byte string re-encodes
// to itself.

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "runtime/value.h"

namespace ba {

using Bytes = std::vector<std::uint8_t>;

class SerdeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

namespace serde_detail {

// On a little-endian host the encoding is the in-memory layout, so a load
// or store is one memcpy; the byte loops keep other hosts correct.

template <typename T>
void store_le(std::uint8_t* out, T v) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out, &v, sizeof(T));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      out[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }
}

template <typename T>
T load_le(const std::uint8_t* in) {
  T v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, in, sizeof(T));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(in[i]) << (8 * i);
    }
  }
  return v;
}

}  // namespace serde_detail

// The fixed-width reads and writes are inline: a read is one bounds check
// and a load; a write is a store into a small staging buffer, which reaches
// the output vector in one append when it fills or a variable-length write
// follows.

class BytesWriter {
 public:
  void u8(std::uint8_t v) { *extend(1) = v; }
  void u32(std::uint32_t v) { serde_detail::store_le(extend(4), v); }
  void u64(std::uint64_t v) { serde_detail::store_le(extend(8), v); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void str(const std::string& s);
  void bytes(const Bytes& b);
  void value(const Value& v);

  /// Value-encoding pieces for writers that stream a structured value
  /// without building it: an int value, and the header of a vector value
  /// whose `len` elements the caller writes next.
  void int_value(std::int64_t v) {
    tagged(Value::Kind::kInt, static_cast<std::uint64_t>(v));
  }
  void vec_header(std::uint64_t len) { tagged(Value::Kind::kVec, len); }
  /// Appends a copy of the bytes at [offset, offset + len), which must
  /// already be written (a repeated value is re-emitted without
  /// re-serializing it).
  void repeat(std::size_t offset, std::size_t len);

  /// Room for `n` bytes in all, so a writer that knows its output size
  /// allocates once.
  void reserve(std::size_t n) { out_.reserve(n); }
  /// Bytes written so far.
  [[nodiscard]] std::size_t size() const { return out_.size() + staged_; }
  [[nodiscard]] Bytes take() {
    flush();
    return std::move(out_);
  }

 private:
  static constexpr std::size_t kStage = 256;

  /// Room for `k` <= kStage more bytes at the end of the stage.
  std::uint8_t* extend(std::size_t k) {
    if (kStage - staged_ < k) flush();
    std::uint8_t* p = stage_ + staged_;
    staged_ += k;
    return p;
  }
  void tagged(Value::Kind kind, std::uint64_t body) {
    std::uint8_t* p = extend(9);
    p[0] = static_cast<std::uint8_t>(kind);
    serde_detail::store_le(p + 1, body);
  }
  /// Moves the staged bytes to the output.
  void flush();

  Bytes out_;
  std::uint8_t stage_[kStage];
  std::size_t staged_{0};
};

/// The deepest vector nesting `BytesReader::value()` decodes: a value
/// nested deeper throws `nesting too deep` instead of recursing once per
/// level until the stack runs out. Every value the protocols emit nests far
/// less (tests/runtime/trace_codec_test.cpp pins the margin).
inline constexpr std::uint32_t kMaxValueNesting = 64;

class BytesReader {
 public:
  explicit BytesReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() { return *take(1); }
  std::uint32_t u32() {
    return serde_detail::load_le<std::uint32_t>(take(4));
  }
  std::uint64_t u64() {
    return serde_detail::load_le<std::uint64_t>(take(8));
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  std::string str();
  Bytes bytes();
  /// Decodes one value; throws on vectors nested deeper than
  /// kMaxValueNesting.
  Value value() { return value_at(0); }

  /// Value-decoding pieces for readers that stream a structured value. `kind`
  /// reads a tag byte and throws on an unknown one; `boolean` reads a bool
  /// body and throws on any byte but 0 or 1; `vec_len` reads a vector's
  /// element count and throws when it exceeds the remaining input (each
  /// element takes at least one byte).
  Value::Kind kind() {
    const std::uint8_t tag = u8();
    if (tag > static_cast<std::uint8_t>(Value::Kind::kVec)) {
      fail("bad value tag");
    }
    return static_cast<Value::Kind>(tag);
  }
  bool boolean() {
    const std::uint8_t b = u8();
    if (b > 1) fail("bad bool byte");
    return b == 1;
  }
  std::uint64_t vec_len() {
    const std::uint64_t len = u64();
    if (len > remaining()) fail("vector length exceeds input");
    return len;
  }
  /// Advances past one encoded value, with the checks `value()` makes
  /// except the nesting limit, without allocating or recursing.
  void skip_value();

  [[nodiscard]] std::size_t pos() const { return pos_; }
  /// The bytes read since position `start`.
  [[nodiscard]] std::span<const std::uint8_t> since(std::size_t start) const {
    return data_.subspan(start, pos_ - start);
  }
  [[nodiscard]] bool done() const { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

 private:
  [[noreturn]] static void fail(const char* what);
  /// value() inside `depth` enclosing vectors.
  Value value_at(std::uint32_t depth);
  /// Consumes `k` bytes (one bounds check) and returns the first.
  const std::uint8_t* take(std::size_t k) {
    if (remaining() < k) fail("truncated input");
    const std::uint8_t* p = data_.data() + pos_;
    pos_ += k;
    return p;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_{0};
};

/// Canonical byte encoding of a value (round-trips via BytesReader::value).
Bytes encode_value(const Value& v);
/// encode_value(v).size(), without encoding.
std::size_t encoded_size(const Value& v);
Value decode_value(std::span<const std::uint8_t> data);

}  // namespace ba
