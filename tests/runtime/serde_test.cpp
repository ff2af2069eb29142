#include "runtime/serde.h"

#include <gtest/gtest.h>

namespace ba {
namespace {

TEST(Serde, PrimitivesRoundTrip) {
  BytesWriter w;
  w.u8(0xab);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.i64(-42);
  w.str("hello");

  const Bytes bytes = w.take();
  BytesReader r(bytes);
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_TRUE(r.done());
}

TEST(Serde, ValueRoundTrip) {
  const std::vector<Value> cases{
      Value::null(),
      Value{true},
      Value{false},
      Value{-7},
      Value{std::int64_t{1234567890123}},
      Value{""},
      Value{"payload"},
      Value{ValueVec{}},
      Value::vec({Value{"chain"}, Value{1}, Value::vec({0, 1})}),
  };
  for (const Value& v : cases) {
    EXPECT_EQ(decode_value(encode_value(v)), v) << v;
  }
}

TEST(Serde, DistinctValuesDistinctEncodings) {
  EXPECT_NE(encode_value(Value{0}), encode_value(Value{false}));
  EXPECT_NE(encode_value(Value{"1"}), encode_value(Value{1}));
  EXPECT_NE(encode_value(Value::vec({1})), encode_value(Value::vec({1, 1})));
}

TEST(Serde, TruncatedInputThrows) {
  Bytes b = encode_value(Value{"hello world"});
  b.pop_back();
  EXPECT_THROW(decode_value(b), SerdeError);
}

TEST(Serde, TrailingBytesThrow) {
  Bytes b = encode_value(Value{1});
  b.push_back(0);
  EXPECT_THROW(decode_value(b), SerdeError);
}

TEST(Serde, BadTagThrows) {
  Bytes b{0x99};
  EXPECT_THROW(decode_value(b), SerdeError);
}

std::string serde_error(std::span<const std::uint8_t> bytes, bool skip) {
  try {
    BytesReader r(bytes);
    if (skip) {
      r.skip_value();
    } else {
      r.value();
    }
  } catch (const SerdeError& e) {
    return e.what();
  }
  return "";
}

TEST(Serde, BoolBytesOtherThanZeroOrOneThrow) {
  for (const std::uint8_t b : {2, 0x80, 0xff}) {
    const Bytes bare{static_cast<std::uint8_t>(Value::Kind::kBool), b};
    EXPECT_EQ(serde_error(bare, false), "bad bool byte");
    EXPECT_EQ(serde_error(bare, true), "bad bool byte");
  }
  // Inside a payload, too: the accepted bytes are exactly the canonical ones.
  Bytes nested = encode_value(Value::vec({Value{"x"}, Value{true}}));
  nested.back() = 2;
  EXPECT_THROW(decode_value(nested), SerdeError);
  EXPECT_EQ(serde_error(nested, true), "bad bool byte");
}

const std::vector<Value>& sample_values() {
  static const std::vector<Value> values{
      Value::null(),
      Value{true},
      Value{std::int64_t{-1}},
      Value{""},
      Value{std::string(300, 'x')},
      Value{ValueVec{}},
      Value::vec({Value{"chain"}, Value{1},
                  Value::vec({Value::vec({}), Value{false}})}),
  };
  return values;
}

TEST(Serde, SkipValueStopsWhereValueDoes) {
  for (const Value& v : sample_values()) {
    Bytes b = encode_value(v);
    b.push_back(0x2a);
    BytesReader skipped(b);
    BytesReader read(b);
    skipped.skip_value();
    EXPECT_EQ(read.value(), v);
    EXPECT_EQ(skipped.pos(), read.pos()) << v;
    EXPECT_EQ(skipped.remaining(), 1u) << v;
    EXPECT_EQ(encoded_size(v), b.size() - 1) << v;
  }
}

TEST(Serde, SkipValueMakesTheChecksValueMakes) {
  const Bytes good = encode_value(
      Value::vec({Value{"ab"}, Value{7}, Value::vec({Value{true}})}));
  for (std::size_t len = 0; len < good.size(); ++len) {
    const auto prefix = std::span(good).first(len);
    EXPECT_EQ(serde_error(prefix, true), serde_error(prefix, false)) << len;
  }
  const Bytes bad_tag{0x05};
  EXPECT_EQ(serde_error(bad_tag, true), "bad value tag");
  Bytes too_long = encode_value(Value::vec({Value{1}}));
  too_long[1] = 0x40;  // claims 64 elements in 9 bytes
  EXPECT_EQ(serde_error(too_long, true), "vector length exceeds input");
  EXPECT_EQ(serde_error(too_long, false), "vector length exceeds input");
}

// `depth` nested one-element vectors around a null, built byte by byte so no
// deep Value is ever constructed.
Bytes nested_vectors(std::size_t depth) {
  Bytes b;
  for (std::size_t i = 0; i < depth; ++i) {
    b.push_back(static_cast<std::uint8_t>(Value::Kind::kVec));
    b.push_back(1);
    b.insert(b.end(), 7, 0);
  }
  b.push_back(static_cast<std::uint8_t>(Value::Kind::kNull));
  return b;
}

TEST(Serde, NestingDeeperThanTheLimitThrows) {
  const Bytes at_limit = nested_vectors(kMaxValueNesting);
  EXPECT_EQ(encode_value(decode_value(at_limit)), at_limit);
  for (const std::size_t depth : {std::size_t{kMaxValueNesting} + 1,
                                  std::size_t{100000}}) {
    EXPECT_EQ(serde_error(nested_vectors(depth), false), "nesting too deep")
        << depth;
    EXPECT_THROW((void)decode_value(nested_vectors(depth)), SerdeError);
    // skip_value is iterative: any depth is walked, none is refused.
    EXPECT_EQ(serde_error(nested_vectors(depth), true), "") << depth;
  }
}

TEST(Serde, StreamingWritesMatchWholeValueEncoding) {
  // Enough fixed-width pieces to cross the writer's staging buffer, a
  // repeat whose source is still staged, a short one, and one longer than
  // the stage.
  ValueVec elems;
  BytesWriter w;
  w.vec_header(106);
  for (int i = 0; i < 100; ++i) {
    w.int_value(i - 50);
    elems.emplace_back(i - 50);
  }
  for (const Value& v :
       {Value{5}, Value{"short"}, Value{std::string(1000, 'z')}}) {
    const std::size_t at = w.size();
    w.value(v);
    w.repeat(at, w.size() - at);
    elems.push_back(v);
    elems.push_back(v);
  }
  const Value whole{elems};
  EXPECT_EQ(w.size(), encoded_size(whole));
  EXPECT_EQ(w.take(), encode_value(whole));
}

TEST(Serde, EmptyReaderReportsDone) {
  BytesReader r(std::span<const std::uint8_t>{});
  EXPECT_TRUE(r.done());
  EXPECT_THROW(r.u8(), SerdeError);
}

}  // namespace
}  // namespace ba
