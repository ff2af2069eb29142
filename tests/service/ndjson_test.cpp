// The service's row encoding and streaming plumbing: the minimal JSON
// parser, authenticated encode_row/decode_row (cache-poisoning defense),
// the OrderedNdjsonWriter reorder buffer, and file round trips.

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "service/campaign.h"
#include "service/json.h"
#include "service/ndjson.h"

namespace ba::service {
namespace {

TEST(Json, ParsesTheCampaignSurface) {
  const Json doc = Json::parse(
      R"({"name": "x", "count": 3, "ratio": 1.5, "ok": true,
          "none": null, "items": ["a", {"n": 4}]})");
  EXPECT_EQ(doc.find("name")->as_string(), "x");
  EXPECT_EQ(doc.find("count")->as_int(), 3);
  EXPECT_DOUBLE_EQ(doc.find("ratio")->as_double(), 1.5);
  EXPECT_TRUE(doc.find("ok")->as_bool());
  EXPECT_TRUE(doc.find("none")->is_null());
  ASSERT_EQ(doc.find("items")->as_array().size(), 2u);
  EXPECT_EQ(doc.find("items")->as_array()[1].find("n")->as_int(), 4);
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(Json, FullRangeUnsignedIntegersSurvive) {
  // Campaign seeds use all 64 bits; values above INT64_MAX must parse.
  const Json doc = Json::parse(R"({"seed": 9945532481501666971})");
  EXPECT_EQ(doc.find("seed")->as_uint(), 9945532481501666971ULL);
  EXPECT_TRUE(doc.find("seed")->is_integer());
  // And small integers stay kInt, reachable through both accessors.
  const Json small = Json::parse("42");
  EXPECT_EQ(small.as_int(), 42);
  EXPECT_EQ(small.as_uint(), 42u);
}

TEST(Json, RejectsMalformedInput) {
  const auto rejects = [](const char* text) {
    EXPECT_THROW((void)Json::parse(text), std::runtime_error) << text;
  };
  rejects("");
  rejects("{");
  rejects("{\"a\": }");
  rejects("[1, 2");
  rejects("tru");
  rejects("{\"a\": 1} trailing");
  rejects("\"unterminated");
  rejects("\"bad \\x escape\"");
  rejects("18446744073709551616");  // > UINT64_MAX
  rejects("-9223372036854775809");  // < INT64_MIN
}

TEST(Json, NestingDeeperThanTheLimitThrows) {
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_EQ(Json::parse(nested(kMaxJsonNesting)).kind(), Json::Kind::kArray);
  EXPECT_NO_THROW((void)Json::parse("{\"a\": " + nested(kMaxJsonNesting - 1) +
                                    "}"));
  for (const std::size_t depth : {std::size_t{kMaxJsonNesting} + 1,
                                  std::size_t{100000}}) {
    try {
      (void)Json::parse(nested(depth));
      FAIL() << "expected std::runtime_error at depth " << depth;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()),
                "json: nesting too deep at byte " +
                    std::to_string(kMaxJsonNesting));
    }
  }
}

TEST(Json, TypedAccessorsThrowOnKindMismatch) {
  const Json doc = Json::parse(R"({"s": "x", "neg": -1})");
  EXPECT_THROW((void)doc.find("s")->as_int(), std::runtime_error);
  EXPECT_THROW((void)doc.find("s")->as_bool(), std::runtime_error);
  EXPECT_THROW((void)doc.find("neg")->as_uint(), std::runtime_error);
  EXPECT_THROW((void)doc.as_array(), std::runtime_error);
}

TEST(Json, EscapeRoundTrip) {
  std::string out;
  json_escape_to(out, "a\"b\\c\nd\te\x01");
  EXPECT_EQ(out, "a\\\"b\\\\c\\nd\\te\\u0001");
  const Json back = Json::parse("\"" + out + "\"");
  EXPECT_EQ(back.as_string(), "a\"b\\c\nd\te\x01");
}

CampaignRow sample_row() {
  CampaignRow row;
  row.spec_hash = 0x9688f8d05c884f71ULL;
  row.protocol = "phase-king";
  row.params = {4, 1};
  row.backend = "lockstep";
  row.fault = "fault-free";
  row.seed_index = 3;
  row.seed = 9945532481501666971ULL;  // deliberately > INT64_MAX
  row.rounds = 7;
  row.messages = 54;
  row.static_bound = 54;
  row.decided = 4;
  row.agree = true;
  return row;
}

TEST(Rows, EncodeDecodeRoundTrip) {
  const CampaignRow row = sample_row();
  const std::string line = encode_row(row);
  const auto decoded = decode_row(line);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, row);
  EXPECT_EQ(encode_row(*decoded), line);

  CampaignRow unbounded = row;
  unbounded.static_bound.reset();
  unbounded.agree = false;
  const auto decoded2 = decode_row(encode_row(unbounded));
  ASSERT_TRUE(decoded2.has_value());
  EXPECT_EQ(*decoded2, unbounded);
}

TEST(Rows, EveryByteFlipIsDetected) {
  const std::string line = encode_row(sample_row());
  for (std::size_t i = 0; i < line.size(); ++i) {
    std::string corrupted = line;
    corrupted[i] = corrupted[i] == 'x' ? 'y' : 'x';
    if (corrupted == line) continue;
    EXPECT_FALSE(decode_row(corrupted).has_value())
        << "undetected corruption at byte " << i << ": " << corrupted;
  }
}

TEST(Rows, TruncationAndGarbageAreRejected) {
  const std::string line = encode_row(sample_row());
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{1}, line.size() / 2, line.size() - 1}) {
    EXPECT_FALSE(decode_row(line.substr(0, keep)).has_value());
  }
  EXPECT_FALSE(decode_row("").has_value());
  EXPECT_FALSE(decode_row("{}").has_value());
  EXPECT_FALSE(decode_row("not json at all").has_value());
}

TEST(Rows, ForgedFieldWithStaleHashIsRejected) {
  // The classic cache-poisoning shape: edit a field, keep the recorded
  // hash. The hash covers the prefix bytes, so this must fail.
  std::string line = encode_row(sample_row());
  const auto pos = line.find("\"messages\":54");
  ASSERT_NE(pos, std::string::npos);
  line.replace(pos, 13, "\"messages\":99");
  EXPECT_FALSE(decode_row(line).has_value());
}

TEST(Rows, NonCanonicalEncodingIsRejected) {
  // Same data, extra whitespace: parses as JSON but is not the canonical
  // byte sequence, so the re-encode equality check refuses it.
  std::string line = encode_row(sample_row());
  line.insert(1, " ");
  EXPECT_FALSE(decode_row(line).has_value());
}

TEST(OrderedWriter, ReordersCompletionOrderToIndexOrder) {
  std::vector<std::string> emitted;
  OrderedNdjsonWriter writer(
      [&](std::string_view line) { emitted.emplace_back(line); });
  writer.put(2, "two");
  writer.put(0, "zero");
  EXPECT_EQ(emitted, (std::vector<std::string>{"zero"}));
  EXPECT_FALSE(writer.drained());
  writer.put(1, "one");
  EXPECT_EQ(emitted, (std::vector<std::string>{"zero", "one", "two"}));
  EXPECT_TRUE(writer.drained());
  EXPECT_EQ(writer.emitted(), 3u);
  EXPECT_THROW(writer.put(1, "dup"), std::runtime_error);
}

TEST(FileWriter, AppendAndReadBack) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("ba_ndjson_test_" + std::to_string(::getpid()) + ".ndjson"))
          .string();
  {
    NdjsonFileWriter writer(path);
    writer.write_line("alpha");
    writer.write_line("beta");
    EXPECT_EQ(writer.lines_written(), 2u);
  }
  {
    NdjsonFileWriter appender(path, /*truncate=*/false);
    appender.write_line("gamma");
  }
  EXPECT_EQ(read_ndjson_lines(path),
            (std::vector<std::string>{"alpha", "beta", "gamma"}));
  std::filesystem::remove(path);
  EXPECT_TRUE(read_ndjson_lines(path).empty());
}

}  // namespace
}  // namespace ba::service
