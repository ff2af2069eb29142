// Differential and corruption tests of the streaming trace codec
// (runtime/trace_io.h) and the certificate codec that splices it
// (lowerbound/certificate_io.h), against the whole-Value-tree codec they
// replaced (trace_codec_oracle.h):
//
//   * golden set: identical bytes and equal decoded traces/certificates;
//   * corruption corpus (a small trace truncated at every offset, seeded
//     single-byte flips of a large one): accept and reject where the
//     oracle does, except for the non-canonical encodings the oracle
//     accepted; the oracle's diagnostic on every single-fault input; every
//     accepted input re-encodes to itself;
//   * the error order for inputs with two faults, and payload sharing in
//     decoded traces.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/ba.h"
#include "crypto/siphash.h"
#include "lowerbound/certificate_io.h"
#include "runtime/trace_io.h"
#include "trace_codec_oracle.h"

namespace ba {
namespace {

const std::string kBadBool = "serde: bad bool byte";
const std::string kFaultyOrder = "trace: faulty ids must be strictly ascending";

ExecutionTrace run_traced(const SystemParams& params,
                          const ProtocolFactory& factory,
                          const std::vector<Value>& proposals,
                          const std::string& fault,
                          const std::string& backend = "lockstep") {
  const Adversary adversary = faults::compile_adversary(
      faults::checked_fault_spec(fault, params), params, /*seed=*/7);
  return engine::make_backend(backend)
      ->run(params, factory, proposals, adversary)
      .trace;
}

ExecutionTrace ds_trace(std::uint32_t n, std::uint32_t t,
                        const std::string& fault) {
  auto auth = std::make_shared<crypto::Authenticator>(11, n);
  std::vector<Value> proposals(n, Value::bit(0));
  proposals[0] = Value{"tx:golden"};
  return run_traced({n, t}, protocols::dolev_strong_broadcast(auth, 0),
                    proposals, fault);
}

ExecutionTrace pk_trace(std::uint32_t n, std::uint32_t t,
                        const std::string& fault,
                        const std::string& backend = "lockstep") {
  std::vector<Value> proposals;
  for (std::uint32_t p = 0; p < n; ++p) proposals.push_back(Value::bit(p % 2));
  return run_traced({n, t}, protocols::phase_king_consensus(), proposals,
                    fault, backend);
}

ExecutionTrace eig_trace(std::uint32_t n, std::uint32_t t,
                         const std::string& fault) {
  std::vector<Value> proposals;
  for (std::uint32_t p = 0; p < n; ++p) {
    proposals.emplace_back(static_cast<std::int64_t>((1 << 20) | (p * 7919)));
  }
  return run_traced({n, t}, protocols::eig_interactive_consistency(),
                    proposals, fault);
}

bool same_trace(const ExecutionTrace& a, const ExecutionTrace& b) {
  return a.params.n == b.params.n && a.params.t == b.params.t &&
         a.faulty == b.faulty && a.rounds == b.rounds &&
         a.quiesced == b.quiesced && a.procs == b.procs;
}

struct Golden {
  std::string label;
  ExecutionTrace trace;
  std::optional<Value> provenance;  // set for schema-v2 traces
};

const std::vector<Golden>& golden_set() {
  static const std::vector<Golden> set = [] {
    std::vector<Golden> g;
    g.push_back({"ds32 isolate:2", ds_trace(32, 8, "isolate:2"), {}});
    g.push_back({"pk16 isolate:2", pk_trace(16, 5, "isolate:2"), {}});
    g.push_back({"eig10 crash:1@2", eig_trace(10, 2, "crash:1@2"), {}});
    g.push_back({"ds32 fault-free", ds_trace(32, 8, "fault-free"), {}});
    g.push_back({"pk16 fault-free", pk_trace(16, 5, "fault-free"), {}});
    g.push_back({"eig10 fault-free", eig_trace(10, 2, "fault-free"), {}});
    g.push_back({"pk7 sim v2", pk_trace(7, 2, "crash:1@2", "sim:jitter,42"),
                 Value::vec({Value{"sim"}, Value{"jitter"},
                             Value{std::int64_t{42}},
                             Value{std::int64_t{1000}}})});
    return g;
  }();
  return set;
}

Bytes encode(const ExecutionTrace& trace, const Value& provenance) {
  return provenance.is_null() ? encode_trace(trace)
                              : encode_trace_with_provenance(trace, provenance);
}

TEST(TraceCodecGolden, TraceBytesAndDecodesMatchTheOracle) {
  for (const Golden& g : golden_set()) {
    const Value provenance = g.provenance.value_or(Value::null());
    const Bytes bytes = encode(g.trace, provenance);
    const Bytes want = g.provenance ? oracle::encode_trace_with_provenance(
                                          g.trace, *g.provenance)
                                    : oracle::encode_trace(g.trace);
    EXPECT_EQ(bytes, want) << g.label;

    Value got_prov;
    Value want_prov;
    const auto got = decode_trace(bytes, nullptr, &got_prov);
    const auto expected = oracle::decode_trace(bytes, nullptr, &want_prov);
    ASSERT_TRUE(got.has_value()) << g.label;
    ASSERT_TRUE(expected.has_value()) << g.label;
    EXPECT_TRUE(same_trace(*got, *expected)) << g.label;
    EXPECT_TRUE(same_trace(*got, g.trace)) << g.label;
    EXPECT_EQ(got_prov, want_prov) << g.label;
    EXPECT_EQ(encode(*got, got_prov), bytes) << g.label;
  }
}

// The differential tests compare two codecs over whatever the executor
// recorded, so a routing change that altered a trace would still pass them.
// This pins the recorded traces themselves: the byte length and a fixed-key
// SipHash-2-4 digest of each golden trace's encoding.
TEST(TraceCodecGolden, RecordedTraceBytesArePinned) {
  struct Pin {
    std::string label;
    std::size_t size;
    std::uint64_t digest;
  };
  const std::vector<Pin> pins = {
      {"ds32 isolate:2", 419158, 0x65ea1d91b26f558fULL},
      {"pk16 isolate:2", 336608, 0x610869e5f7125a99ULL},
      {"eig10 crash:1@2", 589057, 0x2c250e1966084558ULL},
      {"ds32 fault-free", 419140, 0xa61205d652b89c1eULL},
      {"pk16 fault-free", 355490, 0x84ca45df1b76e615ULL},
      {"eig10 fault-free", 680470, 0x254cd3faab0243bbULL},
      {"pk7 sim v2", 30539, 0xe06c64a96db650aeULL},
  };
  const crypto::SipKey key{0x7472616365706e31ULL, 0x676f6c64656e2121ULL};
  ASSERT_EQ(golden_set().size(), pins.size());
  for (std::size_t i = 0; i < pins.size(); ++i) {
    const Golden& g = golden_set()[i];
    const Bytes bytes = encode(g.trace, g.provenance.value_or(Value::null()));
    EXPECT_EQ(g.label, pins[i].label);
    EXPECT_EQ(bytes.size(), pins[i].size) << g.label;
    EXPECT_EQ(crypto::siphash24(key, bytes), pins[i].digest)
        << g.label << std::hex << " digest 0x"
        << crypto::siphash24(key, bytes);
  }
}

TEST(TraceCodecGolden, ValueWrappersMatchTheOracle) {
  for (const Golden& g : golden_set()) {
    const Value v = g.provenance ? trace_to_value_with_provenance(
                                       g.trace, *g.provenance)
                                 : trace_to_value(g.trace);
    const Value want = g.provenance ? oracle::trace_to_value_with_provenance(
                                          g.trace, *g.provenance)
                                    : oracle::trace_to_value(g.trace);
    EXPECT_EQ(v, want) << g.label;
    const auto back = trace_from_value(v);
    ASSERT_TRUE(back.has_value()) << g.label;
    EXPECT_TRUE(same_trace(*back, g.trace)) << g.label;
  }
}

TEST(TraceCodecGolden, AttackCertificatesMatchTheOracle) {
  const SystemParams params{32, 31};
  int certificates = 0;
  for (const auto& entry : lowerbound::standard_sweep_entries()) {
    const auto report =
        lowerbound::attack_weak_consensus(params, entry.make(params));
    if (!report.certificate) continue;
    ++certificates;
    const lowerbound::ViolationCertificate& cert = *report.certificate;
    const Bytes bytes = lowerbound::encode_certificate(cert);
    EXPECT_EQ(bytes, oracle::encode_certificate(cert)) << entry.protocol_name;
    EXPECT_EQ(lowerbound::certificate_to_value(cert),
              oracle::certificate_to_value(cert))
        << entry.protocol_name;

    const auto got = lowerbound::decode_certificate(bytes);
    const auto want = oracle::decode_certificate(bytes);
    ASSERT_TRUE(got.has_value()) << entry.protocol_name;
    ASSERT_TRUE(want.has_value()) << entry.protocol_name;
    EXPECT_EQ(got->kind, want->kind);
    EXPECT_EQ(got->witness_a, want->witness_a);
    EXPECT_EQ(got->witness_b, want->witness_b);
    EXPECT_EQ(got->narrative, want->narrative);
    EXPECT_TRUE(same_trace(got->execution, want->execution));
    EXPECT_EQ(lowerbound::encode_certificate(*got), bytes);
  }
  EXPECT_GE(certificates, 3);
}

// ---------------------------------------------------------------------------
// Corruption corpus.

/// True when `bytes` carries an encoding the oracle accepted but the library
/// rejects as non-canonical: a bool byte other than 0 or 1 ahead of any
/// framing error, or a faulty-id list that is not strictly ascending.
bool has_noncanonical_field(std::span<const std::uint8_t> bytes) {
  std::optional<std::size_t> bad_bool;
  Value v;
  try {
    v = oracle::decode_value(bytes, &bad_bool);
  } catch (const SerdeError&) {
    return bad_bool.has_value();
  }
  if (bad_bool) return true;
  if (!v.is_vec() || v.as_vec().size() < 4 || !v.as_vec()[3].is_vec()) {
    return false;
  }
  const ValueVec& faulty = v.as_vec()[3].as_vec();
  for (std::size_t i = 1; i < faulty.size(); ++i) {
    if (faulty[i - 1].is_int() && faulty[i].is_int() &&
        faulty[i].as_int() <= faulty[i - 1].as_int()) {
      return true;
    }
  }
  return false;
}

struct CorpusTally {
  int inputs = 0;
  int accepted = 0;
  int rejected_as_oracle = 0;
  int newly_rejected = 0;  // oracle accepted a non-canonical encoding
  int second_fault = 0;    // rejected for a non-canonical field first
};

/// Decodes `input` with both codecs and checks the differential contract.
/// Returns false (after recording a test failure) on the first violation.
bool check_input(std::span<const std::uint8_t> input, const std::string& what,
                 CorpusTally& tally) {
  ++tally.inputs;
  std::string error;
  std::string oracle_error;
  Value provenance;
  Value oracle_provenance;
  const auto got = decode_trace(input, &error, &provenance);
  const auto want = oracle::decode_trace(input, &oracle_error,
                                         &oracle_provenance);
  const Bytes bytes(input.begin(), input.end());
  if (got) {
    ++tally.accepted;
    EXPECT_TRUE(want.has_value()) << what << ": accepted, oracle says "
                                  << oracle_error;
    if (!want) return false;
    EXPECT_TRUE(same_trace(*got, *want)) << what;
    EXPECT_EQ(provenance, oracle_provenance) << what;
    EXPECT_EQ(encode(*got, provenance), bytes) << what;
    return !::testing::Test::HasFailure();
  }
  EXPECT_FALSE(error.empty()) << what;
  const bool canonical_rule = error == kBadBool || error == kFaultyOrder;
  if (want) {
    ++tally.newly_rejected;
    EXPECT_TRUE(canonical_rule && has_noncanonical_field(input))
        << what << ": " << error;
    EXPECT_NE(encode(*want, oracle_provenance), bytes) << what;
  } else if (error == oracle_error) {
    ++tally.rejected_as_oracle;
  } else {
    // A different diagnostic only for a second fault: a non-canonical
    // field the library checks ahead of the oracle's error.
    ++tally.second_fault;
    EXPECT_TRUE(canonical_rule && has_noncanonical_field(input))
        << what << ": " << error << " vs oracle " << oracle_error;
  }
  return !::testing::Test::HasFailure();
}

TEST(TraceCodecCorruption, EveryTruncationOfASmallTrace) {
  const Value provenance = Value::vec({Value{"sim"}, Value{"sync"}});
  const Bytes full = encode_trace_with_provenance(
      pk_trace(4, 1, "isolate:1"), provenance);
  CorpusTally tally;
  for (std::size_t len = 0; len <= full.size(); ++len) {
    if (!check_input(std::span(full).first(len),
                     "truncated to " + std::to_string(len), tally)) {
      break;
    }
  }
  EXPECT_EQ(tally.accepted, 1);  // only the untruncated input
  EXPECT_EQ(tally.rejected_as_oracle, static_cast<int>(full.size()));
}

TEST(TraceCodecCorruption, SeededSingleByteFlipsOfALargeTrace) {
  Bytes bytes = encode_trace(pk_trace(9, 2, "isolate:2"));
  ASSERT_GT(bytes.size(), 20000u);
  std::mt19937_64 rng(20240617);
  CorpusTally tally;
  for (int i = 0; i < 10000; ++i) {
    const std::size_t at = rng() % bytes.size();
    const auto flip = static_cast<std::uint8_t>(1 + rng() % 255);
    bytes[at] ^= flip;
    const bool ok = check_input(bytes,
                                "byte " + std::to_string(at) + " ^= " +
                                    std::to_string(flip),
                                tally);
    bytes[at] ^= flip;
    if (!ok) break;
  }
  EXPECT_EQ(tally.inputs, 10000);
  // The corpus reaches every outcome: accepted payload edits, rejections
  // with the oracle's diagnostic, and non-canonical bool bytes.
  EXPECT_GT(tally.accepted, 0);
  EXPECT_GT(tally.rejected_as_oracle, 0);
  EXPECT_GT(tally.newly_rejected, 0);
}

/// Byte offset of the quiesced flag's body in an encoded trace: after the
/// outer vector header, "trace", n, t, the faulty ids, the round count and
/// the bool's own tag.
std::size_t quiesced_offset(const ExecutionTrace& trace) {
  return 9 + (9 + 5) + 9 + 9 + (9 + 9 * trace.faulty.size()) + 9 + 1;
}

TEST(TraceCodecCorruption, TwoFaultsReportInAPinnedOrder) {
  const ExecutionTrace trace = pk_trace(5, 1, "isolate:1");
  ASSERT_EQ(encode_trace(trace)[quiesced_offset(trace)],
            trace.quiesced ? 1 : 0);

  // A framing error outranks every shape error: here a quiesced byte of 2
  // and a process list one short.
  {
    Value v = trace_to_value(trace);
    v.as_vec()[6].as_vec().pop_back();
    Bytes bytes = encode_value(v);
    bytes[quiesced_offset(trace)] = 2;
    std::string error;
    EXPECT_EQ(decode_trace(bytes, &error), std::nullopt);
    EXPECT_EQ(error, kBadBool);
  }
  // A non-vector v2 provenance slot outranks the other shape errors, though
  // it comes last in the stream.
  {
    Value v = trace_to_value(trace);
    v.as_vec()[3] = Value::vec({Value{3}, Value{2}});
    v.as_vec().push_back(Value{"not-a-vector"});
    std::string error;
    EXPECT_EQ(decode_trace(encode_value(v), &error), std::nullopt);
    EXPECT_EQ(error, "trace: v2 provenance field must be a vector");
  }
  // Otherwise the first shape error in stream order: the faulty list
  // before the process list.
  {
    Value v = trace_to_value(trace);
    v.as_vec()[3] = Value::vec({Value{3}, Value{2}});
    v.as_vec()[6].as_vec().pop_back();
    std::string error;
    EXPECT_EQ(decode_trace(encode_value(v), &error), std::nullopt);
    EXPECT_EQ(error, kFaultyOrder);
  }
}

TEST(TraceCodecSharing, DecodedPayloadsAreSharedCopyOnWrite) {
  auto decoded = decode_trace(encode_trace(ds_trace(8, 2, "fault-free")));
  ASSERT_TRUE(decoded.has_value());
  // Round 1: the sender multicasts one signed payload.
  const std::vector<Message>& sent = decoded->procs[0].rounds.at(0).sent;
  ASSERT_FALSE(sent.empty());
  const Message& out = sent.front();
  ASSERT_TRUE(out.payload.is_vec());
  std::vector<Message>& inbox =
      decoded->procs[out.receiver].rounds.at(0).received;
  ASSERT_EQ(inbox.size(), 1u);
  Message& in = inbox.front();
  EXPECT_TRUE(in.payload.shares_rep_with(out.payload));
  EXPECT_TRUE(in.payload.shares_rep_with(sent.back().payload));

  const Bytes sent_bytes = encode_value(out.payload);
  in.payload.as_vec().push_back(Value{"tampered"});
  EXPECT_FALSE(in.payload.shares_rep_with(out.payload));
  EXPECT_EQ(encode_value(out.payload), sent_bytes);
  EXPECT_NE(in.payload, out.payload);
}

// ---------------------------------------------------------------------------
// Nesting limit.

// Vectors enclosing the deepest leaf of `v` (0 for a scalar).
std::uint32_t nesting(const Value& v) {
  if (!v.is_vec()) return 0;
  std::uint32_t deepest = 0;
  for (const Value& e : v.as_vec()) deepest = std::max(deepest, nesting(e));
  return deepest + 1;
}

std::uint32_t deepest_value(const ExecutionTrace& trace) {
  std::uint32_t deepest = 0;
  const auto visit = [&](const Value& v) {
    deepest = std::max(deepest, nesting(v));
  };
  for (const ProcessTrace& pt : trace.procs) {
    visit(pt.proposal);
    if (pt.decision) visit(*pt.decision);
    for (const RoundEvents& re : pt.rounds) {
      for (const auto* list : {&re.sent, &re.send_omitted, &re.received,
                               &re.receive_omitted}) {
        for (const Message& m : *list) visit(m.payload);
      }
    }
  }
  return deepest;
}

TEST(TraceCodecNesting, GoldenValuesNestWellBelowTheLimit) {
  std::uint32_t deepest = 0;
  for (const Golden& g : golden_set()) {
    deepest = std::max(deepest, deepest_value(g.trace));
    if (g.provenance) deepest = std::max(deepest, nesting(*g.provenance));
  }
  const SystemParams params{32, 31};
  for (const auto& entry : lowerbound::standard_sweep_entries()) {
    const auto report =
        lowerbound::attack_weak_consensus(params, entry.make(params));
    if (report.certificate) {
      deepest = std::max(deepest, deepest_value(report.certificate->execution));
    }
  }
  EXPECT_GT(deepest, 0u);
  EXPECT_LE(deepest, kMaxValueNesting / 4);
}

TEST(TraceCodecNesting, ADeepPayloadIsThePinnedSerdeError) {
  ExecutionTrace trace = pk_trace(4, 1, "fault-free");
  const Value marker{"deep-payload-marker"};
  trace.procs[0].rounds.at(0).sent.front().payload = marker;
  const Bytes base = encode_trace(trace);
  const Bytes marker_bytes = encode_value(marker);
  const auto at = std::search(base.begin(), base.end(), marker_bytes.begin(),
                              marker_bytes.end());
  ASSERT_NE(at, base.end());
  // The trace with the marker payload replaced by `depth` nested
  // one-element vectors, spliced in as bytes.
  const auto with_depth = [&](std::size_t depth) {
    Bytes b(base.begin(), at);
    for (std::size_t i = 0; i < depth; ++i) {
      b.push_back(static_cast<std::uint8_t>(Value::Kind::kVec));
      b.push_back(1);
      b.insert(b.end(), 7, 0);
    }
    b.push_back(static_cast<std::uint8_t>(Value::Kind::kNull));
    b.insert(b.end(), at + static_cast<std::ptrdiff_t>(marker_bytes.size()),
             base.end());
    return b;
  };
  const auto decoded = decode_trace(with_depth(kMaxValueNesting));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(nesting(decoded->procs[0].rounds.at(0).sent.front().payload),
            kMaxValueNesting);
  for (const std::size_t depth : {std::size_t{kMaxValueNesting} + 1,
                                  std::size_t{100000}}) {
    std::string error;
    EXPECT_EQ(decode_trace(with_depth(depth), &error), std::nullopt) << depth;
    EXPECT_EQ(error, "serde: nesting too deep") << depth;
  }
}

}  // namespace
}  // namespace ba
