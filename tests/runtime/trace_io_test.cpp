#include "runtime/trace_io.h"

#include <gtest/gtest.h>

#include "adversary/omission.h"
#include "analysis/lint.h"
#include "lowerbound/attack.h"
#include "lowerbound/certificate_io.h"
#include "protocols/phase_king.h"
#include "protocols/weak_consensus.h"
#include "runtime/sync_system.h"

namespace ba {
namespace {

ExecutionTrace sample_trace() {
  SystemParams params{5, 2};
  return run_execution(params, protocols::phase_king_consensus(),
                       std::vector<Value>(5, Value::bit(1)),
                       isolate_group(ProcessSet{{3, 4}}, 2))
      .trace;
}

TEST(TraceIo, RoundTripPreservesEverything) {
  ExecutionTrace original = sample_trace();
  auto restored = trace_from_value(trace_to_value(original));
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->params.n, original.params.n);
  EXPECT_EQ(restored->params.t, original.params.t);
  EXPECT_EQ(restored->faulty, original.faulty);
  EXPECT_EQ(restored->rounds, original.rounds);
  EXPECT_EQ(restored->quiesced, original.quiesced);
  ASSERT_EQ(restored->procs.size(), original.procs.size());
  for (std::size_t p = 0; p < original.procs.size(); ++p) {
    EXPECT_EQ(restored->procs[p], original.procs[p]) << "p" << p;
  }
  // A round-tripped trace still validates.
  EXPECT_EQ(restored->validate(), std::nullopt);
}

TEST(TraceIo, BytesRoundTrip) {
  ExecutionTrace original = sample_trace();
  Bytes bytes = encode_trace(original);
  auto restored = decode_trace(bytes);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->procs[0], original.procs[0]);
  EXPECT_EQ(restored->message_complexity(), original.message_complexity());
}

TEST(TraceIo, GarbageRejected) {
  EXPECT_EQ(trace_from_value(Value{"nope"}), std::nullopt);
  EXPECT_EQ(decode_trace(Bytes{1, 2, 3}), std::nullopt);
  Bytes truncated = encode_trace(sample_trace());
  truncated.resize(truncated.size() / 2);
  EXPECT_EQ(decode_trace(truncated), std::nullopt);
}

TEST(TraceIo, RejectionsComeWithDiagnostics) {
  std::string error;
  EXPECT_EQ(trace_from_value(Value{"nope"}, &error), std::nullopt);
  EXPECT_FALSE(error.empty());

  error.clear();
  EXPECT_EQ(decode_trace(Bytes{9, 9, 9}, &error), std::nullopt);
  EXPECT_NE(error.find("serde"), std::string::npos) << error;
}

TEST(TraceIo, RejectsOutOfRangeIntegers) {
  Value good = trace_to_value(sample_trace());

  // Negative n.
  Value bad = good;
  bad.as_vec()[1] = Value{static_cast<std::int64_t>(-5)};
  std::string error;
  EXPECT_EQ(trace_from_value(bad, &error), std::nullopt);
  EXPECT_FALSE(error.empty());

  // t >= n (invalid system parameters).
  bad = good;
  bad.as_vec()[2] = Value{static_cast<std::int64_t>(99)};
  error.clear();
  EXPECT_EQ(trace_from_value(bad, &error), std::nullopt);
  EXPECT_NE(error.find("invalid params"), std::string::npos) << error;

  // Faulty id beyond n: previously this wrapped silently.
  bad = good;
  bad.as_vec()[3] = Value{ValueVec{Value{static_cast<std::int64_t>(1) << 40}}};
  error.clear();
  EXPECT_EQ(trace_from_value(bad, &error), std::nullopt);
  EXPECT_FALSE(error.empty());

  bad = good;
  bad.as_vec()[3] = Value{ValueVec{Value{static_cast<std::int64_t>(7)}}};
  EXPECT_EQ(trace_from_value(bad), std::nullopt) << "faulty id 7 in an n=5 system";
}

TEST(TraceIo, RejectsMessagesNamingForeignProcesses) {
  ExecutionTrace trace = sample_trace();
  Value v = trace_to_value(trace);
  // Reach into p0's first recorded round and corrupt a sent message's
  // receiver to a process outside the system.
  ValueVec& procs = v.as_vec()[6].as_vec();
  ValueVec& rounds = procs[0].as_vec()[3].as_vec();
  ASSERT_FALSE(rounds.empty());
  ValueVec& sent = rounds[0].as_vec()[0].as_vec();
  ASSERT_FALSE(sent.empty());
  sent[0].as_vec()[1] = Value{static_cast<std::int64_t>(12345)};
  std::string error;
  EXPECT_EQ(trace_from_value(v, &error), std::nullopt);
  EXPECT_NE(error.find("receiver"), std::string::npos) << error;
}

TEST(TraceIo, RejectsWrongProcessCount) {
  Value v = trace_to_value(sample_trace());
  v.as_vec()[6].as_vec().pop_back();
  std::string error;
  EXPECT_EQ(trace_from_value(v, &error), std::nullopt);
  EXPECT_NE(error.find("process trace"), std::string::npos) << error;
}

TEST(TraceIo, RejectsNonCanonicalFaultyLists) {
  // The faulty set is written in ascending order. An unsorted or repeated
  // list would decode to the same set and re-encode to different bytes.
  for (const ValueVec& ids : {ValueVec{4, 3}, ValueVec{3, 3, 4}}) {
    Value v = trace_to_value(sample_trace());
    v.as_vec()[3] = Value{ids};
    std::string error;
    EXPECT_EQ(trace_from_value(v, &error), std::nullopt);
    EXPECT_EQ(error, "trace: faulty ids must be strictly ascending");
    error.clear();
    EXPECT_EQ(decode_trace(encode_value(v), &error), std::nullopt);
    EXPECT_EQ(error, "trace: faulty ids must be strictly ascending");
  }
}

TEST(TraceIo, RejectsANonCanonicalQuiescedByte) {
  const ExecutionTrace trace = sample_trace();
  Bytes bytes = encode_trace(trace);
  // The quiesced bool follows the outer vector header, "trace", n, t, the
  // faulty ids and the round count; its body follows its tag.
  const std::size_t at =
      9 + (9 + 5) + 9 + 9 + (9 + 9 * trace.faulty.size()) + 9 + 1;
  ASSERT_EQ(bytes[at - 1], static_cast<std::uint8_t>(Value::Kind::kBool));
  ASSERT_EQ(bytes[at], trace.quiesced ? 1 : 0);
  bytes[at] = 2;
  std::string error;
  EXPECT_EQ(decode_trace(bytes, &error), std::nullopt);
  EXPECT_EQ(error, "serde: bad bool byte");
}

TEST(TraceIo, DecodedTraceSurvivesTheLinter) {
  // Decode-then-lint is the tools/lint_trace pipeline; a round-tripped
  // genuine trace must lint clean structurally.
  Bytes bytes = encode_trace(sample_trace());
  auto restored = decode_trace(bytes);
  ASSERT_TRUE(restored.has_value());
  auto report = analysis::lint_trace(*restored);
  EXPECT_TRUE(report.clean()) << report;
}

TEST(TraceIoV2, ProvenanceRoundTrips) {
  ExecutionTrace original = sample_trace();
  const Value provenance = Value::vec(
      {Value{"sim"}, Value{"jitter"}, Value{static_cast<std::int64_t>(42)}});
  Bytes bytes = encode_trace_with_provenance(original, provenance);

  Value got = Value::null();
  auto restored = decode_trace(bytes, nullptr, &got);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->procs[0], original.procs[0]);
  EXPECT_EQ(got, provenance);
}

TEST(TraceIoV2, ScalarProvenanceIsWrappedInAVector) {
  Value v = trace_to_value_with_provenance(sample_trace(), Value{"sim"});
  ASSERT_EQ(v.as_vec().size(), 8u);
  ASSERT_TRUE(v.as_vec()[7].is_vec());
  Value got = Value::null();
  ASSERT_TRUE(trace_from_value(v, nullptr, &got).has_value());
  EXPECT_EQ(got, Value::vec({Value{"sim"}}));
}

TEST(TraceIoV2, V1TracesYieldNullProvenance) {
  Bytes bytes = encode_trace(sample_trace());
  Value got = Value{"sentinel"};
  auto restored = decode_trace(bytes, nullptr, &got);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(got, Value::null());
}

TEST(TraceIoV2, NonVectorProvenanceFieldRejected) {
  Value v = trace_to_value(sample_trace());
  v.as_vec().push_back(Value{"not-a-vector"});
  std::string error;
  EXPECT_EQ(trace_from_value(v, &error), std::nullopt);
  EXPECT_NE(error.find("provenance"), std::string::npos) << error;
}

TEST(TraceIoV2, NineFieldTraceRejected) {
  Value v = trace_to_value_with_provenance(sample_trace(), Value{ValueVec{}});
  v.as_vec().push_back(Value{ValueVec{}});
  EXPECT_EQ(trace_from_value(v), std::nullopt);
}

TEST(TraceIoV2, V2TraceStillSurvivesTheLinter) {
  Bytes bytes = encode_trace_with_provenance(
      sample_trace(), Value::vec({Value{"sim"}}));
  auto restored = decode_trace(bytes);
  ASSERT_TRUE(restored.has_value());
  auto report = analysis::lint_trace(*restored);
  EXPECT_TRUE(report.clean()) << report;
}

TEST(CertificateIo, RoundTrippedCertificateStillVerifies) {
  SystemParams params{12, 8};
  auto protocol = protocols::wc_candidate_leader_beacon();
  auto report = lowerbound::attack_weak_consensus(params, protocol);
  ASSERT_TRUE(report.certificate.has_value());

  Bytes bytes = lowerbound::encode_certificate(*report.certificate);
  auto restored = lowerbound::decode_certificate(bytes);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->kind, report.certificate->kind);
  EXPECT_EQ(restored->witness_a, report.certificate->witness_a);
  EXPECT_EQ(restored->narrative, report.certificate->narrative);

  auto check = lowerbound::verify_certificate(*restored, protocol);
  EXPECT_TRUE(check.ok) << check.error;
}

TEST(CertificateIo, TamperedBytesDoNotVerify) {
  SystemParams params{12, 8};
  auto protocol = protocols::wc_candidate_gossip_ring(2, 3);
  auto report = lowerbound::attack_weak_consensus(params, protocol);
  ASSERT_TRUE(report.certificate.has_value());

  Value v = lowerbound::certificate_to_value(*report.certificate);
  // Swap the witnesses.
  std::swap(v.as_vec()[3], v.as_vec()[4]);
  auto tampered = lowerbound::certificate_from_value(v);
  // Either the decode rejects it or the verification does.
  if (tampered) {
    auto check = lowerbound::verify_certificate(*tampered, protocol);
    // witness_a/b swap keeps an Agreement pair valid (symmetric), so allow
    // ok here — but a kind flip must fail:
    Value v2 = lowerbound::certificate_to_value(*report.certificate);
    v2.as_vec()[1] = Value{static_cast<std::int64_t>(
        report.certificate->kind == lowerbound::ViolationKind::kAgreement
            ? 2
            : 0)};
    auto flipped = lowerbound::certificate_from_value(v2);
    ASSERT_TRUE(flipped.has_value());
    EXPECT_FALSE(lowerbound::verify_certificate(*flipped, protocol).ok);
  }
}

TEST(BitComplexity, CountsPayloadBytes) {
  SystemParams params{4, 1};
  RunResult res = run_all_correct(params, protocols::phase_king_consensus(),
                                  Value::bit(0));
  const std::uint64_t bytes = res.trace.payload_bytes_sent_by_correct();
  const std::uint64_t msgs = res.trace.message_complexity();
  // Every message carries at least one payload byte, and phase-king payloads
  // are small tagged vectors (well under 64 bytes).
  EXPECT_GE(bytes, msgs);
  EXPECT_LE(bytes, msgs * 64);
  std::uint64_t encoded = 0;
  for (const ProcessTrace& pt : res.trace.procs) {
    for (const RoundEvents& re : pt.rounds) {
      for (const Message& m : re.sent) {
        encoded += encode_value(m.payload).size();
      }
    }
  }
  EXPECT_EQ(bytes, encoded);
}

}  // namespace
}  // namespace ba
