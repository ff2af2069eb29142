// The fault compiler: one FaultSpec, two lowerings. compile_adversary
// reproduces the legacy campaign adversaries bit-for-bit (pins ported from
// the pre-IR service tests; its lockstep/sim parity per kind lives in
// tests/sim/sim_parity_test.cpp), and the partial async lowering throws its
// documented no-lowering errors.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "adversary/omission.h"
#include "crypto/siphash.h"
#include "faults/compile.h"
#include "faults/fault_spec.h"
#include "protocols/phase_king.h"
#include "runtime/sync_system.h"

namespace ba::faults {
namespace {

FaultSpec spec_of(const std::string& text) { return parse_fault_spec(text); }

TEST(CompileAdversary, ReproducesTheDocumentedLegacyAdversaries) {
  const SystemParams params{7, 2};

  EXPECT_TRUE(
      compile_adversary(spec_of("fault-free"), params, 9).faulty.empty());

  // crash:K corrupts the K highest ids (the legacy tail group).
  const Adversary crash = compile_adversary(spec_of("crash:2"), params, 9);
  EXPECT_EQ(crash.faulty.size(), 2u);
  EXPECT_TRUE(crash.faulty.contains(5) && crash.faulty.contains(6));
  EXPECT_TRUE(crash.byzantine.empty());

  const Adversary mute = compile_adversary(spec_of("mute:1"), params, 9);
  EXPECT_EQ(mute.faulty.size(), 1u);
  EXPECT_TRUE(mute.faulty.contains(6));

  const Adversary iso = compile_adversary(spec_of("isolate:2"), params, 9);
  EXPECT_EQ(iso.faulty.size(), 2u);

  // random-omissions corrupts the whole tail-t group regardless of P.
  const Adversary omit =
      compile_adversary(spec_of("random-omissions:250"), params, 9);
  EXPECT_EQ(omit.faulty.size(), params.t);

  const Adversary byz = compile_adversary(spec_of("silent-byz:2"), params, 9);
  EXPECT_EQ(byz.byzantine.size(), 2u);
  EXPECT_EQ(byz.faulty, byz.byzantine);
  EXPECT_TRUE(byz.byzantine_factory != nullptr);

  const Adversary noise = compile_adversary(spec_of("noise-byz:1"), params, 9);
  EXPECT_EQ(noise.byzantine.size(), 1u);
  EXPECT_TRUE(noise.byzantine_factory != nullptr);

  // Budget enforcement happens inside the compiler too.
  EXPECT_THROW((void)compile_adversary(spec_of("crash:3"), params, 9),
               std::runtime_error);
}

TEST(CompileAdversary, CrashMatchesTheLegacySeedDerivation) {
  // The legacy schedule: process n-1-i crashes at round
  // 1 + SipHash(derive_key(seed, 0xfa017ab1))(i) % 4. Byte-identical
  // campaign replay rests on the compiler deriving the same rounds, so pin
  // the reference derivation here, independent of the compiler's source.
  const SystemParams params{7, 2};
  const std::uint64_t seed = 9;
  std::vector<std::pair<ProcessId, Round>> expected;
  const crypto::SipKey key = crypto::derive_key(seed, 0xfa017ab1ULL);
  const crypto::SipHasher base(key);
  for (std::uint32_t i = 0; i < 2; ++i) {
    crypto::SipHasher h = base;
    h.absorb_u32(i);
    expected.emplace_back(params.n - 1 - i,
                          static_cast<Round>(1 + h.digest() % 4));
  }
  const Adversary reference = crash_schedule(expected);
  const Adversary compiled = compile_adversary(spec_of("crash:2"), params, 9);
  EXPECT_EQ(compiled.faulty, reference.faulty);
  // Same schedule -> same behavior: run phase-king under both and compare.
  std::vector<Value> proposals;
  for (std::uint32_t p = 0; p < params.n; ++p) {
    proposals.push_back(Value::bit(static_cast<int>(p % 2)));
  }
  const ProtocolFactory protocol = protocols::phase_king_consensus();
  const RunResult a = run_execution(params, protocol, proposals, compiled);
  const RunResult b = run_execution(params, protocol, proposals, reference);
  EXPECT_EQ(a.decisions, b.decisions);
  EXPECT_EQ(a.messages_sent_by_correct, b.messages_sent_by_correct);
  EXPECT_EQ(a.rounds_executed, b.rounds_executed);
}

TEST(CompileAdversary, ModifiersSteerTargetsAndTiming) {
  const SystemParams params{7, 2};
  // %head corrupts the lowest ids instead of the tail.
  const Adversary head =
      compile_adversary(spec_of("crash:2%head"), params, 9);
  EXPECT_TRUE(head.faulty.contains(0) && head.faulty.contains(1));
  // @R pins the crash round: same spec, different seeds, same adversary
  // behavior (no seed-derived randomness left).
  std::vector<Value> proposals;
  for (std::uint32_t p = 0; p < params.n; ++p) {
    proposals.push_back(Value::bit(static_cast<int>(p % 2)));
  }
  const ProtocolFactory protocol = protocols::phase_king_consensus();
  const RunResult a = run_execution(
      params, protocol, proposals,
      compile_adversary(spec_of("crash:1@3"), params, 1));
  const RunResult b = run_execution(
      params, protocol, proposals,
      compile_adversary(spec_of("crash:1@3"), params, 2));
  EXPECT_EQ(a.decisions, b.decisions);
  EXPECT_EQ(a.messages_sent_by_correct, b.messages_sent_by_correct);
}

TEST(CompileAsync, CrashAndSilentByzLowerTheRestThrow) {
  const SystemParams params{4, 1};

  EXPECT_TRUE(compile_async(spec_of("fault-free"), params, 1).faulty.empty());

  const async::AsyncAdversary crash =
      compile_async(spec_of("crash:1"), params, 1);
  EXPECT_TRUE(crash.faulty.contains(3));
  EXPECT_TRUE(crash.byzantine.empty());

  // Mute lowers like crash (crash-from-start is the strongest schedule the
  // round-free async model can express).
  const async::AsyncAdversary mute =
      compile_async(spec_of("mute:1%head"), params, 1);
  EXPECT_TRUE(mute.faulty.contains(0));

  const async::AsyncAdversary byz =
      compile_async(spec_of("silent-byz:1"), params, 1);
  EXPECT_EQ(byz.faulty, byz.byzantine);
  ASSERT_TRUE(byz.byzantine_factory != nullptr);
  // The silent replica: sends nothing, never decides, reports halted.
  const auto replica = byz.byzantine_factory(async::AsyncContext{});
  EXPECT_TRUE(replica->on_start().empty());
  EXPECT_EQ(replica->decision(), std::nullopt);
  EXPECT_TRUE(replica->halted());

  EXPECT_THROW((void)compile_async(spec_of("isolate:1"), params, 1),
               std::runtime_error);
  EXPECT_THROW(
      (void)compile_async(spec_of("random-omissions:250"), params, 1),
      std::runtime_error);
  EXPECT_THROW((void)compile_async(spec_of("noise-byz:1"), params, 1),
               std::runtime_error);
}

// docs/FAULTS.md treats `fault plan 'X': no <target> lowering (<why>)` as
// contract; `ba_cli explore --fault` prints these verbatim.
TEST(CompileAsync, NoLoweringErrorsAreThePinnedStrings) {
  const SystemParams params{4, 1};
  const auto message = [&params](const char* text) -> std::string {
    try {
      (void)compile_async(spec_of(text), params, 1);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "no error";
  };
  EXPECT_EQ(message("isolate:1"),
            "fault plan 'isolate:1': no async lowering (the scheduler already "
            "owns delivery order; receive-isolation has no async "
            "counterpart)");
  EXPECT_EQ(message("random-omissions:250"),
            "fault plan 'random-omissions:250': no async lowering (async "
            "links are reliable; omission power lives in the scheduler)");
  EXPECT_EQ(message("noise-byz:1"),
            "fault plan 'noise-byz:1': no async lowering (the noise strategy "
            "is round-structured; only silent-byz lowers to the async "
            "model)");
}

}  // namespace
}  // namespace ba::faults
