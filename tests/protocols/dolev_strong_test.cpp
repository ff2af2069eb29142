#include "protocols/dolev_strong.h"

#include <gtest/gtest.h>

#include <memory>

#include "adversary/byzantine.h"
#include "adversary/omission.h"
#include "crypto/signature.h"
#include "dolev_strong_adversaries.h"
#include "protocols/common.h"
#include "runtime/sync_system.h"

namespace ba::protocols {
namespace {

struct TestEnv {
  SystemParams params;
  std::shared_ptr<crypto::Authenticator> auth;
  ProtocolFactory bb;

  explicit TestEnv(std::uint32_t n, std::uint32_t t, ProcessId sender = 0)
      : params{n, t},
        auth(std::make_shared<crypto::Authenticator>(99, n)),
        bb(dolev_strong_broadcast(auth, sender)) {}
};

TEST(DolevStrong, CorrectSenderAllDecideItsValue) {
  for (std::uint32_t t : {1u, 2u, 3u}) {
    TestEnv s(5, t);
    std::vector<Value> proposals(5, Value::bit(0));
    proposals[0] = Value{"the-value"};
    RunResult res =
        run_execution(s.params, s.bb, proposals, Adversary::none());
    for (ProcessId p = 0; p < 5; ++p) {
      ASSERT_TRUE(res.decisions[p].has_value());
      EXPECT_EQ(*res.decisions[p], Value{"the-value"}) << "t=" << t;
    }
    EXPECT_TRUE(res.quiesced);
  }
}

TEST(DolevStrong, ToleratesDishonestMajority) {
  // t = 3 of n = 5: impossible unauthenticated, fine for Dolev-Strong.
  TestEnv s(5, 3);
  std::vector<Value> proposals(5, Value::bit(1));
  Adversary adv;
  adv.faulty = ProcessSet{{2, 3, 4}};
  adv.byzantine = adv.faulty;
  adv.byzantine_factory = byz_silent();
  RunResult res = run_execution(s.params, s.bb, proposals, adv);
  EXPECT_EQ(*res.decisions[0], Value::bit(1));
  EXPECT_EQ(*res.decisions[1], Value::bit(1));
}

TEST(DolevStrong, SilentSenderYieldsBottom) {
  TestEnv s(5, 1);
  Adversary adv;
  adv.faulty = ProcessSet{{0}};
  adv.byzantine = adv.faulty;
  adv.byzantine_factory = byz_silent();
  RunResult res = run_execution(s.params, s.bb,
                                std::vector<Value>(5, Value::bit(1)), adv);
  for (ProcessId p = 1; p < 5; ++p) {
    EXPECT_EQ(*res.decisions[p], bottom());
  }
}

TEST(DolevStrong, CrashingSenderStillAgrees) {
  // Sender crashes mid-protocol at various rounds; correct processes must
  // agree (on the value or on bottom) in every case.
  for (Round crash = 1; crash <= 4; ++crash) {
    TestEnv s(6, 3);
    Adversary adv;
    adv.faulty = ProcessSet{{0}};
    adv.byzantine = adv.faulty;
    adv.byzantine_factory = byz_crash_at(s.bb, crash);
    std::vector<Value> proposals(6, Value{"v"});
    RunResult res = run_execution(s.params, s.bb, proposals, adv);
    std::optional<Value> first;
    for (ProcessId p = 1; p < 6; ++p) {
      ASSERT_TRUE(res.decisions[p].has_value()) << "crash=" << crash;
      if (!first) first = res.decisions[p];
      EXPECT_EQ(*res.decisions[p], *first) << "crash=" << crash;
    }
  }
}

TEST(DolevStrong, SignedEquivocationIsDetectedAndAgreedUpon) {
  TestEnv s(6, 2);
  Adversary adv;
  adv.faulty = ProcessSet{{0}};
  adv.byzantine = adv.faulty;
  adv.byzantine_factory = [auth = s.auth](const ProcessContext& ctx) {
    return std::make_unique<EquivocatingSender>(ctx, auth);
  };
  RunResult res = run_execution(s.params, s.bb,
                                std::vector<Value>(6, Value::bit(0)), adv);
  // With t = 2 >= 2 relay rounds, both values propagate to everyone; all
  // correct processes detect the equivocation and decide bottom together.
  for (ProcessId p = 1; p < 6; ++p) {
    ASSERT_TRUE(res.decisions[p].has_value());
    EXPECT_EQ(*res.decisions[p], bottom()) << "p" << p;
  }
}

TEST(DolevStrong, AgreementUnderOmissionIsolation) {
  // Isolated receivers hear nothing from outside their group; with group
  // size 1 the isolated process extracts nothing and decides bottom — but it
  // is faulty, so weak guarantees only apply to the correct ones.
  TestEnv s(5, 2);
  RunResult res = run_execution(s.params, s.bb,
                                std::vector<Value>(5, Value{"x"}),
                                isolate_group(ProcessSet{{4}}, 1));
  for (ProcessId p = 0; p < 4; ++p) {
    EXPECT_EQ(*res.decisions[p], Value{"x"});
  }
  EXPECT_EQ(*res.decisions[4], bottom());
}

TEST(DolevStrong, MessageComplexityQuadraticInFaultFreeCase) {
  TestEnv s(8, 3);
  std::vector<Value> proposals(8, Value{"v"});
  RunResult res = run_execution(s.params, s.bb, proposals, Adversary::none());
  // Round 1: sender sends n-1. Round 2: the n-1 receivers relay to n-1 each.
  // Round 3+: everyone has extracted already, nothing new.
  EXPECT_EQ(res.messages_sent_by_correct, 7u + 7u * 7u);
}

TEST(DolevStrong, RunsExactlyTPlusOneRounds) {
  TestEnv s(5, 3);
  RunResult res = run_execution(s.params, s.bb,
                                std::vector<Value>(5, Value{"v"}),
                                Adversary::none());
  ASSERT_TRUE(res.quiesced);
  Round max_decision = 0;
  for (ProcessId p = 0; p < 5; ++p) {
    max_decision = std::max(max_decision, res.trace.procs[p].decision_round);
  }
  EXPECT_EQ(max_decision, dolev_strong_rounds(s.params));
}

TEST(DolevStrong, ParallelInstancesDoNotCrossTalk) {
  // A chain signed for instance 0 must not be accepted by instance 1.
  SystemParams params{4, 1};
  auto auth = std::make_shared<crypto::Authenticator>(7, 4);
  // Run instance 1 with sender 0, but construct (via a Byzantine p0) chains
  // tagged for instance 0. Correct processes of instance 1 must ignore them.
  ProtocolFactory inst1 = dolev_strong_broadcast(auth, 0, /*instance=*/1);
  Adversary adv;
  adv.faulty = ProcessSet{{0}};
  adv.byzantine = adv.faulty;
  adv.byzantine_factory = [auth](const ProcessContext& ctx) {
    // Honest round-1 behaviour of instance 0's sender.
    return dolev_strong_broadcast(auth, 0, /*instance=*/0)(ctx);
  };
  RunResult res = run_execution(params, inst1,
                                std::vector<Value>(4, Value{"v"}), adv);
  for (ProcessId p = 1; p < 4; ++p) {
    EXPECT_EQ(*res.decisions[p], bottom());
  }
}

}  // namespace
}  // namespace ba::protocols
