// Tests for the executable Dolev-Reischuk broadcast attack: sub-quadratic
// broadcast candidates fall to the cut construction with replay-verified
// certificates; Dolev-Strong's flooding makes it uncuttable.

#include "lowerbound/dolev_reischuk.h"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "crypto/signature.h"
#include "lowerbound/certificate.h"
#include "protocols/broadcast.h"
#include "protocols/dolev_strong.h"
#include "runtime/sync_system.h"

namespace ba::lowerbound {
namespace {

TEST(DolevReischuk, DirectBroadcastCandidateBroken) {
  SystemParams params{8, 3};
  auto protocol = protocols::bb_candidate_direct(0);
  BroadcastAttackReport report = attack_broadcast(
      params, protocol, 0, Value{"v0"}, Value{"v1"});
  ASSERT_TRUE(report.violation_found) << report.narrative;
  EXPECT_EQ(report.cut_size, 1u);  // the victim hears only the sender
  auto check = verify_certificate(*report.certificate, protocol);
  EXPECT_TRUE(check.ok) << check.error;
  EXPECT_EQ(report.certificate->kind, ViolationKind::kAgreement);
}

TEST(DolevReischuk, DirectCandidateBrokenAcrossSizes) {
  for (std::uint32_t n : {5u, 12u, 24u}) {
    SystemParams params{n, 2};
    auto protocol = protocols::bb_candidate_direct(1);
    BroadcastAttackReport report = attack_broadcast(
        params, protocol, 1, Value::bit(0), Value::bit(1));
    ASSERT_TRUE(report.violation_found) << "n=" << n << "\n"
                                        << report.narrative;
    EXPECT_TRUE(verify_certificate(*report.certificate, protocol).ok);
  }
}

TEST(DolevReischuk, RelayRingCandidateBroken) {
  SystemParams params{10, 4};
  auto protocol = protocols::bb_candidate_relay_ring(0, 2);
  BroadcastAttackReport report = attack_broadcast(
      params, protocol, 0, Value{"a"}, Value{"b"});
  ASSERT_TRUE(report.violation_found) << report.narrative;
  // The victim hears from the sender + 2 ring predecessors.
  EXPECT_LE(report.cut_size, 3u);
  EXPECT_TRUE(verify_certificate(*report.certificate, protocol).ok);
}

TEST(DolevReischuk, DolevStrongIsUncuttable) {
  // With t < n - 1, every Dolev-Strong receiver hears from all n - 1 other
  // processes in the fault-free run (round-2 relays), so no cut fits the
  // fault budget.
  SystemParams params{8, 3};
  auto auth = std::make_shared<crypto::Authenticator>(88, 8);
  auto ds = protocols::dolev_strong_broadcast(auth, 0);
  BroadcastAttackReport report = attack_broadcast(
      params, ds, 0, Value{"v0"}, Value{"v1"});
  EXPECT_FALSE(report.violation_found) << report.narrative;
  EXPECT_EQ(report.min_in_neighbourhood, 7u);
  EXPECT_GT(report.fault_free_messages,
            static_cast<std::uint64_t>(params.t) * params.t / 4);
}

TEST(DolevReischuk, CertificateFaultBudgetRespected) {
  SystemParams params{12, 5};
  auto protocol = protocols::bb_candidate_relay_ring(0, 3);
  BroadcastAttackReport report = attack_broadcast(
      params, protocol, 0, Value::bit(0), Value::bit(1));
  if (report.violation_found) {
    EXPECT_LE(report.certificate->execution.faulty.size(), params.t);
    EXPECT_EQ(report.certificate->execution.validate(), std::nullopt);
  }
}

TEST(DolevReischuk, NarrativeExplainsFailureOnRobustProtocols) {
  SystemParams params{6, 2};
  auto auth = std::make_shared<crypto::Authenticator>(89, 6);
  auto ds = protocols::dolev_strong_broadcast(auth, 2);
  BroadcastAttackReport report = attack_broadcast(
      params, ds, 2, Value{"x"}, Value{"y"});
  EXPECT_FALSE(report.violation_found);
  EXPECT_NE(report.narrative.find("not cuttable"), std::string::npos)
      << report.narrative;
}

TEST(DolevReischuk, RejectsInvalidParams) {
  // n = 0 used to index proposals[sender] out of bounds before any check.
  auto protocol = protocols::bb_candidate_direct(0);
  for (const SystemParams& params : {SystemParams{0, 0}, SystemParams{4, 4}}) {
    EXPECT_THROW(attack_broadcast(params, protocol, 0, Value::bit(0),
                                  Value::bit(1)),
                 std::invalid_argument)
        << params.n << " " << params.t;
  }
}

TEST(DolevReischuk, RejectsSenderOutOfRange) {
  auto protocol = protocols::bb_candidate_direct(0);
  EXPECT_THROW(attack_broadcast(SystemParams{4, 1}, protocol, 4,
                                Value::bit(0), Value::bit(1)),
               std::invalid_argument);
}

TEST(BroadcastCandidates, BehaveCorrectlyWithoutFaults) {
  // The candidates are honest-case-correct — that is what makes them
  // interesting targets rather than strawmen.
  SystemParams params{6, 2};
  for (auto factory : {protocols::bb_candidate_direct(0),
                       protocols::bb_candidate_relay_ring(0, 2)}) {
    std::vector<Value> proposals(6, Value{"noise"});
    proposals[0] = Value{"payload"};
    RunResult res = run_execution(params, factory, proposals,
                                  Adversary::none());
    for (ProcessId p = 0; p < 6; ++p) {
      ASSERT_TRUE(res.decisions[p].has_value());
      EXPECT_EQ(*res.decisions[p], Value{"payload"});
    }
  }
}

}  // namespace
}  // namespace ba::lowerbound
