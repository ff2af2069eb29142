// Satellite: the adversary library's omission predicates exercised through
// the simulator's drop path. The property under test: a simulated execution
// never delivers a message its adversary's predicates block (for eligible
// endpoints), and every emitted trace satisfies the analysis linter's
// conservation and budget invariants.

#include <gtest/gtest.h>

#include <vector>

#include "core/ba.h"

namespace ba::sim {
namespace {

/// The simulator behind the backend seam on its default zero-jitter `sync`
/// link model: the lockstep-parity substrate.
const engine::SimBackend kSim;

struct Fixture {
  SystemParams params{7, 2};
  ProtocolFactory factory = protocols::phase_king_consensus();
  std::vector<Value> proposals;

  Fixture() {
    for (std::uint32_t p = 0; p < params.n; ++p) {
      proposals.push_back(Value::bit(static_cast<int>(p % 2)));
    }
  }
};

// Delivery respects the predicates: a received message whose sender is
// faulty (non-Byzantine) must not be send-omittable, and one whose receiver
// is faulty must not be receive-omittable.
void expect_no_blocked_delivery(const ExecutionTrace& trace,
                                const Adversary& adv) {
  for (const ProcessTrace& pt : trace.procs) {
    for (const RoundEvents& re : pt.rounds) {
      for (const Message& m : re.received) {
        const MsgKey k = m.key();
        if (adv.faulty.contains(m.sender) && !adv.is_byzantine(m.sender) &&
            adv.send_omit) {
          EXPECT_FALSE(adv.send_omit(k))
              << "delivered a send-omitted message " << m.sender << "->"
              << m.receiver << " r" << m.round;
        }
        if (adv.faulty.contains(m.receiver) && adv.receive_omit) {
          EXPECT_FALSE(adv.receive_omit(k))
              << "delivered a receive-omitted message " << m.sender << "->"
              << m.receiver << " r" << m.round;
        }
      }
    }
  }
}

TEST(SimFaults, RandomOmissionsNeverDeliverBlockedMessages) {
  Fixture fx;
  const ProcessSet faulty = ProcessSet::range(5, 7);
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 0xdecafull, 0xc0ffeeull}) {
    for (std::uint32_t permille : {125u, 500u, 875u}) {
      const Adversary adv = random_omissions(faulty, seed, permille);
      RunOptions opts;
      opts.lint_trace = true;
      const RunResult res =
          kSim.run(fx.params, fx.factory, fx.proposals, adv, opts);
      expect_no_blocked_delivery(res.trace, adv);
      ASSERT_TRUE(res.lint.has_value());
      EXPECT_TRUE(res.lint->clean())
          << "seed=" << seed << " permille=" << permille << ": "
          << res.lint->summary();
    }
  }
}

TEST(SimFaults, IsolationNeverDeliversBlockedMessages) {
  Fixture fx;
  for (Round from : {1u, 2u, 3u}) {
    const Adversary adv = isolate_group(ProcessSet::range(5, 7), from);
    RunOptions opts;
    opts.lint_trace = true;
    const RunResult res =
        kSim.run(fx.params, fx.factory, fx.proposals, adv, opts);
    expect_no_blocked_delivery(res.trace, adv);
    // Isolation cuts inbound cross traffic: nothing from outside the group
    // may reach it from `from` on.
    const ProcessSet group = ProcessSet::range(5, 7);
    for (ProcessId p : group) {
      const ProcessTrace& pt = res.trace.procs[p];
      for (std::size_t r = 0; r < pt.rounds.size(); ++r) {
        if (static_cast<Round>(r + 1) < from) continue;
        for (const Message& m : pt.rounds[r].received) {
          EXPECT_TRUE(group.contains(m.sender));
        }
      }
    }
    ASSERT_TRUE(res.lint.has_value());
    EXPECT_TRUE(res.lint->clean()) << res.lint->summary();
  }
}

// The same property through the full simulator surface (jitter model +
// metrics), not just the sync model: predicates decide drops before
// latency sampling, so the link model cannot resurrect a blocked message.
TEST(SimFaults, PredicatesHoldUnderJitterModel) {
  Fixture fx;
  const Adversary adv =
      random_omissions(ProcessSet::range(5, 7), /*seed=*/99, /*permille=*/400);
  SimConfig config;
  config.link = LinkModel::jitter(1, 200, /*seed=*/17);
  config.round_ticks = 256;
  config.lint_trace = true;
  const SimResult res =
      simulate(fx.params, fx.factory, fx.proposals, adv, config);
  expect_no_blocked_delivery(res.run.trace, adv);
  ASSERT_TRUE(res.run.lint.has_value());
  EXPECT_TRUE(res.run.lint->clean()) << res.run.lint->summary();
  // Metrics-side conservation: every accepted send either arrived, was
  // receive-omitted, or missed its round boundary. total_dropped() also
  // counts send-side omissions (which never reach sent_by), so the
  // receive-side share it must cover is sent - delivered - late.
  std::uint64_t sent = 0;
  for (std::uint64_t s : res.metrics.sent_by) sent += s;
  ASSERT_GE(sent, res.metrics.deliveries + res.metrics.total_late());
  const std::uint64_t receive_drops =
      sent - res.metrics.deliveries - res.metrics.total_late();
  EXPECT_LE(receive_drops, res.metrics.total_dropped());
}

}  // namespace
}  // namespace ba::sim
