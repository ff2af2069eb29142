// Behavior of the discrete-event simulator beyond lockstep parity: event
// determinism, jitter and partial-synchrony link models, omission windows
// injected through the Adversary, metrics accounting, and configuration
// validation.

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/ba.h"

namespace ba::sim {
namespace {

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

TEST(Simulator, RepeatedRunsAreIdentical) {
  Fixture fx;
  SimConfig config;
  config.link = LinkModel::jitter(1, 200, /*seed=*/0xfeedface);
  config.round_ticks = 256;
  const SimResult a =
      simulate(fx.params, fx.factory, fx.proposals, Adversary::none(), config);
  const SimResult b =
      simulate(fx.params, fx.factory, fx.proposals, Adversary::none(), config);
  EXPECT_EQ(encode_trace(a.run.trace), encode_trace(b.run.trace));
  EXPECT_EQ(a.run.decisions, b.run.decisions);
  EXPECT_EQ(a.metrics, b.metrics);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.end_time, b.end_time);
}

// Jitter is bounded by the round length, so it can only permute arrival
// order *within* a round: the round-level trace must be identical to the
// zero-jitter run, while the metrics see the permutation.
TEST(Simulator, BoundedJitterNeverChangesTheTrace) {
  Fixture fx;
  SimConfig sync;
  sync.link = LinkModel::synchronous();
  sync.round_ticks = 256;
  SimConfig jit = sync;
  jit.link = LinkModel::jitter(1, 256, /*seed=*/7);

  const SimResult a =
      simulate(fx.params, fx.factory, fx.proposals, Adversary::none(), sync);
  const SimResult b =
      simulate(fx.params, fx.factory, fx.proposals, Adversary::none(), jit);
  EXPECT_EQ(encode_trace(a.run.trace), encode_trace(b.run.trace));
  EXPECT_EQ(a.run.decisions, b.run.decisions);
  EXPECT_EQ(a.metrics.deliveries, b.metrics.deliveries);
  // The synchronous model delivers everything at the round boundary in
  // canonical order; sampled jitter is expected to break that order for at
  // least one pair in a 7-process all-to-all protocol.
  EXPECT_EQ(a.metrics.reordered, 0u);
  EXPECT_GT(b.metrics.reordered, 0u);
  EXPECT_LE(b.metrics.latency.max, jit.round_ticks);
  EXPECT_GE(b.metrics.latency.min, 1u);
}

TEST(Simulator, PartialSynchronyLosesPreGstCrossTrafficAndLintsClean) {
  Fixture fx;
  const ProcessSet lag = ProcessSet::range(5, 7);
  SimConfig config;
  config.link = LinkModel::partial_synchrony(lag, /*gst=*/3, /*seed=*/42);
  config.round_ticks = 256;
  config.lint_trace = true;

  const SimResult res =
      simulate(fx.params, fx.factory, fx.proposals, Adversary::none(), config);
  // The lag group is folded into the trace's faulty set automatically.
  for (ProcessId p : lag) EXPECT_TRUE(res.run.trace.faulty.contains(p));
  // Pre-GST inbound latencies are sampled in (round, 2*round] about half
  // the time; with 5 outside senders × 2 lagging receivers × 2 pre-GST
  // rounds, some message must have missed its boundary.
  EXPECT_GT(res.metrics.total_late(), 0u);
  ASSERT_TRUE(res.run.lint.has_value());
  EXPECT_TRUE(res.run.lint->clean()) << res.run.lint->summary();
}

TEST(Simulator, PartialSynchronyLateMessagesAreReceiveOmissions) {
  Fixture fx;
  const ProcessSet lag = ProcessSet::range(5, 7);
  SimConfig config;
  config.link = LinkModel::partial_synchrony(lag, /*gst=*/3, /*seed=*/42);
  config.round_ticks = 256;

  const SimResult res =
      simulate(fx.params, fx.factory, fx.proposals, Adversary::none(), config);
  std::uint64_t omitted = 0;
  for (ProcessId p = 0; p < fx.params.n; ++p) {
    const ProcessTrace& pt = res.run.trace.procs[p];
    for (std::size_t r = 0; r < pt.rounds.size(); ++r) {
      for (const Message& m : pt.rounds[r].receive_omitted) {
        ++omitted;
        // Every model-induced loss is inbound cross-group before GST.
        EXPECT_TRUE(lag.contains(m.receiver));
        EXPECT_FALSE(lag.contains(m.sender));
        EXPECT_LT(m.round, 3u);
      }
      // From GST on, nothing is lost.
      if (r + 1 >= 3) {
        EXPECT_TRUE(pt.rounds[r].receive_omitted.empty());
      }
    }
  }
  EXPECT_EQ(omitted, res.metrics.total_late());
}

TEST(Simulator, CrashRecoveryResumesSending) {
  const SystemParams params{5, 1};
  const ProtocolFactory factory = protocols::wc_candidate_gossip_ring(2, 5);
  const std::vector<Value> proposals(5, Value::bit(0));
  // Crash-recovery: process 0 send-omits everything in rounds [2, 4).
  Adversary adv;
  adv.faulty = ProcessSet({0});
  adv.send_omit = [](const MsgKey& k) {
    return k.sender == 0 && k.round >= 2 && k.round < 4;
  };

  const SimResult res = simulate(params, factory, proposals, adv);
  const ProcessTrace& pt = res.run.trace.procs[0];
  ASSERT_GE(pt.rounds.size(), 4u);
  EXPECT_FALSE(pt.rounds[0].sent.empty());          // round 1: up
  EXPECT_TRUE(pt.rounds[1].sent.empty());           // rounds 2-3: down
  EXPECT_FALSE(pt.rounds[1].send_omitted.empty());
  EXPECT_TRUE(pt.rounds[2].sent.empty());
  EXPECT_FALSE(pt.rounds[3].sent.empty());          // round 4: recovered
}

TEST(Simulator, DropLinkSuppressesExactlyThatLink) {
  const SystemParams params{5, 1};
  const ProtocolFactory factory = protocols::wc_candidate_gossip_ring(2, 4);
  const std::vector<Value> proposals(5, Value::bit(0));
  // The link 0 -> 1 is down in every round, blamed on the sender.
  Adversary adv;
  adv.faulty = ProcessSet({0});
  adv.send_omit = [](const MsgKey& k) {
    return k.sender == 0 && k.receiver == 1;
  };

  const SimResult res = simulate(params, factory, proposals, adv);
  EXPECT_TRUE(res.run.trace.faulty.contains(0));
  bool saw_omission = false;
  for (const ProcessTrace& pt : res.run.trace.procs) {
    for (const RoundEvents& re : pt.rounds) {
      for (const Message& m : re.received) {
        EXPECT_FALSE(m.sender == 0 && m.receiver == 1);
      }
      for (const Message& m : re.send_omitted) {
        EXPECT_EQ(m.sender, 0u);
        EXPECT_EQ(m.receiver, 1u);
        saw_omission = true;
      }
    }
  }
  EXPECT_TRUE(saw_omission);
  EXPECT_EQ(res.metrics.link(0, 1).delivered, 0u);
  EXPECT_GT(res.metrics.link(0, 1).dropped, 0u);
}

TEST(Simulator, FaultFreeMetricsConserveMessages) {
  Fixture fx;
  SimConfig config;
  config.link = LinkModel::synchronous(/*latency=*/1);
  const SimResult res =
      simulate(fx.params, fx.factory, fx.proposals, Adversary::none(), config);
  std::uint64_t sent = 0;
  for (std::uint64_t s : res.metrics.sent_by) sent += s;
  std::uint64_t delivered = 0;
  for (std::uint64_t d : res.metrics.delivered_to) delivered += d;
  EXPECT_EQ(sent, res.run.messages_sent_total);
  EXPECT_EQ(delivered, res.metrics.deliveries);
  EXPECT_EQ(res.metrics.total_delivered(), res.metrics.deliveries);
  EXPECT_EQ(sent, delivered + res.metrics.total_dropped() +
                      res.metrics.total_late());
  EXPECT_EQ(res.metrics.total_dropped(), 0u);
  EXPECT_EQ(res.metrics.total_late(), 0u);
  EXPECT_EQ(res.metrics.latency.count, res.metrics.deliveries);
  EXPECT_EQ(res.metrics.latency.max, 1u);
  EXPECT_GT(res.metrics.total_payload_bytes(), 0u);
  EXPECT_FALSE(res.metrics.summary().empty());
  // Every delivered message is metered at its encoded size; fault-free,
  // the delivered messages are exactly the received ones in the trace.
  std::uint64_t encoded = 0;
  for (const ProcessTrace& pt : res.run.trace.procs) {
    for (const RoundEvents& re : pt.rounds) {
      for (const Message& m : re.received) {
        encoded += encode_value(m.payload).size();
      }
    }
  }
  EXPECT_EQ(res.metrics.total_payload_bytes(), encoded);
}

TEST(Simulator, ValidatesConfigurationAndBudget) {
  Fixture fx;
  SimConfig config;

  SimConfig zero_ticks = config;
  zero_ticks.round_ticks = 0;
  EXPECT_THROW(simulate(fx.params, fx.factory, fx.proposals, Adversary::none(),
                        zero_ticks),
               std::invalid_argument);

  const std::vector<Value> short_props(fx.params.n - 1, Value::bit(0));
  EXPECT_THROW(
      simulate(fx.params, fx.factory, short_props, Adversary::none(), config),
      std::invalid_argument);

  // A lag group of 3 busts the t = 2 budget.
  SimConfig over_budget = config;
  over_budget.link =
      LinkModel::partial_synchrony(ProcessSet::range(4, 7), 3, 1);
  EXPECT_THROW(simulate(fx.params, fx.factory, fx.proposals, Adversary::none(),
                        over_budget),
               std::invalid_argument);

  // The adversary's faulty set and the lag group must fit the budget
  // jointly: 2 isolated processes plus 1 lagging one bust t = 2.
  SimConfig one_lagging = config;
  one_lagging.link =
      LinkModel::partial_synchrony(ProcessSet::range(4, 5), 3, 1);
  const Adversary adv = isolate_group(ProcessSet::range(5, 7), 1);
  try {
    (void)simulate(fx.params, fx.factory, fx.proposals, adv, one_lagging);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "combined faulty set (adversary + link lag group) exceeds t");
  }
}

TEST(Simulator, EventCountMatchesTheLoopStructure) {
  Fixture fx;
  SimConfig config;
  const SimResult res =
      simulate(fx.params, fx.factory, fx.proposals, Adversary::none(), config);
  // One RoundStart + one RoundEnd per executed round, one Deliver per
  // delivered message.
  EXPECT_EQ(res.events_processed,
            2u * res.run.rounds_executed + res.metrics.deliveries);
  EXPECT_EQ(res.end_time,
            SimTime{res.run.rounds_executed} * config.round_ticks);
}

}  // namespace
}  // namespace ba::sim
