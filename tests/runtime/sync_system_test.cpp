#include "runtime/sync_system.h"

#include <gtest/gtest.h>

#include <string>

#include "adversary/omission.h"
#include "protocols/common.h"

namespace ba {
namespace {

/// Everyone multicasts its proposal in round 1 and decides the multiset of
/// bits it saw (encoded as count of ones) in round 2.
class EchoCount final : public protocols::DecidingProcess {
 public:
  explicit EchoCount(const ProcessContext& ctx) : ctx_(ctx) {}

  Outbox outbox_for_round(Round r) override {
    Outbox out;
    if (r == 1) {
      for (ProcessId p = 0; p < ctx_.params.n; ++p) {
        if (p != ctx_.self) out.push_back(Outgoing{p, ctx_.proposal});
      }
    }
    return out;
  }

  void deliver(Round r, const Inbox& inbox) override {
    if (r != 1) return;
    std::int64_t ones = ctx_.proposal.try_bit().value_or(0);
    for (const Message& m : inbox) ones += m.payload.try_bit().value_or(0);
    decide(Value{ones});
  }

 private:
  ProcessContext ctx_;
};

ProtocolFactory echo_count() {
  return [](const ProcessContext& ctx) {
    return std::make_unique<EchoCount>(ctx);
  };
}

TEST(SyncSystem, FaultFreeDelivery) {
  SystemParams params{5, 1};
  std::vector<Value> proposals{Value::bit(1), Value::bit(0), Value::bit(1),
                               Value::bit(1), Value::bit(0)};
  RunResult res = run_execution(params, echo_count(), proposals,
                                Adversary::none());
  ASSERT_TRUE(res.quiesced);
  for (ProcessId p = 0; p < 5; ++p) {
    ASSERT_TRUE(res.decisions[p].has_value());
    EXPECT_EQ(res.decisions[p]->as_int(), 3);  // everyone sees all 3 ones
  }
  EXPECT_EQ(res.messages_sent_by_correct, 5u * 4u);
  EXPECT_EQ(res.messages_sent_total, 5u * 4u);
}

TEST(SyncSystem, MessageComplexityCountsOnlyCorrectSenders) {
  SystemParams params{4, 1};
  Adversary adv = mute_group(ProcessSet{{3}}, 1);
  RunResult res = run_execution(params, echo_count(),
                                std::vector<Value>(4, Value::bit(1)), adv);
  // p3 send-omits everything; 3 correct processes send 3 each.
  EXPECT_EQ(res.messages_sent_by_correct, 9u);
  EXPECT_EQ(res.messages_sent_total, 9u);
  // p3 still receives everything.
  EXPECT_EQ(res.decisions[3]->as_int(), 4);
  // Correct processes miss p3's bit.
  EXPECT_EQ(res.decisions[0]->as_int(), 3);
}

TEST(SyncSystem, ReceiveOmissionIsInvisibleToSender) {
  SystemParams params{4, 1};
  Adversary adv = isolate_group(ProcessSet{{2}}, 1);
  RunResult res = run_execution(params, echo_count(),
                                std::vector<Value>(4, Value::bit(1)), adv);
  // All messages are sent (sender-side) but p2 receives none.
  EXPECT_EQ(res.messages_sent_total, 12u);
  EXPECT_EQ(res.decisions[2]->as_int(), 1);  // only its own bit
  EXPECT_EQ(res.decisions[0]->as_int(), 4);
  // Trace records the omissions at the receiver.
  const auto& re = res.trace.procs[2].rounds[0];
  EXPECT_EQ(re.receive_omitted.size(), 3u);
  EXPECT_TRUE(re.received.empty());
}

TEST(SyncSystem, TraceValidates) {
  SystemParams params{4, 2};
  Adversary adv = isolate_group(ProcessSet{{2, 3}}, 1);
  RunResult res = run_execution(params, echo_count(),
                                std::vector<Value>(4, Value::bit(0)), adv);
  EXPECT_EQ(res.trace.validate(), std::nullopt);
}

TEST(SyncSystem, RejectsBadArguments) {
  SystemParams params{3, 1};
  EXPECT_THROW(run_execution(params, echo_count(), {Value{}, Value{}},
                             Adversary::none()),
               std::invalid_argument);
  Adversary too_many;
  too_many.faulty = ProcessSet{{0, 1}};
  EXPECT_THROW(run_execution(params, echo_count(),
                             std::vector<Value>(3, Value{}), too_many),
               std::invalid_argument);
  SystemParams bad{3, 3};
  EXPECT_THROW(run_execution(bad, echo_count(),
                             std::vector<Value>(3, Value{}),
                             Adversary::none()),
               std::invalid_argument);
}

TEST(SyncSystem, SelfMessagesAndDuplicatesDropped) {
  class Misbehaved final : public protocols::DecidingProcess {
   public:
    explicit Misbehaved(const ProcessContext& ctx) : ctx_(ctx) {}
    Outbox outbox_for_round(Round r) override {
      Outbox out;
      if (r == 1) {
        out.push_back(Outgoing{ctx_.self, Value{1}});       // self: dropped
        out.push_back(Outgoing{1, Value{1}});                // kept
        out.push_back(Outgoing{1, Value{2}});                // dup: dropped
        out.push_back(Outgoing{ctx_.params.n + 7, Value{1}});  // oob: dropped
      }
      return out;
    }
    void deliver(Round r, const Inbox& inbox) override {
      if (r == 1 && ctx_.self == 1) {
        decide(Value{static_cast<std::int64_t>(inbox.size())});
      } else if (r == 1) {
        decide(Value{0});
      }
    }

   private:
    ProcessContext ctx_;
  };
  SystemParams params{3, 1};
  RunResult res = run_execution(
      params,
      [](const ProcessContext& ctx) {
        return std::make_unique<Misbehaved>(ctx);
      },
      std::vector<Value>(3, Value{}), Adversary::none());
  // p1 receives exactly one message from p0 and one from p2 (the first per
  // sender), nothing else.
  EXPECT_EQ(res.decisions[1]->as_int(), 2);
  EXPECT_EQ(res.trace.validate(), std::nullopt);
}

TEST(SyncSystem, RoutingKeepsEachSendersPayloadObject) {
  // Routing moves a payload from outbox to inbox (or to the omission list
  // that records its loss) and the trace's `sent` shares it: every recorded
  // copy is the object the sender put in its outbox, never a deep copy.
  SystemParams params{4, 1};
  std::vector<Value> proposals;
  for (int p = 0; p < 4; ++p) proposals.emplace_back("v" + std::to_string(p));
  Adversary adv;
  adv.faulty = ProcessSet{{1}};
  adv.send_omit = [](const MsgKey& k) {
    return k.sender == 1 && k.receiver == 2;
  };
  adv.receive_omit = [](const MsgKey& k) {
    return k.sender == 0 && k.receiver == 1;
  };
  RunResult res = run_execution(params, echo_count(), proposals, adv);
  std::size_t checked = 0;
  for (const ProcessTrace& pt : res.trace.procs) {
    const RoundEvents& re = pt.rounds.at(0);
    for (const auto* list : {&re.sent, &re.send_omitted, &re.received,
                             &re.receive_omitted}) {
      for (const Message& m : *list) {
        EXPECT_TRUE(m.payload.shares_rep_with(proposals[m.sender]))
            << m.sender << "->" << m.receiver;
        ++checked;
      }
    }
  }
  // 11 sent + 1 send-omitted + 10 received + 1 receive-omitted.
  EXPECT_EQ(checked, 23u);
  EXPECT_EQ(res.trace.validate(), std::nullopt);
}

TEST(SyncSystem, ReplayMatchesLiveRun) {
  SystemParams params{5, 2};
  Adversary adv = isolate_group(ProcessSet{{4}}, 1);
  RunResult res = run_execution(params, echo_count(),
                                std::vector<Value>(5, Value::bit(1)), adv);
  for (ProcessId p = 0; p < params.n; ++p) {
    ReplayResult replay =
        replay_process(params, echo_count(), p, res.trace.procs[p]);
    EXPECT_EQ(replay.decision, res.decisions[p]) << "p" << p;
  }
}

TEST(SyncSystem, ReplayDeliversAShuffledInboxInSenderOrder) {
  // Everyone multicasts in round 1 and decides the senders in the order its
  // inbox listed them, so a replay decides what it was delivered.
  class SenderOrder final : public protocols::DecidingProcess {
   public:
    explicit SenderOrder(const ProcessContext& ctx) : ctx_(ctx) {}
    Outbox outbox_for_round(Round r) override {
      if (r != 1) return {};
      return protocols::multicast(ctx_.params.n, ctx_.self, Value{1});
    }
    void deliver(Round, const Inbox& inbox) override {
      ValueVec senders;
      for (const Message& m : inbox) {
        senders.emplace_back(static_cast<std::int64_t>(m.sender));
      }
      decide(Value{std::move(senders)});
    }

   private:
    ProcessContext ctx_;
  };
  const ProtocolFactory factory = [](const ProcessContext& ctx) {
    return std::make_unique<SenderOrder>(ctx);
  };
  const SystemParams params{6, 1};
  RunResult res = run_execution(params, factory,
                                std::vector<Value>(6, Value{}),
                                Adversary::none());
  const Value ascending = Value::vec(
      {Value{std::int64_t{0}}, Value{std::int64_t{1}}, Value{std::int64_t{2}},
       Value{std::int64_t{4}}, Value{std::int64_t{5}}});
  ProcessTrace shuffled = res.trace.procs[3];
  ASSERT_EQ(shuffled.decision, ascending);
  Inbox& inbox = shuffled.rounds.at(0).received;
  std::swap(inbox[0], inbox[3]);
  std::swap(inbox[1], inbox[4]);
  for (const ProcessTrace* history : {&res.trace.procs[3], &shuffled}) {
    const ReplayResult replay = replay_process(params, factory, 3, *history);
    EXPECT_EQ(replay.decision, ascending);
    EXPECT_EQ(replay.decision_round, 1u);
  }
  // The recorded history itself is left as it was.
  EXPECT_EQ(inbox[0].sender, 4u);
}

TEST(SyncSystem, MaxRoundsCapsNonQuiescentProtocols) {
  class Chatter final : public protocols::DecidingProcess {
   public:
    explicit Chatter(const ProcessContext& ctx) : ctx_(ctx) {}
    Outbox outbox_for_round(Round) override {
      return {Outgoing{(ctx_.self + 1) % ctx_.params.n, Value{1}}};
    }
    void deliver(Round, const Inbox&) override {}

   private:
    ProcessContext ctx_;
  };
  SystemParams params{3, 1};
  RunOptions opts;
  opts.max_rounds = 7;
  RunResult res = run_execution(
      params,
      [](const ProcessContext& ctx) { return std::make_unique<Chatter>(ctx); },
      std::vector<Value>(3, Value{}), Adversary::none(), opts);
  EXPECT_FALSE(res.quiesced);
  EXPECT_EQ(res.rounds_executed, 7u);
  EXPECT_EQ(res.messages_sent_total, 21u);
}

}  // namespace
}  // namespace ba
