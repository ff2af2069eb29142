#include "protocols/weak_consensus.h"

#include <algorithm>

#include "protocols/adapters.h"
#include "protocols/common.h"
#include "protocols/dolev_strong.h"
#include "protocols/phase_king.h"

namespace ba::protocols {
namespace {

class SilentCandidate final : public DecidingProcess {
 public:
  explicit SilentCandidate(int default_bit) : bit_(default_bit) {}
  Outbox outbox_for_round(Round) override { return {}; }
  void deliver(Round r, const Inbox&) override {
    if (r == 1) decide(Value::bit(bit_));
  }

 private:
  int bit_;
};

class LeaderBeaconCandidate final : public DecidingProcess {
 public:
  LeaderBeaconCandidate(const ProcessContext& ctx, ProcessId leader)
      : params_(ctx.params),
        self_(ctx.self),
        leader_(leader),
        bit_(ctx.proposal.try_bit().value_or(0)) {}

  Outbox outbox_for_round(Round r) override {
    if (r != 1 || self_ != leader_) return {};
    return multicast(params_.n, self_, tagged("beacon", {Value::bit(bit_)}));
  }

  void deliver(Round r, const Inbox& inbox) override {
    if (r != 1) return;
    if (self_ == leader_) {
      decide(Value::bit(bit_));
      return;
    }
    for (const Message& m : inbox) {
      if (m.sender == leader_ && has_tag(m.payload, "beacon")) {
        if (const Value* v = field(m.payload, 0)) {
          decide(Value::bit(v->try_bit().value_or(1)));
          return;
        }
      }
    }
    decide(Value::bit(1));  // heard nothing: default
  }

 private:
  SystemParams params_;
  ProcessId self_;
  ProcessId leader_;
  int bit_;
};

class GossipRingCandidate final : public DecidingProcess {
 public:
  GossipRingCandidate(const ProcessContext& ctx, std::uint32_t k,
                      Round rounds)
      : params_(ctx.params),
        self_(ctx.self),
        k_(std::min<std::uint32_t>(k, ctx.params.n - 1)),
        rounds_(rounds),
        all_zero_(ctx.proposal.try_bit().value_or(1) == 0) {}

  Outbox outbox_for_round(Round r) override {
    Outbox out;
    if (r > rounds_) return out;
    for (std::uint32_t i = 1; i <= k_; ++i) {
      const ProcessId to = (self_ + i) % params_.n;
      out.push_back(
          Outgoing{to, tagged("gossip", {Value::bit(all_zero_ ? 0 : 1)})});
    }
    return out;
  }

  void deliver(Round r, const Inbox& inbox) override {
    if (r > rounds_) return;
    std::uint32_t heard = 0;
    for (const Message& m : inbox) {
      if (!has_tag(m.payload, "gossip")) continue;
      ++heard;
      if (const Value* v = field(m.payload, 0)) {
        if (v->try_bit().value_or(1) == 1) all_zero_ = false;
      }
    }
    if (heard < k_) all_zero_ = false;  // a silent predecessor is suspicious
    if (r == rounds_) decide(Value::bit(all_zero_ ? 0 : 1));
  }

 private:
  SystemParams params_;
  ProcessId self_;
  std::uint32_t k_;
  Round rounds_;
  bool all_zero_;
};

class OneShotEchoCandidate final : public DecidingProcess {
 public:
  explicit OneShotEchoCandidate(const ProcessContext& ctx)
      : params_(ctx.params),
        self_(ctx.self),
        bit_(ctx.proposal.try_bit().value_or(1)) {}

  Outbox outbox_for_round(Round r) override {
    if (r != 1) return {};
    return multicast(params_.n, self_, tagged("echo", {Value::bit(bit_)}));
  }

  void deliver(Round r, const Inbox& inbox) override {
    if (r != 1) return;
    bool all_zero = bit_ == 0 && inbox.size() == params_.n - 1;
    for (const Message& m : inbox) {
      if (!has_tag(m.payload, "echo")) {
        all_zero = false;
        continue;
      }
      const Value* v = field(m.payload, 0);
      if (!v || v->try_bit().value_or(1) == 1) all_zero = false;
    }
    decide(Value::bit(all_zero ? 0 : 1));
  }

 private:
  SystemParams params_;
  ProcessId self_;
  int bit_;
};

}  // namespace

ProtocolFactory weak_consensus_auth(
    std::shared_ptr<const crypto::Authenticator> auth) {
  // One Dolev-Strong broadcast with p_0 as sender; decide the delivered bit,
  // defaulting to 1 on bottom()/non-bit. Weak Validity: with everyone
  // correct and unanimous, p_0 broadcasts the common bit and it is decided.
  return map_protocol(
      dolev_strong_broadcast(std::move(auth), /*sender=*/0),
      /*proposal_map=*/nullptr, [](const Value& delivered) {
        return Value::bit(delivered.try_bit().value_or(1));
      });
}

ProtocolFactory weak_consensus_unauth() { return phase_king_consensus(); }

ProtocolFactory wc_candidate_silent(int default_bit) {
  return [default_bit](const ProcessContext&) {
    return std::make_unique<SilentCandidate>(default_bit);
  };
}

ProtocolFactory wc_candidate_leader_beacon(ProcessId leader) {
  return [leader](const ProcessContext& ctx) {
    return std::make_unique<LeaderBeaconCandidate>(ctx, leader);
  };
}

ProtocolFactory wc_candidate_gossip_ring(std::uint32_t k, Round rounds) {
  return [k, rounds](const ProcessContext& ctx) {
    return std::make_unique<GossipRingCandidate>(ctx, k, rounds);
  };
}

ProtocolFactory wc_candidate_one_shot_echo() {
  return [](const ProcessContext& ctx) {
    return std::make_unique<OneShotEchoCandidate>(ctx);
  };
}

statics::CommSpec weak_consensus_auth_comm_spec() {
  statics::CommSpec spec = dolev_strong_comm_spec();
  spec.protocol = "dolev-strong-weak";
  spec.problem = "weak-consensus";
  spec.notes =
      "one Dolev-Strong broadcast with p0 as sender; the decision wrapper "
      "adds no messages, so the broadcast spec carries over unchanged";
  return spec;
}

statics::CommSpec weak_consensus_unauth_comm_spec() {
  statics::CommSpec spec = phase_king_comm_spec();
  spec.protocol = "phase-king";
  spec.problem = "weak-consensus";
  spec.notes =
      "phase-king strong consensus reused verbatim: Strong Validity implies "
      "Weak Validity, and the communication structure is identical";
  return spec;
}

statics::CommSpec wc_candidate_silent_comm_spec() {
  statics::CommSpec spec;
  spec.protocol = "silent";
  spec.problem = "weak-consensus";
  spec.claims_correct = false;
  spec.resilience = "none (violates Weak Validity outright)";
  spec.notes =
      "sends nothing and decides immediately; the 0-message sanity target "
      "for the Theorem 2 engine";
  return spec;
}

statics::CommSpec wc_candidate_leader_beacon_comm_spec() {
  using statics::PayloadClass;
  using statics::Poly;
  const Poly n = Poly::n();
  statics::CommSpec spec;
  spec.protocol = "leader-beacon";
  spec.problem = "weak-consensus";
  spec.claims_correct = false;
  spec.resilience = "fault-free runs only (broken by isolating the leader)";
  spec.rounds = Poly(1);
  spec.blocks = {
      {.label = "round 1",
       .rounds = Poly(1),
       .patterns = {{.label = "the leader multicasts its bit",
                     .senders = Poly(1),
                     .receivers_per_sender = n - 1,
                     .payload = PayloadClass::kBit}}}};
  spec.notes = "n - 1 messages: linear, so Theorem 2 must (and does) break it";
  return spec;
}

statics::CommSpec wc_candidate_gossip_ring_comm_spec(std::uint32_t k,
                                                     Round rounds) {
  using statics::PayloadClass;
  using statics::Poly;
  const Poly n = Poly::n();
  const Poly fanout(static_cast<std::int64_t>(k));
  const Poly gossip_rounds(static_cast<std::int64_t>(rounds));
  statics::CommSpec spec;
  spec.protocol = "gossip-ring";
  spec.problem = "weak-consensus";
  spec.claims_correct = false;
  spec.resilience = "fault-free runs only (broken by cutting the ring)";
  spec.rounds = gossip_rounds;
  spec.blocks = {
      {.label = "gossip rounds",
       .rounds = gossip_rounds,
       .patterns = {{.label =
                         "every process forwards to its k ring successors",
                     .senders = n,
                     .receivers_per_sender = fanout,
                     .payload = PayloadClass::kBit}}}};
  spec.notes =
      "n * k * rounds messages: sub-quadratic for constant k and rounds, so "
      "Theorem 2 must (and does) break it";
  return spec;
}

statics::CommSpec wc_candidate_one_shot_echo_comm_spec() {
  using statics::PayloadClass;
  using statics::Poly;
  const Poly n = Poly::n();
  statics::CommSpec spec;
  spec.protocol = "one-shot-echo";
  spec.problem = "weak-consensus";
  spec.claims_correct = false;
  spec.resilience = "fault-free runs only (broken by one send omission)";
  spec.rounds = Poly(1);
  spec.blocks = {
      {.label = "round 1",
       .rounds = Poly(1),
       .patterns = {{.label = "every process multicasts its bit",
                     .senders = n,
                     .receivers_per_sender = n - 1,
                     .payload = PayloadClass::kBit}}}};
  spec.notes =
      "n(n-1) messages in a single round: the quadratic-but-broken witness "
      "that message cost alone does not buy correctness";
  return spec;
}

}  // namespace ba::protocols
