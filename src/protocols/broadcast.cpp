#include "protocols/broadcast.h"

#include <memory>

#include "protocols/common.h"
#include "protocols/phase_king.h"

namespace ba::protocols {
namespace {

class UnauthBroadcastProcess final : public DecidingProcess {
 public:
  UnauthBroadcastProcess(const ProcessContext& ctx, ProcessId sender)
      : ctx_(ctx), sender_(sender) {}

  Outbox outbox_for_round(Round r) override {
    if (r == 1) {
      if (ctx_.self != sender_) return {};
      return multicast(
          ctx_.params.n, sender_,
          tagged("bb-init", {Value::bit(ctx_.proposal.try_bit().value_or(0))}));
    }
    if (!consensus_) return {};
    return consensus_->outbox_for_round(r - 1);
  }

  void deliver(Round r, const Inbox& inbox) override {
    if (r == 1) {
      int bit = 0;
      if (ctx_.self == sender_) {
        bit = ctx_.proposal.try_bit().value_or(0);
      } else {
        for (const Message& m : inbox) {
          if (m.sender != sender_) continue;
          if (!has_tag(m.payload, "bb-init")) continue;
          if (const Value* v = field(m.payload, 0)) {
            bit = v->try_bit().value_or(0);
          }
        }
      }
      ProcessContext inner_ctx = ctx_;
      inner_ctx.proposal = Value::bit(bit);
      consensus_ = phase_king_consensus()(inner_ctx);
      return;
    }
    consensus_->deliver(r - 1, inbox);
    if (!decision()) {
      if (auto d = consensus_->decision()) decide(*d);
    }
  }

  [[nodiscard]] bool quiescent() const override {
    return consensus_ && consensus_->quiescent();
  }

 private:
  ProcessContext ctx_;
  ProcessId sender_;
  std::unique_ptr<Process> consensus_;
};

class DirectBroadcastCandidate final : public DecidingProcess {
 public:
  DirectBroadcastCandidate(const ProcessContext& ctx, ProcessId sender)
      : ctx_(ctx), sender_(sender) {}

  Outbox outbox_for_round(Round r) override {
    if (r != 1 || ctx_.self != sender_) return {};
    return multicast(ctx_.params.n, sender_, tagged("bbd", {ctx_.proposal}));
  }

  void deliver(Round r, const Inbox& inbox) override {
    if (r != 1) return;
    if (ctx_.self == sender_) {
      decide(ctx_.proposal);
      return;
    }
    for (const Message& m : inbox) {
      if (m.sender == sender_ && has_tag(m.payload, "bbd")) {
        if (const Value* v = field(m.payload, 0)) {
          decide(*v);
          return;
        }
      }
    }
    decide(bottom());
  }

 private:
  ProcessContext ctx_;
  ProcessId sender_;
};

class RelayRingCandidate final : public DecidingProcess {
 public:
  RelayRingCandidate(const ProcessContext& ctx, ProcessId sender,
                     std::uint32_t k)
      : ctx_(ctx), sender_(sender), k_(std::min(k, ctx.params.n - 1)) {}

  Outbox outbox_for_round(Round r) override {
    if (r == 1 && ctx_.self == sender_) {
      return multicast(ctx_.params.n, sender_, tagged("bbr", {ctx_.proposal}));
    }
    Outbox out;
    if (r == 2 && seen_) {
      const Value payload = tagged("bbr", {*seen_});
      for (std::uint32_t i = 1; i <= k_; ++i) {
        const ProcessId to = (ctx_.self + i) % ctx_.params.n;
        if (to != ctx_.self) {
          out.push_back(Outgoing{to, payload});
        }
      }
    }
    return out;
  }

  void deliver(Round r, const Inbox& inbox) override {
    if (r > 2) return;
    if (r == 1 && ctx_.self == sender_) seen_ = ctx_.proposal;
    for (const Message& m : inbox) {
      if (!has_tag(m.payload, "bbr")) continue;
      if (const Value* v = field(m.payload, 0)) {
        if (!seen_) seen_ = *v;
      }
    }
    if (r == 2) decide(seen_ ? *seen_ : bottom());
  }

 private:
  ProcessContext ctx_;
  ProcessId sender_;
  std::uint32_t k_;
  std::optional<Value> seen_;
};

}  // namespace

ProtocolFactory bb_candidate_direct(ProcessId sender) {
  return [sender](const ProcessContext& ctx) {
    return std::make_unique<DirectBroadcastCandidate>(ctx, sender);
  };
}

ProtocolFactory bb_candidate_relay_ring(ProcessId sender, std::uint32_t k) {
  return [sender, k](const ProcessContext& ctx) {
    return std::make_unique<RelayRingCandidate>(ctx, sender, k);
  };
}

ProtocolFactory unauth_broadcast_bit(ProcessId sender) {
  return [sender](const ProcessContext& ctx) {
    return std::make_unique<UnauthBroadcastProcess>(ctx, sender);
  };
}

statics::CommSpec unauth_broadcast_comm_spec() {
  using statics::PayloadClass;
  using statics::Poly;
  const Poly n = Poly::n();
  const Poly t = Poly::t();
  statics::CommSpec spec = phase_king_comm_spec();
  spec.protocol = "unauth-broadcast";
  spec.problem = "broadcast";
  spec.rounds = Poly(1) + Poly(3) * (t + 1);
  spec.blocks.insert(
      spec.blocks.begin(),
      {.label = "round 1",
       .rounds = Poly(1),
       .patterns = {{.label = "the sender multicasts its bit",
                     .senders = Poly(1),
                     .receivers_per_sender = n - 1,
                     .payload = PayloadClass::kBit}}});
  spec.notes =
      "round-1 sender multicast, then phase-king consensus on the received "
      "bit (silence decodes as 0)";
  return spec;
}

statics::CommSpec bb_candidate_direct_comm_spec() {
  using statics::PayloadClass;
  using statics::Poly;
  const Poly n = Poly::n();
  statics::CommSpec spec;
  spec.protocol = "bb-direct";
  spec.problem = "broadcast";
  spec.claims_correct = false;
  spec.resilience = "fault-free runs only (no equivocation defense)";
  spec.rounds = Poly(1);
  spec.blocks = {
      {.label = "round 1",
       .rounds = Poly(1),
       .patterns = {{.label = "the sender multicasts its bit",
                     .senders = Poly(1),
                     .receivers_per_sender = n - 1,
                     .payload = PayloadClass::kBit}}}};
  spec.notes =
      "n - 1 messages: the sender's word is final, so an equivocating "
      "sender splits the correct processes";
  return spec;
}

statics::CommSpec bb_candidate_relay_ring_comm_spec(std::uint32_t k) {
  using statics::PayloadClass;
  using statics::Poly;
  const Poly n = Poly::n();
  const Poly fanout(static_cast<std::int64_t>(k));
  statics::CommSpec spec;
  spec.protocol = "bb-relay-ring";
  spec.problem = "broadcast";
  spec.claims_correct = false;
  spec.resilience = "fault-free runs only (broken by cutting the ring)";
  spec.rounds = Poly(2);
  spec.blocks = {
      {.label = "round 1",
       .rounds = Poly(1),
       .patterns = {{.label = "the sender multicasts its bit",
                     .senders = Poly(1),
                     .receivers_per_sender = n - 1,
                     .payload = PayloadClass::kBit}}},
      {.label = "round 2",
       .rounds = Poly(1),
       .patterns = {{.label =
                         "every process relays to its k ring successors",
                     .senders = n,
                     .receivers_per_sender = fanout,
                     .payload = PayloadClass::kBit}}}};
  spec.notes = "(n-1) + n*k messages: sub-quadratic for constant k";
  return spec;
}

}  // namespace ba::protocols
