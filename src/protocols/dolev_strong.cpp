#include "protocols/dolev_strong.h"

#include <set>
#include <utility>
#include <vector>

#include "protocols/common.h"

namespace ba::protocols {
namespace {

/// The value a chain endorses, namespaced by instance:
/// ["dsv", instance, v].
Value wrap_value(std::uint64_t instance, const Value& v) {
  return tagged("dsv", {Value{static_cast<std::int64_t>(instance)}, v});
}

std::optional<Value> unwrap_value(const Value& wrapped,
                                  std::uint64_t instance) {
  if (!has_tag(wrapped, "dsv")) return std::nullopt;
  const Value* inst = field(wrapped, 0);
  const Value* v = field(wrapped, 1);
  if (!inst || !v || !inst->is_int() ||
      inst->as_int() != static_cast<std::int64_t>(instance)) {
    return std::nullopt;
  }
  return *v;
}

class DolevStrongProcess final : public DecidingProcess {
 public:
  DolevStrongProcess(const ProcessContext& ctx,
                     std::shared_ptr<const crypto::Authenticator> auth,
                     ProcessId sender, std::uint64_t instance)
      : params_(ctx.params),
        self_(ctx.self),
        sender_(sender),
        instance_(instance),
        auth_(std::move(auth)),
        signer_(auth_, ctx.self),
        proposal_(ctx.proposal),
        arena_(auth_) {}

  Outbox outbox_for_round(Round r) override {
    Outbox out;
    if (r == 1 && self_ == sender_) {
      const std::uint32_t chain =
          arena_.extend(arena_.root(wrap_value(instance_, proposal_)), signer_);
      extracted_.insert(proposal_);
      out = chains_to_all({chain});
      return out;
    }
    if (r >= 2 && r <= last_round() && !pending_relay_.empty()) {
      out = chains_to_all(pending_relay_);
    }
    return out;
  }

  void deliver(Round r, const Inbox& inbox) override {
    pending_relay_.clear();
    if (r <= last_round()) {
      for (const Message& m : inbox) {
        if (!has_tag(m.payload, "ds")) continue;
        const ValueVec& fields = m.payload.as_vec();
        for (std::size_t i = 1; i < fields.size(); ++i) ingest(fields[i], r);
      }
    }
    if (r == last_round()) {
      decide(extracted_.size() == 1 ? *extracted_.begin() : bottom());
    }
  }

  [[nodiscard]] bool quiescent() const override {
    return decision().has_value() && pending_relay_.empty();
  }

 private:
  [[nodiscard]] Round last_round() const { return params_.t + 1; }

  /// Takes one received chain. Only a chain whose value is new to this
  /// process can change its state, so the endorsed value is read before any
  /// signature is parsed or MAC-checked, and a chain for a value already
  /// extracted (or after two values) is dropped unverified. The outcome is
  /// the seed's verify-then-extract rule: the checks skipped are pure, and
  /// chains are still taken one at a time in inbox order.
  void ingest(const Value& chain, Round r) {
    if (!chain.is_vec() || chain.as_vec().size() < 2) return;
    auto v = unwrap_value(chain.as_vec()[1], instance_);
    if (!v) return;
    if (extracted_.contains(*v)) return;
    if (extracted_.size() >= 2) return;  // two values prove equivocation
    // A chain accepted at the end of round r carries >= r distinct
    // signatures, the first being the designated sender's. Relayed chains
    // share their verified prefix with chains checked in earlier rounds, so
    // only the signatures this round added are actually MAC-checked.
    const std::uint32_t node = arena_.verify(chain, r, sender_);
    if (node == crypto::ChainArena::kNoNode) return;
    extracted_.insert(*v);
    if (r < last_round() && !arena_.contains_signer(node, self_)) {
      pending_relay_.push_back(arena_.extend(node, signer_));
    }
  }

  Outbox chains_to_all(const std::vector<std::uint32_t>& chains) {
    ValueVec payload_fields;
    payload_fields.reserve(chains.size());
    for (std::uint32_t c : chains) {
      payload_fields.push_back(arena_.to_value(c));
    }
    return multicast(params_.n, self_, tagged("ds", std::move(payload_fields)));
  }

  SystemParams params_;
  ProcessId self_;
  ProcessId sender_;
  std::uint64_t instance_;
  std::shared_ptr<const crypto::Authenticator> auth_;
  crypto::Signer signer_;
  Value proposal_;
  crypto::ChainArena arena_;

  std::set<Value> extracted_;
  std::vector<std::uint32_t> pending_relay_;  // arena chain ids
};

}  // namespace

ProtocolFactory dolev_strong_broadcast(
    std::shared_ptr<const crypto::Authenticator> auth, ProcessId sender,
    std::uint64_t instance) {
  return [auth = std::move(auth), sender,
          instance](const ProcessContext& ctx) {
    return std::make_unique<DolevStrongProcess>(ctx, auth, sender, instance);
  };
}

statics::CommSpec dolev_strong_comm_spec() {
  using statics::PayloadClass;
  using statics::Poly;
  const Poly n = Poly::n();
  const Poly t = Poly::t();
  statics::CommSpec spec;
  spec.protocol = "dolev-strong";
  spec.problem = "broadcast";
  spec.resilience = "t < n";
  spec.rounds = t + 1;
  spec.blocks = {
      {.label = "round 1",
       .rounds = Poly(1),
       .patterns = {{.label = "the sender multicasts its signed value",
                     .senders = Poly(1),
                     .receivers_per_sender = n - 1,
                     .payload = PayloadClass::kSignatureChain,
                     .sig_depth = Poly(1)}}},
      {.label = "relay rounds 2..t+1",
       .rounds = t,
       .patterns = {{.label =
                         "each process relays at most two extracted values",
                     .senders = Poly(2) * n,
                     .receivers_per_sender = n - 1,
                     .payload = PayloadClass::kSignatureChain,
                     .sig_depth = t + 1,
                     .per_block = true}}},
  };
  spec.notes =
      "a correct process relays at most two distinct values over the whole "
      "execution (two signed values already prove sender equivocation), so "
      "the relay pattern is per-block: 2n(n-1) relays total, not per round";
  return spec;
}

}  // namespace ba::protocols
