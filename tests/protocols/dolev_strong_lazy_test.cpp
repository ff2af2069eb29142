// Pins the Dolev-Strong fast path, which verifies a chain only when its
// value is new to the receiver, to the seed rule: a test-only reference
// process checks every chain with SigChain::from_value + SigChain::verify
// before it applies the extraction rule. Each production factory that runs
// Dolev-Strong is rebuilt around the reference and both are run under the
// same adversaries; decisions and encoded traces must match byte for byte.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "adversary/byzantine.h"
#include "adversary/omission.h"
#include "crypto/signature.h"
#include "dolev_strong_adversaries.h"
#include "protocols/adapters.h"
#include "protocols/common.h"
#include "protocols/dolev_strong.h"
#include "protocols/interactive_consistency.h"
#include "protocols/parallel.h"
#include "protocols/weak_consensus.h"
#include "runtime/sync_system.h"
#include "runtime/trace_io.h"

namespace ba::protocols {
namespace {

Value wrap_value(std::uint64_t instance, const Value& v) {
  return tagged("dsv", {Value{static_cast<std::int64_t>(instance)}, v});
}

/// The seed Dolev-Strong: every received chain is parsed and verified in
/// full, and only then is its value considered for extraction.
class EagerDolevStrong final : public DecidingProcess {
 public:
  EagerDolevStrong(const ProcessContext& ctx,
                   std::shared_ptr<const crypto::Authenticator> auth,
                   ProcessId sender, std::uint64_t instance)
      : params_(ctx.params),
        self_(ctx.self),
        sender_(sender),
        instance_(instance),
        auth_(std::move(auth)),
        signer_(auth_, ctx.self),
        proposal_(ctx.proposal) {}

  Outbox outbox_for_round(Round r) override {
    if (r == 1 && self_ == sender_) {
      crypto::SigChain chain(wrap_value(instance_, proposal_));
      chain.extend(signer_);
      extracted_.insert(proposal_);
      return chains_to_all({chain});
    }
    if (r >= 2 && r <= last_round() && !pending_relay_.empty()) {
      return chains_to_all(pending_relay_);
    }
    return {};
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

  void ingest(const Value& field_value, Round r) {
    auto chain = crypto::SigChain::from_value(field_value);
    if (!chain || !chain->verify(*auth_, r, sender_)) return;
    const Value& wrapped = chain->value();
    if (!has_tag(wrapped, "dsv")) return;
    const Value* inst = field(wrapped, 0);
    const Value* v = field(wrapped, 1);
    if (!inst || !v || !inst->is_int() ||
        inst->as_int() != static_cast<std::int64_t>(instance_)) {
      return;
    }
    if (extracted_.contains(*v)) return;
    if (extracted_.size() >= 2) return;
    extracted_.insert(*v);
    if (r < last_round() && !chain->contains_signer(self_)) {
      crypto::SigChain extended = *chain;
      extended.extend(signer_);
      pending_relay_.push_back(std::move(extended));
    }
  }

  Outbox chains_to_all(const std::vector<crypto::SigChain>& chains) {
    ValueVec fields;
    for (const crypto::SigChain& c : chains) fields.push_back(c.to_value());
    return multicast(params_.n, self_, tagged("ds", std::move(fields)));
  }

  SystemParams params_;
  ProcessId self_;
  ProcessId sender_;
  std::uint64_t instance_;
  std::shared_ptr<const crypto::Authenticator> auth_;
  crypto::Signer signer_;
  Value proposal_;
  std::set<Value> extracted_;
  std::vector<crypto::SigChain> pending_relay_;
};

ProtocolFactory eager_dolev_strong(
    std::shared_ptr<const crypto::Authenticator> auth, ProcessId sender,
    std::uint64_t instance) {
  return [auth = std::move(auth), sender, instance](const ProcessContext& ctx) {
    return std::make_unique<EagerDolevStrong>(ctx, auth, sender, instance);
  };
}

// weak_consensus_auth and auth_interactive_consistency, each rebuilt over
// the reference broadcast.
ProtocolFactory eager_weak_consensus(
    std::shared_ptr<const crypto::Authenticator> auth) {
  return map_protocol(eager_dolev_strong(std::move(auth), 0, 0), nullptr,
                      [](const Value& delivered) {
                        return Value::bit(delivered.try_bit().value_or(1));
                      });
}

ProtocolFactory eager_interactive_consistency(
    std::uint32_t n, std::shared_ptr<const crypto::Authenticator> auth) {
  return parallel_composition(
      n,
      [auth = std::move(auth)](std::size_t i, const ProcessContext& ctx) {
        return eager_dolev_strong(auth, static_cast<ProcessId>(i),
                                  static_cast<std::uint64_t>(i))(ctx);
      },
      [](const std::vector<Value>& d) {
        return Value{ValueVec(d.begin(), d.end())};
      });
}

/// Flips one bit of the MAC of signature `k` of a chain Value.
Value forge(const Value& chain, std::size_t k) {
  ValueVec vec = chain.as_vec();
  ValueVec sig = vec[2 + k].as_vec();
  sig[2] = Value{static_cast<std::int64_t>(sig[2].as_int() ^ 1)};
  vec[2 + k] = Value{std::move(sig)};
  return Value{std::move(vec)};
}

/// Two colluding faulty processes of instance 0. The sender signs `held`
/// and sends it to everyone in round 1, as a correct sender would. In round
/// 2 the relayer sends everyone, in this order: a forged chain for a new
/// value, a valid chain for that value (signed by the sender, then by the
/// relayer), and two forged chains for `held`, which every receiver already
/// holds. Receivers must reject the first chain, extract the new value from
/// the second and relay it; a receiver that marked the value extracted
/// before verifying the forged chain would not relay it.
class MixedRelayer final : public Process {
 public:
  static constexpr ProcessId kSender = 0;
  static constexpr ProcessId kRelayer = 1;

  MixedRelayer(const ProcessContext& ctx,
               const std::shared_ptr<const crypto::Authenticator>& auth,
               Value held, Value fresh)
      : n_(ctx.params.n),
        self_(ctx.self),
        sender_signer_(auth, kSender),
        relayer_signer_(auth, kRelayer),
        held_(std::move(held)),
        fresh_(std::move(fresh)) {}

  Outbox outbox_for_round(Round r) override {
    if (r == 1 && self_ == kSender) {
      return multicast(n_, self_, tagged("ds", {chain(held_, false)}));
    }
    if (r == 2 && self_ == kRelayer) {
      const Value fresh = chain(fresh_, true);
      const Value held = chain(held_, true);
      crypto::SigChain unsigned_by_sender(wrap_value(0, held_));
      unsigned_by_sender.extend(relayer_signer_);
      return multicast(n_, self_,
                       tagged("ds", {forge(fresh, 0), fresh, forge(held, 1),
                                     unsigned_by_sender.to_value()}));
    }
    return {};
  }
  void deliver(Round, const Inbox&) override {}
  [[nodiscard]] std::optional<Value> decision() const override {
    return std::nullopt;
  }
  [[nodiscard]] bool quiescent() const override { return true; }

 private:
  [[nodiscard]] Value chain(const Value& v, bool relayed) const {
    crypto::SigChain c(wrap_value(0, v));
    c.extend(sender_signer_);
    if (relayed) c.extend(relayer_signer_);
    return c.to_value();
  }

  std::uint32_t n_;
  ProcessId self_;
  crypto::Signer sender_signer_;
  crypto::Signer relayer_signer_;
  Value held_;
  Value fresh_;
};

/// A Byzantine replica that plays `instance0` in instance 0 of an
/// interactive-consistency bundle and stays silent in every other instance.
ProtocolFactory in_instance_zero(std::uint32_t n, ProtocolFactory instance0) {
  const ProtocolFactory silent = byz_silent();
  return parallel_composition(
      n,
      [instance0 = std::move(instance0), silent](std::size_t i,
                                                 const ProcessContext& ctx) {
        return i == 0 ? instance0(ctx) : silent(ctx);
      },
      [](const std::vector<Value>&) { return bottom(); });
}

struct Composition {
  ProtocolFactory production;
  ProtocolFactory reference;  // the same composition over EagerDolevStrong
  bool bundled;  // payloads travel inside interactive-consistency bundles
};

struct Case {
  std::string name;
  Adversary adversary;
};

Adversary byzantine(ProcessSet faulty, ProtocolFactory factory) {
  Adversary adv;
  adv.faulty = faulty;
  adv.byzantine = std::move(faulty);
  adv.byzantine_factory = std::move(factory);
  return adv;
}

std::vector<Case> adversaries(
    const SystemParams& params,
    const std::shared_ptr<const crypto::Authenticator>& auth,
    const ProtocolFactory& reference, bool bundled) {
  const std::uint32_t n = params.n;
  auto instance_zero = [&](ProtocolFactory f) {
    return bundled ? in_instance_zero(n, std::move(f)) : std::move(f);
  };
  std::vector<Case> cases;
  cases.push_back({"fault-free", Adversary::none()});
  cases.push_back(
      {"isolate_group", isolate_group(ProcessSet{{n - 2, n - 1}}, 2)});
  for (Round crash = 1; crash <= params.t + 1; ++crash) {
    cases.push_back(
        {"crashing sender @" + std::to_string(crash),
         byzantine(ProcessSet{{0}}, byz_crash_at(reference, crash))});
  }
  cases.push_back({"silent sender", byzantine(ProcessSet{{0}}, byz_silent())});
  cases.push_back(
      {"equivocating sender",
       byzantine(ProcessSet{{0}},
                 instance_zero([auth](const ProcessContext& ctx) {
                   return std::make_unique<EquivocatingSender>(ctx, auth);
                 }))});
  cases.push_back(
      {"mixed relayer",
       byzantine(ProcessSet{{MixedRelayer::kSender, MixedRelayer::kRelayer}},
                 instance_zero([auth](const ProcessContext& ctx) {
                   return std::make_unique<MixedRelayer>(
                       ctx, auth, Value::bit(1), Value::bit(0));
                 }))});
  return cases;
}

Composition composition(
    const std::string& name, std::uint32_t n,
    const std::shared_ptr<const crypto::Authenticator>& auth) {
  if (name == "dolev_strong_broadcast") {
    return {dolev_strong_broadcast(auth, 0), eager_dolev_strong(auth, 0, 0),
            false};
  }
  if (name == "weak_consensus_auth") {
    return {weak_consensus_auth(auth), eager_weak_consensus(auth), false};
  }
  return {auth_interactive_consistency(auth),
          eager_interactive_consistency(n, auth), true};
}

void expect_matches_reference(const std::string& name) {
  for (const SystemParams params : {SystemParams{6, 2}, SystemParams{7, 3}}) {
    auto auth = std::make_shared<crypto::Authenticator>(0x5eed, params.n);
    const Composition comp = composition(name, params.n, auth);
    std::vector<Value> proposals;
    for (ProcessId p = 0; p < params.n; ++p) {
      proposals.push_back(Value::bit(p % 3 == 0 ? 1 : 0));
    }
    for (const Case& c :
         adversaries(params, auth, comp.reference, comp.bundled)) {
      const std::string where =
          name + " / " + c.name + " / n=" + std::to_string(params.n);
      const RunResult want =
          run_execution(params, comp.reference, proposals, c.adversary);
      const RunResult got =
          run_execution(params, comp.production, proposals, c.adversary);
      EXPECT_EQ(got.decisions, want.decisions) << where;
      EXPECT_EQ(got.messages_sent_by_correct, want.messages_sent_by_correct)
          << where;
      EXPECT_EQ(encode_trace(got.trace), encode_trace(want.trace)) << where;
    }
  }
}

TEST(DolevStrongLazy, BroadcastMatchesTheEagerReference) {
  expect_matches_reference("dolev_strong_broadcast");
}

TEST(DolevStrongLazy, WeakConsensusMatchesTheEagerReference) {
  expect_matches_reference("weak_consensus_auth");
}

TEST(DolevStrongLazy, InteractiveConsistencyMatchesTheEagerReference) {
  expect_matches_reference("auth_interactive_consistency");
}

TEST(DolevStrongLazy, MixedRelayerChainForANewValueIsExtractedAndRelayed) {
  // The adversary is not vacuous: every correct process extracts both
  // values (and so decides bottom) and relays the new one in round 3.
  const SystemParams params{6, 2};
  auto auth = std::make_shared<crypto::Authenticator>(0x5eed, params.n);
  const ProtocolFactory ds = dolev_strong_broadcast(auth, 0);
  const Case mixed = adversaries(params, auth, ds, false).back();
  ASSERT_EQ(mixed.name, "mixed relayer");
  const RunResult res = run_execution(
      params, ds, std::vector<Value>(params.n, Value::bit(1)),
      mixed.adversary);
  for (ProcessId p = 2; p < params.n; ++p) {
    ASSERT_TRUE(res.decisions[p].has_value()) << "p" << p;
    EXPECT_EQ(*res.decisions[p], bottom()) << "p" << p;
    EXPECT_EQ(res.trace.procs[p].round(3).sent.size(), params.n - 1)
        << "p" << p;
  }
}

}  // namespace
}  // namespace ba::protocols
