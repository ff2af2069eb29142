#include "protocols/beyond_agreement.h"

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "protocols/common.h"

namespace ba::protocols {

Round approximate_agreement_rounds(std::int64_t epsilon,
                                   std::int64_t value_bound) {
  Round r = 1;
  std::int64_t diameter = 2 * value_bound;
  while (diameter > epsilon) {
    diameter = (diameter + 1) / 2;
    ++r;
  }
  return r;
}

namespace {

class ApproxAgreementProcess final : public DecidingProcess {
 public:
  ApproxAgreementProcess(const ProcessContext& ctx, std::int64_t epsilon,
                         std::int64_t bound)
      : params_(ctx.params),
        self_(ctx.self),
        rounds_(approximate_agreement_rounds(epsilon, bound)) {
    value_ = ctx.proposal.is_int() ? ctx.proposal.as_int() : 0;
    value_ = std::clamp(value_, -bound, bound);
  }

  Outbox outbox_for_round(Round r) override {
    if (r > rounds_) return {};
    return multicast(params_.n, self_, tagged("aa", {Value{value_}}));
  }

  void deliver(Round r, const Inbox& inbox) override {
    if (r > rounds_) return;
    std::vector<std::int64_t> reports{value_};
    for (const Message& m : inbox) {
      if (!has_tag(m.payload, "aa")) continue;
      if (const Value* v = field(m.payload, 0)) {
        if (v->is_int()) reports.push_back(v->as_int());
      }
    }
    std::sort(reports.begin(), reports.end());
    // Trim the t lowest and t highest: the survivors' range lies inside the
    // range of the CORRECT reports (at most t of the received values are
    // Byzantine), so the midpoint is a valid new estimate.
    const std::size_t t = params_.t;
    if (reports.size() > 2 * t) {
      reports.erase(reports.begin(),
                    reports.begin() + static_cast<std::ptrdiff_t>(t));
      reports.erase(reports.end() - static_cast<std::ptrdiff_t>(t),
                    reports.end());
    }
    value_ = (reports.front() + reports.back()) / 2;
    if (r == rounds_) decide(Value{value_});
  }

 private:
  SystemParams params_;
  ProcessId self_;
  Round rounds_;
  std::int64_t value_;
};

class KSetProcess final : public DecidingProcess {
 public:
  KSetProcess(const ProcessContext& ctx, std::uint32_t k)
      : params_(ctx.params),
        self_(ctx.self),
        rounds_(params_.t / k + 1),
        min_(ctx.proposal) {}

  Outbox outbox_for_round(Round r) override {
    if (r > rounds_) return {};
    return multicast(params_.n, self_, tagged("kset", {min_}));
  }

  void deliver(Round r, const Inbox& inbox) override {
    if (r > rounds_) return;
    for (const Message& m : inbox) {
      if (!has_tag(m.payload, "kset")) continue;
      if (const Value* v = field(m.payload, 0)) {
        if (*v < min_) min_ = *v;
      }
    }
    if (r == rounds_) decide(min_);
  }

 private:
  SystemParams params_;
  ProcessId self_;
  Round rounds_;
  Value min_;
};

}  // namespace

ProtocolFactory approximate_agreement(std::int64_t epsilon,
                                      std::int64_t value_bound) {
  return [epsilon, value_bound](const ProcessContext& ctx) {
    return std::make_unique<ApproxAgreementProcess>(ctx, epsilon,
                                                    value_bound);
  };
}

ProtocolFactory k_set_agreement(std::uint32_t k) {
  return [k](const ProcessContext& ctx) {
    return std::make_unique<KSetProcess>(ctx, k);
  };
}

statics::CommSpec approximate_agreement_comm_spec(std::int64_t epsilon,
                                                  std::int64_t value_bound) {
  using statics::PayloadClass;
  using statics::Poly;
  const Poly n = Poly::n();
  const Poly halving_rounds(static_cast<std::int64_t>(
      approximate_agreement_rounds(epsilon, value_bound)));
  statics::CommSpec spec;
  spec.protocol = "approx-agreement";
  spec.problem = "approximate-agreement";
  spec.resilience = "n > 3t";
  spec.rounds = halving_rounds;
  spec.blocks = {
      {.label = "halving rounds",
       .rounds = halving_rounds,
       .patterns = {{.label = "every process multicasts its current value",
                     .senders = n,
                     .receivers_per_sender = n - 1,
                     .payload = PayloadClass::kValue}}}};
  spec.notes =
      "no exact Agreement property, so the paper's lower bound does not "
      "apply (§7); the round count depends on epsilon and the value bound, "
      "not on t";
  return spec;
}

statics::CommSpec k_set_comm_spec(std::uint32_t k) {
  using statics::PayloadClass;
  using statics::Poly;
  const Poly n = Poly::n();
  const Poly t = Poly::t();
  statics::CommSpec spec;
  spec.protocol = "k-set-agreement";
  spec.problem = "k-set-agreement";
  spec.resilience = "t < n (crash faults)";
  spec.rounds = t + 1;
  spec.blocks = {
      {.label = "flood rounds",
       .rounds = t + 1,
       .patterns = {{.label = "every process multicasts its value set",
                     .senders = n,
                     .receivers_per_sender = n - 1,
                     .payload = PayloadClass::kValueSet}}}};
  spec.notes =
      "exact round count floor(t/" + std::to_string(k) +
      ") + 1 is not a polynomial in t, so the spec records the sound t + 1 "
      "envelope; outside the paper's lower bound (no Agreement property)";
  return spec;
}

}  // namespace ba::protocols
