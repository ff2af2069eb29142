#include "protocols/early_stopping.h"

#include <memory>
#include <set>

#include "protocols/common.h"

namespace ba::protocols {
namespace {

class FloodSetProcess : public DecidingProcess {
 public:
  FloodSetProcess(const ProcessContext& ctx, bool early)
      : params_(ctx.params), self_(ctx.self), early_(early) {
    seen_.insert(ctx.proposal);
  }

  Outbox outbox_for_round(Round r) override {
    if (r > params_.t + 1) return {};
    ValueVec values(seen_.begin(), seen_.end());
    return multicast(params_.n, self_,
                     tagged("flood", {Value{std::move(values)}}));
  }

  void deliver(Round r, const Inbox& inbox) override {
    if (r > params_.t + 1) return;
    std::set<ProcessId> heard{self_};
    for (const Message& m : inbox) {
      if (!has_tag(m.payload, "flood")) continue;
      heard.insert(m.sender);
      if (const Value* vals = field(m.payload, 0)) {
        if (vals->is_vec()) {
          for (const Value& v : vals->as_vec()) seen_.insert(v);
        }
      }
    }
    if (early_ && !prev_heard_.empty() && heard == prev_heard_) {
      decide(*seen_.begin());
    }
    prev_heard_ = std::move(heard);
    if (r == params_.t + 1) decide(*seen_.begin());
  }

  /// Quiescent only after the full t + 1 rounds even if decided early: the
  /// flooding is what keeps everyone else safe.
  [[nodiscard]] bool quiescent() const override {
    return decision().has_value() && prev_rounds_done();
  }

 private:
  [[nodiscard]] bool prev_rounds_done() const {
    // After t + 1 deliveries prev_heard_ reflects round t + 1.
    return decision().has_value();
  }

  SystemParams params_;
  ProcessId self_;
  bool early_;
  std::set<Value> seen_;
  std::set<ProcessId> prev_heard_;
};

}  // namespace

ProtocolFactory floodset_consensus() {
  return [](const ProcessContext& ctx) {
    return std::make_unique<FloodSetProcess>(ctx, /*early=*/false);
  };
}

ProtocolFactory early_deciding_floodset() {
  return [](const ProcessContext& ctx) {
    return std::make_unique<FloodSetProcess>(ctx, /*early=*/true);
  };
}

statics::CommSpec floodset_comm_spec() {
  using statics::PayloadClass;
  using statics::Poly;
  const Poly n = Poly::n();
  const Poly t = Poly::t();
  statics::CommSpec spec;
  spec.protocol = "floodset";
  spec.problem = "crash-consensus";
  spec.resilience = "t < n (crash faults)";
  spec.rounds = t + 1;
  spec.blocks = {
      {.label = "flood rounds 1..t+1",
       .rounds = t + 1,
       .patterns = {{.label = "every process multicasts its value set",
                     .senders = n,
                     .receivers_per_sender = n - 1,
                     .payload = PayloadClass::kValueSet}}}};
  spec.notes =
      "(t+1) n (n-1) messages of up to n values each; decides the minimum "
      "after t + 1 rounds";
  return spec;
}

statics::CommSpec early_deciding_floodset_comm_spec() {
  statics::CommSpec spec = floodset_comm_spec();
  spec.protocol = "early-deciding-floodset";
  spec.notes =
      "decides after two clean rounds (by round f + 2) but keeps flooding "
      "through t + 1, so the worst-case structure matches floodset";
  return spec;
}

}  // namespace ba::protocols
