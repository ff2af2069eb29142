#include "protocols/turpin_coan.h"

#include <map>
#include <memory>
#include <optional>

#include "protocols/common.h"
#include "protocols/phase_king.h"

namespace ba::protocols {
namespace {

class TurpinCoanProcess final : public DecidingProcess {
 public:
  explicit TurpinCoanProcess(const ProcessContext& ctx) : ctx_(ctx) {}

  Outbox outbox_for_round(Round r) override {
    const std::uint32_t n = ctx_.params.n;
    if (r == 1) {
      return multicast(n, ctx_.self, tagged("tc-val", {ctx_.proposal}));
    }
    if (r == 2) {
      if (candidate_) {
        return multicast(n, ctx_.self, tagged("tc-cand", {*candidate_}));
      }
      return {};
    }
    if (!binary_) return {};
    return binary_->outbox_for_round(r - 2);
  }

  void deliver(Round r, const Inbox& inbox) override {
    if (r == 1) {
      std::map<Value, std::uint32_t> tally;
      ++tally[ctx_.proposal];
      for (const Message& m : inbox) {
        if (!has_tag(m.payload, "tc-val")) continue;
        if (const Value* v = field(m.payload, 0)) ++tally[*v];
      }
      for (const auto& [v, count] : tally) {
        if (count >= ctx_.params.n - ctx_.params.t) candidate_ = v;
      }
      return;
    }
    if (r == 2) {
      std::map<Value, std::uint32_t> tally;
      if (candidate_) ++tally[*candidate_];
      for (const Message& m : inbox) {
        if (!has_tag(m.payload, "tc-cand")) continue;
        if (const Value* v = field(m.payload, 0)) ++tally[*v];
      }
      std::uint32_t best = 0;
      for (const auto& [v, count] : tally) {
        if (count > best) {
          best = count;
          top_ = v;
        }
      }
      const int b = best >= ctx_.params.n - ctx_.params.t ? 1 : 0;
      ProcessContext inner = ctx_;
      inner.proposal = Value::bit(b);
      binary_ = phase_king_consensus()(inner);
      return;
    }
    binary_->deliver(r - 2, inbox);
    if (!decision()) {
      if (auto d = binary_->decision()) {
        decide(d->try_bit().value_or(0) == 1 && top_.has_value() ? *top_
                                                                 : bottom());
      }
    }
  }

  [[nodiscard]] bool quiescent() const override {
    return binary_ && binary_->quiescent();
  }

 private:
  ProcessContext ctx_;
  std::optional<Value> candidate_;
  std::optional<Value> top_;
  std::unique_ptr<Process> binary_;
};

}  // namespace

ProtocolFactory turpin_coan_multivalued() {
  return [](const ProcessContext& ctx) {
    return std::make_unique<TurpinCoanProcess>(ctx);
  };
}

statics::CommSpec turpin_coan_comm_spec() {
  using statics::PayloadClass;
  using statics::Poly;
  const Poly n = Poly::n();
  const Poly t = Poly::t();
  statics::CommSpec spec = phase_king_comm_spec();
  spec.protocol = "turpin-coan";
  spec.problem = "strong-consensus";
  spec.rounds = Poly(2) + Poly(3) * (t + 1);
  spec.blocks.insert(
      spec.blocks.begin(),
      {{.label = "round 1",
        .rounds = Poly(1),
        .patterns = {{.label = "every process multicasts its value",
                      .senders = n,
                      .receivers_per_sender = n - 1,
                      .payload = PayloadClass::kValue}}},
       {.label = "round 2",
        .rounds = Poly(1),
        .patterns = {{.label = "every process multicasts its popular value",
                      .senders = n,
                      .receivers_per_sender = n - 1,
                      .payload = PayloadClass::kValue}}}});
  spec.notes =
      "two multivalued exchange rounds, then phase-king bit consensus on "
      "'is my candidate the popular one'";
  return spec;
}

}  // namespace ba::protocols
