#include "protocols/phase_king.h"

#include <array>
#include <memory>
#include <optional>
#include <string_view>

#include "protocols/common.h"

namespace ba::protocols {
namespace {

class PhaseKingProcess final : public DecidingProcess {
 public:
  explicit PhaseKingProcess(const ProcessContext& ctx)
      : params_(ctx.params), self_(ctx.self) {
    pref_ = ctx.proposal.try_bit().value_or(0);
  }

  Outbox outbox_for_round(Round r) override {
    if (r > total_rounds()) return {};
    switch (subround(r)) {
      case 1:
        return multicast(params_.n, self_,
                         tagged("pk-val", {Value::bit(pref_)}));
      case 2:
        if (backed_.has_value()) {
          return multicast(params_.n, self_,
                           tagged("pk-prop", {Value::bit(*backed_)}));
        }
        return {};
      case 3:
        if (self_ == king(r)) {
          return multicast(params_.n, self_,
                           tagged("pk-king", {Value::bit(pref_)}));
        }
        return {};
      default:
        return {};
    }
  }

  void deliver(Round r, const Inbox& inbox) override {
    if (r > total_rounds()) return;
    switch (subround(r)) {
      case 1: {
        std::array<std::uint32_t, 2> count{0, 0};
        ++count[static_cast<std::size_t>(pref_)];  // own value counts
        for (const Message& m : inbox) {
          if (auto b = parse_bit(m.payload, "pk-val")) {
            ++count[static_cast<std::size_t>(*b)];
          }
        }
        backed_.reset();
        for (int w : {0, 1}) {
          if (count[static_cast<std::size_t>(w)] >= params_.n - params_.t) {
            backed_ = w;
          }
        }
        break;
      }
      case 2: {
        std::array<std::uint32_t, 2> support{0, 0};
        if (backed_) ++support[static_cast<std::size_t>(*backed_)];
        for (const Message& m : inbox) {
          if (auto b = parse_bit(m.payload, "pk-prop")) {
            ++support[static_cast<std::size_t>(*b)];
          }
        }
        sure_ = false;
        for (int w : {0, 1}) {
          if (support[static_cast<std::size_t>(w)] >= params_.t + 1) {
            pref_ = w;
            sure_ = support[static_cast<std::size_t>(w)] >=
                    params_.n - params_.t;
          }
        }
        break;
      }
      case 3: {
        if (!sure_ && self_ != king(r)) {  // the king's own value is pref_
          int king_bit = 0;
          for (const Message& m : inbox) {
            if (m.sender != king(r)) continue;
            if (auto b = parse_bit(m.payload, "pk-king")) king_bit = *b;
          }
          pref_ = king_bit;
        }
        if (r == total_rounds()) decide(Value::bit(pref_));
        break;
      }
      default:
        break;
    }
  }

 private:
  [[nodiscard]] Round total_rounds() const { return 3 * (params_.t + 1); }
  [[nodiscard]] static Round subround(Round r) { return (r - 1) % 3 + 1; }
  [[nodiscard]] ProcessId king(Round r) const {
    return static_cast<ProcessId>(((r - 1) / 3) % params_.n);
  }

  static std::optional<int> parse_bit(const Value& payload,
                                      std::string_view tag) {
    if (!has_tag(payload, tag)) return std::nullopt;
    const Value* v = field(payload, 0);
    if (!v) return std::nullopt;
    return v->try_bit();
  }

  SystemParams params_;
  ProcessId self_;
  int pref_{0};
  std::optional<int> backed_;
  bool sure_{false};
};

}  // namespace

ProtocolFactory phase_king_consensus() {
  return [](const ProcessContext& ctx) {
    return std::make_unique<PhaseKingProcess>(ctx);
  };
}

statics::CommSpec phase_king_comm_spec() {
  using statics::PayloadClass;
  using statics::Poly;
  const Poly n = Poly::n();
  const Poly t = Poly::t();
  statics::CommSpec spec;
  spec.protocol = "phase-king-strong";
  spec.problem = "strong-consensus";
  spec.resilience = "n > 3t";
  spec.rounds = Poly(3) * (t + 1);
  spec.blocks = {
      {.label = "value-exchange rounds (one per phase)",
       .rounds = t + 1,
       .patterns = {{.label = "every process multicasts its preference",
                     .senders = n,
                     .receivers_per_sender = n - 1,
                     .payload = PayloadClass::kBit}}},
      {.label = "proposal rounds (one per phase)",
       .rounds = t + 1,
       .patterns = {{.label = "every process multicasts its proposal",
                     .senders = n,
                     .receivers_per_sender = n - 1,
                     .payload = PayloadClass::kBit}}},
      {.label = "king rounds (one per phase)",
       .rounds = t + 1,
       .patterns = {{.label = "the phase king multicasts its tiebreak",
                     .senders = Poly(1),
                     .receivers_per_sender = n - 1,
                     .payload = PayloadClass::kBit}}},
  };
  spec.notes =
      "t + 1 phases of exchange / propose / king rounds; the king round has "
      "a single sender, so the bound is (t+1)(2n(n-1) + (n-1))";
  return spec;
}

}  // namespace ba::protocols
