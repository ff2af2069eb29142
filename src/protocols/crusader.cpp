#include "protocols/crusader.h"

#include <array>
#include <memory>
#include <optional>

#include "protocols/common.h"

namespace ba::protocols {
namespace {

class CrusaderProcess final : public DecidingProcess {
 public:
  CrusaderProcess(const ProcessContext& ctx, ProcessId sender)
      : params_(ctx.params),
        self_(ctx.self),
        sender_(sender),
        own_bit_(ctx.proposal.try_bit().value_or(0)) {}

  Outbox outbox_for_round(Round r) override {
    if (r == 1 && self_ == sender_) {
      return multicast(params_.n, self_,
                       tagged("cru-init", {Value::bit(own_bit_)}));
    }
    if (r == 2 && received_.has_value()) {
      return multicast(params_.n, self_,
                       tagged("cru-echo", {Value::bit(*received_)}));
    }
    return {};
  }

  void deliver(Round r, const Inbox& inbox) override {
    if (r == 1) {
      if (self_ == sender_) {
        received_ = own_bit_;
      } else {
        for (const Message& m : inbox) {
          if (m.sender != sender_ || !has_tag(m.payload, "cru-init")) continue;
          if (const Value* v = field(m.payload, 0)) received_ = v->try_bit();
        }
      }
      return;
    }
    if (r == 2) {
      std::array<std::uint32_t, 2> echoes{0, 0};
      if (received_) ++echoes[static_cast<std::size_t>(*received_)];
      for (const Message& m : inbox) {
        if (!has_tag(m.payload, "cru-echo")) continue;
        if (const Value* v = field(m.payload, 0)) {
          if (auto b = v->try_bit()) ++echoes[static_cast<std::size_t>(*b)];
        }
      }
      for (int b : {0, 1}) {
        if (echoes[static_cast<std::size_t>(b)] >= params_.n - params_.t) {
          decide(Value::bit(b));
          return;
        }
      }
      decide(bottom());
    }
  }

 private:
  SystemParams params_;
  ProcessId self_;
  ProcessId sender_;
  int own_bit_;
  std::optional<int> received_;
};

}  // namespace

ProtocolFactory crusader_broadcast_bit(ProcessId sender) {
  return [sender](const ProcessContext& ctx) {
    return std::make_unique<CrusaderProcess>(ctx, sender);
  };
}

statics::CommSpec crusader_comm_spec() {
  using statics::PayloadClass;
  using statics::Poly;
  const Poly n = Poly::n();
  statics::CommSpec spec;
  spec.protocol = "crusader";
  spec.problem = "crusader-broadcast";
  spec.resilience = "n > 3t";
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
       .patterns = {{.label = "every process echoes what it received",
                     .senders = n,
                     .receivers_per_sender = n - 1,
                     .payload = PayloadClass::kBit}}}};
  spec.notes = "one sender multicast plus one all-to-all echo round";
  return spec;
}

}  // namespace ba::protocols
