#include "protocols/gradecast.h"

#include <map>
#include <memory>
#include <optional>

#include "protocols/common.h"

namespace ba::protocols {

std::optional<GradecastOutput> parse_gradecast(const Value& decision) {
  if (!has_tag(decision, "grade")) return std::nullopt;
  const Value* v = field(decision, 0);
  const Value* g = field(decision, 1);
  if (!v || !g || !g->is_int()) return std::nullopt;
  return GradecastOutput{*v, static_cast<int>(g->as_int())};
}

namespace {

Value pack(const Value& v, int grade) {
  return tagged("grade", {v, Value{static_cast<std::int64_t>(grade)}});
}

class GradecastProcess final : public DecidingProcess {
 public:
  GradecastProcess(const ProcessContext& ctx, ProcessId sender)
      : params_(ctx.params),
        self_(ctx.self),
        sender_(sender),
        proposal_(ctx.proposal) {}

  Outbox outbox_for_round(Round r) override {
    switch (r) {
      case 1:
        if (self_ == sender_) {
          return multicast(params_.n, self_, tagged("gc-init", {proposal_}));
        }
        return {};
      case 2:
        if (received_) {
          return multicast(params_.n, self_, tagged("gc-echo", {*received_}));
        }
        return {};
      case 3:
        if (backed_) {
          return multicast(params_.n, self_, tagged("gc-vote", {*backed_}));
        }
        return {};
      default:
        return {};
    }
  }

  void deliver(Round r, const Inbox& inbox) override {
    switch (r) {
      case 1: {
        if (self_ == sender_) {
          received_ = proposal_;
          break;
        }
        for (const Message& m : inbox) {
          if (m.sender != sender_ || !has_tag(m.payload, "gc-init")) continue;
          if (const Value* v = field(m.payload, 0)) received_ = *v;
        }
        break;
      }
      case 2: {
        std::map<Value, std::uint32_t> echoes;
        if (received_) ++echoes[*received_];
        for (const Message& m : inbox) {
          if (!has_tag(m.payload, "gc-echo")) continue;
          if (const Value* v = field(m.payload, 0)) ++echoes[*v];
        }
        for (const auto& [v, count] : echoes) {
          if (count >= params_.n - params_.t) backed_ = v;
        }
        break;
      }
      case 3: {
        std::map<Value, std::uint32_t> votes;
        if (backed_) ++votes[*backed_];
        for (const Message& m : inbox) {
          if (!has_tag(m.payload, "gc-vote")) continue;
          if (const Value* v = field(m.payload, 0)) ++votes[*v];
        }
        const Value* best = nullptr;
        std::uint32_t best_count = 0;
        for (const auto& [v, count] : votes) {
          if (count > best_count) {
            best = &v;
            best_count = count;
          }
        }
        if (best && best_count >= params_.n - params_.t) {
          decide(pack(*best, 2));
        } else if (best && best_count >= params_.t + 1) {
          decide(pack(*best, 1));
        } else {
          decide(pack(bottom(), 0));
        }
        break;
      }
      default:
        break;
    }
  }

 private:
  SystemParams params_;
  ProcessId self_;
  ProcessId sender_;
  Value proposal_;
  std::optional<Value> received_;
  std::optional<Value> backed_;
};

}  // namespace

ProtocolFactory gradecast_bit(ProcessId sender) {
  return [sender](const ProcessContext& ctx) {
    return std::make_unique<GradecastProcess>(ctx, sender);
  };
}

statics::CommSpec gradecast_comm_spec() {
  using statics::PayloadClass;
  using statics::Poly;
  const Poly n = Poly::n();
  statics::CommSpec spec;
  spec.protocol = "gradecast";
  spec.problem = "graded-broadcast";
  spec.resilience = "n > 3t";
  spec.rounds = Poly(3);
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
                     .payload = PayloadClass::kBit}}},
      {.label = "round 3",
       .rounds = Poly(1),
       .patterns = {{.label = "every process votes for the echo majority",
                     .senders = n,
                     .receivers_per_sender = n - 1,
                     .payload = PayloadClass::kBit}}}};
  spec.notes = "sender multicast, echo round, vote round";
  return spec;
}

}  // namespace ba::protocols
