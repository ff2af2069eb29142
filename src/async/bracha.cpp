#include "async/bracha.h"

#include <vector>

#include "protocols/common.h"

namespace ba::async {
namespace {

using protocols::append_multicast;
using protocols::has_tag;
using protocols::tagged;

class BrachaProcess final : public AsyncProcess {
 public:
  explicit BrachaProcess(const AsyncContext& ctx)
      : n_(ctx.params.n),
        t_(ctx.params.t),
        self_(ctx.self),
        v1_(ctx.proposal.try_bit().value_or(0) == 1),
        echo_from_(ctx.params.n, false),
        ready_from_(ctx.params.n, false) {}

  Outbox on_start() override {
    Outbox out;
    step(out);
    return out;
  }

  Outbox on_message(ProcessId sender, const Value& payload) override {
    Outbox out;
    // Per-sender dedup: a Byzantine peer gets one ECHO and one READY vote.
    if (has_tag(payload, "echo") && !echo_from_[sender]) {
      echo_from_[sender] = true;
      echoes_++;
    } else if (has_tag(payload, "ready") && !ready_from_[sender]) {
      ready_from_[sender] = true;
      readies_++;
    } else {
      return out;
    }
    step(out);
    return out;
  }

  [[nodiscard]] std::optional<Value> decision() const override {
    return decision_;
  }
  // Acceptance is terminal: an AC process has broadcast both its ECHO and
  // its READY already, so the default decision-implies-halted is exact.

 private:
  /// Fires every enabled transition (one delivery can cascade ECHO -> READY
  /// -> accept when the buffered evidence is already sufficient).
  void step(Outbox& out) {
    const bool evidence = echoes_ >= bracha_echo_quorum(n_, t_) ||
                          readies_ >= bracha_ready_support(t_);
    if (!sent_echo_ && (v1_ || evidence)) {
      sent_echo_ = true;
      echo_from_[self_] = true;
      echoes_++;
      append_multicast(out, n_, self_, tagged("echo", {}));
    }
    if (sent_echo_ && !sent_ready_ &&
        (echoes_ >= bracha_echo_quorum(n_, t_) ||
         readies_ >= bracha_ready_support(t_))) {
      sent_ready_ = true;
      ready_from_[self_] = true;
      readies_++;
      append_multicast(out, n_, self_, tagged("ready", {}));
    }
    if (sent_ready_ && !decision_ && readies_ >= bracha_ready_quorum(t_)) {
      decision_ = Value::bit(1);
    }
  }

  std::uint32_t n_;
  std::uint32_t t_;
  ProcessId self_;
  bool v1_;

  bool sent_echo_{false};
  bool sent_ready_{false};
  std::optional<Value> decision_;

  std::uint32_t echoes_{0};
  std::uint32_t readies_{0};
  std::vector<bool> echo_from_;
  std::vector<bool> ready_from_;
};

}  // namespace

AsyncProtocolFactory bracha_factory() {
  return [](const AsyncContext& ctx) {
    return std::make_unique<BrachaProcess>(ctx);
  };
}

statics::CommSpec bracha_comm_spec() {
  using statics::PayloadClass;
  using statics::Poly;
  const Poly n = Poly::n();
  statics::CommSpec spec;
  spec.protocol = "bracha";
  spec.problem = "strong-consensus";
  spec.resilience = "n > 3t";
  spec.rounds = Poly(3);
  spec.blocks = {
      {.label = "echo broadcast",
       .rounds = Poly(1),
       .patterns = {{.label = "every process multicasts ECHO at most once",
                     .senders = n,
                     .receivers_per_sender = n - 1,
                     .payload = PayloadClass::kBit}}},
      {.label = "ready broadcast",
       .rounds = Poly(1),
       .patterns = {{.label = "every process multicasts READY at most once",
                     .senders = n,
                     .receivers_per_sender = n - 1,
                     .payload = PayloadClass::kBit}}},
      {.label = "accept",
       .rounds = Poly(1),
       .patterns = {}},
  };
  spec.notes =
      "Bracha echo-ready acceptance: one ECHO and one READY broadcast per "
      "process in any schedule, so correct processes send at most "
      "2 n (n - 1) messages; the three logical stages (echo, ready, accept) "
      "bound the round envelope";
  return spec;
}

}  // namespace ba::async
