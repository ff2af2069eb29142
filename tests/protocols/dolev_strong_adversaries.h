#pragma once

// Byzantine Dolev-Strong processes shared by the Dolev-Strong tests.

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>

#include "crypto/signature.h"
#include "runtime/process.h"

namespace ba::protocols {

/// A Byzantine sender that signs two different values and sends one to the
/// lower half, the other to the upper half — a real signed equivocation.
class EquivocatingSender final : public Process {
 public:
  EquivocatingSender(const ProcessContext& ctx,
                     std::shared_ptr<const crypto::Authenticator> auth)
      : n_(ctx.params.n), self_(ctx.self), signer_(std::move(auth), ctx.self) {}

  Outbox outbox_for_round(Round r) override {
    Outbox out;
    if (r != 1) return out;
    for (ProcessId p = 0; p < n_; ++p) {
      if (p == self_) continue;
      const Value v = Value::vec(
          {Value{"dsv"}, Value{0}, Value::bit(p < n_ / 2 ? 0 : 1)});
      crypto::SigChain chain(v);
      chain.extend(signer_);
      out.push_back(Outgoing{p, Value::vec({Value{"ds"}, chain.to_value()})});
    }
    return out;
  }
  void deliver(Round, const Inbox&) override {}
  [[nodiscard]] std::optional<Value> decision() const override {
    return std::nullopt;
  }
  [[nodiscard]] bool quiescent() const override { return true; }

 private:
  std::uint32_t n_;
  ProcessId self_;
  crypto::Signer signer_;
};

}  // namespace ba::protocols
