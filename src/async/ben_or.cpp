#include "async/ben_or.h"

#include <array>
#include <stdexcept>
#include <utility>
#include <vector>

#include "protocols/common.h"

namespace ba::async {
namespace {

using protocols::append_multicast;
using protocols::field;
using protocols::has_tag;
using protocols::tagged;

constexpr int kVoteQuestion = 2;  // the '?' proposal of step 2

class BenOrProcess final : public AsyncProcess {
 public:
  BenOrProcess(const AsyncContext& ctx, const BenOrConfig& config)
      : n_(ctx.params.n),
        t_(ctx.params.t),
        self_(ctx.self),
        config_(config),
        x_(ctx.proposal.try_bit().value_or(0)) {
    // Tallies are indexed by phase; a decider participates through phase
    // r* + 1 <= max_phases + 1, and peers may run one phase ahead of us, so
    // keep room (and accept messages) up to max_phases + 1.
    const std::size_t phases = std::size_t{config_.max_phases} + 2;
    report_votes_.assign(phases, {});
    proposal_votes_.assign(phases, {});
    seen_report_.assign(phases, std::vector<bool>(n_, false));
    seen_proposal_.assign(phases, std::vector<bool>(n_, false));
  }

  Outbox on_start() override {
    Outbox out;
    broadcast_report(out);
    advance(out);
    return out;
  }

  Outbox on_message(ProcessId sender, const Value& payload) override {
    Outbox out;
    if (halted_) return out;
    absorb(sender, payload);
    advance(out);
    return out;
  }

  [[nodiscard]] std::optional<Value> decision() const override {
    return decision_;
  }
  [[nodiscard]] bool halted() const override { return halted_; }

 private:
  /// Validates and tallies one incoming message. Malformed payloads,
  /// out-of-range phases, and duplicate (sender, phase, step) votes are
  /// dropped — a Byzantine sender can at worst withhold its vote.
  void absorb(ProcessId sender, const Value& m) {
    const bool is_report = has_tag(m, "bo1");
    if (!is_report && !has_tag(m, "bo2")) return;
    const Value* phase_field = field(m, 0);
    const Value* vote_field = field(m, 1);
    if (phase_field == nullptr || vote_field == nullptr ||
        !phase_field->is_int()) {
      return;
    }
    const std::int64_t phase = phase_field->as_int();
    if (phase < 1 || phase >= static_cast<std::int64_t>(report_votes_.size())) {
      return;
    }
    const auto ph = static_cast<std::size_t>(phase);
    if (is_report) {
      const std::optional<int> bit = vote_field->try_bit();
      if (!bit || seen_report_[ph][sender]) return;
      seen_report_[ph][sender] = true;
      report_votes_[ph][static_cast<std::size_t>(*bit)]++;
    } else {
      if (!vote_field->is_int()) return;
      const std::int64_t vote = vote_field->as_int();
      if (vote < 0 || vote > kVoteQuestion || seen_proposal_[ph][sender]) {
        return;
      }
      seen_proposal_[ph][sender] = true;
      proposal_votes_[ph][static_cast<std::size_t>(vote)]++;
    }
  }

  /// Runs the phase machine as far as the tallies allow. Buffered
  /// future-phase votes can let several phases complete off one delivery.
  void advance(Outbox& out) {
    while (!halted_) {
      if (step_ == 1) {
        if (total(report_votes_[phase_]) < n_ - t_) return;
        my_vote_ = kVoteQuestion;
        for (int v : {0, 1}) {
          const std::uint32_t c = report_votes_[phase_][v];
          const bool strong = config_.broken ? 2 * c >= n_ : 2 * c > n_ + t_;
          if (strong) {
            my_vote_ = v;
            break;
          }
        }
        broadcast_proposal(out, my_vote_);
        step_ = 2;
        continue;
      }
      if (total(proposal_votes_[phase_]) < n_ - t_) return;
      finish_phase();
      if (halted_) return;
      broadcast_report(out);
    }
  }

  /// Step-2 resolution for the current phase: decide / adopt / flip, then
  /// move to the next phase (or halt).
  void finish_phase() {
    const auto& votes = proposal_votes_[phase_];
    if (config_.broken) {
      if (!decision_ && my_vote_ != kVoteQuestion &&
          votes[static_cast<std::size_t>(my_vote_)] >= 1) {
        decision_ = Value::bit(my_vote_);
      }
    } else {
      for (int v : {0, 1}) {
        if (!decision_ && 2 * votes[static_cast<std::size_t>(v)] > n_ + t_) {
          decision_ = Value::bit(v);
        }
      }
    }
    int adopted = -1;
    for (int v : {0, 1}) {
      if (votes[static_cast<std::size_t>(v)] >= t_ + 1) {
        adopted = v;
        break;
      }
    }
    x_ = adopted >= 0 ? adopted
                      : (config_.coin->flip(self_, phase_) ? 1 : 0);
    phase_++;
    step_ = 1;
    if (decision_ && halt_after_phase_ == 0) {
      halt_after_phase_ = phase_;  // the one extra phase (r* + 1)
    }
    if ((halt_after_phase_ != 0 && phase_ > halt_after_phase_) ||
        phase_ > config_.max_phases) {
      halted_ = true;
    }
  }

  void broadcast_report(Outbox& out) {
    seen_report_[phase_][self_] = true;
    report_votes_[phase_][static_cast<std::size_t>(x_)]++;
    append_multicast(out, n_, self_,
                     tagged("bo1", {Value(static_cast<std::int64_t>(phase_)),
                                    Value::bit(x_)}));
  }

  void broadcast_proposal(Outbox& out, int vote) {
    seen_proposal_[phase_][self_] = true;
    proposal_votes_[phase_][static_cast<std::size_t>(vote)]++;
    append_multicast(out, n_, self_,
                     tagged("bo2", {Value(static_cast<std::int64_t>(phase_)),
                                    Value(static_cast<std::int64_t>(vote))}));
  }

  template <std::size_t K>
  static std::uint32_t total(const std::array<std::uint32_t, K>& votes) {
    std::uint32_t sum = 0;
    for (const std::uint32_t c : votes) sum += c;
    return sum;
  }

  std::uint32_t n_;
  std::uint32_t t_;
  ProcessId self_;
  BenOrConfig config_;

  int x_;                        // current estimate bit
  std::uint32_t phase_{1};
  int step_{1};
  int my_vote_{kVoteQuestion};   // this phase's step-2 proposal
  std::optional<Value> decision_;
  std::uint32_t halt_after_phase_{0};  // r* + 1 once decided; 0 = undecided
  bool halted_{false};

  // tallies[phase][value]; totals via per-sender dedup so a Byzantine peer
  // contributes at most one vote per (phase, step).
  std::vector<std::array<std::uint32_t, 2>> report_votes_;
  std::vector<std::array<std::uint32_t, 3>> proposal_votes_;
  std::vector<std::vector<bool>> seen_report_;
  std::vector<std::vector<bool>> seen_proposal_;
};

}  // namespace

AsyncProtocolFactory ben_or_factory(BenOrConfig config) {
  if (!config.coin) {
    throw std::invalid_argument("ben_or_factory: config.coin is required");
  }
  return [config = std::move(config)](const AsyncContext& ctx) {
    return std::make_unique<BenOrProcess>(ctx, config);
  };
}

statics::CommSpec ben_or_comm_spec() {
  using statics::PayloadClass;
  using statics::Poly;
  const Poly n = Poly::n();
  statics::CommSpec spec;
  spec.protocol = "ben-or";
  spec.problem = "strong-consensus";
  spec.resilience = "n > 5t";
  // Two all-to-all broadcast virtual rounds per phase, kBenOrMaxPhases
  // phases. Virtual rounds of the async executor are single messages; the
  // spec counts the 2-broadcast-per-phase envelope the protocol never
  // exceeds regardless of schedule.
  spec.rounds = Poly(2 * static_cast<int>(kBenOrMaxPhases));
  spec.blocks = {
      {.label = "per-phase report + proposal broadcasts",
       .rounds = Poly(2 * static_cast<int>(kBenOrMaxPhases)),
       .patterns = {{.label = "every process multicasts its vote",
                     .senders = n,
                     .receivers_per_sender = n - 1,
                     .payload = PayloadClass::kValue}}},
  };
  spec.notes =
      "asynchronous randomized consensus (Ben-Or '83); a phase is one "
      "report and one proposal broadcast, capped at 64 phases, so correct "
      "processes send at most 128 n (n - 1) messages under any schedule";
  return spec;
}

}  // namespace ba::async
