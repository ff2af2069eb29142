#include "faults/compile.h"

#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "adversary/byzantine.h"
#include "adversary/omission.h"
#include "crypto/siphash.h"

namespace ba::faults {
namespace {

// Domain-separation context for seed-derived crash rounds. The value is the
// one the campaign service used before the compiler existed: cached campaign
// rows (content-addressed NDJSON) replay byte-identically only if the same
// seed derives the same schedule.
constexpr std::uint64_t kFaultContext = 0xfa017ab1ULL;

[[noreturn]] void no_lowering(const FaultSpec& spec, const char* target,
                              const char* why) {
  throw std::runtime_error("fault plan '" + spec.format() + "': no " +
                           target + " lowering (" + why + ")");
}

/// The corrupted group: the count highest ids (tail) or lowest (head).
ProcessSet target_group(const FaultSpec& spec, const SystemParams& params,
                        std::uint32_t k) {
  return spec.targets == TargetSelection::kHead
             ? ProcessSet::range(0, k)
             : ProcessSet::range(params.n - k, params.n);
}

/// The i-th corrupted id, in the order the legacy crash schedule numbered
/// them (descending from the top for the tail selection).
ProcessId target_id(const FaultSpec& spec, const SystemParams& params,
                    std::uint32_t i) {
  return spec.targets == TargetSelection::kHead ? i : params.n - 1 - i;
}

/// The crash lowering's schedule: (process, first silent round) pairs.
/// Crash rounds are seed-derived in 1..4 unless "@R" pinned them.
std::vector<std::pair<ProcessId, Round>> silence_schedule(
    const FaultSpec& spec, const SystemParams& params, std::uint64_t seed) {
  std::vector<std::pair<ProcessId, Round>> schedule;
  schedule.reserve(spec.count);
  if (spec.at_round) {
    for (std::uint32_t i = 0; i < spec.count; ++i) {
      schedule.emplace_back(target_id(spec, params, i), *spec.at_round);
    }
    return schedule;
  }
  const crypto::SipKey key = crypto::derive_key(seed, kFaultContext);
  const crypto::SipHasher base(key);
  for (std::uint32_t i = 0; i < spec.count; ++i) {
    crypto::SipHasher h = base;
    h.absorb_u32(i);
    schedule.emplace_back(target_id(spec, params, i),
                          static_cast<Round>(1 + h.digest() % 4));
  }
  return schedule;
}

/// A Byzantine async replica that never sends and never decides — the async
/// counterpart of byz_silent().
class SilentAsyncReplica final : public async::AsyncProcess {
 public:
  Outbox on_start() override { return {}; }
  Outbox on_message(ProcessId, const Value&) override { return {}; }
  [[nodiscard]] std::optional<Value> decision() const override {
    return std::nullopt;
  }
  [[nodiscard]] bool halted() const override { return true; }
};

}  // namespace

Adversary compile_adversary(const FaultSpec& spec, const SystemParams& params,
                            std::uint64_t seed) {
  validate_for(spec, params);
  switch (spec.kind) {
    case FaultKind::kFaultFree:
      return Adversary::none();
    case FaultKind::kRandomOmissions:
      return random_omissions(target_group(spec, params, params.t), seed,
                              spec.permille);
    case FaultKind::kCrash:
      return crash_schedule(silence_schedule(spec, params, seed));
    case FaultKind::kMute:
      return mute_group(target_group(spec, params, spec.count),
                        spec.at_round.value_or(2));
    case FaultKind::kIsolate:
      return isolate_group(target_group(spec, params, spec.count),
                           spec.at_round.value_or(2));
    case FaultKind::kSilentByz: {
      Adversary adv;
      adv.faulty = target_group(spec, params, spec.count);
      adv.byzantine = adv.faulty;
      adv.byzantine_factory = byz_silent();
      return adv;
    }
    case FaultKind::kNoiseByz: {
      Adversary adv;
      adv.faulty = target_group(spec, params, spec.count);
      adv.byzantine = adv.faulty;
      adv.byzantine_factory = byz_noise(seed, 12);
      return adv;
    }
  }
  throw std::runtime_error("fault plan: unreachable kind");
}

async::AsyncAdversary compile_async(const FaultSpec& spec,
                                    const SystemParams& params,
                                    std::uint64_t /*seed*/) {
  validate_for(spec, params);
  async::AsyncAdversary adv;
  switch (spec.kind) {
    case FaultKind::kFaultFree:
      return adv;
    case FaultKind::kCrash:
    case FaultKind::kMute:
      // The async model has no rounds for crash timing to bind to;
      // crash-from-start is the adversary's strongest schedule.
      adv.faulty = target_group(spec, params, spec.count);
      return adv;
    case FaultKind::kSilentByz:
      adv.faulty = target_group(spec, params, spec.count);
      adv.byzantine = adv.faulty;
      adv.byzantine_factory = [](const async::AsyncContext&) {
        return std::make_unique<SilentAsyncReplica>();
      };
      return adv;
    case FaultKind::kIsolate:
      no_lowering(spec, "async",
                  "the scheduler already owns delivery order; receive-"
                  "isolation has no async counterpart");
    case FaultKind::kRandomOmissions:
      no_lowering(spec, "async",
                  "async links are reliable; omission power lives in the "
                  "scheduler");
    case FaultKind::kNoiseByz:
      no_lowering(spec, "async",
                  "the noise strategy is round-structured; only silent-byz "
                  "lowers to the async model");
  }
  throw std::runtime_error("fault plan: unreachable kind");
}

}  // namespace ba::faults
