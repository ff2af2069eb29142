#pragma once

// The typed fault-model IR: one FaultSpec describes "what faults happen in
// this run" for every execution substrate in the repo.
//
// A FaultSpec is the single source of truth every substrate's faults are
// compiled from (faults/compile.h): the lockstep and sim backends run its
// Adversary lowering, the async backend its AsyncAdversary lowering. So the
// paper's distinction between the fault *budget* t and the *actual* fault
// count f — the whole point of the Ω(t²)-even-when-f-is-small lower bound —
// shows up once, as declared_faults(), and every budget/bound evaluation can
// be taken at the declared f instead of the worst case.
//
// Grammar (canonical parse/format, round-trips the legacy plan-name syntax):
//
//   fault-free                    no faults (f = 0)
//   crash:K[@R][%head]            K processes crash-stop; seed-derived
//                                 rounds by default, all at round R with @R
//   mute:K[@R][%head]             K processes send-omit everything from
//                                 round R (default 2)
//   isolate:K[@R][%head]          K processes receive-isolated from round R
//                                 (default 2) — Definition 1's schedule
//   random-omissions[:P]         the full budget t drops each message with
//                                 probability P/1000 (default 250)
//   silent-byz:K[%head]           K silent Byzantine replicas
//   noise-byz:K[%head]            K deterministic-noise Byzantine replicas
//
// Targets default to the K highest process ids (the conventional corrupted
// suffix); "%head" selects the K lowest instead. format() emits the
// canonical spelling: counts always explicit, defaults omitted — and
// parse_fault_spec(format(s)) == s for every spec (property-tested).

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "runtime/types.h"

namespace ba::faults {

enum class FaultKind : std::uint8_t {
  kFaultFree,
  kCrash,
  kMute,
  kIsolate,
  kRandomOmissions,
  kSilentByz,
  kNoiseByz,
};

/// Which process ids a counted plan corrupts.
enum class TargetSelection : std::uint8_t {
  kTail,  ///< the count highest ids (legacy default)
  kHead,  ///< the count lowest ids
};

/// The plan-name keyword of a kind ("crash", "random-omissions", ...).
[[nodiscard]] const char* fault_kind_name(FaultKind kind);

/// Kinds that take a ":K" fault count.
[[nodiscard]] bool kind_takes_count(FaultKind kind);

/// Counted kinds whose count is meaningful at every f in 0..t — the kinds a
/// fault axis (sweep/campaign) may sweep.
[[nodiscard]] bool kind_sweepable(FaultKind kind);

/// Resolves a bare kind keyword ("isolate"); nullopt when unknown.
[[nodiscard]] std::optional<FaultKind> find_fault_kind(std::string_view name);

/// Space-separated plan-name grammar summary (usage strings, error text).
[[nodiscard]] const char* fault_plan_names();

/// One fault plan: kind x count/probability x target selection x timing.
/// Fields a kind does not use stay at their defaults — parse_fault_spec only
/// ever produces such canonical specs, which is what makes operator== and
/// the format/parse round trip exact.
struct FaultSpec {
  FaultKind kind{FaultKind::kFaultFree};
  /// K for counted kinds; 0 otherwise.
  std::uint32_t count{0};
  /// Drop probability in permille for kRandomOmissions; 250 otherwise.
  std::uint32_t permille{250};
  TargetSelection targets{TargetSelection::kTail};
  /// "@R" timing override: crash round for kCrash, first omitted round for
  /// kMute/kIsolate. nullopt = the kind's default (seed-derived crash
  /// rounds; round 2 for mute/isolate).
  std::optional<Round> at_round{};

  friend bool operator==(const FaultSpec&, const FaultSpec&) = default;

  /// The *actual* fault count f this plan commits at (n, t): 0 for
  /// fault-free, t for random-omissions (the full budget participates),
  /// `count` for counted kinds. This is the f that statics::budget_at and
  /// the f-axis columns are evaluated at.
  [[nodiscard]] std::uint32_t declared_faults(const SystemParams& params)
      const;

  /// Canonical spelling; parse_fault_spec(format()) == *this.
  [[nodiscard]] std::string format() const;

  /// Same plan at a different fault count (fault-axis sweeps).
  [[nodiscard]] FaultSpec with_count(std::uint32_t k) const;
};

/// Parses the grammar above. Throws std::runtime_error with a pinned
/// message; the unknown-kind message is shared verbatim by every surface
/// (ba_cli run/sim/sweep, serve validate):
///   unknown fault plan '<text>' (known: <fault_plan_names()>)
[[nodiscard]] FaultSpec parse_fault_spec(const std::string& text);

/// Budget check at one (n, t) point: a counted plan must fit the fault
/// budget (K <= t). Throws std::runtime_error naming the plan.
void validate_for(const FaultSpec& spec, const SystemParams& params);

/// parse_fault_spec + validate_for in one step.
[[nodiscard]] FaultSpec checked_fault_spec(const std::string& text,
                                           const SystemParams& params);

}  // namespace ba::faults
