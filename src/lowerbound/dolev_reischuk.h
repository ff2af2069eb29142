#pragma once

// An executable Dolev-Reischuk-style attack [51] for Byzantine BROADCAST —
// the paper's §1 point of departure ("the seminal Dolev-Reischuk bound
// proves that Byzantine broadcast cannot be solved unless Omega(t^2)
// messages are exchanged").
//
// The classical argument: if correct processes send too few messages, some
// non-sender process p hears from at most t processes in the fault-free
// execution. Corrupt exactly those senders (omission model) and have them
// send-omit everything addressed to p: p's view becomes independent of the
// sender's value, while the OTHER correct processes still learn it. Running
// the same cut with two different sender values v0 != v1 forces p to decide
// identically in both — so in at least one of them p disagrees with a
// correct process that decided the sender's value (or p never decides):
// a concrete Agreement/Termination violation with <= t omission faults.
//
// The engine returns the same replay-verifiable certificates as the weak-
// consensus attack. Correct broadcast protocols (Dolev-Strong) escape
// because every non-sender hears from ~n-1 processes: the cut set exceeds
// the fault budget (or leaves no correct witness), which the report records.

#include <optional>
#include <string>

#include "engine/backend.h"
#include "lowerbound/certificate.h"
#include "runtime/process.h"
#include "runtime/types.h"

namespace ba::lowerbound {

struct BroadcastAttackReport {
  bool violation_found{false};
  std::optional<ViolationCertificate> certificate;
  std::string narrative;
  /// The victim process and its fault-free in-neighbour count, when a
  /// feasible cut existed.
  ProcessId victim{kNoProcess};
  std::size_t cut_size{0};
  /// Smallest in-neighbourhood over non-sender processes (diagnostic: the
  /// protocol is attackable only when this is <= t with a correct witness
  /// left over).
  std::size_t min_in_neighbourhood{0};
  std::uint64_t fault_free_messages{0};
};

/// Attacks a Byzantine-broadcast protocol (designated `sender`): the
/// protocol's decisions should deliver the sender's proposal to every
/// correct process when the sender is correct. `v0` and `v1` are two
/// distinct sender values to drive the indistinguishability pair;
/// `filler` is the proposal of the non-sender processes (held fixed).
/// `backend` evaluates the three constructed executions (the fault-free
/// probe and the two cut runs); it must support traces. Throws
/// std::invalid_argument unless `params` is valid and `sender` < n.
BroadcastAttackReport attack_broadcast(
    const SystemParams& params, const ProtocolFactory& protocol,
    ProcessId sender, const Value& v0, const Value& v1,
    const Value& filler = Value::bit(0), Round max_rounds = 4000,
    const engine::ExecutionBackend& backend = engine::default_backend());

}  // namespace ba::lowerbound
