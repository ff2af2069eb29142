#pragma once

// Fault injection. The static adversary corrupts up to t processes before the
// run (§2). Corrupted processes either
//   * follow their state machine but drop messages (omission model, §3) —
//     controlled here by send/receive-omission predicates over message
//     identities; or
//   * behave arbitrarily (Byzantine model) — expressed by substituting a
//     different `Process` implementation for the corrupted replica.
//
// Omission-faulty processes are unaware of their own omissions: predicates
// are evaluated by the runtime, never visible to the state machine.

#include <functional>
#include <memory>

#include "runtime/message.h"
#include "runtime/process.h"
#include "runtime/types.h"

namespace ba {

/// Predicate over message identities; true means "omit".
using OmitPredicate = std::function<bool(const MsgKey&)>;

/// Full adversary specification for one execution.
struct Adversary {
  /// The corrupted set F, |F| <= t.
  ProcessSet faulty;

  /// Send-omission faults: consulted only when the *sender* is faulty.
  OmitPredicate send_omit;
  /// Receive-omission faults: consulted only when the *receiver* is faulty.
  OmitPredicate receive_omit;

  /// Byzantine behaviour override: replicas for these processes are built by
  /// `byzantine_factory` instead of the honest protocol factory. Must be a
  /// subset of `faulty`. Byzantine replicas are exempt from the omission
  /// predicates (they already control their own sends).
  ProcessSet byzantine;
  ProtocolFactory byzantine_factory;

  [[nodiscard]] static Adversary none() { return {}; }

  [[nodiscard]] bool is_faulty(ProcessId p) const {
    return faulty.contains(p);
  }
  [[nodiscard]] bool is_byzantine(ProcessId p) const {
    return byzantine.contains(p);
  }
};

}  // namespace ba
