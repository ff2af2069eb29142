#pragma once

// Unauthenticated Byzantine broadcast via the classical reduction to strong
// consensus [17, 82]: the sender multicasts its value in round 1 (n - 1
// messages), then all processes run binary strong consensus (phase king) on
// the bit they received. Sender Validity follows from Strong Validity:
// a correct sender puts the same bit everywhere, so all correct processes
// enter consensus with the same proposal.
//
// Binary only (the bit is the interesting case for weak consensus and the
// lower-bound experiments); requires n > 3t.

#include "runtime/process.h"

#include "statics/comm_spec.h"

namespace ba::protocols {

ProtocolFactory unauth_broadcast_bit(ProcessId sender);

/// Sub-quadratic BROKEN broadcast candidate (a Dolev-Reischuk attack
/// target): the sender multicasts its value once and every receiver decides
/// whatever arrived (bottom if nothing). n - 1 messages; correct with a
/// correct sender and no faults, broken by any cut towards a receiver.
ProtocolFactory bb_candidate_direct(ProcessId sender);

/// Slightly stronger broken candidate: one relay round — the sender
/// multicasts, every receiver forwards once to its `k` ring successors, and
/// everyone decides the (first) value seen by round 2. O(n k) messages.
ProtocolFactory bb_candidate_relay_ring(ProcessId sender, std::uint32_t k);

/// Static communication declarations. The correct protocol inherits the
/// phase-king blocks behind a one-round sender multicast; the candidates
/// are the deliberately sub-quadratic attack targets.
statics::CommSpec unauth_broadcast_comm_spec();
statics::CommSpec bb_candidate_direct_comm_spec();
statics::CommSpec bb_candidate_relay_ring_comm_spec(std::uint32_t k);

}  // namespace ba::protocols
