#pragma once

// Early-deciding consensus in the crash/omission-fault model, and the
// non-early FloodSet baseline.
//
// FloodSet [82]: every process floods the set of proposals it has seen for
// t + 1 rounds and decides the minimum — the textbook crash-tolerant
// consensus with Strong Validity.
//
// The early-deciding variant adds the classic stabilization rule: a process
// decides as soon as the set of processes it heard from is IDENTICAL in two
// consecutive rounds (no fresh crash evidence), which happens by round
// f + 2 when only f <= t processes actually crash. Crucially — this is the
// point of [50], "Early-deciding consensus is expensive", cited by the
// paper — deciding early does NOT allow stopping early: processes keep
// flooding until round t + 1 so that slower processes still learn their
// sets, and the message complexity stays Theta(n^2 t) even in fault-free
// runs. The E11 bench measures exactly this decoupling.
//
// Fault model: crash failures (a process stops sending at some round) or,
// more generally, send-muting omission; NOT arbitrary Byzantine behaviour.

#include "runtime/process.h"

#include "statics/comm_spec.h"

namespace ba::protocols {

/// Decides min of the seen proposals at round t + 1 exactly.
ProtocolFactory floodset_consensus();

/// Decides min of the seen proposals at the first round whose heard-from
/// set repeats (<= f + 2 with f actual crashes), but keeps flooding until
/// t + 1.
ProtocolFactory early_deciding_floodset();

/// Static communication declarations: (t+1) n (n-1) value-set messages.
/// Early decision does not change the worst-case structure (the protocol
/// keeps flooding through round t + 1 either way).
statics::CommSpec floodset_comm_spec();
statics::CommSpec early_deciding_floodset_comm_spec();

}  // namespace ba::protocols
