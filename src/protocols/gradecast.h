#pragma once

// Gradecast (Feldman-Micali graded broadcast): the classic 3-round,
// unauthenticated, n > 3t primitive sitting between crusader broadcast and
// full Byzantine broadcast. Each process outputs a pair (value, grade) with
// grade in {0, 1, 2}:
//   * if the sender is correct, every correct process outputs (v, 2);
//   * any two correct grades differ by at most 1;
//   * if any correct process outputs grade >= 1 for value w, every correct
//     process with grade >= 1 outputs the same w.
// Gradecast is the standard building block for expected-constant-round
// agreement [70] and the graded structure mirrors what the paper's phase-
// king round 2 computes internally ("backed" / "sure").
//
// Protocol: round 1 the sender multicasts v; round 2 everyone echoes what it
// received; round 3 a process that saw n - t echoes for w votes for w;
// outputs: (w, 2) on n - t votes, (w, 1) on t + 1 votes, (bottom, 0)
// otherwise.
//
// Decision encoding: ["grade", value, grade].

#include "runtime/process.h"

#include "statics/comm_spec.h"

namespace ba::protocols {

ProtocolFactory gradecast_bit(ProcessId sender);

/// Unpacks a gradecast decision. Returns nullopt on malformed input.
struct GradecastOutput {
  Value value;
  int grade{0};
};
std::optional<GradecastOutput> parse_gradecast(const Value& decision);

/// Static communication declaration: (n-1) + 2n(n-1) bit messages, 3 rounds.
statics::CommSpec gradecast_comm_spec();

}  // namespace ba::protocols
