#pragma once

// Phase-King binary strong consensus (Berman-Garay-Perry), unauthenticated,
// n > 3t, 3(t+1) rounds, O(n^2 * t) messages.
//
// Strong Validity: if all correct processes propose the same bit, that bit is
// decided. Phases k = 1..t+1, king = p_{k-1}, three rounds per phase:
//   1. value exchange — everyone multicasts its preference; a process whose
//      count for bit w reaches n - t (own value included) backs w;
//   2. proposal exchange — backers multicast their backed bit; a bit
//      supported by >= t + 1 proposals becomes the preference (at most one
//      bit can be, since two would need correct proposers for both, which
//      n > 3t forbids); support >= n - t makes the process *sure*;
//   3. king round — the king multicasts its preference; processes that are
//      not sure adopt it.
// If all correct processes enter a phase with the same preference it persists
// (counts reach n - t everywhere); the first phase with a correct king makes
// all correct preferences equal. Decision after phase t + 1.

#include "runtime/process.h"

#include "statics/comm_spec.h"

namespace ba::protocols {

/// Binary strong consensus. Non-bit proposals are coerced to 0.
ProtocolFactory phase_king_consensus();

/// Rounds used: 3 * (t + 1).
inline Round phase_king_rounds(const SystemParams& p) { return 3 * (p.t + 1); }

/// Static communication declaration: (t+1)(2n(n-1) + (n-1)) bit messages
/// over 3(t+1) rounds.
statics::CommSpec phase_king_comm_spec();

}  // namespace ba::protocols
