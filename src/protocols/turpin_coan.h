#pragma once

// Turpin-Coan extension: multivalued strong consensus from BINARY strong
// consensus, unauthenticated, n > 3t, two extra rounds — the classic
// "extension protocol" family the paper's related work surveys ([88, 34]:
// amortizing/extending agreement to long inputs).
//
//   round 1: everyone multicasts its proposal;
//   round 2: a process that saw some value w at least n - t times (own value
//            included) multicasts w as its "candidate";
//   then:    run binary phase-king consensus on b = [my candidate tally
//            reached n - t]. Decide the majority candidate if the binary
//            outcome is 1, bottom() otherwise.
//
// If any correct process enters the binary phase with b = 1, every correct
// process's top candidate is the same value z (>= n - 2t > t correct
// processes backed z in round 2, and no other value can out-poll it), so
// "decide z" is consistent. If all correct processes have b = 0, binary
// strong validity forces outcome 0 and everyone decides bottom().
// Unanimity: all correct propose v => everyone backs v, b = 1 everywhere,
// binary decides 1, z = v everywhere.

#include "runtime/process.h"

#include "statics/comm_spec.h"

namespace ba::protocols {

ProtocolFactory turpin_coan_multivalued();

inline Round turpin_coan_rounds(const SystemParams& p) {
  return 2 + 3 * (p.t + 1);
}

/// Static communication declaration: 2 n (n-1) value messages in front of
/// the phase-king bit-consensus blocks.
statics::CommSpec turpin_coan_comm_spec();

}  // namespace ba::protocols
