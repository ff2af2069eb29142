#pragma once

// Binary crusader broadcast [13, Abraham-Stern]: a relaxation of Byzantine
// broadcast in which correct processes may decide the sender's bit or the
// special value bottom(), with the guarantees:
//   * Crusader Agreement: no two correct processes decide different bits
//     (one deciding a bit and another bottom() is allowed);
//   * Sender Validity: if the sender is correct, every correct process
//     decides its bit.
//
// The paper's related work highlights that even this weaker primitive has a
// quadratic message lower bound in its own right [13]. The 2-round echo
// protocol implemented here is the classic unauthenticated construction for
// n > 3t:
//   round 1: the sender multicasts its bit;
//   round 2: everyone echoes the bit it received;
//   decide b if >= n - t echoes of b were observed (own echo included),
//   bottom() otherwise.
// Two correct processes deciding different bits would require n - 2t correct
// echoers per bit, impossible when n > 3t.

#include "runtime/process.h"

#include "statics/comm_spec.h"

namespace ba::protocols {

ProtocolFactory crusader_broadcast_bit(ProcessId sender);

inline Round crusader_rounds() { return 2; }

/// Static communication declaration: (n-1) + n(n-1) bit messages, 2 rounds.
statics::CommSpec crusader_comm_spec();

}  // namespace ba::protocols
