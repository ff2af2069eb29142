#pragma once

// The fault compiler: lowers one FaultSpec to each execution substrate.
//
//   compile_adversary   -> Adversary            lockstep + sim backends
//   compile_async       -> async::AsyncAdversary the async backend / explore
//
// compile_adversary is total over the grammar and is the reference lowering:
// for the legacy plan names it reproduces the adversaries the campaign
// service built before this IR existed, bit-for-bit (same seed derivation,
// same target groups, same rounds) — campaigns over legacy plan names replay
// byte-identically through it (tests/service/service_runner_test.cpp). The
// simulator takes faults only as an Adversary, so one lowering serves both
// round-based backends (tests/sim/sim_parity_test.cpp, FaultSpecParity).
//
// The async lowering is partial: the async model only knows crash-from-start
// and Byzantine replicas. Kinds outside its fragment throw a
// std::runtime_error naming the plan and the missing lowering.

#include <cstdint>

#include "async/async_process.h"
#include "faults/fault_spec.h"
#include "runtime/fault.h"
#include "runtime/types.h"

namespace ba::faults {

/// Total lowering to the runtime Adversary. `seed` drives the randomized
/// plans (crash rounds, omission coin flips, Byzantine noise) — same seed,
/// same adversary. Throws on budget violations (validate_for).
[[nodiscard]] Adversary compile_adversary(const FaultSpec& spec,
                                          const SystemParams& params,
                                          std::uint64_t seed);

/// Partial lowering to the async model: crash and mute become
/// crash-from-start (the async model has no rounds for "@R" to bind to —
/// crashing at the start is the adversary's strongest choice), silent-byz
/// becomes Byzantine replicas that never send. Throws for
/// isolate/random-omissions/noise-byz.
[[nodiscard]] async::AsyncAdversary compile_async(const FaultSpec& spec,
                                                  const SystemParams& params,
                                                  std::uint64_t seed);

}  // namespace ba::faults
