#pragma once

// Per-task seed derivation for parallel experiment grids.
//
// A campaign that randomizes per grid point (adversary schedules, proposal
// vectors, random validity tables) must derive each point's seed from the
// point's INDEX, never from the order in which a thread pool happens to run
// the points — otherwise "parallel == serial" breaks silently. We derive
// seeds with SipHash-2-4 keyed off the campaign's master seed, which also
// gives collision-freeness in practice across grids far larger than
// anything we run (tested to 1e5 tasks in tests/parallel/). The campaign
// service seeds each task with one call (CampaignSpec::task_at); golden
// values pin the derivation in tests/parallel/seed_block_test.cpp.

#include <cstdint>

namespace ba::parallel {

/// The seed for task `task_index` of a campaign keyed by `master_seed`.
/// A pure function of its two arguments: independent of worker count,
/// scheduling order, and everything else.
std::uint64_t derive_task_seed(std::uint64_t master_seed,
                               std::uint64_t task_index);

}  // namespace ba::parallel
