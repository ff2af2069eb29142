// Property battery for per-task seed derivation: a derived seed is a pure
// function of (master_seed, task_index), so it must be stable across any
// reordering of the computation, collision-free over grids far larger than
// anything we run, and independent of how many pool workers compute it.

#include "parallel/experiment_pool.h"
#include "parallel/seed.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <unordered_set>
#include <vector>

namespace ba::parallel {
namespace {

/// Seeds for tasks 0..count-1, in index order.
std::vector<std::uint64_t> index_order_seeds(std::uint64_t master_seed,
                                              std::size_t count) {
  std::vector<std::uint64_t> seeds;
  seeds.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    seeds.push_back(derive_task_seed(master_seed, i));
  }
  return seeds;
}

TEST(SeedDerivation, StableAcrossReorderings) {
  constexpr std::uint64_t kMaster = 0xfeedface;
  constexpr std::size_t kTasks = 1000;
  const std::vector<std::uint64_t> in_order =
      index_order_seeds(kMaster, kTasks);

  // Recompute in a shuffled order: every seed must land on the same value.
  std::vector<std::size_t> order(kTasks);
  std::iota(order.begin(), order.end(), 0);
  std::mt19937_64 rng(7);
  std::shuffle(order.begin(), order.end(), rng);
  for (std::size_t i : order) {
    EXPECT_EQ(derive_task_seed(kMaster, i), in_order[i]) << "index " << i;
  }
}

TEST(SeedDerivation, CollisionFreeOver1e5Tasks) {
  constexpr std::size_t kTasks = 100000;
  const std::vector<std::uint64_t> seeds = index_order_seeds(0xba5eed, kTasks);
  std::unordered_set<std::uint64_t> distinct(seeds.begin(), seeds.end());
  EXPECT_EQ(distinct.size(), kTasks);
}

TEST(SeedDerivation, DistinctMastersDecorrelate) {
  constexpr std::size_t kTasks = 4096;
  const auto a = index_order_seeds(1, kTasks);
  const auto b = index_order_seeds(2, kTasks);
  std::size_t agreements = 0;
  for (std::size_t i = 0; i < kTasks; ++i) {
    if (a[i] == b[i]) ++agreements;
  }
  EXPECT_EQ(agreements, 0u);  // 4096 64-bit collisions: p ~ 2^-52
}

TEST(SeedDerivation, IndependentOfJobs) {
  constexpr std::uint64_t kMaster = 0x5eed;
  constexpr std::size_t kTasks = 512;
  const std::vector<std::uint64_t> serial = index_order_seeds(kMaster, kTasks);
  for (unsigned jobs : {1u, 2u, 8u}) {
    ExperimentPool pool(jobs);
    auto pooled = pool.map<std::uint64_t>(kTasks, [](std::size_t i) {
      return derive_task_seed(kMaster, i);
    });
    EXPECT_EQ(pooled, serial) << "jobs=" << jobs;
  }
}

}  // namespace
}  // namespace ba::parallel
