// Task-seed derivation (parallel::derive_task_seed): golden values pin the
// derivation every campaign task seed (service/campaign.h) comes from.

#include <gtest/gtest.h>

#include "parallel/seed.h"

namespace ba::parallel {
namespace {

TEST(SeedBlock, GoldenValuesPinTheDerivation) {
  // Pinned constants: a change to the key-derivation context, the SipHash
  // core, or the index encoding shows up here before it silently
  // invalidates every cached campaign row in the wild.
  EXPECT_EQ(derive_task_seed(1, 0), 0x2355867bfac889d0ULL);
  EXPECT_EQ(derive_task_seed(1, 1), 0x62771f75f32fbb07ULL);
  EXPECT_EQ(derive_task_seed(0xdeadbeef, 12345), 0x2c2c8cfe635acc34ULL);
}

TEST(SeedBlock, DistinctMastersAndIndicesDisagree) {
  // Not a cryptographic claim — just a tripwire against degenerate keying.
  EXPECT_NE(derive_task_seed(1, 0), derive_task_seed(2, 0));
  EXPECT_NE(derive_task_seed(1, 0), derive_task_seed(1, 1));
}

}  // namespace
}  // namespace ba::parallel
