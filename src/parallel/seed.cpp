#include "parallel/seed.h"

#include <array>

#include "crypto/siphash.h"

namespace ba::parallel {
namespace {

/// Domain separation from the other derive_key contexts in the tree.
constexpr std::uint64_t kTaskSeedContext = 0x7a5c5eedULL;

}  // namespace

std::uint64_t derive_task_seed(std::uint64_t master_seed,
                               std::uint64_t task_index) {
  const crypto::SipKey key = crypto::derive_key(master_seed, kTaskSeedContext);
  std::array<std::uint8_t, 8> le{};
  for (std::size_t i = 0; i < 8; ++i) {
    le[i] = static_cast<std::uint8_t>((task_index >> (8 * i)) & 0xff);
  }
  return crypto::siphash24(key, le);
}

}  // namespace ba::parallel
