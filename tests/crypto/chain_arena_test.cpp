// Pins ChainArena (the arena-backed Dolev-Strong chain store) to the seed
// SigChain semantics: verify accepts exactly the Values that
// SigChain::from_value + SigChain::verify accept, and to_value reproduces the
// seed encoding byte-for-byte. Also exercises the arena-specific contracts:
// node deduplication, incremental prefix bytes, and cached-negative MACs.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "crypto/signature.h"
#include "runtime/serde.h"
#include "runtime/value.h"

namespace ba::crypto {
namespace {

constexpr std::uint32_t kN = 7;

std::shared_ptr<const Authenticator> make_auth() {
  return std::make_shared<Authenticator>(0xba5eba11, kN);
}

Signer make_signer(const std::shared_ptr<const Authenticator>& auth,
                   ProcessId p) {
  return Signer{auth, p};
}

// Seed-path acceptance: parse with SigChain::from_value, then verify.
bool seed_accepts(const Authenticator& auth, const Value& v,
                  std::size_t min_len, std::optional<ProcessId> first) {
  auto chain = SigChain::from_value(v);
  if (!chain) return false;
  return chain->verify(auth, min_len, first);
}

// Builds a valid chain Value via the seed SigChain (independent producer).
Value seed_chain(const std::shared_ptr<const Authenticator>& auth,
                 const Value& value, const std::vector<ProcessId>& signers) {
  SigChain chain(value);
  for (ProcessId p : signers) chain.extend(make_signer(auth, p));
  return chain.to_value();
}

// Verifies every candidate in order, one `verify` call each, against one
// arena, so later candidates hit the prefixes and cached negatives earlier
// ones left behind.
void expect_parity(ChainArena& arena, const Authenticator& auth,
                   const std::vector<Value>& candidates, std::size_t min_len,
                   std::optional<ProcessId> first, const std::string& where) {
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const std::uint32_t node = arena.verify(candidates[i], min_len, first);
    const bool want = seed_accepts(auth, candidates[i], min_len, first);
    ASSERT_EQ(node != ChainArena::kNoNode, want) << where << " #" << i;
    if (!want) continue;
    const auto chain = SigChain::from_value(candidates[i]);
    ASSERT_TRUE(chain.has_value()) << where;
    EXPECT_EQ(arena.value_of(node), chain->value()) << where << " #" << i;
    // Round-trip: the arena re-encodes the accepted node byte-identically.
    EXPECT_EQ(encode_value(arena.to_value(node)), encode_value(candidates[i]))
        << where << " #" << i;
    EXPECT_EQ(arena.length(node), chain->length()) << where;
  }
}

TEST(ChainArena, AcceptsWhatSigChainAccepts) {
  auto auth = make_auth();
  ChainArena arena(auth);
  const Value payload{ValueVec{Value{"ds"}, Value{std::int64_t{42}}}};

  std::vector<Value> candidates;
  candidates.push_back(seed_chain(auth, payload, {0}));           // len 1
  candidates.push_back(seed_chain(auth, payload, {0, 1}));        // len 2
  candidates.push_back(seed_chain(auth, payload, {0, 1, 2, 3}));  // len 4
  candidates.push_back(seed_chain(auth, payload, {2, 1}));        // wrong first
  candidates.push_back(seed_chain(auth, payload, {}));            // empty

  for (std::size_t min_len : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                              std::size_t{3}}) {
    expect_parity(arena, *auth, candidates, min_len, ProcessId{0},
                  "first=0 min_len=" + std::to_string(min_len));
    expect_parity(arena, *auth, candidates, min_len, std::nullopt,
                  "first=nullopt min_len=" + std::to_string(min_len));
  }
}

TEST(ChainArena, RejectsMalformedAndForged) {
  auto auth = make_auth();
  ChainArena arena(auth);
  const Value payload{Value{std::int64_t{7}}};

  std::vector<Value> candidates;
  // Not a vec at all.
  candidates.emplace_back(std::int64_t{3});
  // Wrong tag.
  candidates.push_back(Value{ValueVec{Value{"sig"}, payload}});
  // Chain with a non-signature element.
  candidates.push_back(
      Value{ValueVec{Value{"chain"}, payload, Value{std::int64_t{9}}}});
  // Signature with out-of-range signer (non-canonical encoding).
  candidates.push_back(Value{ValueVec{
      Value{"chain"}, payload,
      Value{ValueVec{Value{"sig"}, Value{std::int64_t{0x1'0000'0000LL}},
                     Value{std::int64_t{5}}}}}});
  // Forged MAC.
  {
    Value good = seed_chain(auth, payload, {0, 1});
    ValueVec vec = good.as_vec();
    ValueVec sig = vec[3].as_vec();
    sig[2] = Value{static_cast<std::int64_t>(sig[2].as_int() ^ 1)};
    vec[3] = Value{std::move(sig)};
    candidates.emplace_back(std::move(vec));
  }
  // Duplicate signer.
  {
    Value good = seed_chain(auth, payload, {0, 1});
    ValueVec vec = good.as_vec();
    vec.push_back(vec[2]);  // re-append signer 0's signature
    candidates.emplace_back(std::move(vec));
  }
  // Signer id >= n (unknown key).
  {
    SigChain chain(payload);
    Authenticator big(0xba5eba11, kN + 4);
    auto big_ptr = std::make_shared<Authenticator>(big);
    chain.extend(Signer{big_ptr, kN + 1});
    candidates.push_back(chain.to_value());
  }
  // A valid control row so the accepted list is non-trivial.
  candidates.push_back(seed_chain(auth, payload, {0, 3}));

  expect_parity(arena, *auth, candidates, 1, ProcessId{0}, "malformed grid");
  // Everything except the control row (the last) must have been rejected.
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    EXPECT_EQ(arena.verify(candidates[i], 1, ProcessId{0}) !=
                  ChainArena::kNoNode,
              i + 1 == candidates.size())
        << "#" << i;
  }
}

TEST(ChainArena, ExtendMatchesSeedEncodingAndDeduplicates) {
  auto auth = make_auth();
  ChainArena arena(auth);
  const Value payload{Value{"proposal"}};

  const std::uint32_t r = arena.root(payload);
  EXPECT_EQ(arena.root(payload), r);  // root interning
  EXPECT_EQ(arena.length(r), 0u);

  const std::uint32_t c1 = arena.extend(r, make_signer(auth, 2));
  const std::uint32_t c2 = arena.extend(c1, make_signer(auth, 5));
  EXPECT_EQ(arena.extend(r, make_signer(auth, 2)), c1);   // child dedup
  EXPECT_EQ(arena.extend(c1, make_signer(auth, 5)), c2);  // deeper dedup
  EXPECT_EQ(arena.length(c2), 2u);
  EXPECT_TRUE(arena.contains_signer(c2, 2));
  EXPECT_TRUE(arena.contains_signer(c2, 5));
  EXPECT_FALSE(arena.contains_signer(c2, 0));
  EXPECT_FALSE(arena.contains_signer(r, 2));

  EXPECT_EQ(encode_value(arena.to_value(c2)),
            encode_value(seed_chain(auth, payload, {2, 5})));
  EXPECT_EQ(arena.value_of(c2), payload);
}

// Re-verifying the same (or extended) chains must hit the memo: acceptance
// and the accepted nodes stay identical across repeated passes, and chains
// that share a prefix with already-verified material are still
// accepted/rejected correctly.
TEST(ChainArena, RepeatedAndExtendedBatchesAreStable) {
  auto auth = make_auth();
  ChainArena arena(auth);
  const Value payload{Value{std::int64_t{1}}};

  const Value len2 = seed_chain(auth, payload, {0, 1});
  const Value len3 = seed_chain(auth, payload, {0, 1, 2});
  Value forged = [&] {
    ValueVec vec = len3.as_vec();
    ValueVec sig = vec[4].as_vec();
    sig[2] = Value{static_cast<std::int64_t>(sig[2].as_int() + 1)};
    vec[4] = Value{std::move(sig)};
    return Value{std::move(vec)};
  }();

  const std::uint32_t node2 = arena.verify(len2, 2, ProcessId{0});
  const std::uint32_t node3 = arena.verify(len3, 2, ProcessId{0});
  ASSERT_NE(node2, ChainArena::kNoNode);
  ASSERT_NE(node3, ChainArena::kNoNode);
  EXPECT_EQ(encode_value(arena.to_value(node2)), encode_value(len2));
  EXPECT_EQ(encode_value(arena.to_value(node3)), encode_value(len3));
  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(arena.verify(forged, 2, ProcessId{0}), ChainArena::kNoNode)
        << "round " << round;
    EXPECT_EQ(arena.verify(len2, 2, ProcessId{0}), node2) << "round " << round;
    EXPECT_EQ(arena.verify(len3, 2, ProcessId{0}), node3) << "round " << round;
  }
}

// Randomized parity sweep: mixes of valid chains, truncations, bit flips,
// and reordered signers, compared against the seed path for every
// (min_len, expected_first) combination.
TEST(ChainArena, RandomizedParitySweep) {
  auto auth = make_auth();
  std::mt19937_64 rng(0xC4A1);
  for (int trial = 0; trial < 50; ++trial) {
    ChainArena arena(auth);
    std::vector<Value> candidates;
    for (int c = 0; c < 12; ++c) {
      const Value payload{static_cast<std::int64_t>(rng() % 4)};
      const std::size_t len = rng() % 5;
      std::vector<ProcessId> signers;
      for (std::size_t i = 0; i < len; ++i) {
        signers.push_back(static_cast<ProcessId>(rng() % kN));  // dups likely
      }
      Value v = seed_chain(auth, payload, signers);
      if (len > 0 && rng() % 3 == 0) {  // corrupt one MAC
        ValueVec vec = v.as_vec();
        const std::size_t k = 2 + rng() % len;
        ValueVec sig = vec[k].as_vec();
        sig[2] = Value{static_cast<std::int64_t>(sig[2].as_int() ^ 0x10)};
        vec[k] = Value{std::move(sig)};
        v = Value{std::move(vec)};
      }
      candidates.push_back(std::move(v));
    }
    const std::size_t min_len = rng() % 4;
    std::optional<ProcessId> first;
    if (rng() % 2 == 0) first = static_cast<ProcessId>(rng() % kN);
    expect_parity(arena, *auth, candidates, min_len, first,
                  "trial " + std::to_string(trial));
  }
}

}  // namespace
}  // namespace ba::crypto
