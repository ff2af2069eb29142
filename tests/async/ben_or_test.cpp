// Ben-Or '83 under the asynchronous executor: the seeded termination
// campaign (>= 1e3 ideal-coin seeds at (4,1) and (7,2), every run decides,
// quiesces, and satisfies the safety conjunction), the local-coin safety
// cohort (safety always, termination not asserted per-run), and the
// deliberately broken variant's behaviour (unanimous inputs stay correct;
// split inputs disagree).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/ba.h"

namespace ba::async {
namespace {

std::vector<Value> bit_proposals(const std::vector<int>& bits) {
  std::vector<Value> out;
  out.reserve(bits.size());
  for (const int b : bits) out.push_back(Value::bit(b));
  return out;
}

std::vector<int> split_bits(std::uint32_t n) {
  std::vector<int> bits;
  for (std::uint32_t p = 0; p < n; ++p) {
    bits.push_back(static_cast<int>(p % 2));
  }
  return bits;
}

/// One campaign point: run `seeds` ideal-coin executions, each under a
/// random schedule derived from the same seed, and require every one to
/// quiesce with all processes decided and the safety conjunction intact.
void run_termination_campaign(const SystemParams& params,
                              std::uint64_t seeds) {
  const std::vector<int> proposals = split_bits(params.n);
  const std::vector<Value> values = bit_proposals(proposals);
  AsyncRunOptions options;
  options.record_trace = false;  // 1e3+ runs: skip the n*rounds storage
  std::uint64_t max_deliveries_seen = 0;
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    BenOrConfig config;
    config.coin = ideal_coin(seed);
    const AsyncProtocolFactory factory = ben_or_factory(config);
    auto scheduler = make_scheduler("random", seed, params.n);
    const AsyncRunResult res = run_async(params, factory, values,
                                         AsyncAdversary::none(), *scheduler,
                                         options);
    ASSERT_TRUE(res.run.quiesced) << "seed " << seed;
    for (ProcessId p = 0; p < params.n; ++p) {
      ASSERT_TRUE(res.run.decisions[p].has_value())
          << "seed " << seed << " p" << p;
    }
    const auto violation = binary_consensus_safety(
        params, proposals, ProcessSet{}, res.run.decisions);
    ASSERT_FALSE(violation.has_value())
        << "seed " << seed << ": " << violation->property << " — "
        << violation->detail;
    max_deliveries_seen = std::max(max_deliveries_seen, res.deliveries);
  }
  // The shared coin collapses disagreement fast: no run should come close
  // to the kBenOrMaxPhases envelope (2 n (n-1) sends per phase).
  EXPECT_LT(max_deliveries_seen,
            static_cast<std::uint64_t>(kBenOrMaxPhases) * 2 * params.n *
                (params.n - 1));
}

TEST(BenOrTermination, IdealCoinCampaignAt4x1) {
  run_termination_campaign(SystemParams{4, 1}, 1000);
}

TEST(BenOrTermination, IdealCoinCampaignAt7x2) {
  run_termination_campaign(SystemParams{7, 2}, 1000);
}

TEST(BenOrLocalCoin, SafetyHoldsAcrossScheduleCohort) {
  // With independent per-process coins, termination is only probabilistic —
  // a run may exhaust kBenOrMaxPhases undecided. Safety must hold anyway.
  const SystemParams params{4, 1};
  const std::vector<int> proposals = split_bits(params.n);
  const std::vector<Value> values = bit_proposals(proposals);
  AsyncRunOptions options;
  options.record_trace = false;
  std::uint64_t decided_runs = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    BenOrConfig config;
    config.coin = local_coin(seed);
    const AsyncProtocolFactory factory = ben_or_factory(config);
    auto scheduler = make_scheduler("random", seed * 31 + 7, params.n);
    const AsyncRunResult res = run_async(params, factory, values,
                                         AsyncAdversary::none(), *scheduler,
                                         options);
    const auto violation = binary_consensus_safety(
        params, proposals, ProcessSet{}, res.run.decisions);
    ASSERT_FALSE(violation.has_value())
        << "seed " << seed << ": " << violation->property << " — "
        << violation->detail;
    bool all = true;
    for (ProcessId p = 0; p < params.n; ++p) {
      all = all && res.run.decisions[p].has_value();
    }
    if (all) decided_runs++;
  }
  // Aggregate liveness: the overwhelming majority of local-coin runs still
  // decide well inside the phase cap.
  EXPECT_GT(decided_runs, 150u);
}

TEST(BenOr, UnanimousInputsDecideTheUnanimousValue) {
  const SystemParams params{4, 1};
  for (const int bit : {0, 1}) {
    BenOrConfig config;
    config.coin = ideal_coin(1);
    const AsyncProtocolFactory factory = ben_or_factory(config);
    auto fifo = make_scheduler("fifo", 1, params.n);
    const AsyncRunResult res =
        run_async(params, factory, bit_proposals({bit, bit, bit, bit}),
                  AsyncAdversary::none(), *fifo);
    for (ProcessId p = 0; p < params.n; ++p) {
      ASSERT_TRUE(res.run.decisions[p].has_value()) << "bit " << bit;
      EXPECT_EQ(*res.run.decisions[p], Value::bit(bit)) << "p" << p;
    }
    EXPECT_TRUE(res.run.quiesced);
  }
}

TEST(BenOr, FactoryRequiresACoin) {
  EXPECT_THROW((void)ben_or_factory(BenOrConfig{}), std::invalid_argument);
}

TEST(BenOr, StaysWithinTheStaticBudget) {
  // The CommSpec envelope (128 n^2 - 128 n messages) must cap what any
  // schedule extracts from correct processes; the async-model lint enforces
  // it through the kBudget invariant.
  const SystemParams params{4, 1};
  const protocols::ProtocolDescriptor* row = protocols::find_protocol("ben-or");
  ASSERT_NE(row, nullptr);
  const statics::Budget budget =
      statics::budget_at(statics::analyze(row->spec), params);
  BenOrConfig config;
  config.coin = ideal_coin(3);
  const AsyncProtocolFactory factory = ben_or_factory(config);
  AsyncRunOptions options;
  options.lint_trace = true;
  options.message_budget = budget.messages;
  auto scheduler = make_scheduler("delay-decider", 1, params.n);
  const AsyncRunResult res =
      run_async(params, factory, bit_proposals(split_bits(params.n)),
                AsyncAdversary::none(), *scheduler, options);
  ASSERT_TRUE(res.run.lint.has_value());
  EXPECT_TRUE(res.run.lint->clean()) << res.run.lint->summary();
  EXPECT_LE(res.run.messages_sent_by_correct, budget.messages);
}

TEST(BenOrBroken, UnanimousInputsSurviveTheWeakenedThresholds) {
  const SystemParams params{4, 1};
  BenOrConfig config;
  config.coin = ideal_coin(1);
  config.broken = true;
  const AsyncProtocolFactory factory = ben_or_factory(config);
  auto fifo = make_scheduler("fifo", 1, params.n);
  const AsyncRunResult res =
      run_async(params, factory, bit_proposals({1, 1, 1, 1}),
                AsyncAdversary::none(), *fifo);
  for (ProcessId p = 0; p < params.n; ++p) {
    ASSERT_TRUE(res.run.decisions[p].has_value());
    EXPECT_EQ(*res.run.decisions[p], Value::bit(1));
  }
}

TEST(BenOrBroken, SplitInputsViolateAgreement) {
  // The registry's ben-or-broken at the default instance: the weakened
  // thresholds let two processes decide apart already under fifo delivery —
  // the certificate the exploration engine minimizes to zero choices.
  const SystemParams params{4, 1};
  const auto info = find_async_protocol("ben-or-broken");
  ASSERT_NE(info, nullptr);
  EXPECT_TRUE(info->deliberately_broken);
  const std::vector<int> proposals = split_bits(params.n);
  auto fifo = make_scheduler("fifo", 1, params.n);
  const AsyncRunResult res =
      run_async(params, info->make(1), bit_proposals(proposals),
                AsyncAdversary::none(), *fifo);
  const auto violation = binary_consensus_safety(params, proposals,
                                                 ProcessSet{},
                                                 res.run.decisions);
  ASSERT_TRUE(violation.has_value());
  EXPECT_EQ(violation->property, "agreement");
}

TEST(AsyncProtocolRegistry, NamesAreSortedAndResolvable) {
  const auto& protocols = async_protocols();
  ASSERT_EQ(protocols.size(), 4u);
  EXPECT_EQ(protocols[0].name, "ben-or");
  EXPECT_EQ(protocols[1].name, "ben-or-broken");
  EXPECT_EQ(protocols[2].name, "ben-or-local");
  EXPECT_EQ(protocols[3].name, "bracha");
  EXPECT_STREQ(async_protocol_list(),
               "ben-or | ben-or-broken | ben-or-local | bracha");
  for (const AsyncProtocolInfo& info : protocols) {
    EXPECT_EQ(find_async_protocol(info.name), &info);
  }
  EXPECT_EQ(find_async_protocol("no-such-protocol"), nullptr);
}

}  // namespace
}  // namespace ba::async
