// Static-vs-dynamic conformance: the soundness half of the CommSpec
// contract. For every runnable protocol, the messages correct processes
// actually send — fault-free and under the probe's isolation adversaries,
// on BOTH execution backends — must stay within the statically derived
// budget. The budget-gating tests then close the loop through the linter:
// a run given its true budget lints clean, and an intentionally
// under-budgeted run fails the budget invariant.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <vector>

#include "core/ba.h"

namespace ba {
namespace {

struct ConformanceCase {
  const char* spec_name;
  SystemParams params;
  ProtocolFactory protocol;
  Value proposal;
};

std::vector<ConformanceCase> conformance_cases() {
  // Small systems keep the suite fast; EIG runs at n=4, t=1 where its
  // superpolynomial reports are still tiny. Authenticated protocols run at
  // (5, 2), unauthenticated ones at the minimal n > 3t point (4, 1).
  auto auth5 = std::make_shared<crypto::Authenticator>(0xc0, 5);
  std::vector<ConformanceCase> cases;
  cases.push_back({"dolev-strong", {5, 2},
                   protocols::dolev_strong_broadcast(auth5, 0),
                   Value::bit(1)});
  cases.push_back({"dolev-strong-weak", {5, 2},
                   protocols::weak_consensus_auth(auth5), Value::bit(1)});
  cases.push_back({"phase-king", {4, 1}, protocols::weak_consensus_unauth(),
                   Value::bit(1)});
  cases.push_back({"phase-king-strong", {4, 1},
                   protocols::phase_king_consensus(), Value::bit(0)});
  cases.push_back({"turpin-coan", {4, 1},
                   protocols::turpin_coan_multivalued(), Value{7}});
  cases.push_back({"unauth-broadcast", {4, 1},
                   protocols::unauth_broadcast_bit(0), Value::bit(1)});
  cases.push_back({"eig-ic", {4, 1}, protocols::eig_interactive_consistency(),
                   Value::bit(1)});
  cases.push_back({"eig-strong", {4, 1}, protocols::eig_strong_consensus(),
                   Value::bit(1)});
  cases.push_back({"auth-ic", {5, 2},
                   protocols::auth_interactive_consistency(auth5),
                   Value::bit(1)});
  cases.push_back({"unauth-ic-bits", {4, 1},
                   protocols::unauth_interactive_consistency_bits(),
                   Value::bit(1)});
  cases.push_back({"crusader", {4, 1}, protocols::crusader_broadcast_bit(0),
                   Value::bit(1)});
  cases.push_back({"gradecast", {4, 1}, protocols::gradecast_bit(0),
                   Value::bit(1)});
  cases.push_back({"floodset", {4, 1}, protocols::floodset_consensus(),
                   Value{2}});
  cases.push_back({"early-deciding-floodset", {4, 1},
                   protocols::early_deciding_floodset(), Value{2}});
  cases.push_back({"external-validity", {5, 2},
                   protocols::external_validity_agreement(
                       auth5, [](const Value& v) { return v.is_str(); }),
                   Value{"tx"}});
  cases.push_back({"approx-agreement", {4, 1},
                   protocols::approximate_agreement(1, 1024), Value{16}});
  cases.push_back({"k-set-agreement", {4, 1}, protocols::k_set_agreement(2),
                   Value{3}});
  // The attack targets declare (sub-quadratic) specs too; their budgets
  // must still cap what they send in correct-process executions.
  cases.push_back({"silent", {4, 1}, protocols::wc_candidate_silent(1),
                   Value::bit(1)});
  cases.push_back({"leader-beacon", {4, 1},
                   protocols::wc_candidate_leader_beacon(), Value::bit(1)});
  cases.push_back({"gossip-ring", {4, 1},
                   protocols::wc_candidate_gossip_ring(2, 3), Value::bit(1)});
  cases.push_back({"one-shot-echo", {4, 1},
                   protocols::wc_candidate_one_shot_echo(), Value::bit(1)});
  cases.push_back({"bb-direct", {4, 1}, protocols::bb_candidate_direct(0),
                   Value::bit(1)});
  cases.push_back({"bb-relay-ring", {4, 1},
                   protocols::bb_candidate_relay_ring(0, 2), Value::bit(1)});
  return cases;
}

statics::Budget budget_for(const char* spec_name, const SystemParams& params) {
  const auto* row = protocols::find_protocol(spec_name);
  EXPECT_NE(row, nullptr) << spec_name;
  return statics::budget_at(statics::analyze(row->spec), params);
}

void expect_observed_within_budget(const engine::ExecutionBackend& backend) {
  for (const ConformanceCase& c : conformance_cases()) {
    const statics::Budget budget = budget_for(c.spec_name, c.params);
    const std::uint64_t worst = lowerbound::worst_observed_messages_via(
        backend, c.params, c.protocol, c.proposal,
        lowerbound::default_probe_schedule(c.params));
    EXPECT_LE(worst, budget.messages)
        << c.spec_name << " on " << backend.name()
        << ": observed exceeds the static bound — CommSpec under-counts";
  }
}

TEST(StaticConformance, ObservedMessagesWithinBudgetOnLockstep) {
  expect_observed_within_budget(engine::default_backend());
}

TEST(StaticConformance, ObservedMessagesWithinBudgetOnSim) {
  engine::BackendHandle sim = engine::make_backend("sim");
  ASSERT_NE(sim, nullptr);
  expect_observed_within_budget(*sim);
}

TEST(StaticConformance, ObservedRoundsWithinBudget) {
  // The rounds polynomial bounds *communication* rounds. Protocols that
  // terminate by quiescence detection execute one extra silent round before
  // the runtime notices nothing was sent, hence the +1 slack; protocols
  // with a fixed round count (dolev-strong) stop exactly at the bound.
  for (const ConformanceCase& c : conformance_cases()) {
    const statics::Budget budget = budget_for(c.spec_name, c.params);
    RunResult res = run_all_correct(c.params, c.protocol, c.proposal);
    EXPECT_LE(static_cast<std::uint64_t>(res.rounds_executed),
              budget.rounds + 1)
        << c.spec_name;
  }
}

// --- Budget gating through the linter -----------------------------------

TEST(BudgetGate, TrueBudgetLintsCleanOnBothBackends) {
  const SystemParams params{4, 1};
  const statics::Budget budget = budget_for("phase-king", params);
  RunOptions opts;
  opts.lint_trace = true;
  opts.message_budget = budget.messages;
  const std::vector<Value> proposals(params.n, Value::bit(1));
  for (const char* backend_name : {"lockstep", "sim"}) {
    engine::BackendHandle backend = engine::make_backend(backend_name);
    ASSERT_NE(backend, nullptr) << backend_name;
    RunResult res =
        backend->run(params, protocols::weak_consensus_unauth(), proposals,
                     Adversary::none(), opts);
    ASSERT_TRUE(res.lint.has_value()) << backend_name;
    EXPECT_TRUE(res.lint->clean())
        << backend_name << ": " << res.lint->summary();
  }
}

TEST(BudgetGate, OverBudgetTraceFailsTheLinterOnBothBackends) {
  // Phase-king at (4, 1) hits its static bound exactly (54 messages), so a
  // budget of bound - 1 makes the same execution an over-budget trace.
  const SystemParams params{4, 1};
  const statics::Budget budget = budget_for("phase-king", params);
  ASSERT_GT(budget.messages, 0u);
  RunOptions opts;
  opts.lint_trace = true;
  opts.message_budget = budget.messages - 1;
  const std::vector<Value> proposals(params.n, Value::bit(1));
  for (const char* backend_name : {"lockstep", "sim"}) {
    engine::BackendHandle backend = engine::make_backend(backend_name);
    ASSERT_NE(backend, nullptr) << backend_name;
    RunResult res =
        backend->run(params, protocols::weak_consensus_unauth(), proposals,
                     Adversary::none(), opts);
    ASSERT_TRUE(res.lint.has_value()) << backend_name;
    EXPECT_GT(res.lint->count(analysis::LintCheck::kBudget), 0u)
        << backend_name << ": over-budget trace must break the budget "
        << "invariant";
    // The other invariant families stay clean: the trace itself is fine,
    // only the budget is violated.
    EXPECT_EQ(res.lint->count(analysis::LintCheck::kConservation), 0u);
    EXPECT_EQ(res.lint->count(analysis::LintCheck::kDeterminism), 0u);
  }
}

TEST(BudgetGate, ZeroBudgetFlagsAnyProtocolThatSends) {
  const SystemParams params{4, 1};
  RunOptions opts;
  opts.lint_trace = true;
  opts.message_budget = 0;
  RunResult res = run_all_correct(
      params, protocols::wc_candidate_leader_beacon(), Value::bit(1), opts);
  ASSERT_TRUE(res.lint.has_value());
  EXPECT_GT(res.lint->count(analysis::LintCheck::kBudget), 0u);
  EXPECT_FALSE(res.lint_clean());
}

TEST(BudgetGate, SilentProtocolFitsAZeroBudget) {
  const SystemParams params{4, 1};
  const statics::Budget budget = budget_for("silent", params);
  EXPECT_EQ(budget.messages, 0u);
  RunOptions opts;
  opts.lint_trace = true;
  opts.message_budget = budget.messages;
  RunResult res = run_all_correct(params, protocols::wc_candidate_silent(1),
                                  Value::bit(1), opts);
  ASSERT_TRUE(res.lint.has_value());
  EXPECT_TRUE(res.lint->clean()) << res.lint->summary();
}

// The sweep surfaces the same comparison as a bound-vs-observed column.
TEST(SweepIntegration, RowsCarryStaticBoundsAndRespectThem) {
  lowerbound::SweepResult result = lowerbound::run_attack_sweep(
      lowerbound::standard_sweep_entries(), {{12, 11}},
      lowerbound::AttackOptions{});
  ASSERT_FALSE(result.rows.empty());
  for (const lowerbound::SweepRow& row : result.rows) {
    ASSERT_TRUE(row.static_bound.has_value()) << row.protocol_name;
    EXPECT_LE(row.max_messages, *row.static_bound) << row.protocol_name;
  }
  std::ostringstream md;
  lowerbound::write_markdown(md, result);
  EXPECT_NE(md.str().find("static bound | obs/static"), std::string::npos);
  std::ostringstream js;
  lowerbound::write_bench_json(js, result);
  EXPECT_NE(js.str().find("\"static_bound\":"), std::string::npos);
  EXPECT_NE(js.str().find("\"obs_static_ratio\":"), std::string::npos);
}

}  // namespace
}  // namespace ba
