// The golden-bounds table and the lower-bound cross-check gate.
//
// The golden table pins the closed-form message/round bounds of every
// registered CommSpec: a refactor that changes a protocol's declared
// communication structure must consciously update the golden entry here.
// The cross-check tests assert both directions of the gate — the real spec
// table is consistent with the paper, and a doctored under-counting spec is
// flagged as a spec bug.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>

#include "core/ba.h"

namespace ba::statics {
namespace {

using protocols::find_protocol;
using protocols::ProtocolDescriptor;

/// The CommSpec of every row of the protocol table, in table order.
std::vector<CommSpec> table_specs() {
  std::vector<CommSpec> specs;
  for (const ProtocolDescriptor& row : protocols::protocol_table()) {
    specs.push_back(row.spec);
  }
  return specs;
}

/// The spec of the row `name` resolves to.
const CommSpec& spec_of(std::string_view name) {
  return find_protocol(name)->spec;
}

TEST(CommSpecRegistry, EveryProtocolDeclaresASpec) {
  // One row per protocol family in src/protocols/ (correct protocols plus
  // the deliberately broken candidates) and in src/async/. Growing the
  // library should grow this count alongside a new golden entry below.
  EXPECT_EQ(table_specs().size(), 25u);
  for (const CommSpec& spec : table_specs()) {
    EXPECT_FALSE(spec.protocol.empty());
    EXPECT_FALSE(spec.problem.empty());
    const StaticBounds bounds = analyze(spec);
    EXPECT_EQ(bounds.protocol, spec.protocol);
    // Every declared bound must be non-trivial for a protocol that sends
    // at all: rounds 0 <=> messages 0 (only the silent candidate).
    EXPECT_EQ(bounds.messages.zero(), bounds.rounds.zero())
        << spec.protocol;
  }
}

TEST(CommSpecRegistry, NamesAndAliasesAreUnique) {
  // Across the whole table, so a name can never mean two rows.
  std::set<std::string> seen;
  for (const ProtocolDescriptor& row : protocols::protocol_table()) {
    EXPECT_TRUE(seen.insert(row.spec.protocol).second) << row.spec.protocol;
    for (const std::string& alias : row.aliases) {
      EXPECT_TRUE(seen.insert(alias).second) << alias;
    }
  }
}

TEST(CommSpecRegistry, EverySurfaceNameResolves) {
  // Every name a surface runs reaches a row with a factory, so the budget
  // wiring covers every runnable surface: the sweep's entries
  // (lowerbound::standard_sweep_entries), dr-attack's three, and the names
  // run, attack and the campaign service accepted before the table.
  for (const lowerbound::SweepEntry& entry :
       lowerbound::standard_sweep_entries()) {
    const ProtocolDescriptor* row = find_protocol(entry.protocol_name);
    ASSERT_NE(row, nullptr) << entry.protocol_name;
    EXPECT_NE(row->make, nullptr) << entry.protocol_name;
  }
  for (const char* name :
       {"direct", "relay-ring", "dolev-strong", "silent", "beacon", "gossip",
        "one-shot-echo", "ds-weak", "phase-king", "phase-king-strong",
        "floodset", "eig-strong"}) {
    const ProtocolDescriptor* row = find_protocol(name);
    ASSERT_NE(row, nullptr) << name;
    EXPECT_NE(row->make, nullptr) << name;
  }
  EXPECT_EQ(find_protocol("no-such-protocol"), nullptr);
  EXPECT_FALSE(protocols::make_protocol_by_name("no-such-protocol", 4));
  // Aliases resolve to the same row as the canonical name.
  EXPECT_EQ(find_protocol("ds-weak"), find_protocol("dolev-strong-weak"));
  EXPECT_EQ(find_protocol("direct"), find_protocol("bb-direct"));
  EXPECT_EQ(find_protocol("relay-ring"), find_protocol("bb-relay-ring"));
  // A row without a factory resolves for its spec but runs nothing.
  ASSERT_NE(find_protocol("turpin-coan"), nullptr);
  EXPECT_EQ(find_protocol("turpin-coan")->make, nullptr);
  EXPECT_FALSE(protocols::make_protocol_by_name("turpin-coan", 4));
}

TEST(CommSpecRegistry, EveryAsyncNameResolvesToItsRow) {
  // The async factories live in async/protocols.h; their specs are the
  // table's ben-or and bracha rows. The Ben-Or variants share one envelope:
  // the coin flavour and the broken thresholds change decisions, not
  // message shape.
  const ProtocolDescriptor* ben_or = find_protocol("ben-or");
  const ProtocolDescriptor* bracha = find_protocol("bracha");
  ASSERT_NE(ben_or, nullptr);
  ASSERT_NE(bracha, nullptr);
  for (const async::AsyncProtocolInfo& info : async::async_protocols()) {
    const ProtocolDescriptor* row = find_protocol(info.name);
    EXPECT_TRUE(row == ben_or || row == bracha) << info.name;
  }
}

TEST(CommSpecRegistry, RunnableRowsRunWithinTheirOwnBudget) {
  // Every row with a factory runs fault-free on lockstep and sends no more
  // than its own spec allows, so a factory and a spec in one row describe
  // the same protocol.
  std::size_t runnable = 0;
  for (const ProtocolDescriptor& row : protocols::protocol_table()) {
    if (row.make == nullptr) continue;
    ++runnable;
    for (const SystemParams params : {SystemParams{4, 1}, SystemParams{7, 2}}) {
      std::vector<Value> proposals;
      for (std::uint32_t p = 0; p < params.n; ++p) {
        proposals.push_back(Value::bit(static_cast<int>(p % 2)));
      }
      const RunResult res =
          engine::default_backend().run(params, row.make(params.n), proposals,
                                        Adversary::none());
      EXPECT_LE(res.messages_sent_by_correct,
                budget_at(analyze(row.spec), params).messages)
          << row.spec.protocol << " at n=" << params.n;
    }
  }
  EXPECT_EQ(runnable, 12u);
}

TEST(GoldenBounds, ClosedFormsMatchThePaperArithmetic) {
  const std::map<std::string, std::pair<std::string, std::string>> golden = {
      // protocol -> {messages, rounds}
      {"dolev-strong", {"2*n^2 - n - 1", "t + 1"}},
      {"dolev-strong-weak", {"2*n^2 - n - 1", "t + 1"}},
      {"phase-king-strong",
       {"2*n^2*t + 2*n^2 - n*t - n - t - 1", "3*t + 3"}},
      {"phase-king", {"2*n^2*t + 2*n^2 - n*t - n - t - 1", "3*t + 3"}},
      {"turpin-coan", {"2*n^2*t + 4*n^2 - n*t - 3*n - t - 1", "3*t + 5"}},
      {"unauth-broadcast", {"2*n^2*t + 2*n^2 - n*t - t - 2", "3*t + 4"}},
      {"eig-ic", {"n^2*t + n^2 - n*t - n", "t + 1"}},
      {"eig-strong", {"n^2*t + n^2 - n*t - n", "t + 1"}},
      {"auth-ic", {"n^2*t + n^2 - n*t - n", "t + 1"}},
      {"unauth-ic-bits", {"3*n^2*t + 4*n^2 - 3*n*t - 4*n", "3*t + 4"}},
      {"crusader", {"n^2 - 1", "2"}},
      {"gradecast", {"2*n^2 - n - 1", "3"}},
      {"floodset", {"n^2*t + n^2 - n*t - n", "t + 1"}},
      {"early-deciding-floodset", {"n^2*t + n^2 - n*t - n", "t + 1"}},
      {"external-validity",
       {"2*n^2*t + 2*n^2 - n*t - n - t - 1", "t^2 + 2*t + 1"}},
      {"approx-agreement", {"12*n^2 - 12*n", "12"}},
      {"k-set-agreement", {"n^2*t + n^2 - n*t - n", "t + 1"}},
      {"silent", {"0", "0"}},
      {"leader-beacon", {"n - 1", "1"}},
      {"gossip-ring", {"6*n", "3"}},
      {"one-shot-echo", {"n^2 - n", "1"}},
      {"bb-direct", {"n - 1", "1"}},
      {"bb-relay-ring", {"3*n - 1", "2"}},
      // Asynchronous protocols (virtual-round envelopes, src/async/).
      {"ben-or", {"128*n^2 - 128*n", "128"}},
      {"bracha", {"2*n^2 - 2*n", "3"}},
  };
  ASSERT_EQ(golden.size(), table_specs().size());
  for (const CommSpec& spec : table_specs()) {
    const auto it = golden.find(spec.protocol);
    ASSERT_NE(it, golden.end()) << spec.protocol;
    const StaticBounds bounds = analyze(spec);
    EXPECT_EQ(bounds.messages.to_string(), it->second.first)
        << spec.protocol;
    EXPECT_EQ(bounds.rounds.to_string(), it->second.second)
        << spec.protocol;
  }
}

TEST(GoldenBounds, OnlyEigPayloadsAreSuperpolynomial) {
  for (const CommSpec& spec : table_specs()) {
    const StaticBounds bounds = analyze(spec);
    const bool is_eig =
        spec.protocol == "eig-ic" || spec.protocol == "eig-strong";
    EXPECT_EQ(bounds.payload_bytes.has_value(), !is_eig) << spec.protocol;
  }
}

TEST(Budgets, ConcreteEvaluationAtWorstCaseF) {
  const StaticBounds ds = analyze(spec_of("dolev-strong"));
  const Budget at16 = budget_at(ds, SystemParams{16, 15});
  EXPECT_EQ(at16.messages, 2u * 256 - 16 - 1);  // 495
  EXPECT_EQ(at16.rounds, 16u);
  ASSERT_TRUE(at16.payload_bytes.has_value());

  const StaticBounds pk = analyze(spec_of("phase-king"));
  EXPECT_EQ(budget_at(pk, SystemParams{4, 1}).messages, 54u);

  EXPECT_FALSE(
      budget_at(analyze(spec_of("eig-ic")), SystemParams{4, 1})
          .payload_bytes.has_value());
}

TEST(Budgets, ExplicitFEqualsTheWorstCaseAtFEqualsT) {
  // The f-axis golden criterion: for EVERY registered CommSpec, the 3-arg
  // budget_at at f = t is the value the 2-arg worst-case overload always
  // produced — threading f through statics changed no existing budget.
  const std::vector<SystemParams> grid = {{4, 1},  {7, 2},   {12, 11},
                                          {16, 5}, {32, 31}, {64, 21}};
  for (const CommSpec& spec : table_specs()) {
    const StaticBounds bounds = analyze(spec);
    for (const SystemParams& params : grid) {
      const Budget worst = budget_at(bounds, params);
      const Budget at_t = budget_at(bounds, params, params.t);
      EXPECT_EQ(at_t.messages, worst.messages) << spec.protocol;
      EXPECT_EQ(at_t.rounds, worst.rounds) << spec.protocol;
      EXPECT_EQ(at_t.payload_bytes, worst.payload_bytes) << spec.protocol;
    }
  }
}

TEST(Budgets, BoundsAreMonotoneNonDecreasingInF) {
  // An adversary never gets weaker by corrupting fewer processes than its
  // budget: every declared bound must be monotone non-decreasing in f. The
  // property holds trivially today (no registered spec uses Poly::f()), but
  // it gates any future f-dependent CommSpec.
  const std::vector<SystemParams> grid = {{4, 1}, {7, 2}, {12, 11}, {32, 10}};
  for (const CommSpec& spec : table_specs()) {
    const StaticBounds bounds = analyze(spec);
    for (const SystemParams& params : grid) {
      Budget prev = budget_at(bounds, params, 0);
      for (std::uint32_t f = 1; f <= params.t; ++f) {
        const Budget cur = budget_at(bounds, params, f);
        EXPECT_GE(cur.messages, prev.messages)
            << spec.protocol << " f=" << f;
        EXPECT_GE(cur.rounds, prev.rounds) << spec.protocol << " f=" << f;
        prev = cur;
      }
    }
  }
}

TEST(CrossCheck, RealSpecTableIsConsistentWithThePaper) {
  std::vector<StaticBounds> bounds;
  for (const CommSpec& spec : table_specs()) bounds.push_back(analyze(spec));
  const auto findings = cross_check(bounds, standard_cross_check_grid());
  for (const auto& finding : findings) ADD_FAILURE() << finding.to_string();
}

TEST(CrossCheck, FlagsACorrectClaimingSpecBelowTheLowerBound) {
  // Doctor a spec that claims correctness while declaring one lonely
  // message: the paper says that cannot exist, so the analyzer must call
  // it a spec bug.
  CommSpec doctored = spec_of("dolev-strong");
  doctored.protocol = "doctored-subquadratic";
  doctored.blocks = {{.label = "round 1",
                      .rounds = Poly(1),
                      .patterns = {{.label = "one message",
                                    .senders = Poly(1),
                                    .receivers_per_sender = Poly(1)}}}};
  const auto findings =
      cross_check({analyze(doctored)}, standard_cross_check_grid());
  ASSERT_FALSE(findings.empty());
  EXPECT_EQ(findings.front().protocol, "doctored-subquadratic");
  EXPECT_LT(findings.front().static_messages, findings.front().lower_bound);
  EXPECT_NE(findings.front().detail.find("under-counts"), std::string::npos);
  EXPECT_NE(findings.front().to_string().find("t^2/32"), std::string::npos);
}

TEST(CrossCheck, AttackTargetsAndNonAgreementProblemsAreExempt) {
  EXPECT_TRUE(lower_bound_applies("weak-consensus"));
  EXPECT_TRUE(lower_bound_applies("broadcast"));
  EXPECT_FALSE(lower_bound_applies("approximate-agreement"));
  EXPECT_FALSE(lower_bound_applies("k-set-agreement"));
  // silent claims_correct == false and sends 0 messages: exempt.
  const auto findings = cross_check({analyze(spec_of("silent"))},
                                    standard_cross_check_grid());
  EXPECT_TRUE(findings.empty());
}

TEST(Writers, MarkdownAndJsonCarryTheBoundsTable) {
  std::vector<StaticBounds> bounds = {analyze(spec_of("dolev-strong")),
                                      analyze(spec_of("eig-ic"))};
  std::ostringstream md;
  write_bounds_markdown(md, bounds, SystemParams{16, 15});
  EXPECT_NE(md.str().find("| protocol | problem | claims |"),
            std::string::npos);
  EXPECT_NE(md.str().find("| dolev-strong | broadcast | correct | "
                          "2*n^2 - n - 1 | t + 1 |"),
            std::string::npos);
  EXPECT_NE(md.str().find("superpolynomial"), std::string::npos);
  EXPECT_NE(md.str().find(" 495 | 7 |"), std::string::npos);

  std::ostringstream js;
  write_bounds_json(js, bounds, SystemParams{16, 15});
  EXPECT_NE(js.str().find("\"experiment\": \"static_comm_bounds\""),
            std::string::npos);
  EXPECT_NE(js.str().find("\"messages\": \"2*n^2 - n - 1\""),
            std::string::npos);
  EXPECT_NE(js.str().find("\"messages_at\": 495"), std::string::npos);
  EXPECT_NE(js.str().find("\"payload_bytes\": null"), std::string::npos);
  EXPECT_NE(js.str().find("\"lower_bound_at\": 7"), std::string::npos);
}

}  // namespace
}  // namespace ba::statics
