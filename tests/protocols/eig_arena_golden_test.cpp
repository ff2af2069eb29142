// Golden equivalence of the arena EIG encoding against the retained seed
// implementation (eig_reference_*): over a (protocol × n × t × fault-plan)
// grid, executed on both the lockstep and sim backends, decisions AND
// byte-encoded traces must be identical. The trace comparison is the strong
// claim: every report payload an arena process emits — ordering, label
// encoding, value sharing — is byte-for-byte what the seed's
// std::map-over-labels implementation emitted.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "adversary/byzantine.h"
#include "adversary/omission.h"
#include "engine/backend.h"
#include "engine/registry.h"
#include "protocols/eig.h"
#include "runtime/sync_system.h"
#include "runtime/trace_io.h"

namespace ba::protocols {
namespace {

struct FaultPlan {
  std::string name;
  Adversary adv;
};

std::vector<FaultPlan> fault_plans(std::uint32_t n, std::uint32_t t) {
  std::vector<FaultPlan> plans;
  plans.push_back({"fault_free", Adversary::none()});
  if (t >= 1) {
    {
      FaultPlan p{"silent_byz", {}};
      p.adv.faulty = ProcessSet{{n - 1}};
      p.adv.byzantine = p.adv.faulty;
      p.adv.byzantine_factory = byz_silent();
      plans.push_back(std::move(p));
    }
    {
      FaultPlan p{"noise_byz", {}};
      p.adv.faulty = ProcessSet{{1}};
      p.adv.byzantine = p.adv.faulty;
      p.adv.byzantine_factory = byz_noise(0x5eed + n, t + 2);
      plans.push_back(std::move(p));
    }
    {
      FaultPlan p{"equivocate_byz", {}};
      p.adv.faulty = ProcessSet{{0}};
      p.adv.byzantine = p.adv.faulty;
      p.adv.byzantine_factory = byz_equivocate_bits(t + 1);
      plans.push_back(std::move(p));
    }
    {
      FaultPlan p{"random_omissions",
                  random_omissions(ProcessSet{{n - 1}}, 0xd1ce + n, 40)};
      plans.push_back(std::move(p));
    }
  }
  if (t >= 2) {
    FaultPlan p{"two_noisy_byz", {}};
    p.adv.faulty = ProcessSet{{0, n - 1}};
    p.adv.byzantine = p.adv.faulty;
    p.adv.byzantine_factory = byz_noise(0xabcd, t + 2);
    plans.push_back(std::move(p));
  }
  return plans;
}

std::vector<Value> grid_proposals(std::uint32_t n) {
  std::vector<Value> proposals;
  proposals.reserve(n);
  for (std::uint32_t p = 0; p < n; ++p) {
    // Mixed kinds so interning covers ints, strings, and null.
    if (p % 5 == 4) {
      proposals.push_back(Value::null());
    } else if (p % 3 == 2) {
      proposals.emplace_back("prop-" + std::to_string(p));
    } else {
      proposals.emplace_back(static_cast<std::int64_t>(p * 7 + 1));
    }
  }
  return proposals;
}

struct Variant {
  std::string name;
  ProtocolFactory arena;
  ProtocolFactory reference;
};

void expect_golden(const Variant& variant, std::uint32_t n, std::uint32_t t) {
  SystemParams params{n, t};
  ASSERT_TRUE(eig_paths::layout_fits(n, t))
      << "grid point would silently test reference-vs-reference";
  const std::vector<Value> proposals = grid_proposals(n);
  for (const std::string& backend_name : {std::string("lockstep"),
                                          std::string("sim")}) {
    const engine::BackendHandle backend =
        engine::make_backend(backend_name);
    for (const FaultPlan& plan : fault_plans(n, t)) {
      RunOptions opts;
      opts.record_trace = true;
      RunResult arena_res =
          backend->run(params, variant.arena, proposals, plan.adv, opts);
      RunResult ref_res =
          backend->run(params, variant.reference, proposals, plan.adv, opts);
      const std::string where = variant.name + " n=" + std::to_string(n) +
                                " t=" + std::to_string(t) + " " + plan.name +
                                " @" + backend_name;
      ASSERT_EQ(arena_res.decisions.size(), ref_res.decisions.size()) << where;
      for (std::size_t p = 0; p < arena_res.decisions.size(); ++p) {
        EXPECT_EQ(arena_res.decisions[p], ref_res.decisions[p])
            << where << " process " << p;
      }
      EXPECT_EQ(arena_res.messages_sent_total, ref_res.messages_sent_total)
          << where;
      EXPECT_EQ(arena_res.rounds_executed, ref_res.rounds_executed) << where;
      EXPECT_EQ(encode_trace(arena_res.trace), encode_trace(ref_res.trace))
          << where << ": traces diverge";
    }
  }
}

Variant ic_variant() {
  return {"eig-ic", eig_interactive_consistency(),
          eig_reference_interactive_consistency()};
}
Variant strong_variant() {
  return {"eig-strong", eig_strong_consensus(),
          eig_reference_strong_consensus()};
}

TEST(EigArenaGolden, InteractiveConsistencySmall) {
  expect_golden(ic_variant(), 4, 1);
  expect_golden(ic_variant(), 5, 1);
}

TEST(EigArenaGolden, InteractiveConsistencyTwoFaults) {
  expect_golden(ic_variant(), 7, 2);
  expect_golden(ic_variant(), 9, 2);
}

TEST(EigArenaGolden, InteractiveConsistencyThreeFaults) {
  expect_golden(ic_variant(), 10, 3);
}

TEST(EigArenaGolden, StrongConsensusSmall) {
  expect_golden(strong_variant(), 4, 1);
  expect_golden(strong_variant(), 5, 1);
}

TEST(EigArenaGolden, StrongConsensusTwoFaults) {
  expect_golden(strong_variant(), 7, 2);
}

TEST(EigArenaGolden, StrongConsensusThreeFaults) {
  expect_golden(strong_variant(), 10, 3);
}

// t = 0 degenerates to one exchange of proposals; the arena stores leaves
// directly (no tallies), which is its own code path.
TEST(EigArenaGolden, DegenerateZeroFaults) {
  expect_golden(ic_variant(), 3, 0);
  expect_golden(strong_variant(), 3, 0);
}

// The shared ReportCache must not leak state across runs in a way that
// changes behaviour: re-running the same factory twice is byte-stable.
TEST(EigArenaGolden, FactoryReuseIsByteStable) {
  SystemParams params{5, 1};
  const std::vector<Value> proposals = grid_proposals(5);
  ProtocolFactory factory = eig_interactive_consistency();
  RunOptions opts;
  opts.record_trace = true;
  RunResult a = run_execution(params, factory, proposals, Adversary::none(),
                              opts);
  RunResult b = run_execution(params, factory, proposals, Adversary::none(),
                              opts);
  EXPECT_EQ(encode_trace(a.trace), encode_trace(b.trace));
}

// The ReportCache is shared by every run of one factory, at any n. A dense
// path id names a label only together with n (id 6 is [1, 2] at n = 4 and
// [0, 6] at n = 7), so runs that alternate sizes must each encode exactly
// what a fresh factory encodes.
TEST(EigArenaGolden, FactoryServesEverySystemSize) {
  ProtocolFactory shared = eig_interactive_consistency();
  RunOptions opts;
  opts.record_trace = true;
  for (const std::uint32_t n : {4u, 7u, 4u}) {
    const SystemParams params{n, 2};
    for (const std::vector<Value>& proposals :
         {grid_proposals(n), std::vector<Value>(n, Value{std::int64_t{1}})}) {
      const RunResult got = run_execution(params, shared, proposals,
                                          Adversary::none(), opts);
      const RunResult want =
          run_execution(params, eig_interactive_consistency(), proposals,
                        Adversary::none(), opts);
      EXPECT_EQ(encode_trace(got.trace), encode_trace(want.trace))
          << "n=" << n;
    }
  }
}

}  // namespace
}  // namespace ba::protocols
