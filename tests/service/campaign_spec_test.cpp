// CampaignSpec: JSON round trip, the deterministic task expansion order,
// spec hashing, fault-plan compilation, and validate()'s rejection surface.
// The expansion order is load-bearing — every resume/merge guarantee of the
// service rests on task_at being a pure function of the spec.

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "faults/compile.h"
#include "faults/fault_spec.h"
#include "parallel/seed.h"
#include "service/campaign.h"
#include "service/json.h"

namespace ba::service {
namespace {

CampaignSpec small_spec() {
  CampaignSpec spec;
  spec.name = "unit";
  spec.master_seed = 11;
  spec.protocols = {"phase-king", "floodset"};
  spec.grid = {{4, 1}, {7, 2}};
  spec.backends = {"lockstep", "sim:sync,1"};
  spec.faults = {"fault-free", "crash:1", "isolate:1"};
  spec.seeds = 5;
  return spec;
}

TEST(CampaignSpec, JsonRoundTripIsIdentity) {
  const CampaignSpec spec = small_spec();
  const CampaignSpec reparsed = CampaignSpec::from_json(spec.to_json());
  EXPECT_EQ(spec, reparsed);
  EXPECT_EQ(spec.to_json(), reparsed.to_json());
}

TEST(CampaignSpec, FromJsonAppliesDefaults) {
  const CampaignSpec spec = CampaignSpec::from_json(
      R"({"protocols": ["phase-king"], "grid": ["4:1"]})");
  EXPECT_EQ(spec.backends, std::vector<std::string>{"lockstep"});
  EXPECT_EQ(spec.faults, std::vector<std::string>{"fault-free"});
  EXPECT_EQ(spec.seeds, 1u);
  EXPECT_EQ(spec.master_seed, 1u);
  EXPECT_EQ(spec.task_count(), 1u);
}

TEST(CampaignSpec, GridAcceptsBothPointForms) {
  const CampaignSpec spec = CampaignSpec::from_json(
      R"({"protocols": ["phase-king"], "grid": ["4:1", {"n": 8, "t": 2}]})");
  ASSERT_EQ(spec.grid.size(), 2u);
  EXPECT_EQ(spec.grid[0], (SystemParams{4, 1}));
  EXPECT_EQ(spec.grid[1], (SystemParams{8, 2}));
}

TEST(CampaignSpec, ExpansionOrderIsSeedFastestProtocolMajor) {
  const CampaignSpec spec = small_spec();
  EXPECT_EQ(spec.task_count(), 2u * 2u * 2u * 3u * 5u);

  // Index 0: first value on every axis.
  const TaskSpec first = spec.task_at(0);
  EXPECT_EQ(first.protocol, "phase-king");
  EXPECT_EQ(first.params, (SystemParams{4, 1}));
  EXPECT_EQ(first.backend, "lockstep");
  EXPECT_EQ(first.fault, "fault-free");
  EXPECT_EQ(first.seed_index, 0u);

  // Seed index is the fastest axis...
  EXPECT_EQ(spec.task_at(1).seed_index, 1u);
  EXPECT_EQ(spec.task_at(1).fault, "fault-free");
  // ...then fault...
  EXPECT_EQ(spec.task_at(5).fault, "crash:1");
  EXPECT_EQ(spec.task_at(5).backend, "lockstep");
  // ...then backend...
  EXPECT_EQ(spec.task_at(15).backend, "sim:sync,1");
  EXPECT_EQ(spec.task_at(15).params, (SystemParams{4, 1}));
  // ...then grid, protocol-major last.
  EXPECT_EQ(spec.task_at(30).params, (SystemParams{7, 2}));
  EXPECT_EQ(spec.task_at(60).protocol, "floodset");

  EXPECT_THROW((void)spec.task_at(spec.task_count()), std::runtime_error);
}

TEST(CampaignSpec, TaskSeedsComeFromTheSharedDerivation) {
  const CampaignSpec spec = small_spec();
  for (const std::uint64_t i : {0u, 1u, 17u, 59u}) {
    EXPECT_EQ(spec.task_at(i).seed,
              parallel::derive_task_seed(spec.master_seed, i));
    EXPECT_EQ(spec.task_at(i).index, i);
  }
}

TEST(CampaignSpec, SpecHashesAreDistinctPerTaskAndSpec) {
  const CampaignSpec spec = small_spec();
  std::set<std::uint64_t> hashes;
  for (std::uint64_t i = 0; i < spec.task_count(); ++i) {
    hashes.insert(task_spec_hash(spec, spec.task_at(i)));
  }
  EXPECT_EQ(hashes.size(), spec.task_count());

  // A different master seed re-keys every task (no stale cache reuse).
  CampaignSpec reseeded = small_spec();
  reseeded.master_seed = 12;
  EXPECT_NE(task_spec_hash(spec, spec.task_at(0)),
            task_spec_hash(reseeded, reseeded.task_at(0)));
}

TEST(CampaignSpec, CanonicalEncodingNamesEveryAxis) {
  const CampaignSpec spec = small_spec();
  const std::string enc = canonical_task_encoding(spec, spec.task_at(5));
  EXPECT_NE(enc.find("protocol=phase-king"), std::string::npos);
  EXPECT_NE(enc.find("fault=crash:1"), std::string::npos);
  EXPECT_NE(enc.find("backend=lockstep"), std::string::npos);
  EXPECT_NE(enc.find("master=11"), std::string::npos);
}

TEST(CampaignSpec, ValidateRejectsBadSpecs) {
  const auto rejects = [](const char* json) {
    EXPECT_THROW((void)CampaignSpec::from_json(json), std::runtime_error)
        << json;
  };
  rejects(R"({"protocols": [], "grid": ["4:1"]})");
  rejects(R"({"protocols": ["no-such-protocol"], "grid": ["4:1"]})");
  rejects(R"({"protocols": ["phase-king"], "grid": []})");
  rejects(R"({"protocols": ["phase-king"], "grid": ["4:4"]})");
  rejects(R"({"protocols": ["phase-king"], "grid": ["4:1"], "seeds": 0})");
  rejects(
      R"({"protocols": ["phase-king"], "grid": ["4:1"],
          "backends": ["no-such-backend"]})");
  rejects(
      R"({"protocols": ["phase-king"], "grid": ["4:1"],
          "faults": ["no-such-fault"]})");
  // crash:2 exceeds the t=1 budget of the 4:1 grid point.
  rejects(
      R"({"protocols": ["phase-king"], "grid": ["4:1"],
          "faults": ["crash:2"]})");
  rejects(
      R"({"protocols": ["phase-king"], "grid": ["4:1"],
          "faults": ["random-omissions:1001"]})");
  rejects(R"({"protocols": ["phase-king"], "grid": ["4:1"], "bogus": 1})");
}

TEST(CampaignSpec, AsyncBackendIsRejectedUpFront) {
  // The async backend refuses synchronous protocols at run time; campaigns
  // must fail at validate() instead of mid-shard.
  EXPECT_THROW((void)CampaignSpec::from_json(
                   R"({"protocols": ["phase-king"], "grid": ["4:1"],
                       "backends": ["async:fifo,1"]})"),
               std::runtime_error);
}

TEST(CampaignSpec, FaultAxisExpandsKindTimesCounts) {
  CampaignSpec spec;
  spec.name = "axis";
  spec.protocols = {"phase-king"};
  spec.grid = {{7, 2}};
  spec.faults.clear();
  spec.fault_axis = {"isolate"};
  spec.validate();
  EXPECT_TRUE(spec.has_fault_axis());

  // Default counts: 0..min t over the grid.
  EXPECT_EQ(spec.effective_faults(),
            (std::vector<std::string>{"isolate:0", "isolate:1", "isolate:2"}));
  EXPECT_EQ(spec.task_count(), 3u);
  EXPECT_EQ(spec.task_at(1).fault, "isolate:1");

  // Explicit counts and a second kind: axis-major, counts fastest.
  spec.fault_axis = {"crash", "silent-byz"};
  spec.fault_counts = {0, 2};
  spec.validate();
  EXPECT_EQ(spec.effective_faults(),
            (std::vector<std::string>{"crash:0", "crash:2", "silent-byz:0",
                                      "silent-byz:2"}));
}

TEST(CampaignSpec, FaultAxisJsonRoundTripIsIdentity) {
  CampaignSpec spec;
  spec.name = "axis";
  spec.protocols = {"phase-king"};
  spec.grid = {{7, 2}};
  spec.faults.clear();
  spec.fault_axis = {"isolate"};
  spec.fault_counts = {0, 1};
  const CampaignSpec reparsed = CampaignSpec::from_json(spec.to_json());
  EXPECT_EQ(spec, reparsed);
  EXPECT_EQ(spec.to_json(), reparsed.to_json());

  // Legacy specs (no axis) keep their pre-fault-axis encoding byte-for-byte:
  // no fault_axis/fault_counts fields appear.
  const std::string legacy = small_spec().to_json();
  EXPECT_EQ(legacy.find("fault_axis"), std::string::npos);
  EXPECT_EQ(legacy.find("fault_counts"), std::string::npos);
}

TEST(CampaignSpec, FaultAxisRejectionSurface) {
  const auto rejects = [](const char* json) {
    EXPECT_THROW((void)CampaignSpec::from_json(json), std::runtime_error)
        << json;
  };
  // faults and fault_axis are mutually exclusive.
  rejects(
      R"({"protocols": ["phase-king"], "grid": ["4:1"],
          "faults": ["fault-free"], "fault_axis": ["isolate"]})");
  // fault_counts without an axis.
  rejects(
      R"({"protocols": ["phase-king"], "grid": ["4:1"],
          "fault_counts": [1]})");
  // Non-sweepable axis kinds.
  rejects(
      R"({"protocols": ["phase-king"], "grid": ["4:1"],
          "fault_axis": ["fault-free"]})");
  rejects(
      R"({"protocols": ["phase-king"], "grid": ["4:1"],
          "fault_axis": ["random-omissions"]})");
  rejects(
      R"({"protocols": ["phase-king"], "grid": ["4:1"],
          "fault_axis": ["no-such-kind"]})");
  // Counts beyond the smallest grid point's budget.
  rejects(
      R"({"protocols": ["phase-king"], "grid": ["4:1"],
          "fault_axis": ["crash"], "fault_counts": [2]})");
}

TEST(CampaignSpec, DeeplyNestedJsonIsThePinnedParseError) {
  // A spec whose "name" is `depth` nested arrays inside the top-level
  // object, so the document nests depth + 1 levels.
  const auto spec_with = [](std::size_t depth) {
    return R"({"protocols": ["phase-king"], "grid": ["4:1"], "name": )" +
           std::string(depth, '[') + std::string(depth, ']') + "}";
  };
  const std::string prefix = spec_with(0).substr(0, spec_with(0).size() - 1);
  // At the limit the document parses, and the spec rejects the field type;
  // one level over it (and far over it) the parser refuses it at the first
  // bracket past the limit, before any field is read.
  try {
    (void)CampaignSpec::from_json(spec_with(kMaxJsonNesting - 1));
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).find("nesting"), std::string::npos)
        << e.what();
  }
  for (const std::size_t depth : {std::size_t{kMaxJsonNesting},
                                  std::size_t{100000}}) {
    try {
      (void)CampaignSpec::from_json(spec_with(depth));
      FAIL() << "expected std::runtime_error at depth " << depth;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()),
                "json: nesting too deep at byte " +
                    std::to_string(prefix.size() + kMaxJsonNesting - 1));
    }
  }
}

TEST(CampaignSpec, UnknownFaultPlanErrorIsThePinnedString) {
  // Satellite contract: serve-side validation reports the exact
  // faults::parse_fault_spec message, unwrapped, so run/sim/sweep/serve all
  // print the same bytes for the same bad plan.
  try {
    (void)CampaignSpec::from_json(
        R"({"protocols": ["phase-king"], "grid": ["4:1"],
            "faults": ["no-such-fault"]})");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(),
                 "unknown fault plan 'no-such-fault' (known: fault-free "
                 "crash:K mute:K isolate:K random-omissions:P silent-byz:K "
                 "noise-byz:K)");
  }
}

TEST(FaultPlans, CampaignTasksCompileThroughTheFaultsIr) {
  // The service has no fault vocabulary of its own any more: a task's fault
  // string round-trips through faults::checked_fault_spec and the compiled
  // adversary is the documented one.
  const SystemParams params{7, 2};
  const faults::FaultSpec spec = faults::checked_fault_spec("crash:2", params);
  EXPECT_EQ(spec.format(), "crash:2");
  const Adversary crash = faults::compile_adversary(spec, params, 9);
  EXPECT_EQ(crash.faulty.size(), 2u);
  EXPECT_TRUE(crash.faulty.contains(5) && crash.faulty.contains(6));
  EXPECT_TRUE(crash.byzantine.empty());
}

TEST(Proposals, DeterministicBitVectors) {
  const std::vector<Value> a = derive_proposals(99, 8);
  const std::vector<Value> b = derive_proposals(99, 8);
  ASSERT_EQ(a.size(), 8u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i] == b[i]);
  }
  // Different seeds should (overwhelmingly) differ somewhere on 32 bits.
  bool any_diff = false;
  const std::vector<Value> c = derive_proposals(100, 32);
  const std::vector<Value> d = derive_proposals(101, 32);
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (!(c[i] == d[i])) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

}  // namespace
}  // namespace ba::service
