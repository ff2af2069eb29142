// The engine contract: every ExecutionBackend in the table is a drop-in
// substrate for the repo's experiments. The parametrized fixture runs the
// protocol conformance set (Dolev-Strong, EIG, phase-king) and a Theorem 2
// attack-sweep grid under each backend and asserts decisions, message
// counts, and sweep rows are identical to the lockstep reference — plus the
// backend-table/spec-parsing surface and the RunOptions fail-fast contract.

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/ba.h"

namespace ba::engine {
namespace {

std::shared_ptr<crypto::Authenticator> make_auth(std::uint32_t n) {
  return std::make_shared<crypto::Authenticator>(0xba5eba11, n);
}

struct ConformanceCase {
  std::string name;
  SystemParams params;
  ProtocolFactory factory;
  std::vector<Value> proposals;
};

std::vector<ConformanceCase> conformance_cases() {
  std::vector<ConformanceCase> cases;
  {
    ConformanceCase c;
    c.name = "dolev_strong";
    c.params = SystemParams{7, 2};
    c.factory = protocols::dolev_strong_broadcast(make_auth(7), /*sender=*/0);
    c.proposals.assign(7, Value::bit(0));
    c.proposals[0] = Value{"engine-conformance"};
    cases.push_back(std::move(c));
  }
  {
    ConformanceCase c;
    c.name = "eig";
    c.params = SystemParams{7, 2};
    c.factory = protocols::eig_interactive_consistency();
    for (std::uint32_t p = 0; p < 7; ++p) {
      c.proposals.emplace_back(static_cast<std::int64_t>(p));
    }
    cases.push_back(std::move(c));
  }
  {
    ConformanceCase c;
    c.name = "phase_king";
    c.params = SystemParams{7, 2};
    c.factory = protocols::phase_king_consensus();
    for (std::uint32_t p = 0; p < 7; ++p) {
      c.proposals.push_back(Value::bit(static_cast<int>(p % 2)));
    }
    cases.push_back(std::move(c));
  }
  return cases;
}

// ---------------------------------------------------------------------------
// The backend table and spec parsing.
// ---------------------------------------------------------------------------

TEST(EngineRegistry, KnowsTheBuiltins) {
  EXPECT_EQ(backend_names(),
            (std::vector<std::string>{"async", "lockstep", "sim"}));
  for (const std::string& name : backend_names()) {
    BackendSpec spec;
    spec.name = name;
    const BackendHandle backend = make_backend(spec);
    ASSERT_NE(backend, nullptr) << name;
    EXPECT_EQ(backend->name(), name);
  }
}

TEST(EngineRegistry, MakeRejectsUnknownNames) {
  BackendSpec spec;
  spec.name = "warp-drive";
  EXPECT_THROW((void)make_backend(spec), std::invalid_argument);
  EXPECT_THROW((void)make_backend("warp-drive"), std::invalid_argument);
}

TEST(EngineRegistry, ParsesBackendSpecs) {
  auto plain = parse_backend_spec("lockstep");
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(plain->name, "lockstep");

  auto with_model = parse_backend_spec("sim:jitter");
  ASSERT_TRUE(with_model.has_value());
  EXPECT_EQ(with_model->name, "sim");
  EXPECT_EQ(with_model->sim.model, "jitter");

  auto with_seed = parse_backend_spec("sim:gst,42");
  ASSERT_TRUE(with_seed.has_value());
  EXPECT_EQ(with_seed->name, "sim");
  EXPECT_EQ(with_seed->sim.model, "gst");
  EXPECT_EQ(with_seed->sim.seed, 42u);

  // The model token doubles as the async strategy: only the named backend
  // reads its half of the config.
  auto async_spec = parse_backend_spec("async:rr-starve,7");
  ASSERT_TRUE(async_spec.has_value());
  EXPECT_EQ(async_spec->name, "async");
  EXPECT_EQ(async_spec->async.strategy, "rr-starve");
  EXPECT_EQ(async_spec->async.seed, 7u);

  EXPECT_FALSE(parse_backend_spec("").has_value());
  EXPECT_FALSE(parse_backend_spec(":jitter").has_value());
  EXPECT_FALSE(parse_backend_spec("sim:").has_value());
  EXPECT_FALSE(parse_backend_spec("sim:jitter,").has_value());
  EXPECT_FALSE(parse_backend_spec("sim:jitter,4x2").has_value());
  EXPECT_FALSE(parse_backend_spec("async:").has_value());
  EXPECT_FALSE(parse_backend_spec("async:fifo,").has_value());
  // A seed past uint64 range is malformed, not silently wrapped.
  EXPECT_FALSE(
      parse_backend_spec("async:fifo,99999999999999999999999999").has_value());
}

// The diagnostics are part of the CLI surface (--backend forwards them to
// the user verbatim), so the exact wording is pinned: the unknown-name
// message must enumerate the backend table and the malformed-spec
// message must restate the grammar.
TEST(EngineRegistry, UnknownBackendErrorNamesTheRegistry) {
  try {
    (void)make_backend("warp-drive");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "unknown execution backend 'warp-drive' "
                 "(registered: async | lockstep | sim)");
  }
}

TEST(EngineRegistry, MalformedSpecErrorRestatesTheGrammar) {
  for (const char* bad : {":jitter", "sim:", "sim:jitter,", "sim:jitter,4x2"}) {
    try {
      (void)make_backend(bad);
      FAIL() << "expected std::invalid_argument for '" << bad << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                std::string("malformed backend spec '") + bad +
                    "' (want name[:model[,seed]])")
          << bad;
    }
  }
}

TEST(EngineBackend, AsyncConfigValidationIsEager) {
  AsyncBackendConfig bad;
  bad.strategy = "telepathy";
  try {
    async::AsyncBackend backend{bad};
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "AsyncBackend: unknown strategy 'telepathy' "
                 "(fifo | random | delay-decider | rr-starve)");
  }
}

TEST(EngineBackend, AsyncRefusesSynchronousProtocols) {
  const BackendHandle be = make_backend("async");
  const ConformanceCase c = conformance_cases().front();
  try {
    (void)be->run(c.params, c.factory, c.proposals, Adversary::none());
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "AsyncBackend: synchronous protocols cannot run on the "
                 "async scheduler; use run_async with an async protocol "
                 "(ben-or | ben-or-broken | ben-or-local | bracha)");
  }
}

TEST(EngineBackend, AsyncCapabilitiesAndName) {
  const BackendHandle be = make_backend("async:delay-decider,3");
  EXPECT_STREQ(be->name(), "async");
  EXPECT_TRUE(be->has_capability(Capability::kTraces));
  EXPECT_TRUE(be->has_capability(Capability::kLint));
  EXPECT_FALSE(be->has_capability(Capability::kNetMetrics));
  const auto* async_be = dynamic_cast<const async::AsyncBackend*>(be.get());
  ASSERT_NE(async_be, nullptr);
  EXPECT_EQ(async_be->config().strategy, "delay-decider");
  EXPECT_EQ(async_be->config().seed, 3u);
}

TEST(EngineBackend, SimConfigValidation) {
  SimBackendConfig bad_model;
  bad_model.model = "telepathy";
  EXPECT_THROW(SimBackend{bad_model}, std::invalid_argument);

  SimBackendConfig zero_ticks;
  zero_ticks.round_ticks = 0;
  EXPECT_THROW(SimBackend{zero_ticks}, std::invalid_argument);
}

TEST(EngineBackend, CapabilitiesMatchTheSubstrate) {
  const LockstepBackend lockstep;
  EXPECT_STREQ(lockstep.name(), "lockstep");
  EXPECT_TRUE(lockstep.has_capability(Capability::kTraces));
  EXPECT_TRUE(lockstep.has_capability(Capability::kLint));
  EXPECT_FALSE(lockstep.has_capability(Capability::kNetMetrics));

  const SimBackend sim{SimBackendConfig{}};
  EXPECT_STREQ(sim.name(), "sim");
  EXPECT_TRUE(sim.has_capability(Capability::kTraces));
  EXPECT_TRUE(sim.has_capability(Capability::kLint));
  EXPECT_TRUE(sim.has_capability(Capability::kNetMetrics));

  SimBackendConfig unmetered;
  unmetered.collect_metrics = false;
  EXPECT_FALSE(SimBackend{unmetered}.has_capability(Capability::kNetMetrics));
}

TEST(EngineBackend, NetMetricsSurfaceOnlyWhereMeasured) {
  const ConformanceCase c = conformance_cases().front();
  const RunResult lockstep = LockstepBackend{}.run(
      c.params, c.factory, c.proposals, Adversary::none());
  EXPECT_FALSE(lockstep.net.has_value());

  const RunResult sim = SimBackend{SimBackendConfig{}}.run(
      c.params, c.factory, c.proposals, Adversary::none());
  ASSERT_TRUE(sim.net.has_value());
  EXPECT_EQ(sim.net->n, c.params.n);
  EXPECT_GT(sim.net->total_delivered(), 0u);

  SimBackendConfig unmetered;
  unmetered.collect_metrics = false;
  const RunResult quiet = SimBackend{unmetered}.run(
      c.params, c.factory, c.proposals, Adversary::none());
  EXPECT_FALSE(quiet.net.has_value());
}

// ---------------------------------------------------------------------------
// Backend-parametrized conformance + parity.
// ---------------------------------------------------------------------------

class BackendParityTest : public ::testing::TestWithParam<std::string> {
 protected:
  static BackendHandle backend() { return make_backend(GetParam()); }
};

INSTANTIATE_TEST_SUITE_P(Backends, BackendParityTest,
                         ::testing::Values("lockstep", "sim"),
                         [](const auto& info) { return info.param; });

// Decisions, message counts, rounds, and quiescence must match the lockstep
// reference executor for every conformance protocol, fault-free and under
// an isolation adversary.
TEST_P(BackendParityTest, ConformanceMatchesLockstepReference) {
  const BackendHandle be = backend();
  for (const ConformanceCase& c : conformance_cases()) {
    for (const bool isolate : {false, true}) {
      const Adversary adv =
          isolate ? isolate_group(
                        ProcessSet::range(c.params.n - 2, c.params.n), 2)
                  : Adversary::none();
      const std::string label =
          c.name + (isolate ? "/isolated" : "/fault-free");
      const RunResult reference =
          run_execution(c.params, c.factory, c.proposals, adv, {});
      const RunResult got = be->run(c.params, c.factory, c.proposals, adv);
      EXPECT_EQ(got.decisions, reference.decisions) << label;
      EXPECT_EQ(got.messages_sent_by_correct,
                reference.messages_sent_by_correct)
          << label;
      EXPECT_EQ(got.messages_sent_total, reference.messages_sent_total)
          << label;
      EXPECT_EQ(got.rounds_executed, reference.rounds_executed) << label;
      EXPECT_EQ(got.quiesced, reference.quiesced) << label;
      EXPECT_EQ(encode_trace(got.trace), encode_trace(reference.trace))
          << label;
    }
  }
}

TEST_P(BackendParityTest, RunAllCorrectMatchesExplicitProposals) {
  const BackendHandle be = backend();
  const SystemParams params{7, 2};
  const ProtocolFactory factory = protocols::phase_king_consensus();
  const std::vector<Value> unanimous(params.n, Value::bit(1));
  const RunResult explicit_run =
      be->run(params, factory, unanimous, Adversary::none());
  const RunResult convenience =
      be->run_all_correct(params, factory, Value::bit(1));
  EXPECT_EQ(explicit_run.decisions, convenience.decisions);
  EXPECT_EQ(explicit_run.messages_sent_by_correct,
            convenience.messages_sent_by_correct);
}

// Satellite regression: asking for a lint report without recording a trace
// is a configuration error, caught before the run starts — on every backend.
TEST_P(BackendParityTest, LintWithoutTraceFailsFast) {
  const BackendHandle be = backend();
  const ConformanceCase c = conformance_cases().front();
  RunOptions opts;
  opts.record_trace = false;
  opts.lint_trace = true;
  EXPECT_THROW(
      (void)be->run(c.params, c.factory, c.proposals, Adversary::none(), opts),
      std::invalid_argument);
}

// The Theorem 2 attack-sweep grid under each backend: identical rows (bound,
// messages, verdicts, encoded certificates) to the lockstep reference, and —
// per the experiment-pool contract — byte-identical rows for jobs 1/2/8.
TEST_P(BackendParityTest, AttackSweepRowsMatchLockstepAcrossJobCounts) {
  const auto entries = lowerbound::standard_sweep_entries();
  const std::vector<SystemParams> grid = {{12, 11}};

  lowerbound::SweepOptions reference_options;  // lockstep, serial
  const lowerbound::SweepResult reference =
      lowerbound::run_attack_sweep(entries, grid, reference_options);
  ASSERT_EQ(reference.rows.size(), entries.size());

  for (const unsigned jobs : {1u, 2u, 8u}) {
    lowerbound::SweepOptions options;
    options.attack.backend = backend();
    options.jobs = jobs;
    const lowerbound::SweepResult got =
        lowerbound::run_attack_sweep(entries, grid, options);
    ASSERT_EQ(got.rows.size(), reference.rows.size()) << "jobs=" << jobs;
    for (std::size_t i = 0; i < got.rows.size(); ++i) {
      EXPECT_EQ(got.rows[i], reference.rows[i])
          << GetParam() << " jobs=" << jobs << " row " << i << " ("
          << reference.rows[i].protocol_name << ")";
    }
  }
}

}  // namespace
}  // namespace ba::engine
