// E5 — Matching upper bounds: message complexity of the library's correct
// protocols versus the t^2/32 lower bound, as n grows.
//
// Expected shape: every correct protocol scales at least quadratically in t
// and clears the bound everywhere (ratio = msgs / bound >= 1, typically
// orders of magnitude); Dolev-Strong broadcast is Theta(n^2) per extracted
// value, phase king Theta(n^2 t), authenticated IC Theta(n^3).

#include "bench_util.h"
#include "protocols/registry.h"
#include "statics/analyzer.h"

namespace ba::bench {
namespace {

void report(benchmark::State& state, const SystemParams& params,
            std::uint64_t msgs, const char* spec_name) {
  const std::uint64_t bound = lowerbound::lemma1_bound(params.t);
  state.counters["n"] = params.n;
  state.counters["t"] = params.t;
  state.counters["msgs"] = static_cast<double>(msgs);
  state.counters["bound_t2_32"] = static_cast<double>(bound);
  state.counters["ratio"] =
      bound == 0 ? 0 : static_cast<double>(msgs) / static_cast<double>(bound);
  // Bound-vs-observed: the statically derived worst-case cap next to what
  // the probe actually measured (obs/static <= 1 whenever the CommSpec is
  // sound; the conformance suite asserts it, the bench just records it).
  if (const auto* row = protocols::find_protocol(spec_name)) {
    const std::uint64_t static_bound =
        statics::budget_at(statics::analyze(row->spec), params).messages;
    state.counters["static_bound"] = static_cast<double>(static_bound);
    state.counters["obs_static_ratio"] =
        static_bound == 0 ? 0
                          : static_cast<double>(msgs) /
                                static_cast<double>(static_bound);
  }
}

void UpperBoundDolevStrongBroadcast(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  SystemParams params{n, n / 2};
  auto auth = make_auth(n);
  auto bb = protocols::dolev_strong_broadcast(auth, 0);
  std::uint64_t msgs = 0;
  for (auto _ : state) {
    msgs = worst_observed_messages(params, bb, Value::bit(0),
                                   lowerbound::default_probe_schedule(params));
  }
  report(state, params, msgs, "dolev-strong");
}

void UpperBoundWeakConsensusAuth(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  SystemParams params{n, n - 1};  // maximal t: the hardest bound
  auto auth = make_auth(n);
  auto wc = protocols::weak_consensus_auth(auth);
  std::uint64_t msgs = 0;
  for (auto _ : state) {
    msgs = worst_observed_messages(params, wc, Value::bit(0),
                                   lowerbound::default_probe_schedule(params));
  }
  report(state, params, msgs, "dolev-strong-weak");
}

void UpperBoundPhaseKing(benchmark::State& state) {
  const auto t = static_cast<std::uint32_t>(state.range(0));
  SystemParams params{3 * t + 1, t};
  std::uint64_t msgs = 0;
  for (auto _ : state) {
    msgs = worst_observed_messages(params, protocols::phase_king_consensus(),
                                   Value::bit(0),
                                   lowerbound::default_probe_schedule(params));
  }
  report(state, params, msgs, "phase-king-strong");
}

void UpperBoundAuthIC(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  SystemParams params{n, n / 3};
  auto auth = make_auth(n);
  auto ic = protocols::auth_interactive_consistency(auth);
  std::uint64_t msgs = 0;
  for (auto _ : state) {
    msgs = fault_free_messages(params, ic, Value::bit(0));
  }
  report(state, params, msgs, "auth-ic");
}

void UpperBoundUnauthICBits(benchmark::State& state) {
  const auto t = static_cast<std::uint32_t>(state.range(0));
  SystemParams params{3 * t + 1, t};
  std::uint64_t msgs = 0;
  for (auto _ : state) {
    msgs = fault_free_messages(
        params, protocols::unauth_interactive_consistency_bits(),
        Value::bit(0));
  }
  report(state, params, msgs, "unauth-ic-bits");
}

void UpperBoundEigIC(benchmark::State& state) {
  const auto t = static_cast<std::uint32_t>(state.range(0));
  SystemParams params{3 * t + 1, t};
  std::uint64_t msgs = 0;
  for (auto _ : state) {
    msgs = fault_free_messages(params,
                               protocols::eig_interactive_consistency(),
                               Value::bit(0));
  }
  report(state, params, msgs, "eig-ic");
}

void UpperBoundExternalValidity(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  SystemParams params{n, n / 2};
  auto auth = make_auth(n);
  auto ev = protocols::external_validity_agreement(
      auth, [](const Value& v) { return v.is_str(); });
  std::uint64_t msgs = 0;
  for (auto _ : state) {
    msgs = fault_free_messages(params, ev, Value{"tx"});
  }
  report(state, params, msgs, "external-validity");
}

}  // namespace
}  // namespace ba::bench

BENCHMARK(ba::bench::UpperBoundDolevStrongBroadcast)
    ->Arg(8)->Arg(16)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(ba::bench::UpperBoundWeakConsensusAuth)
    ->Arg(8)->Arg(16)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(ba::bench::UpperBoundPhaseKing)
    ->Arg(2)->Arg(4)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(ba::bench::UpperBoundAuthIC)
    ->Arg(8)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(ba::bench::UpperBoundUnauthICBits)
    ->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(ba::bench::UpperBoundEigIC)
    ->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(ba::bench::UpperBoundExternalValidity)
    ->Arg(8)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
