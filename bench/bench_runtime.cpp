// R-runtime — hot-path throughput of the synchronous round executor
// (`run_execution`). Unlike the experiment benches, which regenerate figures
// of the paper, this bench tracks the *runtime itself*: rounds/sec and
// messages/sec for three protocol families whose payload shapes stress the
// executor differently, across n in {8, 16, 32, 64}:
//
//   * dolev_strong  — authenticated broadcast; payloads are signature chains
//     that grow with the round, so the fan-out of one payload to n-1
//     receivers dominates (the copy-on-write Value fast path);
//   * eig           — interactive consistency; round-r payloads are O(n^t)
//     report vectors (deep nested-vector traffic);
//   * phase_king    — binary consensus; tiny payloads across 3(t+1) rounds
//     (pure round-loop overhead: allocation, routing, dedup).
//
// Counters: rounds_per_sec, msgs_per_sec (throughput), msgs_per_run /
// rounds_per_run (sanity: the workload itself must not drift between
// baselines), peak_rss_kb (getrusage high-water proxy — monotone across the
// process, so it upper-bounds, not isolates, a single benchmark's footprint).
//
// The full run drops BENCH_runtime.json next to the binary; the committed
// copy at the repo root is the perf baseline this series is tracked against
// (see docs/RUNTIME_PERF.md). The workload definitions live in bench_util.h,
// shared with bench_sim and bench_engine; executions dispatch through the
// engine's lockstep backend (docs/ENGINE.md) like every other
// driver in the repo.

#include "bench_util.h"

#include <chrono>
#include <fstream>
#include <iomanip>
#include <map>
#include <string>
#include <vector>

namespace ba::bench {
namespace {

struct RuntimeRow {
  std::string protocol;
  std::uint32_t n{0};
  std::uint32_t t{0};
  double rounds_per_run{0};
  double msgs_per_run{0};
  double rounds_per_sec{0};
  double msgs_per_sec{0};
  double peak_rss_kb{0};
};

// Keyed by (protocol, n); google-benchmark may re-enter a benchmark to reach
// min_time, so the last (longest, most trustworthy) measurement wins.
std::map<std::pair<std::string, std::uint32_t>, RuntimeRow>& rows() {
  static std::map<std::pair<std::string, std::uint32_t>, RuntimeRow> r;
  return r;
}

void write_runtime_bench_json(std::ostream& os) {
  // Fixed-point only: the committed copy is a diffable regression baseline
  // (tools/check_bench_regression.py), and default ostream formatting spills
  // into scientific notation (2.10567e+06) once throughputs pass ~1M.
  os << std::fixed << std::setprecision(2);
  os << "{\n"
     << "  \"experiment\": \"runtime_throughput\",\n"
     << "  \"rows\": [\n";
  std::size_t i = 0;
  for (const auto& [key, row] : rows()) {
    os << "    {\"protocol\": \"" << row.protocol << "\", \"n\": " << row.n
       << ", \"t\": " << row.t << ", \"rounds_per_run\": " << row.rounds_per_run
       << ", \"msgs_per_run\": " << row.msgs_per_run
       << ", \"rounds_per_sec\": " << row.rounds_per_sec
       << ", \"msgs_per_sec\": " << row.msgs_per_sec << ", \"peak_rss_kb\": "
       << static_cast<long long>(row.peak_rss_kb) << "}"
       << (++i < rows().size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

void RuntimeThroughput(benchmark::State& state, const std::string& name) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const Workload w = make_workload(name, n);

  // One registry dispatch per *run* (not per message): the engine seam the
  // other drivers use, at noise-level cost for a throughput bench.
  const engine::BackendHandle backend = engine::make_backend("lockstep");
  RunOptions opts;
  opts.record_trace = false;  // complexity-bench mode: the hot path proper

  std::uint64_t msgs = 0;
  std::uint64_t rounds = 0;
  std::uint64_t iters = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) {
    RunResult res =
        backend->run(w.params, w.factory, w.proposals, Adversary::none(),
                     opts);
    msgs += res.messages_sent_total;
    rounds += res.rounds_executed;
    ++iters;
    benchmark::DoNotOptimize(res.decisions.data());
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  RuntimeRow row;
  row.protocol = name;
  row.n = n;
  row.t = w.params.t;
  row.rounds_per_run =
      static_cast<double>(rounds) / static_cast<double>(iters);
  row.msgs_per_run = static_cast<double>(msgs) / static_cast<double>(iters);
  row.rounds_per_sec =
      secs > 0 ? static_cast<double>(rounds) / secs : 0;
  row.msgs_per_sec = secs > 0 ? static_cast<double>(msgs) / secs : 0;
  row.peak_rss_kb = peak_rss_kb();
  rows()[{name, n}] = row;

  state.counters["rounds_per_run"] = row.rounds_per_run;
  state.counters["msgs_per_run"] = row.msgs_per_run;
  state.counters["rounds_per_sec"] = row.rounds_per_sec;
  state.counters["msgs_per_sec"] = row.msgs_per_sec;
  state.counters["peak_rss_kb"] = row.peak_rss_kb;
}

void DolevStrong(benchmark::State& state) {
  RuntimeThroughput(state, "dolev_strong");
}
void Eig(benchmark::State& state) { RuntimeThroughput(state, "eig"); }
void PhaseKing(benchmark::State& state) {
  RuntimeThroughput(state, "phase_king");
}

}  // namespace
}  // namespace ba::bench

// Eig runs last: it is the largest allocator of the three (tens of MB of
// arena + shared report payloads at n=128 — down from gigabytes before the
// arena encoding), and on small machines the allocator/OS reclaim that
// follows would otherwise bleed into the next family's timing estimate.
BENCHMARK(ba::bench::DolevStrong)
    ->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Arg(128)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(ba::bench::PhaseKing)
    ->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Arg(128)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(ba::bench::Eig)
    ->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Arg(128)
    ->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  std::ofstream out("BENCH_runtime.json");
  ba::bench::write_runtime_bench_json(out);
  return 0;
}
