// R-engine — throughput of the execution-backend seam (src/engine/): the
// bench_runtime workload set (bench_util.h) run through every backend in
// engine::backend_names(), on one dispatch path. Per-backend rows use the
// BENCH_runtime.json row schema, so the lockstep section is directly
// comparable with the runtime baseline and the sim section prices the event
// loop on identical work.
//
// The full run drops BENCH_engine.json next to the binary:
//
//   { "experiment": "engine_throughput",
//     "backends": [ { "backend": "lockstep", "rows": [...] },
//                   { "backend": "sim",      "rows": [...] } ] }
//
// CI's bench-smoke job uploads the artifact alongside BENCH_runtime.json
// and BENCH_sim.json.

#include "bench_util.h"

#include <chrono>
#include <fstream>
#include <map>
#include <string>
#include <tuple>
#include <vector>

namespace ba::bench {
namespace {

struct EngineRow {
  std::string protocol;
  std::uint32_t n{0};
  std::uint32_t t{0};
  double rounds_per_run{0};
  double msgs_per_run{0};
  double rounds_per_sec{0};
  double msgs_per_sec{0};
  double peak_rss_kb{0};
};

// Keyed by (backend, protocol, n); google-benchmark may re-enter a benchmark
// to reach min_time, so the last (longest) measurement wins.
using RowKey = std::tuple<std::string, std::string, std::uint32_t>;
std::map<RowKey, EngineRow>& rows() {
  static std::map<RowKey, EngineRow> r;
  return r;
}

void write_engine_bench_json(std::ostream& os) {
  os << "{\n"
     << "  \"experiment\": \"engine_throughput\",\n"
     << "  \"backends\": [\n";
  const std::vector<std::string> backends = engine::backend_names();
  for (std::size_t b = 0; b < backends.size(); ++b) {
    os << "    {\"backend\": \"" << backends[b] << "\", \"rows\": [\n";
    std::size_t in_backend = 0;
    for (const auto& [key, row] : rows()) {
      if (std::get<0>(key) == backends[b]) ++in_backend;
    }
    std::size_t i = 0;
    for (const auto& [key, row] : rows()) {
      if (std::get<0>(key) != backends[b]) continue;
      os << "      {\"protocol\": \"" << row.protocol << "\", \"n\": " << row.n
         << ", \"t\": " << row.t
         << ", \"rounds_per_run\": " << row.rounds_per_run
         << ", \"msgs_per_run\": " << row.msgs_per_run
         << ", \"rounds_per_sec\": " << row.rounds_per_sec
         << ", \"msgs_per_sec\": " << row.msgs_per_sec
         << ", \"peak_rss_kb\": " << row.peak_rss_kb << "}"
         << (++i < in_backend ? "," : "") << "\n";
    }
    os << "    ]}" << (b + 1 < backends.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

void EngineThroughput(benchmark::State& state, const std::string& backend_name,
                      const std::string& workload_name) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const Workload w = make_workload(workload_name, n);
  const engine::BackendHandle backend = engine::make_backend(backend_name);

  RunOptions opts;
  opts.record_trace = false;  // hot path proper, like bench_runtime

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

  EngineRow row;
  row.protocol = workload_name;
  row.n = n;
  row.t = w.params.t;
  row.rounds_per_run =
      static_cast<double>(rounds) / static_cast<double>(iters);
  row.msgs_per_run = static_cast<double>(msgs) / static_cast<double>(iters);
  row.rounds_per_sec = secs > 0 ? static_cast<double>(rounds) / secs : 0;
  row.msgs_per_sec = secs > 0 ? static_cast<double>(msgs) / secs : 0;
  row.peak_rss_kb = peak_rss_kb();
  rows()[{backend_name, workload_name, n}] = row;

  state.counters["rounds_per_run"] = row.rounds_per_run;
  state.counters["msgs_per_run"] = row.msgs_per_run;
  state.counters["rounds_per_sec"] = row.rounds_per_sec;
  state.counters["msgs_per_sec"] = row.msgs_per_sec;
  state.counters["peak_rss_kb"] = row.peak_rss_kb;
}

void LockstepDolevStrong(benchmark::State& state) {
  EngineThroughput(state, "lockstep", "dolev_strong");
}
void LockstepPhaseKing(benchmark::State& state) {
  EngineThroughput(state, "lockstep", "phase_king");
}
void SimDolevStrong(benchmark::State& state) {
  EngineThroughput(state, "sim", "dolev_strong");
}
void SimPhaseKing(benchmark::State& state) {
  EngineThroughput(state, "sim", "phase_king");
}

}  // namespace
}  // namespace ba::bench

// n in {8, 16, 32}: the eig family is excluded here (its O(n^t) payloads
// dwarf the dispatch cost under measurement; bench_runtime still tracks it).
BENCHMARK(ba::bench::LockstepDolevStrong)
    ->Arg(8)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(ba::bench::LockstepPhaseKing)
    ->Arg(8)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(ba::bench::SimDolevStrong)
    ->Arg(8)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(ba::bench::SimPhaseKing)
    ->Arg(8)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  std::ofstream out("BENCH_engine.json");
  ba::bench::write_engine_bench_json(out);
  return 0;
}
