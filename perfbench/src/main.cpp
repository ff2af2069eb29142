// perfbench: the end-to-end benchmark program (see README.md).
//
//   perfbench --workload exec|audit|campaign --seed N --seconds S
//             --trace 0|1 [--work DIR] [--commit ID]
//
// --trace 0 runs the named workload in a process of its own and prints its
// end-to-end metrics. --trace 1 runs every workload, each in a process of
// its own, with spans on, and prints every per-layer metric; the spans are
// written to DIR/spans/. The last line of stdout is one JSON object with
// the keys correct, attempted, failed and metrics.
//
// The campaign service re-executes this binary for its shard workers, so
// `perfbench serve-worker --state DIR --shard N` runs one.

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.h"
#include "service/json.h"
#include "service/worker.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

/// An untraced run sets up afresh before every this many ops.
constexpr std::size_t kOpsPerSetup = 10;
/// The fewest ops that support op_p90_ms.
const std::size_t kMinOps = min_samples_for(0.9);
/// A run stops measuring after this long even short of its op quota, so it
/// ends well within 180 seconds; too few ops then fail the run.
constexpr double kMaxMeasureSeconds = 120;

struct Args {
  std::string workload;
  std::uint64_t seed{0};
  double seconds{0};
  bool trace{false};
  std::string work{".bench_build/perfbench-work"};
  std::string commit{"unknown"};
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload exec|audit|campaign --seed N "
               "--seconds S --trace 0|1 [--work DIR] [--commit ID]\n"
               "       perfbench serve-worker --state DIR --shard N\n");
  return 2;
}

std::string number(double v) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc() ? std::string(buf, end) : std::string("null");
}

std::string json_quote(const std::string& s) {
  std::string out = "\"";
  ba::service::json_escape_to(out, s);
  return out + "\"";
}

struct Result {
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  Metrics metrics;
};

std::string encode_result(const Result& r) {
  std::string out = "{\"correct\": ";
  out += (r.failed == 0 && r.attempted > 0) ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  const char* sep = "";
  for (const auto& [name, m] : r.metrics) {
    out += sep + json_quote(name) + ": {\"value\": " + number(m.value) +
           ", \"unit\": " + json_quote(m.unit) + "}";
    sep = ", ";
  }
  return out + "}}";
}

Result decode_result(const std::string& text) {
  const ba::service::Json doc = ba::service::Json::parse(text);
  Result r;
  r.attempted = doc.find("attempted")->as_uint();
  r.failed = doc.find("failed")->as_uint();
  for (const auto& [name, m] : doc.find("metrics")->as_object()) {
    r.metrics[name] =
        Metric{m.find("value")->as_double(), m.find("unit")->as_string()};
  }
  return r;
}

std::string host_stamp(const Args& args) {
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; std::getline(info, line);) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
#ifdef __clang__
  const std::string compiler = "clang " __clang_version__;
#else
  const std::string compiler = "gcc " __VERSION__;
#endif
  return "{\"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ", \"cpu\": " + json_quote(cpu) + ", \"compiler\": " + json_quote(compiler) +
         ", \"build_type\": " + json_quote(PERFBENCH_BUILD_TYPE) +
         ", \"commit\": " + json_quote(args.commit) + "}";
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

std::string scratch_dir(const Args& args, const std::string& what) {
  return args.work + "/scratch/" + std::to_string(getpid()) + "-" + what;
}

/// One measured op.
struct OpSample {
  double ms{0};
  double cpu_ms{0};
  /// HostProbe::time_ms just before the op.
  double probe_ms{0};
  std::uint64_t items{0};
  std::uint64_t messages{0};
};

// The body of an untraced run, executed in the workload's own process.
//
// The run measures ops back to back for --seconds (and at least kMinOps),
// timing the host probe just before each op, and reports every duration as
// it would have read on the reference host at rest (at_rest_ms): while
// other tenants keep the host busy, an op runs up to 1.6 times slower for
// minutes at a time, so a run's raw figures mostly report how busy the
// host was during it. CPU time is divided by the same slowdown. The raw
// figures are printed on the line before the result.
// The run sets up afresh before every kOpsPerSetup-th op, each set-up
// replacing the workload the ops use; setup_s is their median, scaled by
// the probe timed right after each.
std::string untraced_run(const Args& args) {
  Result r;
  HostProbe probe;
  std::unique_ptr<Workload> w;
  std::vector<double> raw_setup_ms;
  std::vector<double> setup_ms;
  const auto set_up = [&] {
    w.reset();
    const double cpu0 = cpu_ms();
    const std::int64_t start = now_ns();
    w = make_workload(args.workload, args.seed,
                      scratch_dir(args, "setup" + std::to_string(setup_ms.size())));
    w->run_op(0, nullptr);  // warm-up
    const double ms = static_cast<double>(now_ns() - start) / 1e6;
    raw_setup_ms.push_back(ms);
    setup_ms.push_back(at_rest_ms(ms, cpu_ms() - cpu0, probe.time_ms()));
    const OpOutcome warm = w->check_op(0, nullptr);
    r.attempted += warm.items;
    r.failed += warm.failed;
  };

  const std::int64_t start = now_ns();
  std::vector<OpSample> ops;
  for (std::uint64_t op = 1;; ++op) {
    const double elapsed = seconds_since(start);
    if (ops.size() >= kMinOps && elapsed >= args.seconds) break;
    if (elapsed >= kMaxMeasureSeconds) break;
    if (ops.size() % kOpsPerSetup == 0) set_up();
    OpSample sample;
    sample.probe_ms = probe.time_ms();
    const double cpu0 = cpu_ms();
    const std::int64_t t0 = now_ns();
    w->run_op(op, nullptr);
    const std::int64_t t1 = now_ns();
    sample.cpu_ms = cpu_ms() - cpu0;
    sample.ms = static_cast<double>(t1 - t0) / 1e6;
    const OpOutcome out = w->check_op(op, nullptr);
    sample.items = out.items;
    sample.messages = out.messages;
    ops.push_back(sample);
    r.attempted += out.items;
    r.failed += out.failed;
  }
  w.reset();

  std::vector<double> raw_ms;
  std::vector<double> op_ms;
  std::vector<double> probe_ms;
  double busy_ms = 0;
  double cpu = 0;
  double items = 0;
  double messages = 0;
  for (const OpSample& s : ops) {
    raw_ms.push_back(s.ms);
    op_ms.push_back(at_rest_ms(s.ms, s.cpu_ms, s.probe_ms));
    probe_ms.push_back(s.probe_ms);
    busy_ms += op_ms.back();
    cpu += s.cpu_ms * kProbeRestMs / s.probe_ms;
    items += static_cast<double>(s.items);
    messages += static_cast<double>(s.messages);
  }

  const double busy_s = busy_ms / 1e3;
  r.metrics["items_per_s"] = {items / busy_s, "1/s"};
  r.metrics["msgs_per_s"] = {messages / busy_s, "1/s"};
  r.metrics["op_p50_ms"] = {median(op_ms), "ms"};
  r.metrics["op_p90_ms"] = {percentile(op_ms, 0.9), "ms"};
  r.metrics["cpu_ms_per_item"] = {cpu / items, "ms"};
  r.metrics["setup_s"] = {median(setup_ms) / 1e3, "s"};
  r.metrics["ok_ratio"] = {ok_ratio(r.attempted, r.failed), "ratio"};
  std::printf("# %s: %.1f s, %zu ops (%zu beyond op_p90_ms), %zu set-ups; "
              "as measured: op p50/p90 %.3f/%.3f ms, set-up median %.3f ms; "
              "host probe median %.3f ms (%.2fx the rest time), range "
              "%.3f-%.3f ms\n",
              args.workload.c_str(), seconds_since(start), ops.size(),
              samples_beyond(ops.size(), 0.9), setup_ms.size(),
              median(raw_ms), percentile(raw_ms, 0.9), median(raw_setup_ms),
              median(probe_ms), median(probe_ms) / kProbeRestMs,
              *std::min_element(probe_ms.begin(), probe_ms.end()),
              *std::max_element(probe_ms.begin(), probe_ms.end()));
  return encode_result(r);
}

// The body of one workload's traced run, in the workload's own process.
// Untraced and traced ops alternate on the same inputs: each traced op must
// reproduce its untraced twin exactly, and the two latency series give the
// tracing overhead.
std::string traced_run(const Args& args, const std::string& name,
                       double share_s) {
  Result r;
  auto w = make_workload(name, args.seed, scratch_dir(args, "traced"));
  w->run_op(0, nullptr);  // warm-up
  const OpOutcome warm = w->check_op(0, nullptr);
  r.attempted += warm.items;
  r.failed += warm.failed;

  SpanLog log;
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  const std::size_t min_pairs = 2 * kMinBeyond;
  const std::int64_t start = now_ns();
  for (std::uint64_t op = 0;; ++op) {
    const double elapsed = seconds_since(start);
    if (untraced_ms.size() >= min_pairs && elapsed >= share_s) break;
    if (elapsed >= kMaxMeasureSeconds / 3) break;
    const std::int64_t t0 = now_ns();
    w->run_op(op, nullptr);
    untraced_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    const OpOutcome plain = w->check_op(op, nullptr);

    w->run_op(op, &log);
    const OpOutcome traced = w->check_op(op, &log);
    for (auto it = log.spans().rbegin(); it != log.spans().rend(); ++it) {
      if (it->name == w->root_span() && it->parent < 0) {
        traced_ms.push_back(static_cast<double>(it->duration_ns()) / 1e6);
        break;
      }
    }
    r.attempted += plain.items + traced.items;
    r.failed += plain.failed + traced.failed;
    if (traced.fingerprint != plain.fingerprint) {
      r.failed += traced.items - traced.failed;  // tracing changed the result
    }
  }
  if (traced_ms.size() != untraced_ms.size()) {
    throw std::runtime_error("traced op without a root span");
  }

  w->layer_metrics(log, r.metrics);
  r.metrics[name + ".trace_overhead_pct"] = {
      (median(traced_ms) / median(untraced_ms) - 1.0) * 100.0, "%"};
  w.reset();

  const std::string spans_dir = args.work + "/spans";
  fs::create_directories(spans_dir);
  const std::string spans_path =
      spans_dir + "/" + name + "-seed" + std::to_string(args.seed) + ".ndjson";
  std::ofstream out(spans_path);
  log.write_ndjson(out);
  if (!out) throw std::runtime_error("cannot write " + spans_path);
  std::printf("# %s traced: %zu op pairs, %zu spans written to %s\n",
              name.c_str(), untraced_ms.size(), log.spans().size(),
              spans_path.c_str());
  return encode_result(r);
}

bool run_child(const std::function<std::string()>& body, Result& merged,
               double* peak_rss_mb) {
  const IsolatedResult child = run_isolated(body);
  if (child.exit_code != 0) {
    std::fprintf(stderr, "perfbench: workload process exited with %d\n",
                 child.exit_code);
    return false;
  }
  const Result r = decode_result(child.output);
  merged.attempted += r.attempted;
  merged.failed += r.failed;
  merged.metrics.insert(r.metrics.begin(), r.metrics.end());
  if (peak_rss_mb != nullptr) *peak_rss_mb = child.peak_rss_mb;
  return true;
}

int run(const Args& args) {
  fs::create_directories(args.work + "/scratch");
  std::printf("# host %s\n", host_stamp(args).c_str());
  Result result;
  if (args.trace) {
    const double share_s = args.seconds / 3.0;
    for (const std::string& name : workload_names()) {
      if (!run_child([&] { return traced_run(args, name, share_s); }, result,
                     nullptr)) {
        return 1;
      }
    }
  } else {
    double peak_rss_mb = 0;
    if (!run_child([&] { return untraced_run(args); }, result, &peak_rss_mb)) {
      return 1;
    }
    result.metrics["peak_rss_mb"] = {peak_rss_mb, "MB"};
  }
  std::printf("%s\n", encode_result(result).c_str());
  return 0;
}

int serve_worker(int argc, char** argv) {
  ba::service::WorkerOptions options;
  bool have_state = false;
  bool have_shard = false;
  try {
    for (int i = 0; i + 1 < argc; i += 2) {
      const std::string flag = argv[i];
      if (flag == "--state") {
        options.state_dir = argv[i + 1];
        have_state = true;
      } else if (flag == "--shard") {
        options.shard = static_cast<std::uint32_t>(std::stoul(argv[i + 1]));
        have_shard = true;
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (!have_state || !have_shard || argc % 2 != 0) return usage();
  return ba::service::run_shard_worker(options);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc >= 2 && std::strcmp(argv[1], "serve-worker") == 0) {
    return serve_worker(argc - 2, argv + 2);
  }
  Args args;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  try {
    for (int i = 1; i < argc; i += 2) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return usage();
      const std::string value = argv[i + 1];
      if (flag == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
        have_seconds = args.seconds > 0;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage();
        args.trace = value == "1";
        have_trace = true;
      } else if (flag == "--work") {
        args.work = value;
      } else if (flag == "--commit") {
        args.commit = value;
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  const auto& names = workload_names();
  if (!have_workload || !have_seed || !have_seconds || !have_trace ||
      std::find(names.begin(), names.end(), args.workload) == names.end()) {
    return usage();
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
