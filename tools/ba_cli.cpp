// ba_cli — command-line front end for the library. `ba_cli` alone prints the
// usage text, generated from the command tables below: each subcommand
// starts by parsing its cli::Command table (tools/cli.h), which binds every
// positional and option to the variable it fills and checks each argument.
//
// Every execution dispatches through engine::make_backend: SPEC is
// `lockstep`, `sim[:model[,seed]]`, or `async[:strategy[,seed]]` (e.g.
// `sim:jitter,42`, `async:rr-starve,7`). `run` and `sim` are one command
// whose default backend is lockstep and sim respectively; the sim-model
// flags refine whichever backend --backend chose. The async backend refuses
// synchronous protocols — its surface is `explore` and the async API.

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cli.h"
#include "core/ba.h"

namespace {

using namespace ba;
using cli::fail;
using cli::positional;

int usage();

// Options several commands share, each declared once.
cli::Arg backend_option(std::optional<std::string>* spec) {
  return {"--backend", "SPEC", spec};
}
cli::Arg fault_option(std::string* plan) { return {"--fault", "SPEC", plan}; }
cli::Arg fault_seed_option(std::uint64_t* seed) {
  return {"--fault-seed", "S", seed};
}
cli::Arg jobs_option(std::uint32_t* jobs) { return {"--jobs", "N", jobs}; }
cli::Arg save_trace_option(std::string* path) {
  return {"--save-trace", "FILE", path};
}

/// Writes `data` to `path`; false after reporting the failure.
template <class Data>
bool save(const std::string& path, const Data& data) {
  if (cli::write_file(path, data)) return true;
  fail(1, "failed to write " + path);
  return false;
}

// The validity properties `solvability` accepts: make_property and the
// usage text both read this table.
struct PropertyBuilder {
  std::string_view name;
  validity::ValidityProperty (*make)(std::uint32_t n, std::uint32_t t);
};

constexpr PropertyBuilder kProperties[] = {
    {"weak", [](auto n, auto t) { return validity::weak_validity(n, t); }},
    {"strong", [](auto n, auto t) { return validity::strong_validity(n, t); }},
    {"sender",
     [](auto n, auto t) { return validity::sender_validity(n, t, 0); }},
    {"ic", [](auto n, auto t) { return validity::ic_validity(n, t); }},
    {"any-proposed",
     [](auto n, auto t) { return validity::any_proposed_validity(n, t); }},
    {"constant",
     [](auto n, auto t) { return validity::constant_validity(n, t); }},
};

std::optional<validity::ValidityProperty> make_property(
    std::string_view name, std::uint32_t n, std::uint32_t t) {
  for (const PropertyBuilder& property : kProperties) {
    if (property.name == name) return property.make(n, t);
  }
  return std::nullopt;
}

/// A --backend spec, or nullopt after reporting malformed syntax.
std::optional<engine::BackendSpec> backend_spec(const std::string& text) {
  auto spec = engine::parse_backend_spec(text);
  if (!spec) {
    fail(2, "--backend: malformed spec '" + text +
            "' (want name[:model[,seed]])");
  }
  return spec;
}

/// The backend `spec` names, or null after reporting an unknown name or a
/// bad sim config.
engine::BackendHandle open_backend(const engine::BackendSpec& spec) {
  try {
    return engine::make_backend(spec);
  } catch (const std::exception& e) {
    fail(2, std::string("--backend: ") + e.what());
    return nullptr;
  }
}

/// The statically derived message budget of `protocol`'s row at `params`
/// with `f` actual faults; nullopt for a name outside the protocol table.
std::optional<std::uint64_t> static_budget(
    const protocols::ProtocolDescriptor* protocol, const SystemParams& params,
    std::uint32_t f) {
  if (protocol == nullptr) return std::nullopt;
  return statics::budget_at(statics::analyze(protocol->spec), params, f)
      .messages;
}

/// The line an attack prints for the violation it constructed.
void print_violation(const lowerbound::ViolationCertificate& cert,
                     const ProtocolFactory& protocol) {
  const auto check = lowerbound::verify_certificate(cert, protocol);
  std::printf("violation: %s (replay verification: %s)\n",
              to_string(cert.kind).c_str(),
              check.ok ? "OK" : check.error.c_str());
}

int cmd_bound(int argc, char** argv) {
  std::uint32_t t = 0;
  const cli::Command cmd{"ba_cli bound", {positional("t", &t)}, {}};
  if (!cli::parse(cmd, argc, argv)) return 2;
  std::printf("t = %u  =>  t^2/32 = %llu messages\n", t,
              static_cast<unsigned long long>(lowerbound::lemma1_bound(t)));
  return 0;
}

int cmd_attack(int argc, char** argv) {
  std::string name, save_path;
  std::optional<std::uint32_t> n_arg, t_arg;
  const cli::Command cmd{
      "ba_cli attack",
      {positional("protocol", &name), positional("n", &n_arg, true),
       positional("t", &t_arg, true)},
      {{"--save", "FILE", &save_path}}};
  if (!cli::parse(cmd, argc, argv)) return 2;
  // (12, 8) by default; n alone means t = n - 1.
  const std::uint32_t n = n_arg.value_or(12);
  const std::uint32_t t = t_arg ? *t_arg : n_arg ? n - 1 : 8;
  auto protocol = protocols::make_protocol_by_name(name, n);
  if (!protocol) return usage();
  auto report =
      lowerbound::attack_weak_consensus(SystemParams{n, t}, *protocol);
  std::printf("%s", report.narrative.c_str());
  std::printf("max message complexity observed: %llu (bound t^2/32 = %llu)\n",
              static_cast<unsigned long long>(report.max_message_complexity),
              static_cast<unsigned long long>(report.bound));
  if (!report.certificate) {
    std::printf("no violation constructed: protocol survives the attack\n");
    return 0;
  }
  print_violation(*report.certificate, *protocol);
  if (!save_path.empty()) {
    if (!save(save_path, lowerbound::encode_certificate(*report.certificate))) {
      return 1;
    }
    std::printf("certificate saved to %s\n", save_path.c_str());
  }
  return 0;
}

int cmd_verify(int argc, char** argv) {
  std::string file, name;
  // t is accepted for symmetry with attack; the certificate carries its own.
  std::optional<std::uint32_t> n_arg, t_arg;
  const cli::Command cmd{
      "ba_cli verify",
      {positional("FILE", &file), positional("protocol", &name),
       positional("n", &n_arg, true), positional("t", &t_arg, true)},
      {}};
  if (!cli::parse(cmd, argc, argv)) return 2;
  auto bytes = cli::read_file(file);
  if (!bytes) return fail(1, "cannot read " + file);
  auto cert = lowerbound::decode_certificate(*bytes);
  if (!cert) return fail(1, "not a valid certificate file");
  const ExecutionTrace& exec = cert->execution;
  auto protocol =
      protocols::make_protocol_by_name(name, n_arg.value_or(exec.params.n));
  if (!protocol) return usage();
  auto check = lowerbound::verify_certificate(*cert, *protocol);
  std::printf("certificate: %s violation on n=%u t=%u execution (%u rounds)\n",
              to_string(cert->kind).c_str(), exec.params.n, exec.params.t,
              exec.rounds);
  std::printf("narrative: %s\n", cert->narrative.c_str());
  std::printf("verification: %s\n", check.ok ? "OK" : check.error.c_str());
  return check.ok ? 0 : 1;
}

int cmd_dr_attack(int argc, char** argv) {
  std::string name;
  std::optional<std::uint32_t> n_arg, t_arg;
  const cli::Command cmd{
      "ba_cli dr-attack",
      {positional("direct|relay-ring|dolev-strong", &name),
       positional("n", &n_arg, true), positional("t", &t_arg, true)},
      {}};
  if (!cli::parse(cmd, argc, argv)) return 2;
  const std::uint32_t n = n_arg.value_or(12);
  const std::uint32_t t = t_arg.value_or(n / 2);
  // Checked here too, so a bad (n, t) gets the CLI's own message and exit 2.
  if (!SystemParams{n, t}.valid()) return fail(2, "dr-attack: want t < n");
  // The cut attack needs a designated sender: the table's broadcast rows.
  const protocols::ProtocolDescriptor* row = protocols::find_protocol(name);
  if (row == nullptr || row->make == nullptr ||
      row->spec.problem != "broadcast") {
    return usage();
  }
  const ProtocolFactory protocol = row->make(n);
  auto report = lowerbound::attack_broadcast(SystemParams{n, t}, protocol, 0,
                                             Value::bit(0), Value::bit(1));
  std::printf("%s", report.narrative.c_str());
  if (report.certificate) {
    print_violation(*report.certificate, protocol);
  } else {
    std::printf("protocol survives the cut attack (min in-neighbourhood "
                "%zu > t = %u, or victim stayed consistent)\n",
                report.min_in_neighbourhood, t);
  }
  return 0;
}

int cmd_solvability(int argc, char** argv) {
  std::string name;
  std::uint32_t n = 0, t = 0;
  const cli::Command cmd{"ba_cli solvability",
                         {positional("property", &name), positional("n", &n),
                          positional("t", &t)},
                         {}};
  if (!cli::parse(cmd, argc, argv)) return 2;
  auto prop = make_property(name, n, t);
  if (!prop || n == 0 || t >= n) return usage();
  auto verdict = validity::solvability(*prop, n, t);
  std::printf("%s at n=%u, t=%u: %s\n", prop->name.c_str(), n, t,
              verdict.summary().c_str());
  if (verdict.cc_witness) {
    std::printf("CC fails at configuration %s\n",
                verdict.cc_witness->to_value().to_string().c_str());
  }
  return 0;
}

/// `run` and `sim`: a protocol on explicit proposals, gated by its static
/// message budget and linted. Only the default backend differs.
int run_protocol(const std::string& command, const char* default_backend,
                 int argc, char** argv) {
  std::string name, fault = "fault-free", save_trace;
  std::uint32_t n = 0, t = 0;
  std::vector<int> bits;
  std::uint64_t fault_seed = 1;
  std::optional<std::string> backend, model;
  std::optional<std::uint64_t> seed, round_ticks;
  std::optional<std::uint32_t> gst, lag;
  const cli::Command cmd{
      "ba_cli " + command,
      {positional("protocol", &name), positional("n", &n),
       positional("t", &t), positional("bit", &bits)},
      {backend_option(&backend), fault_option(&fault),
       fault_seed_option(&fault_seed), save_trace_option(&save_trace),
       {"--model", "sync|jitter|gst", &model}, {"--seed", "S", &seed},
       {"--gst", "R", &gst}, {"--lag", "K", &lag},
       {"--round-ticks", "T", &round_ticks}}};
  if (!cli::parse(cmd, argc, argv)) return 2;
  if (bits.size() != n) return fail(2, "need exactly n proposal bits");
  const protocols::ProtocolDescriptor* row = protocols::find_protocol(name);
  if (row == nullptr || row->make == nullptr) return usage();
  auto spec = backend_spec(backend.value_or(default_backend));
  if (!spec) return 2;
  if (model) spec->sim.model = *model;
  if (seed) spec->sim.seed = *seed;
  if (gst) spec->sim.gst_round = *gst;
  if (lag) spec->sim.lag = *lag;
  if (round_ticks) spec->sim.round_ticks = *round_ticks;
  const engine::BackendHandle handle = open_backend(*spec);
  if (!handle) return 2;

  const SystemParams params{n, t};
  faults::FaultSpec fault_spec;
  Adversary adversary = Adversary::none();
  try {
    fault_spec = faults::checked_fault_spec(fault, params);
    adversary = faults::compile_adversary(fault_spec, params, fault_seed);
  } catch (const std::exception& e) {
    // The pinned fault-grammar errors, verbatim: every surface (run, sim,
    // sweep, serve) reports the same string for the same bad plan.
    return fail(2, e.what());
  }
  RunOptions opts;
  opts.lint_trace = true;
  // The linter flags runs over the static budget at the plan's declared
  // actual-fault count.
  opts.message_budget =
      static_budget(row, params, fault_spec.declared_faults(params));
  std::vector<Value> proposals(bits.size());
  std::ranges::transform(bits, proposals.begin(), &Value::bit);
  RunResult res;
  try {
    res = handle->run(params, row->make(n), proposals, adversary, opts);
  } catch (const std::exception& e) {
    // E.g. the async backend refuses synchronous protocols by contract.
    return fail(2, command + ": " + e.what());
  }
  for (ProcessId p = 0; p < n; ++p) {
    const auto& decision = res.decisions[p];
    std::printf("p%u: proposes %s decides %s (round %u)\n", p,
                proposals[p].to_string().c_str(),
                decision ? decision->to_string().c_str() : "<none>",
                res.trace.procs[p].decision_round);
  }
  std::printf("backend %s (model %s): %u rounds, %llu messages from correct "
              "senders, %llu payload bytes\n",
              handle->name(), spec->sim.model.c_str(), res.rounds_executed,
              static_cast<unsigned long long>(res.messages_sent_by_correct),
              static_cast<unsigned long long>(
                  res.trace.payload_bytes_sent_by_correct()));
  if (res.net) std::printf("%s\n", res.net->summary().c_str());
  if (res.lint) std::printf("trace lint: %s\n", res.lint->summary().c_str());
  if (!save_trace.empty()) {
    // Lockstep traces keep the schema-v1 format (no provenance) for
    // pre-engine consumers; other backends stamp v2 provenance
    // [name, model, seed, round_ticks] so audits can tell execution
    // substrates apart.
    const bool v1 = spec->name == "lockstep";
    const Value provenance = Value::vec(
        {Value{spec->name}, Value{spec->sim.model},
         Value{static_cast<std::int64_t>(spec->sim.seed)},
         Value{static_cast<std::int64_t>(spec->sim.round_ticks)}});
    if (!save(save_trace,
              v1 ? encode_trace(res.trace)
                 : encode_trace_with_provenance(res.trace, provenance))) {
      return 1;
    }
    std::printf("trace saved to %s%s\n", save_trace.c_str(),
                v1 ? "" : " (schema v2)");
  }
  return res.lint_clean() ? 0 : 1;
}

int cmd_run(int argc, char** argv) {
  return run_protocol("run", "lockstep", argc, argv);
}

int cmd_sim(int argc, char** argv) {
  return run_protocol("sim", "sim", argc, argv);
}

int cmd_bounds(int argc, char** argv) {
  std::string protocol;
  std::optional<std::uint32_t> n, t;
  bool json = false;
  const cli::Command cmd{"ba_cli bounds",
                         {},
                         {{"--protocol", "P", &protocol}, {"--n", "N", &n},
                          {"--t", "T", &t}, {"--json", "", &json}}};
  if (!cli::parse(cmd, argc, argv)) return 2;
  std::optional<SystemParams> at;
  if (n || t) {
    if (!n || !t || !SystemParams{*n, *t}.valid()) {
      return fail(2, "bounds: --n and --t must be given together with t < n");
    }
    at = SystemParams{*n, *t};
  }
  std::vector<statics::StaticBounds> bounds;
  if (protocol.empty()) {
    for (const auto& row : protocols::protocol_table()) {
      bounds.push_back(statics::analyze(row.spec));
    }
  } else if (const auto* row = protocols::find_protocol(protocol)) {
    bounds.push_back(statics::analyze(row->spec));
  } else {
    return fail(2, "bounds: unknown protocol '" + protocol + "'");
  }
  if (json) {
    statics::write_bounds_json(std::cout, bounds, at);
  } else {
    statics::write_bounds_markdown(std::cout, bounds, at);
  }
  // The lower-bound gate: a correctness-claiming spec below t^2/32 is a
  // spec bug (the paper says no correct protocol can be there).
  const auto grid = at ? std::vector<SystemParams>{*at}
                       : statics::standard_cross_check_grid();
  const auto findings = statics::cross_check(bounds, grid);
  if (!json && findings.empty()) {
    std::printf("\nlower-bound cross-check: all specs clear t^2/32\n");
  }
  for (const auto& finding : findings) {
    if (!json) fail(1, "cross-check FAIL: " + finding.to_string());
  }
  return findings.empty() ? 0 : 1;
}

/// `text` split at `sep` into unsigned integers no larger than `max`;
/// nullopt when it is empty or any item is not one.
std::optional<std::vector<std::uint64_t>> parse_list(const std::string& text,
                                                     char sep,
                                                     std::uint64_t max) {
  std::vector<std::uint64_t> items;
  std::stringstream ss(text);
  for (std::string item; std::getline(ss, item, sep);) {
    const auto value = cli::parse_uint(item, max);
    if (!value) return std::nullopt;
    items.push_back(*value);
  }
  if (items.empty()) return std::nullopt;
  return items;
}

std::optional<std::vector<SystemParams>> parse_grid(const std::string& text) {
  std::vector<SystemParams> grid;
  std::stringstream ss(text);
  for (std::string point; std::getline(ss, point, ',');) {
    const auto nt = parse_list(point, ':', UINT32_MAX);
    if (!nt || nt->size() != 2) return std::nullopt;
    grid.push_back({static_cast<std::uint32_t>((*nt)[0]),
                    static_cast<std::uint32_t>((*nt)[1])});
    if (!grid.back().valid()) return std::nullopt;
  }
  if (grid.empty()) return std::nullopt;
  return grid;
}

int cmd_sweep(int argc, char** argv) {
  lowerbound::SweepOptions options;
  std::optional<std::string> grid, backend, fault_axis;
  std::string json_path, out_path;
  const cli::Command cmd{
      "ba_cli sweep",
      {},
      {jobs_option(&options.jobs), {"--grid", "n:t,...", &grid},
       {"--json", "FILE", &json_path}, {"--out", "FILE", &out_path},
       backend_option(&backend), {"--fault-axis", "KIND", &fault_axis, true},
       fault_seed_option(&options.fault_seed)}};
  if (!cli::parse(cmd, argc, argv)) return 2;
  std::vector<SystemParams> points = lowerbound::standard_sweep_grid();
  if (grid) {
    auto parsed = parse_grid(*grid);
    if (!parsed) return fail(2, "bad --grid (want n:t[,n:t...] with t < n)");
    points = std::move(*parsed);
  }
  if (backend) {
    const auto spec = backend_spec(*backend);
    if (!spec) return 2;
    options.attack.backend = open_backend(*spec);
    if (!options.attack.backend) return 2;
  }
  if (fault_axis) {
    // A bare kind name ("isolate") or a full template spec
    // ("crash:0@3%head", count ignored); a bare flag means isolate.
    const std::string axis = fault_axis->empty() ? "isolate" : *fault_axis;
    faults::FaultSpec axis_spec;
    if (const auto kind = faults::find_fault_kind(axis)) {
      axis_spec.kind = *kind;
    } else {
      try {
        axis_spec = faults::parse_fault_spec(axis);
      } catch (const std::exception& e) {
        return fail(2, e.what());
      }
    }
    options.fault_axis = axis_spec;
  }

  // Streaming NDJSON output: rows are emitted the moment their point
  // completes, reordered to index order, so the file is byte-identical
  // across --jobs values (the service's OrderedNdjsonWriter reorder buffer;
  // on_row calls are serialized by the sweep).
  std::unique_ptr<service::NdjsonFileWriter> out_file;
  std::unique_ptr<service::OrderedNdjsonWriter> out_ordered;
  if (!out_path.empty()) {
    out_file = std::make_unique<service::NdjsonFileWriter>(out_path);
    out_ordered = std::make_unique<service::OrderedNdjsonWriter>(
        [&](std::string_view line) { out_file->write_line(line); });
    options.on_row = [&](std::size_t index, const lowerbound::SweepRow& row) {
      out_ordered->put(index, lowerbound::encode_sweep_row_ndjson(row));
    };
  }

  lowerbound::SweepResult result;
  try {
    result = lowerbound::run_attack_sweep(lowerbound::standard_sweep_entries(),
                                          points, options);
  } catch (const std::exception& e) {
    return fail(2, e.what());  // e.g. a non-sweepable --fault-axis kind
  }
  if (out_ordered && !out_ordered->drained()) {
    return fail(1, "internal error: " + out_path + " not fully drained");
  }
  if (out_file) {
    std::printf("streamed %llu NDJSON rows to %s\n",
                static_cast<unsigned long long>(out_file->lines_written()),
                out_path.c_str());
  }
  lowerbound::write_markdown(std::cout, result);
  std::printf("\n%zu points, jobs=%u, %.3fs wall (%.1f points/sec)\n",
              result.rows.size(), result.jobs_used,
              static_cast<double>(result.wall_micros) / 1e6,
              result.wall_micros == 0
                  ? 0.0
                  : static_cast<double>(result.rows.size()) * 1e6 /
                        static_cast<double>(result.wall_micros));
  std::printf("Theorem 2 consistency: %s\n",
              result.theorem2_consistent() ? "HOLDS" : "VIOLATED");
  if (!json_path.empty()) {
    std::ostringstream report;
    lowerbound::write_bench_json(report, result);
    if (!save(json_path, report.str())) return 1;
    std::printf("report written to %s\n", json_path.c_str());
  }
  return result.theorem2_consistent() ? 0 : 1;
}

int cmd_serve(int argc, char** argv) {
  std::string campaign_file, serial_out, bench_out;
  service::ServeOptions options;
  const cli::Command cmd{
      "ba_cli serve",
      {positional("campaign.json", &campaign_file)},
      {{"--state", "DIR", &options.state_dir},
       {"--workers", "N", &options.workers},
       {"--respawns", "N", &options.respawn_budget},
       {"--serial", "FILE", &serial_out}, {"--bench", "FILE", &bench_out},
       {"--die-after", "K", &options.die_after},
       {"--quiet", "", &options.quiet}}};
  if (!cli::parse(cmd, argc, argv)) return 2;
  const auto text = cli::read_file(campaign_file);
  if (!text) return fail(1, "cannot read " + campaign_file);
  const service::CampaignSpec spec = service::CampaignSpec::from_json(
      std::string(text->begin(), text->end()));
  service::ServeSummary summary;
  if (!serial_out.empty()) {
    // Single-shot reference run: no state dir, no workers, no cache.
    summary = service::run_campaign_serial(spec, serial_out);
  } else if (options.state_dir.empty()) {
    return fail(2, "serve: --state DIR is required");
  } else {
    summary = service::serve_campaign(spec, options);
  }
  std::printf(
      "campaign '%s': %llu tasks (%llu cached, %llu run, %llu rejected), "
      "%u workers, %u respawns, %.3fs -> %s\n",
      spec.name.c_str(), static_cast<unsigned long long>(summary.tasks_total),
      static_cast<unsigned long long>(summary.tasks_cached),
      static_cast<unsigned long long>(summary.tasks_run),
      static_cast<unsigned long long>(summary.rows_rejected),
      summary.workers_used, summary.respawns,
      static_cast<double>(summary.wall_micros) / 1e6,
      summary.results_file.c_str());
  if (!bench_out.empty()) {
    if (!save(bench_out, service::bench_service_json(spec, summary))) return 1;
    std::printf("bench report written to %s\n", bench_out.c_str());
  }
  return 0;
}

int cmd_serve_worker(int argc, char** argv) {
  service::WorkerOptions options;
  std::optional<std::string> state;
  std::optional<std::uint32_t> shard;
  const cli::Command cmd{"ba_cli serve-worker",
                         {},
                         {{"--state", "DIR", &state}, {"--shard", "N", &shard},
                          {"--die-after", "K", &options.die_after}}};
  if (!cli::parse(cmd, argc, argv)) return 2;
  if (!state || !shard) return usage();
  options.state_dir = *state;
  options.shard = *shard;
  return service::run_shard_worker(options);
}

/// Saves an async run's trace with schema-v2 provenance [async, strategy,
/// seed, 0] (the fourth slot mirrors the sim backend's round_ticks and is
/// meaningless for delivery-at-a-time execution).
bool save_async_trace(const std::string& path,
                      const async::AsyncRunResult& res,
                      const std::string& strategy, std::uint64_t seed) {
  const Value provenance = Value::vec(
      {Value{std::string{"async"}}, Value{strategy},
       Value{static_cast<std::int64_t>(seed)}, Value{std::int64_t{0}}});
  if (!save(path, encode_trace_with_provenance(res.run.trace, provenance))) {
    return false;
  }
  std::printf("trace saved to %s (schema v2)\n", path.c_str());
  return true;
}

int explore_replay(const std::string& path, const std::string& save_trace) {
  auto bytes = cli::read_file(path);
  if (!bytes) return fail(2, "cannot read " + path);
  async::ScheduleCertificate cert;
  async::AsyncRunResult res;
  try {
    cert = async::ScheduleCertificate::decode(
        std::string(bytes->begin(), bytes->end()));
    async::AsyncRunOptions opts;
    opts.max_deliveries = cert.max_deliveries;
    opts.record_trace = true;
    res = async::replay_certificate(cert, opts);
  } catch (const std::exception& e) {
    return fail(2, std::string("explore: ") + e.what());
  }
  std::printf("certificate: %s violation of %s at n=%u t=%u "
              "(%zu scripted choices, %s completion)\n",
              cert.property.c_str(), cert.protocol.c_str(), cert.params.n,
              cert.params.t, cert.choices.size(),
              cert.completion_strategy.c_str());
  for (ProcessId p = 0; p < cert.params.n; ++p) {
    const auto& decision = res.run.decisions[p];
    if (cert.faulty.contains(p)) {
      std::printf("p%u: crashed\n", p);
    } else {
      std::printf("p%u: proposes %d decides %s\n", p, cert.proposals[p],
                  decision ? decision->to_string().c_str() : "<none>");
    }
  }
  const auto violation = async::binary_consensus_safety(
      cert.params, cert.proposals, cert.faulty, res.run.decisions);
  const bool reproduced = violation && violation->property == cert.property;
  if (!violation) {
    std::printf("replay: no violation -- certificate does not reproduce\n");
  } else if (reproduced) {
    std::printf("replay: violation reproduced (%s: %s)\n",
                violation->property.c_str(), violation->detail.c_str());
  } else {
    std::printf("replay: DIFFERENT violation (%s, certificate claims %s)\n",
                violation->property.c_str(), cert.property.c_str());
  }
  if (!save_trace.empty() &&
      !save_async_trace(save_trace, res, cert.completion_strategy,
                        cert.completion_seed)) {
    return 1;
  }
  return reproduced ? 0 : 1;
}

int cmd_explore(int argc, char** argv) {
  async::ExploreTask task;
  async::ExploreOptions options;
  std::optional<std::uint32_t> n, t;
  std::optional<std::string> proposals, faulty;
  std::string fault_plan, save_cert, save_trace, replay;
  const cli::Command cmd{
      "ba_cli explore",
      {},
      {{"--protocol", "P", &task.protocol}, {"--n", "N", &n},
       {"--t", "T", &t}, {"--proposals", "b,b,...", &proposals},
       {"--faulty", "p,p,...", &faulty}, fault_option(&fault_plan),
       {"--exhaustive", "", &options.exhaustive},
       {"--depth", "D", &options.depth}, {"--samples", "S", &options.samples},
       {"--seed", "S", &options.seed},
       {"--start-index", "I", &options.start_index},
       {"--coin-seed", "C", &task.coin_seed},
       {"--strategy", "X", &task.completion_strategy},
       {"--strategy-seed", "S", &task.completion_seed},
       {"--max-deliveries", "M", &task.max_deliveries},
       jobs_option(&options.jobs), {"--save", "FILE", &save_cert},
       save_trace_option(&save_trace), {"--replay", "FILE", &replay}}};
  if (!cli::parse(cmd, argc, argv)) return 2;
  if (!replay.empty()) return explore_replay(replay, save_trace);
  if (!n || !t) return fail(2, "explore: --n and --t are required");
  task.params = SystemParams{*n, *t};
  if (proposals) {
    const auto bits = parse_list(*proposals, ',', 1);
    if (!bits) {
      return fail(2, "explore: bad --proposals (want b,b,... with b in {0,1})");
    }
    task.proposals.assign(bits->begin(), bits->end());
  }
  if (faulty) {
    const auto ids = parse_list(*faulty, ',', UINT32_MAX);
    if (!ids) return fail(2, "explore: bad --faulty (want p,p,...)");
    for (const auto id : *ids) task.faulty.insert(static_cast<ProcessId>(id));
  }
  if (!fault_plan.empty()) {
    // The async lowering of a fault plan: crash/mute become crash-from-start
    // (the set --faulty takes verbatim). Byzantine lowerings need replica
    // substitution, which the explorer's crash-only surface cannot host.
    async::AsyncAdversary adversary;
    try {
      adversary = faults::compile_async(
          faults::checked_fault_spec(fault_plan, task.params), task.params,
          options.seed);
    } catch (const std::exception& e) {
      return fail(2, e.what());
    }
    if (!adversary.byzantine.empty()) {
      return fail(2, "explore: fault plan '" + fault_plan +
                     "': explore drives crash-from-start faults only");
    }
    task.faulty = adversary.faulty;
  }
  if (task.proposals.empty()) {
    // Default instance: alternating proposals, the adversarially interesting
    // split (unanimous inputs decide regardless of schedule by validity).
    for (std::uint32_t p = 0; p < *n; ++p) {
      task.proposals.push_back(static_cast<int>(p % 2));
    }
  }

  // Besides the campaign, one representative run (empty scripted prefix,
  // completion strategy throughout) carries the trace surface: it is linted
  // against the protocol's statically derived message budget and optionally
  // saved for lint_trace.
  const async::ScheduleCertificate probe{
      task.protocol,        task.params,         task.proposals,
      task.faulty,          task.coin_seed,      task.completion_strategy,
      task.completion_seed, task.max_deliveries, {},
      {},                   {}};
  async::AsyncRunOptions ropts;
  ropts.max_deliveries = task.max_deliveries;
  ropts.record_trace = true;
  ropts.lint_trace = true;
  ropts.message_budget =
      static_budget(protocols::find_protocol(task.protocol), task.params, *t);
  async::ExploreReport report;
  async::AsyncRunResult rep;
  try {
    report = async::explore(task, options);
  } catch (const std::exception& e) {
    return fail(2, e.what());  // async::explore prefixes its own errors
  }
  try {
    rep = async::replay_certificate(probe, ropts);
  } catch (const std::exception& e) {
    return fail(2, std::string("explore: ") + e.what());
  }
  std::printf("%s n=%u t=%u coin-seed %llu: explored %llu schedules (%s)\n",
              task.protocol.c_str(), *n, *t,
              static_cast<unsigned long long>(task.coin_seed),
              static_cast<unsigned long long>(report.schedules),
              options.exhaustive ? "exhaustive" : "sampling");
  std::printf("deliveries %llu, quiesced %llu, all-decided %llu, "
              "violations %llu\n",
              static_cast<unsigned long long>(report.deliveries),
              static_cast<unsigned long long>(report.quiesced),
              static_cast<unsigned long long>(report.all_decided),
              static_cast<unsigned long long>(report.violations));
  std::printf("digest %016llx\n",
              static_cast<unsigned long long>(report.digest));
  if (!options.exhaustive) {
    std::printf("next start-index: %llu\n",
                static_cast<unsigned long long>(report.next_index));
  }
  std::printf("representative run (%s completion): %llu deliveries, "
              "quiesced=%s\n",
              task.completion_strategy.c_str(),
              static_cast<unsigned long long>(rep.deliveries),
              rep.run.quiesced ? "yes" : "no");
  if (rep.run.lint) {
    std::printf("trace lint: %s\n", rep.run.lint->summary().c_str());
  }
  if (!save_trace.empty() &&
      !save_async_trace(save_trace, rep, task.completion_strategy,
                        task.completion_seed)) {
    return 1;
  }
  if (report.certificate) {
    const async::ScheduleCertificate& cert = *report.certificate;
    std::printf("violation (%s): %s\n", cert.property.c_str(),
                cert.detail.c_str());
    std::printf("minimized certificate: %zu scripted choices\n",
                cert.choices.size());
    if (!save_cert.empty() && save(save_cert, cert.encode())) {
      std::printf("certificate saved to %s\n", save_cert.c_str());
    }
    return 1;
  }
  std::printf("no safety violations across explored schedules\n");
  return rep.run.lint_clean() ? 0 : 1;
}

struct Subcommand {
  std::string_view name;
  int (*run)(int argc, char** argv);
};

constexpr Subcommand kSubcommands[] = {
    {"bound", cmd_bound},
    {"attack", cmd_attack},
    {"dr-attack", cmd_dr_attack},
    {"verify", cmd_verify},
    {"solvability", cmd_solvability},
    {"run", cmd_run},
    {"sim", cmd_sim},
    {"sweep", cmd_sweep},
    {"serve", cmd_serve},
    {"serve-worker", cmd_serve_worker},
    {"bounds", cmd_bounds},
    {"explore", cmd_explore},
};

int usage() {
  std::fprintf(stderr, "usage:\n");
  // A command called without an argv only prints its usage line
  // (cli::parse), so the list below is generated from the tables above.
  for (const Subcommand& sub : kSubcommands) sub.run(0, nullptr);
  std::string properties;
  for (const PropertyBuilder& property : kProperties) {
    if (!properties.empty()) properties += ' ';
    properties += property.name;
  }
  std::fprintf(stderr,
               "run defaults to --backend lockstep, sim to --backend sim\n"
               "backend SPEC: lockstep | sim[:model[,seed]] | "
               "async[:strategy[,seed]]\n"
               "fault SPEC (docs/FAULTS.md): %s\n"
               "protocols: %s\n"
               "async protocols: %s\n"
               "async strategies: %s\n"
               "properties: %s\n",
               faults::fault_plan_names(),
               protocols::registered_protocol_names(),
               async::async_protocol_list(), async::scheduler_strategy_list(),
               properties.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string_view name = argc > 1 ? argv[1] : "";
  for (const Subcommand& sub : kSubcommands) {
    if (sub.name != name) continue;
    try {
      return sub.run(argc - 2, argv + 2);
    } catch (const std::exception& e) {
      // Whatever a command does not handle itself (an unreadable campaign
      // spec, an unwritable --out file) is reported, not aborted on.
      return fail(1, e.what());
    }
  }
  return usage();
}
