// lint_trace — standalone auditor for serialized execution traces.
//
//   lint_trace <FILE> [--protocol NAME] [--quiet]
//
// Decodes a trace written in the library's canonical byte format (see
// runtime/trace_io.h) and runs the execution-invariant linter over it:
// structure, message conservation, adversary-budget accounting, quiescence —
// plus the determinism replay when --protocol names the state machine the
// trace claims to be an execution of. This lets certificate artifacts
// produced by the lower-bound engine be audited independently of the process
// that produced them.
//
// Schema-v2 traces carry producer provenance whose first element names the
// execution backend that produced the trace; a name outside
// engine::backend_names() marks the artifact as coming from an unrecognized
// substrate and fails the audit.
//
// Exit codes: 0 = trace lints clean; 1 = violations found or unknown
// provenance backend; 2 = usage error (tools/cli.h pins the argument
// errors); 3 = the file cannot be read, decoded or audited.

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/lint.h"
#include "cli.h"
#include "core/ba.h"

using namespace ba;

namespace {

int lint(int argc, char** argv) {
  std::string file, protocol_name;
  bool quiet = false;
  const cli::Command cmd{"lint_trace",
                         {cli::positional("FILE", &file)},
                         {{"--protocol", "NAME", &protocol_name},
                          {"--quiet", "", &quiet}}};
  if (!cli::parse(cmd, argc - 1, argv + 1)) return 2;

  auto bytes = cli::read_file(file);
  if (!bytes) return cli::fail(3, "lint_trace: cannot read " + file);
  std::string decode_error;
  Value provenance = Value::null();
  auto trace = decode_trace(*bytes, &decode_error, &provenance);
  if (!trace) {
    return cli::fail(
        3, "lint_trace: " + file + " is not a valid trace: " + decode_error);
  }

  // Audit v2 provenance against the backend table before linting: a trace
  // claiming an unknown execution substrate is suspect regardless of its
  // invariants.
  bool provenance_ok = true;
  std::string backend_name;
  if (const Value& prov = provenance; !prov.is_null()) {
    backend_name = prov.is_vec() && !prov.as_vec().empty() &&
                           prov.as_vec().front().is_str()
                       ? prov.as_vec().front().as_str()
                       : std::string{};
    const std::vector<std::string> backends = engine::backend_names();
    if (std::ranges::find(backends, backend_name) == backends.end()) {
      provenance_ok = false;
      std::string registered;
      for (const std::string& known : backends) {
        registered += registered.empty() ? known : " " + known;
      }
      cli::fail(1, "lint_trace: provenance names unknown execution backend '" +
                   backend_name + "' (registered: " + registered + ")");
    }
  }

  // Async-backend traces use the virtual-round encoding: lint under the
  // async invariant semantics, and skip the synchronous determinism replay
  // (--protocol names a round-based state machine; async processes are
  // message-driven, so the replay vocabulary does not apply).
  analysis::LintOptions options;
  options.async_model = backend_name == "async";
  if (options.async_model && !protocol_name.empty()) {
    std::fprintf(stderr,
                 "lint_trace: warning: --protocol ignored for async-backend "
                 "traces (no synchronous replay of message-driven "
                 "processes)\n");
    protocol_name.clear();
  }

  analysis::LintReport report;
  if (!protocol_name.empty()) {
    auto protocol =
        protocols::make_protocol_by_name(protocol_name, trace->params.n);
    if (!protocol) {
      return cli::fail(2, "lint_trace: unknown protocol " + protocol_name +
                          "\nusage:\n" + cmd.usage() + "protocols: " +
                          protocols::registered_protocol_names());
    }
    report = analysis::lint_execution(*trace, *protocol, options);
  } else {
    report = analysis::lint_trace(*trace, options);
  }

  if (!quiet) {
    if (!provenance.is_null()) {
      // Schema-v2 traces (e.g. written by `ba_cli sim --save-trace`) carry
      // a producer-provenance vector; show it so audits can tell execution
      // substrates apart.
      std::printf("provenance: %s\n", provenance.to_string().c_str());
    }
    std::printf("trace: n=%u t=%u rounds=%u |F|=%zu quiesced=%s\n",
                trace->params.n, trace->params.t, trace->rounds,
                trace->faulty.size(), trace->quiesced ? "yes" : "no");
    std::printf("messages (correct senders): %llu\n",
                static_cast<unsigned long long>(trace->message_complexity()));
    std::cout << report << '\n';
  } else {
    std::cout << report.summary() << '\n';
  }
  return report.clean() && provenance_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return lint(argc, argv);
  } catch (const std::exception& e) {
    // A library error on a decodable trace is reported, not aborted on.
    return cli::fail(3, std::string("lint_trace: ") + e.what());
  }
}
