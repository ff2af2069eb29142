// stamp_trace — re-stamp the provenance of a serialized execution trace.
//
//   stamp_trace <IN> <OUT> <backend> [model] [seed] [round_ticks]
//
// Decodes IN (schema v1 or v2), replaces its provenance with the vector
// [backend, model, seed, round_ticks], and writes OUT as a schema-v2 trace.
// Exists for audit tooling and tests: it lets a pipeline label (or
// mislabel) the execution substrate a trace claims to come from, so the
// lint_trace registry check can be exercised end-to-end.
//
// Exit codes: 0 = OK; 2 = usage error; 3 = IN cannot be read or decoded;
// 1 = OUT cannot be written.

#include <string>

#include "cli.h"
#include "runtime/trace_io.h"

using namespace ba;

int main(int argc, char** argv) {
  std::string in_path, out_path, backend, model = "sync";
  std::uint64_t seed = 0, round_ticks = 0;
  const cli::Command cmd{"stamp_trace",
                         {cli::positional("IN", &in_path),
                          cli::positional("OUT", &out_path),
                          cli::positional("backend", &backend),
                          cli::positional("model", &model, true),
                          cli::positional("seed", &seed, true),
                          cli::positional("round_ticks", &round_ticks, true)},
                         {}};
  if (!cli::parse(cmd, argc - 1, argv + 1)) return 2;

  auto bytes = cli::read_file(in_path);
  if (!bytes) return cli::fail(3, "stamp_trace: cannot read " + in_path);
  std::string decode_error;
  auto trace = decode_trace(*bytes, &decode_error);
  if (!trace) {
    return cli::fail(3, "stamp_trace: " + in_path +
                        " is not a valid trace: " + decode_error);
  }
  // seed and round_ticks are stamped as the int64 bit patterns ba_cli
  // stamps for the same unsigned values.
  const Value provenance =
      Value::vec({Value{backend}, Value{model},
                  Value{static_cast<std::int64_t>(seed)},
                  Value{static_cast<std::int64_t>(round_ticks)}});
  if (!cli::write_file(out_path,
                       encode_trace_with_provenance(*trace, provenance))) {
    return cli::fail(1, "stamp_trace: failed to write " + out_path);
  }
  return 0;
}
