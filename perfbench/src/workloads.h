#pragma once

// The three benchmark workloads. Each is a closed loop of identical ops:
// the client issues the next op only after the previous one returned, and
// every op is the same fixed composite of cells, so latency percentiles
// never straddle two op sizes.
//
//   exec      three fault-free lockstep executions, traces off
//   audit     three faulty executions with traces, each linted and
//             round-tripped through the trace codec, plus the Theorem 2
//             attack and certificate replay
//   campaign  one sharded service::serve_campaign call with 2 workers
//
// README.md gives the reasons for each choice and the per-layer metrics
// each should move.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

struct Metric {
  double value{0};
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// The checked result of one op.
struct OpOutcome {
  std::uint64_t items{0};
  std::uint64_t failed{0};
  /// Messages sent by correct processes, the paper's measure.
  std::uint64_t messages{0};
  /// Messages, rounds and decisions of every execution in the op, as text;
  /// a traced op must reproduce its untraced twin's fingerprint exactly.
  std::string fingerprint;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Runs one op; the caller times this call. With a null span log the op
  /// is untraced; otherwise spans and counts of the op are recorded under
  /// op id `op`.
  virtual void run_op(std::uint64_t op, SpanLog* spans) = 0;

  /// Checks the outputs of the last op, outside the timed window. Counts
  /// that need work beyond the op itself (encoded sizes) are recorded here.
  virtual OpOutcome check_op(std::uint64_t op, SpanLog* spans) = 0;

  /// The span that covers the same work as an untraced op.
  [[nodiscard]] virtual const char* root_span() const = 0;

  /// Per-layer metrics from a traced run's spans (medians over ops).
  virtual void layer_metrics(const SpanLog& spans, Metrics& out) const = 0;
};

/// "exec", "audit" and "campaign".
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Builds a workload's cells, keys and references from `seed`. `scratch`
/// is a directory the workload may write into (campaign state).
[[nodiscard]] std::unique_ptr<Workload> make_workload(
    const std::string& name, std::uint64_t seed, const std::string& scratch);

}  // namespace perfbench
