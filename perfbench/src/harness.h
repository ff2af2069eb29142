#pragma once

// Measurement primitives of the end-to-end benchmark: clocks, the
// percentile rule, the host-speed probe, in-memory spans with self-time
// arithmetic, the call
// meter that times protocol state machines from outside, and per-workload
// process isolation for peak RSS.
//
// Everything here is benchmark-side. The library under test is only ever
// called through its public functions; spans are recorded around those
// calls, never inside them.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "runtime/process.h"

namespace perfbench {

/// Monotonic wall clock, nanoseconds.
[[nodiscard]] std::int64_t now_ns();

/// User + system CPU time of this process plus its reaped children, ms.
[[nodiscard]] double cpu_ms();
/// User + system CPU time of this process alone, ms.
[[nodiscard]] double self_cpu_ms();
/// User + system CPU time of this process's reaped children alone, ms.
[[nodiscard]] double children_cpu_ms();

// ---------------------------------------------------------------------------
// Percentiles.
//
// A tail percentile is reported only when at least kMinBeyond samples lie
// above it, so a few stray samples cannot set it: p90 needs 100 samples.

inline constexpr std::size_t kMinBeyond = 10;

/// Samples strictly above the nearest-rank q-quantile of n samples.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double q);

/// Fewest samples whose q-quantile has kMinBeyond samples beyond it.
[[nodiscard]] std::size_t min_samples_for(double q);

/// Nearest-rank q-quantile (0 < q < 1). Throws std::runtime_error when
/// fewer than kMinBeyond samples lie beyond it.
[[nodiscard]] double percentile(std::vector<double> samples, double q);

/// Nearest-rank median of a non-empty sample.
[[nodiscard]] double median(std::vector<double> samples);

/// Items whose correctness check passed, divided by items attempted.
[[nodiscard]] double ok_ratio(std::uint64_t attempted, std::uint64_t failed);

// ---------------------------------------------------------------------------
// Host speed.
//
// Other tenants of a shared host slow this process's memory accesses, by up
// to 1.6 times and for anything from a second to several minutes, so one
// op's latency mixes the code's cost with how busy the host was. A probe
// timed next to each op measures the second part, and scaling the op by it
// leaves the first.

/// A fixed piece of allocation-heavy C++ work, shaped like the library's
/// own (an ordered map from short strings to byte vectors), that shares no
/// code or memory with the library: it allocates only from an arena of its
/// own, so the library's heap cannot change its speed.
class HostProbe {
 public:
  HostProbe();
  /// Runs the work once to bring its arena into cache after whatever ran
  /// before, then returns the time of a second run, ms.
  [[nodiscard]] double time_ms();

 private:
  void run_once();

  std::unique_ptr<std::byte[]> arena_;
  std::uint64_t checksum_{0};
};

/// HostProbe::time_ms on the reference host at rest (README.md), ms: the
/// probe time at which a scaled duration equals the measured one.
inline constexpr double kProbeRestMs = 0.9;

/// `ms` as it would have read on the reference host at rest, given the
/// probe time `probe_ms` measured next to it and `cpu_ms`, the CPU time of
/// the process and the children it reaped in that interval: the part of
/// `ms` covered by computing (`cpu_ms`, at most `ms`) is divided by the
/// host's slowdown probe_ms / kProbeRestMs, and the rest, time spent
/// waiting on timers, is kept as measured.
[[nodiscard]] double at_rest_ms(double ms, double cpu_ms, double probe_ms);

// ---------------------------------------------------------------------------
// Spans.
//
// A span is one call into a layer: name ("<module>.<function>"), the cell
// it ran on, the op it belongs to, its parent, and its start and end. A
// folded span stands for `calls` back-to-back invocations of one function
// under one parent (a protocol step, a service row): it starts at the first
// invocation and lasts their summed time, so self-time arithmetic treats it
// as one child. Spans stay in memory until the run ends.

struct Span {
  std::string name;
  std::string cell;
  std::uint64_t op{0};
  std::int64_t parent{-1};
  std::int64_t start_ns{0};
  std::int64_t end_ns{0};
  std::uint64_t calls{1};

  [[nodiscard]] std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// A count recorded at a layer boundary (messages, bytes, rows).
struct Count {
  std::string name;
  std::string cell;
  std::uint64_t op{0};
  double value{0};
};

class SpanLog {
 public:
  /// Opens a span under the innermost open span; returns its id.
  std::size_t open(std::string name, std::string cell, std::uint64_t op,
                   std::int64_t start_ns = now_ns());
  /// Closes the innermost open span, which must be `id`.
  void close(std::size_t id, std::int64_t end_ns = now_ns());
  /// Adds a closed folded span under the innermost open span.
  void fold(std::string name, std::string cell, std::uint64_t op,
            std::int64_t first_start_ns, std::int64_t busy_ns,
            std::uint64_t calls);
  void count(std::string name, std::string cell, std::uint64_t op,
             double value);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] const std::vector<Count>& counts() const { return counts_; }

  /// The span's duration minus the part of it covered by the union of its
  /// direct children's intervals.
  [[nodiscard]] std::int64_t self_ns(std::size_t id) const;

  /// One JSON object per line: every span, then every count.
  void write_ndjson(std::ostream& os) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::vector<std::size_t>> children_;
  std::vector<std::size_t> open_;
  std::vector<Count> counts_;
};

/// Opens a span on construction and closes it on destruction. With a null
/// log it does nothing, so untraced code paths share the traced ones.
class SpanScope {
 public:
  SpanScope(SpanLog* log, std::string name, std::string cell,
            std::uint64_t op);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanLog* log_;
  std::size_t id_{0};
};

/// Per-op series of one span (name, cell): summed duration, summed self
/// time and summed calls of its spans in each op, in op order.
struct SpanSeries {
  std::vector<double> total_ms;
  std::vector<double> self_ms;
  std::vector<double> calls;
};
[[nodiscard]] SpanSeries span_series(const SpanLog& log,
                                     const std::string& name,
                                     const std::string& cell);

/// Per-op series of one count (name, cell), summed within each op.
[[nodiscard]] std::vector<double> count_series(const SpanLog& log,
                                               const std::string& name,
                                               const std::string& cell);

// ---------------------------------------------------------------------------
// Calls timed from outside.

/// Accumulates back-to-back calls of one function, for a folded span.
struct CallMeter {
  std::int64_t first_start_ns{-1};
  std::int64_t busy_ns{0};
  std::uint64_t calls{0};

  /// Records one call that started at `start_ns` and ends now.
  void add(std::int64_t start_ns);
  /// Folds the calls into `log` under its innermost open span.
  void fold_into(SpanLog& log, const std::string& name,
                 const std::string& cell, std::uint64_t op) const;
};

/// Wraps `inner` so that every replica it builds reports the time of each
/// Process::outbox_for_round and Process::deliver call to `meter`.
/// Behaviour is unchanged: the wrapper forwards every call. `meter` must
/// outlive every replica the returned factory builds.
[[nodiscard]] ba::ProtocolFactory metered_factory(ba::ProtocolFactory inner,
                                                  CallMeter& meter);

// ---------------------------------------------------------------------------
// Process isolation.

struct IsolatedResult {
  /// Exit code of the child; 128 + signal number when it was killed.
  int exit_code{0};
  /// What the body returned, passed back through a pipe.
  std::string output;
  /// Peak RSS of the child and every descendant it reaped (wait4), MB.
  double peak_rss_mb{0};
};

/// Runs `body` in a forked child and waits for it. Each workload runs this
/// way, so its peak RSS is its own and not the high-water mark of whatever
/// ran before it in the same process. The child must not return into the
/// caller's stack: it leaves through _exit.
[[nodiscard]] IsolatedResult run_isolated(
    const std::function<std::string()>& body);

}  // namespace perfbench
