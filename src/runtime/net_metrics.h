#pragma once

// Per-link / per-process network metrics, shared by every execution backend.
//
// The trace (runtime/trace.h) records *which* messages moved; the metrics
// record *how* the network moved them: per-link message and byte counters,
// a delivery-latency histogram in logical ticks, and reorder/drop/late
// accounting. Everything is plain counters — deterministic, mergeable, and
// cheap enough to leave on by default.
//
// These types were born in src/sim/ (the discrete-event simulator is the
// producer that measures real latencies), but they live here so that
// `RunResult::net` (sync_system.h) can surface them through the backend
// seam (src/engine/) without making the runtime depend on the simulator.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "runtime/types.h"

namespace ba {

/// Power-of-two bucketed latency histogram: bucket i counts deliveries with
/// latency in [2^i, 2^(i+1)) ticks (bucket 0 additionally catches 0).
struct LatencyHistogram {
  static constexpr std::size_t kBuckets = 20;
  std::array<std::uint64_t, kBuckets> buckets{};
  std::uint64_t count{0};
  std::uint64_t min{0};
  std::uint64_t max{0};
  std::uint64_t sum{0};

  void record(std::uint64_t latency);
  /// Upper edge of the first bucket whose cumulative share reaches `p`
  /// (p in [0, 1]); 0 when empty. A coarse but deterministic quantile.
  [[nodiscard]] std::uint64_t quantile_upper_bound(double p) const;

  friend bool operator==(const LatencyHistogram&,
                         const LatencyHistogram&) = default;
};

struct LinkStats {
  std::uint64_t delivered{0};
  std::uint64_t payload_bytes{0};  // canonical-encoding bytes delivered
  std::uint64_t dropped{0};        // omission faults (send or receive)
  std::uint64_t late{0};           // missed the round boundary (pre-GST)

  friend bool operator==(const LinkStats&, const LinkStats&) = default;
};

struct NetMetrics {
  std::uint32_t n{0};
  std::vector<LinkStats> links;          // n*n, row-major by sender
  std::vector<std::uint64_t> sent_by;    // accepted sends per process
  std::vector<std::uint64_t> delivered_to;
  LatencyHistogram latency;
  std::uint64_t deliveries{0};
  /// Deliveries that arrived out of canonical (ascending-sender) order
  /// within their (receiver, round) — the observable effect of jitter.
  std::uint64_t reordered{0};

  void reset(std::uint32_t system_size);

  [[nodiscard]] LinkStats& link(ProcessId sender, ProcessId receiver) {
    return links[static_cast<std::size_t>(sender) * n + receiver];
  }
  [[nodiscard]] const LinkStats& link(ProcessId sender,
                                      ProcessId receiver) const {
    return links[static_cast<std::size_t>(sender) * n + receiver];
  }

  [[nodiscard]] std::uint64_t total_delivered() const;
  [[nodiscard]] std::uint64_t total_dropped() const;
  [[nodiscard]] std::uint64_t total_late() const;
  [[nodiscard]] std::uint64_t total_payload_bytes() const;

  /// One-line human summary for CLI output.
  [[nodiscard]] std::string summary() const;

  friend bool operator==(const NetMetrics&, const NetMetrics&) = default;
};

}  // namespace ba
