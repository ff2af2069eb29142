#pragma once

// Batch driver for the attack engine: runs the Theorem 2 attack over a grid
// of (protocol, n, t) points and collects one structured row per point —
// the machinery behind `examples/paper_report` and reusable by downstream
// evaluation scripts.
//
// Grid points are independent, so the sweep fans them across the
// deterministic experiment pool (parallel/experiment_pool.h) when
// SweepOptions::jobs != 1. The contract — asserted by
// tests/parallel/sweep_determinism_test.cpp — is that the produced rows,
// including the encoded violation certificates, are bit-identical to the
// serial path for every worker count.

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "faults/fault_spec.h"
#include "lowerbound/attack.h"
#include "runtime/process.h"
#include "runtime/serde.h"

namespace ba::lowerbound {

struct SweepEntry {
  std::string protocol_name;
  /// Builds the protocol for a given system size (may capture shared state
  /// such as an Authenticator per n). Must be pure: the sweep calls it once
  /// per grid point, possibly concurrently from pool workers.
  std::function<ProtocolFactory(const SystemParams&)> make;
};

/// One point of a message-vs-fault curve: the protocol run once at actual
/// fault count f under the sweep's fault-axis adversary. The paper's point
/// made measurable: the static bound stays Omega(t^2) at every f (it may
/// not decrease in f), however few processes actually misbehave.
struct FaultCurvePoint {
  std::uint32_t f{0};
  /// Messages sent by correct processes in the run at this f.
  std::uint64_t messages{0};
  /// statics::budget_at(bounds, params, f); nullopt when the protocol
  /// declares no CommSpec.
  std::optional<std::uint64_t> static_bound_f;
  /// All correct processes decided and agree.
  bool agree{false};

  friend bool operator==(const FaultCurvePoint&,
                         const FaultCurvePoint&) = default;
};

struct SweepRow {
  std::string protocol_name;
  SystemParams params;
  bool violation{false};
  bool certificate_verified{false};
  std::string violation_kind;  // empty when no violation
  std::uint64_t max_messages{0};
  std::uint64_t bound{0};
  /// Statically derived worst-case message bound for this protocol at this
  /// (n, t) (statics::budget_at over the protocol's CommSpec); nullopt when
  /// the protocol declares no spec. Observed max_messages exceeding this is
  /// a spec bug — the conformance suite (tests/statics/) asserts it never
  /// happens for the registered protocols.
  std::optional<std::uint64_t> static_bound;
  std::optional<Round> critical_round;
  /// Serialized violation certificate (certificate_io), empty when no
  /// violation. Kept in encoded form so "parallel == serial" can be
  /// asserted byte-for-byte and rows can be re-verified offline.
  Bytes certificate;
  /// Message-vs-fault curve, one point per f in 0..t; empty unless
  /// SweepOptions::fault_axis is set. Legacy (axis-less) rows encode
  /// byte-identically to the pre-fault-axis format.
  std::vector<FaultCurvePoint> fault_curve;

  friend bool operator==(const SweepRow&, const SweepRow&) = default;
};

struct SweepOptions {
  /// Per-point attack configuration. `attack.backend` selects the execution
  /// backend for every grid point (null = lockstep); backends are const and
  /// thread-safe by contract, so the same handle is shared by all pool
  /// workers and the bit-identical parallel-vs-serial guarantee holds for
  /// sim-backed sweeps too.
  AttackOptions attack;
  /// Worker threads to fan grid points across: 1 (default) runs the serial
  /// reference path in the calling thread; 0 means hardware concurrency.
  unsigned jobs{1};
  /// Streaming hook: called once per grid point with (index, row) the
  /// moment the point completes. Calls are serialized (never concurrent)
  /// but arrive in completion order when jobs != 1 — pair with
  /// service::OrderedNdjsonWriter to emit index-ordered output. The index
  /// is entry-major (index = entry_i * |grid| + grid_i), identical to the
  /// rows vector's order.
  std::function<void(std::size_t, const SweepRow&)> on_row;
  /// Keep rows in SweepResult::rows (default). Off streams large grids
  /// through on_row with O(1) row memory; theorem2_consistent() still works
  /// (consistency is folded per row as the sweep runs).
  bool keep_rows{true};
  /// Fault-axis template: when set, every grid point additionally charts a
  /// message-vs-fault curve — the template instantiated at count f for each
  /// f in 0..t, compiled to an adversary (faults/compile.h) and run once on
  /// the sweep's backend with alternating-bit proposals. The kind must be
  /// sweepable (faults::kind_sweepable); the template's own count is
  /// ignored.
  std::optional<faults::FaultSpec> fault_axis;
  /// Seed for randomized fault-axis plans (e.g. crash round derivation).
  std::uint64_t fault_seed{1};
};

struct SweepResult {
  /// Empty when SweepOptions::keep_rows was off; see `points`.
  std::vector<SweepRow> rows;
  /// Grid points evaluated (rows.size() when rows are kept).
  std::size_t points{0};
  /// Resolved worker count the sweep ran with (1 for the serial path).
  unsigned jobs_used{1};
  /// Wall-clock time of the grid evaluation, microseconds.
  std::uint64_t wall_micros{0};
  /// Per-row consistency verdict folded while the sweep ran; what
  /// theorem2_consistent() reports when `rows` was not kept.
  bool streamed_consistent{true};
  /// Canonical format of the fault-axis template the sweep ran with
  /// (FaultSpec::format of the f=0 instantiation); empty when off. Recorded
  /// so write_bench_json can stamp the axis into the artifact.
  std::string fault_axis;

  /// True iff every sub-threshold protocol was broken with a verified
  /// certificate and every surviving protocol clears the bound.
  [[nodiscard]] bool theorem2_consistent() const;
};

/// Runs the attack for every entry at every (n, t) point. Certificates are
/// re-verified by replay before a row claims `certificate_verified`.
SweepResult run_attack_sweep(const std::vector<SweepEntry>& entries,
                             const std::vector<SystemParams>& grid,
                             const SweepOptions& options);

/// Back-compat overload: serial sweep with the given attack options.
SweepResult run_attack_sweep(const std::vector<SweepEntry>& entries,
                             const std::vector<SystemParams>& grid,
                             const AttackOptions& options = {});

/// Renders the rows as a GitHub-flavored markdown table.
void write_markdown(std::ostream& os, const SweepResult& result);

/// One grid point as a self-describing NDJSON line (no trailing newline):
/// the streaming row format of `ba_cli sweep --out` (docs/SERVICE.md). The
/// encoding is canonical — a fixed field order with no whitespace — so
/// streamed outputs compare byte-for-byte across worker counts.
[[nodiscard]] std::string encode_sweep_row_ndjson(const SweepRow& row);

/// Renders the sweep as the machine-readable BENCH_sweep.json document:
/// wall time, throughput, and one object per grid point (messages, bound,
/// verdict, certificate size). The perf-trajectory artifact CI uploads.
void write_bench_json(std::ostream& os, const SweepResult& result);

/// The library's standard attack targets: four rows of the protocol table
/// (protocols/registry.h), under the names their sweep rows print.
std::vector<SweepEntry> standard_sweep_entries();

/// The standard (n, t) grid the paper report and the benches sweep.
std::vector<SystemParams> standard_sweep_grid();

}  // namespace ba::lowerbound
