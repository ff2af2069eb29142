#pragma once

// CampaignSpec: the sweep-at-scale campaign surface of `ba_cli serve`.
//
// A campaign is a grid of *experiment specs* — the cross product
//
//     protocol x (n, t) x backend x fault plan x seed index
//
// expanded into a deterministic, totally-ordered task list. The order is
// axis-major exactly as written above (seed index fastest), so task indices
// are a pure function of the spec and two expansions of the same spec agree
// on every index regardless of sharding. Each task carries an index-keyed
// SipHash seed (parallel/seed.h) and a 64-bit content hash of its canonical
// encoding; the hash keys the result cache that makes campaigns resumable
// (service/runner.h).
//
// Every task evaluates to exactly one self-describing NDJSON row
// (CampaignRow): spec hash, seed, observed messages vs the statically
// derived bound (src/statics/), decision outcome, and backend provenance.
// Rows are pure functions of their task, carry no wall-clock or worker
// identity, and re-encode byte-identically — that is what lets a sharded,
// killed, resumed campaign merge to the same bytes as a single-shot run.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "engine/backend.h"
#include "runtime/process.h"
#include "runtime/types.h"

namespace ba::service {

/// One grid point of a campaign: everything needed to run it, independent
/// of every other task.
struct TaskSpec {
  std::uint64_t index{0};
  std::string protocol;
  SystemParams params;
  std::string backend;  // engine backend spec, e.g. "lockstep", "sim:jitter,7"
  std::string fault;    // fault-plan name, e.g. "fault-free", "crash:1"
  std::uint64_t seed_index{0};
  /// parallel::derive_task_seed(master_seed, index): drives proposals and
  /// any randomized fault plan for this task.
  std::uint64_t seed{0};
};

struct CampaignSpec {
  std::string name{"campaign"};
  std::uint64_t master_seed{1};
  std::vector<std::string> protocols;       // protocol table names or aliases
  std::vector<SystemParams> grid;           // (n, t) points
  std::vector<std::string> backends{std::string{"lockstep"}};
  /// Explicit fault plans (faults/fault_spec.h grammar, docs/FAULTS.md).
  /// Mutually exclusive with `fault_axis` — clear this when setting that.
  std::vector<std::string> faults{std::string{"fault-free"}};
  /// Fault axis: sweepable fault kinds ("isolate", "crash", ...) expanded
  /// into one plan per kind per count in `fault_counts` — the f axis of the
  /// campaign. Rows of a fault-axis campaign additionally carry "f" and
  /// "static_bound_f" (the bound evaluated at the row's actual fault count).
  std::vector<std::string> fault_axis;
  /// Counts the fault axis sweeps; empty = 0..min t over the grid.
  std::vector<std::uint32_t> fault_counts;
  std::uint64_t seeds{1};                   // seed indices 0..seeds-1

  friend bool operator==(const CampaignSpec&, const CampaignSpec&) = default;

  /// Parses the JSON campaign format (docs/SERVICE.md):
  ///   {"name": "...", "master_seed": 7,
  ///    "protocols": ["phase-king", ...],
  ///    "grid": ["4:1", {"n": 8, "t": 2}, ...],
  ///    "backends": ["lockstep", "sim:sync,1"],
  ///    "faults": ["fault-free", "crash:1"],
  ///    "fault_axis": ["isolate"], "fault_counts": [0, 1, 2],
  ///    "seeds": 25}
  /// Missing backends/faults/seeds take the defaults above ("faults" and
  /// "fault_axis" are mutually exclusive). Throws std::runtime_error naming
  /// the offending field; the returned spec has passed validate().
  static CampaignSpec from_json(std::string_view text);

  /// Canonical JSON encoding (sorted, fixed field order). Two specs are the
  /// same campaign iff their canonical encodings are byte-equal — the
  /// coordinator uses this to refuse resuming a state directory with a
  /// different spec.
  [[nodiscard]] std::string to_json() const;

  /// Structural validation: non-empty axes, valid (n, t) points, resolvable
  /// protocol names, parseable backend specs (the async backend is rejected
  /// — campaigns run synchronous protocols), fault plans that fit every
  /// grid point's fault budget, sweepable fault-axis kinds. Throws
  /// std::runtime_error on the first problem; unknown fault plans throw the
  /// pinned faults::parse_fault_spec message unchanged, so every surface
  /// (run/sim/sweep/serve) reports the same string.
  void validate() const;

  /// The fault strings of the fault-plan axis: `faults` verbatim, or the
  /// fault_axis x fault_counts expansion ("isolate:0", "isolate:1", ...).
  [[nodiscard]] std::vector<std::string> effective_faults() const;

  /// True when rows carry the per-f columns (f, static_bound_f).
  [[nodiscard]] bool has_fault_axis() const { return !fault_axis.empty(); }

  [[nodiscard]] std::uint64_t task_count() const;

  /// The task at `index` of the canonical total order; index < task_count().
  [[nodiscard]] TaskSpec task_at(std::uint64_t index) const;
};

/// The canonical encoding of one task: what the spec hash is computed over.
/// Includes the master seed, so campaigns with different seeding never share
/// cache entries.
[[nodiscard]] std::string canonical_task_encoding(const CampaignSpec& spec,
                                                  const TaskSpec& task);

/// SipHash-2-4 (fixed service key) of canonical_task_encoding — the cache
/// key and the row's "spec" field.
[[nodiscard]] std::uint64_t task_spec_hash(const CampaignSpec& spec,
                                           const TaskSpec& task);

/// One result row. Everything a downstream chart needs, self-describing.
struct CampaignRow {
  std::uint64_t spec_hash{0};
  std::string protocol;
  SystemParams params;
  std::string backend;
  std::string fault;
  std::uint64_t seed_index{0};
  std::uint64_t seed{0};
  Round rounds{0};
  /// Messages sent by correct processes (the paper's complexity measure).
  std::uint64_t messages{0};
  /// statics::budget_at over the protocol's CommSpec at the worst case
  /// f = t; nullopt when the protocol declares none.
  std::optional<std::uint64_t> static_bound;
  /// Fault-axis campaigns only: the plan's declared actual-fault count and
  /// the static bound evaluated at that f (nullopt static_bound_f when the
  /// protocol declares no CommSpec). Legacy campaigns omit both fields and
  /// their rows stay byte-identical to the pre-fault-axis encoding.
  std::optional<std::uint32_t> f;
  std::optional<std::uint64_t> static_bound_f;
  /// Correct processes that decided.
  std::uint32_t decided{0};
  /// True iff every correct process decided and all decisions are equal.
  bool agree{false};

  friend bool operator==(const CampaignRow&, const CampaignRow&) = default;
};

/// Encodes `row` as one NDJSON line (no trailing newline). The line ends
/// with a "row_hash" field: SipHash-2-4 over the preceding bytes, which is
/// what detects cache poisoning — see decode_row.
[[nodiscard]] std::string encode_row(const CampaignRow& row);

/// Decodes and *authenticates* one NDJSON line: parses the JSON, recomputes
/// the row hash over the line's prefix bytes, re-encodes the decoded fields
/// and requires byte-equality with the input. Returns nullopt for any
/// truncated, corrupted, or non-canonical line — callers treat that as "not
/// cached" and recompute.
[[nodiscard]] std::optional<CampaignRow> decode_row(std::string_view line);

/// Deterministic proposal vector for a task: bit proposals derived from the
/// task seed via SipHash (independent of everything but (seed, n)).
[[nodiscard]] std::vector<Value> derive_proposals(std::uint64_t seed,
                                                  std::uint32_t n);

/// Executes campaign tasks. Resolves each distinct backend spec once and
/// caches static bounds per (protocol, n, t); `run` itself is pure and
/// thread-compatible for distinct TaskRunner instances (shard workers each
/// own one).
class TaskRunner {
 public:
  explicit TaskRunner(const CampaignSpec& spec);

  /// Runs one task and returns its row. The row is a pure function of
  /// (spec, task).
  [[nodiscard]] CampaignRow run(const TaskSpec& task) const;

 private:
  const CampaignSpec& spec_;
  std::map<std::string, engine::BackendHandle> backends_;
  mutable std::map<std::string, std::uint64_t> bound_cache_;
};

/// 16-digit lowercase hex of a 64-bit value (spec/row hashes in rows).
[[nodiscard]] std::string hex16(std::uint64_t v);

}  // namespace ba::service
