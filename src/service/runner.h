#pragma once

// The campaign coordinator behind `ba_cli serve`: shards a CampaignSpec's
// task list across worker *processes*, streams their NDJSON rows to disk,
// and merges the shards into a single results file that is byte-identical
// to a single-shot serial run — even when workers are killed and the
// campaign is resumed (tools/serve_resume_test.cmake pins this).
//
// How the guarantee is built:
//   1. The task list is a pure function of the spec (campaign.h), so every
//      expansion — any shard count, any resume — agrees on task_at(i).
//   2. Rows are pure functions of (spec, task) and carry no worker
//      identity or wall-clock fields, so who computed a row (and when)
//      leaves no trace in its bytes.
//   3. Completed rows are content-addressed by the task's spec hash and
//      folded from cache.ndjson plus any leftover shard files on startup;
//      only the *pending* tasks are leased out. A corrupted cache line
//      fails decode_row's authentication and is simply recomputed.
//   4. The merge walks task indices 0..count-1 and emits each task's row —
//      shard boundaries and completion order cannot reorder it.
//
// Fault handling: each worker bumps a heartbeat file per row. The
// coordinator polls worker exits (waitpid) and heartbeats; a worker that
// exits nonzero, dies by signal, or goes heartbeat-stale is SIGKILLed and
// its lease reclaimed — completed rows are kept (they are in the shard
// file), the remainder is re-leased to a fresh worker, up to
// ServeOptions::max_respawns per campaign. When the respawn budget is
// exhausted the campaign aborts with the state directory intact; rerunning
// `ba_cli serve` with the same spec resumes where it stopped.

#include <cstdint>
#include <string>

#include "service/campaign.h"

namespace ba::service {

struct ServeOptions {
  /// Campaign state directory (created if missing). Holds the layout
  /// documented in service/worker.h.
  std::string state_dir;
  /// Worker processes to shard across (clamped to the pending task count).
  std::uint32_t workers{2};
  /// Dead-worker respawn budget for the whole campaign; when exhausted the
  /// campaign throws, leaving the state directory resumable.
  std::uint32_t respawn_budget{2};
  /// Coordinator poll interval, milliseconds.
  std::uint32_t poll_ms{25};
  /// Executable to spawn workers from; empty = /proc/self/exe. The
  /// executable must dispatch `serve-worker --state DIR --shard N` to
  /// run_shard_worker (ba_cli does).
  std::string worker_exe;
  /// Test hook, forwarded to first-generation workers only: each dies
  /// (SIGKILL) after this many rows. Respawned workers run without it so
  /// reclaim converges. 0 disables.
  std::uint64_t die_after{0};
  /// Suppress progress lines on stderr.
  bool quiet{false};
};

struct ServeSummary {
  std::uint64_t tasks_total{0};
  /// Tasks satisfied from cache/shard files at startup (resume hits).
  std::uint64_t tasks_cached{0};
  /// Tasks executed by workers in this invocation.
  std::uint64_t tasks_run{0};
  /// Cache/shard lines rejected by decode_row authentication (corrupted or
  /// foreign); their tasks were recomputed.
  std::uint64_t rows_rejected{0};
  std::uint32_t workers_used{0};
  std::uint32_t respawns{0};
  /// Wall-clock duration of this invocation, microseconds (reporting only;
  /// never written into result rows).
  std::uint64_t wall_micros{0};
  std::string results_file;
};

/// Runs (or resumes) a sharded campaign to completion and writes the merged
/// results.ndjson. Throws std::runtime_error on spec mismatch with an
/// existing state directory, on an exhausted respawn budget, or on any
/// filesystem failure — in every case the state directory remains valid to
/// resume from.
ServeSummary serve_campaign(const CampaignSpec& spec,
                            const ServeOptions& options);

/// The single-shot serial reference: runs every task in index order in this
/// process, streaming rows to `out_path`. No state directory, no cache.
/// serve_campaign's results.ndjson is byte-identical to this output.
ServeSummary run_campaign_serial(const CampaignSpec& spec,
                                 const std::string& out_path);

/// Renders a BENCH_service.json document (schema consumed by
/// tools/check_bench_regression.py) from a completed campaign's summary.
[[nodiscard]] std::string bench_service_json(const CampaignSpec& spec,
                                             const ServeSummary& summary);

}  // namespace ba::service
