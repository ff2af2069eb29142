#pragma once

// The execution-backend seam: one interface every driver in the repo runs
// executions through.
//
// The repo has two execution substrates — the lockstep round executor
// (runtime/sync_system.h) and the discrete-event network simulator
// (sim/simulator.h) — that implement the same synchronous model (§2) and
// are proven bit-identical under the zero-jitter link model
// (tests/sim/sim_parity_test.cpp). `ExecutionBackend` abstracts over them
// so the Theorem 2 probe/attack/sweep drivers, the CLI, and the benches
// dispatch uniformly instead of hard-wiring one executor each. Adding a
// backend (remote, batched, cached-replay) means implementing `run` and
// adding a row to the backend table (engine/registry.h); every driver picks
// it up.
//
// Contract: `run` is a PURE function of its arguments — no hidden state,
// no wall clock — so a backend handle can be shared across ExperimentPool
// workers and "parallel == serial" stays byte-identical (the jobs ∈ {1,2,8}
// sweep contract of docs/PARALLEL.md). Implementations must be const and
// thread-safe.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "runtime/fault.h"
#include "runtime/process.h"
#include "runtime/sync_system.h"
#include "sim/link.h"

namespace ba::engine {

/// What a backend can do, beyond the base contract of producing decisions
/// and message counts. Drivers query this instead of hard-coding backend
/// names (e.g. the attack engine requires kTraces; the CLI prints metrics
/// only when kNetMetrics is advertised).
enum Capability : std::uint32_t {
  /// Honors RunOptions::record_trace with full per-round event traces.
  kTraces = 1u << 0,
  /// Honors RunOptions::lint_trace (in-run analysis lint of the trace).
  kLint = 1u << 1,
  /// Fills RunResult::net with per-link network metrics.
  kNetMetrics = 1u << 2,
};
using Capabilities = std::uint32_t;

class ExecutionBackend {
 public:
  virtual ~ExecutionBackend() = default;

  /// Runs one execution of `protocol` among n processes with the given
  /// proposals under `adversary` — the exact semantics of `run_execution`
  /// (runtime/sync_system.h). Must be pure and thread-safe.
  [[nodiscard]] virtual RunResult run(const SystemParams& params,
                                      const ProtocolFactory& protocol,
                                      const std::vector<Value>& proposals,
                                      const Adversary& adversary,
                                      const RunOptions& options = {}) const = 0;

  /// Name of the substrate ("lockstep", "sim", ...). Written into schema-v2
  /// trace provenance, so it must be one of engine::backend_names().
  [[nodiscard]] virtual const char* name() const = 0;

  [[nodiscard]] virtual Capabilities capabilities() const = 0;

  [[nodiscard]] bool has_capability(Capabilities wanted) const {
    return (capabilities() & wanted) == wanted;
  }

  /// Convenience: fault-free unanimous-`v` execution (run_all_correct's
  /// shape, on this backend).
  [[nodiscard]] RunResult run_all_correct(const SystemParams& params,
                                          const ProtocolFactory& protocol,
                                          const Value& v,
                                          const RunOptions& options = {}) const;
};

/// Shared, immutable backend handle — what drivers store and what
/// make_backend hands out. Shareable across pool workers.
using BackendHandle = std::shared_ptr<const ExecutionBackend>;

/// The lockstep round executor (runtime/sync_system.h) behind the seam.
class LockstepBackend final : public ExecutionBackend {
 public:
  [[nodiscard]] RunResult run(const SystemParams& params,
                              const ProtocolFactory& protocol,
                              const std::vector<Value>& proposals,
                              const Adversary& adversary,
                              const RunOptions& options = {}) const override;
  [[nodiscard]] const char* name() const override { return "lockstep"; }
  [[nodiscard]] Capabilities capabilities() const override {
    return kTraces | kLint;
  }
};

/// Configuration for a simulator-backed backend: the link model family plus
/// its seed/shape knobs, carried per-backend (RunOptions stays
/// substrate-neutral). Faults come only from each run's Adversary. The link
/// model itself is built per run because the gst lag group depends on n.
struct SimBackendConfig {
  /// Link model family: "sync" | "jitter" | "gst".
  std::string model{"sync"};
  /// Seed for the per-message latency sampler (jitter / pre-GST).
  std::uint64_t seed{1};
  /// Logical round length in ticks.
  sim::SimTime round_ticks{256};
  /// gst only: first round with bounded delivery.
  Round gst_round{3};
  /// gst only: size of the lagging suffix group (declared faulty; must fit
  /// the fault budget together with the run's adversary).
  std::uint32_t lag{1};
  /// Collect per-link metrics into RunResult::net.
  bool collect_metrics{true};
};

/// The discrete-event simulator (sim/simulator.h) behind the seam.
class SimBackend final : public ExecutionBackend {
 public:
  explicit SimBackend(SimBackendConfig config = {});

  [[nodiscard]] RunResult run(const SystemParams& params,
                              const ProtocolFactory& protocol,
                              const std::vector<Value>& proposals,
                              const Adversary& adversary,
                              const RunOptions& options = {}) const override;
  [[nodiscard]] const char* name() const override { return "sim"; }
  [[nodiscard]] Capabilities capabilities() const override {
    return kTraces | kLint |
           (config_.collect_metrics ? kNetMetrics : Capabilities{0});
  }

  [[nodiscard]] const SimBackendConfig& config() const { return config_; }

 private:
  SimBackendConfig config_;
};

/// Configuration for the asynchronous adversarial-scheduler backend
/// (async/backend.h, named "async"): the delivery-order strategy
/// plus its seed. Carried per-backend like SimBackendConfig so RunOptions
/// stays substrate-neutral.
struct AsyncBackendConfig {
  /// Scheduler strategy: "fifo" | "random" | "delay-decider" | "rr-starve"
  /// (async/scheduler.h).
  std::string strategy{"fifo"};
  /// Seed for the seeded strategies (random picks, rr-starve victim).
  std::uint64_t seed{1};
};

/// The process-wide default backend (a stateless LockstepBackend): what
/// drivers fall back to when no backend was picked explicitly.
[[nodiscard]] const ExecutionBackend& default_backend();

}  // namespace ba::engine
