#include "engine/backend.h"

#include <stdexcept>
#include <utility>

#include "sim/simulator.h"

namespace ba::engine {

RunResult ExecutionBackend::run_all_correct(const SystemParams& params,
                                            const ProtocolFactory& protocol,
                                            const Value& v,
                                            const RunOptions& options) const {
  // COW Values: n handles to one shared payload, not n deep copies.
  const std::vector<Value> proposals(params.n, v);
  return run(params, protocol, proposals, Adversary::none(), options);
}

RunResult LockstepBackend::run(const SystemParams& params,
                               const ProtocolFactory& protocol,
                               const std::vector<Value>& proposals,
                               const Adversary& adversary,
                               const RunOptions& options) const {
  return run_execution(params, protocol, proposals, adversary, options);
}

SimBackend::SimBackend(SimBackendConfig config) : config_(std::move(config)) {
  if (config_.model != "sync" && config_.model != "jitter" &&
      config_.model != "gst") {
    throw std::invalid_argument("SimBackend: unknown link model '" +
                                config_.model + "' (sync | jitter | gst)");
  }
  if (config_.round_ticks == 0) {
    throw std::invalid_argument("SimBackend: round_ticks must be >= 1");
  }
}

RunResult SimBackend::run(const SystemParams& params,
                          const ProtocolFactory& protocol,
                          const std::vector<Value>& proposals,
                          const Adversary& adversary,
                          const RunOptions& options) const {
  sim::SimConfig cfg;
  cfg.round_ticks = config_.round_ticks;
  cfg.max_rounds = options.max_rounds;
  cfg.record_trace = options.record_trace;
  cfg.stop_on_quiescence = options.stop_on_quiescence;
  cfg.lint_trace = options.lint_trace;
  cfg.message_budget = options.message_budget;
  cfg.collect_metrics = config_.collect_metrics;
  if (config_.model == "sync") {
    cfg.link = sim::LinkModel::synchronous();
  } else if (config_.model == "jitter") {
    cfg.link = sim::LinkModel::jitter(1, config_.round_ticks, config_.seed);
  } else {  // gst (the constructor rejected everything else)
    if (config_.lag == 0 || config_.lag > params.t ||
        config_.lag >= params.n) {
      throw std::invalid_argument(
          "SimBackend: gst lag group size must be in [1, t]");
    }
    cfg.link = sim::LinkModel::partial_synchrony(
        ProcessSet::range(params.n - config_.lag, params.n),
        config_.gst_round, config_.seed);
  }
  sim::SimResult res =
      sim::simulate(params, protocol, proposals, adversary, cfg);
  return std::move(res.run);
}

const ExecutionBackend& default_backend() {
  static const LockstepBackend backend;
  return backend;
}

}  // namespace ba::engine
