#pragma once

// The deterministic discrete-event network simulator.
//
// Where runtime/sync_system.cpp advances the whole system in lockstep
// rounds, the simulator runs the *network* as a seeded priority-queue event
// loop over logical time: every message is an individually scheduled
// delivery event whose latency comes from a link model (sim/link.h). The
// round abstraction the paper's state machines need (A.1.3) is preserved by
// two control events per round:
//
//   RoundStart(r) at (r-1)*Δ   every process computes its round-r outbox;
//                              each message gets a sampled latency and is
//                              scheduled as a Deliver event (or recorded as
//                              an omission — adversary drop or model-late);
//   Deliver(m)    at send+lat  m lands in its receiver's pending inbox;
//                              per-link counters and the latency histogram
//                              advance here;
//   RoundEnd(r)   at r*Δ       pending inboxes are sorted into canonical
//                              (ascending-sender) order and delivered.
//
// Determinism contract: events are totally ordered by (time, phase, seq) —
// Deliver < RoundEnd < RoundStart at equal times, seq a monotone insertion
// counter — and every latency is a pure SipHash function of the message
// identity, so a simulation is a deterministic function of its arguments.
// No wall clock, no global RNG, no iteration over unordered containers.
//
// Faults arrive only as a static Adversary (runtime/fault.h), usually
// lowered from a FaultSpec by faults::compile_adversary, and model-late
// messages (partial synchrony before GST) are recorded as receive omissions
// blamed on the lagging — declared-faulty — receiver.
// The emitted ExecutionTrace is therefore indistinguishable in vocabulary
// from a lockstep trace, and the src/analysis lint invariants
// (conservation, budget, determinism, quiescence) apply unchanged.
//
// Parity guarantee (tested in tests/sim/sim_parity_test.cpp): under the
// zero-jitter synchronous model, `simulate` produces decisions, message
// counts, and full traces bit-identical to `run_execution` for any protocol
// and adversary.

#include <cstdint>
#include <optional>
#include <vector>

#include "runtime/fault.h"
#include "runtime/net_metrics.h"
#include "runtime/process.h"
#include "runtime/sync_system.h"
#include "sim/link.h"

namespace ba::sim {

struct SimConfig {
  LinkModel link{};
  /// Logical length of one round, in ticks. Latencies are resolved against
  /// this (0-latency models mean "the full round").
  SimTime round_ticks{256};
  Round max_rounds{1000};
  bool record_trace{true};
  bool stop_on_quiescence{true};
  /// Lint the recorded trace with the analysis linter and attach the report
  /// to the embedded RunResult. Requires record_trace: `simulate` throws
  /// std::invalid_argument on lint_trace without record_trace.
  bool lint_trace{false};
  /// Statically derived message budget forwarded to the linter's budget
  /// invariant (see RunOptions::message_budget).
  std::optional<std::uint64_t> message_budget;
  bool collect_metrics{true};
};

struct SimResult {
  /// Same contract as run_execution's result: trace, decisions, message
  /// counts, rounds, quiescence, optional lint report.
  RunResult run;
  NetMetrics metrics;
  /// Events popped from the queue (RoundStart + Deliver + RoundEnd).
  std::uint64_t events_processed{0};
  /// Logical time at which the simulation stopped.
  SimTime end_time{0};
};

/// Runs one simulated execution. The effective adversary is `adversary`
/// with the link model's required_faulty() set added; throws
/// std::invalid_argument if the combined faulty set exceeds t.
SimResult simulate(const SystemParams& params, const ProtocolFactory& protocol,
                   const std::vector<Value>& proposals,
                   const Adversary& adversary, const SimConfig& config = {});

}  // namespace ba::sim
