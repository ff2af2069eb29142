#pragma once

// The synchronous round executor (§2). In each round every process
// (1) computes locally, (2) sends messages, (3) receives the messages sent to
// it in the round, subject to the adversary's omission faults. Channels are
// authenticated: the inbox exposes true sender identities.

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "analysis/lint.h"
#include "runtime/fault.h"
#include "runtime/message.h"
#include "runtime/net_metrics.h"
#include "runtime/process.h"
#include "runtime/trace.h"
#include "runtime/types.h"

namespace ba {

struct RunOptions {
  /// Hard cap on executed rounds (protects against non-quiescent protocols).
  Round max_rounds{1000};
  /// Record full per-round event traces (required by the execution calculus;
  /// switch off for large-n complexity benchmarks).
  bool record_trace{true};
  /// Stop once the system is quiescent: all replicas report quiescent() and
  /// no message was sent this round.
  bool stop_on_quiescence{true};
  /// Lint the recorded trace against the execution-invariant checks of
  /// src/analysis (conservation, budget, determinism replay, quiescence) and
  /// attach the report to RunResult::lint. Requires record_trace: executors
  /// throw std::invalid_argument on lint_trace without record_trace rather
  /// than silently linting an empty trace.
  bool lint_trace{false};
  /// Statically derived message budget for the protocol under test
  /// (statics::budget_at at this run's (n, t)). Forwarded to the linter's
  /// budget invariant; only meaningful with lint_trace.
  std::optional<std::uint64_t> message_budget;
};

struct RunResult {
  ExecutionTrace trace;  // events empty when !record_trace; metadata filled
  std::vector<std::optional<Value>> decisions;
  std::uint64_t messages_sent_by_correct{0};
  std::uint64_t messages_sent_total{0};
  Round rounds_executed{0};
  bool quiesced{false};
  /// Present iff RunOptions::lint_trace was set: the invariant-lint verdict
  /// for this execution, so callers (benches, tests) can assert clean traces
  /// without re-running the linter.
  std::optional<analysis::LintReport> lint;
  /// Per-link network metrics, filled by backends that measure the network
  /// (engine::Capability::kNetMetrics — today the discrete-event simulator
  /// with metrics collection on). The lockstep executor leaves it empty:
  /// it has no notion of intra-round delivery timing.
  std::optional<NetMetrics> net;

  [[nodiscard]] bool lint_clean() const { return !lint || lint->clean(); }

  [[nodiscard]] std::optional<Value> unanimous_correct_decision() const {
    return trace.unanimous_correct_decision();
  }
};

/// Runs one execution of `protocol` among n processes with the given
/// proposals (size n; proposals of faulty-Byzantine processes are still used
/// to construct their replicas and may be ignored by the strategy).
RunResult run_execution(const SystemParams& params,
                        const ProtocolFactory& protocol,
                        const std::vector<Value>& proposals,
                        const Adversary& adversary,
                        const RunOptions& options = {});

/// Convenience: fault-free execution where everyone proposes `v`.
RunResult run_all_correct(const SystemParams& params,
                          const ProtocolFactory& protocol, const Value& v,
                          const RunOptions& options = {});

/// Replays process `p`'s deterministic state machine against the receive
/// history recorded in `history` (its proposal and each round's `received`
/// inbox) and returns the outboxes it produces per round plus its decision.
/// This is the "determinism" device used throughout Appendix A: identical
/// receive histories force identical behaviour. Inboxes are delivered in
/// sender order: a recorded inbox already in strictly ascending sender order
/// (as the executors record them) is delivered in place, any other is
/// sorted in a copy first.
struct ReplayResult {
  std::vector<Outbox> outboxes;  // outboxes[r - 1] = sends in round r
  std::optional<Value> decision;
  Round decision_round{kNoRound};
  bool quiescent{false};
};
ReplayResult replay_process(const SystemParams& params,
                            const ProtocolFactory& protocol, ProcessId p,
                            const ProcessTrace& history);

/// Turns a raw outbox into well-formed round-`r` messages from `self`:
/// drops self-sends and out-of-range receivers and keeps the first message
/// per receiver (the model allows at most one, A.1.1). Sorted by receiver;
/// the sort runs only when the kept receivers are not already ascending.
/// The outbox is taken by value: pass a temporary (or std::move it) and each
/// payload moves into its Message with no refcount update.
std::vector<Message> normalize_outbox(Outbox out, ProcessId self, Round r,
                                      std::uint32_t n);

/// Allocation-reusing form of `normalize_outbox`: writes the normalized
/// messages into `msgs` (cleared first; capacity retained) and uses `seen`
/// as the receiver-dedup bitmap instead of a per-call std::set. `seen` must
/// be all-zero with size >= n on entry; it is restored to all-zero on exit.
void normalize_outbox_into(Outbox out, ProcessId self, Round r,
                           std::uint32_t n, std::vector<std::uint8_t>& seen,
                           std::vector<Message>& msgs);

/// Sorts an inbox by sender (the canonical delivery order). The lockstep
/// executor's routing produces sorted inboxes by construction (and only
/// asserts); this is for callers that assemble inboxes in arbitrary order —
/// `replay_process` (for an inbox recorded out of order), the execution
/// calculus, and the simulator's jitter-dependent arrival path.
void sort_inbox(Inbox& inbox);

/// Per-run scratch space for the executor's round loop: outbox/inbox
/// buffers, trace-event staging, the dedup bitmap for
/// `normalize_outbox_into`, and per-process fault lookup tables that let the
/// hot path skip the adversary's std::function predicates entirely for
/// fault-free processes. Everything is allocated once in `prepare` and
/// cleared (capacity retained) each round, so a steady-state round performs
/// no heap allocation of its own when traces are off.
struct RoundScratch {
  std::vector<std::vector<Message>> outs;  // outs[p]: p's normalized sends
  std::vector<Inbox> inboxes;
  std::vector<RoundEvents> events;         // staging; only when tracing
  std::vector<std::uint8_t> seen;          // receiver-dedup bitmap, size n
  std::vector<std::uint8_t> faulty;        // faulty[p] != 0 iff p is faulty
  // drop tables: nonzero iff the corresponding omission predicate exists
  // AND the process is eligible (send: faulty non-Byzantine sender;
  // receive: faulty receiver). The predicate itself is consulted only when
  // the table says it can matter.
  std::vector<std::uint8_t> may_drop_send;
  std::vector<std::uint8_t> may_drop_receive;

  void prepare(const Adversary& adversary, std::uint32_t n,
               bool record_trace);
};

}  // namespace ba
