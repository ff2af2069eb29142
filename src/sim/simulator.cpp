#include "sim/simulator.h"

#include <queue>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "analysis/lint.h"
#include "runtime/serde.h"

namespace ba::sim {
namespace {

// Phase breaks ties at equal logical times: all deliveries due at a round
// boundary land before the round ends, and the next round starts last.
enum : std::uint8_t { kPhaseDeliver = 0, kPhaseRoundEnd = 1, kPhaseRoundStart = 2 };

struct Event {
  SimTime time{0};
  std::uint8_t phase{kPhaseDeliver};
  std::uint64_t seq{0};
  Round round{kNoRound};  // control events
  Message msg;            // kPhaseDeliver
  SimTime latency{0};     // kPhaseDeliver: for the histogram
};

struct EventAfter {
  bool operator()(const Event& a, const Event& b) const {
    return std::tie(a.time, a.phase, a.seq) > std::tie(b.time, b.phase, b.seq);
  }
};

Event control_event(SimTime time, std::uint8_t phase, Round round) {
  Event ev;
  ev.time = time;
  ev.phase = phase;
  ev.round = round;
  return ev;
}

Event deliver_event(SimTime time, Round round, Message msg, SimTime latency) {
  Event ev;
  ev.time = time;
  ev.phase = kPhaseDeliver;
  ev.round = round;
  ev.msg = std::move(msg);
  ev.latency = latency;
  return ev;
}

}  // namespace

SimResult simulate(const SystemParams& params, const ProtocolFactory& protocol,
                   const std::vector<Value>& proposals,
                   const Adversary& adversary, const SimConfig& config) {
  if (!params.valid()) throw std::invalid_argument("invalid SystemParams");
  if (proposals.size() != params.n) {
    throw std::invalid_argument("proposals.size() != n");
  }
  if (config.round_ticks == 0) {
    throw std::invalid_argument("round_ticks must be >= 1");
  }
  if (config.lint_trace && !config.record_trace) {
    throw std::invalid_argument(
        "SimConfig::lint_trace requires record_trace: there is no trace to "
        "lint when recording is off");
  }

  // Fold the link model's lag group into the adversary, so every drop the
  // simulation can produce is an omission attributable to a declared-faulty
  // process.
  Adversary adv = adversary;
  const ProcessSet& lag = config.link.required_faulty();
  if (!lag.empty()) adv.faulty = adv.faulty.set_union(lag);
  if (adv.faulty.size() > params.t) {
    throw std::invalid_argument(
        "combined faulty set (adversary + link lag group) exceeds t");
  }
  if (!adv.byzantine.is_subset_of(adv.faulty)) {
    throw std::invalid_argument("byzantine set must be a subset of faulty");
  }
  if (!adv.byzantine.empty() && !adv.byzantine_factory) {
    throw std::invalid_argument("byzantine set without byzantine_factory");
  }

  const std::uint32_t n = params.n;
  std::vector<std::unique_ptr<Process>> replicas(n);
  for (ProcessId p = 0; p < n; ++p) {
    ProcessContext ctx{params, p, proposals[p]};
    replicas[p] = adv.is_byzantine(p) ? adv.byzantine_factory(ctx)
                                      : protocol(ctx);
    if (!replicas[p]) throw std::runtime_error("factory returned null");
  }

  SimResult out;
  RunResult& result = out.run;
  result.decisions.assign(n, std::nullopt);
  result.trace.params = params;
  result.trace.faulty = adv.faulty;
  result.trace.procs.resize(n);
  for (ProcessId p = 0; p < n; ++p) {
    result.trace.procs[p].proposal = proposals[p];
  }
  const bool tracing = config.record_trace;
  const bool metering = config.collect_metrics;
  out.metrics.reset(n);

  RoundScratch scratch;
  scratch.prepare(adv, n, tracing);

  std::priority_queue<Event, std::vector<Event>, EventAfter> queue;
  std::uint64_t seq = 0;
  const auto push = [&queue, &seq](Event ev) {
    ev.seq = seq++;
    queue.push(std::move(ev));
  };
  const SimTime dt = config.round_ticks;
  if (config.max_rounds >= 1) {
    push(control_event(0, kPhaseRoundStart, 1));
  }

  std::uint64_t sent_in_round = 0;
  // Last sender delivered per receiver within the current round, for the
  // reorder metric (kNoProcess = nothing arrived yet this round).
  std::vector<ProcessId> last_sender(n, kNoProcess);

  while (!queue.empty()) {
    Event ev = queue.top();
    queue.pop();
    ++out.events_processed;
    out.end_time = ev.time;

    switch (ev.phase) {
      case kPhaseRoundStart: {
        const Round r = ev.round;
        const SimTime round_start = SimTime{r - 1} * dt;
        sent_in_round = 0;
        // Outbox computation mirrors run_execution phase 1 exactly: every
        // process's round-r sends are a function of its state at the start
        // of round r, normalized before any routing happens.
        for (ProcessId p = 0; p < n; ++p) {
          normalize_outbox_into(replicas[p]->outbox_for_round(r), p, r, n,
                                scratch.seen, scratch.outs[p]);
          scratch.inboxes[p].clear();
          last_sender[p] = kNoProcess;
          if (tracing) {
            RoundEvents& re = scratch.events[p];
            re.sent.clear();
            re.send_omitted.clear();
            re.received.clear();
            re.receive_omitted.clear();
          }
        }
        // Routing: omissions are decided now (predicates over message
        // identities are time-invariant), in ascending-sender order so the
        // staged trace events match the lockstep executor's canonical
        // order; surviving messages become Deliver events at
        // round_start + latency.
        for (ProcessId p = 0; p < n; ++p) {
          const bool correct_sender = scratch.faulty[p] == 0;
          const bool check_send = scratch.may_drop_send[p] != 0;
          for (Message& m : scratch.outs[p]) {
            if (check_send && adv.send_omit(m.key())) {
              if (tracing) scratch.events[p].send_omitted.push_back(m);
              if (metering) ++out.metrics.link(p, m.receiver).dropped;
              continue;
            }
            ++sent_in_round;
            ++result.messages_sent_total;
            if (correct_sender) ++result.messages_sent_by_correct;
            if (tracing) scratch.events[p].sent.push_back(m);
            if (metering) ++out.metrics.sent_by[p];
            if (scratch.may_drop_receive[m.receiver] != 0 &&
                adv.receive_omit(m.key())) {
              if (tracing) {
                scratch.events[m.receiver].receive_omitted.push_back(m);
              }
              if (metering) ++out.metrics.link(p, m.receiver).dropped;
              continue;
            }
            const SimTime lat = config.link.latency(m.key(), dt);
            if (lat <= dt) {
              push(deliver_event(round_start + lat, r, m, lat));
            } else {
              // Late: the round-based state machine can never see this
              // message — it is an omission pinned on the (declared
              // faulty) lagging receiver.
              if (tracing) {
                scratch.events[m.receiver].receive_omitted.push_back(m);
              }
              if (metering) ++out.metrics.link(p, m.receiver).late;
            }
          }
        }
        push(control_event(SimTime{r} * dt, kPhaseRoundEnd, r));
        break;
      }

      case kPhaseDeliver: {
        Message& m = ev.msg;
        if (metering) {
          LinkStats& l = out.metrics.link(m.sender, m.receiver);
          ++l.delivered;
          l.payload_bytes += encoded_size(m.payload);
          ++out.metrics.delivered_to[m.receiver];
          ++out.metrics.deliveries;
          out.metrics.latency.record(ev.latency);
          if (last_sender[m.receiver] != kNoProcess &&
              m.sender < last_sender[m.receiver]) {
            ++out.metrics.reordered;
          }
          last_sender[m.receiver] = m.sender;
        }
        scratch.inboxes[m.receiver].push_back(std::move(m));
        break;
      }

      case kPhaseRoundEnd: {
        const Round r = ev.round;
        for (ProcessId p = 0; p < n; ++p) {
          Inbox& inbox = scratch.inboxes[p];
          // Arrival order is jitter-dependent; delivery order is canonical.
          sort_inbox(inbox);
          if (tracing) scratch.events[p].received = inbox;
          replicas[p]->deliver(r, inbox);
          if (!result.decisions[p].has_value()) {
            if (auto d = replicas[p]->decision()) {
              result.decisions[p] = d;
              result.trace.procs[p].decision = d;
              result.trace.procs[p].decision_round = r;
            }
          }
        }
        if (tracing) {
          for (ProcessId p = 0; p < n; ++p) {
            result.trace.procs[p].rounds.push_back(
                std::move(scratch.events[p]));
          }
        }
        result.rounds_executed = r;
        result.trace.rounds = r;

        bool stop = false;
        if (config.stop_on_quiescence && sent_in_round == 0) {
          bool all_quiescent = true;
          for (ProcessId p = 0; p < n; ++p) {
            if (!replicas[p]->quiescent()) {
              all_quiescent = false;
              break;
            }
          }
          if (all_quiescent) {
            result.quiesced = true;
            result.trace.quiesced = true;
            stop = true;
          }
        }
        if (!stop && r < config.max_rounds) {
          push(control_event(SimTime{r} * dt, kPhaseRoundStart, r + 1));
        }
        break;
      }

      default:
        throw std::logic_error("unknown event phase");
    }
  }

  if (config.lint_trace) {
    analysis::LintOptions lint_options;
    lint_options.message_budget = config.message_budget;
    result.lint =
        analysis::lint_execution(result.trace, protocol, lint_options);
  }
  // Surface the network observations through the backend-neutral seam
  // (engine::ExecutionBackend consumers read RunResult::net; SimResult
  // keeps its own copy for the simulator-native callers).
  if (metering) result.net = out.metrics;
  return out;
}

}  // namespace ba::sim
