#include "runtime/sync_system.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace ba {

namespace {

[[maybe_unused]] bool inbox_sorted_by_sender(const Inbox& inbox) {
  return std::is_sorted(inbox.begin(), inbox.end(),
                        [](const Message& a, const Message& b) {
                          return a.sender < b.sender;
                        });
}

}  // namespace

void normalize_outbox_into(Outbox out, ProcessId self, Round r,
                           std::uint32_t n, std::vector<std::uint8_t>& seen,
                           std::vector<Message>& msgs) {
  assert(seen.size() >= n);
  msgs.clear();
  msgs.reserve(out.size());
  bool ascending = true;
  for (Outgoing& o : out) {
    if (o.to == self || o.to >= n) continue;
    if (seen[o.to] != 0) continue;
    seen[o.to] = 1;
    if (!msgs.empty() && o.to < msgs.back().receiver) ascending = false;
    msgs.push_back(Message{self, o.to, r, std::move(o.payload)});
  }
  // Restore the bitmap to all-zero by visiting only the receivers just
  // marked — cheaper than an O(n) wipe when outboxes are sparse.
  for (const Message& m : msgs) seen[m.receiver] = 0;
  // Multicasts list their receivers in ascending order already.
  if (ascending) return;
  std::sort(msgs.begin(), msgs.end(),
            [](const Message& a, const Message& b) {
              return a.receiver < b.receiver;
            });
}

std::vector<Message> normalize_outbox(Outbox out, ProcessId self, Round r,
                                      std::uint32_t n) {
  std::vector<std::uint8_t> seen(n, 0);
  std::vector<Message> msgs;
  normalize_outbox_into(std::move(out), self, r, n, seen, msgs);
  return msgs;
}

void sort_inbox(Inbox& inbox) {
  std::sort(inbox.begin(), inbox.end(), [](const Message& a, const Message& b) {
    return a.sender < b.sender;
  });
}

void RoundScratch::prepare(const Adversary& adversary, std::uint32_t n,
                           bool record_trace) {
  outs.resize(n);
  inboxes.resize(n);
  events.resize(record_trace ? n : 0);
  seen.assign(n, 0);
  faulty.assign(n, 0);
  may_drop_send.assign(n, 0);
  may_drop_receive.assign(n, 0);
  for (ProcessId p = 0; p < n; ++p) {
    const bool f = adversary.is_faulty(p);
    faulty[p] = f ? 1 : 0;
    may_drop_send[p] =
        (adversary.send_omit && f && !adversary.is_byzantine(p)) ? 1 : 0;
    may_drop_receive[p] = (adversary.receive_omit && f) ? 1 : 0;
  }
}

RunResult run_execution(const SystemParams& params,
                        const ProtocolFactory& protocol,
                        const std::vector<Value>& proposals,
                        const Adversary& adversary,
                        const RunOptions& options) {
  if (!params.valid()) throw std::invalid_argument("invalid SystemParams");
  if (proposals.size() != params.n) {
    throw std::invalid_argument("proposals.size() != n");
  }
  if (adversary.faulty.size() > params.t) {
    throw std::invalid_argument("|faulty| > t");
  }
  if (!adversary.byzantine.is_subset_of(adversary.faulty)) {
    throw std::invalid_argument("byzantine set must be a subset of faulty");
  }
  if (!adversary.byzantine.empty() && !adversary.byzantine_factory) {
    throw std::invalid_argument("byzantine set without byzantine_factory");
  }
  if (options.lint_trace && !options.record_trace) {
    throw std::invalid_argument(
        "RunOptions::lint_trace requires record_trace: there is no trace to "
        "lint when recording is off");
  }

  const std::uint32_t n = params.n;
  std::vector<std::unique_ptr<Process>> replicas(n);
  for (ProcessId p = 0; p < n; ++p) {
    ProcessContext ctx{params, p, proposals[p]};
    replicas[p] = adversary.is_byzantine(p) ? adversary.byzantine_factory(ctx)
                                            : protocol(ctx);
    if (!replicas[p]) throw std::runtime_error("factory returned null");
  }

  RunResult result;
  result.decisions.assign(n, std::nullopt);
  result.trace.params = params;
  result.trace.faulty = adversary.faulty;
  result.trace.procs.resize(n);
  for (ProcessId p = 0; p < n; ++p) result.trace.procs[p].proposal = proposals[p];

  const bool tracing = options.record_trace;
  RoundScratch scratch;
  scratch.prepare(adversary, n, tracing);

  for (Round r = 1; r <= options.max_rounds; ++r) {
    // Phase 1: compute all outboxes from states at the start of round r,
    // and reset the per-round buffers (capacity is retained).
    std::uint64_t sent_this_round = 0;
    for (ProcessId p = 0; p < n; ++p) {
      normalize_outbox_into(replicas[p]->outbox_for_round(r), p, r, n,
                            scratch.seen, scratch.outs[p]);
      scratch.inboxes[p].clear();
      if (tracing) {
        RoundEvents& ev = scratch.events[p];
        ev.sent.clear();
        ev.send_omitted.clear();
        ev.received.clear();
        ev.receive_omitted.clear();
      }
    }

    // Phase 2: apply send omissions, route to inboxes, apply receive
    // omissions. The omission predicates are std::function indirections;
    // the scratch lookup tables let fault-free processes (the common case)
    // skip them entirely. Each message moves to exactly one place, its inbox
    // or the omission list that records its loss; only the trace's `sent`
    // takes a copy. A moved-from Message has a null payload, so nothing
    // reads `m` after the move.
    for (ProcessId p = 0; p < n; ++p) {
      const bool correct_sender = scratch.faulty[p] == 0;
      const bool check_send = scratch.may_drop_send[p] != 0;
      for (Message& m : scratch.outs[p]) {
        if (check_send && adversary.send_omit(m.key())) {
          if (tracing) scratch.events[p].send_omitted.push_back(std::move(m));
          continue;
        }
        ++sent_this_round;
        ++result.messages_sent_total;
        if (correct_sender) ++result.messages_sent_by_correct;
        if (tracing) scratch.events[p].sent.push_back(m);
        const ProcessId to = m.receiver;
        if (scratch.may_drop_receive[to] != 0 &&
            adversary.receive_omit(m.key())) {
          if (tracing) {
            scratch.events[to].receive_omitted.push_back(std::move(m));
          }
          continue;
        }
        scratch.inboxes[to].push_back(std::move(m));
      }
    }

    // Phase 3: deliver. Routing visits senders in ascending order and each
    // sender contributes at most one message per receiver, so every inbox is
    // already in canonical (sender-sorted) delivery order — no per-round
    // sort. Once delivered, the inbox itself becomes the trace's `received`.
    for (ProcessId p = 0; p < n; ++p) {
      Inbox& inbox = scratch.inboxes[p];
      assert(inbox_sorted_by_sender(inbox));
      replicas[p]->deliver(r, inbox);
      if (tracing) scratch.events[p].received = std::move(inbox);
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
        result.trace.procs[p].rounds.push_back(std::move(scratch.events[p]));
      }
    }
    result.rounds_executed = r;
    result.trace.rounds = r;

    if (options.stop_on_quiescence && sent_this_round == 0) {
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
        break;
      }
    }
  }
  if (options.lint_trace) {
    // Correct processes are replayed with the honest factory; faulty ones
    // (possibly Byzantine) are exempt from the determinism check.
    analysis::LintOptions lint_options;
    lint_options.message_budget = options.message_budget;
    result.lint =
        analysis::lint_execution(result.trace, protocol, lint_options);
  }
  return result;
}

RunResult run_all_correct(const SystemParams& params,
                          const ProtocolFactory& protocol, const Value& v,
                          const RunOptions& options) {
  std::vector<Value> proposals(params.n, v);
  return run_execution(params, protocol, proposals, Adversary::none(),
                       options);
}

ReplayResult replay_process(const SystemParams& params,
                            const ProtocolFactory& protocol, ProcessId p,
                            const ProcessTrace& history) {
  ProcessContext ctx{params, p, history.proposal};
  std::unique_ptr<Process> replica = protocol(ctx);
  ReplayResult result;
  result.outboxes.reserve(history.rounds.size());
  Inbox sorted;  // only for inboxes recorded out of sender order
  for (std::size_t r = 0; r < history.rounds.size(); ++r) {
    const Round round = static_cast<Round>(r + 1);
    result.outboxes.push_back(replica->outbox_for_round(round));
    const Inbox& recorded = history.rounds[r].received;
    const bool in_order =
        std::adjacent_find(recorded.begin(), recorded.end(),
                           [](const Message& a, const Message& b) {
                             return a.sender >= b.sender;
                           }) == recorded.end();
    if (in_order) {
      replica->deliver(round, recorded);
    } else {
      sorted = recorded;
      sort_inbox(sorted);
      replica->deliver(round, sorted);
    }
    if (!result.decision.has_value()) {
      if (auto d = replica->decision()) {
        result.decision = d;
        result.decision_round = round;
      }
    }
  }
  result.quiescent = replica->quiescent();
  return result;
}

}  // namespace ba
