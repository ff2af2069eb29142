#include "analysis/lint.h"

#include <algorithm>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <utility>

#include "runtime/sync_system.h"

namespace ba::analysis {
namespace {

/// Shared mutable state of one lint pass. Checks append violations until the
/// cap is hit; every check degrades gracefully on traces too malformed to
/// inspect further (the structural pre-pass reports why).
class Linter {
 public:
  Linter(const ExecutionTrace& trace, const LintOptions& options)
      : trace_(trace), options_(options) {}

  LintReport run(const ProtocolFactory* protocol) {
    // The shape pre-pass is not optional: every later check indexes
    // `procs` by ProcessId and `rounds` by round number.
    if (!check_shape()) return std::move(report_);
    check_structure();
    if (options_.conservation) check_conservation();
    if (options_.budget) check_budget();
    if (options_.quiescence) check_quiescent_final_round();
    // Round-based determinism replay is meaningless for async virtual-round
    // traces (LintOptions::async_model): one delivery per round, driven by a
    // scheduler the replayer cannot reconstruct.
    if (protocol != nullptr && options_.determinism && !options_.async_model) {
      report_.replayed = true;
      check_determinism(*protocol);
    }
    return std::move(report_);
  }

 private:
  [[nodiscard]] bool full() const {
    return report_.violations.size() >= options_.max_violations;
  }

  template <typename... Parts>
  void add(LintCheck check, ProcessId p, Round r, Parts&&... parts) {
    if (full()) {
      report_.truncated = true;
      return;
    }
    std::ostringstream detail;
    (detail << ... << parts);
    report_.violations.push_back(LintViolation{check, p, r, detail.str()});
  }

  /// Fatal shape errors: a trace that cannot even be indexed.
  bool check_shape() {
    bool ok = true;
    if (!trace_.params.valid()) {
      add(LintCheck::kStructure, kNoProcess, kNoRound,
          "invalid system parameters n=", trace_.params.n,
          " t=", trace_.params.t, " (need n > 0 and t < n)");
      ok = false;
    }
    if (trace_.procs.size() != trace_.params.n) {
      add(LintCheck::kStructure, kNoProcess, kNoRound,
          "trace has ", trace_.procs.size(), " process traces for n=",
          trace_.params.n);
      ok = false;
    }
    for (ProcessId p : trace_.faulty) {
      if (p >= trace_.params.n) {
        add(LintCheck::kStructure, p, kNoRound,
            "faulty set names process p", p, " outside the system (n=",
            trace_.params.n, ")");
        ok = false;
      }
    }
    return ok;
  }

  /// A.1.1 / A.1.4 message-slot discipline inside each fragment.
  void check_structure() {
    const std::uint32_t n = trace_.params.n;
    for (ProcessId p = 0; p < n; ++p) {
      const ProcessTrace& pt = trace_.procs[p];
      if (pt.rounds.size() != trace_.rounds) {
        add(LintCheck::kStructure, p, kNoRound, "process trace covers ",
            pt.rounds.size(), " rounds but the execution records ",
            trace_.rounds);
      }
      if (pt.decision.has_value() != (pt.decision_round != kNoRound)) {
        add(LintCheck::kStructure, p, pt.decision_round,
            "decision and decision_round disagree (",
            pt.decision ? "decided" : "undecided", " at round ",
            pt.decision_round, ")");
      } else if (pt.decision && pt.decision_round > pt.rounds.size()) {
        add(LintCheck::kStructure, p, pt.decision_round,
            "decision_round ", pt.decision_round,
            " lies beyond the recorded ", pt.rounds.size(), " rounds");
      }
      for (std::size_t i = 0; i < pt.rounds.size(); ++i) {
        const Round r = static_cast<Round>(i + 1);
        const RoundEvents& re = pt.rounds[i];
        report_.stats.rounds_checked++;
        std::set<ProcessId> out_receivers;
        for (const auto* bucket : {&re.sent, &re.send_omitted}) {
          for (const Message& m : *bucket) {
            report_.stats.messages_checked++;
            if (m.sender != p) {
              add(LintCheck::kStructure, p, r, "outbound message claims sender p",
                  m.sender);
            }
            if (m.round != r) {
              add(LintCheck::kStructure, p, r,
                  "outbound message claims round ", m.round);
            }
            if (m.receiver == p) {
              add(LintCheck::kStructure, p, r, "self-message");
            } else if (m.receiver >= n) {
              add(LintCheck::kStructure, p, r, "receiver p", m.receiver,
                  " outside the system");
            } else if (!out_receivers.insert(m.receiver).second) {
              add(LintCheck::kStructure, p, r, "two messages to p",
                  m.receiver, " in one round (A.1.1 allows at most one)");
            }
          }
        }
        std::set<ProcessId> in_senders;
        ProcessId prev_sender = kNoProcess;
        bool first_inbound = true;
        for (const auto* bucket : {&re.received, &re.receive_omitted}) {
          const bool is_received = bucket == &re.received;
          for (const Message& m : *bucket) {
            report_.stats.messages_checked++;
            if (m.receiver != p) {
              add(LintCheck::kStructure, p, r,
                  "inbound message claims receiver p", m.receiver);
            }
            if (m.round != r) {
              add(LintCheck::kStructure, p, r, "inbound message claims round ",
                  m.round);
            }
            if (m.sender == p) {
              add(LintCheck::kStructure, p, r, "received a self-message");
            } else if (m.sender >= n) {
              add(LintCheck::kStructure, p, r, "sender p", m.sender,
                  " outside the system");
            } else if (!in_senders.insert(m.sender).second) {
              add(LintCheck::kStructure, p, r, "two inbound messages from p",
                  m.sender, " in one round");
            }
            if (is_received) {
              // Canonical delivery order (sort_inbox): ascending by sender.
              if (!first_inbound && m.sender < prev_sender) {
                add(LintCheck::kStructure, p, r,
                    "received set is not in canonical sender order");
              }
              first_inbound = false;
              prev_sender = m.sender;
            }
          }
        }
      }
    }
  }

  /// Send-/receive-validity (A.1.6): messages are conserved between the
  /// sender-side and receiver-side views of the execution.
  void check_conservation() {
    const std::uint32_t n = trace_.params.n;
    // Sender-side index of every successfully sent message.
    std::map<MsgKey, const Message*> sent_index;
    for (ProcessId p = 0; p < n; ++p) {
      for (const RoundEvents& re : trace_.procs[p].rounds) {
        for (const Message& m : re.sent) sent_index.emplace(m.key(), &m);
      }
    }
    // Receiver side: everything received or receive-omitted must trace back
    // to a send, payload included, and no identity may appear in both sets.
    std::set<MsgKey> consumed;
    for (ProcessId p = 0; p < n; ++p) {
      const ProcessTrace& pt = trace_.procs[p];
      for (std::size_t i = 0; i < pt.rounds.size(); ++i) {
        const Round r = static_cast<Round>(i + 1);
        const RoundEvents& re = pt.rounds[i];
        for (const auto* bucket : {&re.received, &re.receive_omitted}) {
          const char* verb =
              bucket == &re.received ? "received" : "receive-omitted";
          for (const Message& m : *bucket) {
            if (m.sender >= n || m.receiver != p || m.round != r) {
              continue;  // already a structure violation; unindexable
            }
            auto it = sent_index.find(m.key());
            if (it == sent_index.end()) {
              add(LintCheck::kConservation, p, r, verb, " a message from p",
                  m.sender, " that p", m.sender,
                  " never sent (forged receive)");
              continue;
            }
            if (it->second->payload != m.payload) {
              add(LintCheck::kConservation, p, r, verb, " payload ",
                  m.payload.to_string(), " but p", m.sender, " sent ",
                  it->second->payload.to_string());
            }
            if (!consumed.insert(m.key()).second) {
              add(LintCheck::kConservation, p, r,
                  "message from p", m.sender,
                  " appears as both received and receive-omitted");
            }
          }
        }
      }
    }
    // Sender side: a sent message may not vanish — its receiver must account
    // for it, provided the receiver's trace covers that round.
    for (const auto& [key, msg] : sent_index) {
      if (key.receiver >= n) continue;  // structure violation already
      if (key.round > trace_.procs[key.receiver].rounds.size()) continue;
      if (!consumed.contains(key)) {
        add(LintCheck::kConservation, key.receiver, key.round,
            "message sent by p", key.sender,
            " is neither received nor receive-omitted (vanished)");
      }
    }
  }

  /// §2 adversary accounting: fault budget, attributability, and (when a
  /// static bound is supplied) the message budget.
  void check_budget() {
    if (trace_.faulty.size() > trace_.params.t) {
      add(LintCheck::kBudget, kNoProcess, kNoRound, "|F| = ",
          trace_.faulty.size(), " exceeds the fault budget t = ",
          trace_.params.t);
    }
    if (options_.message_budget) {
      const std::uint64_t sent = trace_.message_complexity();
      if (sent > *options_.message_budget) {
        add(LintCheck::kBudget, kNoProcess, kNoRound,
            "correct processes sent ", sent,
            " message(s), exceeding the static bound ",
            *options_.message_budget,
            " — run misbehaved or the protocol's CommSpec under-counts");
      }
    }
    for (ProcessId p = 0; p < trace_.params.n; ++p) {
      if (trace_.faulty.contains(p)) continue;
      const ProcessTrace& pt = trace_.procs[p];
      for (std::size_t i = 0; i < pt.rounds.size(); ++i) {
        const Round r = static_cast<Round>(i + 1);
        if (!pt.rounds[i].send_omitted.empty()) {
          add(LintCheck::kBudget, p, r, "correct process send-omitted ",
              pt.rounds[i].send_omitted.size(),
              " message(s) — omission not attributable to F");
        }
        // Async reading: a receive-omission at a correct process is a
        // message still in flight when the run was cut, not an adversary
        // omission (the quiescence check catches drained-pool lies).
        if (!options_.async_model && !pt.rounds[i].receive_omitted.empty()) {
          add(LintCheck::kBudget, p, r, "correct process receive-omitted ",
              pt.rounds[i].receive_omitted.size(),
              " message(s) — omission not attributable to F");
        }
      }
    }
  }

  /// Structural half of quiescence. Synchronous reading: a quiesced trace
  /// ends with a silent round (the runtime only sets the flag once nobody
  /// sent). Async virtual-round reading: the final round IS a send by
  /// construction, so round-synchronized silence is the wrong invariant —
  /// quiescence there means the in-flight pool drained, i.e. no message
  /// anywhere is still receive-omitted at the cut.
  void check_quiescent_final_round() {
    if (!trace_.quiesced || trace_.rounds == 0) return;
    if (options_.async_model) {
      for (ProcessId p = 0; p < trace_.params.n; ++p) {
        const ProcessTrace& pt = trace_.procs[p];
        for (std::size_t i = 0; i < pt.rounds.size(); ++i) {
          if (!pt.rounds[i].receive_omitted.empty()) {
            add(LintCheck::kQuiescence, p, static_cast<Round>(i + 1),
                "trace claims quiescence but ",
                pt.rounds[i].receive_omitted.size(),
                " message(s) to p", p, " are still in flight");
          }
        }
      }
      return;
    }
    for (ProcessId p = 0; p < trace_.params.n; ++p) {
      const ProcessTrace& pt = trace_.procs[p];
      if (pt.rounds.size() != trace_.rounds) continue;  // structure violation
      const RoundEvents& last = pt.rounds[trace_.rounds - 1];
      if (!last.sent.empty()) {
        add(LintCheck::kQuiescence, p, trace_.rounds,
            "trace claims quiescence but p", p, " sent ", last.sent.size(),
            " message(s) in the final round");
      }
    }
  }

  /// A.1.3 determinism: the recorded behaviour of every correct process must
  /// be reproducible from its proposal and receive history alone.
  void check_determinism(const ProtocolFactory& protocol) {
    const std::uint32_t n = trace_.params.n;
    for (ProcessId p = 0; p < n; ++p) {
      if (trace_.faulty.contains(p)) continue;  // Byzantine replicas differ
      const ProcessTrace& pt = trace_.procs[p];
      if (full()) {
        report_.truncated = true;
        return;
      }
      ReplayResult replay = replay_process(trace_.params, protocol, p, pt);
      report_.stats.processes_replayed++;

      for (std::size_t i = 0; i < pt.rounds.size(); ++i) {
        const Round r = static_cast<Round>(i + 1);
        const std::vector<Message> expected =
            normalize_outbox(std::move(replay.outboxes[i]), p, r, n);
        // The machine's intended sends are the union of what the network
        // delivered and what the adversary suppressed (empty for a correct
        // process unless the budget check already fired).
        std::vector<Message> recorded = pt.rounds[i].sent;
        recorded.insert(recorded.end(), pt.rounds[i].send_omitted.begin(),
                        pt.rounds[i].send_omitted.end());
        std::sort(recorded.begin(), recorded.end(),
                  [](const Message& a, const Message& b) {
                    return a.receiver < b.receiver;
                  });
        if (recorded != expected) {
          add(LintCheck::kDeterminism, p, r, "replay produced ",
              expected.size(), " send(s) but the trace records ",
              recorded.size(), " — receive history does not explain the sends");
        }
      }
      if (replay.decision != pt.decision) {
        add(LintCheck::kDeterminism, p, pt.decision_round,
            "replay decided ",
            replay.decision ? replay.decision->to_string() : "<nothing>",
            " but the trace records ",
            pt.decision ? pt.decision->to_string() : "<nothing>");
      } else if (replay.decision_round != pt.decision_round) {
        add(LintCheck::kDeterminism, p, pt.decision_round,
            "replay decided in round ", replay.decision_round,
            " but the trace records round ", pt.decision_round);
      }
      if (options_.quiescence && trace_.quiesced && !replay.quiescent) {
        add(LintCheck::kQuiescence, p, trace_.rounds,
            "trace claims quiescence but p", p,
            "'s replayed state machine is not quiescent");
      }
    }
  }

  const ExecutionTrace& trace_;
  const LintOptions& options_;
  LintReport report_;
};

}  // namespace

std::string_view to_string(LintCheck check) {
  switch (check) {
    case LintCheck::kStructure:
      return "structure";
    case LintCheck::kConservation:
      return "conservation";
    case LintCheck::kBudget:
      return "budget";
    case LintCheck::kDeterminism:
      return "determinism";
    case LintCheck::kQuiescence:
      return "quiescence";
  }
  return "unknown";
}

std::string LintViolation::to_string() const {
  std::ostringstream os;
  os << '[' << analysis::to_string(check) << ']';
  if (process != kNoProcess) os << " p" << process;
  if (round != kNoRound) os << " r" << round;
  os << ": " << detail;
  return os.str();
}

std::size_t LintReport::count(LintCheck check) const {
  return static_cast<std::size_t>(
      std::count_if(violations.begin(), violations.end(),
                    [check](const LintViolation& v) { return v.check == check; }));
}

std::string LintReport::summary() const {
  std::ostringstream os;
  if (clean()) {
    os << "clean: " << stats.messages_checked << " message(s) over "
       << stats.rounds_checked << " process-round(s)";
    if (replayed) os << ", " << stats.processes_replayed << " replay(s)";
    return os.str();
  }
  os << violations.size() << (truncated ? "+" : "") << " violation(s):";
  for (LintCheck check :
       {LintCheck::kStructure, LintCheck::kConservation, LintCheck::kBudget,
        LintCheck::kDeterminism, LintCheck::kQuiescence}) {
    if (std::size_t k = count(check); k > 0) {
      os << ' ' << to_string(check) << '=' << k;
    }
  }
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const LintReport& report) {
  os << report.summary();
  for (const LintViolation& v : report.violations) {
    os << "\n  " << v.to_string();
  }
  if (report.truncated) os << "\n  ... (truncated)";
  return os;
}

LintReport lint_trace(const ExecutionTrace& trace, const LintOptions& options) {
  return Linter(trace, options).run(nullptr);
}

LintReport lint_execution(const ExecutionTrace& trace,
                          const ProtocolFactory& protocol,
                          const LintOptions& options) {
  return Linter(trace, options).run(&protocol);
}

}  // namespace ba::analysis
