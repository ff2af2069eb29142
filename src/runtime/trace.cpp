#include "runtime/trace.h"

#include "runtime/serde.h"

#include <algorithm>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <string>

namespace ba {

std::uint64_t ExecutionTrace::message_complexity() const {
  std::uint64_t count = 0;
  for (ProcessId p = 0; p < params.n; ++p) {
    if (faulty.contains(p)) continue;
    for (const RoundEvents& re : procs[p].rounds) count += re.sent.size();
  }
  return count;
}

std::uint64_t ExecutionTrace::payload_bytes_sent_by_correct() const {
  std::uint64_t bytes = 0;
  for (ProcessId p = 0; p < params.n; ++p) {
    if (faulty.contains(p)) continue;
    for (const RoundEvents& re : procs[p].rounds) {
      for (const Message& m : re.sent) {
        bytes += encoded_size(m.payload);
      }
    }
  }
  return bytes;
}

std::uint64_t ExecutionTrace::total_messages_sent() const {
  std::uint64_t count = 0;
  for (const ProcessTrace& pt : procs) {
    for (const RoundEvents& re : pt.rounds) count += re.sent.size();
  }
  return count;
}

std::vector<Message> ExecutionTrace::receive_omitted_from(
    ProcessId p, const ProcessSet& senders) const {
  std::vector<Message> out;
  for (const RoundEvents& re : procs.at(p).rounds) {
    for (const Message& m : re.receive_omitted) {
      if (senders.contains(m.sender)) out.push_back(m);
    }
  }
  return out;
}

bool ExecutionTrace::indistinguishable_for(ProcessId p,
                                           const ExecutionTrace& other) const {
  const ProcessTrace& a = procs.at(p);
  const ProcessTrace& b = other.procs.at(p);
  if (a.proposal != b.proposal) return false;
  const std::size_t rounds_a = a.rounds.size();
  const std::size_t rounds_b = b.rounds.size();
  for (std::size_t r = 0; r < std::max(rounds_a, rounds_b); ++r) {
    // Beyond a quiesced prefix, receive sets are empty forever.
    static const std::vector<Message> kEmpty;
    const auto& ra = r < rounds_a ? a.rounds[r].received : kEmpty;
    const auto& rb = r < rounds_b ? b.rounds[r].received : kEmpty;
    if (ra != rb) return false;
  }
  return true;
}

std::optional<std::string> ExecutionTrace::validate() const {
  auto fail = [](const std::string& why) {
    return std::optional<std::string>{why};
  };
  if (procs.size() != params.n) return fail("wrong number of process traces");
  if (faulty.size() > params.t) return fail("|F| > t");

  // Index every successfully sent message by identity.
  std::map<MsgKey, Value> sent_index;
  for (ProcessId p = 0; p < params.n; ++p) {
    std::set<MsgKey> seen_out;
    for (std::size_t r = 0; r < procs[p].rounds.size(); ++r) {
      const Round round = static_cast<Round>(r + 1);
      const RoundEvents& re = procs[p].rounds[r];
      for (const auto* bucket : {&re.sent, &re.send_omitted}) {
        for (const Message& m : *bucket) {
          if (m.sender != p) return fail("sent message with wrong sender");
          if (m.round != round) return fail("sent message with wrong round");
          if (m.receiver == p) return fail("self-message");
          if (m.receiver >= params.n) return fail("receiver out of range");
          if (!seen_out.insert(m.key()).second) {
            return fail("two messages to one receiver in one round");
          }
        }
      }
      for (const Message& m : re.sent) sent_index.emplace(m.key(), m.payload);
      if (!re.send_omitted.empty() && !faulty.contains(p)) {
        return fail("correct process send-omitted (omission-validity)");
      }
      if (!re.receive_omitted.empty() && !faulty.contains(p)) {
        return fail("correct process receive-omitted (omission-validity)");
      }
    }
  }

  // Receive-validity: everything received or receive-omitted was sent, with
  // the same payload; at most one inbound message per sender per round.
  std::set<MsgKey> consumed;
  for (ProcessId p = 0; p < params.n; ++p) {
    for (std::size_t r = 0; r < procs[p].rounds.size(); ++r) {
      const Round round = static_cast<Round>(r + 1);
      const RoundEvents& re = procs[p].rounds[r];
      for (const auto* bucket : {&re.received, &re.receive_omitted}) {
        for (const Message& m : *bucket) {
          if (m.receiver != p) return fail("inbound message with wrong receiver");
          if (m.round != round) return fail("inbound message with wrong round");
          auto it = sent_index.find(m.key());
          if (it == sent_index.end()) {
            return fail("message received but never sent (receive-validity)");
          }
          if (it->second != m.payload) return fail("payload mismatch");
          if (!consumed.insert(m.key()).second) {
            return fail("message both received and receive-omitted");
          }
        }
      }
    }
  }

  // Send-validity: every successfully sent message is received or
  // receive-omitted by its target (if the trace extends that far).
  for (const auto& [key, payload] : sent_index) {
    if (key.round > procs[key.receiver].rounds.size()) continue;
    if (!consumed.contains(key)) {
      return fail("message sent but neither received nor receive-omitted");
    }
  }
  return std::nullopt;
}

std::optional<Value> ExecutionTrace::unanimous_correct_decision() const {
  std::optional<Value> decision;
  for (ProcessId p = 0; p < params.n; ++p) {
    if (faulty.contains(p)) continue;
    if (!procs[p].decision.has_value()) return std::nullopt;
    if (!decision) {
      decision = procs[p].decision;
    } else if (*decision != *procs[p].decision) {
      return std::nullopt;
    }
  }
  return decision;
}

std::ostream& operator<<(std::ostream& os, const ExecutionTrace& t) {
  os << "execution(n=" << t.params.n << ", t=" << t.params.t
     << ", rounds=" << t.rounds << ", faulty={";
  bool first = true;
  for (ProcessId p : t.faulty) {
    if (!first) os << ',';
    first = false;
    os << 'p' << p;
  }
  os << "}, msgs(correct)=" << t.message_complexity() << ")";
  for (ProcessId p = 0; p < t.params.n; ++p) {
    os << "\n  p" << p << " proposes " << t.procs[p].proposal << " decides ";
    if (t.procs[p].decision) {
      os << *t.procs[p].decision << " @r" << t.procs[p].decision_round;
    } else {
      os << "<undecided>";
    }
  }
  return os;
}

}  // namespace ba
