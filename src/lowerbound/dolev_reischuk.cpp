#include "lowerbound/dolev_reischuk.h"

#include <set>
#include <sstream>
#include <stdexcept>

#include "adversary/omission.h"
#include "runtime/sync_system.h"

namespace ba::lowerbound {
namespace {

/// Processes that sent p at least one message in the trace.
ProcessSet in_neighbourhood(const ExecutionTrace& trace, ProcessId p) {
  ProcessSet s;
  for (const RoundEvents& re : trace.procs[p].rounds) {
    for (const Message& m : re.received) s.insert(m.sender);
    for (const Message& m : re.receive_omitted) s.insert(m.sender);
  }
  return s;
}

/// The cut adversary: members of `cut` send-omit everything addressed to
/// `victim`, from round 1 on.
Adversary cut_towards(const ProcessSet& cut, ProcessId victim) {
  Adversary adv;
  adv.faulty = cut;
  adv.send_omit = [cut, victim](const MsgKey& k) {
    return k.receiver == victim && cut.contains(k.sender);
  };
  return adv;
}

}  // namespace

BroadcastAttackReport attack_broadcast(const SystemParams& params,
                                       const ProtocolFactory& protocol,
                                       ProcessId sender, const Value& v0,
                                       const Value& v1, const Value& filler,
                                       Round max_rounds,
                                       const engine::ExecutionBackend& backend) {
  if (!params.valid()) {
    throw std::invalid_argument("attack_broadcast: invalid SystemParams");
  }
  if (sender >= params.n) {
    throw std::invalid_argument("attack_broadcast: sender out of range");
  }
  BroadcastAttackReport report;
  std::ostringstream log;
  RunOptions opts;
  opts.max_rounds = max_rounds;

  auto proposals_with = [&](const Value& sender_value) {
    std::vector<Value> proposals(params.n, filler);
    proposals[sender] = sender_value;
    return proposals;
  };

  // Step 1: the fault-free execution with sender value v0 determines each
  // non-sender's in-neighbourhood.
  RunResult base = backend.run(params, protocol, proposals_with(v0),
                               Adversary::none(), opts);
  report.fault_free_messages = base.messages_sent_by_correct;
  log << "fault-free run with sender value " << v0 << ": "
      << report.fault_free_messages << " messages\n";

  ProcessId victim = kNoProcess;
  ProcessSet cut;
  report.min_in_neighbourhood = params.n;
  for (ProcessId p = 0; p < params.n; ++p) {
    if (p == sender) continue;
    ProcessSet nbh = in_neighbourhood(base.trace, p);
    report.min_in_neighbourhood =
        std::min(report.min_in_neighbourhood, nbh.size());
    if (nbh.size() > params.t) continue;  // cut exceeds the fault budget
    // (A faulty-but-honest sender inside the cut is fine: the violation is
    // an AGREEMENT violation between the victim and another correct
    // process, not a Sender Validity one.)
    ProcessSet candidate_cut = nbh;
    if (candidate_cut.size() + 2 > params.n) continue;  // no witness left
    victim = p;
    cut = candidate_cut;
    break;
  }
  if (victim == kNoProcess) {
    log << "no victim: every non-sender hears from more than t processes "
           "(min in-neighbourhood = "
        << report.min_in_neighbourhood << ") — protocol not cuttable\n";
    report.narrative = log.str();
    return report;
  }
  report.victim = victim;
  report.cut_size = cut.size();
  log << "victim p" << victim << " hears from only " << cut.size()
      << " processes; corrupting them to send-omit towards it\n";

  // Step 2: run the cut with both sender values. The victim's receive
  // history is empty in both (its only in-edges are severed), so by
  // determinism it behaves identically; correct processes still hear the
  // sender.
  for (const Value& sender_value : {v0, v1}) {
    RunResult res = backend.run(params, protocol, proposals_with(sender_value),
                                cut_towards(cut, victim), opts);
    const ExecutionTrace& e = res.trace;
    const auto& victim_decision = e.procs[victim].decision;
    log << "cut run with sender value " << sender_value << ": victim decides "
        << (victim_decision ? victim_decision->to_string() : "<nothing>")
        << "\n";

    // Find a correct witness whose decision differs from the victim's.
    for (ProcessId q = 0; q < params.n; ++q) {
      if (q == victim || e.faulty.contains(q)) continue;
      const auto& dq = e.procs[q].decision;
      if (!dq.has_value()) continue;
      if (victim_decision.has_value() && *victim_decision != *dq) {
        ViolationCertificate cert;
        cert.kind = ViolationKind::kAgreement;
        cert.execution = e;
        cert.witness_a = victim;
        cert.witness_b = q;
        std::ostringstream os;
        os << "Dolev-Reischuk cut: victim p" << victim << " (cut off from its "
           << cut.size() << " in-neighbours) decides " << *victim_decision
           << " while correct p" << q << " decides " << *dq
           << " (sender value " << sender_value << ")";
        cert.narrative = os.str();
        log << "VIOLATION: " << cert.narrative << "\n";
        report.violation_found = true;
        report.certificate = std::move(cert);
        report.narrative = log.str();
        return report;
      }
    }
    if (!victim_decision.has_value() && e.quiesced) {
      ViolationCertificate cert;
      cert.kind = ViolationKind::kTermination;
      cert.execution = e;
      cert.witness_a = victim;
      std::ostringstream os;
      os << "Dolev-Reischuk cut: correct victim p" << victim
         << " never decides (sender value " << sender_value << ")";
      cert.narrative = os.str();
      log << "VIOLATION: " << cert.narrative << "\n";
      report.violation_found = true;
      report.certificate = std::move(cert);
      report.narrative = log.str();
      return report;
    }
  }
  log << "victim agreed with the correct processes in both runs — no "
         "violation constructible\n";
  report.narrative = log.str();
  return report;
}

}  // namespace ba::lowerbound
