#include "lowerbound/certificate.h"

#include <algorithm>
#include <set>
#include <sstream>
#include <utility>

#include "runtime/sync_system.h"

namespace ba::lowerbound {

std::string to_string(ViolationKind k) {
  switch (k) {
    case ViolationKind::kWeakValidity:
      return "WeakValidity";
    case ViolationKind::kAgreement:
      return "Agreement";
    case ViolationKind::kTermination:
      return "Termination";
  }
  return "?";
}

namespace {

/// Replays process `p` against its recorded receive history and checks that
/// the recorded behaviour (sends incl. omitted, decision) matches.
CertificateCheck replay_matches(const ExecutionTrace& trace,
                                const ProtocolFactory& protocol,
                                ProcessId p) {
  CertificateCheck out;
  const ProcessTrace& pt = trace.procs.at(p);
  ReplayResult replay = replay_process(trace.params, protocol, p, pt);

  for (std::size_t r = 0; r < pt.rounds.size(); ++r) {
    std::vector<Message> expected = pt.rounds[r].sent;
    for (const Message& m : pt.rounds[r].send_omitted) expected.push_back(m);
    std::sort(expected.begin(), expected.end());
    std::vector<Message> produced =
        normalize_outbox(std::move(replay.outboxes[r]), p,
                         static_cast<Round>(r + 1), trace.params.n);
    std::sort(produced.begin(), produced.end());
    if (expected != produced) {
      std::ostringstream os;
      os << "replayed sends of p" << p << " differ from the trace in round "
         << (r + 1);
      out.error = os.str();
      return out;
    }
  }
  if (replay.decision != pt.decision) {
    std::ostringstream os;
    os << "replayed decision of p" << p << " differs from the trace";
    out.error = os.str();
    return out;
  }
  out.ok = true;
  return out;
}

}  // namespace

CertificateCheck verify_certificate(const ViolationCertificate& cert,
                                    const ProtocolFactory& protocol) {
  CertificateCheck out;
  const ExecutionTrace& e = cert.execution;

  if (auto why = e.validate()) {
    out.error = "execution invalid: " + *why;
    return out;
  }
  if (e.faulty.size() > e.params.t) {
    out.error = "more than t faulty processes";
    return out;
  }

  // Replay every process: the trace must be a genuine execution of the
  // protocol, not just structurally well-formed.
  for (ProcessId p = 0; p < e.params.n; ++p) {
    CertificateCheck rc = replay_matches(e, protocol, p);
    if (!rc.ok) return rc;
  }

  auto correct = [&](ProcessId p) { return !e.faulty.contains(p); };
  switch (cert.kind) {
    case ViolationKind::kAgreement: {
      if (!correct(cert.witness_a) || !correct(cert.witness_b)) {
        out.error = "agreement witnesses must be correct";
        return out;
      }
      const auto& da = e.procs[cert.witness_a].decision;
      const auto& db = e.procs[cert.witness_b].decision;
      if (!da || !db || *da == *db) {
        out.error = "witnesses do not decide differently";
        return out;
      }
      break;
    }
    case ViolationKind::kTermination: {
      if (!correct(cert.witness_a)) {
        out.error = "termination witness must be correct";
        return out;
      }
      if (!e.quiesced) {
        out.error = "execution not quiesced; non-termination not established";
        return out;
      }
      if (e.procs[cert.witness_a].decision.has_value()) {
        out.error = "termination witness actually decided";
        return out;
      }
      break;
    }
    case ViolationKind::kWeakValidity: {
      if (!e.faulty.empty()) {
        out.error = "weak-validity violation requires a fault-free execution";
        return out;
      }
      std::set<Value> proposals;
      for (const ProcessTrace& pt : e.procs) proposals.insert(pt.proposal);
      if (proposals.size() != 1) {
        out.error = "proposals not unanimous";
        return out;
      }
      const auto& d = e.procs[cert.witness_a].decision;
      if (!d) {
        if (!e.quiesced) {
          out.error = "witness undecided but execution not quiesced";
          return out;
        }
      } else if (*d == *proposals.begin()) {
        out.error = "witness decided the unanimous proposal; no violation";
        return out;
      }
      break;
    }
  }
  out.ok = true;
  return out;
}

}  // namespace ba::lowerbound
