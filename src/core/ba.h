#pragma once

// Public facade of the library.
//
//   #include "core/ba.h"
//
// brings in the whole stack: the synchronous runtime, the execution-backend
// engine (lockstep + simulator behind one interface), adversaries, the
// execution calculus, protocols, validity framework, reductions, and the
// Theorem 2 attack engine — plus the high-level `AgreementProblem` type that
// ties §4/§5 together: describe a problem by its validity property and get
// its solvability verdict (Theorem 4) and, when solvable, an actual solver
// synthesized per Algorithm 2.

#include <memory>
#include <optional>
#include <string>

#include "adversary/byzantine.h"
#include "analysis/lint.h"
#include "adversary/omission.h"
#include "async/async_process.h"
#include "async/async_system.h"
#include "async/backend.h"
#include "async/ben_or.h"
#include "async/bracha.h"
#include "async/coin.h"
#include "async/explore.h"
#include "async/protocols.h"
#include "async/scheduler.h"
#include "calculus/formal.h"
#include "calculus/isolation.h"
#include "calculus/merge.h"
#include "calculus/swap_omission.h"
#include "crypto/signature.h"
#include "engine/backend.h"
#include "engine/registry.h"
#include "faults/compile.h"
#include "faults/fault_spec.h"
#include "lowerbound/attack.h"
#include "lowerbound/certificate.h"
#include "lowerbound/certificate_io.h"
#include "lowerbound/dolev_reischuk.h"
#include "lowerbound/lemma2.h"
#include "lowerbound/probe.h"
#include "lowerbound/sweep.h"
#include "parallel/experiment_pool.h"
#include "parallel/seed.h"
#include "protocols/adapters.h"
#include "protocols/beyond_agreement.h"
#include "protocols/broadcast.h"
#include "protocols/crusader.h"
#include "protocols/dolev_strong.h"
#include "protocols/early_stopping.h"
#include "protocols/eig.h"
#include "protocols/external_validity.h"
#include "protocols/gradecast.h"
#include "protocols/interactive_consistency.h"
#include "protocols/parallel.h"
#include "protocols/phase_king.h"
#include "protocols/registry.h"
#include "protocols/turpin_coan.h"
#include "protocols/weak_consensus.h"
#include "reductions/classic.h"
#include "service/campaign.h"
#include "service/ndjson.h"
#include "service/runner.h"
#include "service/worker.h"
#include "reductions/from_ic.h"
#include "reductions/weak_from_any.h"
#include "runtime/sync_system.h"
#include "runtime/trace_io.h"
#include "sim/link.h"
#include "sim/simulator.h"
#include "statics/analyzer.h"
#include "statics/comm_spec.h"
#include "statics/poly.h"
#include "validity/properties.h"
#include "validity/algebra.h"
#include "validity/solvability.h"

namespace ba {

/// A Byzantine agreement problem: an (n, t) system plus a validity property.
class AgreementProblem {
 public:
  AgreementProblem(SystemParams params, validity::ValidityProperty property)
      : params_(params), property_(std::move(property)) {}

  [[nodiscard]] const SystemParams& params() const { return params_; }
  [[nodiscard]] const validity::ValidityProperty& property() const {
    return property_;
  }

  /// Theorem 4 verdict (exact enumeration over the finite domains).
  [[nodiscard]] validity::SolvabilityVerdict analyze() const;

  /// Synthesizes a solver per the sufficiency proof of Theorem 4:
  ///  * trivial problem        -> zero-message constant decision;
  ///  * CC + authenticated     -> Algorithm 2 over n x Dolev-Strong IC;
  ///  * CC + n > 3t (unauth)   -> Algorithm 2 over EIG IC.
  /// Returns nullopt when the problem is unsolvable in the chosen setting.
  [[nodiscard]] std::optional<ProtocolFactory> make_solver(
      bool authenticated,
      std::shared_ptr<const crypto::Authenticator> auth = nullptr) const;

  /// Checks an execution's decisions against the validity property: all
  /// correct decisions must lie in val(input configuration of the trace).
  [[nodiscard]] std::optional<std::string> check_execution(
      const ExecutionTrace& trace) const;

 private:
  SystemParams params_;
  validity::ValidityProperty property_;
};

/// The input configuration an execution corresponds to (§4.1).
validity::InputConfig input_conf(const ExecutionTrace& trace);

}  // namespace ba
