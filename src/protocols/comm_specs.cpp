#include "protocols/comm_specs.h"

#include "async/ben_or.h"
#include "async/bracha.h"
#include "protocols/beyond_agreement.h"
#include "protocols/broadcast.h"
#include "protocols/crusader.h"
#include "protocols/dolev_strong.h"
#include "protocols/early_stopping.h"
#include "protocols/eig.h"
#include "protocols/external_validity.h"
#include "protocols/gradecast.h"
#include "protocols/interactive_consistency.h"
#include "protocols/phase_king.h"
#include "protocols/turpin_coan.h"
#include "protocols/weak_consensus.h"

namespace ba::protocols {

const std::vector<statics::CommSpec>& all_comm_specs() {
  // Parameter choices mirror the runnable surfaces: gossip-ring at (k=2,
  // rounds=3) and relay-ring at k=2 (src/protocols/registry.cpp,
  // lowerbound/sweep.cpp); approximate agreement at the test suite's
  // (epsilon=1, value_bound=1024); k-set at k=2.
  static const std::vector<statics::CommSpec> specs = {
      dolev_strong_comm_spec(),
      weak_consensus_auth_comm_spec(),
      phase_king_comm_spec(),
      weak_consensus_unauth_comm_spec(),
      turpin_coan_comm_spec(),
      unauth_broadcast_comm_spec(),
      eig_ic_comm_spec(),
      eig_strong_comm_spec(),
      auth_ic_comm_spec(),
      unauth_ic_bits_comm_spec(),
      crusader_comm_spec(),
      gradecast_comm_spec(),
      floodset_comm_spec(),
      early_deciding_floodset_comm_spec(),
      external_validity_comm_spec(),
      approximate_agreement_comm_spec(1, 1024),
      k_set_comm_spec(2),
      wc_candidate_silent_comm_spec(),
      wc_candidate_leader_beacon_comm_spec(),
      wc_candidate_gossip_ring_comm_spec(2, 3),
      wc_candidate_one_shot_echo_comm_spec(),
      bb_candidate_direct_comm_spec(),
      bb_candidate_relay_ring_comm_spec(2),
      // Asynchronous protocols (src/async/): the kBudget linter and the
      // `ba_cli bounds` surface cover the async backend through these.
      async::ben_or_comm_spec(),
      async::bracha_comm_spec(),
  };
  return specs;
}

const statics::CommSpec* find_comm_spec(std::string_view name) {
  for (const statics::CommSpec& spec : all_comm_specs()) {
    if (spec.protocol == name) return &spec;
    for (const std::string& alias : spec.aliases) {
      if (alias == name) return &spec;
    }
  }
  return nullptr;
}

}  // namespace ba::protocols
