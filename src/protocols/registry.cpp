#include "protocols/registry.h"

#include <memory>

#include "async/ben_or.h"
#include "async/bracha.h"
#include "crypto/signature.h"
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
namespace {

/// The key material of every authenticated row.
std::shared_ptr<crypto::Authenticator> auth(std::uint32_t n) {
  return std::make_shared<crypto::Authenticator>(0xc11, n);
}

}  // namespace

const std::vector<ProtocolDescriptor>& protocol_table() {
  // Parameters as the surfaces run them: the broadcasts with p0 as sender,
  // gossip-ring at (k=2, rounds=3), relay-ring at k=2, approximate
  // agreement at the test suite's (epsilon=1, value_bound=1024), k-set at
  // k=2.
  static const std::vector<ProtocolDescriptor> table = {
      {dolev_strong_comm_spec(), {},
       [](std::uint32_t n) { return dolev_strong_broadcast(auth(n), 0); }},
      {weak_consensus_auth_comm_spec(), {"ds-weak"},
       [](std::uint32_t n) { return weak_consensus_auth(auth(n)); }},
      {phase_king_comm_spec(), {},
       [](std::uint32_t) { return phase_king_consensus(); }},
      {weak_consensus_unauth_comm_spec(), {"phase-king-weak"},
       [](std::uint32_t) { return weak_consensus_unauth(); }},
      {turpin_coan_comm_spec()},
      {unauth_broadcast_comm_spec()},
      {eig_ic_comm_spec()},
      {eig_strong_comm_spec(), {},
       [](std::uint32_t) { return eig_strong_consensus(); }},
      {auth_ic_comm_spec()},
      {unauth_ic_bits_comm_spec()},
      {crusader_comm_spec()},
      {gradecast_comm_spec()},
      {floodset_comm_spec(), {},
       [](std::uint32_t) { return floodset_consensus(); }},
      {early_deciding_floodset_comm_spec(), {"floodset-early"}},
      {external_validity_comm_spec()},
      {approximate_agreement_comm_spec(1, 1024), {"approximate-agreement"}},
      {k_set_comm_spec(2), {"k-set"}},
      {wc_candidate_silent_comm_spec(), {"silent-default"},
       [](std::uint32_t) { return wc_candidate_silent(1); }},
      {wc_candidate_leader_beacon_comm_spec(), {"beacon"},
       [](std::uint32_t) { return wc_candidate_leader_beacon(); }},
      {wc_candidate_gossip_ring_comm_spec(2, 3), {"gossip", "gossip-ring-2"},
       [](std::uint32_t) { return wc_candidate_gossip_ring(2, 3); }},
      {wc_candidate_one_shot_echo_comm_spec(), {},
       [](std::uint32_t) { return wc_candidate_one_shot_echo(); }},
      {bb_candidate_direct_comm_spec(), {"direct"},
       [](std::uint32_t) { return bb_candidate_direct(0); }},
      {bb_candidate_relay_ring_comm_spec(2), {"bb-relay-ring-2", "relay-ring"},
       [](std::uint32_t) { return bb_candidate_relay_ring(0, 2); }},
      // Asynchronous protocols (src/async/): the kBudget linter and the
      // `ba_cli bounds` surface cover the async backend through these. Their
      // factories are async/protocols.h's, under these names; the Ben-Or
      // variants share one envelope (the coin and the broken thresholds
      // change decisions, not message shape).
      {async::ben_or_comm_spec(), {"ben-or-local", "ben-or-broken"}},
      {async::bracha_comm_spec()},
  };
  return table;
}

const ProtocolDescriptor* find_protocol(std::string_view name) {
  for (const ProtocolDescriptor& row : protocol_table()) {
    if (row.spec.protocol == name) return &row;
    for (const std::string& alias : row.aliases) {
      if (alias == name) return &row;
    }
  }
  return nullptr;
}

std::optional<ProtocolFactory> make_protocol_by_name(std::string_view name,
                                                     std::uint32_t n) {
  const ProtocolDescriptor* row = find_protocol(name);
  if (row == nullptr || row->make == nullptr) return std::nullopt;
  return row->make(n);
}

const char* registered_protocol_names() {
  static const std::string names = [] {
    std::string out;
    for (const ProtocolDescriptor& row : protocol_table()) {
      if (row.make == nullptr) continue;
      if (!out.empty()) out += ' ';
      out += row.spec.protocol;
    }
    return out;
  }();
  return names.c_str();
}

}  // namespace ba::protocols
