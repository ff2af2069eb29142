#include "checks.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string_view>

#include "crypto/siphash.h"
#include "crypto/signature.h"
#include "faults/compile.h"
#include "faults/fault_spec.h"
#include "protocols/dolev_strong.h"
#include "protocols/eig.h"
#include "protocols/phase_king.h"
#include "service/campaign.h"

namespace perfbench {

namespace {

// Context labels keep the input streams of different uses of one seed
// independent of each other.
constexpr std::uint64_t kValueContext = 0x70657266'62656e63ULL;  // "perfbenc"
constexpr std::uint64_t kKeyContext = 0x70657266'6b657973ULL;    // "perfkeys"

std::uint64_t derived(std::uint64_t seed, std::uint64_t context,
                      std::uint32_t index) {
  ba::crypto::SipHasher h(ba::crypto::derive_key(seed, context));
  h.absorb_u32(index);
  return h.digest();
}

}  // namespace

Cell make_ds_cell(std::string label, std::uint32_t n, std::uint32_t t,
                  std::uint64_t seed) {
  Cell cell;
  cell.label = std::move(label);
  cell.family = Family::kBroadcast;
  cell.params = {n, t};
  cell.sender = 0;
  auto auth = std::make_shared<ba::crypto::Authenticator>(
      derived(seed, kKeyContext, 0), n);
  cell.factory = ba::protocols::dolev_strong_broadcast(auth, cell.sender);
  cell.proposals.assign(n, ba::Value::bit(0));
  char tx[40];
  std::snprintf(tx, sizeof tx, "tx:%016llx",
                static_cast<unsigned long long>(derived(seed, kValueContext, 0)));
  cell.proposals[cell.sender] = ba::Value{std::string(tx)};
  cell.bounds = ba::statics::analyze(ba::protocols::dolev_strong_comm_spec());
  return cell;
}

Cell make_pk_cell(std::string label, std::uint32_t n, std::uint32_t t,
                  std::uint64_t seed) {
  Cell cell;
  cell.label = std::move(label);
  cell.family = Family::kConsensus;
  cell.params = {n, t};
  cell.factory = ba::protocols::phase_king_consensus();
  // Exactly half the processes propose 1, at seed-chosen positions, so
  // every seed gives runs of one shape: no bit has n - t proposals.
  std::vector<int> bits(n, 0);
  std::fill(bits.begin(), bits.begin() + n / 2, 1);
  for (std::uint32_t i = n; i > 1; --i) {  // Fisher-Yates
    std::swap(bits[i - 1], bits[derived(seed, kValueContext, i) % i]);
  }
  for (const int b : bits) cell.proposals.push_back(ba::Value::bit(b));
  cell.bounds = ba::statics::analyze(ba::protocols::phase_king_comm_spec());
  return cell;
}

Cell make_eig_cell(std::string label, std::uint32_t n, std::uint32_t t,
                   std::uint64_t seed) {
  Cell cell;
  cell.label = std::move(label);
  cell.family = Family::kInteractiveConsistency;
  cell.params = {n, t};
  cell.factory = ba::protocols::eig_interactive_consistency();
  // Values of one magnitude, so every seed encodes to the same size.
  for (std::uint32_t p = 0; p < n; ++p) {
    cell.proposals.emplace_back(static_cast<std::int64_t>(
        (1u << 20) | (derived(seed, kValueContext, p) & 0xfffff)));
  }
  cell.bounds = ba::statics::analyze(ba::protocols::eig_ic_comm_spec());
  return cell;
}

void apply_fault(Cell& cell, const std::string& fault,
                 std::uint64_t fault_seed) {
  cell.fault = fault;
  cell.adversary = ba::faults::compile_adversary(
      ba::faults::checked_fault_spec(fault, cell.params), cell.params,
      fault_seed);
}

std::uint64_t fault_free_messages(const Cell& cell) {
  const std::uint64_t n = cell.params.n;
  const std::uint64_t t = cell.params.t;
  switch (cell.family) {
    case Family::kBroadcast:
      // Round 1: the sender signs to all n - 1 others. Round 2: each of
      // them relays the one value it accepted to all n - 1 others. Nothing
      // is new after that.
      return (n - 1) + (n - 1) * (n - 1);
    case Family::kConsensus: {
      // t + 1 phases of three rounds. Everyone multicasts in the value
      // round and the king multicasts in the king round. In the proposal
      // round every process backs a bit, or none does: fault free, all see
      // the same counts. Phase 1 has backers only when one bit already has
      // n - t proposals; from phase 2 on everyone holds the first king's
      // bit.
      std::uint64_t ones = 0;
      for (const ba::Value& v : cell.proposals) ones += v.try_bit() == 1;
      const bool phase1_backed = std::max(ones, n - ones) >= n - t;
      const std::uint64_t backed_phases = t + (phase1_backed ? 1 : 0);
      return (t + 1) * (n * (n - 1) + (n - 1)) + backed_phases * n * (n - 1);
    }
    case Family::kInteractiveConsistency:
      // t + 1 rounds of all-to-all reports.
      return (t + 1) * n * (n - 1);
  }
  return 0;
}

bool check_fault_free_run(const Cell& cell, const ba::RunResult& run) {
  const std::uint32_t n = cell.params.n;
  if (run.decisions.size() != n) return false;
  for (const auto& d : run.decisions) {
    if (!d || !(*d == *run.decisions.front())) return false;  // decide, agree
  }
  const ba::Value& decided = *run.decisions.front();
  switch (cell.family) {
    case Family::kBroadcast:
      if (!(decided == cell.proposals[cell.sender])) return false;
      break;
    case Family::kConsensus: {
      const auto bit = decided.try_bit();
      if (!bit) return false;
      bool proposed = false;
      bool unanimous = true;
      for (const ba::Value& v : cell.proposals) {
        proposed = proposed || v.try_bit() == bit;
        unanimous = unanimous && v == cell.proposals.front();
      }
      if (!proposed) return false;
      if (unanimous && !(decided == cell.proposals.front())) return false;
      break;
    }
    case Family::kInteractiveConsistency:
      if (!decided.is_vec() || decided.as_vec() != cell.proposals) return false;
      break;
  }
  const std::uint64_t budget =
      ba::statics::budget_at(cell.bounds, cell.params, 0).messages;
  return run.messages_sent_by_correct == fault_free_messages(cell) &&
         run.messages_sent_by_correct <= budget;
}

bool check_lint(const ba::analysis::LintReport& report) {
  return report.clean() && report.replayed &&
         report.stats.messages_checked > 0;
}

bool check_trace_roundtrip(const ba::Bytes& encoded,
                           const ba::Bytes& reencoded) {
  return !encoded.empty() && encoded == reencoded;
}

bool check_attack(bool expect_violation,
                  const ba::lowerbound::AttackReport& report,
                  bool certificate_verified) {
  if (expect_violation) {
    return report.violation_found && report.certificate.has_value() &&
           certificate_verified;
  }
  return !report.violation_found &&
         report.max_message_complexity >= report.bound;
}

namespace {

std::vector<std::string_view> split_lines(std::string_view text) {
  std::vector<std::string_view> lines;
  std::size_t begin = 0;
  while (begin < text.size()) {
    std::size_t end = text.find('\n', begin);
    if (end == std::string_view::npos) end = text.size();
    lines.push_back(text.substr(begin, end - begin));
    begin = end + 1;
  }
  return lines;
}

}  // namespace

std::uint64_t failed_campaign_rows(const std::string& results,
                                   const std::string& reference) {
  const auto got = split_lines(results);
  const auto want = split_lines(reference);
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    const bool ok = i < got.size() && got[i] == want[i] &&
                    ba::service::decode_row(got[i]).has_value();
    if (!ok) ++failed;
  }
  if (got.size() > want.size()) failed += got.size() - want.size();
  if (!results.empty() && results.back() != '\n') ++failed;
  return std::min<std::uint64_t>(failed, want.size());
}

std::string run_fingerprint(const ba::RunResult& run) {
  std::ostringstream os;
  os << run.messages_sent_by_correct << '/' << run.messages_sent_total << '/'
     << run.rounds_executed;
  for (const auto& d : run.decisions) {
    os << '|';
    if (d) os << *d;
  }
  return os.str();
}

}  // namespace perfbench
