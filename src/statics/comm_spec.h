#pragma once

// CommSpec — the declarative round-structure IR of the static
// communication-complexity analyzer (src/statics/).
//
// Each protocol in src/protocols/ declares one CommSpec: a list of round
// blocks, each spanning a symbolic number of rounds and carrying the message
// patterns active in those rounds (how many processes send, to how many
// receivers, with what payload size class, at what signature-chain depth).
// The spec never executes anything — it is the protocol author's statement
// of the WORST-CASE communication structure, in the same vocabulary the
// paper's upper-bound arguments use ("the sender multicasts", "every process
// relays at most two values", "backers multicast their bit").
//
// The analyzer (statics/analyzer.h) folds a spec into closed-form bounds
// (messages / payload bytes / rounds as polynomials in n, t, f), cross-checks
// them against the paper's lower bounds, and evaluates them into the concrete
// per-(n, t) budgets that gate the dynamic A.1 linter.
//
// Soundness contract: every pattern bounds the messages CORRECT processes
// send in ANY execution (Byzantine peers included), because that is the
// quantity the paper counts (§2) and the dynamic linter compares against.
// Over-approximation is fine (a loose bound is still a bound); an
// under-approximation is a spec bug that the conformance suite
// (tests/statics/) catches by running the protocol on both backends.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "statics/poly.h"

namespace ba::statics {

/// Worst-case payload size class of a message pattern. The analyzer maps
/// each class to a canonical-encoding byte envelope (see
/// `payload_byte_bound`); classes whose encoding grows faster than any
/// polynomial (the EIG report tree) yield an unbounded-bytes verdict.
enum class PayloadClass : std::uint8_t {
  kBit,             // a tagged bit
  kValue,           // one opaque Value of bounded size
  kValueSet,        // up to n values (FloodSet sets, IC vectors)
  kSignatureChain,  // value + chain of `sig_depth` signatures
  kEigReport,       // EIG level report: O(n^t) entries — superpolynomial
};

[[nodiscard]] const char* to_string(PayloadClass payload);

/// Canonical-encoding byte envelope for one payload of `payload` class,
/// bundled `copies` times (parallel composition ships `copies` sub-payloads
/// per wire message). nullopt for superpolynomial classes.
[[nodiscard]] std::optional<Poly> payload_byte_bound(PayloadClass payload,
                                                     const Poly& sig_depth,
                                                     const Poly& copies);

/// One message pattern: `senders` processes each send to
/// `receivers_per_sender` receivers. By default the pattern fires once per
/// round of its block; `per_block` patterns fire at most `senders` times over
/// the WHOLE block regardless of its round count (Dolev-Strong relays: each
/// process relays at most two values over the entire execution).
struct MessagePattern {
  std::string label;
  Poly senders;
  Poly receivers_per_sender;
  PayloadClass payload{PayloadClass::kValue};
  /// kSignatureChain only: chain length bound.
  Poly sig_depth{};
  /// Sub-payloads bundled per wire message (parallel composition).
  Poly payload_copies{Poly(1)};
  bool per_block{false};
};

/// A contiguous block of `rounds` rounds sharing the same active patterns.
struct RoundBlock {
  std::string label;
  Poly rounds;
  std::vector<MessagePattern> patterns;
};

/// The full static declaration of one protocol's communication structure.
struct CommSpec {
  /// Canonical name of the protocol's row in the protocol table
  /// (protocols/registry.h), which also lists the row's aliases.
  std::string protocol;
  /// Problem class tag: "weak-consensus", "strong-consensus", "broadcast",
  /// "interactive-consistency", "crusader-broadcast", "graded-broadcast",
  /// "crash-consensus", "approximate-agreement", "k-set-agreement".
  std::string problem;
  /// False for the deliberately broken sub-quadratic attack targets: they
  /// are exempt from the lower-bound cross-check (their whole point is to
  /// dip below the bound and get broken by the Theorem 2 engine).
  bool claims_correct{true};
  /// Resilience condition, documentation only ("t < n", "n > 3t").
  std::string resilience;
  /// Worst-case termination round.
  Poly rounds;
  std::vector<RoundBlock> blocks;
  std::string notes;
};

/// Total-message bound of one block: per-round patterns contribute
/// rounds * senders * receivers, per-block patterns senders * receivers.
[[nodiscard]] Poly block_message_bound(const RoundBlock& block);

/// Total-message bound of the whole spec (sum over blocks).
[[nodiscard]] Poly spec_message_bound(const CommSpec& spec);

/// Total payload-byte bound; nullopt as soon as any pattern's payload class
/// is superpolynomial.
[[nodiscard]] std::optional<Poly> spec_payload_byte_bound(const CommSpec& spec);

}  // namespace ba::statics
