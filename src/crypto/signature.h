#pragma once

// Idealized digital signatures (Canetti [30], as assumed by the paper's
// authenticated algorithms). Implemented as per-process SipHash MACs whose
// keys only the issuing Authenticator knows. Unforgeability is enforced by a
// capability discipline:
//   * `Authenticator` (one per execution) derives a secret key per process
//     and exposes only public *verification*;
//   * a `Signer` capability, bound to one process id, is the only way to
//     produce a signature. Honest protocol factories close over the Signer
//     for `ctx.self`; Byzantine strategies get exactly the same — they can
//     sign anything *as themselves* but cannot sign as anyone else.
//
// Signatures embed into message payloads via to_value()/from_value() so the
// runtime stays payload-agnostic.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "crypto/siphash.h"
#include "runtime/serde.h"
#include "runtime/types.h"
#include "runtime/value.h"

namespace ba::crypto {

struct Signature {
  ProcessId signer{kNoProcess};
  std::uint64_t mac{0};

  [[nodiscard]] Value to_value() const;
  static std::optional<Signature> from_value(const Value& v);

  friend bool operator==(const Signature&, const Signature&) = default;
};

class Authenticator {
 public:
  /// `seed` randomizes keys per run; `n` is the system size.
  Authenticator(std::uint64_t seed, std::uint32_t n);

  [[nodiscard]] std::uint32_t n() const { return n_; }

  /// Public verification: anyone can check any signature.
  [[nodiscard]] bool verify(const Signature& sig, const Bytes& message) const;
  [[nodiscard]] bool verify_value(const Signature& sig,
                                  const Value& message) const;

 private:
  friend class Signer;
  [[nodiscard]] std::uint64_t mac(ProcessId signer, const Bytes& msg) const;

  std::uint32_t n_;
  std::vector<SipKey> keys_;
};

/// Signing capability for exactly one process.
class Signer {
 public:
  Signer() = default;
  Signer(std::shared_ptr<const Authenticator> auth, ProcessId self)
      : auth_(std::move(auth)), self_(self) {}

  [[nodiscard]] bool valid() const { return auth_ != nullptr; }
  [[nodiscard]] ProcessId id() const { return self_; }

  [[nodiscard]] Signature sign(const Bytes& message) const;
  [[nodiscard]] Signature sign_value(const Value& message) const;

 private:
  std::shared_ptr<const Authenticator> auth_;
  ProcessId self_{kNoProcess};
};

/// A signature chain, the Dolev-Strong workhorse: a value endorsed by an
/// ordered list of distinct signers, each signing the value concatenated with
/// the previous signatures.
class SigChain {
 public:
  SigChain() = default;
  explicit SigChain(Value value) : value_(std::move(value)) {}

  [[nodiscard]] const Value& value() const { return value_; }
  [[nodiscard]] const std::vector<Signature>& sigs() const { return sigs_; }
  [[nodiscard]] std::size_t length() const { return sigs_.size(); }

  /// Appends this signer's endorsement.
  void extend(const Signer& signer);

  /// Checks: k >= min_len distinct signers, first signer == expected_first
  /// (if given), and every MAC verifies over the correct prefix.
  [[nodiscard]] bool verify(const Authenticator& auth, std::size_t min_len,
                            std::optional<ProcessId> expected_first) const;

  [[nodiscard]] bool contains_signer(ProcessId p) const;

  [[nodiscard]] Value to_value() const;
  static std::optional<SigChain> from_value(const Value& v);

 private:
  [[nodiscard]] Bytes prefix_bytes(std::size_t upto) const;

  Value value_;
  std::vector<Signature> sigs_;
};

/// Arena-backed signature-chain store (the Dolev-Strong fast path). Chains
/// are (parent-chain-id, signer) pairs in a per-run arena: every distinct
/// prefix is one node holding its serialized signing bytes, extended
/// incrementally from the parent's cached buffer instead of re-encoded from
/// scratch, and each node's MAC is checked at most once per run. A relayed
/// chain that extends an already-verified prefix therefore costs one MAC
/// instead of the O(length) MACs over O(length^2) rebuilt bytes that
/// `SigChain::verify` pays. `verify` checks one received chain against the
/// arena; acceptance is exactly `SigChain::from_value` + `SigChain::verify`
/// (pinned by tests/crypto/chain_arena_test.cpp), and `to_value` reproduces
/// the seed chain encoding byte-for-byte, so wire payloads and traces are
/// unchanged.
///
/// Memory is O(bytes of distinct, genuinely signed chain material seen in
/// the run): invalid chains add at most one (cached-negative) node beyond
/// their longest valid prefix, and valid prefixes need real signatures,
/// which only the run's processes can produce.
class ChainArena {
 public:
  static constexpr std::uint32_t kNoNode = 0xffffffffu;

  explicit ChainArena(std::shared_ptr<const Authenticator> auth)
      : auth_(std::move(auth)) {}

  /// Interned zero-signature chain over `value`.
  std::uint32_t root(const Value& value);

  /// `parent` extended by this signer's endorsement of the parent's prefix
  /// bytes (deduplicated; always verified).
  std::uint32_t extend(std::uint32_t parent, const Signer& signer);

  [[nodiscard]] std::uint32_t length(std::uint32_t node) const {
    return nodes_[node].length;
  }
  /// The value the chain endorses.
  [[nodiscard]] const Value& value_of(std::uint32_t node) const {
    return roots_[nodes_[node].root_ref];
  }
  [[nodiscard]] bool contains_signer(std::uint32_t node, ProcessId p) const;

  /// The seed `SigChain::to_value` encoding: ["chain", value, sigs...].
  [[nodiscard]] Value to_value(std::uint32_t node) const;

  /// Checks one chain payload field with `SigChain::from_value`'s parse
  /// rules and `SigChain::verify(auth, min_len, expected_first)`'s
  /// acceptance rules, and returns the accepted chain's node, or kNoNode.
  /// MAC checks hit the arena's verified-prefix memo, so only signatures
  /// never seen before are actually hashed.
  std::uint32_t verify(const Value& chain, std::size_t min_len,
                       std::optional<ProcessId> expected_first);

 private:
  struct Node {
    std::uint32_t parent{kNoNode};
    std::uint32_t root_ref{0};  // index into roots_
    std::uint32_t length{0};    // signatures on the chain so far
    Signature sig;              // meaningless for roots
    bool mac_ok{true};          // roots vacuously verified
    Bytes prefix;               // signing bytes: value then every signature
  };

  struct ChildKey {
    std::uint32_t parent;
    ProcessId signer;
    std::uint64_t mac;

    friend bool operator==(const ChildKey&, const ChildKey&) = default;
  };
  struct ChildKeyHash {
    std::size_t operator()(const ChildKey& k) const {
      std::uint64_t h = (static_cast<std::uint64_t>(k.parent) << 32) ^ k.signer;
      h = (h ^ k.mac) * 0x9e3779b97f4a7c15ULL;
      return static_cast<std::size_t>(h ^ (h >> 29));
    }
  };

  /// Child of `parent` carrying `sig`; creates (and MAC-checks) the node on
  /// first sight, returns the cached node afterwards. The returned node may
  /// have mac_ok == false (cached-negative). Precondition: parent is valid.
  std::uint32_t append(std::uint32_t parent, const Signature& sig);

  std::shared_ptr<const Authenticator> auth_;
  std::vector<Node> nodes_;
  std::vector<Value> roots_;
  std::map<Value, std::uint32_t> root_ids_;
  std::unordered_map<ChildKey, std::uint32_t, ChildKeyHash> child_ids_;
  std::vector<Signature> sig_buf_;  // scratch for verify parses
};

}  // namespace ba::crypto
