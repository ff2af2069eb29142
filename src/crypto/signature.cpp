#include "crypto/signature.h"

#include <set>

namespace ba::crypto {

Value Signature::to_value() const {
  return Value{ValueVec{Value{"sig"}, Value{static_cast<std::int64_t>(signer)},
                        Value{static_cast<std::int64_t>(mac)}}};
}

std::optional<Signature> Signature::from_value(const Value& v) {
  if (!v.is_vec()) return std::nullopt;
  const ValueVec& vec = v.as_vec();
  if (vec.size() != 3 || !vec[0].is_str() || vec[0].as_str() != "sig" ||
      !vec[1].is_int() || !vec[2].is_int()) {
    return std::nullopt;
  }
  // Reject non-canonical signer encodings: the signer is a 32-bit process
  // id, so out-of-range values (which a cast would silently truncate) are
  // malformed.
  const std::int64_t signer = vec[1].as_int();
  if (signer < 0 || signer > 0xffffffffLL) return std::nullopt;
  return Signature{static_cast<ProcessId>(signer),
                   static_cast<std::uint64_t>(vec[2].as_int())};
}

Authenticator::Authenticator(std::uint64_t seed, std::uint32_t n) : n_(n) {
  keys_.reserve(n);
  for (std::uint32_t p = 0; p < n; ++p) {
    keys_.push_back(derive_key(seed, p));
  }
}

std::uint64_t Authenticator::mac(ProcessId signer, const Bytes& msg) const {
  return siphash24(keys_.at(signer), msg);
}

bool Authenticator::verify(const Signature& sig, const Bytes& message) const {
  if (sig.signer >= n_) return false;
  return mac(sig.signer, message) == sig.mac;
}

bool Authenticator::verify_value(const Signature& sig,
                                 const Value& message) const {
  return verify(sig, encode_value(message));
}

Signature Signer::sign(const Bytes& message) const {
  return Signature{self_, auth_->mac(self_, message)};
}

Signature Signer::sign_value(const Value& message) const {
  return sign(encode_value(message));
}

Bytes SigChain::prefix_bytes(std::size_t upto) const {
  BytesWriter w;
  w.value(value_);
  for (std::size_t i = 0; i < upto; ++i) {
    w.u32(sigs_[i].signer);
    w.u64(sigs_[i].mac);
  }
  return w.take();
}

void SigChain::extend(const Signer& signer) {
  Bytes bytes = prefix_bytes(sigs_.size());
  sigs_.push_back(signer.sign(bytes));
}

bool SigChain::verify(const Authenticator& auth, std::size_t min_len,
                      std::optional<ProcessId> expected_first) const {
  if (sigs_.size() < min_len) return false;
  if (expected_first && (sigs_.empty() || sigs_[0].signer != *expected_first)) {
    return false;
  }
  std::set<ProcessId> signers;
  for (std::size_t i = 0; i < sigs_.size(); ++i) {
    if (!signers.insert(sigs_[i].signer).second) return false;  // distinct
    if (!auth.verify(sigs_[i], prefix_bytes(i))) return false;
  }
  return true;
}

bool SigChain::contains_signer(ProcessId p) const {
  for (const Signature& s : sigs_) {
    if (s.signer == p) return true;
  }
  return false;
}

Value SigChain::to_value() const {
  ValueVec out;
  out.reserve(sigs_.size() + 2);
  out.emplace_back("chain");
  out.push_back(value_);
  for (const Signature& s : sigs_) out.push_back(s.to_value());
  return Value{std::move(out)};
}

std::optional<SigChain> SigChain::from_value(const Value& v) {
  if (!v.is_vec()) return std::nullopt;
  const ValueVec& vec = v.as_vec();
  if (vec.size() < 2 || !vec[0].is_str() || vec[0].as_str() != "chain") {
    return std::nullopt;
  }
  SigChain chain(vec[1]);
  for (std::size_t i = 2; i < vec.size(); ++i) {
    auto sig = Signature::from_value(vec[i]);
    if (!sig) return std::nullopt;
    chain.sigs_.push_back(*sig);
  }
  return chain;
}

std::uint32_t ChainArena::root(const Value& value) {
  auto it = root_ids_.find(value);
  if (it != root_ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(nodes_.size());
  Node node;
  node.root_ref = static_cast<std::uint32_t>(roots_.size());
  BytesWriter w;
  w.value(value);
  node.prefix = w.take();
  roots_.push_back(value);
  nodes_.push_back(std::move(node));
  root_ids_.emplace(value, id);
  return id;
}

std::uint32_t ChainArena::append(std::uint32_t parent, const Signature& sig) {
  const ChildKey key{parent, sig.signer, sig.mac};
  auto it = child_ids_.find(key);
  if (it != child_ids_.end()) return it->second;
  const Node& par = nodes_[parent];
  const auto id = static_cast<std::uint32_t>(nodes_.size());
  Node node;
  node.parent = parent;
  node.root_ref = par.root_ref;
  node.length = par.length + 1;
  node.sig = sig;
  node.mac_ok = auth_->verify(sig, par.prefix);
  if (node.mac_ok) {
    // Incremental prefix: the parent's signing bytes plus this signature's
    // canonical u32/u64 encoding — byte-identical to the seed's
    // SigChain::prefix_bytes, never rebuilt from the chain front.
    BytesWriter w;
    w.u32(sig.signer);
    w.u64(sig.mac);
    const Bytes tail = w.take();
    // Sized exactly: the arena keeps every node's prefix for the whole run.
    node.prefix.reserve(par.prefix.size() + tail.size());
    node.prefix = par.prefix;
    node.prefix.insert(node.prefix.end(), tail.begin(), tail.end());
  }
  // Cached-negative nodes keep an empty prefix: verification stops at the
  // first bad signature, so their children are never materialized.
  nodes_.push_back(std::move(node));
  child_ids_.emplace(key, id);
  return id;
}

std::uint32_t ChainArena::extend(std::uint32_t parent, const Signer& signer) {
  return append(parent, signer.sign(nodes_[parent].prefix));
}

bool ChainArena::contains_signer(std::uint32_t node, ProcessId p) const {
  for (std::uint32_t cur = node; nodes_[cur].parent != kNoNode;
       cur = nodes_[cur].parent) {
    if (nodes_[cur].sig.signer == p) return true;
  }
  return false;
}

Value ChainArena::to_value(std::uint32_t node) const {
  ValueVec out;
  out.resize(static_cast<std::size_t>(nodes_[node].length) + 2);
  std::size_t i = out.size();
  for (std::uint32_t cur = node; nodes_[cur].parent != kNoNode;
       cur = nodes_[cur].parent) {
    out[--i] = nodes_[cur].sig.to_value();
  }
  out[0] = Value{"chain"};
  out[1] = value_of(node);
  return Value{std::move(out)};
}

std::uint32_t ChainArena::verify(const Value& chain, std::size_t min_len,
                                 std::optional<ProcessId> expected_first) {
  // SigChain::from_value's parse rules, without materializing a SigChain.
  if (!chain.is_vec()) return kNoNode;
  const ValueVec& vec = chain.as_vec();
  if (vec.size() < 2 || !vec[0].is_str() || vec[0].as_str() != "chain") {
    return kNoNode;
  }
  sig_buf_.clear();
  for (std::size_t i = 2; i < vec.size(); ++i) {
    auto sig = Signature::from_value(vec[i]);
    if (!sig) return kNoNode;
    sig_buf_.push_back(*sig);
  }
  // SigChain::verify's acceptance rules: length, expected first signer,
  // distinct signers, every MAC valid over its prefix.
  if (sig_buf_.size() < min_len) return kNoNode;
  if (expected_first &&
      (sig_buf_.empty() || sig_buf_[0].signer != *expected_first)) {
    return kNoNode;
  }
  for (std::size_t i = 1; i < sig_buf_.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (sig_buf_[j].signer == sig_buf_[i].signer) return kNoNode;
    }
  }
  std::uint32_t node = root(vec[1]);
  for (const Signature& sig : sig_buf_) {
    node = append(node, sig);
    if (!nodes_[node].mac_ok) return kNoNode;
  }
  return node;
}

}  // namespace ba::crypto
