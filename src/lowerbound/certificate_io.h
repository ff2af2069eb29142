#pragma once

// Serialization of violation certificates: the counterexample the attack
// engine constructs can be written to disk and re-verified later / elsewhere
// against the protocol (verify_certificate replays every state machine, so a
// deserialized certificate is exactly as trustworthy as a fresh one).

#include <optional>

#include "lowerbound/certificate.h"
#include "runtime/serde.h"

namespace ba::lowerbound {

/// The embedded trace is written and read by the streaming trace codec
/// (runtime/trace_io.h), so it is never built as a Value tree. Decoding
/// rejects malformed and non-canonical bytes.
Bytes encode_certificate(const ViolationCertificate& cert);
std::optional<ViolationCertificate> decode_certificate(
    std::span<const std::uint8_t> bytes);

/// The certificate as a Value, and back: thin wrappers over the byte codec
/// for callers (tests) that edit the structure.
Value certificate_to_value(const ViolationCertificate& cert);
std::optional<ViolationCertificate> certificate_from_value(const Value& v);

}  // namespace ba::lowerbound
