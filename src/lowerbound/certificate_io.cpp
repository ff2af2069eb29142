#include "lowerbound/certificate_io.h"

#include "runtime/trace_io.h"

namespace ba::lowerbound {

// A certificate encodes as the Value
//   ["cert", kind, trace, witness_a, witness_b, narrative]
// with the trace field spliced in by the streaming trace codec.

Bytes encode_certificate(const ViolationCertificate& cert) {
  BytesWriter w;
  w.vec_header(6);
  w.value(Value{"cert"});
  w.int_value(static_cast<std::int64_t>(cert.kind));
  write_trace(w, cert.execution);
  w.int_value(cert.witness_a);
  w.int_value(cert.witness_b);
  w.value(Value{cert.narrative});
  return w.take();
}

std::optional<ViolationCertificate> decode_certificate(
    std::span<const std::uint8_t> bytes) {
  try {
    BytesReader r(bytes);
    if (r.kind() != Value::Kind::kVec || r.vec_len() != 6) return std::nullopt;
    const Value tag = r.value();
    const Value kind = r.value();
    if (!tag.is_str() || tag.as_str() != "cert" || !kind.is_int() ||
        kind.as_int() < 0 || kind.as_int() > 2) {
      return std::nullopt;
    }
    auto trace = read_trace(r);
    if (!trace) return std::nullopt;
    const Value witness_a = r.value();
    const Value witness_b = r.value();
    const Value narrative = r.value();
    if (!r.done() || !witness_a.is_int() || !witness_b.is_int() ||
        !narrative.is_str()) {
      return std::nullopt;
    }
    // Witnesses must name processes of the certified execution (or carry
    // the kNoProcess sentinel for kinds with fewer witnesses); anything else
    // is a malformed certificate, not a weird-but-usable one.
    auto checked_witness = [&](const Value& w) -> std::optional<ProcessId> {
      const std::int64_t i = w.as_int();
      if (i == static_cast<std::int64_t>(kNoProcess)) return kNoProcess;
      if (i < 0 || i >= static_cast<std::int64_t>(trace->params.n)) {
        return std::nullopt;
      }
      return static_cast<ProcessId>(i);
    };
    const auto wa = checked_witness(witness_a);
    const auto wb = checked_witness(witness_b);
    if (!wa || !wb) return std::nullopt;
    ViolationCertificate cert;
    cert.kind = static_cast<ViolationKind>(kind.as_int());
    cert.execution = std::move(*trace);
    cert.witness_a = *wa;
    cert.witness_b = *wb;
    cert.narrative = narrative.as_str();
    return cert;
  } catch (const SerdeError&) {
    return std::nullopt;
  }
}

Value certificate_to_value(const ViolationCertificate& cert) {
  return decode_value(encode_certificate(cert));
}

std::optional<ViolationCertificate> certificate_from_value(const Value& v) {
  return decode_certificate(encode_value(v));
}

}  // namespace ba::lowerbound
