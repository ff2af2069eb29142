#pragma once

// The reference trace and certificate codec the streaming one must agree
// with: it goes through a whole Value tree, encoding it with a byte-at-a-
// time writer and decoding it with a reader that parses the entire input
// before any field is checked. Kept verbatim (apart from the namespace and
// the bad-bool probe) as the oracle of the differential and corruption
// tests in trace_codec_test.cpp; nothing outside tests/ links it.
//
// It predates the canonical-encoding rules: it accepts any bool byte as
// true (non-zero) and any order of faulty ids, so it decodes some inputs
// the library decoder rejects. Those inputs, and only those, do not
// re-encode to themselves through the oracle.

#include <cstddef>
#include <optional>
#include <span>
#include <string>

#include "lowerbound/certificate.h"
#include "runtime/serde.h"
#include "runtime/trace.h"

namespace ba::oracle {

Bytes encode_value(const Value& v);
/// Throws SerdeError. If `bad_bool` is non-null it receives the offset of
/// the first bool byte other than 0 or 1 read before any framing error.
Value decode_value(std::span<const std::uint8_t> data,
                   std::optional<std::size_t>* bad_bool = nullptr);

Value trace_to_value(const ExecutionTrace& trace);
Value trace_to_value_with_provenance(const ExecutionTrace& trace,
                                     const Value& provenance);
std::optional<ExecutionTrace> trace_from_value(const Value& v,
                                               std::string* error = nullptr,
                                               Value* provenance = nullptr);

Bytes encode_trace(const ExecutionTrace& trace);
Bytes encode_trace_with_provenance(const ExecutionTrace& trace,
                                   const Value& provenance);
std::optional<ExecutionTrace> decode_trace(std::span<const std::uint8_t> bytes,
                                           std::string* error = nullptr,
                                           Value* provenance = nullptr);

Value certificate_to_value(const lowerbound::ViolationCertificate& cert);
std::optional<lowerbound::ViolationCertificate> certificate_from_value(
    const Value& v);
Bytes encode_certificate(const lowerbound::ViolationCertificate& cert);
std::optional<lowerbound::ViolationCertificate> decode_certificate(
    std::span<const std::uint8_t> bytes);

}  // namespace ba::oracle
