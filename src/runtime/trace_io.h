#pragma once

// Serialization of execution traces (and, in lowerbound/certificate_io.h,
// violation certificates) to the library's canonical byte format. Lets a
// counterexample found by the attack engine be stored, shipped, and
// re-verified elsewhere — the certificate is meaningful precisely because
// anyone can replay it.
//
// A trace encodes as one Value (runtime/serde.h): the 7-field vector
//   ["trace", n, t, [faulty ids ascending], rounds, quiesced, [process]]
// with process = [proposal, [decision] or [], decision round, [round]],
// round = [sent, send-omitted, received, receive-omitted] and
// message = [sender, receiver, round, payload]. Schema v2 appends an 8th
// field, a provenance vector.
//
// The codec streams: the writer and reader walk the byte format directly,
// with no Value tree for the whole trace in between. Each distinct payload
// is serialized once (keyed on the payload object the runtime shares across
// a multicast) and deserialized once (keyed on its bytes), so a decoded
// trace shares one Value per distinct payload, as a recorded one does.
//
// Decoding is defensive: traces arrive from disk or the network, so every
// integer field is range-checked before it is narrowed and every structural
// claim (process counts, set membership) is verified. Only canonical
// encodings are accepted — a decoded trace re-encodes to exactly its input.
// Malformed input yields nullopt plus, when requested, a diagnostic naming
// the offending field — never undefined behaviour or a silently wrapped
// value. Framing errors ("serde: ...") outrank shape errors wherever they
// occur in the input.

#include <optional>
#include <string>

#include "runtime/serde.h"
#include "runtime/trace.h"

namespace ba {

Bytes encode_trace(const ExecutionTrace& trace);

/// Schema-v2 encoding: the v1 fields plus a trailing provenance vector
/// (producer name, link model, seeds — free-form; a scalar is wrapped in a
/// one-element vector). Decoders treat the extension defensively: v1
/// readers never see it, and decode_trace accepts both widths, validating
/// the provenance slot's shape but never its contents. Written by trace
/// producers other than the lockstep executor (the sim CLI's --save-trace),
/// so audits can tell substrates apart without forking the format.
Bytes encode_trace_with_provenance(const ExecutionTrace& trace,
                                   const Value& provenance);

/// Decodes a trace, rejecting out-of-range ids/rounds, shape mismatches and
/// non-canonical encodings. Accepts both the 7-field v1 layout and the
/// 8-field v2 layout. On rejection returns nullopt and, if `error` is
/// non-null and empty, stores a one-line explanation. On success, if
/// `provenance` is non-null it receives the v2 provenance vector (null
/// Value for v1 traces).
std::optional<ExecutionTrace> decode_trace(std::span<const std::uint8_t> bytes,
                                           std::string* error = nullptr,
                                           Value* provenance = nullptr);

/// The streaming codec for formats that embed a trace (certificates):
/// write_trace appends the encoding (v2 when `provenance` is non-null);
/// read_trace consumes one encoded trace from `r`, throwing SerdeError on
/// a framing error and returning nullopt with the first shape error in
/// stream order otherwise.
void write_trace(BytesWriter& w, const ExecutionTrace& trace,
                 const Value* provenance = nullptr);
std::optional<ExecutionTrace> read_trace(BytesReader& r,
                                         std::string* error = nullptr,
                                         Value* provenance = nullptr);

/// The trace as a Value, and back: thin wrappers over the byte codec for
/// callers (tests, mostly) that edit the structure.
Value trace_to_value(const ExecutionTrace& trace);
Value trace_to_value_with_provenance(const ExecutionTrace& trace,
                                     const Value& provenance);
std::optional<ExecutionTrace> trace_from_value(const Value& v,
                                               std::string* error = nullptr,
                                               Value* provenance = nullptr);

}  // namespace ba
