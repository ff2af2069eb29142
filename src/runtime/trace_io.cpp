#include "runtime/trace_io.h"

#include <algorithm>
#include <limits>
#include <sstream>
#include <string_view>
#include <unordered_map>

namespace ba {
namespace {

constexpr std::uint64_t kV1Fields = 7;
constexpr std::uint64_t kV2Fields = 8;

/// Records the first decode failure; later failures keep the original
/// diagnostic (the root cause is what the caller wants to see).
class Diag {
 public:
  explicit Diag(std::string* out) : out_(out) {}

  template <typename... Parts>
  std::nullopt_t fail(Parts&&... parts) {
    if (out_ != nullptr && out_->empty()) {
      std::ostringstream os;
      (os << ... << parts);
      *out_ = os.str();
    }
    return std::nullopt;
  }

 private:
  std::string* out_;
};

/// Narrow an int field to uint32, rejecting negatives and overflow instead
/// of letting the cast wrap.
std::optional<std::uint32_t> checked_u32(std::int64_t i) {
  if (i < 0 || i > std::numeric_limits<std::uint32_t>::max()) {
    return std::nullopt;
  }
  return static_cast<std::uint32_t>(i);
}

std::optional<std::uint32_t> checked_u32(const Value& v) {
  if (!v.is_int()) return std::nullopt;
  return checked_u32(v.as_int());
}

/// The encoding of one trace, as a walk that feeds a sink: SizeSink
/// measures it so the output is allocated once, WriteSink emits it.
template <typename Sink>
void walk_trace(Sink& s, const ExecutionTrace& trace,
                const Value* provenance) {
  static const Value kTag{"trace"};
  s.vec_header(provenance != nullptr ? kV2Fields : kV1Fields);
  s.value(kTag);
  s.int_value(trace.params.n);
  s.int_value(trace.params.t);
  s.vec_header(trace.faulty.size());
  for (ProcessId p : trace.faulty) s.int_value(p);
  s.int_value(trace.rounds);
  s.value(Value{trace.quiesced});
  s.vec_header(trace.procs.size());
  for (const ProcessTrace& pt : trace.procs) {
    s.vec_header(4);
    s.payload(pt.proposal);
    s.vec_header(pt.decision ? 1 : 0);
    if (pt.decision) s.payload(*pt.decision);
    s.int_value(pt.decision_round);
    s.vec_header(pt.rounds.size());
    for (const RoundEvents& re : pt.rounds) {
      s.vec_header(4);
      for (const auto* set : {&re.sent, &re.send_omitted, &re.received,
                              &re.receive_omitted}) {
        s.vec_header(set->size());
        for (const Message& m : *set) {
          s.vec_header(4);
          s.int_value(m.sender);
          s.int_value(m.receiver);
          s.int_value(m.round);
          s.payload(m.payload);
        }
      }
    }
  }
  if (provenance == nullptr) return;
  // The provenance slot is constrained to a vector so a corrupted stream
  // cannot smuggle arbitrary scalars into an "ignored" field unnoticed.
  if (!provenance->is_vec()) s.vec_header(1);
  s.value(*provenance);
}

/// Where a string/vector payload's bytes sit in the output. The runtime
/// shares one payload object across every record of a multicast
/// (docs/RUNTIME_PERF.md §1), so each distinct object is serialized once
/// and its bytes copied for every later record that holds it.
struct PayloadSpan {
  static constexpr std::size_t kUnwritten = ~std::size_t{0};
  std::size_t len;
  std::size_t offset{kUnwritten};
};
// Identity only picks which earlier copy of equal bytes to repeat; the
// memo is never iterated, so no address can reach the output.
using PayloadMemo =
    std::unordered_map<const void*,  // determinism: lookup-only memo
                       PayloadSpan>;

class SizeSink {
 public:
  explicit SizeSink(PayloadMemo& memo) : memo_(memo) {}

  // A tag byte and an 8-byte body (runtime/serde.h).
  void vec_header(std::uint64_t) { bytes += 9; }
  void int_value(std::int64_t) { bytes += 9; }
  void value(const Value& v) { bytes += encoded_size(v); }
  void payload(const Value& v) {
    const void* id = v.payload_identity();
    if (id == nullptr) return value(v);
    const auto [it, fresh] = memo_.try_emplace(id, PayloadSpan{0});
    if (fresh) it->second.len = encoded_size(v);
    bytes += it->second.len;
  }

  std::size_t bytes{0};

 private:
  PayloadMemo& memo_;
};

class WriteSink {
 public:
  WriteSink(BytesWriter& w, PayloadMemo& memo) : w_(w), memo_(memo) {}

  void vec_header(std::uint64_t len) { w_.vec_header(len); }
  void int_value(std::int64_t v) { w_.int_value(v); }
  void value(const Value& v) { w_.value(v); }
  void payload(const Value& v) {
    const void* id = v.payload_identity();
    if (id == nullptr) return value(v);
    PayloadSpan& span = memo_.find(id)->second;  // SizeSink saw every payload
    if (span.offset != PayloadSpan::kUnwritten) {
      w_.repeat(span.offset, span.len);
      return;
    }
    span.offset = w_.size();
    w_.value(v);
  }

 private:
  BytesWriter& w_;
  PayloadMemo& memo_;
};

/// Streams the decoding of one trace, checking its shape in stream order.
/// Stops at the first shape error (nullopt, reported through `diag`);
/// framing errors throw SerdeError.
class TraceReader {
 public:
  TraceReader(BytesReader& r, Diag& diag) : r_(r), diag_(diag) {}

  std::optional<ExecutionTrace> trace(Value* provenance) {
    std::uint64_t fields = 0;
    if (!vec(fields) || (fields != kV1Fields && fields != kV2Fields)) {
      return diag_.fail(
          "trace: expected a 7-field (v1) or 8-field (v2) vector");
    }
    // The header fields are a handful of scalars: read them whole, then
    // check them in a fixed order (tag, field kinds, values).
    const Value tag = r_.value();
    const Value n_field = r_.value();
    const Value t_field = r_.value();
    const Value faulty = r_.value();
    const Value rounds = r_.value();
    const Value quiesced = r_.value();
    std::uint64_t procs = 0;
    const bool procs_is_vec = vec(procs);
    if (!tag.is_str() || tag.as_str() != "trace") {
      return diag_.fail("trace: missing 'trace' tag");
    }
    if (!faulty.is_vec() || !quiesced.is_bool() || !procs_is_vec) {
      return diag_.fail("trace: malformed field types");
    }
    ExecutionTrace trace;
    const auto n = checked_u32(n_field);
    const auto t = checked_u32(t_field);
    if (!n || !t) return diag_.fail("trace: n/t must be in [0, 2^32)");
    trace.params.n = *n;
    trace.params.t = *t;
    if (!trace.params.valid()) {
      return diag_.fail("trace: invalid params n=", *n, " t=", *t,
                        " (need n > 0 and t < n)");
    }
    for (const Value& e : faulty.as_vec()) {
      const auto p = checked_u32(e);
      if (!p) return diag_.fail("trace: faulty id must be in [0, 2^32)");
      if (*p >= *n) return diag_.fail("trace: faulty id ", *p, " >= n=", *n);
      if (!trace.faulty.empty() && *p <= trace.faulty.ids().back()) {
        return diag_.fail("trace: faulty ids must be strictly ascending");
      }
      trace.faulty.insert(*p);
    }
    const auto round_count = checked_u32(rounds);
    if (!round_count) {
      return diag_.fail("trace: round count must be in [0, 2^32)");
    }
    trace.rounds = *round_count;
    trace.quiesced = quiesced.as_bool();
    if (procs != *n) {
      return diag_.fail("trace: ", procs, " process trace(s) for n=", *n);
    }
    n_ = *n;
    trace.procs.reserve(*n);
    for (std::uint32_t p = 0; p < *n; ++p) {
      auto pt = process();
      if (!pt) return std::nullopt;
      trace.procs.push_back(std::move(*pt));
    }
    if (fields == kV2Fields) {
      Value prov = r_.value();
      if (!prov.is_vec()) {
        return diag_.fail("trace: v2 provenance field must be a vector");
      }
      if (provenance != nullptr) *provenance = std::move(prov);
    } else if (provenance != nullptr) {
      *provenance = Value::null();
    }
    return trace;
  }

 private:
  /// Reads a vector header into `len`; false if the value is not a vector.
  bool vec(std::uint64_t& len) {
    if (r_.kind() != Value::Kind::kVec) return false;
    len = r_.vec_len();
    return true;
  }

  std::optional<std::uint32_t> u32() {
    if (r_.kind() != Value::Kind::kInt) return std::nullopt;
    return checked_u32(r_.i64());
  }

  /// An opaque value (payload, proposal, decision). Strings and vectors are
  /// skipped first and decoded only the first time their bytes appear.
  Value payload() {
    const std::size_t start = r_.pos();
    r_.skip_value();
    const std::span<const std::uint8_t> bytes = r_.since(start);
    const auto kind = static_cast<Value::Kind>(bytes.front());
    if (kind != Value::Kind::kStr && kind != Value::Kind::kVec) {
      return BytesReader(bytes).value();
    }
    const std::string_view key(reinterpret_cast<const char*>(bytes.data()),
                               bytes.size());
    const auto [it, fresh] = decoded_.try_emplace(key);
    if (fresh) it->second = BytesReader(bytes).value();
    return it->second;
  }

  std::optional<ProcessTrace> process() {
    std::uint64_t fields = 0;
    if (!vec(fields) || fields != 4) {
      return diag_.fail("process trace: expected a 4-field vector");
    }
    ProcessTrace pt;
    pt.proposal = payload();
    std::uint64_t decided = 0;
    if (!vec(decided) || decided > 1) {
      return diag_.fail("process trace: decision must be a 0/1-element vector");
    }
    if (decided == 1) pt.decision = payload();
    const auto decision_round = u32();
    if (!decision_round) {
      return diag_.fail("process trace: decision round must be in [0, 2^32)");
    }
    pt.decision_round = *decision_round;
    std::uint64_t rounds = 0;
    if (!vec(rounds)) {
      return diag_.fail("process trace: rounds must be a vector");
    }
    for (std::uint64_t i = 0; i < rounds; ++i) {
      std::uint64_t sets = 0;
      if (!vec(sets) || sets != 4) {
        return diag_.fail("round events: expected a 4-field vector");
      }
      RoundEvents& re = pt.rounds.emplace_back();
      if (!messages(re.sent) || !messages(re.send_omitted) ||
          !messages(re.received) || !messages(re.receive_omitted)) {
        return std::nullopt;
      }
    }
    return pt;
  }

  /// One message set. `n_` bounds the process ids: a trace can only carry
  /// messages between processes of its own system.
  bool messages(std::vector<Message>& out) {
    std::uint64_t len = 0;
    if (!vec(len)) return failed("message set: expected a vector");
    // A message takes at least a header, three ints and a one-byte payload;
    // a corrupted count cannot reserve more than the input could hold.
    out.reserve(std::min<std::uint64_t>(len, r_.remaining() / 37));
    for (std::uint64_t i = 0; i < len; ++i) {
      std::uint64_t fields = 0;
      if (!vec(fields) || fields != 4) {
        return failed("message: expected a 4-field vector");
      }
      // Stop at the first bad field: the bytes after it are not ints.
      const auto sender = u32();
      const auto receiver = sender ? u32() : std::nullopt;
      const auto round = receiver ? u32() : std::nullopt;
      if (!round) {
        return failed("message: sender/receiver/round must be in [0, 2^32)");
      }
      if (*sender >= n_) {
        return failed("message: sender ", *sender, " >= n=", n_);
      }
      if (*receiver >= n_) {
        return failed("message: receiver ", *receiver, " >= n=", n_);
      }
      out.push_back(Message{*sender, *receiver, *round, payload()});
    }
    return true;
  }

  template <typename... Parts>
  bool failed(Parts&&... parts) {
    diag_.fail(std::forward<Parts>(parts)...);
    return false;
  }

  BytesReader& r_;
  Diag& diag_;
  std::uint32_t n_{0};
  // Keyed on a payload's bytes; never iterated.
  std::unordered_map<std::string_view,  // determinism: lookup-only memo
                     Value>
      decoded_;
};

/// The diagnostic for a rejected input, computed on the failure path only.
/// Framing errors anywhere in the input outrank shape errors, and a
/// non-vector v2 provenance slot outranks every other shape error (the
/// order of a decoder that parses the whole value before checking any
/// field); otherwise the first shape error in stream order stands.
std::string rejection(std::span<const std::uint8_t> bytes,
                      std::string shape_error) {
  try {
    BytesReader r(bytes);
    r.skip_value();
    if (!r.done()) throw SerdeError("trailing bytes");
  } catch (const SerdeError& e) {
    return std::string("serde: ") + e.what();
  }
  BytesReader r(bytes);
  if (r.kind() == Value::Kind::kVec && r.vec_len() == kV2Fields) {
    for (std::uint64_t i = 0; i + 1 < kV2Fields; ++i) r.skip_value();
    if (r.kind() != Value::Kind::kVec) {
      return "trace: v2 provenance field must be a vector";
    }
  }
  return shape_error;
}

}  // namespace

void write_trace(BytesWriter& w, const ExecutionTrace& trace,
                 const Value* provenance) {
  PayloadMemo memo;
  SizeSink size(memo);
  walk_trace(size, trace, provenance);
  w.reserve(w.size() + size.bytes);
  WriteSink write(w, memo);
  walk_trace(write, trace, provenance);
}

std::optional<ExecutionTrace> read_trace(BytesReader& r, std::string* error,
                                         Value* provenance) {
  Diag diag(error);
  return TraceReader(r, diag).trace(provenance);
}

Bytes encode_trace(const ExecutionTrace& trace) {
  BytesWriter w;
  write_trace(w, trace);
  return w.take();
}

Bytes encode_trace_with_provenance(const ExecutionTrace& trace,
                                   const Value& provenance) {
  BytesWriter w;
  write_trace(w, trace, &provenance);
  return w.take();
}

std::optional<ExecutionTrace> decode_trace(std::span<const std::uint8_t> bytes,
                                           std::string* error,
                                           Value* provenance) {
  std::string shape_error;
  try {
    BytesReader r(bytes);
    Value prov;
    auto trace = read_trace(r, &shape_error, &prov);
    if (trace && r.done()) {
      if (provenance != nullptr) *provenance = std::move(prov);
      return trace;
    }
  } catch (const SerdeError& e) {
    shape_error = std::string("serde: ") + e.what();
  }
  return Diag(error).fail(rejection(bytes, std::move(shape_error)));
}

Value trace_to_value(const ExecutionTrace& trace) {
  return decode_value(encode_trace(trace));
}

Value trace_to_value_with_provenance(const ExecutionTrace& trace,
                                     const Value& provenance) {
  return decode_value(encode_trace_with_provenance(trace, provenance));
}

std::optional<ExecutionTrace> trace_from_value(const Value& v,
                                               std::string* error,
                                               Value* provenance) {
  return decode_trace(encode_value(v), error, provenance);
}

}  // namespace ba
