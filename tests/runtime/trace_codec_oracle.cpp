#include "trace_codec_oracle.h"

#include <limits>
#include <sstream>

namespace ba::oracle {
namespace {

// --- Value serde: a byte-at-a-time writer and a recursive reader. -------

class Writer {
 public:
  void u8(std::uint8_t v) { out_.push_back(v); }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out_.push_back((v >> (8 * i)) & 0xff);
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u64(s.size());
    out_.insert(out_.end(), s.begin(), s.end());
  }
  void value(const Value& v) {
    u8(static_cast<std::uint8_t>(v.kind()));
    switch (v.kind()) {
      case Value::Kind::kNull:
        break;
      case Value::Kind::kBool:
        u8(v.as_bool() ? 1 : 0);
        break;
      case Value::Kind::kInt:
        i64(v.as_int());
        break;
      case Value::Kind::kStr:
        str(v.as_str());
        break;
      case Value::Kind::kVec:
        u64(v.as_vec().size());
        for (const Value& e : v.as_vec()) value(e);
        break;
    }
  }
  Bytes take() { return std::move(out_); }

 private:
  Bytes out_;
};

class Reader {
 public:
  Reader(std::span<const std::uint8_t> data,
         std::optional<std::size_t>* bad_bool)
      : data_(data), bad_bool_(bad_bool) {}

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
    }
    return v;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  std::string str() {
    std::uint64_t len = u64();
    need(len);
    std::string s(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                  data_.begin() + static_cast<std::ptrdiff_t>(pos_ + len));
    pos_ += len;
    return s;
  }
  Value value() {
    auto kind = static_cast<Value::Kind>(u8());
    switch (kind) {
      case Value::Kind::kNull:
        return Value::null();
      case Value::Kind::kBool: {
        const std::uint8_t b = u8();
        if (b > 1 && bad_bool_ != nullptr && !*bad_bool_) {
          *bad_bool_ = pos_ - 1;
        }
        return Value{b != 0};
      }
      case Value::Kind::kInt:
        return Value{i64()};
      case Value::Kind::kStr:
        return Value{str()};
      case Value::Kind::kVec: {
        std::uint64_t len = u64();
        if (len > remaining()) throw SerdeError("vector length exceeds input");
        ValueVec vec;
        vec.reserve(len);
        for (std::uint64_t i = 0; i < len; ++i) vec.push_back(value());
        return Value{std::move(vec)};
      }
    }
    throw SerdeError("bad value tag");
  }
  [[nodiscard]] bool done() const { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

 private:
  void need(std::size_t k) {
    if (remaining() < k) throw SerdeError("truncated input");
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_{0};
  std::optional<std::size_t>* bad_bool_;
};

// --- Trace codec over a whole Value tree. --------------------------------

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
std::optional<std::uint32_t> checked_u32(const Value& v) {
  if (!v.is_int()) return std::nullopt;
  const std::int64_t i = v.as_int();
  if (i < 0 || i > std::numeric_limits<std::uint32_t>::max()) {
    return std::nullopt;
  }
  return static_cast<std::uint32_t>(i);
}

Value message_to_value(const Message& m) {
  return Value{ValueVec{Value{static_cast<std::int64_t>(m.sender)},
                        Value{static_cast<std::int64_t>(m.receiver)},
                        Value{static_cast<std::int64_t>(m.round)},
                        m.payload}};
}

/// Decodes one message. `n` bounds the process ids: a trace can only carry
/// messages between processes of its own system.
std::optional<Message> message_from_value(const Value& v, std::uint32_t n,
                                          Diag& diag) {
  if (!v.is_vec() || v.as_vec().size() != 4) {
    return diag.fail("message: expected a 4-field vector");
  }
  const ValueVec& f = v.as_vec();
  const auto sender = checked_u32(f[0]);
  const auto receiver = checked_u32(f[1]);
  const auto round = checked_u32(f[2]);
  if (!sender || !receiver || !round) {
    return diag.fail("message: sender/receiver/round must be in [0, 2^32)");
  }
  if (*sender >= n) return diag.fail("message: sender ", *sender, " >= n=", n);
  if (*receiver >= n) {
    return diag.fail("message: receiver ", *receiver, " >= n=", n);
  }
  return Message{*sender, *receiver, *round, f[3]};
}

Value messages_to_value(const std::vector<Message>& ms) {
  ValueVec out;
  out.reserve(ms.size());
  for (const Message& m : ms) out.push_back(message_to_value(m));
  return Value{std::move(out)};
}

std::optional<std::vector<Message>> messages_from_value(const Value& v,
                                                        std::uint32_t n,
                                                        Diag& diag) {
  if (!v.is_vec()) return diag.fail("message set: expected a vector");
  std::vector<Message> out;
  out.reserve(v.as_vec().size());
  for (const Value& e : v.as_vec()) {
    auto m = message_from_value(e, n, diag);
    if (!m) return std::nullopt;
    out.push_back(std::move(*m));
  }
  return out;
}

}  // namespace

Value trace_to_value(const ExecutionTrace& trace) {
  ValueVec procs;
  procs.reserve(trace.procs.size());
  for (const ProcessTrace& pt : trace.procs) {
    ValueVec rounds;
    rounds.reserve(pt.rounds.size());
    for (const RoundEvents& re : pt.rounds) {
      rounds.push_back(Value{ValueVec{
          messages_to_value(re.sent), messages_to_value(re.send_omitted),
          messages_to_value(re.received),
          messages_to_value(re.receive_omitted)}});
    }
    procs.push_back(Value{ValueVec{
        pt.proposal,
        pt.decision ? Value{ValueVec{*pt.decision}} : Value{ValueVec{}},
        Value{static_cast<std::int64_t>(pt.decision_round)},
        Value{std::move(rounds)}}});
  }
  ValueVec faulty;
  for (ProcessId p : trace.faulty) {
    faulty.emplace_back(static_cast<std::int64_t>(p));
  }
  return Value{ValueVec{Value{"trace"},
                        Value{static_cast<std::int64_t>(trace.params.n)},
                        Value{static_cast<std::int64_t>(trace.params.t)},
                        Value{std::move(faulty)},
                        Value{static_cast<std::int64_t>(trace.rounds)},
                        Value{trace.quiesced}, Value{std::move(procs)}}};
}

Value trace_to_value_with_provenance(const ExecutionTrace& trace,
                                     const Value& provenance) {
  Value v = trace_to_value(trace);
  ValueVec fields = v.as_vec();
  // The provenance slot is constrained to a vector so a corrupted stream
  // cannot smuggle arbitrary scalars into an "ignored" field unnoticed.
  fields.push_back(provenance.is_vec() ? provenance
                                       : Value{ValueVec{provenance}});
  return Value{std::move(fields)};
}

std::optional<ExecutionTrace> trace_from_value(const Value& v,
                                               std::string* error,
                                               Value* provenance) {
  Diag diag(error);
  if (!v.is_vec() ||
      (v.as_vec().size() != 7 && v.as_vec().size() != 8)) {
    return diag.fail("trace: expected a 7-field (v1) or 8-field (v2) vector");
  }
  const ValueVec& f = v.as_vec();
  if (f.size() == 8) {
    // v2 provenance extension: shape-checked, contents deliberately opaque
    // (future producers may add fields without breaking this decoder).
    if (!f[7].is_vec()) {
      return diag.fail("trace: v2 provenance field must be a vector");
    }
    if (provenance != nullptr) *provenance = f[7];
  } else if (provenance != nullptr) {
    *provenance = Value::null();
  }
  if (!f[0].is_str() || f[0].as_str() != "trace") {
    return diag.fail("trace: missing 'trace' tag");
  }
  if (!f[3].is_vec() || !f[5].is_bool() || !f[6].is_vec()) {
    return diag.fail("trace: malformed field types");
  }
  ExecutionTrace trace;
  const auto n = checked_u32(f[1]);
  const auto t = checked_u32(f[2]);
  if (!n || !t) return diag.fail("trace: n/t must be in [0, 2^32)");
  trace.params.n = *n;
  trace.params.t = *t;
  if (!trace.params.valid()) {
    return diag.fail("trace: invalid params n=", *n, " t=", *t,
                     " (need n > 0 and t < n)");
  }
  for (const Value& e : f[3].as_vec()) {
    const auto p = checked_u32(e);
    if (!p) return diag.fail("trace: faulty id must be in [0, 2^32)");
    if (*p >= *n) return diag.fail("trace: faulty id ", *p, " >= n=", *n);
    trace.faulty.insert(*p);
  }
  const auto rounds = checked_u32(f[4]);
  if (!rounds) return diag.fail("trace: round count must be in [0, 2^32)");
  trace.rounds = *rounds;
  trace.quiesced = f[5].as_bool();

  if (f[6].as_vec().size() != *n) {
    return diag.fail("trace: ", f[6].as_vec().size(),
                     " process trace(s) for n=", *n);
  }
  for (const Value& pv : f[6].as_vec()) {
    if (!pv.is_vec() || pv.as_vec().size() != 4) {
      return diag.fail("process trace: expected a 4-field vector");
    }
    const ValueVec& pf = pv.as_vec();
    ProcessTrace pt;
    pt.proposal = pf[0];
    if (!pf[1].is_vec() || pf[1].as_vec().size() > 1) {
      return diag.fail("process trace: decision must be a 0/1-element vector");
    }
    if (!pf[1].as_vec().empty()) pt.decision = pf[1].as_vec()[0];
    const auto decision_round = checked_u32(pf[2]);
    if (!decision_round) {
      return diag.fail("process trace: decision round must be in [0, 2^32)");
    }
    pt.decision_round = *decision_round;
    if (!pf[3].is_vec()) {
      return diag.fail("process trace: rounds must be a vector");
    }
    for (const Value& rv : pf[3].as_vec()) {
      if (!rv.is_vec() || rv.as_vec().size() != 4) {
        return diag.fail("round events: expected a 4-field vector");
      }
      RoundEvents re;
      auto sent = messages_from_value(rv.as_vec()[0], *n, diag);
      auto send_omitted = messages_from_value(rv.as_vec()[1], *n, diag);
      auto received = messages_from_value(rv.as_vec()[2], *n, diag);
      auto receive_omitted = messages_from_value(rv.as_vec()[3], *n, diag);
      if (!sent || !send_omitted || !received || !receive_omitted) {
        return std::nullopt;
      }
      re.sent = std::move(*sent);
      re.send_omitted = std::move(*send_omitted);
      re.received = std::move(*received);
      re.receive_omitted = std::move(*receive_omitted);
      pt.rounds.push_back(std::move(re));
    }
    trace.procs.push_back(std::move(pt));
  }
  return trace;
}

Bytes encode_trace(const ExecutionTrace& trace) {
  return oracle::encode_value(trace_to_value(trace));
}

Bytes encode_trace_with_provenance(const ExecutionTrace& trace,
                                   const Value& provenance) {
  return oracle::encode_value(
      trace_to_value_with_provenance(trace, provenance));
}

std::optional<ExecutionTrace> decode_trace(std::span<const std::uint8_t> bytes,
                                           std::string* error,
                                           Value* provenance) {
  try {
    return trace_from_value(decode_value(bytes), error, provenance);
  } catch (const SerdeError& e) {
    if (error != nullptr && error->empty()) {
      *error = std::string("serde: ") + e.what();
    }
    return std::nullopt;
  }
}


// --- Certificate codec. ---------------------------------------------------

Value certificate_to_value(const lowerbound::ViolationCertificate& cert) {
  return Value{ValueVec{
      Value{"cert"}, Value{static_cast<std::int64_t>(cert.kind)},
      trace_to_value(cert.execution),
      Value{static_cast<std::int64_t>(cert.witness_a)},
      Value{static_cast<std::int64_t>(cert.witness_b)},
      Value{cert.narrative}}};
}

std::optional<lowerbound::ViolationCertificate> certificate_from_value(
    const Value& v) {
  if (!v.is_vec() || v.as_vec().size() != 6) return std::nullopt;
  const ValueVec& f = v.as_vec();
  if (!f[0].is_str() || f[0].as_str() != "cert" || !f[1].is_int() ||
      !f[3].is_int() || !f[4].is_int() || !f[5].is_str()) {
    return std::nullopt;
  }
  const std::int64_t kind = f[1].as_int();
  if (kind < 0 || kind > 2) return std::nullopt;
  auto trace = trace_from_value(f[2]);
  if (!trace) return std::nullopt;
  // Witnesses must name processes of the certified execution (or carry the
  // kNoProcess sentinel for kinds with fewer witnesses); anything else is a
  // malformed certificate, not a weird-but-usable one.
  auto checked_witness = [&](const Value& w) -> std::optional<ProcessId> {
    const std::int64_t i = w.as_int();
    if (i == static_cast<std::int64_t>(kNoProcess)) return kNoProcess;
    if (i < 0 || i >= static_cast<std::int64_t>(trace->params.n)) {
      return std::nullopt;
    }
    return static_cast<ProcessId>(i);
  };
  const auto wa = checked_witness(f[3]);
  const auto wb = checked_witness(f[4]);
  if (!wa || !wb) return std::nullopt;
  lowerbound::ViolationCertificate cert;
  cert.kind = static_cast<lowerbound::ViolationKind>(kind);
  cert.execution = std::move(*trace);
  cert.witness_a = *wa;
  cert.witness_b = *wb;
  cert.narrative = f[5].as_str();
  return cert;
}

Bytes encode_certificate(const lowerbound::ViolationCertificate& cert) {
  return oracle::encode_value(certificate_to_value(cert));
}

std::optional<lowerbound::ViolationCertificate> decode_certificate(
    std::span<const std::uint8_t> bytes) {
  try {
    return certificate_from_value(decode_value(bytes));
  } catch (const SerdeError&) {
    return std::nullopt;
  }
}

Bytes encode_value(const Value& v) {
  Writer w;
  w.value(v);
  return w.take();
}

Value decode_value(std::span<const std::uint8_t> data,
                   std::optional<std::size_t>* bad_bool) {
  Reader r(data, bad_bool);
  Value v = r.value();
  if (!r.done()) throw SerdeError("trailing bytes");
  return v;
}

}  // namespace ba::oracle
