#pragma once

// Shared conventions for protocol payloads and decisions.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "runtime/message.h"
#include "runtime/process.h"
#include "runtime/value.h"

namespace ba::protocols {

/// Tagged payloads: ["tag", field...]. Protocols running side by side (e.g.
/// n parallel broadcast instances inside interactive consistency) prefix an
/// instance id field.
inline Value tagged(const std::string& tag, ValueVec fields) {
  ValueVec v;
  v.reserve(fields.size() + 1);
  v.emplace_back(tag);
  for (Value& f : fields) v.push_back(std::move(f));
  return Value{std::move(v)};
}

inline bool has_tag(const Value& v, std::string_view tag) {
  return v.is_vec() && !v.as_vec().empty() && v.as_vec()[0].is_str() &&
         v.as_vec()[0].as_str() == tag;
}

/// Field accessor for tagged payloads (index 0 is the tag).
inline const Value* field(const Value& v, std::size_t i) {
  if (!v.is_vec() || v.as_vec().size() <= i + 1) return nullptr;
  return &v.as_vec()[i + 1];
}

/// Appends one message to every process but `self`, in ascending receiver
/// order, all sharing `payload` (one refcount bump each, no deep copy). The
/// appending form serves processes that build one outbox from several sends.
inline void append_multicast(Outbox& out, std::uint32_t n, ProcessId self,
                             const Value& payload) {
  out.reserve(out.size() + (n > 0 ? n - 1 : 0));
  for (ProcessId p = 0; p < n; ++p) {
    if (p != self) out.push_back(Outgoing{p, payload});
  }
}

/// The outbox that sends `payload` to every process but `self`: n - 1
/// entries, reserved up front, ascending by receiver.
inline Outbox multicast(std::uint32_t n, ProcessId self, const Value& payload) {
  Outbox out;
  append_multicast(out, n, self, payload);
  return out;
}

/// The distinguished "no value" decision used by broadcast protocols when
/// the sender is exposed as faulty.
inline Value bottom() { return Value::null(); }

/// Base class capturing the common state of a deciding process.
class DecidingProcess : public Process {
 public:
  [[nodiscard]] std::optional<Value> decision() const override {
    return decision_;
  }

 protected:
  void decide(Value v) {
    if (!decision_) decision_ = std::move(v);
  }

 private:
  std::optional<Value> decision_;
};

}  // namespace ba::protocols
