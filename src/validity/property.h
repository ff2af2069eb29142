#pragma once

// Validity properties (§4.1): val : I -> 2^{V_O} \ {∅}. A property is
// represented by finite proposal/decision domains plus an admissibility
// predicate; finiteness makes triviality, the containment condition and Γ
// Turing-computable by enumeration (Definition 3 only requires
// computability — the canned properties also ship closed-form Γs, which the
// tests cross-check against the enumerator).

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "runtime/value.h"
#include "validity/input_config.h"

namespace ba::validity {

struct ValidityProperty {
  std::string name;
  /// V_I: the finite proposal domain experiments run over.
  std::vector<Value> input_domain;
  /// V_O: the finite decision domain.
  std::vector<Value> output_domain;
  /// v' in val(c)?
  std::function<bool(const InputConfig& c, const Value& v)> admissible;

  /// Optional closed-form Γ (fast path); must agree with the enumerated one.
  std::function<std::optional<Value>(const InputConfig& c)> gamma_fast;
};

}  // namespace ba::validity
