#pragma once

// The protocol table: one row per protocol the library declares a CommSpec
// for, and the only place a protocol name is mapped to anything. Every
// surface that accepts a protocol name resolves it here: ba_cli (run, sim,
// attack, verify, dr-attack, bounds, explore's budget), lint_trace, the
// sweep's entries, the campaign service and the benches. A row carries
//   - the CommSpec the static analyzer folds (statics/analyzer.h), whose
//     `protocol` field is the row's canonical name,
//   - the other names the surfaces accept for it, and
//   - for the protocols the surfaces run by name, a factory.
// So a campaign spec, a sweep row and a `ba_cli run` invocation that name
// the same protocol get the same factory and the same static budget.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/process.h"
#include "statics/comm_spec.h"

namespace ba::protocols {

struct ProtocolDescriptor {
  statics::CommSpec spec;
  std::vector<std::string> aliases{};
  /// Builds the protocol for an n-process system; null for rows declared
  /// only for the static analyzer (and for the async protocols, whose
  /// factories live in async/protocols.h). Pure: equal n always gives
  /// equivalent factories (authenticated protocols derive their keys from
  /// one fixed seed, so two calls are interchangeable in any run).
  ProtocolFactory (*make)(std::uint32_t n){nullptr};
};

/// Every row, in presentation order (correct protocols first, then the
/// deliberately broken attack targets, then the async protocols).
/// Parameterized constructions appear at the parameters the surfaces run.
[[nodiscard]] const std::vector<ProtocolDescriptor>& protocol_table();

/// The row whose canonical name or alias is `name`; nullptr when unknown.
[[nodiscard]] const ProtocolDescriptor* find_protocol(std::string_view name);

/// The factory of the row `name` resolves to, or nullopt when the name is
/// unknown or its row has no factory.
[[nodiscard]] std::optional<ProtocolFactory> make_protocol_by_name(
    std::string_view name, std::uint32_t n);

/// The canonical names of the rows with a factory, in table order,
/// space-separated (usage strings and error messages).
[[nodiscard]] const char* registered_protocol_names();

}  // namespace ba::protocols
