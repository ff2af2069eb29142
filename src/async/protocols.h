#pragma once

// The asynchronous protocols' factories, keyed by the stable names the CLI
// and tests use: a sorted list, a lookup, and a " | "-joined name string
// shared by every error message enumerating the choices.
//
// Their CommSpecs are rows of the protocol table (protocols/registry.h),
// which lists each name here as the canonical name or an alias of the
// ben-or or bracha row; a test checks that every name resolves there. The
// factories stay in this layer because `explore` resolves names here and
// ba_protocols links ba_async, not the other way round.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "async/async_process.h"

namespace ba::async {

struct AsyncProtocolInfo {
  /// Stable registry name.
  std::string name;
  /// One-line description for CLI listings.
  std::string summary;
  /// True when the protocol consumes the coin seed (Ben-Or variants); the
  /// seed is ignored by deterministic protocols (Bracha).
  bool randomized{false};
  /// True for the deliberately unsound variants kept as exploration /
  /// certificate targets — excluded from "all protocols are safe" sweeps.
  bool deliberately_broken{false};
  /// Builds the honest replica factory for a given coin seed.
  std::function<AsyncProtocolFactory(std::uint64_t coin_seed)> make;
};

/// All registered async protocols, sorted by name:
/// ben-or (ideal coin), ben-or-broken (unsound thresholds, ideal coin),
/// ben-or-local (per-process local coin), bracha.
[[nodiscard]] const std::vector<AsyncProtocolInfo>& async_protocols();

/// Lookup by name; nullptr when unknown.
[[nodiscard]] const AsyncProtocolInfo* find_async_protocol(
    const std::string& name);

/// The registered names, sorted, joined by " | " — shared by every error
/// message and usage string that enumerates them.
[[nodiscard]] const char* async_protocol_list();

}  // namespace ba::async
