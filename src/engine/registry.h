#pragma once

// The execution backends by name.
//
// Every surface that names a backend resolves it here: ba_cli's
// `--backend lockstep|sim[:model,seed]|async[:strategy,seed]` flag, campaign
// specs, the benches' per-backend sections, and lint_trace's provenance
// audit (a schema-v2 trace naming a backend not listed here fails the lint).
//
// The backends are a fixed table in registry.cpp: "lockstep" (the round
// executor), "sim" (the discrete-event simulator, configured by
// BackendSpec::sim), and "async" (the adversarial-scheduler executor,
// configured by BackendSpec::async). Adding a backend is one row there;
// every surface picks it up.

#include <optional>
#include <string>
#include <vector>

#include "engine/backend.h"

namespace ba::engine {

/// Everything a backend factory may consult. `name` picks the factory; the
/// rest parameterizes it (the sim backend reads `sim`, the async backend
/// reads `async`).
struct BackendSpec {
  std::string name{"lockstep"};
  SimBackendConfig sim{};
  AsyncBackendConfig async{};
};

/// The backends' names, sorted.
[[nodiscard]] std::vector<std::string> backend_names();

/// Builds the backend `spec` names; throws std::invalid_argument on an
/// unknown name or a config the backend rejects.
[[nodiscard]] BackendHandle make_backend(const BackendSpec& spec);

/// Parses a CLI backend spec: "lockstep", "sim[:model[,seed]]", or
/// "async[:strategy[,seed]]" — e.g. "sim:jitter,42", "async:rr-starve,7".
/// The part after the colon fills both SimBackendConfig's model and
/// AsyncBackendConfig's strategy (only the named backend reads its config).
/// Unknown backend names still parse (make_backend reports them); malformed
/// syntax — empty name/model/seed, a non-numeric or out-of-range seed —
/// returns nullopt.
[[nodiscard]] std::optional<BackendSpec> parse_backend_spec(
    const std::string& spec);

/// parse_backend_spec + make_backend: throws std::invalid_argument on
/// malformed specs and unknown names alike.
[[nodiscard]] BackendHandle make_backend(const std::string& spec);

}  // namespace ba::engine
