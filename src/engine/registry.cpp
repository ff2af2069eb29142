#include "engine/registry.h"

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>

#include "async/backend.h"

namespace ba::engine {
namespace {

struct BuiltinBackend {
  const char* name;
  BackendHandle (*make)(const BackendSpec& spec);
};

// Sorted by name.
constexpr BuiltinBackend kBackends[] = {
    {"async",
     [](const BackendSpec& spec) -> BackendHandle {
       return std::make_shared<async::AsyncBackend>(spec.async);
     }},
    {"lockstep",
     [](const BackendSpec&) -> BackendHandle {
       return std::make_shared<LockstepBackend>();
     }},
    {"sim",
     [](const BackendSpec& spec) -> BackendHandle {
       return std::make_shared<SimBackend>(spec.sim);
     }},
};

}  // namespace

std::vector<std::string> backend_names() {
  std::vector<std::string> names;
  for (const BuiltinBackend& backend : kBackends) {
    names.emplace_back(backend.name);
  }
  return names;
}

BackendHandle make_backend(const BackendSpec& spec) {
  for (const BuiltinBackend& backend : kBackends) {
    if (spec.name == backend.name) return backend.make(spec);
  }
  std::string known;
  for (const BuiltinBackend& backend : kBackends) {
    if (!known.empty()) known += " | ";
    known += backend.name;
  }
  throw std::invalid_argument("unknown execution backend '" + spec.name +
                              "' (registered: " + known + ")");
}

std::optional<BackendSpec> parse_backend_spec(const std::string& spec) {
  BackendSpec out;
  const auto colon = spec.find(':');
  out.name = spec.substr(0, colon);
  if (out.name.empty()) return std::nullopt;
  if (colon == std::string::npos) return out;

  // name:model[,seed] — the model token doubles as the async backend's
  // strategy; only the backend named by `out.name` reads its config.
  const std::string rest = spec.substr(colon + 1);
  const auto comma = rest.find(',');
  out.sim.model = rest.substr(0, comma);
  if (out.sim.model.empty()) return std::nullopt;
  out.async.strategy = out.sim.model;
  if (comma != std::string::npos) {
    const std::string seed = rest.substr(comma + 1);
    if (seed.empty() ||
        seed.find_first_not_of("0123456789") != std::string::npos) {
      return std::nullopt;
    }
    errno = 0;
    const std::uint64_t parsed = std::strtoull(seed.c_str(), nullptr, 10);
    if (errno == ERANGE) return std::nullopt;  // > 2^64 - 1 overflows
    out.sim.seed = parsed;
    out.async.seed = parsed;
  }
  return out;
}

BackendHandle make_backend(const std::string& spec) {
  auto parsed = parse_backend_spec(spec);
  if (!parsed) {
    throw std::invalid_argument("malformed backend spec '" + spec +
                                "' (want name[:model[,seed]])");
  }
  return make_backend(*parsed);
}

}  // namespace ba::engine
