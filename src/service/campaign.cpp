#include "service/campaign.h"

#include <algorithm>
#include <charconv>
#include <limits>
#include <stdexcept>

#include "crypto/siphash.h"
#include "engine/registry.h"
#include "faults/compile.h"
#include "faults/fault_spec.h"
#include "parallel/seed.h"
#include "protocols/registry.h"
#include "service/json.h"
#include "statics/analyzer.h"

namespace ba::service {
namespace {

// Fixed domain-separated keys: spec hashes and row hashes must be stable
// across builds and machines (they are written into cache files).
constexpr crypto::SipKey kSpecHashKey{0x5e27c0de9a7b0001ULL,
                                      0xba5eba11ca3d0002ULL};
constexpr crypto::SipKey kRowHashKey{0x5e27c0de9a7b0003ULL,
                                     0xba5eba11ca3d0004ULL};
constexpr std::uint64_t kProposalContext = 0x9a0b0535ULL;

[[noreturn]] void spec_error(const std::string& what) {
  throw std::runtime_error("campaign: " + what);
}

std::uint64_t hash_bytes(const crypto::SipKey& key, std::string_view bytes) {
  return crypto::siphash24(
      key, {reinterpret_cast<const std::uint8_t*>(bytes.data()),
            bytes.size()});
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, static_cast<std::size_t>(ptr - buf));
}

std::optional<std::uint64_t> parse_u64(std::string_view s) {
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return v;
}

SystemParams parse_grid_point(const Json& point) {
  if (point.is_string()) {
    const std::string& s = point.as_string();
    const auto colon = s.find(':');
    if (colon != std::string::npos) {
      const auto n = parse_u64(std::string_view(s).substr(0, colon));
      const auto t = parse_u64(std::string_view(s).substr(colon + 1));
      if (n && t && SystemParams{static_cast<std::uint32_t>(*n),
                                 static_cast<std::uint32_t>(*t)}
                        .valid()) {
        return {static_cast<std::uint32_t>(*n), static_cast<std::uint32_t>(*t)};
      }
    }
    spec_error("grid point '" + s + "': want \"n:t\" with t < n");
  }
  const Json* n = point.find("n");
  const Json* t = point.find("t");
  if (!n || !t || !n->is_int() || !t->is_int()) {
    spec_error("grid point: want \"n:t\" or {\"n\": .., \"t\": ..}");
  }
  SystemParams params{static_cast<std::uint32_t>(n->as_int()),
                      static_cast<std::uint32_t>(t->as_int())};
  if (n->as_int() < 0 || t->as_int() < 0 || !params.valid()) {
    spec_error("grid point: invalid (n, t)");
  }
  return params;
}

std::vector<std::string> parse_string_array(const Json& v, const char* field) {
  std::vector<std::string> out;
  if (!v.is_array()) spec_error(std::string(field) + ": want an array");
  for (const Json& item : v.as_array()) {
    if (!item.is_string()) {
      spec_error(std::string(field) + ": want an array of strings");
    }
    out.push_back(item.as_string());
  }
  return out;
}

}  // namespace

std::string hex16(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[v & 0xf];
    v >>= 4;
  }
  return out;
}

CampaignSpec CampaignSpec::from_json(std::string_view text) {
  const Json doc = Json::parse(text);
  if (!doc.is_object()) spec_error("top level: want an object");
  CampaignSpec spec;
  spec.backends.clear();
  spec.faults.clear();
  bool saw_faults = false;
  for (const auto& [key, value] : doc.as_object()) {
    if (key == "name") {
      spec.name = value.as_string();
    } else if (key == "master_seed") {
      if (!value.is_integer() || (value.is_int() && value.as_int() < 0)) {
        spec_error("master_seed: want a non-negative integer");
      }
      spec.master_seed = value.as_uint();
    } else if (key == "protocols") {
      spec.protocols = parse_string_array(value, "protocols");
    } else if (key == "grid") {
      if (!value.is_array()) spec_error("grid: want an array");
      for (const Json& point : value.as_array()) {
        spec.grid.push_back(parse_grid_point(point));
      }
    } else if (key == "backends") {
      spec.backends = parse_string_array(value, "backends");
    } else if (key == "faults") {
      spec.faults = parse_string_array(value, "faults");
      saw_faults = true;
    } else if (key == "fault_axis") {
      spec.fault_axis = parse_string_array(value, "fault_axis");
    } else if (key == "fault_counts") {
      if (!value.is_array()) spec_error("fault_counts: want an array");
      for (const Json& item : value.as_array()) {
        if (!item.is_int() || item.as_int() < 0) {
          spec_error("fault_counts: want non-negative integers");
        }
        spec.fault_counts.push_back(
            static_cast<std::uint32_t>(item.as_int()));
      }
    } else if (key == "seeds") {
      if (!value.is_int() || value.as_int() <= 0) {
        spec_error("seeds: want a positive integer");
      }
      spec.seeds = static_cast<std::uint64_t>(value.as_int());
    } else {
      spec_error("unknown field '" + key + "'");
    }
  }
  if (spec.backends.empty()) spec.backends.push_back("lockstep");
  if (saw_faults && !spec.fault_axis.empty()) {
    spec_error("faults and fault_axis are mutually exclusive");
  }
  if (spec.faults.empty() && spec.fault_axis.empty()) {
    spec.faults.push_back("fault-free");
  }
  spec.validate();
  return spec;
}

std::string CampaignSpec::to_json() const {
  std::string out = "{\"name\":\"";
  json_escape_to(out, name);
  out += "\",\"master_seed\":";
  append_u64(out, master_seed);
  out += ",\"protocols\":[";
  for (std::size_t i = 0; i < protocols.size(); ++i) {
    out += i ? ",\"" : "\"";
    json_escape_to(out, protocols[i]);
    out += "\"";
  }
  out += "],\"grid\":[";
  for (std::size_t i = 0; i < grid.size(); ++i) {
    out += i ? ",\"" : "\"";
    append_u64(out, grid[i].n);
    out += ":";
    append_u64(out, grid[i].t);
    out += "\"";
  }
  out += "],\"backends\":[";
  for (std::size_t i = 0; i < backends.size(); ++i) {
    out += i ? ",\"" : "\"";
    json_escape_to(out, backends[i]);
    out += "\"";
  }
  out += "]";
  // Axis campaigns omit the faults field entirely; an empty "faults":[]
  // would read back as an explicit (conflicting) fault list.
  if (!faults.empty()) {
    out += ",\"faults\":[";
    for (std::size_t i = 0; i < faults.size(); ++i) {
      out += i ? ",\"" : "\"";
      json_escape_to(out, faults[i]);
      out += "\"";
    }
    out += "]";
  }
  // Legacy campaigns canonicalize to the exact pre-fault-axis bytes, so
  // resumable state directories written before the axis existed still match.
  if (!fault_axis.empty()) {
    out += ",\"fault_axis\":[";
    for (std::size_t i = 0; i < fault_axis.size(); ++i) {
      out += i ? ",\"" : "\"";
      json_escape_to(out, fault_axis[i]);
      out += "\"";
    }
    out += "]";
  }
  if (!fault_counts.empty()) {
    out += ",\"fault_counts\":[";
    for (std::size_t i = 0; i < fault_counts.size(); ++i) {
      if (i) out += ",";
      append_u64(out, fault_counts[i]);
    }
    out += "]";
  }
  out += ",\"seeds\":";
  append_u64(out, seeds);
  out += "}";
  return out;
}

std::vector<std::string> CampaignSpec::effective_faults() const {
  if (fault_axis.empty()) return faults;
  std::vector<std::uint32_t> counts = fault_counts;
  if (counts.empty()) {
    // Default sweep: every f the whole grid can afford, 0..min t.
    std::uint32_t min_t = std::numeric_limits<std::uint32_t>::max();
    for (const SystemParams& params : grid) min_t = std::min(min_t, params.t);
    if (grid.empty()) min_t = 0;
    counts.reserve(min_t + 1);
    for (std::uint32_t f = 0; f <= min_t; ++f) counts.push_back(f);
  }
  std::vector<std::string> out;
  out.reserve(fault_axis.size() * counts.size());
  for (const std::string& kind : fault_axis) {
    for (const std::uint32_t f : counts) {
      std::string fault = kind;
      fault += ':';
      append_u64(fault, f);
      out.push_back(std::move(fault));
    }
  }
  return out;
}

void CampaignSpec::validate() const {
  if (protocols.empty()) spec_error("protocols: empty");
  if (grid.empty()) spec_error("grid: empty");
  if (backends.empty()) spec_error("backends: empty");
  if (faults.empty() && fault_axis.empty()) spec_error("faults: empty");
  if (!faults.empty() && !fault_axis.empty()) {
    spec_error("faults and fault_axis are mutually exclusive");
  }
  if (!fault_counts.empty() && fault_axis.empty()) {
    spec_error("fault_counts: requires fault_axis");
  }
  if (seeds == 0) spec_error("seeds: must be >= 1");
  for (const SystemParams& params : grid) {
    if (!params.valid()) spec_error("grid: invalid (n, t) point");
  }
  for (const std::string& protocol : protocols) {
    const auto* row = protocols::find_protocol(protocol);
    if (row == nullptr || row->make == nullptr) {
      spec_error("unknown protocol '" + protocol + "' (known: " +
                 protocols::registered_protocol_names() + ")");
    }
  }
  for (const std::string& backend : backends) {
    const auto parsed = engine::parse_backend_spec(backend);
    if (!parsed) {
      spec_error("backend '" + backend +
                 "': malformed spec (want name[:model[,seed]])");
    }
    if (parsed->name == "async") {
      spec_error("backend '" + backend +
                 "': the async backend refuses synchronous protocols; "
                 "campaigns run the synchronous surface");
    }
    try {
      (void)engine::make_backend(*parsed);
    } catch (const std::exception& e) {
      spec_error("backend '" + backend + "': " + e.what());
    }
  }
  for (const std::string& kind : fault_axis) {
    const auto resolved = faults::find_fault_kind(kind);
    if (!resolved || !faults::kind_sweepable(*resolved)) {
      spec_error("fault_axis kind '" + kind +
                 "': want a sweepable fault kind (crash mute isolate "
                 "silent-byz noise-byz)");
    }
  }
  // Unknown or over-budget fault plans throw the pinned faults:: message
  // unwrapped — the same string `ba_cli run/sim/sweep` print.
  const std::vector<std::string> fault_plans = effective_faults();
  for (const std::string& fault : fault_plans) {
    for (const SystemParams& params : grid) {
      (void)faults::checked_fault_spec(fault, params);
    }
  }
  // Overflow guard on the cross product (campaigns are large but bounded).
  std::uint64_t count = seeds;
  for (const std::uint64_t axis : {protocols.size(), grid.size(),
                                   backends.size(), fault_plans.size()}) {
    if (axis != 0 && count > UINT64_MAX / axis) {
      spec_error("task count overflows 64 bits");
    }
    count *= axis;
  }
}

std::uint64_t CampaignSpec::task_count() const {
  return protocols.size() * grid.size() * backends.size() *
         effective_faults().size() * seeds;
}

TaskSpec CampaignSpec::task_at(std::uint64_t index) const {
  if (index >= task_count()) {
    spec_error("task index " + std::to_string(index) + " out of range (" +
               std::to_string(task_count()) + " tasks)");
  }
  TaskSpec task;
  task.index = index;
  const std::vector<std::string> fault_plans = effective_faults();
  std::uint64_t rest = index;
  task.seed_index = rest % seeds;
  rest /= seeds;
  task.fault = fault_plans[rest % fault_plans.size()];
  rest /= fault_plans.size();
  task.backend = backends[rest % backends.size()];
  rest /= backends.size();
  task.params = grid[rest % grid.size()];
  rest /= grid.size();
  task.protocol = protocols[rest];
  task.seed = parallel::derive_task_seed(master_seed, index);
  return task;
}

std::string canonical_task_encoding(const CampaignSpec& spec,
                                    const TaskSpec& task) {
  std::string out = "ba-campaign-task-v1|master=";
  append_u64(out, spec.master_seed);
  out += "|protocol=" + task.protocol + "|n=";
  append_u64(out, task.params.n);
  out += "|t=";
  append_u64(out, task.params.t);
  out += "|backend=" + task.backend + "|fault=" + task.fault + "|seed_index=";
  append_u64(out, task.seed_index);
  out += "|seed=";
  append_u64(out, task.seed);
  return out;
}

std::uint64_t task_spec_hash(const CampaignSpec& spec, const TaskSpec& task) {
  return hash_bytes(kSpecHashKey, canonical_task_encoding(spec, task));
}

std::string encode_row(const CampaignRow& row) {
  std::string out = "{\"spec\":\"" + hex16(row.spec_hash) +
                    "\",\"protocol\":\"";
  json_escape_to(out, row.protocol);
  out += "\",\"n\":";
  append_u64(out, row.params.n);
  out += ",\"t\":";
  append_u64(out, row.params.t);
  out += ",\"backend\":\"";
  json_escape_to(out, row.backend);
  out += "\",\"fault\":\"";
  json_escape_to(out, row.fault);
  out += "\",\"seed_index\":";
  append_u64(out, row.seed_index);
  out += ",\"seed\":";
  append_u64(out, row.seed);
  out += ",\"rounds\":";
  append_u64(out, row.rounds);
  out += ",\"messages\":";
  append_u64(out, row.messages);
  out += ",\"static_bound\":";
  if (row.static_bound) {
    append_u64(out, *row.static_bound);
  } else {
    out += "null";
  }
  // Fault-axis campaigns carry the per-f columns; legacy rows omit them and
  // keep their pre-fault-axis bytes (resumable caches stay valid).
  if (row.f) {
    out += ",\"f\":";
    append_u64(out, *row.f);
    out += ",\"static_bound_f\":";
    if (row.static_bound_f) {
      append_u64(out, *row.static_bound_f);
    } else {
      out += "null";
    }
  }
  out += ",\"decided\":";
  append_u64(out, row.decided);
  out += row.agree ? ",\"agree\":true" : ",\"agree\":false";
  // The row hash covers every byte emitted so far — any field mutation in a
  // cached line flips it.
  out += ",\"row_hash\":\"" + hex16(hash_bytes(kRowHashKey, out)) + "\"}";
  return out;
}

std::optional<CampaignRow> decode_row(std::string_view line) {
  static constexpr std::string_view kHashField = ",\"row_hash\":\"";
  const auto hash_pos = line.rfind(kHashField);
  if (hash_pos == std::string_view::npos) return std::nullopt;
  const std::string_view prefix = line.substr(0, hash_pos);
  const std::string_view tail = line.substr(hash_pos + kHashField.size());
  if (tail.size() != 18 || tail.substr(16) != "\"}") return std::nullopt;
  if (hex16(hash_bytes(kRowHashKey, prefix)) != tail.substr(0, 16)) {
    return std::nullopt;
  }
  CampaignRow row;
  try {
    const Json doc = Json::parse(line);
    const Json* spec = doc.find("spec");
    if (!spec) return std::nullopt;
    const auto spec_hash = [&]() -> std::optional<std::uint64_t> {
      const std::string& hex = spec->as_string();
      if (hex.size() != 16) return std::nullopt;
      std::uint64_t v = 0;
      const auto [ptr, ec] =
          std::from_chars(hex.data(), hex.data() + 16, v, 16);
      if (ec != std::errc{} || ptr != hex.data() + 16) return std::nullopt;
      return v;
    }();
    if (!spec_hash) return std::nullopt;
    row.spec_hash = *spec_hash;
    const Json* field = nullptr;
    if (!(field = doc.find("protocol"))) return std::nullopt;
    row.protocol = field->as_string();
    if (!(field = doc.find("n"))) return std::nullopt;
    row.params.n = static_cast<std::uint32_t>(field->as_int());
    if (!(field = doc.find("t"))) return std::nullopt;
    row.params.t = static_cast<std::uint32_t>(field->as_int());
    if (!(field = doc.find("backend"))) return std::nullopt;
    row.backend = field->as_string();
    if (!(field = doc.find("fault"))) return std::nullopt;
    row.fault = field->as_string();
    if (!(field = doc.find("seed_index"))) return std::nullopt;
    row.seed_index = field->as_uint();
    if (!(field = doc.find("seed"))) return std::nullopt;
    row.seed = field->as_uint();
    if (!(field = doc.find("rounds"))) return std::nullopt;
    row.rounds = static_cast<Round>(field->as_uint());
    if (!(field = doc.find("messages"))) return std::nullopt;
    row.messages = field->as_uint();
    if (!(field = doc.find("static_bound"))) return std::nullopt;
    if (!field->is_null()) {
      row.static_bound = field->as_uint();
    }
    if ((field = doc.find("f"))) {
      row.f = static_cast<std::uint32_t>(field->as_int());
      const Json* bound_f = doc.find("static_bound_f");
      if (!bound_f) return std::nullopt;
      if (!bound_f->is_null()) {
        row.static_bound_f = bound_f->as_uint();
      }
    }
    if (!(field = doc.find("decided"))) return std::nullopt;
    row.decided = static_cast<std::uint32_t>(field->as_int());
    if (!(field = doc.find("agree"))) return std::nullopt;
    row.agree = field->as_bool();
  } catch (const std::exception&) {
    return std::nullopt;
  }
  // Canonical-form check: a line that decodes but would not re-encode to
  // the same bytes (reordered fields, whitespace, extra fields) is rejected
  // — the merge step may only ever emit canonical bytes.
  if (encode_row(row) != line) return std::nullopt;
  return row;
}

std::vector<Value> derive_proposals(std::uint64_t seed, std::uint32_t n) {
  const crypto::SipKey key = crypto::derive_key(seed, kProposalContext);
  const crypto::SipHasher base(key);
  std::vector<Value> proposals;
  proposals.reserve(n);
  for (std::uint32_t p = 0; p < n; ++p) {
    crypto::SipHasher h = base;
    h.absorb_u32(p);
    proposals.push_back(Value::bit(static_cast<int>(h.digest() & 1)));
  }
  return proposals;
}

TaskRunner::TaskRunner(const CampaignSpec& spec) : spec_(spec) {
  for (const std::string& backend : spec.backends) {
    if (backends_.contains(backend)) continue;
    const auto parsed = engine::parse_backend_spec(backend);
    if (!parsed) {
      spec_error("backend '" + backend + "': malformed spec");
    }
    backends_.emplace(backend, engine::make_backend(*parsed));
  }
}

CampaignRow TaskRunner::run(const TaskSpec& task) const {
  const auto backend = backends_.find(task.backend);
  if (backend == backends_.end()) {
    spec_error("task backend '" + task.backend + "' not in campaign spec");
  }
  const protocols::ProtocolDescriptor* protocol =
      protocols::find_protocol(task.protocol);
  if (protocol == nullptr || protocol->make == nullptr) {
    spec_error("unknown protocol '" + task.protocol + "'");
  }

  const std::vector<Value> proposals =
      derive_proposals(task.seed, task.params.n);
  const faults::FaultSpec fault_spec =
      faults::checked_fault_spec(task.fault, task.params);
  const Adversary adversary =
      faults::compile_adversary(fault_spec, task.params, task.seed);

  RunOptions options;
  options.record_trace = false;  // streaming campaigns never keep traces

  const RunResult res =
      backend->second->run(task.params, protocol->make(task.params.n),
                           proposals, adversary, options);

  CampaignRow row;
  row.spec_hash = task_spec_hash(spec_, task);
  row.protocol = task.protocol;
  row.params = task.params;
  row.backend = task.backend;
  row.fault = task.fault;
  row.seed_index = task.seed_index;
  row.seed = task.seed;
  row.rounds = res.rounds_executed;
  row.messages = res.messages_sent_by_correct;

  // Cached per (protocol, n, t, f): the worst-case bound (f = t) plus, for
  // fault-axis campaigns, the bound at the plan's declared fault count.
  const auto bound_at = [&](std::uint32_t f) {
    std::string bound_key = task.protocol + "|";
    append_u64(bound_key, task.params.n);
    bound_key += "|";
    append_u64(bound_key, task.params.t);
    bound_key += "|";
    append_u64(bound_key, f);
    const auto cached = bound_cache_.find(bound_key);
    if (cached != bound_cache_.end()) return cached->second;
    const std::uint64_t bound =
        statics::budget_at(statics::analyze(protocol->spec), task.params, f)
            .messages;
    bound_cache_.emplace(std::move(bound_key), bound);
    return bound;
  };
  row.static_bound = bound_at(task.params.t);
  if (spec_.has_fault_axis()) {
    row.f = fault_spec.declared_faults(task.params);
    row.static_bound_f = bound_at(*row.f);
  }

  std::optional<Value> decision;
  bool agree = true;
  std::uint32_t correct = 0;
  for (ProcessId p = 0; p < task.params.n; ++p) {
    if (adversary.is_faulty(p)) continue;
    ++correct;
    if (!res.decisions[p]) {
      agree = false;
      continue;
    }
    ++row.decided;
    if (!decision) {
      decision = *res.decisions[p];
    } else if (!(*decision == *res.decisions[p])) {
      agree = false;
    }
  }
  row.agree = agree && row.decided == correct && correct > 0;
  return row;
}

}  // namespace ba::service
