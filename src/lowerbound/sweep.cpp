#include "lowerbound/sweep.h"

#include <chrono>
#include <mutex>
#include <ostream>
#include <stdexcept>

#include "faults/compile.h"
#include "lowerbound/certificate.h"
#include "lowerbound/certificate_io.h"
#include "parallel/experiment_pool.h"
#include "protocols/registry.h"
#include "statics/analyzer.h"

namespace ba::lowerbound {
namespace {

/// Charts the message-vs-fault curve of one grid point: the fault-axis
/// template at count f for f in 0..t, each compiled to an adversary and run
/// once on `backend` with alternating-bit proposals. Pure, like sweep_point.
std::vector<FaultCurvePoint> chart_fault_curve(
    const ProtocolFactory& protocol, const SystemParams& params,
    const std::optional<statics::StaticBounds>& bounds,
    const SweepOptions& options) {
  const engine::ExecutionBackend& backend = options.attack.backend
                                                ? *options.attack.backend
                                                : engine::default_backend();
  std::vector<Value> proposals;
  proposals.reserve(params.n);
  for (std::uint32_t p = 0; p < params.n; ++p) {
    proposals.push_back(Value::bit(static_cast<int>(p % 2)));
  }
  std::vector<FaultCurvePoint> curve;
  curve.reserve(params.t + 1);
  for (std::uint32_t f = 0; f <= params.t; ++f) {
    const faults::FaultSpec spec = options.fault_axis->with_count(f);
    const Adversary adversary =
        faults::compile_adversary(spec, params, options.fault_seed);
    const RunResult res = backend.run(params, protocol, proposals, adversary);
    FaultCurvePoint point;
    point.f = f;
    point.messages = res.messages_sent_by_correct;
    if (bounds) {
      point.static_bound_f = statics::budget_at(*bounds, params, f).messages;
    }
    point.agree = res.unanimous_correct_decision().has_value();
    curve.push_back(point);
  }
  return curve;
}

/// Evaluates one grid point. A pure function of (entry, params, options):
/// this is what makes the parallel fan-out trivially deterministic.
SweepRow sweep_point(const SweepEntry& entry, const SystemParams& params,
                     const SweepOptions& options) {
  ProtocolFactory protocol = entry.make(params);
  AttackReport report = attack_weak_consensus(params, protocol, options.attack);
  SweepRow row;
  row.protocol_name = entry.protocol_name;
  row.params = params;
  row.violation = report.violation_found;
  row.max_messages = report.max_message_complexity;
  row.bound = report.bound;
  std::optional<statics::StaticBounds> bounds;
  if (const protocols::ProtocolDescriptor* described =
          protocols::find_protocol(entry.protocol_name)) {
    bounds = statics::analyze(described->spec);
    row.static_bound = statics::budget_at(*bounds, params).messages;
  }
  row.critical_round = report.critical_round;
  if (report.certificate) {
    row.violation_kind = to_string(report.certificate->kind);
    row.certificate_verified =
        verify_certificate(*report.certificate, protocol).ok;
    row.certificate = encode_certificate(*report.certificate);
  }
  if (options.fault_axis) {
    row.fault_curve = chart_fault_curve(protocol, params, bounds, options);
  }
  return row;
}

void json_escape(std::ostream& os, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
}

/// Observed-over-static ratio; nullopt when there is no (or a zero) static
/// bound to compare against.
std::optional<double> obs_static_ratio(const SweepRow& row) {
  if (!row.static_bound || *row.static_bound == 0) return std::nullopt;
  return static_cast<double>(row.max_messages) /
         static_cast<double>(*row.static_bound);
}

}  // namespace

/// The per-row half of the Theorem 2 verdict, folded incrementally so
/// streaming sweeps (keep_rows off) still report consistency.
bool row_consistent(const SweepRow& row) {
  if (row.violation) return row.certificate_verified;
  return row.max_messages >= row.bound;
}

bool SweepResult::theorem2_consistent() const {
  if (rows.empty()) return streamed_consistent;
  for (const SweepRow& row : rows) {
    if (!row_consistent(row)) return false;
  }
  return true;
}

SweepResult run_attack_sweep(const std::vector<SweepEntry>& entries,
                             const std::vector<SystemParams>& grid,
                             const SweepOptions& options) {
  SweepResult result;
  if (options.fault_axis) {
    if (!faults::kind_sweepable(options.fault_axis->kind)) {
      throw std::runtime_error(
          std::string{"sweep fault axis '"} +
          faults::fault_kind_name(options.fault_axis->kind) +
          "': want a sweepable fault kind (crash mute isolate silent-byz "
          "noise-byz)");
    }
    result.fault_axis = options.fault_axis->with_count(0).format();
  }
  const std::size_t points = entries.size() * grid.size();
  result.points = points;
  const auto start = std::chrono::steady_clock::now();
  if (options.jobs == 1) {
    // Serial reference path: the parallel path must match it bit-for-bit.
    if (options.keep_rows) result.rows.reserve(points);
    std::size_t index = 0;
    for (const SweepEntry& entry : entries) {
      for (const SystemParams& params : grid) {
        SweepRow row = sweep_point(entry, params, options);
        result.streamed_consistent =
            result.streamed_consistent && row_consistent(row);
        if (options.on_row) options.on_row(index, row);
        if (options.keep_rows) result.rows.push_back(std::move(row));
        ++index;
      }
    }
    result.jobs_used = 1;
  } else {
    parallel::ExperimentPool pool(options.jobs);
    // Serializes on_row and the consistency fold; sweep_point itself runs
    // unlocked on the workers.
    std::mutex row_mu;
    if (options.keep_rows) result.rows.resize(points);
    for (std::size_t index = 0; index < points; ++index) {
      pool.submit([&, index] {
        const SweepEntry& entry = entries[index / grid.size()];
        const SystemParams& params = grid[index % grid.size()];
        SweepRow row = sweep_point(entry, params, options);
        const std::lock_guard<std::mutex> lock(row_mu);
        result.streamed_consistent =
            result.streamed_consistent && row_consistent(row);
        if (options.on_row) options.on_row(index, row);
        if (options.keep_rows) result.rows[index] = std::move(row);
      });
    }
    pool.collect();
    result.jobs_used = pool.jobs();
  }
  result.wall_micros = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  return result;
}

SweepResult run_attack_sweep(const std::vector<SweepEntry>& entries,
                             const std::vector<SystemParams>& grid,
                             const AttackOptions& options) {
  SweepOptions sweep_options;
  sweep_options.attack = options;
  return run_attack_sweep(entries, grid, sweep_options);
}

void write_markdown(std::ostream& os, const SweepResult& result) {
  os << "| protocol | n | t | messages | t^2/32 | static bound | obs/static "
        "| outcome |\n"
     << "|---|---|---|---|---|---|---|---|\n";
  for (const SweepRow& row : result.rows) {
    os << "| " << row.protocol_name << " | " << row.params.n << " | "
       << row.params.t << " | " << row.max_messages << " | " << row.bound
       << " | ";
    if (row.static_bound) {
      os << *row.static_bound;
    } else {
      os << "-";
    }
    os << " | ";
    if (const std::optional<double> ratio = obs_static_ratio(row)) {
      os << *ratio;
    } else {
      os << "-";
    }
    os << " | ";
    if (row.violation) {
      os << row.violation_kind << " violation ("
         << (row.certificate_verified ? "verified" : "UNVERIFIED") << ")";
    } else {
      os << "survives";
    }
    os << " |\n";
  }
  if (result.fault_axis.empty()) return;
  os << "\nMessage-vs-fault curves (fault axis `" << result.fault_axis
     << "`):\n\n"
     << "| protocol | n | t | f | messages | static bound(f) | agree |\n"
     << "|---|---|---|---|---|---|---|\n";
  for (const SweepRow& row : result.rows) {
    for (const FaultCurvePoint& point : row.fault_curve) {
      os << "| " << row.protocol_name << " | " << row.params.n << " | "
         << row.params.t << " | " << point.f << " | " << point.messages
         << " | ";
      if (point.static_bound_f) {
        os << *point.static_bound_f;
      } else {
        os << "-";
      }
      os << " | " << (point.agree ? "yes" : "no") << " |\n";
    }
  }
}

void write_bench_json(std::ostream& os, const SweepResult& result) {
  const double wall_seconds =
      static_cast<double>(result.wall_micros) / 1e6;
  const double points_per_sec =
      result.wall_micros == 0
          ? 0.0
          : static_cast<double>(result.points) / wall_seconds;
  os << "{\n"
     << "  \"experiment\": \"theorem2_attack_sweep\",\n"
     << "  \"fault_axis\": ";
  if (result.fault_axis.empty()) {
    os << "null";
  } else {
    os << "\"";
    json_escape(os, result.fault_axis);
    os << "\"";
  }
  os << ",\n"
     << "  \"jobs\": " << result.jobs_used << ",\n"
     << "  \"points\": " << result.points << ",\n"
     << "  \"wall_seconds\": " << wall_seconds << ",\n"
     << "  \"points_per_sec\": " << points_per_sec << ",\n"
     << "  \"theorem2_consistent\": "
     << (result.theorem2_consistent() ? "true" : "false") << ",\n"
     << "  \"rows\": [\n";
  for (std::size_t i = 0; i < result.rows.size(); ++i) {
    const SweepRow& row = result.rows[i];
    os << "    {\"protocol\": \"";
    json_escape(os, row.protocol_name);
    os << "\", \"n\": " << row.params.n << ", \"t\": " << row.params.t
       << ", \"messages\": " << row.max_messages
       << ", \"bound\": " << row.bound << ", \"static_bound\": ";
    if (row.static_bound) {
      os << *row.static_bound;
    } else {
      os << "null";
    }
    os << ", \"obs_static_ratio\": ";
    if (const std::optional<double> ratio = obs_static_ratio(row)) {
      os << *ratio;
    } else {
      os << "null";
    }
    os << ", \"violation\": "
       << (row.violation ? "true" : "false") << ", \"kind\": \"";
    json_escape(os, row.violation_kind);
    os << "\", \"certificate_verified\": "
       << (row.certificate_verified ? "true" : "false")
       << ", \"certificate_bytes\": " << row.certificate.size() << "}"
       << (i + 1 < result.rows.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

std::string encode_sweep_row_ndjson(const SweepRow& row) {
  const auto append_escaped = [](std::string& out, const std::string& s) {
    for (const char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
  };
  std::string out = "{\"protocol\":\"";
  append_escaped(out, row.protocol_name);
  out += "\",\"n\":" + std::to_string(row.params.n);
  out += ",\"t\":" + std::to_string(row.params.t);
  out += ",\"messages\":" + std::to_string(row.max_messages);
  out += ",\"bound\":" + std::to_string(row.bound);
  out += ",\"static_bound\":";
  out += row.static_bound ? std::to_string(*row.static_bound) : "null";
  out += ",\"violation\":";
  out += row.violation ? "true" : "false";
  out += ",\"kind\":\"";
  append_escaped(out, row.violation_kind);
  out += "\",\"certificate_verified\":";
  out += row.certificate_verified ? "true" : "false";
  out += ",\"certificate_bytes\":" + std::to_string(row.certificate.size());
  // Appended only when a fault axis was swept: legacy rows stay
  // byte-identical to the pre-fault-axis encoding.
  if (!row.fault_curve.empty()) {
    out += ",\"fault_curve\":[";
    for (std::size_t i = 0; i < row.fault_curve.size(); ++i) {
      const FaultCurvePoint& point = row.fault_curve[i];
      if (i != 0) out += ',';
      out += "{\"f\":" + std::to_string(point.f);
      out += ",\"messages\":" + std::to_string(point.messages);
      out += ",\"static_bound_f\":";
      out += point.static_bound_f ? std::to_string(*point.static_bound_f)
                                  : "null";
      out += ",\"agree\":";
      out += point.agree ? "true" : "false";
      out += '}';
    }
    out += ']';
  }
  out += "}";
  return out;
}

std::vector<SweepEntry> standard_sweep_entries() {
  std::vector<SweepEntry> entries;
  for (const char* name : {"silent-default", "leader-beacon", "gossip-ring-2",
                           "dolev-strong-weak"}) {
    const protocols::ProtocolDescriptor* row = protocols::find_protocol(name);
    entries.push_back({name, [row](const SystemParams& params) {
                         return row->make(params.n);
                       }});
  }
  return entries;
}

std::vector<SystemParams> standard_sweep_grid() {
  return {{12, 11}, {16, 15}};
}

}  // namespace ba::lowerbound
