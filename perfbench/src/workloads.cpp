#include "workloads.h"

#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <stdexcept>

#include "analysis/lint.h"
#include "checks.h"
#include "engine/registry.h"
#include "lowerbound/attack.h"
#include "lowerbound/certificate.h"
#include "lowerbound/certificate_io.h"
#include "lowerbound/sweep.h"
#include "parallel/seed.h"
#include "runtime/sync_system.h"
#include "runtime/trace_io.h"
#include "service/campaign.h"
#include "service/ndjson.h"
#include "service/runner.h"
#include "service/worker.h"

namespace perfbench {

namespace fs = std::filesystem;

namespace {

/// Adds the median over ops of `series` as `name`.
void put_median(Metrics& out, const std::string& name,
                const std::vector<double>& series, const char* unit) {
  out[name] = Metric{median(series), unit};
}

/// Adds a count that must be identical in every op, as `name`.
void put_count(Metrics& out, const std::string& name,
               const std::vector<double>& series) {
  if (series.empty()) throw std::runtime_error("no samples for " + name);
  for (const double v : series) {
    if (v != series.front()) {
      throw std::runtime_error("count " + name + " differs between ops");
    }
  }
  out[name] = Metric{series.front(), "count"};
}

/// Adds `series` to `acc` op by op; an empty series adds nothing.
void add_series(std::vector<double>& acc, const std::vector<double>& series) {
  if (series.empty()) return;
  if (acc.empty()) acc.assign(series.size(), 0.0);
  if (acc.size() != series.size()) {
    throw std::runtime_error("per-op series of different lengths");
  }
  for (std::size_t op = 0; op < series.size(); ++op) acc[op] += series[op];
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// ---------------------------------------------------------------------------
// exec: one op is one fault-free lockstep execution, traces off, of each of
// three cells. Each is the largest n at which its family runs in about
// 20 ms, and a different layer dominates each: MAC verification and chain
// hashing (ds128), round-loop routing (pk64), value interning and report
// parsing (eig32).

class ExecWorkload final : public Workload {
 public:
  explicit ExecWorkload(std::uint64_t seed)
      : backend_(ba::engine::make_backend("lockstep")) {
    cells_.push_back(make_ds_cell("ds128", 128, 32,
                                  ba::parallel::derive_task_seed(seed, 0)));
    cells_.push_back(make_pk_cell("pk64", 64, 21,
                                  ba::parallel::derive_task_seed(seed, 1)));
    cells_.push_back(make_eig_cell("eig32", 32, 2,
                                   ba::parallel::derive_task_seed(seed, 2)));
    runs_.resize(cells_.size());
  }

  void run_op(std::uint64_t op, SpanLog* spans) override {
    SpanScope root(spans, root_span(), "", op);
    ba::RunOptions options;
    options.record_trace = false;
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      const Cell& cell = cells_[i];
      if (spans == nullptr) {
        runs_[i] = backend_->run(cell.params, cell.factory, cell.proposals,
                                 cell.adversary, options);
        continue;
      }
      CallMeter meter;
      const ba::ProtocolFactory metered = metered_factory(cell.factory, meter);
      SpanScope run(spans, "engine.run", cell.label, op);
      runs_[i] = backend_->run(cell.params, metered, cell.proposals,
                               cell.adversary, options);
      meter.fold_into(*spans, "protocols.step", cell.label, op);
    }
  }

  OpOutcome check_op(std::uint64_t op, SpanLog* spans) override {
    OpOutcome out;
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      const ba::RunResult& run = runs_[i];
      ++out.items;
      if (!check_fault_free_run(cells_[i], run)) ++out.failed;
      out.messages += run.messages_sent_by_correct;
      out.fingerprint += run_fingerprint(run) + ";";
      if (spans != nullptr) {
        spans->count("runtime.msgs", cells_[i].label, op,
                     static_cast<double>(run.messages_sent_by_correct));
        spans->count("runtime.rounds", cells_[i].label, op,
                     static_cast<double>(run.rounds_executed));
      }
    }
    return out;
  }

  [[nodiscard]] const char* root_span() const override { return "exec.op"; }

  void layer_metrics(const SpanLog& spans, Metrics& out) const override {
    for (const Cell& cell : cells_) {
      const std::string& c = cell.label;
      const SpanSeries run = span_series(spans, "engine.run", c);
      const SpanSeries step = span_series(spans, "protocols.step", c);
      put_median(out, "engine.run_ms." + c, run.total_ms, "ms");
      put_median(out, "protocols.step_ms." + c, step.total_ms, "ms");
      put_median(out, "runtime.route_ms." + c, run.self_ms, "ms");
      put_count(out, "runtime.msgs." + c, count_series(spans, "runtime.msgs", c));
      put_count(out, "runtime.rounds." + c,
                count_series(spans, "runtime.rounds", c));
      put_count(out, "protocols.step_calls." + c, step.calls);
    }
  }

 private:
  ba::engine::BackendHandle backend_;
  std::vector<Cell> cells_;
  std::vector<ba::RunResult> runs_;
};

// ---------------------------------------------------------------------------
// audit: the round loop of exec the other way round (traces on, faults on),
// plus the verification layers exec never touches: lint with determinism
// replay, the trace codec, the Theorem 2 attack and certificate replay.

struct AuditedRun {
  ba::RunResult run;
  ba::analysis::LintReport lint;
  ba::Bytes encoded;
  ba::Bytes reencoded;
};

struct AttackRun {
  ba::lowerbound::AttackReport report;
  bool verified{false};
};

class AuditWorkload final : public Workload {
 public:
  explicit AuditWorkload(std::uint64_t seed)
      : backend_(ba::engine::make_backend("lockstep")),
        entries_(ba::lowerbound::standard_sweep_entries()) {
    cells_.push_back(make_ds_cell("ds32", 32, 8,
                                  ba::parallel::derive_task_seed(seed, 10)));
    cells_.push_back(make_pk_cell("pk16", 16, 5,
                                  ba::parallel::derive_task_seed(seed, 11)));
    cells_.push_back(make_eig_cell("eig10", 10, 2,
                                   ba::parallel::derive_task_seed(seed, 12)));
    // The crash round is pinned so that every seed gives an op of one
    // shape; a seed-derived round moves the eig10 trace between 524 and
    // 680 KB.
    const char* faults[] = {"isolate:2", "isolate:2", "crash:1@2"};
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      apply_fault(cells_[i], faults[i],
                  ba::parallel::derive_task_seed(seed, 20 + i));
      ba::analysis::LintOptions lint;
      lint.message_budget =
          ba::statics::budget_at(cells_[i].bounds, cells_[i].params).messages;
      lint_options_.push_back(lint);
    }
    for (const auto& entry : entries_) {
      attack_factories_.push_back(entry.make(kAttackParams));
    }
    audited_.resize(cells_.size());
    attacks_.resize(entries_.size());
  }

  void run_op(std::uint64_t op, SpanLog* spans) override {
    SpanScope root(spans, root_span(), "", op);
    ba::RunOptions options;
    options.record_trace = true;
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      const Cell& cell = cells_[i];
      AuditedRun& a = audited_[i];
      {
        CallMeter meter;
        SpanScope s(spans, "engine.run_traced", cell.label, op);
        a.run = backend_->run(
            cell.params,
            spans != nullptr ? metered_factory(cell.factory, meter)
                             : cell.factory,
            cell.proposals, cell.adversary, options);
        if (spans != nullptr) {
          meter.fold_into(*spans, "protocols.step", cell.label, op);
        }
      }
      {
        CallMeter meter;
        SpanScope s(spans, "analysis.lint", cell.label, op);
        a.lint = ba::analysis::lint_execution(
            a.run.trace,
            spans != nullptr ? metered_factory(cell.factory, meter)
                             : cell.factory,
            lint_options_[i]);
        if (spans != nullptr) {
          meter.fold_into(*spans, "analysis.replay_step", cell.label, op);
        }
      }
      {
        SpanScope s(spans, "runtime.trace_encode", cell.label, op);
        a.encoded = ba::encode_trace(a.run.trace);
      }
      std::optional<ba::ExecutionTrace> decoded;
      {
        SpanScope s(spans, "runtime.trace_decode", cell.label, op);
        decoded = ba::decode_trace(a.encoded);
      }
      {
        SpanScope s(spans, "runtime.trace_reencode", cell.label, op);
        a.reencoded = decoded ? ba::encode_trace(*decoded) : ba::Bytes{};
      }
    }
    for (std::size_t e = 0; e < entries_.size(); ++e) {
      const std::string& name = entries_[e].protocol_name;
      AttackRun& a = attacks_[e];
      {
        SpanScope s(spans, "lowerbound.attack", name, op);
        a.report = ba::lowerbound::attack_weak_consensus(kAttackParams,
                                                         attack_factories_[e]);
      }
      a.verified = false;
      if (a.report.certificate) {
        SpanScope s(spans, "lowerbound.cert_verify", name, op);
        a.verified = ba::lowerbound::verify_certificate(*a.report.certificate,
                                                        attack_factories_[e])
                         .ok;
      }
    }
  }

  OpOutcome check_op(std::uint64_t op, SpanLog* spans) override {
    OpOutcome out;
    bool attacks_ok = true;
    double cert_bytes = 0;
    for (std::size_t e = 0; e < entries_.size(); ++e) {
      const AttackRun& a = attacks_[e];
      const bool expect_violation =
          entries_[e].protocol_name != "dolev-strong-weak";
      attacks_ok = attacks_ok &&
                   check_attack(expect_violation, a.report, a.verified);
      if (a.report.certificate) {
        cert_bytes += static_cast<double>(
            ba::lowerbound::encode_certificate(*a.report.certificate).size());
      }
      out.fingerprint += entries_[e].protocol_name + ":" +
                         std::to_string(a.report.violation_found) + ":" +
                         std::to_string(a.report.max_message_complexity) + ";";
    }
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      const AuditedRun& a = audited_[i];
      ++out.items;
      const bool ok = attacks_ok && check_lint(a.lint) &&
                      check_trace_roundtrip(a.encoded, a.reencoded);
      if (!ok) ++out.failed;
      out.messages += a.run.messages_sent_by_correct;
      out.fingerprint += run_fingerprint(a.run) + ";";
      if (spans != nullptr) {
        const std::string& c = cells_[i].label;
        spans->count("runtime.trace_bytes", c, op,
                     static_cast<double>(a.encoded.size()));
      }
    }
    if (spans != nullptr) spans->count("lowerbound.cert_bytes", "", op, cert_bytes);
    return out;
  }

  [[nodiscard]] const char* root_span() const override { return "audit.op"; }

  void layer_metrics(const SpanLog& spans, Metrics& out) const override {
    for (const Cell& cell : cells_) {
      const std::string& c = cell.label;
      const SpanSeries run = span_series(spans, "engine.run_traced", c);
      const SpanSeries lint = span_series(spans, "analysis.lint", c);
      const SpanSeries replay = span_series(spans, "analysis.replay_step", c);
      put_median(out, "engine.run_traced_ms." + c, run.total_ms, "ms");
      put_median(out, "runtime.route_traced_ms." + c, run.self_ms, "ms");
      put_median(out, "analysis.lint_ms." + c, lint.self_ms, "ms");
      put_median(out, "analysis.replay_step_ms." + c, replay.total_ms, "ms");
      put_median(out, "runtime.trace_encode_ms." + c,
                 span_series(spans, "runtime.trace_encode", c).total_ms, "ms");
      put_median(out, "runtime.trace_decode_ms." + c,
                 span_series(spans, "runtime.trace_decode", c).total_ms, "ms");
      put_count(out, "runtime.trace_bytes." + c,
                count_series(spans, "runtime.trace_bytes", c));
    }
    std::vector<double> attack_ms;
    std::vector<double> verify_ms;
    for (const auto& entry : entries_) {
      add_series(attack_ms,
                 span_series(spans, "lowerbound.attack", entry.protocol_name)
                     .total_ms);
      add_series(verify_ms, span_series(spans, "lowerbound.cert_verify",
                                        entry.protocol_name)
                                .total_ms);
    }
    put_median(out, "lowerbound.attack_ms", attack_ms, "ms");
    put_median(out, "lowerbound.cert_verify_ms", verify_ms, "ms");
    put_count(out, "lowerbound.cert_bytes",
              count_series(spans, "lowerbound.cert_bytes", ""));
  }

 private:
  static constexpr ba::SystemParams kAttackParams{32, 31};

  ba::engine::BackendHandle backend_;
  std::vector<Cell> cells_;
  std::vector<ba::analysis::LintOptions> lint_options_;
  std::vector<ba::lowerbound::SweepEntry> entries_;
  std::vector<ba::ProtocolFactory> attack_factories_;
  std::vector<AuditedRun> audited_;
  std::vector<AttackRun> attacks_;
};

// ---------------------------------------------------------------------------
// campaign: many tiny tasks, so the service's own overhead (fork/exec of
// the workers, lease and heartbeat files, the coordinator's poll loop, the
// merge's decode_row per row) is the main cost. Half the tasks run on the
// sim backend. The service runs with its default options except the poll
// interval: at the default 25 ms an op takes a whole number of polls, two
// on a quiet host and three whenever busy neighbours slow the workers past
// the first, and that count flipped from run to run. At kCampaignPollMs the
// op's latency is the service's own work plus under a millisecond of
// waiting, and the poll loop's cost still shows as coordinator CPU.

// One seed index: 36 rows, and an op of about 10 ms, so a run has the 100
// ops op_p90_ms needs many times over.
constexpr std::uint64_t kCampaignSeeds = 1;
constexpr std::uint32_t kCampaignWorkers = 2;
constexpr std::uint32_t kCampaignPollMs = 1;

class CampaignWorkload final : public Workload {
 public:
  CampaignWorkload(std::uint64_t seed, std::string scratch)
      : scratch_(std::move(scratch)) {
    spec_.name = "perfbench";
    spec_.master_seed = seed;
    spec_.protocols = {"phase-king", "floodset", "ds-weak"};
    spec_.grid = {{4, 1}, {7, 2}};
    spec_.backends = {"lockstep", "sim:jitter,7"};
    spec_.faults = {"fault-free", "crash:1", "silent-byz:1"};
    spec_.seeds = kCampaignSeeds;
    spec_.validate();
    fs::create_directories(scratch_);
    const std::string reference = scratch_ + "/reference.ndjson";
    ba::service::run_campaign_serial(spec_, reference);
    reference_ = read_file(reference);
    for (const std::string& line : ba::service::read_ndjson_lines(reference)) {
      reference_messages_ += ba::service::decode_row(line).value().messages;
    }
  }

  ~CampaignWorkload() override {
    std::error_code ec;
    fs::remove_all(scratch_, ec);
  }
  CampaignWorkload(const CampaignWorkload&) = delete;
  CampaignWorkload& operator=(const CampaignWorkload&) = delete;

  void run_op(std::uint64_t op, SpanLog* spans) override {
    state_dir_ = scratch_ + "/op-" + std::to_string(op) +
                 (spans != nullptr ? "-traced" : "");
    ba::service::ServeOptions options;
    options.state_dir = state_dir_;
    options.workers = kCampaignWorkers;
    options.poll_ms = kCampaignPollMs;
    options.quiet = true;
    if (spans == nullptr) {
      ba::service::serve_campaign(spec_, options);
      return;
    }
    const double coord0 = self_cpu_ms();
    const double workers0 = children_cpu_ms();
    {
      SpanScope s(spans, root_span(), "", op);
      ba::service::serve_campaign(spec_, options);
    }
    spans->count("service.coord_cpu_ms", "", op, self_cpu_ms() - coord0);
    spans->count("service.worker_cpu_ms", "", op, children_cpu_ms() - workers0);
    replay_in_process(op, *spans);
  }

  OpOutcome check_op(std::uint64_t op, SpanLog* spans) override {
    const std::string results =
        read_file(ba::service::results_path(state_dir_));
    OpOutcome out;
    out.items = spec_.task_count();
    out.failed = failed_campaign_rows(results, reference_);
    out.messages = reference_messages_;
    out.fingerprint = results;
    if (spans != nullptr) {
      // The in-process replay must reproduce the served rows exactly.
      if (failed_campaign_rows(read_file(replay_path()), reference_) != 0) {
        out.failed = out.items;
      }
      spans->count("service.rows", "", op, static_cast<double>(out.items));
      spans->count("service.result_bytes", "", op,
                   static_cast<double>(results.size()));
    }
    std::error_code ec;
    fs::remove_all(state_dir_, ec);
    return out;
  }

  [[nodiscard]] const char* root_span() const override {
    return "service.serve";
  }

  void layer_metrics(const SpanLog& spans, Metrics& out) const override {
    const SpanSeries serve = span_series(spans, "service.serve", "");
    const std::vector<double> coord =
        count_series(spans, "service.coord_cpu_ms", "");
    const std::vector<double> workers =
        count_series(spans, "service.worker_cpu_ms", "");
    const SpanSeries task_at = span_series(spans, "service.task_at", "");
    const SpanSeries lockstep = span_series(spans, "service.task", "lockstep");
    const SpanSeries sim = span_series(spans, "service.task", "sim");
    const SpanSeries encode = span_series(spans, "service.encode_row", "");
    const SpanSeries write = span_series(spans, "service.write_line", "");
    const SpanSeries decode = span_series(spans, "service.decode_row", "");

    std::vector<double> wait_ms;
    std::vector<double> fork_ipc_ms;
    for (std::size_t op = 0; op < serve.total_ms.size(); ++op) {
      wait_ms.push_back(serve.total_ms[op] - coord.at(op));
      const double row_work_ms = task_at.total_ms.at(op) +
                                 lockstep.total_ms.at(op) +
                                 sim.total_ms.at(op) + encode.total_ms.at(op) +
                                 write.total_ms.at(op);
      fork_ipc_ms.push_back(serve.total_ms[op] - row_work_ms / kCampaignWorkers);
    }
    const auto per_call_us = [](const SpanSeries& s) {
      std::vector<double> us;
      for (std::size_t op = 0; op < s.total_ms.size(); ++op) {
        us.push_back(s.total_ms[op] * 1e3 / s.calls[op]);
      }
      return us;
    };
    put_median(out, "service.serve_ms", serve.total_ms, "ms");
    put_median(out, "service.wait_ms", wait_ms, "ms");
    put_median(out, "service.fork_ipc_ms", fork_ipc_ms, "ms");
    put_median(out, "service.coord_cpu_ms", coord, "ms");
    put_median(out, "service.worker_cpu_ms", workers, "ms");
    put_median(out, "service.task_us.lockstep", per_call_us(lockstep), "us");
    put_median(out, "service.task_us.sim", per_call_us(sim), "us");
    put_median(out, "service.task_at_us", per_call_us(task_at), "us");
    put_median(out, "service.encode_row_us", per_call_us(encode), "us");
    put_median(out, "service.write_line_us", per_call_us(write), "us");
    put_median(out, "service.decode_row_us", per_call_us(decode), "us");
    put_count(out, "service.rows", count_series(spans, "service.rows", ""));
    put_count(out, "service.result_bytes",
              count_series(spans, "service.result_bytes", ""));
  }

 private:
  [[nodiscard]] std::string replay_path() const {
    return scratch_ + "/replay.ndjson";
  }

  // Runs the op's tasks once more in this process, timing each per-row
  // step, so the per-row work can be split from the sharded path's
  // overhead. Then authenticates every served row, as the merge does.
  void replay_in_process(std::uint64_t op, SpanLog& spans) {
    SpanScope s(&spans, "service.replay", "", op);
    CallMeter task_at, lockstep, sim, encode, write, decode;
    {
      const ba::service::TaskRunner runner(spec_);
      ba::service::NdjsonFileWriter out(replay_path());
      for (std::uint64_t i = 0; i < spec_.task_count(); ++i) {
        std::int64_t start = now_ns();
        const ba::service::TaskSpec task = spec_.task_at(i);
        task_at.add(start);
        start = now_ns();
        const ba::service::CampaignRow row = runner.run(task);
        (task.backend.starts_with("sim") ? sim : lockstep).add(start);
        start = now_ns();
        const std::string line = ba::service::encode_row(row);
        encode.add(start);
        start = now_ns();
        out.write_line(line);
        write.add(start);
      }
    }
    for (const std::string& line : ba::service::read_ndjson_lines(
             ba::service::results_path(state_dir_))) {
      const std::int64_t start = now_ns();
      const bool ok = ba::service::decode_row(line).has_value();
      decode.add(start);
      if (!ok) throw std::runtime_error("decode_row rejected a served row");
    }
    task_at.fold_into(spans, "service.task_at", "", op);
    lockstep.fold_into(spans, "service.task", "lockstep", op);
    sim.fold_into(spans, "service.task", "sim", op);
    encode.fold_into(spans, "service.encode_row", "", op);
    write.fold_into(spans, "service.write_line", "", op);
    decode.fold_into(spans, "service.decode_row", "", op);
  }

  std::string scratch_;
  ba::service::CampaignSpec spec_;
  std::string reference_;
  /// Messages of every row of the reference; an op whose rows match the
  /// reference sent exactly these.
  std::uint64_t reference_messages_{0};
  std::string state_dir_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"exec", "audit", "campaign"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& scratch) {
  if (name == "exec") return std::make_unique<ExecWorkload>(seed);
  if (name == "audit") return std::make_unique<AuditWorkload>(seed);
  if (name == "campaign") {
    return std::make_unique<CampaignWorkload>(seed, scratch);
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
