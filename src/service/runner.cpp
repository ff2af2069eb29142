#include "service/runner.h"

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "service/json.h"
#include "service/ndjson.h"
#include "service/worker.h"

namespace ba::service {
namespace {

namespace fs = std::filesystem;

// Coordinator wall clock. Control-plane only: it drives heartbeat staleness
// and the summary's wall_micros, and never reaches a result row — rows are
// pure functions of (spec, task) by construction (campaign.h).
using Clock = std::chrono::steady_clock;

// How long a worker may go without heartbeat progress before it is declared
// dead and SIGKILLed. Control-plane only: affects who computes rows, never
// their bytes.
constexpr std::chrono::milliseconds kHeartbeatStale{30000};

[[noreturn]] void serve_error(const std::string& what) {
  throw std::runtime_error("serve: " + what);
}

std::string read_file_or_empty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// tmp + rename so a killed coordinator never leaves a torn file behind.
void write_file_atomic(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(content.data(), static_cast<std::streamsize>(content.size()));
    out.flush();
    if (!out) serve_error("cannot write " + tmp);
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) serve_error("cannot rename " + tmp + ": " + ec.message());
}

struct Fold {
  /// task index -> canonical row line, for every authenticated row found.
  std::map<std::uint64_t, std::string> rows;
  /// Lines that failed authentication or belong to no task of this
  /// campaign (corrupted cache, foreign rows) — recomputed, not trusted.
  std::uint64_t rejected{0};
};

/// Folds every completed row the state directory holds: the consolidated
/// cache plus any shard files a previous (killed) invocation left behind.
Fold fold_rows(const std::string& state_dir,
               const std::map<std::uint64_t, std::uint64_t>& hash_to_index) {
  Fold fold;
  std::vector<std::string> sources{cache_path(state_dir)};
  std::error_code ec;
  std::vector<std::string> shard_files;
  for (const auto& entry : fs::directory_iterator(shard_dir(state_dir), ec)) {
    if (entry.is_regular_file() && entry.path().extension() == ".ndjson") {
      shard_files.push_back(entry.path().string());
    }
  }
  std::sort(shard_files.begin(), shard_files.end());
  sources.insert(sources.end(), shard_files.begin(), shard_files.end());

  for (const std::string& source : sources) {
    for (const std::string& line : read_ndjson_lines(source)) {
      if (line.empty()) continue;
      const auto row = decode_row(line);
      if (!row) {
        ++fold.rejected;  // torn tail line, bit flip, or hand-edited row
        continue;
      }
      const auto it = hash_to_index.find(row->spec_hash);
      if (it == hash_to_index.end()) {
        ++fold.rejected;  // authenticated, but not a task of this campaign
        continue;
      }
      fold.rows.emplace(it->second, line);  // duplicates are identical bytes
    }
  }
  return fold;
}

struct WorkerProc {
  pid_t pid{-1};
  std::uint32_t shard{0};
  bool done{false};
  std::uint64_t last_heartbeat{0};
  Clock::time_point last_progress;
};

pid_t spawn_worker(const std::string& exe, const std::string& state_dir,
                   std::uint32_t shard, std::uint64_t die_after) {
  std::vector<std::string> args{exe, "serve-worker", "--state", state_dir,
                                "--shard", std::to_string(shard)};
  if (die_after != 0) {
    args.push_back("--die-after");
    args.push_back(std::to_string(die_after));
  }
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  const pid_t pid = fork();
  if (pid < 0) serve_error(std::string("fork: ") + std::strerror(errno));
  if (pid == 0) {
    execv(exe.c_str(), argv.data());
    std::fprintf(stderr, "serve-worker: execv %s: %s\n", exe.c_str(),
                 std::strerror(errno));
    _exit(127);
  }
  return pid;
}

std::uint64_t read_heartbeat(const std::string& path) {
  std::ifstream in(path);
  std::uint64_t rows = 0;
  in >> rows;
  return in ? rows : 0;
}

void note(const ServeOptions& options, const char* fmt, auto... args) {
  if (options.quiet) return;
  std::fprintf(stderr, fmt, args...);
}

}  // namespace

ServeSummary serve_campaign(const CampaignSpec& spec,
                            const ServeOptions& options) {
  const auto t0 = Clock::now();  // determinism: summary timing only, never row bytes
  spec.validate();
  if (options.state_dir.empty()) serve_error("empty state directory");

  std::error_code ec;
  fs::create_directories(shard_dir(options.state_dir), ec);
  if (ec) serve_error("cannot create state dir: " + ec.message());
  fs::create_directories(lease_dir(options.state_dir), ec);
  if (ec) serve_error("cannot create state dir: " + ec.message());

  // A state directory binds to exactly one campaign: resuming with a
  // different spec would silently mix two incompatible task orders.
  const std::string canonical = spec.to_json();
  const std::string spec_file = campaign_json_path(options.state_dir);
  const std::string existing = read_file_or_empty(spec_file);
  if (existing.empty()) {
    write_file_atomic(spec_file, canonical);
  } else if (existing != canonical) {
    serve_error("state dir " + options.state_dir +
                " holds a different campaign; refusing to mix results");
  }

  const std::uint64_t count = spec.task_count();
  std::map<std::uint64_t, std::uint64_t> hash_to_index;
  for (std::uint64_t i = 0; i < count; ++i) {
    if (!hash_to_index.emplace(task_spec_hash(spec, spec.task_at(i)), i)
             .second) {
      serve_error("spec-hash collision inside one campaign (change "
                  "master_seed)");
    }
  }

  ServeSummary summary;
  summary.tasks_total = count;
  summary.results_file = results_path(options.state_dir);

  const Fold before = fold_rows(options.state_dir, hash_to_index);
  summary.tasks_cached = before.rows.size();
  summary.rows_rejected = before.rejected;

  std::vector<std::uint64_t> pending;
  for (std::uint64_t i = 0; i < count; ++i) {
    if (!before.rows.contains(i)) pending.push_back(i);
  }
  summary.tasks_run = pending.size();

  if (!pending.empty()) {
    const std::uint32_t worker_count = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        std::max<std::uint32_t>(options.workers, 1), pending.size()));
    summary.workers_used = worker_count;
    note(options, "serve: %llu/%llu tasks pending across %u workers\n",
         static_cast<unsigned long long>(pending.size()),
         static_cast<unsigned long long>(count), worker_count);

    // Contiguous balanced chunks of the pending list, one lease per shard.
    std::vector<std::vector<std::uint64_t>> chunks(worker_count);
    const std::uint64_t base = pending.size() / worker_count;
    const std::uint64_t extra = pending.size() % worker_count;
    std::uint64_t cursor = 0;
    for (std::uint32_t s = 0; s < worker_count; ++s) {
      const std::uint64_t take = base + (s < extra ? 1 : 0);
      chunks[s].assign(pending.begin() + static_cast<std::ptrdiff_t>(cursor),
                       pending.begin() +
                           static_cast<std::ptrdiff_t>(cursor + take));
      cursor += take;
    }
    for (std::uint32_t s = 0; s < worker_count; ++s) {
      std::string lease;
      for (const std::uint64_t index : chunks[s]) {
        lease += std::to_string(index);
        lease += "\n";
      }
      write_file_atomic(lease_path(options.state_dir, s), lease);
    }

    const std::string exe =
        options.worker_exe.empty() ? "/proc/self/exe" : options.worker_exe;
    std::vector<WorkerProc> workers(worker_count);
    const auto spawn = [&](std::uint32_t s, std::uint64_t die_after) {
      workers[s].shard = s;
      workers[s].pid = spawn_worker(exe, options.state_dir, s, die_after);
      workers[s].last_heartbeat = 0;
      workers[s].last_progress = Clock::now();  // determinism: heartbeat control plane
    };
    for (std::uint32_t s = 0; s < worker_count; ++s) {
      spawn(s, options.die_after);
    }

    const auto kill_all = [&] {
      for (WorkerProc& w : workers) {
        if (w.pid > 0) {
          kill(w.pid, SIGKILL);
          int status = 0;
          waitpid(w.pid, &status, 0);
          w.pid = -1;
        }
      }
    };

    // A dead worker's completed rows are already on disk; re-lease only
    // what its shard file does not cover, then respawn (without the
    // die_after hook, so reclaim converges).
    const auto reclaim = [&](std::uint32_t s, const char* why) {
      if (summary.respawns >= options.respawn_budget) {
        kill_all();
        serve_error(std::string("worker ") + std::to_string(s) + " died (" +
                    why + ") with respawn budget exhausted; state dir is "
                    "resumable — rerun serve with the same spec");
      }
      ++summary.respawns;
      std::set<std::uint64_t> covered;
      for (const std::string& line :
           read_ndjson_lines(shard_path(options.state_dir, s))) {
        if (const auto row = decode_row(line)) {
          const auto it = hash_to_index.find(row->spec_hash);
          if (it != hash_to_index.end()) covered.insert(it->second);
        }
      }
      std::string lease;
      std::uint64_t remaining = 0;
      for (const std::uint64_t index : chunks[s]) {
        if (covered.contains(index)) continue;
        lease += std::to_string(index);
        lease += "\n";
        ++remaining;
      }
      if (remaining == 0) {
        workers[s].done = true;
        workers[s].pid = -1;
        note(options, "serve: worker %u died (%s) with lease complete\n", s,
             why);
        return;
      }
      write_file_atomic(lease_path(options.state_dir, s), lease);
      note(options,
           "serve: worker %u died (%s); reclaimed lease, %llu tasks left, "
           "respawning\n",
           s, why, static_cast<unsigned long long>(remaining));
      spawn(s, 0);
    };

    const auto all_done = [&] {
      for (const WorkerProc& w : workers) {
        if (!w.done) return false;
      }
      return true;
    };

    while (!all_done()) {
      int status = 0;
      pid_t reaped = 0;
      while ((reaped = waitpid(-1, &status, WNOHANG)) > 0) {
        for (WorkerProc& w : workers) {
          if (w.pid != reaped) continue;
          w.pid = -1;
          if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
            w.done = true;
          } else {
            reclaim(w.shard,
                    WIFSIGNALED(status) ? "killed by signal" : "exited nonzero");
          }
          break;
        }
      }
      const auto now = Clock::now();  // determinism: heartbeat control plane
      for (WorkerProc& w : workers) {
        if (w.done || w.pid <= 0) continue;
        const std::uint64_t hb =
            read_heartbeat(heartbeat_path(options.state_dir, w.shard));
        if (hb != w.last_heartbeat) {
          w.last_heartbeat = hb;
          w.last_progress = now;
        } else if (now - w.last_progress > kHeartbeatStale) {
          kill(w.pid, SIGKILL);
          waitpid(w.pid, &status, 0);
          w.pid = -1;
          reclaim(w.shard, "heartbeat stale");
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(options.poll_ms));
    }
  }

  // Merge. Every row now sits in a shard file or the cache; walk the task
  // order and emit — shard boundaries cannot reorder the output.
  const Fold after = fold_rows(options.state_dir, hash_to_index);
  if (after.rows.size() != count) {
    serve_error("merge found " + std::to_string(after.rows.size()) + "/" +
                std::to_string(count) +
                " rows; state dir kept for inspection");
  }
  {
    NdjsonFileWriter results(results_path(options.state_dir));
    for (const auto& [index, line] : after.rows) results.write_line(line);
  }

  // Consolidate: the cache becomes the full row set and the per-run debris
  // (shards, leases, heartbeats) is dropped, so the next resume folds one
  // file and the next campaign in this directory starts clean.
  std::string cache;
  for (const auto& [index, line] : after.rows) {
    cache += line;
    cache += "\n";
  }
  write_file_atomic(cache_path(options.state_dir), cache);
  for (const std::string& dir :
       {shard_dir(options.state_dir), lease_dir(options.state_dir)}) {
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
      fs::remove(entry.path(), ec);
    }
  }

  summary.wall_micros = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - t0)
          .count());  // determinism: summary timing only, never row bytes
  note(options, "serve: %llu rows (%llu cached) -> %s\n",
       static_cast<unsigned long long>(count),
       static_cast<unsigned long long>(summary.tasks_cached),
       summary.results_file.c_str());
  return summary;
}

ServeSummary run_campaign_serial(const CampaignSpec& spec,
                                 const std::string& out_path) {
  const auto t0 = Clock::now();  // determinism: summary timing only, never row bytes
  spec.validate();
  const TaskRunner runner(spec);
  const std::uint64_t count = spec.task_count();
  ServeSummary summary;
  summary.tasks_total = count;
  summary.tasks_run = count;
  summary.workers_used = 1;
  summary.results_file = out_path;
  NdjsonFileWriter out(out_path);
  for (std::uint64_t i = 0; i < count; ++i) {
    out.write_line(encode_row(runner.run(spec.task_at(i))));
  }
  summary.wall_micros = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - t0)
          .count());  // determinism: summary timing only, never row bytes
  return summary;
}

std::string bench_service_json(const CampaignSpec& spec,
                               const ServeSummary& summary) {
  const double secs =
      static_cast<double>(summary.wall_micros) / 1e6;
  const double rows_per_sec =
      secs > 0.0 ? static_cast<double>(summary.tasks_run) / secs : 0.0;
  char buf[160];
  std::string out = "{\n  \"experiment\": \"service_campaign\",\n";
  out += "  \"campaign\": \"";
  json_escape_to(out, spec.name);
  out += "\",\n";
  std::snprintf(buf, sizeof buf,
                "  \"specs\": %llu,\n  \"workers\": %u,\n"
                "  \"respawns\": %u,\n  \"tasks_run\": %llu,\n"
                "  \"wall_micros\": %llu,\n  \"rows_per_sec\": %.1f\n}\n",
                static_cast<unsigned long long>(summary.tasks_total),
                summary.workers_used, summary.respawns,
                static_cast<unsigned long long>(summary.tasks_run),
                static_cast<unsigned long long>(summary.wall_micros),
                rows_per_sec);
  out += buf;
  return out;
}

}  // namespace ba::service
