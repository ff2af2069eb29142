#include "harness.h"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <memory_resource>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>

#include "service/json.h"

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

double rusage_cpu_ms(int who) {
  struct rusage ru {};
  getrusage(who, &ru);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

}  // namespace

double self_cpu_ms() { return rusage_cpu_ms(RUSAGE_SELF); }
double children_cpu_ms() { return rusage_cpu_ms(RUSAGE_CHILDREN); }
double cpu_ms() { return self_cpu_ms() + children_cpu_ms(); }

// ---------------------------------------------------------------------------

namespace {

// 1-based nearest rank: the smallest rank k with k >= q * n.
std::size_t nearest_rank(std::size_t n, double q) {
  const auto k = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<std::size_t>(k, 1, n);
}

}  // namespace

std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  return n - nearest_rank(n, q);
}

std::size_t min_samples_for(double q) {
  std::size_t n = kMinBeyond;
  while (samples_beyond(n, q) < kMinBeyond) ++n;
  return n;
}

namespace {

double nth_ranked(std::vector<double>& samples, std::size_t rank) {
  const auto kth = samples.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(samples.begin(), kth, samples.end());
  return *kth;
}

}  // namespace

double percentile(std::vector<double> samples, double q) {
  if (!(q > 0.0 && q < 1.0)) throw std::runtime_error("percentile: q out of (0, 1)");
  const std::size_t n = samples.size();
  if (samples_beyond(n, q) < kMinBeyond) {
    throw std::runtime_error("percentile: " + std::to_string(n) +
                             " samples leave fewer than " +
                             std::to_string(kMinBeyond) + " beyond q=" +
                             std::to_string(q));
  }
  return nth_ranked(samples, nearest_rank(n, q));
}

double median(std::vector<double> samples) {
  if (samples.empty()) throw std::runtime_error("median of no samples");
  return nth_ranked(samples, nearest_rank(samples.size(), 0.5));
}

double ok_ratio(std::uint64_t attempted, std::uint64_t failed) {
  if (attempted == 0) return 0.0;
  return static_cast<double>(attempted - std::min(failed, attempted)) /
         static_cast<double>(attempted);
}

// ---------------------------------------------------------------------------

namespace {

// One run of the probe takes about 450 KB of its arena. The arena is left
// uninitialised, so only the pages a run touches count towards peak RSS.
constexpr std::size_t kProbeArenaBytes = 1 << 20;
constexpr int kProbeInserts = 3000;

}  // namespace

HostProbe::HostProbe()
    : arena_(std::make_unique_for_overwrite<std::byte[]>(kProbeArenaBytes)) {}

void HostProbe::run_once() {
  std::pmr::monotonic_buffer_resource arena(arena_.get(), kProbeArenaBytes,
                                            std::pmr::null_memory_resource());
  std::pmr::map<std::pmr::string, std::pmr::vector<unsigned char>> map(&arena);
  std::uint64_t x = 1;
  for (int i = 0; i < kProbeInserts; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    char key[24];
    const auto [end, ec] = std::to_chars(key, key + sizeof key, x % 100000);
    map[std::pmr::string(key, end, &arena)].assign(16 + x % 64,
                                                   static_cast<unsigned char>(i));
  }
  for (const auto& [key, bytes] : map) checksum_ += key.size() + bytes.size();
}

double HostProbe::time_ms() {
  run_once();
  const std::int64_t start = now_ns();
  run_once();
  return static_cast<double>(now_ns() - start) / 1e6;
}

double at_rest_ms(double ms, double cpu_ms, double probe_ms) {
  if (!(probe_ms > 0)) throw std::runtime_error("at_rest_ms: no probe time");
  const double computing = std::clamp(cpu_ms, 0.0, ms);
  return ms - computing + computing * kProbeRestMs / probe_ms;
}

// ---------------------------------------------------------------------------

std::size_t SpanLog::open(std::string name, std::string cell,
                          std::uint64_t op, std::int64_t start_ns) {
  Span span;
  span.name = std::move(name);
  span.cell = std::move(cell);
  span.op = op;
  span.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  const std::size_t id = spans_.size();
  if (span.parent >= 0) children_[static_cast<std::size_t>(span.parent)].push_back(id);
  spans_.push_back(std::move(span));
  children_.emplace_back();
  open_.push_back(id);
  spans_[id].start_ns = start_ns;
  return id;
}

void SpanLog::close(std::size_t id, std::int64_t end_ns) {
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("SpanLog::close: span " + std::to_string(id) +
                           " is not the innermost open span");
  }
  open_.pop_back();
  spans_[id].end_ns = end_ns;
}

void SpanLog::fold(std::string name, std::string cell, std::uint64_t op,
                   std::int64_t first_start_ns, std::int64_t busy_ns,
                   std::uint64_t calls) {
  Span span;
  span.name = std::move(name);
  span.cell = std::move(cell);
  span.op = op;
  span.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  span.start_ns = first_start_ns;
  span.end_ns = first_start_ns + busy_ns;
  span.calls = calls;
  const std::size_t id = spans_.size();
  if (span.parent >= 0) children_[static_cast<std::size_t>(span.parent)].push_back(id);
  spans_.push_back(std::move(span));
  children_.emplace_back();
}

void SpanLog::count(std::string name, std::string cell, std::uint64_t op,
                    double value) {
  counts_.push_back(Count{std::move(name), std::move(cell), op, value});
}

std::int64_t SpanLog::self_ns(std::size_t id) const {
  const Span& span = spans_.at(id);
  std::vector<std::pair<std::int64_t, std::int64_t>> covered;
  for (const std::size_t child : children_.at(id)) {
    const std::int64_t lo = std::max(spans_[child].start_ns, span.start_ns);
    const std::int64_t hi = std::min(spans_[child].end_ns, span.end_ns);
    if (hi > lo) covered.emplace_back(lo, hi);
  }
  std::sort(covered.begin(), covered.end());
  std::int64_t union_ns = 0;
  std::int64_t reach = span.start_ns;
  for (const auto& [lo, hi] : covered) {
    const std::int64_t from = std::max(lo, reach);
    if (hi > from) union_ns += hi - from;
    reach = std::max(reach, hi);
  }
  return span.duration_ns() - union_ns;
}

void SpanLog::write_ndjson(std::ostream& os) const {
  os.precision(17);
  const auto quoted = [](const std::string& text) {
    std::string out = "\"";
    ba::service::json_escape_to(out, text);
    return out + "\"";
  };
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "{\"span\":" << i << ",\"name\":" << quoted(s.name)
       << ",\"cell\":" << quoted(s.cell) << ",\"op\":" << s.op
       << ",\"parent\":" << s.parent << ",\"start_ns\":" << s.start_ns
       << ",\"end_ns\":" << s.end_ns << ",\"calls\":" << s.calls
       << ",\"self_ns\":" << self_ns(i) << "}\n";
  }
  for (const Count& c : counts_) {
    os << "{\"count\":" << quoted(c.name) << ",\"cell\":" << quoted(c.cell)
       << ",\"op\":" << c.op << ",\"value\":" << c.value << "}\n";
  }
}

SpanScope::SpanScope(SpanLog* log, std::string name, std::string cell,
                     std::uint64_t op)
    : log_(log) {
  if (log_ != nullptr) id_ = log_->open(std::move(name), std::move(cell), op);
}

SpanScope::~SpanScope() {
  if (log_ != nullptr) log_->close(id_);
}

SpanSeries span_series(const SpanLog& log, const std::string& name,
                       const std::string& cell) {
  std::map<std::uint64_t, std::array<double, 3>> per_op;
  const auto& spans = log.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.name != name || s.cell != cell) continue;
    auto& acc = per_op[s.op];
    acc[0] += static_cast<double>(s.duration_ns()) / 1e6;
    acc[1] += static_cast<double>(log.self_ns(i)) / 1e6;
    acc[2] += static_cast<double>(s.calls);
  }
  SpanSeries series;
  for (const auto& [op, acc] : per_op) {
    series.total_ms.push_back(acc[0]);
    series.self_ms.push_back(acc[1]);
    series.calls.push_back(acc[2]);
  }
  return series;
}

std::vector<double> count_series(const SpanLog& log, const std::string& name,
                                 const std::string& cell) {
  std::map<std::uint64_t, double> per_op;
  for (const Count& c : log.counts()) {
    if (c.name == name && c.cell == cell) per_op[c.op] += c.value;
  }
  std::vector<double> series;
  for (const auto& [op, value] : per_op) series.push_back(value);
  return series;
}

// ---------------------------------------------------------------------------

void CallMeter::add(std::int64_t start_ns) {
  if (first_start_ns < 0) first_start_ns = start_ns;
  busy_ns += now_ns() - start_ns;
  ++calls;
}

void CallMeter::fold_into(SpanLog& log, const std::string& name,
                          const std::string& cell, std::uint64_t op) const {
  log.fold(name, cell, op, first_start_ns < 0 ? now_ns() : first_start_ns,
           busy_ns, calls);
}

namespace {

class MeteredProcess final : public ba::Process {
 public:
  MeteredProcess(std::unique_ptr<ba::Process> inner, CallMeter& meter)
      : inner_(std::move(inner)), meter_(meter) {}

  ba::Outbox outbox_for_round(ba::Round r) override {
    const std::int64_t start = now_ns();
    ba::Outbox out = inner_->outbox_for_round(r);
    meter_.add(start);
    return out;
  }

  void deliver(ba::Round r, const ba::Inbox& inbox) override {
    const std::int64_t start = now_ns();
    inner_->deliver(r, inbox);
    meter_.add(start);
  }

  [[nodiscard]] std::optional<ba::Value> decision() const override {
    return inner_->decision();
  }
  [[nodiscard]] bool quiescent() const override { return inner_->quiescent(); }

 private:
  std::unique_ptr<ba::Process> inner_;
  CallMeter& meter_;
};

}  // namespace

ba::ProtocolFactory metered_factory(ba::ProtocolFactory inner,
                                    CallMeter& meter) {
  return [inner = std::move(inner),
          &meter](const ba::ProcessContext& ctx) -> std::unique_ptr<ba::Process> {
    return std::make_unique<MeteredProcess>(inner(ctx), meter);
  };
}

// ---------------------------------------------------------------------------

IsolatedResult run_isolated(const std::function<std::string()>& body) {
  int fds[2];
  if (pipe(fds) != 0) {
    throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
  }
  std::fflush(nullptr);  // a child must not re-flush the parent's buffers
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    close(fds[0]);
    int code = 0;
    std::string out;
    try {
      out = body();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: %s\n", e.what());
      code = 1;
    }
    std::size_t done = 0;
    while (code == 0 && done < out.size()) {
      const ssize_t w = write(fds[1], out.data() + done, out.size() - done);
      if (w < 0 && errno == EINTR) continue;
      if (w <= 0) {
        code = 1;
        break;
      }
      done += static_cast<std::size_t>(w);
    }
    close(fds[1]);
    std::fflush(nullptr);
    _exit(code);
  }

  close(fds[1]);
  IsolatedResult result;
  char buf[4096];
  for (;;) {
    const ssize_t r = read(fds[0], buf, sizeof buf);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) break;
    result.output.append(buf, static_cast<std::size_t>(r));
  }
  close(fds[0]);

  int status = 0;
  struct rusage ru {};
  while (wait4(pid, &status, 0, &ru) < 0) {
    if (errno != EINTR) {
      throw std::runtime_error(std::string("wait4: ") + std::strerror(errno));
    }
  }
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status)
                                       : 128 + WTERMSIG(status);
  result.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KB
  return result;
}

}  // namespace perfbench
