#include "protocols/eig.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "protocols/common.h"

namespace ba::protocols {
namespace {

using Label = std::vector<ProcessId>;

Value label_to_value(const Label& label) {
  ValueVec v;
  v.reserve(label.size());
  for (ProcessId p : label) v.emplace_back(static_cast<std::int64_t>(p));
  return Value{std::move(v)};
}

std::optional<Label> label_from_value(const Value& v, std::uint32_t n) {
  if (!v.is_vec()) return std::nullopt;
  Label label;
  label.reserve(v.as_vec().size());
  for (const Value& e : v.as_vec()) {
    if (!e.is_int() || e.as_int() < 0 ||
        e.as_int() >= static_cast<std::int64_t>(n)) {
      return std::nullopt;
    }
    label.push_back(static_cast<ProcessId>(e.as_int()));
  }
  return label;
}

bool label_contains(const Label& label, ProcessId p) {
  return std::find(label.begin(), label.end(), p) != label.end();
}

/// The strong-consensus fold shared by the arena and reference variants:
/// most frequent IC component, ties broken by value order (the first
/// maximum in ascending Value order wins).
Value strong_majority_fold(const Value& ic_vector) {
  std::map<Value, std::uint32_t> votes;
  for (const Value& v : ic_vector.as_vec()) ++votes[v];
  Value best = Value::null();
  std::uint32_t best_count = 0;
  for (const auto& [v, count] : votes) {
    if (count > best_count) {
      best = v;
      best_count = count;
    }
  }
  return best;
}

// ---------------------------------------------------------------------------
// Reference implementation (the seed encoding): the IG tree as a std::map
// from heap-allocated label vectors to values. Kept verbatim as the
// behavioural oracle for the arena encoding (decisions and traces must stay
// byte-identical — tests/protocols/eig_arena_golden_test.cpp) and as the
// fallback for (n, t) outside eig_paths::layout_fits.
// ---------------------------------------------------------------------------

class EigReferenceProcess : public DecidingProcess {
 public:
  explicit EigReferenceProcess(const ProcessContext& ctx)
      : params_(ctx.params), self_(ctx.self), proposal_(ctx.proposal) {
    tree_[Label{}] = proposal_;
  }

  Outbox outbox_for_round(Round r) override {
    if (r > params_.t + 1) return {};
    // Send every level-(r-1) node not containing self.
    ValueVec reports;
    for (const auto& [label, value] : tree_) {
      if (label.size() != r - 1) continue;
      if (label_contains(label, self_)) continue;
      reports.push_back(
          Value{ValueVec{label_to_value(label), value}});
    }
    if (reports.empty() && r > 1) return {};
    Value payload = tagged("eig", std::move(reports));
    Outbox out;
    for (ProcessId p = 0; p < params_.n; ++p) {
      if (p != self_) out.push_back(Outgoing{p, payload});
    }
    return out;
  }

  void deliver(Round r, const Inbox& inbox) override {
    if (r > params_.t + 1) return;
    // Self-delivery: the runtime carries no self-messages, so a process
    // stores the reports it broadcast this round directly (every label it
    // sent gains the child label·self). Without this, a node's own honest
    // testimony would be missing from its majority votes.
    std::vector<std::pair<Label, Value>> own;
    for (const auto& [label, value] : tree_) {
      if (label.size() == r - 1 && !label_contains(label, self_)) {
        Label child = label;
        child.push_back(self_);
        own.emplace_back(std::move(child), value);
      }
    }
    for (auto& [child, value] : own) {
      tree_.emplace(std::move(child), value);
    }
    for (const Message& m : inbox) {
      if (!has_tag(m.payload, "eig")) continue;
      const ValueVec& reports = m.payload.as_vec();
      for (std::size_t i = 1; i < reports.size(); ++i) {
        const Value& rep = reports[i];
        if (!rep.is_vec() || rep.as_vec().size() != 2) continue;
        auto label = label_from_value(rep.as_vec()[0], params_.n);
        if (!label || label->size() != r - 1) continue;
        if (label_contains(*label, m.sender)) continue;
        Label child = *label;
        child.push_back(m.sender);
        tree_.emplace(std::move(child), rep.as_vec()[1]);  // first report wins
      }
    }
    if (r == params_.t + 1) {
      ValueVec vec;
      vec.reserve(params_.n);
      for (ProcessId j = 0; j < params_.n; ++j) {
        vec.push_back(resolve(Label{j}));
      }
      decide(finish(Value{std::move(vec)}));
    }
  }

 protected:
  /// Hook for derived protocols (strong consensus) to post-process the IC
  /// vector.
  [[nodiscard]] virtual Value finish(Value ic_vector) const {
    return ic_vector;
  }

  SystemParams params_;

 private:
  [[nodiscard]] Value stored(const Label& label) const {
    auto it = tree_.find(label);
    return it == tree_.end() ? Value::null() : it->second;
  }

  /// Bottom-up resolution: a leaf resolves to its stored value; an internal
  /// node resolves to the strict majority of its children, or null.
  [[nodiscard]] Value resolve(const Label& label) const {
    if (label.size() == params_.t + 1) return stored(label);
    std::map<Value, std::uint32_t> votes;
    std::uint32_t children = 0;
    for (ProcessId j = 0; j < params_.n; ++j) {
      if (label_contains(label, j)) continue;
      Label child = label;
      child.push_back(j);
      ++children;
      ++votes[resolve(child)];
    }
    for (const auto& [v, count] : votes) {
      if (2 * count > children) return v;
    }
    return Value::null();
  }

  ProcessId self_;
  Value proposal_;
  std::map<Label, Value> tree_;
};

class EigReferenceStrongProcess final : public EigReferenceProcess {
 public:
  using EigReferenceProcess::EigReferenceProcess;

 protected:
  [[nodiscard]] Value finish(Value ic_vector) const override {
    return strong_majority_fold(ic_vector);
  }
};

// ---------------------------------------------------------------------------
// Arena implementation.
//
// Levels 1..t are dense value-id arrays indexed by path id; values are
// interned once per process. The leaf level t+1 (the O(n^{t+1}) wall) is
// never materialized: each accepted leaf report marks one bit in a dense
// presence bitmap (first report wins, exactly the seed's map::emplace) and
// folds its value into a per-parent vote tally, so deciding is a linear
// sweep instead of a recursive walk over heap labels.
//
// Wire payloads keep the seed encoding. Report Values are built through a
// factory-shared ReportCache keyed by (n, level, dense path id, value),
// which names a report exactly. Because equal (label, value) reports are
// shared across every sender that relays them, a fault-free round's payload
// set costs one allocation per distinct report instead of one per (sender ×
// report) — the difference between ~2 GB and tens of MB at n = 64.
// ---------------------------------------------------------------------------

constexpr std::uint32_t kAbsentId = 0xffffffffu;
constexpr std::uint32_t kNullId = 0;  // values_[0] is always Value::null()

/// Vote tally for one level-t parent: inline slots for the two most common
/// vote values (fault-free rounds never need more: the honest value and
/// null), spilling to a side map for adversarial mixes.
struct Tally {
  std::uint32_t a_id{kAbsentId};
  std::uint32_t b_id{kAbsentId};
  std::uint16_t a_cnt{0};
  std::uint16_t b_cnt{0};
};

/// Factory-shared, thread-safe cache of report Values keyed by
/// (n, level, path id, value). One factory serves runs of any size, and a
/// dense path id names a label only together with n, so n is part of the
/// key. Sharing across the processes of a run means
/// every relay of the same (label, value) report reuses one immutable
/// payload allocation (COW Values make that semantically invisible), which
/// is what keeps n = 128 runs inside a laptop's memory instead of O(n) times
/// the distinct-report footprint. The map is never iterated, so it cannot
/// introduce ordering nondeterminism.
class ReportCache {
 public:
  ReportCache() { slots_.resize(1u << 12); }

  /// The report ([digits], value) for the level-`level` node `id` of an
  /// n-process tree; `digits` is that node's label.
  Value get(std::uint32_t n, std::uint32_t level, std::uint64_t id,
            const Value& value, std::span<const ProcessId> digits) {
    std::uint64_t h =
        mix(id ^ mix((std::uint64_t{n} << 32) | level)) ^
        (value.hash() * 0x9e3779b97f4a7c15ULL);
    if (h == 0) h = 0x517cc1b727220a95ULL;  // 0 marks an empty slot
    {
      const std::lock_guard<std::mutex> lock(mu_);
      Entry* e = probe(h, n, level, id, value);
      if (e->hash != 0) return e->report;
    }
    ValueVec label_elems;
    label_elems.reserve(digits.size());
    for (ProcessId p : digits) {
      label_elems.emplace_back(static_cast<std::int64_t>(p));
    }
    Value report{ValueVec{Value{std::move(label_elems)}, value}};
    const std::lock_guard<std::mutex> lock(mu_);
    // Re-probe: the table may have grown (or the entry appeared) while the
    // report was being built outside the lock.
    Entry* e = probe(h, n, level, id, value);
    if (e->hash != 0) return e->report;
    if (used_ >= kMaxEntries) return report;  // full: hand out unshared
    e->hash = h;
    e->n = n;
    e->level = level;
    e->id = id;
    e->value = value;
    e->report = report;
    if (++used_ * 4 >= slots_.size() * 3) grow();
    return report;
  }

 private:
  // Open-addressed (the per-call cost is one cache line probe in the common
  // all-processes-after-the-first hit case, vs a node-based map's bucket
  // walk — this is the hottest sender-side call at large n). Hits and
  // misses build value-equal reports, so traces are identical either way.
  struct Entry {
    std::uint64_t hash{0};  // 0 = empty
    std::uint64_t id{0};
    std::uint32_t n{0};
    std::uint32_t level{0};
    Value value;
    Value report;
  };

  static constexpr std::size_t kMaxEntries = 1u << 20;

  /// splitmix64's finalizer: spreads the key fields over the probe bits.
  static std::uint64_t mix(std::uint64_t x) {
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  Entry* probe(std::uint64_t h, std::uint32_t n, std::uint32_t level,
               std::uint64_t id, const Value& value) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(h) & mask;
    while (true) {
      Entry& e = slots_[i];
      if (e.hash == 0 || (e.hash == h && e.n == n && e.level == level &&
                          e.id == id && e.value == value)) {
        return &e;
      }
      i = (i + 1) & mask;
    }
  }

  void grow() {
    std::vector<Entry> old = std::move(slots_);
    slots_.assign(old.size() * 2, Entry{});
    for (Entry& e : old) {
      if (e.hash == 0) continue;
      const std::size_t mask = slots_.size() - 1;
      std::size_t i = static_cast<std::size_t>(e.hash) & mask;
      while (slots_[i].hash != 0) i = (i + 1) & mask;
      slots_[i] = std::move(e);
    }
  }

  std::mutex mu_;
  std::vector<Entry> slots_;
  std::size_t used_{0};
};

/// Open-addressing intern table for kInt values (the overwhelmingly common
/// payload in practice): ~4 ns per hit vs ~25 ns for unordered_map, which
/// matters at 10^6+ leaf ingests per process.
class IntInterner {
 public:
  std::uint32_t* find_or_reserve(std::int64_t key) {
    if (used_ * 4 >= slots_.size() * 3) grow();
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = static_cast<std::size_t>(
                        static_cast<std::uint64_t>(key) *
                        0x9e3779b97f4a7c15ULL) &
                    mask;
    while (true) {
      Slot& s = slots_[i];
      if (!s.used) {
        s.used = true;
        s.key = key;
        s.id = kAbsentId;
        ++used_;
        return &s.id;
      }
      if (s.key == key) return &s.id;
      i = (i + 1) & mask;
    }
  }

 private:
  struct Slot {
    std::int64_t key{0};
    std::uint32_t id{kAbsentId};
    bool used{false};
  };

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? 64 : old.size() * 2, Slot{});
    used_ = 0;
    const std::size_t mask = slots_.size() - 1;
    for (const Slot& s : old) {
      if (!s.used) continue;
      std::size_t i = static_cast<std::size_t>(
                          static_cast<std::uint64_t>(s.key) *
                          0x9e3779b97f4a7c15ULL) &
                      mask;
      while (slots_[i].used) i = (i + 1) & mask;
      slots_[i] = s;
      ++used_;
    }
  }

  std::vector<Slot> slots_{std::vector<Slot>(64)};
  std::size_t used_{0};
};

/// Per-deliver pointer-identity memo over the shared report allocations.
/// The ReportCache hands every relaying sender the *same* immutable Value
/// for an equal (label, value) report, so within one deliver call the same
/// ValueVec address recurs once per sender (~n times at the final round). An
/// entry caches the sender-independent parse — dense parent id, label
/// digits, this process's interned value id (kAbsentId = malformed) — and a
/// hit replays it with only the per-sender containment check, skipping the
/// label re-parse and value re-intern. Entries are generation-stamped per
/// deliver call: every payload in the inbox outlives the call, so a
/// recurring address is necessarily the same live object (no address-reuse
/// hazard), and a hit is behaviourally identical to re-parsing.
class ReportMemo {
 public:
  /// Labels longer than this bypass the memo. Two digits cover every level
  /// the big-n arenas can reach (layout_fits caps n^{t+1}, so t >= 3 only
  /// survives at small n where the payload volume is trivial), and keep an
  /// Entry at 24 bytes — the table is per process and n of them are live.
  static constexpr std::uint32_t kMaxDigits = 2;

  struct Entry {
    const void* key{nullptr};
    std::uint32_t gen{0};
    std::uint32_t parent_id{0};
    std::uint32_t vid{kAbsentId};
    std::array<std::uint16_t, kMaxDigits> digits{};
  };

  explicit ReportMemo(std::uint64_t expected_distinct) {
    std::uint64_t want = 1024;
    while (want < (1u << 16) && want < expected_distinct * 2) want *= 2;
    slots_.assign(static_cast<std::size_t>(want), Entry{});
    shift_ = 64 - static_cast<std::uint32_t>(std::countr_zero(want));
  }

  void begin_round() {
    ++gen_;
    if (gen_ == 0) {  // u32 wrap: flush stale stamps before reusing gen 0
      slots_.assign(slots_.size(), Entry{});
      gen_ = 1;
    }
    used_ = 0;
  }

  /// Probes for `key`. Returns (entry, true) on a hit; on a miss, claims a
  /// slot for the caller to fill and returns (entry, false), or
  /// (nullptr, false) when the table is saturated for this round (caller
  /// falls back to the plain parse).
  std::pair<Entry*, bool> lookup(const void* key) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = slot_index(key);
    while (true) {
      Entry& e = slots_[i];
      if (e.gen != gen_) {
        if (used_ * 4 >= slots_.size() * 3) return {nullptr, false};
        ++used_;
        e.gen = gen_;
        e.key = key;
        e.vid = kAbsentId;
        return {&e, false};
      }
      if (e.key == key) return {&e, true};
      i = (i + 1) & mask;
    }
  }

  /// Warms the home slot of a key about to be looked up — the probe is the
  /// one hash-scattered load on the ingest fast path (the bitmap and tally
  /// sweeps are near-sequential in dense-id order).
  void prefetch(const void* key) const {
    __builtin_prefetch(&slots_[slot_index(key)], 1, 1);
  }

 private:
  [[nodiscard]] std::size_t slot_index(const void* key) const {
    const auto p = reinterpret_cast<std::uintptr_t>(key);  // determinism: hash position only — a hit replays the exact parse a miss would redo
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(p) * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  std::vector<Entry> slots_;
  std::uint32_t shift_{54};
  std::uint32_t gen_{0};
  std::size_t used_{0};
};

class EigArenaProcess : public DecidingProcess {
 public:
  EigArenaProcess(const ProcessContext& ctx,
                  std::shared_ptr<ReportCache> cache)
      : params_(ctx.params),
        self_(ctx.self),
        proposal_(ctx.proposal),
        cache_(std::move(cache)),
        memo_(eig_paths::level_size(
            ctx.params.n,
            std::min(ctx.params.t == 0 ? 1u : ctx.params.t,
                     ReportMemo::kMaxDigits))) {
    const std::uint32_t n = params_.n;
    const std::uint32_t t = params_.t;
    values_.push_back(Value::null());
    proposal_id_ = intern(proposal_);
    stored_max_ = (t == 0) ? 1 : t;
    levels_.resize(stored_max_ + 1);
    for (std::uint32_t l = 1; l <= stored_max_; ++l) {
      levels_[l].assign(
          static_cast<std::size_t>(eig_paths::level_size(n, l)), kAbsentId);
    }
    if (t >= 1) {
      tallies_.assign(
          static_cast<std::size_t>(eig_paths::level_size(n, t)), Tally{});
      const std::uint64_t leaves = eig_paths::level_size(n, t + 1);
      leaf_seen_.assign(static_cast<std::size_t>((leaves + 63) / 64), 0);
    }
  }

  Outbox outbox_for_round(Round r) override {
    if (r > params_.t + 1) return {};
    const std::uint32_t level = static_cast<std::uint32_t>(r) - 1;
    ValueVec reports;  // moved into the payload by tagged(), then freed
    reports.reserve(static_cast<std::size_t>(
        eig_paths::level_size(params_.n, level)));
    walk_level(level, [&](std::uint64_t id, std::uint32_t vid,
                          std::span<const ProcessId> digits) {
      reports.push_back(
          cache_->get(params_.n, level, id, values_[vid], digits));
    });
    if (reports.empty() && r > 1) return {};
    return multicast(params_.n, self_, tagged("eig", std::move(reports)));
  }

  void deliver(Round r, const Inbox& inbox) override {
    if (r > params_.t + 1) return;
    // Self-delivery first (the seed's order): every level-(r-1) node this
    // process just broadcast gains the child label·self.
    walk_level(r - 1, [&](std::uint64_t id, std::uint32_t vid,
                          std::span<const ProcessId> /*digits*/) {
      ingest_id(id, r - 1, self_, vid);
    });
    const std::uint32_t n = params_.n;
    const std::uint32_t level = static_cast<std::uint32_t>(r) - 1;
    const bool use_memo = level <= ReportMemo::kMaxDigits;
    if (use_memo) memo_.begin_round();
    for (const Message& m : inbox) {
      if (!has_tag(m.payload, "eig")) continue;
      const ValueVec& reports = m.payload.as_vec();
      for (std::size_t i = 1; i < reports.size(); ++i) {
        const Value& rep = reports[i];
        if (!rep.is_vec()) continue;
        const ValueVec& rv = rep.as_vec();
        if (use_memo) {
          if (i + 2 < reports.size() && reports[i + 2].is_vec()) {
            memo_.prefetch(&reports[i + 2].as_vec());
          }
          auto [e, hit] = memo_.lookup(&rv);
          if (e != nullptr) {
            if (!hit) parse_report_into(*e, rv, level);
            if (e->vid == kAbsentId) continue;  // malformed for every sender
            if (digits_contain(*e, level, m.sender)) continue;
            ingest_id(e->parent_id, level, m.sender, e->vid);
            continue;
          }
          // Saturated table: fall through to the plain per-sender parse.
        }
        if (rv.size() != 2) continue;
        // Fused label parse: range-check each digit, reject labels
        // containing the sender, and accumulate the dense path id in one
        // pass (the seed's label_from_value + size + contains checks).
        if (!rv[0].is_vec()) continue;
        const ValueVec& digits = rv[0].as_vec();
        if (digits.size() != level) continue;
        std::uint64_t id = 0;
        bool ok = true;
        for (const Value& e : digits) {
          if (!e.is_int()) {
            ok = false;
            break;
          }
          const std::int64_t x = e.as_int();
          if (x < 0 || x >= static_cast<std::int64_t>(n) ||
              x == static_cast<std::int64_t>(m.sender)) {
            ok = false;
            break;
          }
          id = id * n + static_cast<std::uint64_t>(x);
        }
        if (!ok) continue;
        ingest_value(id, level, m.sender, rv[1]);
      }
    }
    if (r == params_.t + 1) {
      decide(finish(make_ic_vector()));
    }
  }

 protected:
  /// Hook for derived protocols (strong consensus) to post-process the IC
  /// vector.
  [[nodiscard]] virtual Value finish(Value ic_vector) const {
    return ic_vector;
  }

  SystemParams params_;

 private:
  /// Stores a freshly heard child node label·last (dense id arithmetic; the
  /// first report wins, like the seed's map::emplace). Interior children go
  /// to the stored level arrays; leaves mark presence and vote.
  void ingest_id(std::uint64_t parent_id, std::uint32_t parent_level,
                 ProcessId last, std::uint32_t value_id) {
    const std::uint64_t cid =
        eig_paths::child_id(parent_id, params_.n, last);
    const std::uint32_t child_level = parent_level + 1;
    if (child_level <= stored_max_) {
      std::uint32_t& slot = levels_[child_level][static_cast<std::size_t>(cid)];
      if (slot == kAbsentId) slot = value_id;
      return;
    }
    if (leaf_test_and_set(cid)) return;
    vote(parent_id, value_id);
  }

  /// Sender-independent half of the report parse, cached in a memo entry:
  /// shape and digit-range checks, dense parent-id accumulation, eager value
  /// intern (interning a value whose report is later rejected per-sender is
  /// unobservable — ids are internal and deduplicated). Sender containment
  /// is re-checked per delivering sender against the cached digits.
  void parse_report_into(ReportMemo::Entry& e, const ValueVec& rv,
                         std::uint32_t level) {
    e.vid = kAbsentId;
    if (rv.size() != 2) return;
    if (!rv[0].is_vec()) return;
    const ValueVec& digits = rv[0].as_vec();
    if (digits.size() != level) return;
    const std::uint32_t n = params_.n;
    std::uint64_t id = 0;
    for (std::uint32_t d = 0; d < level; ++d) {
      const Value& ev = digits[d];
      if (!ev.is_int()) return;
      const std::int64_t x = ev.as_int();
      if (x < 0 || x >= static_cast<std::int64_t>(n)) return;
      e.digits[d] = static_cast<std::uint16_t>(x);
      id = id * n + static_cast<std::uint64_t>(x);
    }
    e.parent_id = static_cast<std::uint32_t>(id);
    e.vid = intern(rv[1]);
  }

  static bool digits_contain(const ReportMemo::Entry& e, std::uint32_t level,
                             ProcessId sender) {
    for (std::uint32_t d = 0; d < level; ++d) {
      if (e.digits[d] == sender) return true;
    }
    return false;
  }

  /// Same, interning the value only when the child is actually fresh.
  void ingest_value(std::uint64_t parent_id, std::uint32_t parent_level,
                    ProcessId last, const Value& v) {
    const std::uint64_t cid =
        eig_paths::child_id(parent_id, params_.n, last);
    const std::uint32_t child_level = parent_level + 1;
    if (child_level <= stored_max_) {
      std::uint32_t& slot = levels_[child_level][static_cast<std::size_t>(cid)];
      if (slot == kAbsentId) slot = intern(v);
      return;
    }
    if (leaf_test_and_set(cid)) return;
    vote(parent_id, intern(v));
  }

  bool leaf_test_and_set(std::uint64_t cid) {
    std::uint64_t& w = leaf_seen_[static_cast<std::size_t>(cid >> 6)];
    const std::uint64_t bit = 1ull << (cid & 63);
    if ((w & bit) != 0) return true;
    w |= bit;
    return false;
  }

  void vote(std::uint64_t parent_id, std::uint32_t vid) {
    Tally& ta = tallies_[static_cast<std::size_t>(parent_id)];
    // Fault-free rounds take this branch almost always (every leaf under a
    // parent reports the same honest value); everything else is cold.
    if (ta.a_id == vid) {
      ++ta.a_cnt;
      return;
    }
    vote_slow(ta, parent_id, vid);
  }

  void vote_slow(Tally& ta, std::uint64_t parent_id, std::uint32_t vid) {
    if (ta.a_id == kAbsentId) {
      ta.a_id = vid;
      ta.a_cnt = 1;
      return;
    }
    if (ta.b_id == vid) {
      ++ta.b_cnt;
      return;
    }
    if (ta.b_id == kAbsentId) {
      ta.b_id = vid;
      ta.b_cnt = 1;
      return;
    }
    ++overflow_[parent_id][vid];
  }

  std::uint32_t intern(const Value& v) {
    if (v.is_null()) return kNullId;
    if (v.is_int()) {
      std::uint32_t* slot = int_interner_.find_or_reserve(v.as_int());
      if (*slot == kAbsentId) {
        *slot = static_cast<std::uint32_t>(values_.size());
        values_.push_back(v);
      }
      return *slot;
    }
    auto [it, inserted] =
        intern_map_.try_emplace(v, static_cast<std::uint32_t>(values_.size()));
    if (inserted) values_.push_back(v);
    return it->second;
  }

  /// Visits every stored level-L node whose label avoids self, in ascending
  /// dense-id order (== the seed map's lexicographic label order). The
  /// callback receives the node's id, interned value and digits.
  template <typename F>
  void walk_level(std::uint32_t level, F&& f) {
    if (level == 0) {
      f(eig_paths::kRootId, proposal_id_, std::span<const ProcessId>{});
      return;
    }
    if (level > stored_max_) return;
    const std::uint32_t n = params_.n;
    walk_digits_.resize(level);
    const std::vector<std::uint32_t>& slots = levels_[level];
    // Iterative DFS over digit prefixes; subtrees rooted at digit == self
    // are pruned whole (every descendant label contains self).
    auto descend = [&](std::uint32_t depth, std::uint64_t id,
                       auto&& self_fn) -> void {
      for (ProcessId j = 0; j < n; ++j) {
        if (j == self_) continue;
        const std::uint64_t cid = id * n + j;
        if (depth + 1 == level) {
          const std::uint32_t vid = slots[static_cast<std::size_t>(cid)];
          if (vid == kAbsentId) continue;
          walk_digits_[depth] = j;
          f(cid, vid, std::span<const ProcessId>(walk_digits_));
        } else {
          walk_digits_[depth] = j;
          self_fn(depth + 1, cid, self_fn);
        }
      }
    };
    descend(0, eig_paths::kRootId, descend);
  }

  [[nodiscard]] Value make_ic_vector() {
    const std::uint32_t n = params_.n;
    ValueVec vec;
    vec.reserve(n);
    if (params_.t == 0) {
      for (ProcessId j = 0; j < n; ++j) {
        const std::uint32_t vid = levels_[1][j];
        vec.push_back(vid == kAbsentId ? Value::null() : values_[vid]);
      }
      return Value{std::move(vec)};
    }
    in_label_.assign(n, 0);
    // Pre-size the per-level scratch: resolve_node holds a reference into
    // this vector across its recursion, so it must never reallocate
    // mid-resolve (levels 1..t-1 are the interior levels that tally).
    if (resolve_counts_buf_.size() < params_.t) {
      resolve_counts_buf_.resize(params_.t);
    }
    for (ProcessId j = 0; j < n; ++j) {
      in_label_[j] = 1;
      vec.push_back(values_[resolve_node(j, 1)]);
      in_label_[j] = 0;
    }
    return Value{std::move(vec)};
  }

  /// Resolves the level-`level` node `id` (digits marked in in_label_):
  /// level t resolves from its leaf tally, interior nodes from the strict
  /// majority of their children (null when none) — the seed's recursive
  /// resolve, as id arithmetic.
  [[nodiscard]] std::uint32_t resolve_node(std::uint64_t id,
                                           std::uint32_t level) {
    if (level == params_.t) return resolve_from_tally(id);
    const std::uint32_t n = params_.n;
    std::uint32_t children = 0;
    // Sized by make_ic_vector before the recursion starts — growing it here
    // would invalidate the parent frames' references into it.
    std::vector<std::pair<std::uint32_t, std::uint32_t>>& counts =
        resolve_counts_buf_[level];
    counts.clear();
    for (ProcessId j = 0; j < n; ++j) {
      if (in_label_[j] != 0) continue;
      ++children;
      in_label_[j] = 1;
      const std::uint32_t v =
          resolve_node(eig_paths::child_id(id, n, j), level + 1);
      in_label_[j] = 0;
      bool found = false;
      for (auto& [cv, cc] : counts) {
        if (cv == v) {
          ++cc;
          found = true;
          break;
        }
      }
      if (!found) counts.emplace_back(v, 1);
    }
    for (const auto& [cv, cc] : counts) {
      if (2 * cc > children) return cv;
    }
    return kNullId;
  }

  [[nodiscard]] std::uint32_t resolve_from_tally(std::uint64_t id) {
    const Tally& ta = tallies_[static_cast<std::size_t>(id)];
    // A resolved level-t label has t distinct digits, so it has exactly
    // n - t children; absent leaves vote null. Only a non-null strict
    // majority needs detecting: a null majority and no majority both
    // resolve to null, so null votes never have to be counted.
    const std::uint32_t children = params_.n - params_.t;
    std::uint32_t best = kNullId;
    auto consider = [&](std::uint32_t vid, std::uint32_t cnt) {
      if (vid != kNullId && 2 * cnt > children) best = vid;
    };
    if (ta.a_id != kAbsentId) consider(ta.a_id, ta.a_cnt);
    if (ta.b_id != kAbsentId) consider(ta.b_id, ta.b_cnt);
    auto it = overflow_.find(id);
    if (it != overflow_.end()) {
      for (const auto& [vid, cnt] : it->second) consider(vid, cnt);
    }
    return best;
  }

  ProcessId self_;
  Value proposal_;
  std::shared_ptr<ReportCache> cache_;
  ReportMemo memo_;

  std::uint32_t stored_max_{1};
  std::uint32_t proposal_id_{kNullId};
  std::vector<std::vector<std::uint32_t>> levels_;  // levels_[l][id] = value id
  std::vector<Tally> tallies_;                      // level-t parents
  std::vector<std::uint64_t> leaf_seen_;            // level-(t+1) presence bits
  // Rare >2-distinct-value tallies; the iterated inner map is ordered.
  std::unordered_map<std::uint64_t,  // determinism: keyed access only, never iterated
                     std::map<std::uint32_t, std::uint32_t>>
      overflow_;

  std::vector<Value> values_;  // interned values; [0] = null
  // Ids are assigned in first-seen order, fixed by the deterministic
  // ingest order.
  std::unordered_map<Value, std::uint32_t>  // determinism: lookup-only, never iterated
      intern_map_;
  IntInterner int_interner_;

  // Scratch reused across walks/decides (no steady-state allocation).
  std::vector<ProcessId> walk_digits_;
  std::vector<std::uint8_t> in_label_;
  std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>>
      resolve_counts_buf_;  // per recursion depth, reused
};

class EigArenaStrongProcess final : public EigArenaProcess {
 public:
  using EigArenaProcess::EigArenaProcess;

 protected:
  [[nodiscard]] Value finish(Value ic_vector) const override {
    return strong_majority_fold(ic_vector);
  }
};

}  // namespace

namespace eig_paths {

std::uint64_t level_size(std::uint32_t n, std::uint32_t level) {
  std::uint64_t size = 1;
  for (std::uint32_t l = 0; l < level; ++l) {
    if (n != 0 && size > UINT64_MAX / n) return UINT64_MAX;
    size *= n;
  }
  return size;
}

void decode_path(std::uint64_t id, std::uint32_t n, std::uint32_t level,
                 std::vector<ProcessId>& out) {
  out.assign(level, 0);
  for (std::uint32_t l = level; l > 0; --l) {
    out[l - 1] = static_cast<ProcessId>(id % n);
    id /= n;
  }
}

bool path_contains(std::uint64_t id, std::uint32_t n, std::uint32_t level,
                   ProcessId p) {
  for (std::uint32_t l = 0; l < level; ++l) {
    if (static_cast<ProcessId>(id % n) == p) return true;
    id /= n;
  }
  return false;
}

bool layout_fits(std::uint32_t n, std::uint32_t t) {
  if (n == 0 || n > 0xffffu) return false;
  // n^t parent slots carry a 16-byte tally each; n^{t+1} leaf slots carry
  // one presence bit each. The caps keep a single process's arena in the
  // tens of MB worst case; anything bigger was unusable under the seed
  // encoding too and falls back to it.
  constexpr std::uint64_t kMaxParentSlots = 1ull << 22;
  constexpr std::uint64_t kMaxLeafSlots = 1ull << 27;
  return level_size(n, t) <= kMaxParentSlots &&
         level_size(n, t + 1) <= kMaxLeafSlots;
}

}  // namespace eig_paths

ProtocolFactory eig_interactive_consistency() {
  auto cache = std::make_shared<ReportCache>();
  return [cache](const ProcessContext& ctx) -> std::unique_ptr<Process> {
    if (!eig_paths::layout_fits(ctx.params.n, ctx.params.t)) {
      return std::make_unique<EigReferenceProcess>(ctx);
    }
    return std::make_unique<EigArenaProcess>(ctx, cache);
  };
}

ProtocolFactory eig_strong_consensus() {
  auto cache = std::make_shared<ReportCache>();
  return [cache](const ProcessContext& ctx) -> std::unique_ptr<Process> {
    if (!eig_paths::layout_fits(ctx.params.n, ctx.params.t)) {
      return std::make_unique<EigReferenceStrongProcess>(ctx);
    }
    return std::make_unique<EigArenaStrongProcess>(ctx, cache);
  };
}

ProtocolFactory eig_reference_interactive_consistency() {
  return [](const ProcessContext& ctx) {
    return std::make_unique<EigReferenceProcess>(ctx);
  };
}

ProtocolFactory eig_reference_strong_consensus() {
  return [](const ProcessContext& ctx) {
    return std::make_unique<EigReferenceStrongProcess>(ctx);
  };
}

statics::CommSpec eig_ic_comm_spec() {
  using statics::PayloadClass;
  using statics::Poly;
  const Poly n = Poly::n();
  const Poly t = Poly::t();
  statics::CommSpec spec;
  spec.protocol = "eig-ic";
  spec.problem = "interactive-consistency";
  spec.resilience = "n > 3t";
  spec.rounds = t + 1;
  spec.blocks = {
      {.label = "EIG levels 1..t+1",
       .rounds = t + 1,
       .patterns = {{.label = "every process multicasts its level report",
                     .senders = n,
                     .receivers_per_sender = n - 1,
                     .payload = PayloadClass::kEigReport}}}};
  spec.notes =
      "(t+1) n (n-1) messages, but the level-r report carries O(n^r) tree "
      "entries: the byte bound is superpolynomial by construction";
  return spec;
}

statics::CommSpec eig_strong_comm_spec() {
  statics::CommSpec spec = eig_ic_comm_spec();
  spec.protocol = "eig-strong";
  spec.problem = "strong-consensus";
  spec.notes =
      "EIG interactive consistency plus a local majority fold: the fold "
      "sends nothing, so the IC spec carries over unchanged";
  return spec;
}

}  // namespace ba::protocols
