// Simulation grids through the parallel ExperimentPool: a grid of sim
// configurations must produce byte-identical results at any worker count.
// This extends the repo's parallel-determinism guarantee (docs/PARALLEL.md)
// to the event-loop substrate — simulations share no mutable state, and the
// pool's index-ordered collection makes jobs=1 vs jobs=N indistinguishable.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/ba.h"

namespace ba::sim {
namespace {

struct GridPoint {
  ProtocolFactory factory;
  SystemParams params;
  std::vector<Value> proposals;
  SimConfig config;
  Adversary adversary;
};

std::vector<GridPoint> make_grid() {
  std::vector<GridPoint> grid;
  const auto bits = [](std::uint32_t n) {
    std::vector<Value> v;
    for (std::uint32_t p = 0; p < n; ++p) {
      v.push_back(Value::bit(static_cast<int>(p % 2)));
    }
    return v;
  };

  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    GridPoint g;
    g.params = SystemParams{7, 2};
    g.factory = protocols::phase_king_consensus();
    g.proposals = bits(7);
    g.config.link = LinkModel::jitter(1, 200, seed);
    g.config.round_ticks = 256;
    grid.push_back(std::move(g));
  }
  for (std::uint64_t seed : {4ull, 5ull}) {
    GridPoint g;
    g.params = SystemParams{7, 2};
    g.factory = protocols::eig_interactive_consistency();
    g.proposals = bits(7);
    g.config.link =
        LinkModel::partial_synchrony(ProcessSet::range(5, 7), 3, seed);
    g.config.round_ticks = 256;
    grid.push_back(std::move(g));
  }
  {
    GridPoint g;
    g.params = SystemParams{5, 1};
    g.factory = protocols::wc_candidate_gossip_ring(2, 4);
    g.proposals = bits(5);
    // Crash-recovery: process 0 send-omits everything in rounds [2, 4).
    g.adversary.faulty = ProcessSet({0});
    g.adversary.send_omit = [](const MsgKey& k) {
      return k.sender == 0 && k.round >= 2 && k.round < 4;
    };
    grid.push_back(std::move(g));
  }
  return grid;
}

/// Everything observable about one simulation, in comparable form.
struct Observed {
  Bytes trace;
  NetMetrics metrics;
  std::vector<std::optional<Value>> decisions;
  std::uint64_t messages{0};
  std::uint64_t events{0};
  SimTime end_time{0};

  friend bool operator==(const Observed&, const Observed&) = default;
};

std::vector<Observed> run_grid(unsigned jobs) {
  const std::vector<GridPoint> grid = make_grid();
  parallel::ExperimentPool pool(jobs);
  return pool.map<Observed>(grid.size(), [&grid](std::size_t i) {
    const GridPoint& g = grid[i];
    const SimResult res =
        simulate(g.params, g.factory, g.proposals, g.adversary, g.config);
    Observed o;
    o.trace = encode_trace(res.run.trace);
    o.metrics = res.metrics;
    o.decisions = res.run.decisions;
    o.messages = res.run.messages_sent_total;
    o.events = res.events_processed;
    o.end_time = res.end_time;
    return o;
  });
}

TEST(SimPool, GridIsByteIdenticalAtAnyWorkerCount) {
  const std::vector<Observed> serial = run_grid(1);
  for (unsigned jobs : {2u, 8u}) {
    const std::vector<Observed> parallel_run = run_grid(jobs);
    ASSERT_EQ(parallel_run.size(), serial.size()) << "jobs=" << jobs;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(parallel_run[i], serial[i])
          << "jobs=" << jobs << " grid point " << i;
    }
  }
}

TEST(SimPool, RepeatedParallelRunsAgree) {
  const std::vector<Observed> a = run_grid(8);
  const std::vector<Observed> b = run_grid(8);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace ba::sim
