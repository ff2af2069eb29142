// Regression coverage for the executor's per-run scratch buffers,
// specifically the restore-on-exit dedup bitmap of normalize_outbox_into:
// the bitmap must be all-zero after every call (including calls that drop
// duplicates, self-sends, and out-of-range receivers), so back-to-back
// run_execution calls — and the simulator, which shares RoundScratch —
// never leak state between rounds or runs.

#include <gtest/gtest.h>

#include <vector>

#include "core/ba.h"

namespace ba {
namespace {

bool all_zero(const std::vector<std::uint8_t>& v) {
  for (std::uint8_t b : v) {
    if (b != 0) return false;
  }
  return true;
}

TEST(RoundScratch, SeenBitmapRestoredAfterCleanOutbox) {
  const std::uint32_t n = 8;
  std::vector<std::uint8_t> seen(n, 0);
  std::vector<Message> msgs;
  Outbox out;
  for (ProcessId p = 0; p < n; ++p) {
    if (p != 3) out.push_back(Outgoing{p, Value::bit(1)});
  }
  normalize_outbox_into(out, /*self=*/3, /*r=*/1, n, seen, msgs);
  EXPECT_EQ(msgs.size(), n - 1);
  EXPECT_TRUE(all_zero(seen));
}

TEST(RoundScratch, SeenBitmapRestoredWithDuplicatesSelfAndOutOfRange) {
  const std::uint32_t n = 6;
  std::vector<std::uint8_t> seen(n, 0);
  std::vector<Message> msgs;
  Outbox out;
  out.push_back(Outgoing{2, Value::bit(0)});
  out.push_back(Outgoing{2, Value::bit(1)});   // duplicate: dropped
  out.push_back(Outgoing{0, Value::bit(0)});   // self: dropped
  out.push_back(Outgoing{6, Value::bit(0)});   // >= n: dropped
  out.push_back(Outgoing{99, Value::bit(0)});  // >= n: dropped
  out.push_back(Outgoing{5, Value::bit(1)});
  normalize_outbox_into(out, /*self=*/0, /*r=*/2, n, seen, msgs);
  ASSERT_EQ(msgs.size(), 2u);
  EXPECT_EQ(msgs[0].receiver, 2u);  // sorted by receiver
  EXPECT_EQ(msgs[1].receiver, 5u);
  EXPECT_EQ(msgs[0].payload, Value::bit(0));  // first write wins
  EXPECT_TRUE(all_zero(seen));
}

// A dirty bitmap would make the *next* call drop legitimate messages; the
// regression shape is two calls sharing one bitmap.
TEST(RoundScratch, SharedBitmapAcrossConsecutiveCalls) {
  const std::uint32_t n = 4;
  std::vector<std::uint8_t> seen(n, 0);
  std::vector<Message> msgs;
  Outbox first{Outgoing{1, Value::bit(1)}, Outgoing{2, Value::bit(1)}};
  normalize_outbox_into(first, 0, 1, n, seen, msgs);
  EXPECT_EQ(msgs.size(), 2u);

  Outbox second{Outgoing{1, Value::bit(0)}, Outgoing{3, Value::bit(0)}};
  normalize_outbox_into(second, 2, 1, n, seen, msgs);
  ASSERT_EQ(msgs.size(), 2u);  // receiver 1 must NOT be filtered
  EXPECT_EQ(msgs[0].receiver, 1u);
  EXPECT_EQ(msgs[1].receiver, 3u);
  EXPECT_TRUE(all_zero(seen));
}

TEST(RoundScratch, PrepareResetsFaultTablesBetweenAdversaries) {
  const std::uint32_t n = 5;
  RoundScratch scratch;
  const Adversary iso = isolate_group(ProcessSet::range(3, 5), 1);
  scratch.prepare(iso, n, /*record_trace=*/true);
  EXPECT_NE(scratch.faulty[3], 0);
  EXPECT_NE(scratch.faulty[4], 0);
  EXPECT_EQ(scratch.faulty[0], 0);

  // Re-preparing with a benign adversary must clear every table — stale
  // drop flags would re-apply the previous run's omissions.
  scratch.prepare(Adversary::none(), n, /*record_trace=*/true);
  EXPECT_TRUE(all_zero(scratch.faulty));
  EXPECT_TRUE(all_zero(scratch.may_drop_send));
  EXPECT_TRUE(all_zero(scratch.may_drop_receive));
  EXPECT_TRUE(all_zero(scratch.seen));
}

// End-to-end regression: identical back-to-back executions. Any scratch
// state surviving a run (bitmap bits, stale events, drop tables) would make
// the second run diverge.
TEST(RoundScratch, BackToBackExecutionsAreIdentical) {
  const SystemParams params{7, 2};
  const ProtocolFactory factory = protocols::phase_king_consensus();
  std::vector<Value> proposals;
  for (std::uint32_t p = 0; p < params.n; ++p) {
    proposals.push_back(Value::bit(static_cast<int>(p % 2)));
  }
  const Adversary adv = isolate_group(ProcessSet::range(5, 7), 2);

  const RunResult a = run_execution(params, factory, proposals, adv, {});
  const RunResult b = run_execution(params, factory, proposals, adv, {});
  EXPECT_EQ(a.decisions, b.decisions);
  EXPECT_EQ(a.messages_sent_total, b.messages_sent_total);
  EXPECT_EQ(encode_trace(a.trace), encode_trace(b.trace));

  // And the same through the simulator, which reuses RoundScratch across
  // its event loop.
  const engine::SimBackend sim;
  const RunResult c = sim.run(params, factory, proposals, adv);
  const RunResult d = sim.run(params, factory, proposals, adv);
  EXPECT_EQ(encode_trace(c.trace), encode_trace(d.trace));
  EXPECT_EQ(encode_trace(a.trace), encode_trace(c.trace));
}

}  // namespace
}  // namespace ba
