// Direct unit tests for outbox normalization (A.1.1 well-formedness: at most
// one message per ordered pair per round, no self-sends) and its
// allocation-reusing form, plus the RoundScratch fault lookup tables.

#include "runtime/sync_system.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <utility>
#include <vector>

#include "runtime/fault.h"

namespace ba {
namespace {

std::vector<ProcessId> receivers(const std::vector<Message>& msgs) {
  std::vector<ProcessId> out;
  out.reserve(msgs.size());
  for (const Message& m : msgs) out.push_back(m.receiver);
  return out;
}

TEST(NormalizeOutbox, DropsSelfSends) {
  const Outbox out{{1, Value{10}}, {2, Value{20}}, {1, Value{11}}};
  const auto msgs = normalize_outbox(out, /*self=*/1, /*r=*/3, /*n=*/4);
  EXPECT_EQ(receivers(msgs), (std::vector<ProcessId>{2}));
  EXPECT_EQ(msgs[0].sender, 1u);
  EXPECT_EQ(msgs[0].round, 3u);
  EXPECT_EQ(msgs[0].payload, Value{20});
}

TEST(NormalizeOutbox, DropsOutOfRangeReceivers) {
  const Outbox out{{4, Value{1}}, {100, Value{2}}, {3, Value{3}},
                   {kNoProcess, Value{4}}};
  const auto msgs = normalize_outbox(out, /*self=*/0, /*r=*/1, /*n=*/4);
  EXPECT_EQ(receivers(msgs), (std::vector<ProcessId>{3}));
}

TEST(NormalizeOutbox, DuplicateReceiverKeepsFirstOccurrence) {
  const Outbox out{{2, Value{"first"}}, {2, Value{"second"}},
                   {2, Value{"third"}}};
  const auto msgs = normalize_outbox(out, /*self=*/0, /*r=*/1, /*n=*/4);
  ASSERT_EQ(msgs.size(), 1u);
  EXPECT_EQ(msgs[0].payload, Value{"first"});
}

TEST(NormalizeOutbox, OutputSortedByReceiver) {
  const Outbox out{{3, Value{3}}, {1, Value{1}}, {2, Value{2}},
                   {1, Value{"dup"}}};
  const auto msgs = normalize_outbox(out, /*self=*/0, /*r=*/1, /*n=*/4);
  EXPECT_EQ(receivers(msgs), (std::vector<ProcessId>{1, 2, 3}));
  EXPECT_EQ(msgs[0].payload, Value{1});  // first occurrence, not "dup"
}

TEST(NormalizeOutbox, AscendingAndShuffledOutboxesAgree) {
  // An ascending multicast skips the sort; the same sends shuffled, with a
  // late duplicate, a self-send and out-of-range receivers mixed in, take
  // it. Both normalize to the same messages.
  const std::uint32_t n = 9;
  const ProcessId self = 4;
  Outbox ascending;
  for (ProcessId p = 0; p < n; ++p) {
    if (p != self) ascending.push_back({p, Value{std::int64_t{10} * p}});
  }
  Outbox shuffled = ascending;
  std::shuffle(shuffled.begin(), shuffled.end(), std::mt19937{17});
  shuffled.push_back({2, Value{"late duplicate"}});
  shuffled.insert(shuffled.begin() + 3, Outgoing{self, Value{"self"}});
  shuffled.insert(shuffled.begin() + 1, Outgoing{n, Value{"oob"}});
  shuffled.push_back({kNoProcess, Value{"oob"}});
  const auto want = normalize_outbox(ascending, self, 5, n);
  EXPECT_EQ(receivers(want),
            (std::vector<ProcessId>{0, 1, 2, 3, 5, 6, 7, 8}));
  EXPECT_EQ(normalize_outbox(shuffled, self, 5, n), want);
}

TEST(NormalizeOutbox, FirstMessageWinsWhenTheSortIsSkipped) {
  // The kept receivers (1, 2, 3) ascend, so no sort runs; the duplicates,
  // the self-send and the out-of-range receiver are still dropped.
  const Outbox out{{1, Value{"first"}}, {1, Value{"second"}},
                   {0, Value{"self"}},  {2, Value{"two"}},
                   {2, Value{"dup"}},   {9, Value{"oob"}},
                   {3, Value{"three"}}};
  const auto msgs = normalize_outbox(out, /*self=*/0, /*r=*/1, /*n=*/4);
  EXPECT_EQ(receivers(msgs), (std::vector<ProcessId>{1, 2, 3}));
  EXPECT_EQ(msgs[0].payload, Value{"first"});
  EXPECT_EQ(msgs[1].payload, Value{"two"});
  EXPECT_EQ(msgs[2].payload, Value{"three"});
}

TEST(NormalizeOutbox, MovedInOutboxKeepsTheCallersPayloadObject) {
  const Value payload = Value::vec({Value{"tag"}, Value{1}});
  const Value text{"text"};
  Outbox out{{3, payload}, {1, text}, {2, payload}};
  const auto msgs = normalize_outbox(std::move(out), /*self=*/0, 1, 4);
  ASSERT_EQ(receivers(msgs), (std::vector<ProcessId>{1, 2, 3}));
  EXPECT_TRUE(msgs[0].payload.shares_rep_with(text));
  EXPECT_TRUE(msgs[1].payload.shares_rep_with(payload));
  EXPECT_TRUE(msgs[2].payload.shares_rep_with(payload));
}

TEST(NormalizeOutbox, EmptyOutbox) {
  EXPECT_TRUE(normalize_outbox({}, 0, 1, 4).empty());
}

TEST(NormalizeOutboxInto, MatchesAllocatingFormAndRestoresBitmap) {
  const Outbox out{{5, Value{5}}, {0, Value{0}}, {2, Value{2}},
                   {2, Value{"dup"}}, {7, Value{"oob"}}, {3, Value{3}}};
  std::vector<std::uint8_t> seen(6, 0);
  std::vector<Message> msgs;
  normalize_outbox_into(out, /*self=*/3, /*r=*/2, /*n=*/6, seen, msgs);
  EXPECT_EQ(msgs, normalize_outbox(out, 3, 2, 6));
  // Contract: the dedup bitmap is handed back all-zero so the next call can
  // reuse it without a wipe.
  EXPECT_EQ(seen, std::vector<std::uint8_t>(6, 0));
}

TEST(NormalizeOutboxInto, ReusableAcrossCallsAndClearsOutput) {
  std::vector<std::uint8_t> seen(4, 0);
  std::vector<Message> msgs;
  normalize_outbox_into({{1, Value{1}}, {2, Value{2}}}, 0, 1, 4, seen, msgs);
  ASSERT_EQ(msgs.size(), 2u);
  // Stale contents must not leak into the next round's normalization.
  normalize_outbox_into({{3, Value{3}}}, 0, 2, 4, seen, msgs);
  EXPECT_EQ(receivers(msgs), (std::vector<ProcessId>{3}));
  EXPECT_EQ(msgs[0].round, 2u);
  normalize_outbox_into({}, 0, 3, 4, seen, msgs);
  EXPECT_TRUE(msgs.empty());
}

TEST(RoundScratch, FaultTablesResolveOncePerRun) {
  Adversary adv;
  adv.faulty = ProcessSet{{1, 2}};
  adv.byzantine = ProcessSet{{2}};
  adv.byzantine_factory = [](const ProcessContext&) -> std::unique_ptr<Process> {
    return nullptr;  // tables are computed without instantiating replicas
  };
  adv.send_omit = [](const MsgKey&) { return true; };
  adv.receive_omit = [](const MsgKey&) { return true; };

  RoundScratch scratch;
  scratch.prepare(adv, /*n=*/4, /*record_trace=*/true);
  EXPECT_EQ(scratch.faulty, (std::vector<std::uint8_t>{0, 1, 1, 0}));
  // Send omissions apply to faulty non-Byzantine senders only.
  EXPECT_EQ(scratch.may_drop_send, (std::vector<std::uint8_t>{0, 1, 0, 0}));
  // Receive omissions apply to every faulty receiver, Byzantine included.
  EXPECT_EQ(scratch.may_drop_receive,
            (std::vector<std::uint8_t>{0, 1, 1, 0}));
  EXPECT_EQ(scratch.outs.size(), 4u);
  EXPECT_EQ(scratch.inboxes.size(), 4u);
  EXPECT_EQ(scratch.events.size(), 4u);
  EXPECT_EQ(scratch.seen, std::vector<std::uint8_t>(4, 0));

  // Without omission predicates the drop tables are all-zero (the hot loop
  // never consults the std::function predicates), and tracing off means no
  // event staging.
  RoundScratch bare;
  bare.prepare(Adversary::none(), /*n=*/3, /*record_trace=*/false);
  EXPECT_EQ(bare.may_drop_send, std::vector<std::uint8_t>(3, 0));
  EXPECT_EQ(bare.may_drop_receive, std::vector<std::uint8_t>(3, 0));
  EXPECT_TRUE(bare.events.empty());
}

}  // namespace
}  // namespace ba
