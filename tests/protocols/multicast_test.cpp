// The protocols' one send-to-everyone-but-self helper (protocols/common.h):
// n - 1 entries in ascending receiver order, all sharing one payload.

#include <gtest/gtest.h>

#include <vector>

#include "protocols/common.h"

namespace ba::protocols {
namespace {

std::vector<ProcessId> receivers(const Outbox& out) {
  std::vector<ProcessId> to;
  for (const Outgoing& o : out) to.push_back(o.to);
  return to;
}

TEST(Multicast, OneSharedPayloadToEveryoneButSelf) {
  const Value payload = tagged("m", {Value{7}});
  const Outbox out = multicast(5, /*self=*/2, payload);
  EXPECT_EQ(receivers(out), (std::vector<ProcessId>{0, 1, 3, 4}));
  for (const Outgoing& o : out) EXPECT_TRUE(o.payload.shares_rep_with(payload));
}

TEST(Multicast, SelfAtEitherEnd) {
  EXPECT_EQ(receivers(multicast(4, 0, Value{"x"})),
            (std::vector<ProcessId>{1, 2, 3}));
  EXPECT_EQ(receivers(multicast(4, 3, Value{"x"})),
            (std::vector<ProcessId>{0, 1, 2}));
}

TEST(Multicast, EmptyForASingleProcess) {
  EXPECT_TRUE(multicast(1, 0, Value{"x"}).empty());
}

TEST(Multicast, AppendingFormKeepsEarlierSends) {
  const Value a{"a"};
  const Value b{"b"};
  Outbox out = multicast(3, 0, a);
  append_multicast(out, 3, 0, b);
  EXPECT_EQ(receivers(out), (std::vector<ProcessId>{1, 2, 1, 2}));
  EXPECT_TRUE(out[1].payload.shares_rep_with(a));
  EXPECT_TRUE(out[2].payload.shares_rep_with(b));
  EXPECT_TRUE(out[3].payload.shares_rep_with(b));
}

}  // namespace
}  // namespace ba::protocols
