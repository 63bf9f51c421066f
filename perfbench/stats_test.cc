// Unit tests of the driver's percentile helpers and span self-time
// (steadiness.py's quartile helpers: test_steadiness.py).
#include <gtest/gtest.h>

#include "stats.h"

namespace perfbench {
namespace {

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 100; i >= 1; i--) v.push_back(i);  // unsorted input
  EXPECT_EQ(Percentile(v, 50), 50);
  EXPECT_EQ(Percentile(v, 90), 90);
  EXPECT_EQ(Percentile(v, 99), 99);
  EXPECT_EQ(Percentile(v, 100), 100);
  EXPECT_EQ(Percentile({7}, 99), 7);
  EXPECT_EQ(Percentile({}, 50), 0);
  // p50 of an even count is the lower middle sample, not an average.
  EXPECT_EQ(Percentile({1, 2, 3, 4}, 50), 2);
  EXPECT_EQ(Percentile({1, 2, 3, 4}, 51), 3);
}

TEST(Percentile, SampleFloors) {
  EXPECT_EQ(MinSamples(50), 1u);
  EXPECT_EQ(MinSamples(90), 100u);
  EXPECT_EQ(MinSamples(95), 100u);
  EXPECT_EQ(MinSamples(99), 1000u);
  EXPECT_EQ(MinSamples(99.9), 1000u);
}

TEST(Median, OddEvenEmpty) {
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0);
}

Span Make(uint64_t id, uint64_t parent, int64_t start, int64_t end) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.request = 1;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(SelfTimes, SpanWithNoChildrenKeepsItsDuration) {
  auto self = SelfTimes({Make(1, 0, 10, 35)});
  ASSERT_EQ(self.size(), 1u);
  EXPECT_EQ(self[0], 25);
}

TEST(SelfTimes, ParentCoveringItsChildren) {
  // Parent [0,100) with disjoint children [10,30) and [50,60).
  auto self = SelfTimes(
      {Make(1, 0, 0, 100), Make(2, 1, 10, 30), Make(3, 1, 50, 60)});
  EXPECT_EQ(self[0], 70);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 10);
}

TEST(SelfTimes, OverlappingChildrenCountOnce) {
  // Children [10,40) and [30,50) overlap: together they cover [10,50).
  auto self = SelfTimes(
      {Make(1, 0, 0, 100), Make(2, 1, 10, 40), Make(3, 1, 30, 50)});
  EXPECT_EQ(self[0], 60);
}

TEST(SelfTimes, ChildStickingOutIsClippedToTheParent) {
  auto self = SelfTimes({Make(1, 0, 0, 100), Make(2, 1, 80, 150)});
  EXPECT_EQ(self[0], 80);
  EXPECT_EQ(self[1], 70);
}

TEST(SelfTimes, GrandchildrenChargeOnlyTheirParent) {
  // root [0,100) > child [10,90) > grandchild [20,30).
  auto self = SelfTimes(
      {Make(3, 2, 20, 30), Make(1, 0, 0, 100), Make(2, 1, 10, 90)});
  EXPECT_EQ(self[0], 10);  // grandchild
  EXPECT_EQ(self[1], 20);  // root: 100 - 80
  EXPECT_EQ(self[2], 70);  // child: 80 - 10
}

}  // namespace
}  // namespace perfbench
