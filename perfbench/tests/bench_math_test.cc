// Tests of the benchmark's own arithmetic (src/bench_math.h).

#include "bench_math.h"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(PercentileTest, NearestRankOnRawSamples) {
  // Shuffled order must not matter; rank ceil(q*n) in ascending order.
  std::vector<double> v = {7, 3, 10, 1, 9, 2, 8, 4, 6, 5};
  for (int i = 0; i < 10; ++i) v.push_back(10 + v[i]);  // 1..20
  EXPECT_EQ(Percentile(v, 0.50, 0), 10.0);
  EXPECT_EQ(Percentile(v, 0.90, 0), 18.0);
  EXPECT_EQ(Percentile(v, 1.00, 0), 20.0);
  EXPECT_EQ(Percentile(v, 0.01, 0), 1.0);
}

TEST(PercentileTest, NeedsTenSamplesBeyond) {
  // p90 of 100 samples is rank 90: exactly 10 beyond, reported.
  EXPECT_EQ(Percentile(OneTo(100), 0.90), 90.0);
  // 99 samples: rank 90, only 9 beyond.
  EXPECT_FALSE(Percentile(OneTo(99), 0.90).has_value());
  // p99 needs 1000 samples.
  EXPECT_EQ(Percentile(OneTo(1000), 0.99), 990.0);
  EXPECT_FALSE(Percentile(OneTo(999), 0.99).has_value());
  // The median of 20 samples has 10 beyond; of 19, 9.
  EXPECT_EQ(Percentile(OneTo(20), 0.50), 10.0);
  EXPECT_FALSE(Percentile(OneTo(19), 0.50).has_value());
  EXPECT_FALSE(Percentile({}, 0.50, 0).has_value());
}

TEST(MedianTest, OddEvenEmpty) {
  EXPECT_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0.0);
}

TEST(SlicedRateTest, MedianOverSlicesIgnoresAStall) {
  // 10 s at 4/s, except a stall with no completions in [2, 4).
  std::vector<double> done;
  for (int i = 0; i < 40; ++i) {
    const double t = 0.125 + 0.25 * i;
    if (t < 2.0 || t >= 4.0) done.push_back(t);
  }
  EXPECT_DOUBLE_EQ(SlicedRate(done, 10.0, 5), 4.0);
  // One slice is the plain mean over the window.
  EXPECT_DOUBLE_EQ(SlicedRate(done, 10.0, 1), 3.2);
  // A completion at the window's end counts in the last slice; ones
  // outside the window do not count.
  EXPECT_DOUBLE_EQ(SlicedRate({1.0, 2.0, 2.0, 3.0, 9.0}, 2.0, 2), 1.5);
  EXPECT_EQ(SlicedRate(done, 0.0, 5), 0.0);
  EXPECT_EQ(SlicedRate(done, 10.0, 0), 0.0);
}

LadderStep Step(double rate, uint64_t n, double latency, double lag) {
  LadderStep step;
  step.rate = rate;
  step.attempted = n;
  step.latency_ms.assign(n, latency);
  step.lag_ms.assign(n, lag);
  return step;
}

TEST(LadderTest, P99AgainstLimitCountsFailuresAsMisses) {
  LadderStep step = Step(24, 200, 100.0, 0.0);
  EXPECT_TRUE(MeetsLimit(step, 500.0, 50.0));
  // 2 of 200 over the limit: p99 (rank 198) is still within it.
  step.latency_ms[0] = step.latency_ms[1] = 900.0;
  EXPECT_TRUE(MeetsLimit(step, 500.0, 50.0));
  // A third miss pushes p99 over.
  step.latency_ms[2] = 900.0;
  EXPECT_FALSE(MeetsLimit(step, 500.0, 50.0));
  // A failed request has no latency sample and counts as a miss.
  step.latency_ms[2] = 100.0;
  step.latency_ms.pop_back();
  step.failed = 1;
  EXPECT_FALSE(MeetsLimit(step, 500.0, 50.0));
}

TEST(LadderTest, GrowingLagIsABacklog) {
  std::vector<double> steady(40, 5.0);
  EXPECT_FALSE(BacklogGrows(steady, 50.0));
  std::vector<double> growing(40);
  for (int i = 0; i < 40; ++i) growing[i] = 10.0 * i;  // 0..390 ms
  EXPECT_TRUE(BacklogGrows(growing, 50.0));
  EXPECT_FALSE(BacklogGrows({0, 0, 0, 900}, 50.0));  // too few to judge
  LadderStep step = Step(72, 40, 100.0, 0.0);
  step.lag_ms = growing;
  EXPECT_FALSE(MeetsLimit(step, 500.0, 50.0));
}

TEST(LadderTest, GoodputIsTheLastRateOfThePassingRun) {
  std::vector<LadderStep> steps = {Step(12, 50, 80, 0), Step(24, 100, 90, 0),
                                   Step(36, 100, 700, 0),
                                   Step(48, 100, 90, 0)};
  // 48 passes again, but only the leading run counts.
  EXPECT_EQ(Goodput(steps, 500.0, 50.0), 24.0);
  steps[0].latency_ms.assign(50, 600.0);
  EXPECT_EQ(Goodput(steps, 500.0, 50.0), 0.0);
  EXPECT_EQ(Goodput({}, 500.0, 50.0), 0.0);
}

cafe::obs::SpanEvent Ev(uint32_t id, uint32_t parent, uint64_t begin,
                        uint64_t end) {
  cafe::obs::SpanEvent e;
  e.name = "s";
  e.id = id;
  e.parent = parent;
  e.begin_ns = begin;
  e.end_ns = end;
  return e;
}

TEST(SelfTimeTest, SubtractsTheUnionOfDirectChildren) {
  std::vector<cafe::obs::SpanEvent> spans = {
      Ev(1, 0, 0, 100),   // root
      Ev(2, 1, 10, 30),   // child
      Ev(3, 1, 20, 50),   // overlaps child 2: union 10..50
      Ev(4, 2, 12, 18),   // grandchild: not subtracted from the root
      Ev(5, 1, 90, 130),  // runs past the parent: clipped to 90..100
  };
  std::vector<uint64_t> self = SelfTimes(spans);
  ASSERT_EQ(self.size(), 5u);
  EXPECT_EQ(self[0], 100u - 40u - 10u);
  EXPECT_EQ(self[1], 20u - 6u);
  EXPECT_EQ(self[2], 30u);
  EXPECT_EQ(self[3], 6u);
  EXPECT_EQ(self[4], 40u);
}

TEST(ZipfTest, DeterministicPerSeedAndSkewed) {
  ZipfSampler a(64, 1.0, 7), b(64, 1.0, 7), c(64, 1.0, 8);
  std::vector<size_t> da, db, dc;
  std::vector<int> counts(64, 0);
  for (int i = 0; i < 20000; ++i) {
    da.push_back(a.Next());
    db.push_back(b.Next());
    dc.push_back(c.Next());
    ASSERT_LT(da.back(), 64u);
    ++counts[da.back()];
  }
  EXPECT_EQ(da, db);
  EXPECT_NE(da, dc);
  // s = 1 over 64 ranks: P(rank 0) = 1 / H_64 ~ 0.21, P(rank 1) half that.
  EXPECT_NEAR(counts[0] / 20000.0, 0.2099, 0.015);
  EXPECT_NEAR(static_cast<double>(counts[0]) / counts[1], 2.0, 0.25);
  EXPECT_GT(counts[1], counts[10]);
}

}  // namespace
}  // namespace perfbench
