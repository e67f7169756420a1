// Self-tests for the benchmark harness: percentiles, seeded generators and
// closed-loop accounting. They run without the simulator.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>

#include "kbench/harness.hpp"

namespace kbench {
namespace {

TEST(Percentile, NearestRankMatchesSortedIndex) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // 1..100, reversed
  EXPECT_EQ(percentile(v, 0.5), 50.0);
  EXPECT_EQ(percentile(v, 0.95), 95.0);
  EXPECT_EQ(percentile(v, 0.99), 99.0);
  EXPECT_EQ(percentile(v, 1.0), 100.0);
  EXPECT_EQ(percentile({7.0}, 0.95), 7.0);
  // ceil(0.95 * 21) = 20th smallest.
  std::vector<double> w;
  for (int i = 1; i <= 21; ++i) w.push_back(i);
  EXPECT_EQ(percentile(w, 0.95), 20.0);
}

TEST(Percentile, RejectsEmptyAndBadQuantile) {
  EXPECT_THROW(percentile({}, 0.5), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, 0.0), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, 1.5), std::invalid_argument);
}

TEST(Percentile, TenSamplesBeyondNeedTwoHundredForP95) {
  EXPECT_EQ(samples_beyond(100, 0.95), 5u);
  EXPECT_EQ(samples_beyond(199, 0.95), 9u);
  EXPECT_EQ(samples_beyond(200, 0.95), 10u);
  EXPECT_EQ(min_samples_for(0.95, 10), 200u);
  EXPECT_EQ(min_samples_for(0.5, 10), 20u);
  EXPECT_EQ(min_samples_for(0.99, 10), 1000u);
}

TEST(Generators, SameSeedSameShapes) {
  const auto a = draw_shapes(42);
  const auto b = draw_shapes(42);
  EXPECT_EQ(a, b);
  EXPECT_EQ(hash_shapes(a), hash_shapes(b));
  EXPECT_NE(hash_shapes(a), hash_shapes(draw_shapes(43)));
}

TEST(Generators, ShapesCoverEveryFamilyCell) {
  const auto shapes = draw_shapes(7);
  ASSERT_EQ(shapes.size(), 30u);
  std::multiset<std::tuple<int, long long, long long>> cells;
  for (const ConvShape& s : shapes) {
    cells.insert({s.figure, s.k, s.f});
    EXPECT_GE(s.n, s.k);
    if (s.figure == 7) EXPECT_EQ(s.c, 1);
  }
  for (long long k : {1, 3, 5}) {
    for (long long f : {1, 16, 64}) EXPECT_EQ(cells.count({7, k, f}), 2u);
  }
  for (long long k : {3, 5, 7}) {
    for (long long f : {64, 128}) {
      EXPECT_EQ(cells.count({8, k, f}), 2u);
      i64 total_c = 0;
      for (const ConvShape& s : shapes) {
        if (s.figure == 8 && s.k == k && s.f == f) total_c += s.c;
      }
      EXPECT_EQ(total_c, 80);  // {16, 64} or {32, 48}
    }
  }
}

TEST(Generators, SameSeedSameRequests) {
  const auto a = draw_requests(9, 5);
  EXPECT_EQ(a, draw_requests(9, 5));
  EXPECT_EQ(hash_requests(a), hash_requests(draw_requests(9, 5)));
  EXPECT_NE(hash_requests(a), hash_requests(draw_requests(10, 5)));
}

TEST(Generators, EveryBlockHoldsTheFixedWideShare) {
  const auto reqs = draw_requests(3, 6);
  ASSERT_EQ(reqs.size(), 6u * kBlockRequests);
  for (std::size_t b = 0; b < 6; ++b) {
    int wide = 0;
    for (int i = 0; i < kBlockRequests; ++i) {
      const Request& r = reqs[b * kBlockRequests + static_cast<std::size_t>(i)];
      EXPECT_GE(r.net, 0);
      EXPECT_LT(r.net, kNumNetworks);
      EXPECT_LT(r.salt, kSaltsPerNetwork);
      wide += r.net == 2;
    }
    EXPECT_EQ(wide, kWidePerBlock);
  }
}

TEST(ClosedLoop, RoundsWalkTheListInPasses) {
  using Idx = std::vector<std::size_t>;
  EXPECT_EQ(closed_loop_round(10, 4, 0), (Idx{0, 1, 2, 3}));
  EXPECT_EQ(closed_loop_round(10, 4, 2), (Idx{8, 9}));
  EXPECT_EQ(closed_loop_round(10, 4, 3), (Idx{0, 1, 2, 3}));
  EXPECT_THROW(closed_loop_round(0, 4, 0), std::invalid_argument);
}

TEST(ClosedLoop, SentEqualsSucceededPlusFailed) {
  Tally t;
  Result r;
  for (u64 round = 0; round < 25; ++round) {
    const auto idx = closed_loop_round(100, 4, round);
    t.send(idx.size());
    EXPECT_FALSE(t.balanced());
    for (std::size_t i : idx) t.done(i % 17 != 0);
    EXPECT_TRUE(t.balanced());
  }
  EXPECT_EQ(t.sent, 100u);
  EXPECT_EQ(t.failed, 6u);  // 0, 17, 34, 51, 68, 85
  EXPECT_EQ(t.succeeded + t.failed, t.sent);
  r.tally = t;
  EXPECT_FALSE(r.correct());
  Result clean;
  clean.tally.send(3);
  for (int i = 0; i < 3; ++i) clean.tally.done(true);
  EXPECT_TRUE(clean.correct());
  clean.fail_check("determinism");
  EXPECT_FALSE(clean.correct());
  EXPECT_TRUE(clean.tally.balanced());
}

TEST(Summary, KeepsEachEntrysFasterHalf) {
  SampleTable t(2);
  for (double s : {0.30, 0.10, 0.20}) t[0].push_back({s, 1, 2, 5, {s}});
  for (double s : {0.50, 0.40}) t[1].push_back({s, 1, 0, 0, {s}});
  const HostSummary h = summarize(t);
  EXPECT_EQ(h.total, 5u);
  EXPECT_EQ(h.kept, 3u);  // 0.10 and 0.20 of entry 0, 0.40 of entry 1
  EXPECT_DOUBLE_EQ(h.busy_s, 0.70);
  EXPECT_DOUBLE_EQ(h.ops_per_s, 3 / 0.70);
  EXPECT_DOUBLE_EQ(h.convs_per_s, 4 / 0.70);
  EXPECT_DOUBLE_EQ(h.blocks_per_s, 10 / 0.70);
  std::vector<double> lat = h.latency_s;
  std::sort(lat.begin(), lat.end());
  EXPECT_EQ(lat, (std::vector<double>{0.10, 0.20, 0.40}));
}

TEST(Summary, FasterHalfMeanDropsTheSlowerHalf) {
  EXPECT_DOUBLE_EQ(faster_half_mean({0.9, 0.1, 0.3}), 0.2);
  EXPECT_DOUBLE_EQ(faster_half_mean({0.4, 0.2, 0.8, 0.6}), 0.3);
  EXPECT_THROW(faster_half_mean({}), std::invalid_argument);
}

TEST(Loop, StopsOnlyOnceTheTimeIsUp) {
  EXPECT_FALSE(loop_done(9.9, 10, 500, 200, true));
  EXPECT_FALSE(loop_done(9.9, 10, 0, 200, false));
  EXPECT_TRUE(loop_done(10.0, 10, 200, 200, true));
  EXPECT_FALSE(loop_done(12.0, 10, 199, 200, true));
}

TEST(Loop, EndsWhenWrongOutputsStarveTheSamples) {
  // A pass with no verified operation adds no sample: stop at the time.
  EXPECT_TRUE(loop_done(10.0, 10, 0, 200, false));
  // Some verified, too few samples: stop at the limit.
  EXPECT_FALSE(loop_done(kLoopLimit * 10 - 0.1, 10, 50, 200, true));
  EXPECT_TRUE(loop_done(kLoopLimit * 10, 10, 50, 200, true));
}

TEST(Result, JsonHasExactlyTheContractKeys) {
  Result r;
  r.tally.send();
  r.tally.done(true);
  r.add("setup_s", 0.25, "s");
  EXPECT_EQ(result_json(r),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, "
            "\"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}");
}

}  // namespace
}  // namespace kbench
