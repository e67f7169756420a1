// kconv-scope metrics suite (docs/MODEL.md §11).
//
// Pins the two load-bearing properties of the shared histogram: percentile()
// is bit-equal to the sorted-vector nearest-rank oracle while the exact tier
// holds (which is what justified replacing the ad-hoc percentile code in
// bench_serving and the serving CLI), and merging is a pure function of the
// merged multiset — associative and order-invariant — so request-index-order
// roll-ups are deterministic across worker-thread counts.
#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.hpp"
#include "src/common/strutil.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/scope.hpp"
#include "tests/support/json_reader.hpp"

namespace kconv::obs {
namespace {

std::string json(const Histogram& h) {
  return testsupport::write_json([&](JsonWriter& w) { h.to_json(w); });
}

double oracle_percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size())) - 1;
  const std::size_t idx =
      rank <= 0 ? 0
                : std::min(v.size() - 1, static_cast<std::size_t>(rank));
  return v[idx];
}

std::vector<double> latency_like_samples(std::size_t n, u64 seed) {
  // Log-uniform over ~[1us, 100ms]: the spread real request latencies have.
  Rng rng(seed);
  std::vector<double> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(1e-6 * std::pow(10.0, 5.0 * rng.next_double()));
  }
  return out;
}

TEST(Histogram, PercentileMatchesSortedOracleExactly) {
  const auto samples = latency_like_samples(1000, 42);
  Histogram h;
  for (double v : samples) h.add(v);
  ASSERT_TRUE(h.exact());
  for (double q : {0.0, 0.01, 0.25, 0.50, 0.90, 0.95, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(h.percentile(q), oracle_percentile(samples, q)) << "q=" << q;
  }
  EXPECT_EQ(h.count(), samples.size());
  EXPECT_EQ(h.min(), *std::min_element(samples.begin(), samples.end()));
  EXPECT_EQ(h.max(), *std::max_element(samples.begin(), samples.end()));
}

TEST(Histogram, SmallCountsAndDuplicates) {
  Histogram h;
  EXPECT_EQ(h.percentile(0.5), 0.0);  // empty
  h.add(3e-3);
  EXPECT_EQ(h.percentile(0.0), 3e-3);
  EXPECT_EQ(h.percentile(1.0), 3e-3);
  h.add(1e-3);
  h.add(1e-3);
  const std::vector<double> v{3e-3, 1e-3, 1e-3};
  for (double q : {0.0, 0.5, 0.66, 0.67, 1.0}) {
    EXPECT_EQ(h.percentile(q), oracle_percentile(v, q)) << "q=" << q;
  }
}

TEST(Histogram, BucketBoundariesCoverEverySample) {
  const auto samples = latency_like_samples(200, 7);
  for (double v : samples) {
    const i32 b = Histogram::bucket_of(v);
    EXPECT_LE(v, Histogram::bucket_upper(b) * (1.0 + 1e-12));
    EXPECT_GT(v, Histogram::bucket_upper(b - 1) * (1.0 - 1e-9));
  }
  EXPECT_EQ(Histogram::bucket_of(0.0), Histogram::kUnderflow);
  EXPECT_EQ(Histogram::bucket_of(-1.0), Histogram::kUnderflow);
}

TEST(Histogram, MergeIsOrderInvariantAndAssociative) {
  const auto samples = latency_like_samples(900, 11);
  // One histogram fed everything in order...
  Histogram all;
  for (double v : samples) all.add(v);
  // ...versus three chunks merged in every association order.
  Histogram a, b, c;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    (i % 3 == 0 ? a : i % 3 == 1 ? b : c).add(samples[i]);
  }
  Histogram left;  // ((a+b)+c)
  left.merge(a);
  left.merge(b);
  left.merge(c);
  Histogram right;  // (c+(b+a))
  Histogram ba = b;
  ba.merge(a);
  right.merge(c);
  right.merge(ba);
  EXPECT_EQ(json(all), json(left));
  EXPECT_EQ(json(all), json(right));
  for (double q : {0.5, 0.95, 0.99}) {
    EXPECT_EQ(all.percentile(q), left.percentile(q));
    EXPECT_EQ(all.percentile(q), right.percentile(q));
  }
}

TEST(Histogram, SpillDegradesToBucketUpperBound) {
  const auto samples =
      latency_like_samples(Histogram::kExactCap + 100, 3);
  Histogram h;
  for (double v : samples) h.add(v);
  EXPECT_FALSE(h.exact());
  EXPECT_EQ(h.count(), samples.size());
  // Bounded relative error: the reported percentile is the upper bound of
  // the bucket containing the true order statistic, so it is >= the oracle
  // and within one sqrt(2) bucket width of it.
  for (double q : {0.5, 0.95, 0.99}) {
    const double oracle = oracle_percentile(samples, q);
    const double got = h.percentile(q);
    EXPECT_GE(got * (1.0 + 1e-12), oracle) << "q=" << q;
    EXPECT_LE(got, oracle * std::sqrt(2.0) * (1.0 + 1e-12)) << "q=" << q;
  }
  // Merging a spilled histogram into an exact one spills the result too,
  // deterministically.
  Histogram exact;
  exact.add(1e-3);
  Histogram m1 = exact;
  m1.merge(h);
  Histogram m2 = h;
  m2.merge(exact);
  EXPECT_FALSE(m1.exact());
  EXPECT_EQ(json(m1), json(m2));
}

TEST(Histogram, JsonRoundTripsAndPinsSchema) {
  Histogram h;
  for (double v : latency_like_samples(50, 9)) h.add(v);
  const auto doc = testsupport::JsonReader(json(h)).parse();
  ASSERT_EQ(doc->type, testsupport::JsonValue::Type::Object);
  for (const char* key :
       {"count", "sum", "min", "max", "p50", "p95", "p99"}) {
    ASSERT_TRUE(doc->object.count(key)) << key;
    EXPECT_EQ(doc->object.at(key)->type,
              testsupport::JsonValue::Type::Number);
  }
  EXPECT_EQ(doc->object.at("count")->number, 50.0);
  EXPECT_EQ(doc->object.at("exact")->type,
            testsupport::JsonValue::Type::Bool);
  u64 bucket_total = 0;
  for (const auto& pair : doc->object.at("buckets")->array) {
    ASSERT_EQ(pair->array.size(), 2u);
    bucket_total += static_cast<u64>(pair->array[1]->number);
  }
  EXPECT_EQ(bucket_total, 50u);
}

TEST(Metrics, MergeAddsCountersAndMaxesGauges) {
  Metrics a;
  a.count("requests", 3);
  a.gauge_max("queue_depth", 4.0);
  a.hist("latency_s").add(1e-3);
  Metrics b;
  b.count("requests", 2);
  b.count("conv_launches", 7);
  b.gauge_max("queue_depth", 2.0);
  b.hist("latency_s").add(2e-3);
  a.merge(b);
  EXPECT_EQ(a.counters.at("requests"), 5u);
  EXPECT_EQ(a.counters.at("conv_launches"), 7u);
  EXPECT_EQ(a.gauges.at("queue_depth"), 4.0);
  EXPECT_EQ(a.hist("latency_s").count(), 2u);
}

TEST(MetricsRegistry, SnapshotIsValidJsonlInKeyOrder) {
  MetricsRegistry reg;
  Metrics m;
  m.count("requests");
  m.hist("latency_s").add(5e-3);
  reg.merge({"lenet", "1x28x28", "warm_replay"}, m);
  reg.merge({"lenet", "1x28x28", "cold"}, m);
  reg.merge({"alex", "3x224x224", "cold"}, m);
  const std::string jsonl = reg.snapshot_jsonl(2);
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < jsonl.size()) {
    const std::size_t nl = jsonl.find('\n', start);
    lines.push_back(jsonl.substr(start, nl - start));
    start = (nl == std::string::npos) ? jsonl.size() : nl + 1;
  }
  ASSERT_EQ(lines.size(), 3u);
  std::vector<std::string> seen;
  for (const auto& line : lines) {
    const auto doc = testsupport::JsonReader(line).parse();
    EXPECT_EQ(doc->object.at("snapshot")->number, 2.0);
    seen.push_back(doc->object.at("network")->str + "/" +
                   doc->object.at("shape")->str + "/" +
                   doc->object.at("mode")->str);
    EXPECT_EQ(doc->object.at("counters")->object.at("requests")->number, 1.0);
  }
  const std::vector<std::string> want{"alex/3x224x224/cold",
                                      "lenet/1x28x28/cold",
                                      "lenet/1x28x28/warm_replay"};
  EXPECT_EQ(seen, want);
}

TEST(PlanCacheTaxonomy, EveryStatusCountsAndTotalIsExhaustive) {
  PlanCacheTaxonomy t;
  t.add("hit", 4);
  t.add("miss");
  t.add("");  // no plan store configured
  t.add("stale-arch");
  t.add("stale-static-signature");
  t.add("disabled");
  t.add("never-heard-of-this");  // unknown → corrupt, total stays exhaustive
  EXPECT_EQ(t.hit, 4u);
  EXPECT_EQ(t.miss, 1u);
  EXPECT_EQ(t.unplanned, 1u);
  EXPECT_EQ(t.stale_arch, 1u);
  EXPECT_EQ(t.stale_static_signature, 1u);
  EXPECT_EQ(t.disabled, 1u);
  EXPECT_EQ(t.corrupt, 1u);
  EXPECT_EQ(t.total(), 10u);
  EXPECT_EQ(t.stale_total(), 2u);
  EXPECT_EQ(t.miss_total(), 6u);
  PlanCacheTaxonomy u;
  u.add("hit", 2);
  u += t;
  EXPECT_EQ(u.hit, 6u);
  EXPECT_EQ(u.total(), 12u);
}

}  // namespace
}  // namespace kconv::obs
