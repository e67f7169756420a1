// kconv-scope metrics registry (docs/MODEL.md §11).
//
// One shared implementation of the serving stack's quantitative telemetry:
// counters, gauges, and log-bucketed latency histograms, rolled up per
// (network, shape, mode) group. Two properties drive the design:
//
//  * DETERMINISM — a Metrics delta is built per request and merged into the
//    registry in request-index order (the §5a stats-shard discipline), so
//    every value is bit-identical across worker-thread counts. Merging is
//    a pure function of the merged multiset: any association order of the
//    same deltas produces the same state (pinned by the associativity
//    tests in tests/obs/metrics_test.cpp).
//
//  * EXACT PERCENTILES — a Histogram keeps sqrt(2)-spaced log buckets (the
//    mergeable, snapshot-friendly shape) AND the exact sorted sample
//    multiset up to kExactCap entries. While under the cap, percentile()
//    is the nearest-rank statistic of the true samples — bit-equal to a
//    sorted-vector oracle, which is what lets one implementation replace
//    the ad-hoc percentile code in bench_serving and the serving CLI
//    without changing a digit. Past the cap it degrades to the containing
//    bucket's upper bound (bounded relative error, still deterministic).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "src/common/json.hpp"
#include "src/common/types.hpp"

namespace kconv::obs {

/// Log-bucketed histogram with an exact-sample tier.
class Histogram {
 public:
  /// Exact-tier capacity: below this many samples percentile() is the true
  /// nearest-rank order statistic. 16k doubles = 128 KiB worst case — cheap
  /// against serving traffic where one sample is one whole request.
  static constexpr std::size_t kExactCap = 16384;

  /// Bucket boundaries are sqrt(2)-spaced from 1 microsecond: bucket b
  /// covers (upper(b-1), upper(b)] with upper(b) = 1e-6 * 2^(b/2) seconds.
  /// Non-positive samples land in the dedicated kUnderflow bucket.
  static constexpr i32 kUnderflow = -1000;
  static i32 bucket_of(double v);
  static double bucket_upper(i32 bucket);

  void add(double v);
  void merge(const Histogram& o);

  u64 count() const { return count_; }
  /// Canonical (sorted-order) accumulation while exact(), so the value is a
  /// pure function of the sample multiset; running total after the spill.
  double sum() const;
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  /// True while percentile() serves exact order statistics.
  bool exact() const { return exact_; }

  /// Nearest-rank percentile, q in [0, 1]: the ceil(q*n)-th smallest sample
  /// (clamped to the extremes; 0 on an empty histogram). Matches
  /// sorted[min(n-1, ceil(q*n)-1)] exactly while exact() holds; serves the
  /// containing bucket's upper bound after the exact tier spills.
  double percentile(double q) const;

  /// Occupied buckets in ascending bucket order.
  const std::map<i32, u64>& buckets() const { return buckets_; }

  /// {"count":N,"sum":S,"min":m,"max":M,"exact":b,"p50":..,"p95":..,
  ///  "p99":..,"buckets":[[b,n],...]} — the metrics.jsonl shape.
  void to_json(JsonWriter& w) const;

 private:
  u64 count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  bool exact_ = true;
  std::vector<double> samples_;  // sorted while exact_
  std::map<i32, u64> buckets_;
};

/// One roll-up group's metrics: named counters (monotone adds), gauges
/// (high-water marks — the deterministic merge of "current depth" style
/// observations), and histograms.
struct Metrics {
  std::map<std::string, u64> counters;
  std::map<std::string, double> gauges;  // merged by max
  std::map<std::string, Histogram> hists;

  void count(const std::string& name, u64 v = 1) { counters[name] += v; }
  void gauge_max(const std::string& name, double v);
  Histogram& hist(const std::string& name) { return hists[name]; }

  void merge(const Metrics& o);
};

/// Identity of one roll-up group. Ordered so registry iteration (and the
/// metrics.jsonl line order) is deterministic.
struct MetricsKey {
  std::string network;
  std::string shape;  ///< "CxHxW" of the request input
  std::string mode;   ///< "cold" | "warm_replay" | "warm_analytic"
  bool operator<(const MetricsKey& o) const {
    if (network != o.network) return network < o.network;
    if (shape != o.shape) return shape < o.shape;
    return mode < o.mode;
  }
};

/// The per-(network, shape, mode) roll-up. NOT thread-safe: callers merge
/// deltas in a deterministic order under their own lock (TelemetrySink
/// serializes for the serving driver).
class MetricsRegistry {
 public:
  Metrics& group(const MetricsKey& key) { return groups_[key]; }
  void merge(const MetricsKey& key, const Metrics& delta) {
    groups_[key].merge(delta);
  }

  const std::map<MetricsKey, Metrics>& groups() const { return groups_; }

  /// One JSONL line per group:
  /// {"snapshot":k,"network":..,"shape":..,"mode":..,"counters":{..},
  ///  "gauges":{..},"histograms":{..}}
  std::string snapshot_jsonl(u64 snapshot) const;

 private:
  std::map<MetricsKey, Metrics> groups_;
};

}  // namespace kconv::obs
