#include "src/obs/metrics.hpp"

#include <algorithm>
#include <cmath>

namespace kconv::obs {

i32 Histogram::bucket_of(double v) {
  if (!(v > 0.0)) return kUnderflow;
  // Smallest b with 1e-6 * 2^(b/2) >= v. Nudge the log by one ulp-scale
  // epsilon so exact boundary values stay in their own bucket instead of
  // spilling up on platforms whose log2 rounds high.
  double b = 2.0 * std::log2(v / 1e-6);
  i32 up = static_cast<i32>(std::ceil(b - 1e-9));
  if (up < -120) up = -120;
  if (up > 220) up = 220;  // 2^110 s — beyond any modeled time
  return up;
}

double Histogram::bucket_upper(i32 bucket) {
  if (bucket == kUnderflow) return 0.0;
  return 1e-6 * std::pow(2.0, bucket / 2.0);
}

void Histogram::add(double v) {
  ++count_;
  sum_ += v;
  if (count_ == 1) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++buckets_[bucket_of(v)];
  if (exact_) {
    if (samples_.size() < kExactCap) {
      samples_.insert(std::upper_bound(samples_.begin(), samples_.end(), v),
                      v);
    } else {
      exact_ = false;
      samples_.clear();
      samples_.shrink_to_fit();
    }
  }
}

void Histogram::merge(const Histogram& o) {
  if (o.count_ == 0) return;
  if (count_ == 0) {
    min_ = o.min_;
    max_ = o.max_;
  } else {
    min_ = std::min(min_, o.min_);
    max_ = std::max(max_, o.max_);
  }
  count_ += o.count_;
  sum_ += o.sum_;
  for (const auto& [b, n] : o.buckets_) buckets_[b] += n;
  if (exact_ && o.exact_ && samples_.size() + o.samples_.size() <= kExactCap) {
    std::vector<double> merged;
    merged.reserve(samples_.size() + o.samples_.size());
    std::merge(samples_.begin(), samples_.end(), o.samples_.begin(),
               o.samples_.end(), std::back_inserter(merged));
    samples_ = std::move(merged);
  } else {
    exact_ = false;
    samples_.clear();
    samples_.shrink_to_fit();
  }
}

double Histogram::sum() const {
  // While exact, the reported sum is accumulated over the sorted samples —
  // a canonical association order, so merged histograms report the same sum
  // no matter how their deltas were grouped (FP addition does not
  // reassociate for free). After the exact tier spills, the running total
  // stands in; it is still deterministic for a fixed merge order.
  if (!exact_) return sum_;
  double s = 0.0;
  for (double v : samples_) s += v;
  return s;
}

double Histogram::percentile(double q) const {
  if (count_ == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Nearest rank, 0-based: the formula the serving CLI and bench_serving
  // historically applied to their sorted vectors.
  u64 rank = static_cast<u64>(std::ceil(q * static_cast<double>(count_)));
  rank = rank == 0 ? 0 : rank - 1;
  if (rank >= count_) rank = count_ - 1;
  if (exact_) return samples_[rank];
  u64 cum = 0;
  for (const auto& [b, n] : buckets_) {
    cum += n;
    if (cum > rank) {
      // Tightest deterministic bound we still hold for this sample.
      return b == kUnderflow ? min_ : std::min(bucket_upper(b), max_);
    }
  }
  return max_;
}

void Histogram::to_json(JsonWriter& w) const {
  w.begin_object()
      .kv("count", count_)
      .kv("sum", sum())
      .kv("min", min())
      .kv("max", max())
      .kv("exact", exact_)
      .kv("p50", percentile(0.50))
      .kv("p95", percentile(0.95))
      .kv("p99", percentile(0.99))
      .key("buckets")
      .begin_array(JsonWriter::Layout::Line);
  for (const auto& [b, n] : buckets_) {
    w.begin_array().value(b).value(n).end_array();
  }
  w.end_array().end_object();
}

void Metrics::gauge_max(const std::string& name, double v) {
  auto it = gauges.find(name);
  if (it == gauges.end()) {
    gauges[name] = v;
  } else {
    it->second = std::max(it->second, v);
  }
}

void Metrics::merge(const Metrics& o) {
  for (const auto& [k, v] : o.counters) counters[k] += v;
  for (const auto& [k, v] : o.gauges) gauge_max(k, v);
  for (const auto& [k, h] : o.hists) hists[k].merge(h);
}

std::string MetricsRegistry::snapshot_jsonl(u64 snapshot) const {
  std::string out;
  for (const auto& [key, m] : groups_) {
    JsonWriter w;
    w.begin_object(JsonWriter::Layout::Line)
        .kv("snapshot", snapshot)
        .kv("network", key.network)
        .kv("shape", key.shape)
        .kv("mode", key.mode)
        .key("counters")
        .begin_object();
    for (const auto& [k, v] : m.counters) w.kv(k, v);
    w.end_object().key("gauges").begin_object();
    for (const auto& [k, v] : m.gauges) w.kv(k, v);
    w.end_object().key("histograms").begin_object();
    for (const auto& [k, h] : m.hists) {
      w.key(k);
      h.to_json(w);
    }
    w.end_object().end_object();
    out += w.str();
    out += '\n';
  }
  return out;
}

}  // namespace kconv::obs
