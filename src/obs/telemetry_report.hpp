// Serving telemetry roll-up: the `telemetry` report/JSON block and the
// health verdicts derived from it (docs/MODEL.md §11).
#pragma once

#include <string>
#include <vector>

#include "src/common/json.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/scope.hpp"

namespace kconv::obs {

/// Aggregated view of one serving run, assembled by the CLI from ServeStats
/// and the sink. Plain data so tests can build and round-trip it without a
/// serving driver.
struct ServingTelemetry {
  std::string dir;
  u64 events = 0;
  u64 snapshots = 0;
  u64 metric_groups = 0;

  u64 requests = 0;
  u64 batches = 0;
  u64 cold = 0;
  u64 warm = 0;
  u64 analytic = 0;

  u64 conv_launches = 0;
  PlanCacheTaxonomy taxonomy;
  u64 plan_stores = 0;
  u64 plan_evictions = 0;

  u64 fleet_device_chunks = 0;   ///< per-device chunk observations
  u64 comm_bound_devices = 0;    ///< chunks with transfer time > compute time

  u64 max_queue_depth = 0;
  u64 max_inflight_batches = 0;
  u64 arena_peak_bytes = 0;

  Histogram latency_s;  ///< host seconds per request

  /// Fraction of requests that avoided the cold capture path (replay or
  /// analytic fast path).
  double warm_path_ratio() const {
    return requests == 0
               ? 0.0
               : static_cast<double>(requests - cold) /
                     static_cast<double>(requests);
  }
  /// Evictions per store: sustained churn near 1 means the byte budget
  /// cannot hold the working set.
  double eviction_churn() const {
    return plan_stores == 0 ? 0.0
                            : static_cast<double>(plan_evictions) /
                                  static_cast<double>(plan_stores);
  }
};

struct HealthVerdict {
  std::string name;     ///< "warm-path" | "communication" | "plan-churn"
  std::string verdict;  ///< short machine-matchable status
  std::string detail;   ///< paper-cited interpretation
};

/// The three serving health checks with paper-cited interpretations.
std::vector<HealthVerdict> health_verdicts(const ServingTelemetry& t);

/// JSON object for a taxonomy: {"launches":N,"hit":..,...,"stores":S,
/// "evictions":E}. Shared by the serving `plan_cache` block and the
/// `telemetry` block so the two can be cross-checked field by field.
void taxonomy_to_json(JsonWriter& w, const PlanCacheTaxonomy& t, u64 stores,
                      u64 evictions);

/// One health verdict as a JSON object: {"name", "verdict", "detail"}.
void health_to_json(JsonWriter& w, const HealthVerdict& v);

/// The report/JSON `telemetry` block.
void telemetry_to_json(JsonWriter& w, const ServingTelemetry& t);

/// Human-readable health summary for report output.
std::string format_telemetry(const ServingTelemetry& t);

}  // namespace kconv::obs
