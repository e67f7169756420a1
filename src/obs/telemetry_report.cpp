#include "src/obs/telemetry_report.hpp"

#include "src/common/strutil.hpp"

namespace kconv::obs {

std::vector<HealthVerdict> health_verdicts(const ServingTelemetry& t) {
  std::vector<HealthVerdict> out;

  {
    HealthVerdict v;
    v.name = "warm-path";
    const double r = t.warm_path_ratio();
    if (t.requests == 0) {
      v.verdict = "idle";
      v.detail = "no requests observed";
    } else if (r >= 0.5) {
      v.verdict = "warm";
      v.detail = strf(
          "%.0f%% of requests rode the plan-replay/analytic fast paths "
          "(MODEL.md §5d): steady-state traffic amortizes Li et al.'s "
          "per-launch capture cost (PAPER.md)",
          r * 100.0);
    } else {
      v.verdict = "cold-dominated";
      v.detail = strf(
          "only %.0f%% of requests avoided cold capture: the memory-"
          "efficiency win Li et al. argue for (PAPER.md) is re-paid per "
          "request until the plan store warms",
          r * 100.0);
    }
    out.push_back(std::move(v));
  }

  {
    HealthVerdict v;
    v.name = "communication";
    if (t.fleet_device_chunks == 0) {
      v.verdict = "single-device";
      v.detail = "no fleet device chunks observed";
    } else if (t.comm_bound_devices == 0) {
      v.verdict = "compute-bound";
      v.detail = strf(
          "all %llu device chunks spent more modeled time computing than "
          "moving bytes: traffic stays inside the Demmel-Dinh "
          "communication lower bound regime (PAPERS.md)",
          (unsigned long long)t.fleet_device_chunks);
    } else {
      v.verdict = "communication-bound";
      v.detail = strf(
          "%llu of %llu device chunks were communication-bound (modeled "
          "transfer > compute): per Demmel-Dinh (PAPERS.md), shrink halo "
          "traffic or coarsen the shard before adding devices",
          (unsigned long long)t.comm_bound_devices,
          (unsigned long long)t.fleet_device_chunks);
    }
    out.push_back(std::move(v));
  }

  {
    HealthVerdict v;
    v.name = "plan-churn";
    const double churn = t.eviction_churn();
    if (t.plan_stores == 0) {
      v.verdict = "no-store";
      v.detail = "no plan-cache stores observed";
    } else if (churn > 0.5) {
      v.verdict = "thrashing";
      v.detail = strf(
          "%.2f evictions per store: the byte budget cannot hold the "
          "serving working set, so §5d replay keeps degrading to "
          "re-capture (eviction only costs a re-capture, but sustained "
          "churn forfeits the warm path entirely)",
          churn);
    } else {
      v.verdict = "stable";
      v.detail = strf("%.2f evictions per store: the plan store retains "
                      "the working set",
                      churn);
    }
    out.push_back(std::move(v));
  }

  return out;
}

void taxonomy_to_json(JsonWriter& w, const PlanCacheTaxonomy& t, u64 stores,
                      u64 evictions) {
  w.begin_object()
      .kv("launches", t.total())
      .kv("hit", t.hit)
      .kv("miss", t.miss)
      .kv("corrupt", t.corrupt)
      .kv("corrupt_payload", t.corrupt_payload)
      .kv("stale_version", t.stale_version)
      .kv("stale_key", t.stale_key)
      .kv("stale_arch", t.stale_arch)
      .kv("stale_config", t.stale_config)
      .kv("stale_trace_level", t.stale_trace_level)
      .kv("stale_static_signature", t.stale_static_signature)
      .kv("disabled", t.disabled)
      .kv("unplanned", t.unplanned)
      .kv("stores", stores)
      .kv("evictions", evictions)
      .end_object();
}

void health_to_json(JsonWriter& w, const HealthVerdict& v) {
  w.begin_object()
      .kv("name", v.name)
      .kv("verdict", v.verdict)
      .kv("detail", v.detail)
      .end_object();
}

void telemetry_to_json(JsonWriter& w, const ServingTelemetry& t) {
  w.begin_object()
      .kv("dir", t.dir)
      .kv("events", t.events)
      .kv("snapshots", t.snapshots)
      .kv("metric_groups", t.metric_groups)
      .kv("requests", t.requests)
      .kv("batches", t.batches)
      .kv("cold", t.cold)
      .kv("warm", t.warm)
      .kv("analytic", t.analytic)
      .kv("conv_launches", t.conv_launches)
      .key("plan_cache");
  taxonomy_to_json(w, t.taxonomy, t.plan_stores, t.plan_evictions);
  w.kv("warm_path_ratio", t.warm_path_ratio())
      .kv("eviction_churn", t.eviction_churn())
      .kv("fleet_device_chunks", t.fleet_device_chunks)
      .kv("comm_bound_devices", t.comm_bound_devices)
      .kv("max_queue_depth", t.max_queue_depth)
      .kv("max_inflight_batches", t.max_inflight_batches)
      .kv("arena_peak_bytes", t.arena_peak_bytes)
      .key("latency_s");
  t.latency_s.to_json(w);
  // Health verdicts, machine-checkable.
  w.key("health").begin_array();
  for (const HealthVerdict& v : health_verdicts(t)) health_to_json(w, v);
  w.end_array().end_object();
}

std::string format_telemetry(const ServingTelemetry& t) {
  std::string out;
  out += strf("kconv-scope telemetry -> %s\n", t.dir.c_str());
  out += strf("  events=%llu snapshots=%llu metric-groups=%llu\n",
              (unsigned long long)t.events, (unsigned long long)t.snapshots,
              (unsigned long long)t.metric_groups);
  out += strf("  requests=%llu (cold=%llu warm=%llu analytic=%llu) "
              "launches=%llu\n",
              (unsigned long long)t.requests, (unsigned long long)t.cold,
              (unsigned long long)t.warm, (unsigned long long)t.analytic,
              (unsigned long long)t.conv_launches);
  out += strf("  plan-cache: hit=%llu miss=%llu stale=%llu corrupt=%llu "
              "disabled=%llu unplanned=%llu stores=%llu evictions=%llu\n",
              (unsigned long long)t.taxonomy.hit,
              (unsigned long long)t.taxonomy.miss,
              (unsigned long long)t.taxonomy.stale_total(),
              (unsigned long long)(t.taxonomy.corrupt +
                                   t.taxonomy.corrupt_payload),
              (unsigned long long)t.taxonomy.disabled,
              (unsigned long long)t.taxonomy.unplanned,
              (unsigned long long)t.plan_stores,
              (unsigned long long)t.plan_evictions);
  if (t.latency_s.count() > 0) {
    out += strf("  latency ms: p50=%.3f p95=%.3f p99=%.3f (n=%llu%s)\n",
                t.latency_s.percentile(0.50) * 1e3,
                t.latency_s.percentile(0.95) * 1e3,
                t.latency_s.percentile(0.99) * 1e3,
                (unsigned long long)t.latency_s.count(),
                t.latency_s.exact() ? ", exact" : ", bucketed");
  }
  out += "  health:\n";
  for (const HealthVerdict& v : health_verdicts(t)) {
    out += strf("    %-13s %-19s %s\n", (v.name + ":").c_str(),
                v.verdict.c_str(), v.detail.c_str());
  }
  return out;
}

}  // namespace kconv::obs
