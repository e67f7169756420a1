#include "src/serve/serving.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "src/common/strutil.hpp"
#include "src/sim/sim.hpp"

namespace kconv::serve {

ServingDriver::ServingDriver(ServeOptions opt)
    : opt_(std::move(opt)), pool_(opt_.threads) {}

u64 ServingDriver::enqueue(const Network& net, tensor::Tensor input) {
  std::lock_guard<std::mutex> lock(mu_);
  Pending p;
  const u64 id = next_id_++;
  p.id = id;
  p.net = &net;
  p.input = std::move(input);
  if (opt_.telemetry != nullptr) {
    // Trace = request id + 1: trace 0 is the driver's batch lane. The
    // request span stays open until the reply is complete; the queued span
    // closes when a worker picks the request up, making queue wait a
    // first-class interval in the unified trace.
    const u64 trace = id + 1;
    p.request_span = opt_.telemetry->begin_span(
        trace, 0, "serving", "request", [&](JsonWriter& a) {
          a.kv("id", id).kv("network", net.name).kv(
              "shape", strf("%lldx%lldx%lld",
                            static_cast<long long>(p.input.c()),
                            static_cast<long long>(p.input.h()),
                            static_cast<long long>(p.input.w())));
        });
    p.queued_span = opt_.telemetry->begin_span(trace, p.request_span,
                                               "serving", "queued");
  }
  queue_.push_back(std::move(p));
  stats_.max_queue_depth =
      std::max<u64>(stats_.max_queue_depth, queue_.size());
  return id;
}

ServeStats ServingDriver::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::vector<ServeReply> ServingDriver::drain() {
  std::vector<Pending> work;
  {
    std::lock_guard<std::mutex> lock(mu_);
    work.swap(queue_);
  }
  if (work.empty()) return {};

  // Batch by (network, input shape) in first-appearance order.
  struct Batch {
    const Network* net;
    Shape shape;
    std::size_t requests;
  };
  std::vector<Batch> batches;
  for (const Pending& p : work) {
    const Shape s{p.input.c(), p.input.h(), p.input.w()};
    Batch* home = nullptr;
    for (Batch& b : batches) {
      if (b.net == p.net && b.shape == s) {
        home = &b;
        break;
      }
    }
    if (home == nullptr) {
      batches.push_back(Batch{p.net, s, 0});
      home = &batches.back();
    }
    ++home->requests;
  }

  GraphRunOptions gopt;
  gopt.fuse = opt_.fuse;
  gopt.launch = opt_.launch;
  gopt.launch.plan_cache = opt_.plan_cache;
  if (opt_.plan_cache != nullptr) gopt.launch.replay = true;
  gopt.launch.analytic = opt_.analytic;

  obs::TelemetrySink* const sink = opt_.telemetry;
  std::vector<ServeReply> replies(work.size());
  // Per-request counters of the graph run (outputs moved into the replies,
  // node records dropped), merged in request-index order below.
  std::vector<GraphRun> runs(work.size());
  ServeStats delta;
  delta.batches = batches.size();
  delta.max_inflight_batches = batches.size();

  // Every request of the drain runs in one work-stealing job, in queue
  // order, so a round costs its slowest worker rather than the sum of its
  // batches. Batches remain a grouping for the stats and the telemetry:
  // their spans all cover the whole job, and close in reverse so they nest
  // on the driver's lane.
  std::vector<u64> batch_spans;
  if (sink != nullptr) {
    for (const Batch& batch : batches) {
      batch_spans.push_back(sink->begin_span(
          0, 0, "serving",
          strf("batch %s %lldx%lldx%lld", batch.net->name.c_str(),
               static_cast<long long>(batch.shape.c),
               static_cast<long long>(batch.shape.h),
               static_cast<long long>(batch.shape.w)),
          [&](JsonWriter& a) { a.kv("requests", batch.requests); }));
    }
  }
  // One simulated device per request: requests are independent and the
  // simulator is deterministic, so results do not depend on which worker
  // (or how many workers) ran them.
  pool_.parallel_for(0, work.size(), 1, [&](u64 begin, u64 end, u32) {
    for (u64 i = begin; i < end; ++i) {
      const Pending& p = work[i];
      u64 exec_span = 0;
      GraphRunOptions g = gopt;
      if (sink != nullptr) {
        sink->end_span(p.queued_span);
        exec_span =
            sink->begin_span(p.id + 1, p.request_span, "serving", "execute");
        g.launch.telemetry = obs::TelemetryScope{sink, p.id + 1, exec_span};
      }
      const auto t0 = std::chrono::steady_clock::now();
      sim::Device dev(sim::kepler_k40m());
      GraphRun r = run_graph(dev, p.net->graph, p.input, g);
      const auto t1 = std::chrono::steady_clock::now();
      ServeReply& reply = replies[i];
      reply.id = p.id;
      reply.ok = r.output_valid;
      reply.warm = r.warm;
      reply.analytic = r.analytic;
      reply.sim_seconds = r.total_seconds;
      reply.host_seconds = std::chrono::duration<double>(t1 - t0).count();
      reply.output = std::move(r.output);
      r.nodes = {};
      runs[i] = std::move(r);
      if (sink != nullptr) {
        sink->end_span(exec_span);
        sink->end_span(p.request_span);
      }
    }
  });
  if (sink != nullptr) {
    for (auto it = batch_spans.rbegin(); it != batch_spans.rend(); ++it) {
      sink->end_span(*it);
    }
  }
  // Request-index order: every merge below (stats and the telemetry
  // registry alike) is deterministic across worker-thread counts (§5a).
  for (std::size_t i = 0; i < work.size(); ++i) {
    ++delta.processed;
    const char* mode;
    if (replies[i].analytic) {
      ++delta.analytic;
      mode = "warm_analytic";
    } else if (replies[i].warm) {
      ++delta.warm;
      mode = "warm_replay";
    } else {
      ++delta.cold;
      mode = "cold";
    }
    const GraphRun& r = runs[i];
    delta.fused_pairs += r.fused_pairs;
    delta.fusion_gm_bytes_eliminated += r.fusion_gm_bytes_eliminated;
    delta.fleet_h2d_bytes += r.fleet_h2d_bytes;
    delta.fleet_d2h_bytes += r.fleet_d2h_bytes;
    delta.fleet_d2d_bytes += r.fleet_d2d_bytes;
    delta.fleet_transfer_seconds += r.fleet_transfer_seconds;
    delta.conv_launches += r.conv_launches;
    delta.plan_taxonomy += r.plan_taxonomy;
    delta.fleet_device_chunks += r.fleet_device_chunks;
    delta.comm_bound_devices += r.comm_bound_devices;
    delta.arena_slot_reuses += r.arena_slot_reuses;
    delta.arena_peak_bytes =
        std::max(delta.arena_peak_bytes, r.arena_peak_bytes);
    delta.latency.add(replies[i].host_seconds);
    delta.sim_latency.add(replies[i].sim_seconds);
    if (sink != nullptr) {
      obs::MetricsKey key;
      key.network = work[i].net->name;
      key.shape = strf("%lldx%lldx%lld",
                       static_cast<long long>(work[i].input.c()),
                       static_cast<long long>(work[i].input.h()),
                       static_cast<long long>(work[i].input.w()));
      key.mode = mode;
      obs::Metrics m;
      m.count("requests");
      m.count("conv_launches", r.conv_launches);
      m.count("fused_pairs", r.fused_pairs);
      m.count("plan_hit", r.plan_taxonomy.hit);
      m.count("plan_miss", r.plan_taxonomy.miss_total());
      m.count("arena_slot_reuses", r.arena_slot_reuses);
      m.count("fleet_device_chunks", r.fleet_device_chunks);
      m.count("comm_bound_devices", r.comm_bound_devices);
      m.gauge_max("queue_depth", static_cast<double>(work.size()));
      m.gauge_max("inflight_batches", static_cast<double>(batches.size()));
      m.gauge_max("arena_peak_bytes",
                  static_cast<double>(r.arena_peak_bytes));
      m.hist("latency_s").add(replies[i].host_seconds);
      m.hist("sim_s").add(replies[i].sim_seconds);
      sink->merge_metrics(key, m);
    }
  }
  if (sink != nullptr) sink->snapshot_metrics();
  std::sort(replies.begin(), replies.end(),
            [](const ServeReply& a, const ServeReply& b) {
              return a.id < b.id;
            });
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.processed += delta.processed;
    stats_.batches += delta.batches;
    stats_.cold += delta.cold;
    stats_.warm += delta.warm;
    stats_.analytic += delta.analytic;
    stats_.fused_pairs += delta.fused_pairs;
    stats_.fusion_gm_bytes_eliminated += delta.fusion_gm_bytes_eliminated;
    stats_.fleet_h2d_bytes += delta.fleet_h2d_bytes;
    stats_.fleet_d2h_bytes += delta.fleet_d2h_bytes;
    stats_.fleet_d2d_bytes += delta.fleet_d2d_bytes;
    stats_.fleet_transfer_seconds += delta.fleet_transfer_seconds;
    stats_.conv_launches += delta.conv_launches;
    stats_.plan_taxonomy += delta.plan_taxonomy;
    stats_.fleet_device_chunks += delta.fleet_device_chunks;
    stats_.comm_bound_devices += delta.comm_bound_devices;
    stats_.arena_slot_reuses += delta.arena_slot_reuses;
    stats_.arena_peak_bytes =
        std::max(stats_.arena_peak_bytes, delta.arena_peak_bytes);
    stats_.max_inflight_batches =
        std::max(stats_.max_inflight_batches, delta.max_inflight_batches);
    stats_.latency.merge(delta.latency);
    stats_.sim_latency.merge(delta.sim_latency);
  }
  return replies;
}

}  // namespace kconv::serve
