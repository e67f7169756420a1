// The serving driver: request queue, shape batching, and warm fast paths.
//
// A ServingDriver accepts inference requests against named networks,
// groups queued work that targets the same (network, input shape) pair into
// batches, and executes every request of a drain as one work-stealing job on
// its ThreadPool — each request on its own simulated device (requests are
// independent; the simulator is deterministic, so results are byte-identical
// for any worker count). Batches are a grouping for the stats and the
// telemetry; no batch waits for another.
//
// All requests share one PlanCache: the first (cold) request through a
// network captures and persists each conv's launch plan; every later (warm)
// request replays it, and with `analytic` set, warm conv launches take the
// §5d pure-analytic fast path — timing/traffic derived from the stored tape
// with zero representative block execution (such requests return timings but
// no activation data).
//
// Host-parallelism caveat: requests scale with worker threads, but on
// a single-CPU host (the CI runner) `threads > 1` only overlaps scheduling,
// not compute — throughput numbers there reflect one core.
#pragma once

#include <mutex>
#include <vector>

#include "src/common/thread_pool.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/scope.hpp"
#include "src/serve/networks.hpp"
#include "src/sim/plan_cache.hpp"

namespace kconv::serve {

struct ServeOptions {
  /// Worker threads for request-level parallelism (0 = hardware count).
  u32 threads = 1;
  /// Shared across all requests; nullptr serves every request cold.
  sim::PlanCache* plan_cache = nullptr;
  /// Fold conv -> bias+ReLU pairs into the conv write-back.
  bool fuse = true;
  /// Run warm conv launches analytically (timings only, no output data).
  bool analytic = false;
  /// Base launch options for every node (replay, num_threads, profile...).
  sim::LaunchOptions launch;
  /// kconv-scope sink (docs/MODEL.md §11). When set, the driver mints one
  /// trace per request (trace = request id + 1; trace 0 is the driver's
  /// batch lane), spans every queue wait / batch / execution, rolls metrics
  /// up per (network, shape, mode) in request-index order, and snapshots
  /// them after each drain. Purely observational: replies and every
  /// scheduling-invariant counter are byte-identical with this null or set.
  obs::TelemetrySink* telemetry = nullptr;
};

struct ServeReply {
  u64 id = 0;
  bool ok = false;        ///< graph executed and produced valid output
  bool warm = false;      ///< every plan-cached conv launch hit
  bool analytic = false;  ///< conv launches took the analytic fast path
  double sim_seconds = 0.0;   ///< simulated device time of the whole graph
  double host_seconds = 0.0;  ///< wall-clock host time for this request
  tensor::Tensor output;
};

struct ServeStats {
  u64 processed = 0;
  u64 batches = 0;  ///< same-(network, shape) groups executed
  u64 cold = 0, warm = 0, analytic = 0;
  u64 fused_pairs = 0;
  double fusion_gm_bytes_eliminated = 0.0;
  /// Fleet traffic aggregates when ServeOptions::launch.fleet requests
  /// multi-device sharding: modeled staging/halo bytes summed over every
  /// sharded conv launch of every request (docs/MODEL.md §9).
  u64 fleet_h2d_bytes = 0, fleet_d2h_bytes = 0, fleet_d2d_bytes = 0;
  double fleet_transfer_seconds = 0.0;

  /// kconv-scope roll-ups (docs/MODEL.md §11). All scheduling-invariant
  /// except the latency histogram, whose *samples* are wall-clock host
  /// times but whose structure (count, merge order) is index-ordered and
  /// therefore deterministic.
  u64 conv_launches = 0;
  /// §5d plan-cache outcome per conv launch; total() == conv_launches.
  obs::PlanCacheTaxonomy plan_taxonomy;
  u64 fleet_device_chunks = 0;
  u64 comm_bound_devices = 0;  ///< chunks with transfer time > compute time
  u64 arena_slot_reuses = 0;
  u64 arena_peak_bytes = 0;      ///< max over requests
  u64 max_queue_depth = 0;       ///< high-water queued requests
  u64 max_inflight_batches = 0;  ///< high-water batches per drain
  obs::Histogram latency;        ///< host seconds per request
  obs::Histogram sim_latency;    ///< simulated seconds per request
};

class ServingDriver {
 public:
  explicit ServingDriver(ServeOptions opt);

  /// Queues one request; `net` must outlive the drain that serves it.
  /// Returns the request id replies are matched by.
  u64 enqueue(const Network& net, tensor::Tensor input);

  /// Runs every queued request, batching same-(network, shape) work, and
  /// returns replies ordered by request id. Thread-safe against concurrent
  /// enqueue() (requests queued mid-drain wait for the next drain).
  std::vector<ServeReply> drain();

  ServeStats stats() const;
  const ServeOptions& options() const { return opt_; }

 private:
  struct Pending {
    u64 id = 0;
    const Network* net = nullptr;
    tensor::Tensor input;
    u64 request_span = 0;  ///< open from enqueue to reply completion
    u64 queued_span = 0;   ///< open from enqueue to execution start
  };

  ServeOptions opt_;
  /// Drain workers: each claims whole requests and runs their launches
  /// inline. A worker whose own request is done also helps the others'
  /// large replayed blocks fast-forward (docs/MODEL.md §5b), so a drain's
  /// slow request borrows the workers its fast ones released.
  ThreadPool pool_;
  mutable std::mutex mu_;
  std::vector<Pending> queue_;
  u64 next_id_ = 0;
  ServeStats stats_;
};

}  // namespace kconv::serve
