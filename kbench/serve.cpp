// serve-warm and serve-churn: a closed loop of clients against one
// ServingDriver with a shared plan store.
//
// Why serve-warm: the store is seeded during set-up with no byte budget, so
// every conv launch is a plan-cache hit. serve, graph, the aux kernels, plan
// load and tape replay carry the load; capture and store do nothing.
//
// Why serve-churn: same requests, but the store's byte budget (512 KiB) is
// below the working set (~2.4 MB, of which lenet-wide alone is ~2.0 MB). A
// lenet-wide request misses, stores and evicts everything else; the next
// lenet and vgg-tiny requests miss, store and evict it again. This is the
// write side of the plan_cache layer, which serve-warm never touches. The
// driver runs churn with one worker, each launch split over the host
// threads instead: concurrent misses on one key would make the store,
// eviction and hit counts depend on thread timing, and the benchmark
// requires them to repeat exactly.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <memory>

#include "kbench/workloads.hpp"
#include "src/core/conv_api.hpp"
#include "src/kernels/gemm_kernels.hpp"
#include "src/kernels/layer_ops.hpp"
#include "src/obs/scope.hpp"
#include "src/serve/serving.hpp"
#include "src/sim/sim.hpp"

namespace kbench {

namespace {

namespace fs = std::filesystem;
namespace serve = kconv::serve;
namespace sim = kconv::sim;
using kconv::tensor::Tensor;

/// Generator blocks per request list (kBlockRequests requests each): enough
/// that the seeded lenet/vgg-tiny split moves the modeled figures by only
/// ~1% between seeds. A pass takes 2-4 s at 4 clients; a run needs 6.
constexpr int kListBlocks = 4;
/// serve-churn's plan-store byte budget; see the file comment.
constexpr kconv::u64 kChurnBudget = 512 * 1024;
/// Rounds of the telemetry A/B probe.
constexpr kconv::u64 kTelemetryRounds = 10;

bool same_bytes(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.flat().data(), b.flat().data(),
                     a.flat().size() * sizeof(float)) == 0;
}

/// The program under test: networks, plan store, driver.
struct Program {
  std::vector<serve::Network> nets;
  std::unique_ptr<sim::PlanCache> store;
  std::unique_ptr<serve::ServingDriver> driver;
};

/// Host parallelism of a workload. serve-warm spreads requests over
/// RunConfig::threads driver workers; serve-churn serves one request at a
/// time and spreads each launch's blocks over as many host threads instead,
/// so plan-store accesses stay in request order.
struct Parallelism {
  unsigned workers = 1;
  unsigned launch_threads = 1;
};

serve::ServeOptions serve_options(sim::PlanCache* store, unsigned workers,
                                  unsigned launch_threads,
                                  kconv::obs::TelemetrySink* sink = nullptr) {
  serve::ServeOptions so;
  so.threads = workers;
  so.plan_cache = store;
  so.fuse = true;
  so.launch.num_threads = launch_threads;
  so.telemetry = sink;
  return so;
}

/// Builds a store in `dir` and seeds it by serving one request of each
/// network, one at a time, each launch over `threads` host threads
/// (lenet-wide first, so under the churn budget the small networks' plans
/// are what survive).
std::unique_ptr<sim::PlanCache> seeded_store(
    const std::string& dir, kconv::u64 budget,
    const std::vector<serve::Network>& nets, unsigned threads) {
  fs::remove_all(dir);
  auto store = std::make_unique<sim::PlanCache>(dir, budget);
  serve::ServingDriver seeder(serve_options(store.get(), 1, threads));
  for (std::size_t n : {2, 0, 1}) {
    seeder.enqueue(nets[n], serve::make_network_input(nets[n]));
  }
  for (const serve::ServeReply& r : seeder.drain()) {
    KCONV_CHECK(r.ok, "plan-store seeding request failed");
  }
  return store;
}

Program set_up(bool churn, const Parallelism& par, unsigned threads,
               const std::string& dir) {
  Program p;
  for (const char* name : kNetworks) {
    p.nets.push_back(serve::make_network(name));
  }
  p.store = seeded_store(dir, churn ? kChurnBudget : 0, p.nets, threads);
  p.driver = std::make_unique<serve::ServingDriver>(
      serve_options(p.store.get(), par.workers, par.launch_threads));
  return p;
}

/// Cold-path reference for one (network, salt): no plan store, no replay.
struct Reference {
  Tensor output;
  double sim_seconds = 0.0;
};

/// Modeled cost of one conv layer of a network, unfused, as a lone launch.
struct ConvModel {
  double gflops = 0.0;
  double speedup_vs_gemm = 0.0;
  kconv::i64 c = 0, f = 0, k = 0, h = 0, w = 0;
};

std::vector<ConvModel> conv_models(const serve::Network& net) {
  std::vector<ConvModel> out;
  const auto shapes = net.graph.shapes();
  const auto& nodes = net.graph.nodes();
  for (const serve::Node& n : nodes) {
    if (n.kind != serve::OpKind::Conv) continue;
    const serve::Shape in = shapes[static_cast<std::size_t>(n.input)];
    Tensor x(1, in.c, in.h, in.w);
    kconv::core::ConvOptions paper;
    sim::Device d1(sim::kepler_k40m());
    const auto pr = kconv::core::conv2d(d1, x, n.filters, paper);
    kconv::core::ConvOptions gemm;
    gemm.algo = kconv::core::Algo::ImplicitGemm;
    gemm.launch.sample_max_blocks = 16;
    sim::Device d2(sim::kepler_k40m());
    const auto gr = kconv::core::conv2d(d2, x, n.filters, gemm);
    out.push_back({pr.effective_gflops, gr.total_seconds / pr.total_seconds,
                   in.c, n.filters.n(), n.filters.h(), in.h, in.w});
  }
  return out;
}

/// Host and modeled cost of one request, walked node by node through the
/// same public calls and options run_graph uses.
struct Walk {
  Tensor output;
  bool output_valid = false;
  double conv_s = 0, bias_relu_s = 0, pool_s = 0, dense_s = 0;
  double hit_conv_s = 0, miss_conv_s = 0;
  kconv::u64 hit_convs = 0, miss_convs = 0;
  double conv_sim_s = 0, aux_sim_s = 0;
  kconv::u64 blocks_total = 0, blocks_replayed = 0, blocks_run = 0;
  kconv::u64 pattern_lookups = 0, pattern_hits = 0;
  double node_s() const { return conv_s + bias_relu_s + pool_s + dense_s; }
};

Walk walk_graph(const serve::Graph& g, const Tensor& input,
                sim::PlanCache* store, unsigned launch_threads) {
  const auto& nodes = g.nodes();
  // run_graph's fusion rule: a conv whose only consumer is the bias+ReLU
  // node right after it absorbs that node.
  std::vector<int> fuse_with(nodes.size(), -1);
  std::vector<bool> absorbed(nodes.size(), false);
  for (std::size_t j = 1; j < nodes.size(); ++j) {
    const serve::Node& n = nodes[j];
    if (n.kind == serve::OpKind::BiasRelu &&
        n.input == static_cast<kconv::i32>(j - 1) &&
        nodes[j - 1].kind == serve::OpKind::Conv &&
        g.consumer_count(n.input) == 1) {
      fuse_with[j - 1] = static_cast<int>(j);
      absorbed[j] = true;
    }
  }
  sim::LaunchOptions aux_lo;
  aux_lo.num_threads = launch_threads;
  sim::LaunchOptions conv_lo = aux_lo;
  conv_lo.replay = true;
  conv_lo.plan_cache = store;

  Walk w;
  sim::Device dev(sim::kepler_k40m());
  std::vector<Tensor> out(nodes.size());
  std::vector<bool> valid(nodes.size(), false);
  const auto account = [&](const sim::LaunchResult& l) {
    w.blocks_total += l.blocks_total;
    w.blocks_replayed += l.blocks_replayed;
    w.blocks_run += l.blocks_executed - l.blocks_replayed;
    w.pattern_lookups += l.stats.pattern_lookups;
    w.pattern_hits += l.stats.pattern_hits;
  };
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const serve::Node& n = nodes[i];
    if (absorbed[i]) continue;
    const auto in_idx = static_cast<std::size_t>(n.input);
    const auto t0 = Clock::now();
    switch (n.kind) {
      case serve::OpKind::Input:
        out[i] = input;
        valid[i] = true;
        break;
      case serve::OpKind::Conv: {
        kconv::core::ConvOptions copt;
        copt.launch = conv_lo;
        const int j = fuse_with[i];
        if (j >= 0) {
          copt.fuse_bias_relu = nodes[static_cast<std::size_t>(j)].bias;
        }
        auto r = kconv::core::conv2d(dev, out[in_idx], n.filters, copt);
        const double s = seconds_since(t0);
        w.conv_s += s;
        if (r.launch.plan_cache_status == "hit") {
          w.hit_conv_s += s;
          ++w.hit_convs;
        } else {
          w.miss_conv_s += s;
          ++w.miss_convs;
        }
        w.conv_sim_s += r.total_seconds;
        account(r.launch);
        const std::size_t dst = j >= 0 ? static_cast<std::size_t>(j) : i;
        valid[dst] = r.output_valid && valid[in_idx];
        out[dst] = std::move(r.output);
        break;
      }
      case serve::OpKind::BiasRelu: {
        auto r = kconv::kernels::bias_relu(dev, out[in_idx], n.bias, aux_lo);
        w.bias_relu_s += seconds_since(t0);
        w.aux_sim_s += r.launch.timing.seconds;
        account(r.launch);
        valid[i] = r.output_valid && valid[in_idx];
        out[i] = std::move(r.output);
        break;
      }
      case serve::OpKind::MaxPool: {
        auto r = kconv::kernels::max_pool_2x2(dev, out[in_idx], aux_lo);
        w.pool_s += seconds_since(t0);
        w.aux_sim_s += r.launch.timing.seconds;
        account(r.launch);
        valid[i] = r.output_valid && valid[in_idx];
        out[i] = std::move(r.output);
        break;
      }
      case serve::OpKind::Dense: {
        kconv::tensor::Matrix x(n.weights.cols, 1);
        const auto flat = out[in_idx].flat();
        std::copy(flat.begin(), flat.begin() + n.weights.cols, x.data.begin());
        auto r = kconv::kernels::gemm(dev, n.weights, x,
                                      kconv::kernels::gemm_magma_mod(), aux_lo);
        Tensor logits(1, n.weights.rows, 1, 1);
        std::copy(r.c.data.begin(), r.c.data.end(), logits.flat().begin());
        w.dense_s += seconds_since(t0);
        w.aux_sim_s += r.launch.timing.seconds;
        account(r.launch);
        valid[i] = r.output_valid && valid[in_idx];
        out[i] = std::move(logits);
        break;
      }
    }
  }
  const auto sink = static_cast<std::size_t>(g.output_node());
  w.output_valid = valid[sink];
  w.output = std::move(out[sink]);
  return w;
}

}  // namespace

Result run_serve(const RunConfig& cfg, bool churn) {
  Result res;
  const std::string store_dir = cfg.scratch_dir + "/plans";

  const Parallelism par = churn ? Parallelism{1, cfg.threads}
                                 : Parallelism{cfg.threads, 1};
  std::vector<double> setup_times;
  Program prog;
  for (int i = 0; i < kServeSetupRepeats; ++i) {
    prog = Program{};  // tear the previous driver down outside the timing
    release_freed_memory();
    const auto t0 = Clock::now();
    prog = set_up(churn, par, cfg.threads, store_dir);
    setup_times.push_back(seconds_since(t0));
  }
  const std::vector<serve::Network>& nets = prog.nets;

  const std::vector<Request> list = draw_requests(cfg.seed, kListBlocks);
  std::printf("requests %zu, hash %016llx, clients %u, driver workers %u, "
              "threads per launch %u\n",
              list.size(),
              static_cast<unsigned long long>(hash_requests(list)),
              cfg.threads, par.workers, par.launch_threads);

  // Inputs and the cold-path references, outside every timed window. The
  // reference driver has no plan store, so it fully executes every launch.
  std::vector<std::vector<Tensor>> inputs(kNumNetworks);
  std::vector<std::vector<Reference>> refs(kNumNetworks);
  {
    serve::ServingDriver cold(
        serve_options(nullptr, cfg.threads, par.launch_threads));
    for (int n = 0; n < kNumNetworks; ++n) {
      for (u64 s = 0; s < kSaltsPerNetwork; ++s) {
        inputs[n].push_back(serve::make_network_input(nets[n], s));
        cold.enqueue(nets[n], inputs[n].back());
      }
    }
    const auto replies = cold.drain();
    for (std::size_t i = 0; i < replies.size(); ++i) {
      KCONV_CHECK(replies[i].ok, "cold reference request failed");
      refs[i / kSaltsPerNetwork].push_back(
          {replies[i].output, replies[i].sim_seconds});
    }
  }
  std::vector<std::vector<ConvModel>> models;
  for (const serve::Network& n : nets) models.push_back(conv_models(n));

  const auto verify = [&](const Request& rq, const serve::ServeReply& r,
                          const char* where) {
    const Reference& ref = refs[rq.net][rq.salt];
    const bool ok = r.ok && same_bytes(r.output, ref.output) &&
                    r.sim_seconds == ref.sim_seconds;
    res.tally.done(ok);
    if (!ok) {
      res.errors.push_back(std::string(where) + ": " + kNetworks[rq.net] +
                           " reply differs from the cold-path reference");
    }
    return ok;
  };

  // The measured closed loop. A round sends one request per client and
  // waits for the drain that answers them all (drain() is the driver's only
  // delivery point and is not reentrant). The loop runs whole passes over
  // the list until loop_done() (the time is up and the samples the run
  // reports, each round's faster half of passes, hold enough latencies for
  // the p95).
  // Counts for the determinism check are taken at the end of the first
  // pass, which is a warm-up: its requests are verified and counted but
  // not sampled, so host caches and lazily built state settle first.
  const std::size_t clients = cfg.threads;
  const u64 rounds_per_pass = (list.size() + clients - 1) / clients;
  const std::size_t min_samples = min_samples_for(kTailQ, kMinBeyond);
  const u64 stores0 = prog.store->stores();
  const u64 evictions0 = prog.store->evictions();
  serve::ServeStats first_pass;
  u64 fp_stores = 0, fp_evictions = 0, fp_disk = 0;
  double fp_sim_s = 0.0;
  std::vector<double> fp_gflops, fp_speedup;
  SampleTable table(rounds_per_pass);
  bool pass_verified = true;
  reset_peak_rss();
  const auto loop_t0 = Clock::now();
  for (u64 round = 0;; ++round) {
    const u64 entry = round % rounds_per_pass, pass = round / rounds_per_pass;
    if (entry == 0) {
      if (pass > 1 && loop_done(seconds_since(loop_t0), cfg.seconds,
                                summarize(table).latency_s.size(),
                                min_samples, pass_verified)) {
        break;
      }
      pass_verified = false;
    }
    const auto idx = closed_loop_round(list.size(), clients, entry);
    const auto t_round = Clock::now();
    std::vector<Clock::time_point> sent;
    for (std::size_t i : idx) {
      const Request& rq = list[i];
      sent.push_back(Clock::now());
      prog.driver->enqueue(nets[rq.net], inputs[rq.net][rq.salt]);
      res.tally.send();
    }
    std::vector<serve::ServeReply> replies;
    try {
      replies = prog.driver->drain();
    } catch (const std::exception& e) {
      res.errors.push_back(std::string("drain threw: ") + e.what());
    }
    const auto t_done = Clock::now();
    Sample x;
    x.busy_s = std::chrono::duration<double>(t_done - t_round).count();
    for (std::size_t m = 0; m < idx.size(); ++m) {
      const Request& rq = list[idx[m]];
      if (m >= replies.size()) {
        res.tally.done(false);
        continue;
      }
      if (!verify(rq, replies[m], "serve loop")) continue;
      pass_verified = true;
      ++x.ops;
      x.convs += models[rq.net].size();
      x.latency_s.push_back(
          std::chrono::duration<double>(t_done - sent[m]).count());
      if (pass == 0) {
        fp_sim_s += replies[m].sim_seconds;
        for (const ConvModel& cm : models[rq.net]) {
          fp_gflops.push_back(cm.gflops);
          fp_speedup.push_back(cm.speedup_vs_gemm);
        }
      }
    }
    if (pass > 0) table[entry].push_back(std::move(x));
    if (round + 1 == rounds_per_pass) {
      first_pass = prog.driver->stats();
      fp_stores = prog.store->stores() - stores0;
      fp_evictions = prog.store->evictions() - evictions0;
      fp_disk = prog.store->disk_bytes();
    }
  }
  const double loop_wall = seconds_since(loop_t0);
  const double peak_mb = peak_rss_mb();

  const kconv::obs::PlanCacheTaxonomy& tax = first_pass.plan_taxonomy;
  const u64 fp_convs = first_pass.conv_launches;
  const double sim_ms = fp_sim_s / static_cast<double>(list.size()) * 1e3;
  const HostSummary host = summarize(table);
  const std::vector<double>& lat = host.latency_s;
  const bool have_lat = !lat.empty();
  warn_if_short(lat.size(), min_samples);
  res.add("setup_s", faster_half_mean(setup_times), "s",
          "networks + driver + plan-store seeding");
  res.add("convs_per_s", host.convs_per_s, "1/s",
          "conv launches of verified requests");
  res.add("req_per_s", host.ops_per_s, "1/s",
          std::to_string(clients) + " clients, " + std::to_string(host.kept) +
              " of " + std::to_string(host.total) + " rounds kept");
  res.add("req_p50_ms", have_lat ? percentile(lat, 0.5) * 1e3 : 0.0, "ms",
          "n=" + std::to_string(lat.size()));
  res.add("req_p95_ms", have_lat ? percentile(lat, kTailQ) * 1e3 : 0.0, "ms",
          std::to_string(samples_beyond(lat.size(), kTailQ)) + " beyond");
  res.add("sim_ms_per_req", sim_ms, "ms", "modeled, first pass");
  res.add("model_gflops", geomean(fp_gflops), "GFlop/s",
          "modeled geomean over " + std::to_string(fp_gflops.size()) +
              " conv launches");
  res.add("model_speedup_vs_gemm", geomean(fp_speedup), "x",
          "modeled; paper reports 5.16x (C=1), 1.355x (general)");
  res.add("peak_rss_mb", peak_mb, "MB", "measured loop");
  std::printf("plan store first pass: %llu conv launches, %llu hit, "
              "%llu miss, %llu stores, %llu evictions, %llu bytes on disk\n",
              static_cast<unsigned long long>(fp_convs),
              static_cast<unsigned long long>(tax.hit),
              static_cast<unsigned long long>(tax.miss_total()),
              static_cast<unsigned long long>(fp_stores),
              static_cast<unsigned long long>(fp_evictions),
              static_cast<unsigned long long>(fp_disk));

  Record rec;
  rec["model.sim_ms_per_req"] = exact(sim_ms);
  rec["model.model_gflops"] = exact(geomean(fp_gflops));
  rec["model.model_speedup_vs_gemm"] = exact(geomean(fp_speedup));
  rec["count.conv_launches"] = std::to_string(fp_convs);
  rec["count.plan_hit"] = std::to_string(tax.hit);
  rec["count.plan_miss"] = std::to_string(tax.miss);
  rec["count.plan_other"] = std::to_string(tax.miss_total() - tax.miss);
  rec["count.stores"] = std::to_string(fp_stores);
  rec["count.evictions"] = std::to_string(fp_evictions);
  rec["count.disk_bytes"] = std::to_string(fp_disk);
  rec["count.batches"] = std::to_string(first_pass.batches);
  rec["count.fused_pairs"] = std::to_string(first_pass.fused_pairs);
  if (!churn && tax.hit != fp_convs) {
    res.fail_check("serve-warm: a conv launch missed the seeded plan store");
  }

  if (cfg.trace) {
    // Layer probe: the first block of requests, one at a time, from a
    // freshly seeded store so the hit/miss pattern repeats exactly. Each
    // request is walked node by node, run through run_graph, and sent as a
    // one-request round.
    const auto probe_t0 = Clock::now();
    auto store = seeded_store(cfg.scratch_dir + "/probe-plans",
                              churn ? kChurnBudget : 0, nets, cfg.threads);
    serve::ServingDriver probe(
        serve_options(store.get(), par.workers, par.launch_threads));
    Walk sum;
    double serve_self = 0.0, graph_self = 0.0, xray_s = 0.0;
    double layer_self = 0.0, request_wall = 0.0;
    u64 xray_calls = 0;
    const auto& arch = sim::kepler_k40m();
    const std::size_t probes = kBlockRequests;
    for (std::size_t i = 0; i < probes; ++i) {
      const Request& rq = list[i];
      const serve::Network& net = nets[rq.net];
      const Tensor& in = inputs[rq.net][rq.salt];
      const Tensor& ref = refs[rq.net][rq.salt].output;

      // Each entry point runs twice, in opposite orders, and the self times
      // use its faster run. The first walk sees the store as the loop's
      // request would, so the hit/miss split and the per-node costs come
      // from it.
      Walk w;
      double walk_s = 1e300, g_s = 1e300, d_s = 1e300;
      for (int rep = 0; rep < 2; ++rep) {
        for (int step = 0; step < 3; ++step) {
          switch (rep == 0 ? step : 2 - step) {
            case 0: {
              Walk wr = walk_graph(net.graph, in, store.get(),
                                   par.launch_threads);
              res.tally.send();
              const bool ok = wr.output_valid && same_bytes(wr.output, ref);
              res.tally.done(ok);
              if (!ok) res.errors.push_back("node walk differs from reference");
              walk_s = std::min(walk_s, wr.node_s());
              if (rep == 0) w = std::move(wr);
              break;
            }
            case 1: {
              serve::GraphRunOptions go;
              go.launch.replay = true;
              go.launch.plan_cache = store.get();
              go.launch.num_threads = par.launch_threads;
              const auto t0 = Clock::now();
              sim::Device dev(arch);
              const serve::GraphRun gr =
                  serve::run_graph(dev, net.graph, in, go);
              g_s = std::min(g_s, seconds_since(t0));
              res.tally.send();
              const bool ok = gr.output_valid && same_bytes(gr.output, ref);
              res.tally.done(ok);
              if (!ok) res.errors.push_back("run_graph differs from reference");
              break;
            }
            default: {
              const auto t0 = Clock::now();
              probe.enqueue(net, in);
              const auto replies = probe.drain();
              d_s = std::min(d_s, seconds_since(t0));
              res.tally.send();
              if (replies.size() == 1) {
                verify(rq, replies[0], "one-request round");
              } else {
                res.tally.done(false);
              }
              // The request's wall as a client sees it, reply checked.
              if (rep == 0) request_wall += seconds_since(t0);
              break;
            }
          }
        }
      }
      serve_self += d_s - g_s;
      graph_self += g_s - walk_s;
      layer_self += (d_s - g_s) + (g_s - walk_s) + w.node_s();
      sum.conv_s += w.conv_s;
      sum.bias_relu_s += w.bias_relu_s;
      sum.pool_s += w.pool_s;
      sum.dense_s += w.dense_s;
      sum.hit_conv_s += w.hit_conv_s;
      sum.miss_conv_s += w.miss_conv_s;
      sum.hit_convs += w.hit_convs;
      sum.miss_convs += w.miss_convs;
      sum.conv_sim_s += w.conv_sim_s;
      sum.aux_sim_s += w.aux_sim_s;
      sum.blocks_total += w.blocks_total;
      sum.blocks_replayed += w.blocks_replayed;
      sum.blocks_run += w.blocks_run;
      sum.pattern_lookups += w.pattern_lookups;
      sum.pattern_hits += w.pattern_hits;

      for (const ConvModel& cm : models[rq.net]) {
        for (int rep = 0; rep < 20; ++rep) {
          const auto tx = Clock::now();
          const auto m = kconv::core::conv2d_xray_model(arch, cm.c, cm.f,
                                                        cm.k, cm.h, cm.w);
          xray_s += seconds_since(tx);
          ++xray_calls;
          if (m.kernel.empty()) res.fail_check("xray model names no kernel");
        }
      }
    }

    // Simulator probes on the networks' conv shapes, unfused, no store.
    double t_timing = 0.0, t_func = 0.0, t_serial = 0.0;
    for (const serve::Network& net : nets) {
      const auto shapes = net.graph.shapes();
      for (const serve::Node& n : net.graph.nodes()) {
        if (n.kind != serve::OpKind::Conv) continue;
        const serve::Shape s = shapes[static_cast<std::size_t>(n.input)];
        const Tensor x = Tensor(1, s.c, s.h, s.w);
        // These launches take about a millisecond: keep the fastest of five.
        const auto time_conv = [&](kconv::core::ConvOptions o) {
          double best = 1e300;
          for (int rep = 0; rep < 5; ++rep) {
            const auto t0 = Clock::now();
            sim::Device dev(arch);
            const auto r = kconv::core::conv2d(dev, x, n.filters, o);
            best = std::min(best, seconds_since(t0));
            res.tally.send();
            res.tally.done(r.output_valid);
            if (!r.output_valid) res.errors.push_back("probe conv invalid");
          }
          return best;
        };
        kconv::core::ConvOptions o;
        o.launch.num_threads = cfg.threads;
        t_timing += time_conv(o);
        o.launch.trace = sim::TraceLevel::Functional;
        t_func += time_conv(o);
        o.launch.trace = sim::TraceLevel::Timing;
        o.launch.num_threads = 1;
        t_serial += time_conv(o);
      }
    }

    // Telemetry A/B: the same rounds through a driver with a TelemetrySink
    // and one without, alternating which goes first.
    double with_sink = 0.0, without_sink = 0.0;
    {
      kconv::obs::TelemetrySink sink(cfg.scratch_dir + "/telemetry");
      serve::ServingDriver plain(
          serve_options(store.get(), par.workers, par.launch_threads));
      serve::ServingDriver traced(serve_options(
          store.get(), par.workers, par.launch_threads, &sink));
      for (u64 r = 0; r < kTelemetryRounds; ++r) {
        const auto idx = closed_loop_round(list.size(), clients, r);
        for (int side = 0; side < 2; ++side) {
          const bool use_sink = (side == 0) == (r % 2 == 0);
          serve::ServingDriver& d = use_sink ? traced : plain;
          const auto t0 = Clock::now();
          for (std::size_t i : idx) {
            d.enqueue(nets[list[i].net], inputs[list[i].net][list[i].salt]);
            res.tally.send();
          }
          const auto replies = d.drain();
          (use_sink ? with_sink : without_sink) += seconds_since(t0);
          for (std::size_t m = 0; m < idx.size(); ++m) {
            if (m < replies.size()) {
              verify(list[idx[m]], replies[m], "telemetry probe");
            } else {
              res.tally.done(false);
            }
          }
        }
      }
    }

    const double probe_wall = seconds_since(probe_t0);

    const double np = static_cast<double>(probes);
    const serve::ServeStats all = prog.driver->stats();
    rec["traced.blocks_replayed"] = std::to_string(sum.blocks_replayed);
    rec["traced.blocks_total"] = std::to_string(sum.blocks_total);
    rec["traced.probe_hit_convs"] = std::to_string(sum.hit_convs);

    res.metrics.clear();
    res.add("serve.self_ms", serve_self / np * 1e3, "ms",
            "one-request drain - run_graph");
    res.add("serve.batches", static_cast<double>(first_pass.batches),
            "count", "first pass");
    res.add("serve.max_queue_depth", static_cast<double>(all.max_queue_depth),
            "count");
    res.add("graph.self_ms", graph_self / np * 1e3, "ms",
            "run_graph - node calls");
    res.add("graph.arena_peak_bytes", static_cast<double>(all.arena_peak_bytes),
            "bytes");
    res.add("graph.fused_pairs",
            static_cast<double>(first_pass.fused_pairs),
            "count", "first pass");
    res.add("kernels.conv_ms", sum.conv_s / np * 1e3, "ms", "per request");
    res.add("kernels.bias_relu_ms", sum.bias_relu_s / np * 1e3, "ms",
            "per request");
    res.add("kernels.pool_ms", sum.pool_s / np * 1e3, "ms", "per request");
    res.add("kernels.dense_ms", sum.dense_s / np * 1e3, "ms", "per request");
    res.add("kernels.conv_sim_us", sum.conv_sim_s / np * 1e6, "us",
            "modeled per request");
    res.add("kernels.aux_sim_us", sum.aux_sim_s / np * 1e6, "us",
            "modeled per request");
    res.add("sim.blocks_per_s",
            sum.node_s() > 0 ? static_cast<double>(sum.blocks_run) /
                                   sum.node_s()
                             : 0.0,
            "1/s", "executed, not replayed");
    res.add("sim.blocks_total", static_cast<double>(sum.blocks_total), "count",
            "probe launches");
    res.add("sim.analyzer_share",
            t_timing > 0 ? (t_timing - t_func) / t_timing : 0.0, "ratio",
            "network conv shapes");
    res.add("sim.pattern_hit_ratio",
            sum.pattern_lookups ? static_cast<double>(sum.pattern_hits) /
                                      static_cast<double>(sum.pattern_lookups)
                                : 0.0,
            "ratio", "base in sim.pattern_lookups");
    res.add("sim.pattern_lookups", static_cast<double>(sum.pattern_lookups),
            "count");
    res.add("sim.parallel_speedup",
            t_timing > 0 ? t_serial / t_timing : 0.0, "x",
            "network conv shapes, 1 vs " + std::to_string(cfg.threads));
    res.add("sim.replay_ratio",
            sum.blocks_total ? static_cast<double>(sum.blocks_replayed) /
                                   static_cast<double>(sum.blocks_total)
                             : 0.0,
            "ratio", "base in sim.blocks_total");
    res.add("plan_cache.hit_ratio",
            fp_convs ? static_cast<double>(tax.hit) /
                           static_cast<double>(fp_convs)
                     : 0.0,
            "ratio", "base in plan_cache.conv_launches");
    res.add("plan_cache.conv_launches", static_cast<double>(fp_convs), "count",
            "first pass");
    res.add("plan_cache.hit_conv_ms",
            sum.hit_convs
                ? sum.hit_conv_s / static_cast<double>(sum.hit_convs) * 1e3
                : 0.0,
            "ms", std::to_string(sum.hit_convs) + " launches");
    res.add("plan_cache.miss_conv_ms",
            sum.miss_convs ? sum.miss_conv_s /
                                 static_cast<double>(sum.miss_convs) * 1e3
                           : 0.0,
            "ms", std::to_string(sum.miss_convs) + " launches");
    res.add("plan_cache.stores", static_cast<double>(fp_stores), "count",
            "first pass");
    res.add("plan_cache.evictions", static_cast<double>(fp_evictions), "count",
            "first pass");
    res.add("plan_cache.disk_bytes", static_cast<double>(fp_disk), "bytes",
            "after first pass");
    res.add("xray.model_us",
            xray_calls ? xray_s / static_cast<double>(xray_calls) * 1e6 : 0.0,
            "us", "per conv shape");
    res.add("obs.telemetry_overhead",
            without_sink > 0 ? with_sink / without_sink : 0.0, "x",
            "drain with / without TelemetrySink");
    res.add("trace.coverage", layer_self / request_wall, "ratio",
            "serve + graph + kernels self time / probed request wall");
    res.add("trace.overhead", (loop_wall + probe_wall) / loop_wall, "x",
            "loop + layer probes / loop");
  }

  check_determinism(cfg, rec, res);
  return res;
}

}  // namespace kbench
