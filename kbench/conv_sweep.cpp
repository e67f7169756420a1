// conv-sweep: the paper's kernels through core::conv2d, fully executed.
//
// Why this workload: the simulator's executor, analyzers and parallel chunk
// path do almost all the work. serve, graph and plan_cache do none, so a
// change to those layers must leave every figure here unchanged.

#include <algorithm>
#include <cstdio>
#include <exception>

#include "kbench/workloads.hpp"
#include "src/common/rng.hpp"
#include "src/core/conv_api.hpp"
#include "src/sim/sim.hpp"
#include "src/tensor/compare.hpp"
#include "src/tensor/conv_ref.hpp"

namespace kbench {

namespace {

using kconv::core::Algo;
using kconv::core::ConvOptions;
using kconv::tensor::Tensor;

struct Case {
  ConvShape shape;
  Tensor input, filters;
};

/// Set-up: draw the shapes and build their input and filter tensors with
/// the library's Tensor and Rng, the only set-up a conv2d caller has.
std::vector<Case> make_cases(u64 seed) {
  std::vector<Case> cases;
  for (const ConvShape& s : draw_shapes(seed)) {
    kconv::Rng rng(seed * 0x9e3779b97f4a7c15ull + hash_shapes({s}));
    Case c{s, Tensor::image(s.c, s.n, s.n), Tensor::filters(s.f, s.c, s.k)};
    c.input.fill_random(rng);
    c.filters.fill_random(rng);
    cases.push_back(std::move(c));
  }
  return cases;
}

/// One conv2d call on a fresh device (the way a caller without a plan store
/// pays for a launch), timed.
kconv::core::ConvResult timed_conv(const Case& c, const ConvOptions& opt,
                                   double& seconds) {
  const auto t0 = Clock::now();
  kconv::sim::Device dev(kconv::sim::kepler_k40m());
  auto r = kconv::core::conv2d(dev, c.input, c.filters, opt);
  seconds = seconds_since(t0);
  return r;
}

}  // namespace

Result run_conv_sweep(const RunConfig& cfg) {
  Result res;

  std::vector<double> setup_times;
  std::vector<Case> cases;
  for (int i = 0; i < kConvSetupRepeats; ++i) {
    cases.clear();
    release_freed_memory();  // every set-up starts from the same heap
    const auto t0 = Clock::now();
    cases = make_cases(cfg.seed);
    setup_times.push_back(seconds_since(t0));
  }
  const std::size_t n_cases = cases.size();
  std::printf("shapes %zu per pass, hash %016llx\n", n_cases,
              static_cast<unsigned long long>(hash_shapes([&] {
                std::vector<ConvShape> v;
                for (const Case& c : cases) v.push_back(c.shape);
                return v;
              }())));

  ConvOptions opt;
  opt.launch.num_threads = cfg.threads;

  // Oracle and modeled baseline, outside every timed window: the CPU
  // reference output of each shape, and the implicit-GEMM time of the same
  // shape from a sampled launch (used only for the modeled ratio).
  std::vector<Tensor> refs;
  std::vector<double> gemm_seconds;
  for (const Case& c : cases) {
    refs.push_back(kconv::tensor::conv2d_reference(c.input, c.filters));
    ConvOptions g = opt;
    g.algo = Algo::ImplicitGemm;
    g.launch.sample_max_blocks = 16;
    kconv::sim::Device dev(kconv::sim::kepler_k40m());
    gemm_seconds.push_back(
        kconv::core::conv2d(dev, c.input, c.filters, g).total_seconds);
  }

  // The measured loop: whole passes over the shape list until loop_done()
  // (the time is up and the samples the run reports, each launch's faster
  // half of passes, are enough for the p95). The first pass is a warm-up:
  // verified and counted, not sampled.
  const std::size_t min_samples = min_samples_for(kTailQ, kMinBeyond);
  SampleTable table(n_cases);
  std::vector<double> model_gflops, model_speedup;
  double sim_ms_sum = 0.0, in_call_s = 0.0;
  u64 pattern_lookups = 0, pattern_hits = 0, first_pass_blocks = 0;
  bool pass_verified = true;
  reset_peak_rss();
  const auto loop_t0 = Clock::now();
  for (u64 pass = 0;; ++pass) {
    if (pass > 1 && loop_done(seconds_since(loop_t0), cfg.seconds,
                              summarize(table).latency_s.size(), min_samples,
                              pass_verified)) {
      break;
    }
    pass_verified = false;
    for (std::size_t ci = 0; ci < n_cases; ++ci) {
      res.tally.send();
      try {
        double s = 0.0;
        const auto r = timed_conv(cases[ci], opt, s);
        in_call_s += s;
        const bool ok = r.output_valid &&
                        r.output.shape() == refs[ci].shape() &&
                        kconv::tensor::allclose(r.output, refs[ci]);
        res.tally.done(ok);
        if (!ok) {
          res.errors.push_back("conv-sweep: output differs from conv_ref");
          continue;
        }
        pass_verified = true;
        if (pass > 0) {
          table[ci].push_back({s, 1, 1, r.launch.blocks_executed, {s}});
        }
        if (pass == 0) {
          model_gflops.push_back(r.effective_gflops);
          model_speedup.push_back(gemm_seconds[ci] / r.total_seconds);
          sim_ms_sum += r.total_seconds * 1e3;
          pattern_lookups += r.launch.stats.pattern_lookups;
          pattern_hits += r.launch.stats.pattern_hits;
          first_pass_blocks += r.launch.blocks_executed;
        }
      } catch (const std::exception& e) {
        res.tally.done(false);
        res.errors.push_back(std::string("conv-sweep: ") + e.what());
      }
    }
  }
  const double loop_wall = seconds_since(loop_t0);
  const double peak_mb = peak_rss_mb();

  const HostSummary host = summarize(table);
  const std::vector<double>& lat = host.latency_s;
  const bool have_lat = !lat.empty();
  warn_if_short(lat.size(), min_samples);
  const double sim_ms_mean = sim_ms_sum / static_cast<double>(n_cases);
  const std::string kept = std::to_string(host.kept) + " of " +
                           std::to_string(host.total) + " samples kept";
  res.add("setup_s", faster_half_mean(setup_times), "s",
          "shape draw + tensors");
  res.add("convs_per_s", host.convs_per_s, "1/s",
          "verified conv2d launches, " + kept);
  res.add("req_per_s", host.ops_per_s, "1/s", "a request is one conv2d call");
  res.add("req_p50_ms", have_lat ? percentile(lat, 0.5) * 1e3 : 0.0, "ms",
          "n=" + std::to_string(lat.size()));
  res.add("req_p95_ms", have_lat ? percentile(lat, kTailQ) * 1e3 : 0.0, "ms",
          std::to_string(samples_beyond(lat.size(), kTailQ)) + " beyond");
  res.add("sim_ms_per_req", sim_ms_mean, "ms", "modeled, first pass");
  res.add("model_gflops", geomean(model_gflops), "GFlop/s",
          "modeled geomean, " + std::to_string(model_gflops.size()) +
              " launches");
  res.add("model_speedup_vs_gemm", geomean(model_speedup), "x",
          "modeled; paper reports 5.16x (C=1), 1.355x (general)");
  res.add("peak_rss_mb", peak_mb, "MB", "measured loop");

  Record rec;
  rec["model.sim_ms_per_req"] = exact(sim_ms_mean);
  rec["model.model_gflops"] = exact(geomean(model_gflops));
  rec["model.model_speedup_vs_gemm"] = exact(geomean(model_speedup));
  rec["count.first_pass_blocks"] = std::to_string(first_pass_blocks);
  rec["count.pattern_lookups"] = std::to_string(pattern_lookups);
  rec["count.pattern_hits"] = std::to_string(pattern_hits);

  if (cfg.trace) {
    // Probes, one launch per distinct shape and setting, outside the loop.
    const auto probe_t0 = Clock::now();
    ConvOptions functional = opt;
    functional.launch.trace = kconv::sim::TraceLevel::Functional;
    ConvOptions serial = opt;
    serial.launch.num_threads = 1;
    double t_timing = 0.0, t_func = 0.0, t_serial = 0.0;
    double xray_s = 0.0;
    u64 xray_calls = 0;
    const auto& arch = kconv::sim::kepler_k40m();
    for (std::size_t ci = 0; ci < n_cases; ++ci) {
      const Case& c = cases[ci];
      double s = 0.0;
      const auto check = [&](const kconv::core::ConvResult& r,
                             const char* what) {
        res.tally.send();
        const bool ok = r.output_valid &&
                        kconv::tensor::allclose(r.output, refs[ci]);
        res.tally.done(ok);
        if (!ok) res.errors.push_back(std::string("conv-sweep probe ") + what);
      };
      check(timed_conv(c, opt, s), "timing");
      t_timing += s;
      check(timed_conv(c, functional, s), "functional");
      t_func += s;
      check(timed_conv(c, serial, s), "serial");
      t_serial += s;
      for (int rep = 0; rep < 20; ++rep) {
        const auto t0 = Clock::now();
        const auto m = kconv::core::conv2d_xray_model(
            arch, c.shape.c, c.shape.f, c.shape.k, c.shape.n, c.shape.n, opt);
        xray_s += seconds_since(t0);
        ++xray_calls;
        if (m.kernel.empty()) res.fail_check("xray model names no kernel");
      }
    }
    const double probe_wall = seconds_since(probe_t0);

    const double per_conv_ms =
        have_lat ? host.busy_s / static_cast<double>(lat.size()) * 1e3 : 0.0;
    res.metrics.clear();
    res.add("serve.self_ms", 0.0, "ms", "no serve layer on conv-sweep");
    res.add("serve.batches", 0.0, "count");
    res.add("serve.max_queue_depth", 0.0, "count");
    res.add("graph.self_ms", 0.0, "ms", "no graph layer on conv-sweep");
    res.add("graph.arena_peak_bytes", 0.0, "bytes");
    res.add("graph.fused_pairs", 0.0, "count");
    res.add("kernels.conv_ms", per_conv_ms, "ms", "host ms per conv2d");
    res.add("kernels.bias_relu_ms", 0.0, "ms");
    res.add("kernels.pool_ms", 0.0, "ms");
    res.add("kernels.dense_ms", 0.0, "ms");
    res.add("kernels.conv_sim_us", sim_ms_mean * 1e3, "us",
            "modeled per conv");
    res.add("kernels.aux_sim_us", 0.0, "us");
    res.add("sim.blocks_per_s", host.blocks_per_s, "1/s", "none replayed");
    res.add("sim.blocks_total", static_cast<double>(first_pass_blocks),
            "count", "first pass");
    res.add("sim.analyzer_share", t_timing > 0 ? (t_timing - t_func) / t_timing
                                               : 0.0,
            "ratio", "(Timing - Functional) / Timing");
    res.add("sim.pattern_hit_ratio",
            pattern_lookups ? static_cast<double>(pattern_hits) /
                                  static_cast<double>(pattern_lookups)
                            : 0.0,
            "ratio", "base in sim.pattern_lookups");
    res.add("sim.pattern_lookups", static_cast<double>(pattern_lookups),
            "count");
    res.add("sim.parallel_speedup",
            t_timing > 0 ? t_serial / t_timing : 0.0, "x",
            "1 vs " + std::to_string(cfg.threads) + " threads");
    res.add("sim.replay_ratio", 0.0, "ratio", "replay off");
    res.add("plan_cache.hit_ratio", 0.0, "ratio", "no plan store");
    res.add("plan_cache.conv_launches", 0.0, "count");
    res.add("plan_cache.hit_conv_ms", 0.0, "ms");
    res.add("plan_cache.miss_conv_ms", 0.0, "ms");
    res.add("plan_cache.stores", 0.0, "count");
    res.add("plan_cache.evictions", 0.0, "count");
    res.add("plan_cache.disk_bytes", 0.0, "bytes");
    res.add("xray.model_us",
            xray_calls ? xray_s / static_cast<double>(xray_calls) * 1e6 : 0.0,
            "us", "per conv shape");
    res.add("obs.telemetry_overhead", 0.0, "x", "not measured on conv-sweep");
    res.add("trace.coverage", in_call_s / loop_wall, "ratio",
            "conv2d (kernels) self time / loop wall");
    res.add("trace.overhead", (loop_wall + probe_wall) / loop_wall, "x",
            "loop + layer probes / loop");
  }

  check_determinism(cfg, rec, res);
  return res;
}

}  // namespace kbench
