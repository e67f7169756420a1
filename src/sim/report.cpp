#include "src/sim/report.hpp"

#include "src/analysis/report.hpp"
#include "src/common/strutil.hpp"
#include "src/profile/roofline.hpp"

namespace kconv::sim {

namespace {
const char* limiter_name(OccupancyLimiter l) {
  switch (l) {
    case OccupancyLimiter::Threads: return "threads";
    case OccupancyLimiter::SharedMem: return "shared memory";
    case OccupancyLimiter::Registers: return "registers";
    case OccupancyLimiter::Blocks: return "block slots";
  }
  return "?";
}
}  // namespace

std::string format_report(const Arch& arch, const LaunchResult& res) {
  const KernelStats& s = res.stats;
  const TimingEstimate& t = res.timing;
  std::string out;
  out += strf("=== %s ===\n", arch.name.c_str());
  out += strf("blocks: %llu total, %llu executed%s%s\n",
              static_cast<unsigned long long>(res.blocks_total),
              static_cast<unsigned long long>(res.blocks_executed),
              res.sampled ? " (sampled)" : "",
              res.analytic ? " (analytic: outputs not materialized, "
                             "gm/const miss counters approximate)"
                           : "");
  if (!res.plan_cache_status.empty()) {
    out += strf("plan cache: %s (%llu blocks replayed)\n",
                res.plan_cache_status.c_str(),
                static_cast<unsigned long long>(res.blocks_replayed));
  }
  out += strf("time: %.3f ms  (%.0f cycles, %.1f waves)\n", t.seconds * 1e3,
              t.total_cycles, t.waves);
  out += strf("perf: %.1f GFlop/s  (%.1f%% of %.0f GFlop/s peak), bound: %s\n",
              t.gflops, 100.0 * t.sm_efficiency, arch.peak_sp_gflops(),
              t.bound.c_str());
  out += strf("occupancy: %u blocks/SM, %u warps/SM (%.0f%%), limited by %s\n",
              t.occupancy.blocks_per_sm, t.occupancy.warps_per_sm,
              100.0 * t.occupancy.fraction, limiter_name(t.occupancy.limiter));
  out += strf("pipes (SM-cycles/wave): compute %.0f, issue %.0f, smem %.0f, "
              "gmem %.0f, const %.0f, latency floor %.0f\n",
              t.pipe_compute, t.pipe_issue, t.pipe_smem, t.pipe_gmem,
              t.pipe_const, t.latency_floor);
  if (s.smem_instrs > 0) {
    out += strf("smem: %llu instrs, %llu request cycles (replay factor "
                "%.2f), %s moved\n",
                static_cast<unsigned long long>(s.smem_instrs),
                static_cast<unsigned long long>(s.smem_request_cycles),
                s.smem_replay_factor(),
                human_bytes(static_cast<double>(s.smem_bytes)).c_str());
  }
  if (s.gm_instrs > 0) {
    out += strf("gmem: %llu instrs, %llu sectors (%llu DRAM / %llu L2-hit), "
                "overfetch %.2fx, %.1f GB/s DRAM\n",
                static_cast<unsigned long long>(s.gm_instrs),
                static_cast<unsigned long long>(s.gm_sectors),
                static_cast<unsigned long long>(s.gm_sectors_dram),
                static_cast<unsigned long long>(s.gm_sectors -
                                                s.gm_sectors_dram),
                s.gm_overfetch(arch.gm_sector_bytes), t.dram_gbps);
  }
  if (s.const_instrs > 0) {
    out += strf("const: %llu instrs, %llu requests (%.2f per instr), "
                "%llu line misses\n",
                static_cast<unsigned long long>(s.const_instrs),
                static_cast<unsigned long long>(s.const_requests),
                static_cast<double>(s.const_requests) /
                    static_cast<double>(s.const_instrs),
                static_cast<unsigned long long>(s.const_line_misses));
  }
  if (s.pattern_lookups > 0) {
    out += strf("pattern cache: %llu lookups, %llu hits (%.1f%%)\n",
                static_cast<unsigned long long>(s.pattern_lookups),
                static_cast<unsigned long long>(s.pattern_hits),
                100.0 * s.pattern_hit_rate());
  }
  out += strf("fma: %llu lane-ops (%llu warp instrs); divergent retires: "
              "%llu; barriers/block: %.1f\n",
              static_cast<unsigned long long>(s.fma_lane_ops),
              static_cast<unsigned long long>(s.fma_warp_instrs),
              static_cast<unsigned long long>(s.divergent_retires),
              s.blocks_executed
                  ? static_cast<double>(s.barriers) /
                        static_cast<double>(s.blocks_executed)
                  : 0.0);
  if (res.fleet.enabled) {
    const FleetResult& f = res.fleet;
    out += strf("fleet: %u devices, shard=%s, link=%s%s\n", f.devices,
                shard_name(f.strategy), f.interconnect.c_str(),
                f.p2p ? " (p2p)" : "");
    out += strf("fleet time: %.3f ms makespan (compute %.3f ms + transfers "
                "%.3f ms total)\n",
                f.seconds * 1e3, f.compute_seconds * 1e3,
                f.transfer_seconds * 1e3);
    out += strf("fleet traffic: h2d %s, d2h %s, d2d %s\n",
                human_bytes(static_cast<double>(f.h2d_bytes)).c_str(),
                human_bytes(static_cast<double>(f.d2h_bytes)).c_str(),
                human_bytes(static_cast<double>(f.d2d_bytes)).c_str());
    out += strf("fleet bounds: inter-device %.2fx of Demmel-Dinh (%s), "
                "inter-level %.2fx (%s)\n",
                f.interdevice_ratio, f.interdevice_verdict.c_str(),
                f.interlevel_ratio, f.interlevel_verdict.c_str());
    for (const FleetDeviceReport& d : f.device_reports) {
      out += strf("  dev%u: %llu blocks, h2d %s, d2h %s, d2d %s, "
                  "transfer %.3f ms, compute %.3f ms\n",
                  d.device, static_cast<unsigned long long>(d.blocks),
                  human_bytes(static_cast<double>(d.ledger.h2d_bytes)).c_str(),
                  human_bytes(static_cast<double>(d.ledger.d2h_bytes)).c_str(),
                  human_bytes(static_cast<double>(d.ledger.d2d_bytes)).c_str(),
                  d.transfer_seconds * 1e3, d.compute_seconds * 1e3);
    }
  }
  if (res.analysis.hazard_checked || res.analysis.linted) {
    out += analysis::format_analysis(res.analysis);
  }
  if (res.profile.enabled) {
    out += profile::format_profile(arch, res.profile);
  }
  return out;
}

void fleet_to_json(JsonWriter& w, const FleetResult& f) {
  w.begin_object()
      .kv("devices", f.devices)
      .kv("shard", shard_name(f.strategy))
      .kv("interconnect", f.interconnect)
      .kv("p2p", f.p2p)
      .kv("seconds", f.seconds)
      .kv("transfer_seconds", f.transfer_seconds)
      .kv("compute_seconds", f.compute_seconds)
      .kv("h2d_bytes", f.h2d_bytes)
      .kv("d2h_bytes", f.d2h_bytes)
      .kv("d2d_bytes", f.d2d_bytes)
      .kv("interdevice_bound_bytes", f.interdevice_bound_bytes)
      .kv("interdevice_moved_bytes", f.interdevice_moved_bytes)
      .kv("interdevice_ratio", f.interdevice_ratio)
      .kv("interdevice_verdict", f.interdevice_verdict)
      .kv("interlevel_bound_bytes", f.interlevel_bound_bytes)
      .kv("interlevel_moved_bytes", f.interlevel_moved_bytes)
      .kv("interlevel_ratio", f.interlevel_ratio)
      .kv("interlevel_verdict", f.interlevel_verdict)
      .key("device_reports")
      .begin_array();
  for (const FleetDeviceReport& d : f.device_reports) {
    w.begin_object()
        .kv("device", d.device)
        .kv("blocks", d.blocks)
        .kv("h2d_bytes", d.ledger.h2d_bytes)
        .kv("d2h_bytes", d.ledger.d2h_bytes)
        .kv("d2d_bytes", d.ledger.d2d_bytes)
        .kv("transfer_seconds", d.transfer_seconds)
        .kv("compute_seconds", d.compute_seconds)
        .kv("comm_bound_bytes", d.comm_bound_bytes)
        .kv("comm_ratio", d.comm_ratio)
        .end_object();
  }
  w.end_array().end_object();
}

void launch_json_members(JsonWriter& w, const Arch& arch,
                         const LaunchResult& res) {
  const KernelStats& s = res.stats;
  const TimingEstimate& t = res.timing;
  w.kv("arch", arch.name)
      .kv("blocks_total", res.blocks_total)
      .kv("blocks_executed", res.blocks_executed)
      .kv("sampled", res.sampled)
      .kv("analytic", res.analytic)
      .kv("blocks_replayed", res.blocks_replayed);
  if (!res.plan_cache_status.empty()) {
    w.kv("plan_cache_hit", res.plan_cache_hit)
        .kv("plan_cache_status", res.plan_cache_status);
  }
  w.kv("seconds", t.seconds)
      .kv("gflops", t.gflops)
      .kv("bound", t.bound)
      .kv("occupancy_blocks_per_sm", t.occupancy.blocks_per_sm)
      .key("pipes")
      .begin_object()
      .kv("compute", t.pipe_compute)
      .kv("issue", t.pipe_issue)
      .kv("smem", t.pipe_smem)
      .kv("gmem", t.pipe_gmem)
      .kv("const", t.pipe_const)
      .kv("latency_floor", t.latency_floor)
      .end_object()
      .kv("fma_lane_ops", s.fma_lane_ops)
      .kv("smem_instrs", s.smem_instrs)
      .kv("smem_request_cycles", s.smem_request_cycles)
      .kv("smem_lane_bytes", s.smem_lane_bytes)
      .kv("smem_store_instrs", s.smem_store_instrs)
      .kv("smem_store_request_cycles", s.smem_store_request_cycles)
      .kv("gm_sectors", s.gm_sectors)
      .kv("gm_sectors_dram", s.gm_sectors_dram)
      .kv("const_requests", s.const_requests)
      .kv("pattern_lookups", s.pattern_lookups)
      .kv("pattern_hits", s.pattern_hits)
      .kv("barriers", s.barriers);
  if (res.fleet.enabled) {
    w.key("fleet");
    fleet_to_json(w, res.fleet);
  }
  if (res.analysis.hazard_checked || res.analysis.linted) {
    w.key("analysis");
    analysis::to_json(w, res.analysis);
  }
  if (res.profile.enabled) {
    w.key("profile");
    profile::profile_to_json(w, arch, res.profile);
  }
}

std::string to_json(const Arch& arch, const LaunchResult& res) {
  JsonWriter w;
  w.begin_object();
  launch_json_members(w, arch, res);
  w.end_object();
  return w.str();
}

std::string format_brief(const LaunchResult& res) {
  return strf("%8.1f GFlop/s  %8.3f ms  bound=%-7s  smem-replay=%.2f",
              res.timing.gflops, res.timing.seconds * 1e3,
              res.timing.bound.c_str(), res.stats.smem_replay_factor());
}

}  // namespace kconv::sim
