// kconv-prof is purely observational: simulation outputs and every
// existing counter must be bit-identical with profiling on or off, in every
// launch mode (serial, parallel, replay, fleet). docs/MODEL.md §7.
// Mirrors tests/analysis/identity_test.cpp for kconv-check.
#include <optional>

#include <gtest/gtest.h>

#include "src/kernels/general_conv.hpp"
#include "src/kernels/implicit_gemm_conv.hpp"
#include "src/kernels/special_conv.hpp"
#include "src/tensor/tensor.hpp"

namespace kconv::profile {
namespace {

void expect_same_stats(const sim::KernelStats& a, const sim::KernelStats& b) {
  EXPECT_EQ(a.fma_lane_ops, b.fma_lane_ops);
  EXPECT_EQ(a.fma_warp_instrs, b.fma_warp_instrs);
  EXPECT_EQ(a.alu_lane_ops, b.alu_lane_ops);
  EXPECT_EQ(a.smem_instrs, b.smem_instrs);
  EXPECT_EQ(a.smem_request_cycles, b.smem_request_cycles);
  EXPECT_EQ(a.smem_bytes, b.smem_bytes);
  EXPECT_EQ(a.smem_lane_bytes, b.smem_lane_bytes);
  EXPECT_EQ(a.smem_store_instrs, b.smem_store_instrs);
  EXPECT_EQ(a.smem_store_request_cycles, b.smem_store_request_cycles);
  EXPECT_EQ(a.gm_instrs, b.gm_instrs);
  EXPECT_EQ(a.gm_sectors, b.gm_sectors);
  EXPECT_EQ(a.gm_sectors_dram, b.gm_sectors_dram);
  EXPECT_EQ(a.gm_bytes_useful, b.gm_bytes_useful);
  EXPECT_EQ(a.const_instrs, b.const_instrs);
  EXPECT_EQ(a.const_requests, b.const_requests);
  EXPECT_EQ(a.const_line_misses, b.const_line_misses);
  EXPECT_EQ(a.barriers, b.barriers);
  EXPECT_EQ(a.gm_phases, b.gm_phases);
  EXPECT_EQ(a.gm_dep_phases, b.gm_dep_phases);
  EXPECT_EQ(a.divergent_retires, b.divergent_retires);
  EXPECT_EQ(a.max_warp_instrs, b.max_warp_instrs);
  EXPECT_EQ(a.blocks_executed, b.blocks_executed);
}

void expect_same_output(const tensor::Tensor& a, const tensor::Tensor& b) {
  ASSERT_EQ(a.size(), b.size());
  for (i64 n = 0; n < a.n(); ++n)
    for (i64 c = 0; c < a.c(); ++c)
      for (i64 y = 0; y < a.h(); ++y)
        for (i64 x = 0; x < a.w(); ++x)
          ASSERT_EQ(a.at(n, c, y, x), b.at(n, c, y, x));
}

struct ModeCase {
  const char* name;
  u32 threads;
  bool replay;
  u32 devices = 1;  // > 1: a fleet launch, sharded along the kernel's axis
};

// The first mode is the serial reference every other mode is held to.
constexpr ModeCase kModes[] = {
    {"serial", 1, false},
    {"parallel", 3, false},
    {"replay", 1, true},
    {"fleet", 2, false, 2},
    {"fleet-replay", 1, true, 3},
};

sim::LaunchOptions mode_options(const ModeCase& m, sim::ShardStrategy shard) {
  sim::LaunchOptions opt;
  opt.num_threads = m.threads;
  opt.replay = m.replay;
  opt.fleet.devices = m.devices;
  opt.fleet.strategy = shard;
  return opt;
}

/// Holds a profiled run to the serial profiled run. Outputs and the
/// scheduling-invariant counters are bit-identical in every mode (the L2
/// and constant-cache warmth pair depends on the chunk partition,
/// docs/MODEL.md §5a). A mode that executes every block also captures the
/// serial (block, seq) timeline list: chunk timelines merge back into
/// launch order even where a channel shard interleaves flat ids across
/// devices. Which blocks replay (and so record no timeline) depends on the
/// partition, so replay modes skip that check.
void expect_matches_serial(const kernels::KernelRun& serial,
                           const kernels::KernelRun& r, const ModeCase& m) {
  ASSERT_TRUE(r.output_valid);
  expect_same_output(serial.output, r.output);
  sim::KernelStats a = serial.launch.stats;
  sim::KernelStats b = r.launch.stats;
  a.gm_sectors_dram = b.gm_sectors_dram = 0;
  a.const_line_misses = b.const_line_misses = 0;
  expect_same_stats(a, b);
  if (m.devices > 1) {
    // Every device owns blocks, so the launch really is split.
    ASSERT_EQ(r.launch.fleet.device_reports.size(), m.devices);
    for (const sim::FleetDeviceReport& d : r.launch.fleet.device_reports) {
      EXPECT_GT(d.blocks, 0u) << "device " << d.device;
    }
  }
  if (m.replay) return;
  const auto& want = serial.launch.profile.timelines;
  const auto& got = r.launch.profile.timelines;
  ASSERT_FALSE(want.empty());
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].seq, got[i].seq) << i;
    EXPECT_EQ(want[i].block.x, got[i].block.x) << i;
    EXPECT_EQ(want[i].block.y, got[i].block.y) << i;
    EXPECT_EQ(want[i].block.z, got[i].block.z) << i;
  }
}

TEST(ProfileIdentity, SpecialConvBitIdenticalWithProfilingOn) {
  Rng rng(7);
  tensor::Tensor img = tensor::Tensor::image(1, 20, 300);
  img.fill_random(rng);
  tensor::Tensor flt = tensor::Tensor::filters(8, 1, 3);
  flt.fill_random(rng);

  std::optional<kernels::KernelRun> serial;
  for (const ModeCase& m : kModes) {
    SCOPED_TRACE(m.name);
    sim::Device dev(sim::kepler_k40m());
    const sim::LaunchOptions off =
        mode_options(m, sim::ShardStrategy::Spatial);
    const auto base = kernels::special_conv(dev, img, flt, {}, off);

    sim::LaunchOptions on = off;
    on.profile = true;
    const auto profiled = kernels::special_conv(dev, img, flt, {}, on);

    expect_same_stats(base.launch.stats, profiled.launch.stats);
    EXPECT_DOUBLE_EQ(base.launch.timing.total_cycles,
                     profiled.launch.timing.total_cycles);
    ASSERT_TRUE(base.output_valid);
    ASSERT_TRUE(profiled.output_valid);
    expect_same_output(base.output, profiled.output);
    // Phase stamps are folded into the replay congruence hash either way,
    // so the class structure must not move when profiling turns on.
    EXPECT_EQ(base.launch.blocks_replayed, profiled.launch.blocks_replayed);
    EXPECT_FALSE(base.launch.profile.enabled);
    EXPECT_TRUE(base.launch.profile.timelines.empty());
    EXPECT_TRUE(profiled.launch.profile.enabled);
    if (!serial) {
      serial = profiled;
    } else {
      expect_matches_serial(*serial, profiled, m);
    }
  }
}

TEST(ProfileIdentity, GeneralConvBitIdenticalWithProfilingOn) {
  Rng rng(11);
  tensor::Tensor img = tensor::Tensor::image(4, 12, 66);
  img.fill_random(rng);
  // 192 filters = three 64-filter groups, so every fleet device owns a
  // channel shard and device timelines interleave in launch order.
  tensor::Tensor flt = tensor::Tensor::filters(192, 4, 3);
  flt.fill_random(rng);

  std::optional<kernels::KernelRun> serial;
  for (const ModeCase& m : kModes) {
    SCOPED_TRACE(m.name);
    sim::Device dev(sim::kepler_k40m());
    const sim::LaunchOptions off =
        mode_options(m, sim::ShardStrategy::Channel);
    const auto base = kernels::general_conv(dev, img, flt, {}, off);

    sim::LaunchOptions on = off;
    on.profile = true;
    const auto profiled = kernels::general_conv(dev, img, flt, {}, on);

    expect_same_stats(base.launch.stats, profiled.launch.stats);
    ASSERT_TRUE(base.output_valid);
    ASSERT_TRUE(profiled.output_valid);
    expect_same_output(base.output, profiled.output);
    EXPECT_EQ(base.launch.blocks_replayed, profiled.launch.blocks_replayed);
    if (!serial) {
      serial = profiled;
    } else {
      expect_matches_serial(*serial, profiled, m);
    }
  }
}

TEST(ProfileIdentity, ImplicitGemmBitIdenticalWithProfilingOn) {
  Rng rng(5);
  tensor::Tensor img = tensor::Tensor::image(2, 14, 30);
  img.fill_random(rng);
  tensor::Tensor flt = tensor::Tensor::filters(16, 2, 3);
  flt.fill_random(rng);

  std::optional<kernels::KernelRun> serial;
  for (const ModeCase& m : kModes) {
    SCOPED_TRACE(m.name);
    sim::Device dev(sim::kepler_k40m());
    const sim::LaunchOptions off = mode_options(m, sim::ShardStrategy::Batch);
    const auto base = kernels::implicit_gemm_conv(dev, img, flt, {}, off);

    sim::LaunchOptions on = off;
    on.profile = true;
    const auto profiled = kernels::implicit_gemm_conv(dev, img, flt, {}, on);

    expect_same_stats(base.launch.stats, profiled.launch.stats);
    ASSERT_TRUE(base.output_valid);
    ASSERT_TRUE(profiled.output_valid);
    expect_same_output(base.output, profiled.output);
    if (!serial) {
      serial = profiled;
    } else {
      expect_matches_serial(*serial, profiled, m);
    }
  }
}

TEST(ProfileIdentity, LaunchProfileEmptyWhenOff) {
  sim::Device dev(sim::kepler_k40m());
  Rng rng(3);
  tensor::Tensor img = tensor::Tensor::image(1, 12, 140);
  img.fill_random(rng);
  tensor::Tensor flt = tensor::Tensor::filters(4, 1, 3);
  flt.fill_random(rng);
  const auto res = kernels::special_conv(dev, img, flt, {}, {});
  EXPECT_FALSE(res.launch.profile.enabled);
  EXPECT_TRUE(res.launch.profile.timelines.empty());
  for (u32 i = 0; i < kNumPhases; ++i)
    EXPECT_TRUE(res.launch.profile.phases.p[i].empty()) << phase_name(
        static_cast<Phase>(i));
  EXPECT_EQ(res.launch.profile.hints.kind, RooflineHints::Kind::None);
}

}  // namespace
}  // namespace kconv::profile
