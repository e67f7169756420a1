// Equality checks shared by the determinism suites (docs/MODEL.md §5a-§5d,
// §9), plus a runner that puts a launch on a pool worker (§5b's borrowed
// fast-forward helpers).
#pragma once

#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <span>
#include <type_traits>
#include <utility>

#include "src/common/thread_pool.hpp"
#include "src/sim/stats.hpp"

namespace kconv::testsupport {

/// Counters that must match bit for bit whatever the chunk partition or
/// replay mode. Excludes gm_sectors_dram and const_line_misses, which
/// depend on cache warmth (each §5a chunk owns a cold L2 shadow and
/// constant-cache replica); expect_all_stats_equal adds them.
inline void expect_scheduling_invariant_stats(const sim::KernelStats& a,
                                              const sim::KernelStats& b) {
  EXPECT_EQ(a.fma_lane_ops, b.fma_lane_ops);
  EXPECT_EQ(a.fma_warp_instrs, b.fma_warp_instrs);
  EXPECT_EQ(a.alu_lane_ops, b.alu_lane_ops);
  EXPECT_EQ(a.alu_warp_instrs, b.alu_warp_instrs);
  EXPECT_EQ(a.smem_instrs, b.smem_instrs);
  EXPECT_EQ(a.smem_request_cycles, b.smem_request_cycles);
  EXPECT_EQ(a.smem_bytes, b.smem_bytes);
  EXPECT_EQ(a.gm_instrs, b.gm_instrs);
  EXPECT_EQ(a.gm_sectors, b.gm_sectors);
  EXPECT_EQ(a.gm_bytes_useful, b.gm_bytes_useful);
  EXPECT_EQ(a.const_instrs, b.const_instrs);
  EXPECT_EQ(a.const_requests, b.const_requests);
  EXPECT_EQ(a.barriers, b.barriers);
  EXPECT_EQ(a.gm_phases, b.gm_phases);
  EXPECT_EQ(a.gm_dep_phases, b.gm_dep_phases);
  EXPECT_EQ(a.divergent_retires, b.divergent_retires);
  EXPECT_EQ(a.max_warp_instrs, b.max_warp_instrs);
  EXPECT_EQ(a.blocks_executed, b.blocks_executed);
}

/// The scheduling-invariant counters plus the two cache-warmth ones: for
/// launches that probe the same caches in the same order.
inline void expect_all_stats_equal(const sim::KernelStats& a,
                                   const sim::KernelStats& b) {
  expect_scheduling_invariant_stats(a, b);
  EXPECT_EQ(a.gm_sectors_dram, b.gm_sectors_dram);
  EXPECT_EQ(a.const_line_misses, b.const_line_misses);
}

inline void expect_bytes_equal(std::span<const float> a,
                               std::span<const float> b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0);
}

/// Runs `f` as the only chunk of a job on a fresh pool of `threads`
/// workers and returns its result (exceptions propagate). The other
/// workers stay idle, free to join the nested jobs `f` publishes.
template <typename F>
auto run_on_pool_worker(F&& f, u32 threads = 4) {
  std::optional<std::invoke_result_t<F&>> out;
  ThreadPool pool(threads);
  pool.parallel_for(0, 1, 1, [&](u64, u64, u32) { out.emplace(f()); });
  return std::move(*out);
}

}  // namespace kconv::testsupport
