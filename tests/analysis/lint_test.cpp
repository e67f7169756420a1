// Unit tests of the memory-efficiency linter over synthetic KernelStats:
// each catalog entry trips on a stats profile built to exhibit exactly its
// inefficiency, stays quiet below threshold, and respects the noise floors.
#include "src/analysis/lint.hpp"

#include <gtest/gtest.h>

namespace kconv::analysis {
namespace {

using sim::kepler_k40m;

bool has_kind(const std::vector<Finding>& lints, FindingKind k) {
  for (const Finding& f : lints) {
    if (f.kind == k) return true;
  }
  return false;
}

sim::LaunchConfig block256() {
  sim::LaunchConfig cfg;
  cfg.grid = {1, 1, 1};
  cfg.block = {256, 1, 1};
  return cfg;
}

TEST(Lint, CleanStatsProduceNoFindings) {
  const auto lints = lint_stats(kepler_k40m(), block256(), sim::KernelStats{},
                                sim::TimingEstimate{});
  EXPECT_TRUE(lints.empty());
}

TEST(Lint, ScalarLaneWidthOnWideBanksTrips) {
  const sim::Arch arch = kepler_k40m();  // 8-byte banks
  sim::KernelStats s;
  s.smem_instrs = 1000;
  s.smem_lane_bytes = 1000ull * arch.warp_size * 4;  // scalar floats
  const auto lints = lint_stats(arch, block256(), s, sim::TimingEstimate{});
  ASSERT_TRUE(has_kind(lints, FindingKind::BankWidthMismatch));
  EXPECT_EQ(lints.front().severity, Severity::Warning);
  EXPECT_DOUBLE_EQ(lints.front().value, 4.0);
  EXPECT_FALSE(lints.front().remediation.empty());
}

TEST(Lint, MatchedLaneWidthIsQuiet) {
  const sim::Arch arch = kepler_k40m();
  sim::KernelStats s;
  s.smem_instrs = 1000;
  s.smem_lane_bytes = 1000ull * arch.warp_size * 8;  // float2 units
  const auto lints = lint_stats(arch, block256(), s, sim::TimingEstimate{});
  EXPECT_FALSE(has_kind(lints, FindingKind::BankWidthMismatch));
}

TEST(Lint, ScalarWidthOnFourByteBanksIsMatched) {
  // fermi/maxwell banks are 4 B wide: scalar float traffic already matches.
  const sim::Arch arch = sim::fermi_m2090();
  sim::KernelStats s;
  s.smem_instrs = 1000;
  s.smem_lane_bytes = 1000ull * arch.warp_size * 4;
  const auto lints = lint_stats(arch, block256(), s, sim::TimingEstimate{});
  EXPECT_FALSE(has_kind(lints, FindingKind::BankWidthMismatch));
}

TEST(Lint, TinyLaunchesAreBelowTheNoiseFloor) {
  const sim::Arch arch = kepler_k40m();
  sim::KernelStats s;
  s.smem_instrs = 16;  // < min_smem_instrs
  s.smem_lane_bytes = 16ull * arch.warp_size * 4;
  s.smem_request_cycles = 16 * 32;  // wild conflicts, but too few to judge
  const auto lints = lint_stats(arch, block256(), s, sim::TimingEstimate{});
  EXPECT_TRUE(lints.empty());
}

TEST(Lint, StoreConflictReplaysTripDespiteCleanLoads) {
  const sim::Arch arch = kepler_k40m();
  sim::KernelStats s;
  s.smem_instrs = 1200;
  s.smem_store_instrs = 200;
  // Loads conflict-free; stores replay 16x (the unpadded transposed-store
  // profile). The combined factor (3.5) would survive a naive threshold —
  // the split metric must still attribute it to stores.
  s.smem_request_cycles = 1000 + 200 * 16;
  s.smem_store_request_cycles = 200 * 16;
  s.smem_lane_bytes = 1200ull * arch.warp_size * 8;
  const auto lints = lint_stats(arch, block256(), s, sim::TimingEstimate{});
  ASSERT_TRUE(has_kind(lints, FindingKind::BankConflictReplays));
  EXPECT_DOUBLE_EQ(lints.front().value, 16.0);
  EXPECT_NE(lints.front().message.find("stores"), std::string::npos);
}

TEST(Lint, LoadConflictReplaysTrip) {
  const sim::Arch arch = kepler_k40m();
  sim::KernelStats s;
  s.smem_instrs = 1000;
  s.smem_request_cycles = 8000;  // 8-way load conflicts
  s.smem_lane_bytes = 1000ull * arch.warp_size * 8;
  const auto lints = lint_stats(arch, block256(), s, sim::TimingEstimate{});
  ASSERT_TRUE(has_kind(lints, FindingKind::BankConflictReplays));
  EXPECT_NE(lints.front().message.find("loads"), std::string::npos);
}

TEST(Lint, BoundedBoundaryConflictsStayUnderThreshold) {
  // The shipping general kernel's 2-way column-boundary store conflicts
  // (factor <= 2.0) must not trip the calibrated default.
  const sim::Arch arch = kepler_k40m();
  sim::KernelStats s;
  s.smem_instrs = 1000;
  s.smem_store_instrs = 400;
  s.smem_request_cycles = 600 + 400 * 2;
  s.smem_store_request_cycles = 400 * 2;
  s.smem_lane_bytes = 1000ull * arch.warp_size * 8;
  const auto lints = lint_stats(arch, block256(), s, sim::TimingEstimate{});
  EXPECT_FALSE(has_kind(lints, FindingKind::BankConflictReplays));
}

TEST(Lint, GmOverfetchTrips) {
  const sim::Arch arch = kepler_k40m();
  sim::KernelStats s;
  s.gm_instrs = 1000;
  s.gm_bytes_useful = 1000ull * 128;
  // Each 4 B lane access pulled its own 32 B sector: 8x overfetch.
  s.gm_sectors = 1000ull * 32;
  const auto lints = lint_stats(arch, block256(), s, sim::TimingEstimate{});
  ASSERT_TRUE(has_kind(lints, FindingKind::UncoalescedGmem));
  EXPECT_DOUBLE_EQ(lints.front().value, 8.0);
}

TEST(Lint, CoalescedGmIsQuiet) {
  const sim::Arch arch = kepler_k40m();
  sim::KernelStats s;
  s.gm_instrs = 1000;
  s.gm_bytes_useful = 1000ull * 128;
  s.gm_sectors = 1000ull * 4;  // exactly the 4 sectors a 128 B request needs
  const auto lints = lint_stats(arch, block256(), s, sim::TimingEstimate{});
  EXPECT_FALSE(has_kind(lints, FindingKind::UncoalescedGmem));
}

TEST(Lint, SmemOccupancyCapIsAdvisoryInfo) {
  sim::TimingEstimate t;
  t.occupancy.limiter = sim::OccupancyLimiter::SharedMem;
  t.occupancy.fraction = 0.25;
  const auto lints =
      lint_stats(kepler_k40m(), block256(), sim::KernelStats{}, t);
  ASSERT_TRUE(has_kind(lints, FindingKind::SmemOccupancyCap));
  EXPECT_EQ(lints.front().severity, Severity::Info);
  // Info findings are advisory: a report carrying only them stays clean.
  AnalysisReport rep;
  rep.linted = true;
  rep.lints = lints;
  EXPECT_TRUE(rep.clean());
}

TEST(Lint, LowOccupancyFromOtherLimitersIsQuiet) {
  sim::TimingEstimate t;
  t.occupancy.limiter = sim::OccupancyLimiter::Registers;
  t.occupancy.fraction = 0.25;
  const auto lints =
      lint_stats(kepler_k40m(), block256(), sim::KernelStats{}, t);
  EXPECT_FALSE(has_kind(lints, FindingKind::SmemOccupancyCap));
}

TEST(Lint, SerializedConstantReadsTrip) {
  sim::KernelStats s;
  s.const_instrs = 1000;
  s.const_requests = 4000;  // lanes diverge 4-way on CM addresses
  const auto lints =
      lint_stats(kepler_k40m(), block256(), s, sim::TimingEstimate{});
  ASSERT_TRUE(has_kind(lints, FindingKind::LowCmBroadcast));
  EXPECT_DOUBLE_EQ(lints.front().value, 4.0);
}

TEST(Lint, BroadcastConstantReadsAreQuiet) {
  sim::KernelStats s;
  s.const_instrs = 1000;
  s.const_requests = 1000;
  const auto lints =
      lint_stats(kepler_k40m(), block256(), s, sim::TimingEstimate{});
  EXPECT_FALSE(has_kind(lints, FindingKind::LowCmBroadcast));
}

TEST(Lint, CustomThresholdsArePinnable) {
  sim::KernelStats s;
  s.const_instrs = 1000;
  s.const_requests = 1400;
  LintThresholds th;
  th.const_requests_per_instr = 1.3;
  const auto lints =
      lint_stats(kepler_k40m(), block256(), s, sim::TimingEstimate{}, th);
  ASSERT_TRUE(has_kind(lints, FindingKind::LowCmBroadcast));
  EXPECT_DOUBLE_EQ(lints.front().threshold, 1.3);
}

}  // namespace
}  // namespace kconv::analysis
