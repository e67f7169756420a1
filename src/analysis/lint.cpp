#include "src/analysis/lint.hpp"

#include "src/common/strutil.hpp"

namespace kconv::analysis {

std::vector<Finding> lint_stats(const sim::Arch& arch,
                                const sim::LaunchConfig& cfg,
                                const sim::KernelStats& stats,
                                const sim::TimingEstimate& timing,
                                const LintThresholds& th) {
  // Lints judge the whole launch, so every finding's site is "".
  std::vector<Finding> out;

  // --- bank-width-mismatch (§2.1, Fig. 1; fix per Eq. 1) -------------------
  // Average bytes each lane slot moves per SM instruction: scalar float
  // traffic on an 8-byte-bank arch averages ~4 (half of every bank's cycle
  // wasted); matched float2 traffic averages ~8. Predicated-off lanes count
  // as zero, so the metric dips slightly below the access width — the 0.75
  // fraction absorbs that.
  if (stats.smem_instrs >= th.min_smem_instrs) {
    const double avg_lane_bytes =
        static_cast<double>(stats.smem_lane_bytes) /
        (static_cast<double>(stats.smem_instrs) * arch.warp_size);
    const double floor = th.bank_width_fraction * arch.smem_bank_bytes;
    if (avg_lane_bytes < floor) {
      out.push_back(Finding{
          FindingKind::BankWidthMismatch, "", Severity::Warning, avg_lane_bytes,
          floor,
          strf("average lane access width %.2f B is below the %u B shared-"
               "memory bank width (W_CD < W_SMB)",
               avg_lane_bytes, arch.smem_bank_bytes),
          strf("widen the computation data width to the bank width (Eq. 1: "
               "%u-byte units, e.g. float%u accesses) so each bank cycle "
               "moves a full word — the paper's §2.1/Fig. 1 mechanism",
               arch.smem_bank_bytes, arch.smem_bank_bytes / 4),
          "§2.1, Fig. 1"});
    }
  }

  // --- bank-conflict-replays (§2.1; §4.2 gray box) -------------------------
  // Loads and stores diagnosed separately: the paper's transposed-filter
  // staging conflicts live entirely on the store side and would be diluted
  // by conflict-free loads in a combined average.
  if (stats.smem_instrs >= th.min_smem_instrs) {
    const u64 ld_instrs = stats.smem_instrs - stats.smem_store_instrs;
    const u64 ld_cycles =
        stats.smem_request_cycles - stats.smem_store_request_cycles;
    const double ld_factor =
        ld_instrs == 0 ? 0.0
                       : static_cast<double>(ld_cycles) /
                             static_cast<double>(ld_instrs);
    const double st_factor = stats.smem_store_replay_factor();
    const bool st_trips = st_factor > th.conflict_replay_factor;
    const bool ld_trips = ld_factor > th.conflict_replay_factor;
    if (st_trips || ld_trips) {
      const double worst = st_trips && st_factor >= ld_factor ? st_factor
                                                              : ld_factor;
      out.push_back(Finding{
          FindingKind::BankConflictReplays, "", Severity::Warning, worst,
          th.conflict_replay_factor,
          strf("shared-memory %s replay %.2f request cycles per instruction "
               "(loads %.2f, stores %.2f; 1.0 = conflict-free)",
               st_trips && st_factor >= ld_factor ? "stores" : "loads", worst,
               ld_factor, st_factor),
          "restructure the layout so a warp's lanes hit distinct banks — "
          "e.g. pad transposed rows by one bank word as in the paper's §4.2 "
          "filter staging, or swizzle the leading dimension",
          "§2.1/§4.2"});
    }
  }

  // --- uncoalesced-gmem (§2.2) ---------------------------------------------
  if (stats.gm_instrs >= th.min_gm_instrs) {
    const double overfetch = stats.gm_overfetch(arch.gm_sector_bytes);
    if (overfetch > th.gm_overfetch) {
      out.push_back(Finding{
          FindingKind::UncoalescedGmem, "", Severity::Warning, overfetch,
          th.gm_overfetch,
          strf("global memory moved %.2fx the bytes the lanes asked for "
               "(%u B sector granularity)",
               overfetch, arch.gm_sector_bytes),
          "make warps access contiguous addresses so requests coalesce "
          "into full sectors (§2.2) — reorder the thread-to-data mapping "
          "or stage through shared memory",
          "§2.2"});
    }
  }

  // --- smem-occupancy-cap (§4.3) -------------------------------------------
  // Advisory: the paper's kernels deliberately trade occupancy for reuse;
  // it becomes a problem only when latency can no longer be hidden.
  if (timing.occupancy.limiter == sim::OccupancyLimiter::SharedMem &&
      timing.occupancy.fraction < th.occupancy_fraction) {
    out.push_back(Finding{
        FindingKind::SmemOccupancyCap, "", Severity::Info,
        timing.occupancy.fraction, th.occupancy_fraction,
        strf("shared memory (%u B/block) limits occupancy to %.0f%% of the "
             "SM's warp capacity",
             cfg.shared_bytes, 100.0 * timing.occupancy.fraction),
        "shrink the per-block tile or stage fewer channels at a time "
        "(smaller CSH) so more blocks fit per SM (§4.3's occupancy/reuse "
        "trade-off)",
        "§4.3"});
  }

  // --- low-cm-broadcast (§2.3/§3.3) ----------------------------------------
  if (stats.const_instrs >= th.min_const_instrs) {
    const double rpi = static_cast<double>(stats.const_requests) /
                       static_cast<double>(stats.const_instrs);
    if (rpi > th.const_requests_per_instr) {
      out.push_back(Finding{
          FindingKind::LowCmBroadcast, "", Severity::Warning, rpi,
          th.const_requests_per_instr,
          strf("constant loads serialize into %.2f requests per instruction "
               "(1.0 = full-warp broadcast)",
               rpi),
          "make every lane of a warp read the same constant address per "
          "instruction (loop filters in the same order across lanes, §3.3) "
          "— or move diverging tables to shared memory",
          "§2.3/§3.3"});
    }
  }

  return out;
}

}  // namespace kconv::analysis
