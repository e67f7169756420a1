// Memory-efficiency lints over a launch's aggregate statistics.
//
// Each diagnostic encodes one inefficiency pattern the paper names, with
// the measured metric, the threshold it crossed, and the paper's
// remediation. Thresholds live in LintThresholds so tests can pin them and
// callers can tighten/loosen; the defaults are calibrated so every
// shipping kconv kernel passes clean while each seeded defect in
// tests/analysis/ trips exactly its diagnostic (docs/MODEL.md §6).
#pragma once

#include <vector>

#include "src/analysis/diagnostics.hpp"
#include "src/sim/arch.hpp"
#include "src/sim/config.hpp"
#include "src/sim/stats.hpp"
#include "src/sim/timing.hpp"

namespace kconv::analysis {

struct LintThresholds {
  // Noise floors: a metric computed over fewer instructions than this is
  // not diagnosed (tiny launches prove nothing).
  u64 min_smem_instrs = 32;
  u64 min_gm_instrs = 32;
  u64 min_const_instrs = 32;
  /// bank-width-mismatch: average lane access width below this fraction of
  /// the bank width (W_CD < W_SMB, §2.1 Eq. 1).
  double bank_width_fraction = 0.75;
  /// bank-conflict-replays: SM request cycles per instruction above this
  /// (1.0 = conflict-free; checked separately for loads and stores).
  /// Calibrated above the bounded 2-way column-boundary conflicts the
  /// shipping general kernel keeps even with padded filter rows (stores
  /// 1.4-1.8 across Table 1 shapes) and far below the 15-27x factor of the
  /// unpadded transposed-store defect (§4.2 gray box).
  double conflict_replay_factor = 2.5;
  /// uncoalesced-gmem: sector bytes moved per useful byte above this.
  /// Fully scalar per-lane access measures 8x (4 useful B per 32 B
  /// sector); the shipping general kernel's halo reload plus its by-design
  /// uncoalesced write-back phase (§4's "negligible" store phase) lands at
  /// 2.2-3.2x depending on shape, which must not trip.
  double gm_overfetch = 4.0;
  /// smem-occupancy-cap: warp occupancy below this fraction while shared
  /// memory is the limiter.
  double occupancy_fraction = 0.5;
  /// low-cm-broadcast: serialized CM requests per instruction above this
  /// (1.0 = every constant read a full-warp broadcast).
  double const_requests_per_instr = 1.5;
};

/// Runs every lint over `stats`/`timing` (a Timing-trace launch). Findings
/// come back in catalog order; empty means clean.
std::vector<Finding> lint_stats(const sim::Arch& arch,
                                const sim::LaunchConfig& cfg,
                                const sim::KernelStats& stats,
                                const sim::TimingEstimate& timing,
                                const LintThresholds& th = {});

}  // namespace kconv::analysis
