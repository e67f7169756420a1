// Chrome trace-event / Perfetto export of profiled launches.
#pragma once

#include <string>
#include <vector>

#include "src/common/types.hpp"
#include "src/profile/collector.hpp"
#include "src/sim/arch.hpp"

namespace kconv::profile {

/// Renders the profiled timelines as Chrome trace-event JSON (loadable in
/// ui.perfetto.dev or chrome://tracing). One "process" per recorded block
/// (pid = executed-sequence index), complete ("X") slices for its phases
/// on thread 0 with modeled durations from the roofline pipe model, and
/// per-block counter tracks for GM and SM bandwidth. Timestamps are
/// microseconds of modeled time and monotonically non-decreasing per
/// track.
std::string chrome_trace_json(const sim::Arch& arch,
                              const LaunchProfile& prof);

// ---------------------------------------------------------------------------
// Unified serving trace (docs/MODEL.md §11).
//
// The unified export merges three tiers into one track hierarchy:
//   pid 0            "serving"   — B/E spans, one thread per lane (lane 0 is
//                                  the batch lane, lanes 1.. are requests)
//   pid 100+d        "device d"  — X slices on a transfer and a compute
//                                  thread, priced from each TransferLedger
//   pid 1000+i       "block ..." — the §7 per-block phase timelines
// Inputs are plain structs so callers above the profile layer (obs, CLI)
// can feed it without this library depending on them.
// ---------------------------------------------------------------------------

/// One serving-tier span, already placed on a lane. Spans on a lane must
/// nest (each span's interval is contained in its enclosing span's); the
/// exporter emits them as Chrome B/E pairs in valid order.
struct ServingTraceSpan {
  std::string name;
  u64 lane = 0;           ///< thread id within the serving process
  std::string lane_name;  ///< label for the lane (first writer wins)
  double begin_us = 0.0;
  double end_us = 0.0;
};

/// One priced interval on a device's transfer or compute thread.
struct DeviceTraceSlice {
  u32 device = 0;
  bool transfer = false;  ///< true = transfer lane, false = compute lane
  std::string name;
  double begin_us = 0.0;
  double dur_us = 0.0;
  u64 bytes = 0;  ///< ledger bytes for transfer slices, 0 for compute
};

/// A §7 block timeline with a human label for its process name (typically
/// the graph node that launched it).
struct LabeledTimeline {
  std::string label;
  BlockTimeline timeline;
};

std::string unified_chrome_trace_json(
    const sim::Arch& arch, const std::vector<ServingTraceSpan>& serving,
    const std::vector<DeviceTraceSlice>& devices,
    const std::vector<LabeledTimeline>& blocks);

}  // namespace kconv::profile
