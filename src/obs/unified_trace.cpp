#include "src/obs/unified_trace.hpp"

#include <algorithm>
#include <map>

#include "src/common/strutil.hpp"

namespace kconv::obs {

std::string unified_trace_json(
    const TelemetrySink& sink, const sim::Arch& arch,
    const std::vector<profile::LabeledTimeline>& blocks) {
  const std::vector<SpanRecord> spans = sink.spans();
  std::map<u64, u64> lane_of;  // trace id -> lane
  std::vector<profile::ServingTraceSpan> serving;
  serving.reserve(spans.size());
  double max_end = 0.0;
  for (const SpanRecord& rec : spans) {
    max_end = std::max(max_end, std::max(rec.begin_us, rec.end_us));
  }
  for (const SpanRecord& rec : spans) {
    profile::ServingTraceSpan sp;
    sp.name = rec.name;
    if (rec.trace == 0) {
      sp.lane = 0;
      sp.lane_name = "batches";
    } else {
      auto it = lane_of.find(rec.trace);
      if (it == lane_of.end()) {
        it = lane_of.emplace(rec.trace, lane_of.size() + 1).first;
      }
      sp.lane = it->second;
      sp.lane_name = strf("request %llu", (unsigned long long)rec.trace);
    }
    sp.begin_us = rec.begin_us;
    // A span still open at export time is closed at the trace horizon so
    // check_trace's "every span closed" invariant holds for the artifact.
    sp.end_us = rec.end_us >= 0.0 ? rec.end_us : max_end;
    serving.push_back(std::move(sp));
  }

  return profile::unified_chrome_trace_json(arch, serving,
                                           sink.device_slices(), blocks);
}

}  // namespace kconv::obs
