#include "src/profile/trace_export.hpp"

#include <algorithm>
#include <map>

#include "src/common/json.hpp"
#include "src/common/strutil.hpp"
#include "src/profile/roofline.hpp"

namespace kconv::profile {

namespace {

// Modeled wall time of one slice under the single-block pipe model, in
// microseconds. Sync slices cost barriers * barrier_cost; everything else
// costs its binding pipe. Floored at a tenth of a cycle so zero-cost
// slices stay visible and timestamps stay strictly ordered per track.
double slice_us(const sim::Arch& arch, const PhaseSlice& sl) {
  double cycles;
  if (sl.phase == Phase::Sync) {
    cycles = static_cast<double>(sl.stats.barriers) * arch.barrier_cost;
  } else {
    cycles = phase_pipe_cycles(arch, sl.stats).total;
  }
  cycles = std::max(cycles, 0.1);
  return cycles / (arch.clock_ghz * 1e3);
}

// Opens one trace event: a single-line object inside traceEvents.
JsonWriter& event(JsonWriter& w, std::string_view name, const char* ph,
                  u64 pid) {
  return w.begin_object(JsonWriter::Layout::Line)
      .kv("name", name)
      .kv("ph", ph)
      .kv("pid", pid);
}

// A process_name / thread_name metadata event.
void name_event(JsonWriter& w, const char* what, u64 pid, u64 tid,
                std::string_view label) {
  event(w, what, "M", pid)
      .kv("tid", tid)
      .key("args")
      .begin_object()
      .kv("name", label)
      .end_object()
      .end_object();
}

void counter_event(JsonWriter& w, const char* name, u64 pid, double ts,
                   double value) {
  event(w, name, "C", pid)
      .kv("ts", ts)
      .key("args")
      .begin_object()
      .kv("value", value)
      .end_object()
      .end_object();
}

// Emits one block timeline under `pid` with the given process label.
// Shared by the single-launch export and the unified serving export.
void emit_block_timeline(JsonWriter& w, const sim::Arch& arch,
                         const BlockTimeline& tl, u64 pid,
                         const std::string& label) {
  name_event(w, "process_name", pid, 0, label);
  name_event(w, "thread_name", pid, 0, "phases");
  double ts = 0.0;
  for (const PhaseSlice& sl : tl.slices) {
    const double dur = slice_us(arch, sl);
    const PhaseStats& s = sl.stats;
    event(w, phase_name(sl.phase), "X", pid)
        .kv("tid", 0)
        .kv("ts", ts)
        .kv("dur", dur)
        .key("args")
        .begin_object()
        .kv("gm_sectors", s.gm_sectors)
        .kv("smem_request_cycles", s.smem_request_cycles)
        .kv("const_requests", s.const_requests)
        .kv("fma_lane_ops", s.fma_lane_ops)
        .kv("barriers", s.barriers)
        .end_object()
        .end_object();
    // Average bandwidths over the slice, as counter tracks.
    const double secs = dur * 1e-6;
    counter_event(w, "GM GB/s", pid, ts,
                  static_cast<double>(s.gm_sectors) * arch.gm_sector_bytes /
                      secs / 1e9);
    counter_event(w, "SM GB/s", pid, ts,
                  static_cast<double>(s.smem_bytes) / secs / 1e9);
    ts += dur;
  }
  // Close the counter tracks so the last value has an extent.
  counter_event(w, "GM GB/s", pid, ts, 0.0);
  counter_event(w, "SM GB/s", pid, ts, 0.0);
}

// Opens the trace document; the caller writes events, then end_trace().
void begin_trace(JsonWriter& w) {
  w.begin_object().kv("displayTimeUnit", "ms").key("traceEvents").begin_array();
}

std::string end_trace(JsonWriter& w) {
  w.end_array().end_object();
  return w.str();
}

}  // namespace

std::string chrome_trace_json(const sim::Arch& arch,
                              const LaunchProfile& prof) {
  JsonWriter w;
  begin_trace(w);
  for (const BlockTimeline& tl : prof.timelines) {
    emit_block_timeline(w, arch, tl, tl.seq,
                        strf("block (%u,%u,%u)", tl.block.x, tl.block.y,
                             tl.block.z));
  }
  return end_trace(w);
}

std::string unified_chrome_trace_json(
    const sim::Arch& arch, const std::vector<ServingTraceSpan>& serving,
    const std::vector<DeviceTraceSlice>& devices,
    const std::vector<LabeledTimeline>& blocks) {
  JsonWriter w;
  begin_trace(w);

  // ---- serving tier: pid 0, B/E spans, one lane per thread -------------
  name_event(w, "process_name", 0, 0, "serving");
  std::map<u64, std::vector<const ServingTraceSpan*>> lanes;
  for (const ServingTraceSpan& sp : serving) lanes[sp.lane].push_back(&sp);
  for (auto& [lane, spans] : lanes) {
    name_event(w, "thread_name", 0, lane, spans.front()->lane_name);
    // Spans on a lane nest by construction; sort outer-first (earlier
    // begin, then longer) and emit B/E with an explicit stack so every
    // inner end precedes its enclosing end.
    std::stable_sort(spans.begin(), spans.end(),
                     [](const ServingTraceSpan* a, const ServingTraceSpan* b) {
                       if (a->begin_us != b->begin_us)
                         return a->begin_us < b->begin_us;
                       return a->end_us > b->end_us;
                     });
    std::vector<const ServingTraceSpan*> stack;
    auto close_until = [&](double ts) {
      while (!stack.empty() && stack.back()->end_us <= ts) {
        event(w, stack.back()->name, "E", 0)
            .kv("tid", lane)
            .kv("ts", stack.back()->end_us)
            .end_object();
        stack.pop_back();
      }
    };
    for (const ServingTraceSpan* sp : spans) {
      close_until(sp->begin_us);
      event(w, sp->name, "B", 0)
          .kv("tid", lane)
          .kv("ts", sp->begin_us)
          .end_object();
      stack.push_back(sp);
    }
    close_until(1e300);
  }

  // ---- device tier: pid 100+d, transfer (tid 0) / compute (tid 1) ------
  std::map<u32, std::map<int, std::vector<const DeviceTraceSlice*>>> devs;
  for (const DeviceTraceSlice& sl : devices) {
    devs[sl.device][sl.transfer ? 0 : 1].push_back(&sl);
  }
  for (auto& [dev, tids] : devs) {
    const u64 pid = 100ull + dev;
    name_event(w, "process_name", pid, 0, strf("device %u", dev));
    for (auto& [tid, slices] : tids) {
      name_event(w, "thread_name", pid, tid,
                 tid == 0 ? "transfer" : "compute");
      std::stable_sort(slices.begin(), slices.end(),
                       [](const DeviceTraceSlice* a,
                          const DeviceTraceSlice* b) {
                         return a->begin_us < b->begin_us;
                       });
      for (const DeviceTraceSlice* sl : slices) {
        event(w, sl->name, "X", pid)
            .kv("tid", tid)
            .kv("ts", sl->begin_us)
            .kv("dur", sl->dur_us)
            .key("args")
            .begin_object()
            .kv("bytes", sl->bytes)
            .end_object()
            .end_object();
      }
    }
  }

  // ---- block tier: pid 1000+i, the §7 phase timelines ------------------
  u64 next = 1000;
  for (const LabeledTimeline& lt : blocks) {
    const BlockTimeline& tl = lt.timeline;
    emit_block_timeline(w, arch, tl, next++,
                        strf("block %s (%u,%u,%u)", lt.label.c_str(),
                             tl.block.x, tl.block.y, tl.block.z));
  }

  return end_trace(w);
}

}  // namespace kconv::profile
