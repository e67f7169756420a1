#include "src/analysis/report.hpp"

#include "src/common/strutil.hpp"

namespace kconv::analysis {

const char* hazard_kind_name(HazardKind k) {
  switch (k) {
    case HazardKind::SmemRaw: return "smem-race-raw";
    case HazardKind::SmemWar: return "smem-race-war";
    case HazardKind::SmemWaw: return "smem-race-waw";
    case HazardKind::SmemIntraWarp: return "smem-race-intra-warp";
    case HazardKind::GmemBlockOverlap: return "gmem-block-overlap";
  }
  return "?";
}

const char* severity_name(Severity s) {
  switch (s) {
    case Severity::Info: return "info";
    case Severity::Warning: return "warning";
    case Severity::Error: return "error";
  }
  return "?";
}

const char* finding_kind_name(FindingKind k) {
  switch (k) {
    case FindingKind::BankWidthMismatch: return "bank-width-mismatch";
    case FindingKind::BankConflictReplays: return "bank-conflict-replays";
    case FindingKind::UncoalescedGmem: return "uncoalesced-gmem";
    case FindingKind::SmemOccupancyCap: return "smem-occupancy-cap";
    case FindingKind::LowCmBroadcast: return "low-cm-broadcast";
    case FindingKind::GmTrafficVsBound: return "gm-traffic-vs-bound";
    case FindingKind::SmemDefiniteRace: return "smem-definite-race";
    case FindingKind::SmemPossibleRace: return "smem-possible-race";
  }
  return "?";
}

std::string format_finding(const Finding& f) {
  return strf("  [%s] %s%s%s: %s (measured %.3g, threshold %.3g%s%s)\n"
              "      fix: %s\n",
              severity_name(f.severity), finding_kind_name(f.kind),
              f.site.empty() ? "" : " at ", f.site.c_str(), f.message.c_str(),
              f.value, f.threshold, f.citation.empty() ? "" : ", ",
              f.citation.c_str(), f.remediation.c_str());
}

void finding_to_json(JsonWriter& w, const Finding& f) {
  w.begin_object()
      .kv("site", f.site)
      .kv("kind", finding_kind_name(f.kind))
      .kv("severity", severity_name(f.severity))
      .kv("value", f.value)
      .kv("threshold", f.threshold)
      .kv("message", f.message)
      .kv("remediation", f.remediation)
      .kv("citation", f.citation)
      .end_object();
}

void dim3_to_json(JsonWriter& w, const sim::Dim3& d) {
  w.begin_array(JsonWriter::Layout::Line)
      .value(d.x)
      .value(d.y)
      .value(d.z)
      .end_array();
}

namespace {

std::string format_hazard(const HazardRecord& r) {
  if (r.kind == HazardKind::GmemBlockOverlap) {
    return strf("  [%s] blocks (%u,%u,%u) and (%u,%u,%u) both write GM "
                "bytes [0x%llx, +%llu)\n",
                hazard_kind_name(r.kind), r.other_block.x, r.other_block.y,
                r.other_block.z, r.block.x, r.block.y, r.block.z,
                static_cast<unsigned long long>(r.addr),
                static_cast<unsigned long long>(r.bytes));
  }
  return strf("  [%s] block (%u,%u,%u) smem byte 0x%llx (epoch %llu): "
              "%s lane %u (warp %u, op #%llu) vs %s lane %u (warp %u, "
              "op #%llu)\n",
              hazard_kind_name(r.kind), r.block.x, r.block.y, r.block.z,
              static_cast<unsigned long long>(r.addr),
              static_cast<unsigned long long>(r.epoch),
              sim::op_name(r.first.op), r.first.lane, r.first.warp,
              static_cast<unsigned long long>(r.first.op_index),
              sim::op_name(r.second.op), r.second.lane, r.second.warp,
              static_cast<unsigned long long>(r.second.op_index));
}

void hazard_op_to_json(JsonWriter& w, const HazardOp& h) {
  w.begin_object()
      .kv("op", sim::op_name(h.op))
      .kv("warp", h.warp)
      .kv("lane", h.lane)
      .kv("round", h.round)
      .kv("op_index", h.op_index)
      .end_object();
}

void hazard_to_json(JsonWriter& w, const HazardRecord& r) {
  const bool gm = r.kind == HazardKind::GmemBlockOverlap;
  w.begin_object().kv("kind", hazard_kind_name(r.kind)).key("block");
  dim3_to_json(w, r.block);
  if (gm) {
    w.key("other_block");
    dim3_to_json(w, r.other_block);
  }
  w.kv("addr", r.addr).kv("bytes", r.bytes);
  if (!gm) {
    w.kv("epoch", r.epoch).key("first");
    hazard_op_to_json(w, r.first);
    w.key("second");
    hazard_op_to_json(w, r.second);
  }
  w.end_object();
}

}  // namespace

std::string format_analysis(const AnalysisReport& rep) {
  std::string out = "=== kconv-check ===\n";
  if (rep.hazard_checked) {
    if (rep.races_total == 0 && rep.gm_overlaps_total == 0) {
      out += strf("hazards: clean (%llu blocks fully checked)\n",
                  static_cast<unsigned long long>(rep.blocks_checked));
    } else {
      out += strf("hazards: %llu shared-memory races, %llu cross-block GM "
                  "overlaps (%llu blocks fully checked)\n",
                  static_cast<unsigned long long>(rep.races_total),
                  static_cast<unsigned long long>(rep.gm_overlaps_total),
                  static_cast<unsigned long long>(rep.blocks_checked));
      for (const HazardRecord& r : rep.hazards) out += format_hazard(r);
      const u64 shown = rep.hazards.size();
      const u64 total = rep.races_total + rep.gm_overlaps_total;
      if (total > shown) {
        out += strf("  ... and %llu more (record cap)\n",
                    static_cast<unsigned long long>(total - shown));
      }
    }
  }
  if (rep.linted) {
    if (rep.lints.empty()) {
      out += "lints: clean\n";
    } else {
      out += strf("lints: %zu finding%s\n", rep.lints.size(),
                  rep.lints.size() == 1 ? "" : "s");
      for (const Finding& f : rep.lints) out += format_finding(f);
    }
  }
  out += strf("verdict: %s\n", rep.clean() ? "PASS" : "FAIL");
  return out;
}

void to_json(JsonWriter& w, const AnalysisReport& rep) {
  w.begin_object()
      .kv("hazard_checked", rep.hazard_checked)
      .kv("linted", rep.linted)
      .kv("clean", rep.clean())
      .kv("blocks_checked", rep.blocks_checked)
      .kv("races_total", rep.races_total)
      .kv("gm_overlaps_total", rep.gm_overlaps_total)
      .key("hazards")
      .begin_array();
  for (const HazardRecord& r : rep.hazards) hazard_to_json(w, r);
  w.end_array().key("lints").begin_array();
  for (const Finding& f : rep.lints) finding_to_json(w, f);
  w.end_array().end_object();
}

}  // namespace kconv::analysis
