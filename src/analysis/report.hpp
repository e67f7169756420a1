// Rendering of kconv-check results: human-readable text and JSON. The
// Finding renderers serve kconv-xray's static findings too.
#pragma once

#include <string>

#include "src/analysis/diagnostics.hpp"
#include "src/common/json.hpp"

namespace kconv::analysis {

/// Two text lines for one finding: "  [severity] kind[ at site]: message
/// (measured X, threshold Y[, citation])" and its "fix:" line.
std::string format_finding(const Finding& f);

/// One finding as a JSON object: site, kind, severity, value, threshold,
/// message, remediation, citation.
void finding_to_json(JsonWriter& w, const Finding& f);

/// A block/grid index as a single-line [x,y,z] array.
void dim3_to_json(JsonWriter& w, const sim::Dim3& d);

/// Multi-line human summary: verdict, then every recorded hazard and lint.
std::string format_analysis(const AnalysisReport& rep);

/// JSON object with verdict, totals, and the full hazard/lint lists.
void to_json(JsonWriter& w, const AnalysisReport& rep);

}  // namespace kconv::analysis
