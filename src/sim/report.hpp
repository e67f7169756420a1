// Human-readable rendering of launch results.
#pragma once

#include <string>

#include "src/common/json.hpp"
#include "src/sim/arch.hpp"
#include "src/sim/launch.hpp"

namespace kconv::sim {

/// Multi-line summary: timing, binding pipe, occupancy, traffic breakdown.
std::string format_report(const Arch& arch, const LaunchResult& res);

/// One-line summary (for benchmark tables).
std::string format_brief(const LaunchResult& res);

/// Machine-readable JSON export of a launch's statistics and timing —
/// the hook for external analysis/plotting of simulator runs.
std::string to_json(const Arch& arch, const LaunchResult& res);

/// The members of to_json's object, written into an object the caller has
/// open (the CLI appends its static_analysis block after them).
void launch_json_members(JsonWriter& w, const Arch& arch,
                         const LaunchResult& res);

/// JSON object for a fleet report (the `fleet` block of to_json).
void fleet_to_json(JsonWriter& w, const FleetResult& f);

}  // namespace kconv::sim
