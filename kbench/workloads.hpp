// The three benchmark workloads and what they share.
#pragma once

#include <map>
#include <string>

#include "kbench/harness.hpp"

namespace kbench {

struct RunConfig {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Clients of the serve loops and host threads of conv-sweep launches:
  /// min(4, nproc).
  unsigned threads = 4;
  /// Private directory for plan stores and telemetry output; the caller
  /// (run.py) removes it.
  std::string scratch_dir;
  /// Directory of determinism records kept across runs of one build.
  std::string state_dir;
};

/// Set-up is repeated this many times per run and the mean of its faster
/// half reported (conv-sweep's set-up takes ~10 ms, serve's 0.2-0.3 s).
inline constexpr int kConvSetupRepeats = 41;
inline constexpr int kServeSetupRepeats = 7;

/// Latency percentiles reported; p95 needs kMinBeyond samples past it.
inline constexpr double kTailQ = 0.95;
inline constexpr std::size_t kMinBeyond = 10;

Result run_conv_sweep(const RunConfig& cfg);
Result run_serve(const RunConfig& cfg, bool churn);

/// Exact values a run of one (workload, seed) must reproduce, keyed by
/// name. Keys starting with "traced." are produced only by traced runs.
using Record = std::map<std::string, std::string>;

/// Bit-exact text form of a double for records.
std::string exact(double v);

/// Compares `rec` with what earlier runs of the same build, workload and
/// seed recorded under cfg.state_dir, failing `res` on any difference, then
/// stores the union. A run that finds no earlier record only stores.
void check_determinism(const RunConfig& cfg, const Record& rec, Result& res);

}  // namespace kbench
