// kbench: runs one kconv benchmark workload.
//
//   kbench --workload conv-sweep|serve-warm|serve-churn --seed N
//          --seconds S --trace 0|1 --scratch DIR --state DIR [--commit ID]
//
// Prints a fingerprint line, the metric table, and as its last line one
// JSON object {"correct", "attempted", "failed", "metrics"}. --trace 0
// reports the end-to-end metrics, --trace 1 the per-layer ones. Exits 1
// when any output was wrong, 2 on bad arguments or a failed set-up.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "kbench/workloads.hpp"

#ifndef KBENCH_BUILD_TYPE
#define KBENCH_BUILD_TYPE "unknown"
#endif
#ifdef __clang__
#define KBENCH_COMPILER "clang " __VERSION__
#else
#define KBENCH_COMPILER "gcc " __VERSION__
#endif

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "kbench: %s\nusage: kbench --workload conv-sweep|serve-warm|"
               "serve-churn --seed N --seconds S --trace 0|1 --scratch DIR "
               "--state DIR [--commit ID]\n",
               why);
  return 2;
}

bool parse_u64(const std::string& s, kconv::u64& out) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos ||
      s.size() > 19) {
    return false;
  }
  out = std::stoull(s);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  kbench::RunConfig cfg;
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  cfg.threads = std::min(4u, nproc);
  std::string commit = "unknown";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    kconv::u64 n = 0;
    if (a == "--workload") {
      cfg.workload = v;
    } else if (a == "--seed") {
      if (!parse_u64(v, n)) return usage("--seed takes a whole number");
      cfg.seed = n;
      have_seed = true;
    } else if (a == "--seconds") {
      if (!parse_u64(v, n) || n < 1 || n > 600) {
        return usage("--seconds takes 1..600");
      }
      cfg.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (a == "--trace") {
      if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
      cfg.trace = v == "1";
      have_trace = true;
    } else if (a == "--scratch") {
      cfg.scratch_dir = v;
    } else if (a == "--state") {
      cfg.state_dir = v;
    } else if (a == "--commit") {
      commit = v;
    } else {
      return usage(("unknown flag " + a).c_str());
    }
  }
  if (cfg.workload != "conv-sweep" && cfg.workload != "serve-warm" &&
      cfg.workload != "serve-churn") {
    return usage("--workload must be conv-sweep, serve-warm or serve-churn");
  }
  if (!have_seed || !have_seconds || !have_trace || cfg.scratch_dir.empty() ||
      cfg.state_dir.empty()) {
    return usage("--seed, --seconds, --trace, --scratch and --state are "
                 "required");
  }
  std::filesystem::create_directories(cfg.scratch_dir);

  std::printf("fingerprint {\"nproc\": %u, \"threads\": %u, \"build_type\": "
              "\"%s\", \"compiler\": \"%s\", \"commit\": \"%s\", "
              "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
              "\"trace\": %d}\n",
              nproc, cfg.threads, KBENCH_BUILD_TYPE, KBENCH_COMPILER,
              commit.c_str(), cfg.workload.c_str(),
              static_cast<unsigned long long>(cfg.seed), cfg.seconds,
              cfg.trace ? 1 : 0);
  std::fflush(stdout);

  kbench::Result res;
  try {
    res = cfg.workload == "conv-sweep"
              ? kbench::run_conv_sweep(cfg)
              : kbench::run_serve(cfg, cfg.workload == "serve-churn");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "kbench: run aborted: %s\n", e.what());
    return 2;
  }

  for (const std::string& e : res.errors) {
    std::fprintf(stderr, "kbench: FAILED %s\n", e.c_str());
  }
  std::printf("%s metrics (%s):\n%s", cfg.workload.c_str(),
              cfg.trace ? "per layer" : "end to end",
              kbench::result_table(res).c_str());
  const double fail_ratio =
      res.tally.sent ? static_cast<double>(res.tally.failed) /
                           static_cast<double>(res.tally.sent)
                     : 0.0;
  std::printf("  %-28s %16.6g %-8s %llu failed / %llu attempted\n",
              "fail_ratio", fail_ratio, "ratio",
              static_cast<unsigned long long>(res.tally.failed),
              static_cast<unsigned long long>(res.tally.sent));
  std::printf("%s\n", kbench::result_json(res).c_str());
  std::fflush(stdout);
  return res.correct() ? 0 : 1;
}
