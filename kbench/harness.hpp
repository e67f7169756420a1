// Workload generation, accounting and reporting for the kconv benchmark.
//
// Everything here is host-side bookkeeping that the self-tests can drive
// without running the simulator: the seeded shape and request generators,
// nearest-rank percentiles, closed-loop accounting, the input-list hash and
// the result printer.
#pragma once

#include <chrono>
#include <string>
#include <vector>

#include "src/common/types.hpp"

namespace kbench {

using kconv::i64;
using kconv::u64;

// ---------------------------------------------------------------------------
// conv-sweep shapes.

/// One convolution drawn from the paper's figure families: input
/// (1, c, n, n), filters (f, c, k, k).
struct ConvShape {
  i64 c = 1, f = 1, k = 1, n = 1;
  int figure = 7;  ///< 7: C=1 special-kernel family, 8: general family
  bool operator==(const ConvShape&) const = default;
};

/// One pass of conv-sweep launches (30). Stratified: every family cell
/// appears twice — Fig. 7 cells K x F = {1,3,5} x {1,16,64} at C = 1, and
/// Fig. 8 cells K x F = {3,5,7} x {64,128} at C = {16,64} or {32,48} — so
/// the seed never moves the family mix or the host cost. It draws the
/// extent of the F = 1 cells (by up to 4%), the order, and the tensor
/// values.
std::vector<ConvShape> draw_shapes(u64 seed);

// ---------------------------------------------------------------------------
// serve-* requests.

/// Networks the serve workloads mix, by index into kNetworks.
inline constexpr const char* kNetworks[] = {"lenet", "vgg-tiny",
                                            "lenet-wide"};
inline constexpr int kNumNetworks = 3;

struct Request {
  int net = 0;   ///< index into kNetworks
  u64 salt = 0;  ///< input salt for serve::make_network_input
  bool operator==(const Request&) const = default;
};

/// Requests per generator block, and how many of each block are lenet-wide
/// (the expensive conv-dominated network). The rest split between lenet
/// and vgg-tiny, 9:10 or 10:9 by seed, so the mix moves a little per seed.
inline constexpr int kBlockRequests = 20;
inline constexpr int kWidePerBlock = 1;
/// Distinct input salts per network (each needs a cold reference run).
inline constexpr u64 kSaltsPerNetwork = 4;

/// The seeded request list: `blocks` generator blocks, each shuffled.
std::vector<Request> draw_requests(u64 seed, int blocks);

// ---------------------------------------------------------------------------
// Closed-loop accounting.

/// Counts operations of one run. Every operation the loop sends ends as
/// exactly one of succeeded or failed.
struct Tally {
  u64 sent = 0;
  u64 succeeded = 0;
  u64 failed = 0;

  void send(u64 n = 1) { sent += n; }
  void done(bool ok) { ok ? ++succeeded : ++failed; }
  bool balanced() const { return sent == succeeded + failed; }
};

/// A closed loop of `clients` clients over a request list: each round sends
/// the next `clients` requests and the clients wait for all replies before
/// sending again. A pass over the list is ceil(size / clients) rounds, the
/// last one short when `clients` does not divide the size; round r is round
/// r mod that of a pass. Returns the list indices round r sends.
std::vector<std::size_t> closed_loop_round(std::size_t list_size,
                                           std::size_t clients, u64 round);

// ---------------------------------------------------------------------------
// Statistics.

/// Nearest-rank percentile (q in (0, 1]) of unsorted samples: the
/// ceil(q * n)-th smallest. Throws when `samples` is empty.
double percentile(std::vector<double> samples, double q);

/// Samples strictly beyond the nearest-rank q-percentile position.
std::size_t samples_beyond(std::size_t n, double q);

/// Fewest samples for which `samples_beyond(n, q) >= beyond`.
std::size_t min_samples_for(double q, std::size_t beyond);

double median(std::vector<double> v);
double geomean(const std::vector<double>& v);

/// Mean of the faster half (rounded up) of repeated timings of one piece of
/// work: other tenants of a shared host only ever slow a repetition down.
/// Throws when `v` is empty.
double faster_half_mean(std::vector<double> v);

// ---------------------------------------------------------------------------
// Host-time samples.

/// Host cost of one entry of a workload's input list (one launch, or one
/// closed-loop round) on one pass over the list.
struct Sample {
  double busy_s = 0.0;  ///< time inside the calls being measured
  u64 ops = 0;          ///< verified operations (launches or requests)
  u64 convs = 0;        ///< verified conv launches
  u64 blocks = 0;       ///< simulator blocks executed
  std::vector<double> latency_s;
};

/// Samples of a run indexed [entry][pass].
using SampleTable = std::vector<std::vector<Sample>>;

/// Host metrics over the samples a run reports: for every entry, the faster
/// half (rounded up) of its passes. Other tenants of a shared host only
/// ever slow a call down, so each entry's fastest repetitions are the ones
/// closest to the program's own cost; every repetition is still verified
/// and counted.
struct HostSummary {
  std::size_t kept = 0;   ///< samples kept
  std::size_t total = 0;  ///< samples taken
  double busy_s = 0.0;
  double ops_per_s = 0.0;
  double convs_per_s = 0.0;
  double blocks_per_s = 0.0;
  std::vector<double> latency_s;  ///< pooled from the kept samples
};
HostSummary summarize(const SampleTable& table);

/// A measured loop runs for at most this many times its --seconds.
inline constexpr double kLoopLimit = 3.0;

/// Whether a measured loop stops at a pass boundary. It needs the time to
/// be up, and then either enough kept latencies for the p95, or a last pass
/// that verified no operation (every output wrong, so more passes add no
/// sample), or the kLoopLimit reached (many wrong outputs or a slow host):
/// a run with wrong outputs still ends and reports them.
bool loop_done(double elapsed_s, double seconds, std::size_t kept_latencies,
               std::size_t min_latencies, bool last_pass_verified);

/// Tells standard error when a loop ended with fewer latencies than the p95
/// needs.
void warn_if_short(std::size_t kept_latencies, std::size_t min_latencies);

// ---------------------------------------------------------------------------
// Hashing and fingerprints.

/// FNV-1a hashes of a generated input list, printed with every result.
u64 hash_shapes(const std::vector<ConvShape>& shapes);
u64 hash_requests(const std::vector<Request>& reqs);

/// Returns freed heap memory to the system (malloc_trim), so repeated
/// set-ups each start from the same allocator state and pay the same page
/// faults a fresh process would.
void release_freed_memory();

/// Starts a new peak-memory window: returns freed heap to the system and
/// resets the kernel's high-water mark to the current resident set, so work
/// done before (oracles, references) falls outside peak_rss_mb(). Throws
/// when /proc/self/clear_refs cannot be written.
void reset_peak_rss();

/// Peak resident set of this process in MB since the last reset_peak_rss()
/// (VmHWM of /proc/self/status).
double peak_rss_mb();

// ---------------------------------------------------------------------------
// Timing.

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Results.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< printed beside the value in the text table only
};

/// One workload run's outcome: what the final JSON line reports.
struct Result {
  Tally tally;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;  ///< one line per failed operation

  void add(std::string name, double value, std::string unit,
           std::string note = {}) {
    metrics.push_back({std::move(name), value, std::move(unit),
                       std::move(note)});
  }
  /// Records a failed check that is not itself a counted operation (a
  /// determinism mismatch, a probe whose output differs).
  void fail_check(std::string what) {
    tally.send();
    tally.done(false);
    errors.push_back(std::move(what));
  }
  bool correct() const { return tally.failed == 0 && tally.balanced(); }
};

/// The result as the single JSON line the benchmark ends with.
std::string result_json(const Result& r);

/// Fixed-width text table of the metrics (name, value, unit, note).
std::string result_table(const Result& r);

}  // namespace kbench
