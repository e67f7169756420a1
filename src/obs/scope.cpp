#include "src/obs/scope.hpp"

#include <chrono>
#include <filesystem>

#include "src/common/error.hpp"
#include "src/common/strutil.hpp"

namespace kconv::obs {

namespace fs = std::filesystem;

void PlanCacheTaxonomy::add(const std::string& status, u64 n) {
  if (status.empty() || status == "unplanned") {
    unplanned += n;
  } else if (status == "hit") {
    hit += n;
  } else if (status == "miss") {
    miss += n;
  } else if (status == "corrupt") {
    corrupt += n;
  } else if (status == "corrupt-payload") {
    corrupt_payload += n;
  } else if (status == "stale-version") {
    stale_version += n;
  } else if (status == "stale-key") {
    stale_key += n;
  } else if (status == "stale-arch") {
    stale_arch += n;
  } else if (status == "stale-config") {
    stale_config += n;
  } else if (status == "stale-trace-level") {
    stale_trace_level += n;
  } else if (status == "stale-static-signature") {
    stale_static_signature += n;
  } else if (status == "disabled") {
    disabled += n;
  } else {
    corrupt += n;
  }
}

u64 PlanCacheTaxonomy::total() const {
  return hit + miss + corrupt + corrupt_payload + stale_version + stale_key +
         stale_arch + stale_config + stale_trace_level +
         stale_static_signature + disabled + unplanned;
}

PlanCacheTaxonomy& PlanCacheTaxonomy::operator+=(const PlanCacheTaxonomy& o) {
  hit += o.hit;
  miss += o.miss;
  corrupt += o.corrupt;
  corrupt_payload += o.corrupt_payload;
  stale_version += o.stale_version;
  stale_key += o.stale_key;
  stale_arch += o.stale_arch;
  stale_config += o.stale_config;
  stale_trace_level += o.stale_trace_level;
  stale_static_signature += o.stale_static_signature;
  disabled += o.disabled;
  unplanned += o.unplanned;
  return *this;
}

namespace {

// Opens one events.jsonl record; the caller adds its fields and ts_us, and
// write_line closes it.
JsonWriter event(const char* ev, u64 trace, u64 span) {
  JsonWriter w;
  w.begin_object(JsonWriter::Layout::Line)
      .kv("ev", ev)
      .kv("trace", trace)
      .kv("span", span);
  return w;
}

}  // namespace

TelemetrySink::TelemetrySink(std::string dir) : dir_(std::move(dir)) {
  KCONV_CHECK(!dir_.empty(), "telemetry output directory path is empty");
  std::error_code ec;
  fs::create_directories(dir_, ec);
  KCONV_CHECK(!ec && fs::is_directory(dir_, ec),
              strf("telemetry path '%s' is not a usable directory",
                   dir_.c_str()));
  const std::string events_path = dir_ + "/events.jsonl";
  events_ = std::fopen(events_path.c_str(), "wb");
  KCONV_CHECK(events_ != nullptr,
              strf("telemetry directory '%s' is not writable", dir_.c_str()));
  const std::string metrics_path = dir_ + "/metrics.jsonl";
  metrics_file_ = std::fopen(metrics_path.c_str(), "wb");
  if (metrics_file_ == nullptr) {
    std::fclose(events_);
    events_ = nullptr;
    KCONV_CHECK(false, strf("telemetry directory '%s' is not writable",
                            dir_.c_str()));
  }
  epoch_ns_ = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now().time_since_epoch())
                  .count();
}

TelemetrySink::~TelemetrySink() {
  if (events_ != nullptr) std::fclose(events_);
  if (metrics_file_ != nullptr) std::fclose(metrics_file_);
}

double TelemetrySink::now_us() const {
  const i64 ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now().time_since_epoch())
                     .count();
  return static_cast<double>(ns - epoch_ns_) / 1e3;
}

void TelemetrySink::write_line(JsonWriter& w) {
  w.end_object();
  const std::string& line = w.str();
  std::fwrite(line.data(), 1, line.size(), events_);
  std::fputc('\n', events_);
  std::fflush(events_);
  ++events_written_;
}

u64 TelemetrySink::begin_span(u64 trace, u64 parent, const char* tier,
                              const std::string& name, const SpanArgs& args) {
  std::lock_guard<std::mutex> lock(mu_);
  const u64 id = next_span_++;
  SpanRecord rec;
  rec.trace = trace;
  rec.span = id;
  rec.parent = parent;
  rec.tier = tier;
  rec.name = name;
  rec.begin_us = now_us();
  span_index_[id] = spans_.size();
  JsonWriter w = event("span_begin", trace, id);
  w.kv("parent", parent)
      .kv("tier", tier)
      .kv("name", name)
      .kv("ts_us", rec.begin_us);
  if (args) {
    w.key("args").begin_object();
    args(w);
    w.end_object();
  }
  spans_.push_back(std::move(rec));
  ++open_;
  write_line(w);
  return id;
}

void TelemetrySink::end_span(u64 span) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = span_index_.find(span);
  if (it == span_index_.end()) return;
  SpanRecord& rec = spans_[it->second];
  if (rec.end_us >= 0.0) return;
  rec.end_us = now_us();
  if (open_ > 0) --open_;
  JsonWriter w = event("span_end", rec.trace, span);
  w.kv("ts_us", rec.end_us);
  write_line(w);
}

void TelemetrySink::plan_cache_event(u64 trace, u64 span,
                                     const std::string& status,
                                     u64 blocks_replayed) {
  std::lock_guard<std::mutex> lock(mu_);
  JsonWriter w = event("plan_cache", trace, span);
  w.kv("status", status.empty() ? "unplanned" : status)
      .kv("blocks_replayed", blocks_replayed)
      .kv("ts_us", now_us());
  write_line(w);
}

void TelemetrySink::fleet_device_event(u64 trace, u64 span, u32 device,
                                       u64 blocks, u64 h2d_bytes,
                                       u64 d2h_bytes, u64 d2d_bytes,
                                       double transfer_s, double compute_s,
                                       double comm_ratio) {
  std::lock_guard<std::mutex> lock(mu_);
  JsonWriter w = event("fleet_device", trace, span);
  w.kv("device", device)
      .kv("blocks", blocks)
      .kv("h2d_bytes", h2d_bytes)
      .kv("d2h_bytes", d2h_bytes)
      .kv("d2d_bytes", d2d_bytes)
      .kv("transfer_us", transfer_s * 1e6)
      .kv("compute_us", compute_s * 1e6)
      .kv("comm_ratio", comm_ratio)
      .kv("comm_bound", transfer_s > compute_s)
      .kv("ts_us", now_us());
  write_line(w);
  // Device lanes: the launch model serialises a chunk's transfers before its
  // compute, so the lane cursor advances transfer-then-compute per event.
  double& cur = device_cursor_us_[device];
  const profile::DeviceTraceSlice t{
      device, true, strf("transfer trace=%llu", (unsigned long long)trace),
      cur, transfer_s * 1e6, h2d_bytes + d2h_bytes + d2d_bytes};
  const profile::DeviceTraceSlice c{
      device, false,
      strf("compute trace=%llu blocks=%llu", (unsigned long long)trace,
           (unsigned long long)blocks),
      cur + t.dur_us, compute_s * 1e6, 0};
  device_slices_.push_back(t);
  device_slices_.push_back(c);
  cur = c.begin_us + c.dur_us;
}

void TelemetrySink::arena_event(u64 trace, u64 span, const std::string& node,
                                i64 slot, bool reused, u64 bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  JsonWriter w = event("arena_slot", trace, span);
  w.kv("node", node)
      .kv("slot", slot)
      .kv("reused", reused)
      .kv("bytes", bytes)
      .kv("ts_us", now_us());
  write_line(w);
}

void TelemetrySink::merge_metrics(const MetricsKey& key,
                                  const Metrics& delta) {
  std::lock_guard<std::mutex> lock(mu_);
  registry_.merge(key, delta);
}

void TelemetrySink::snapshot_metrics() {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string lines = registry_.snapshot_jsonl(snapshots_++);
  std::fwrite(lines.data(), 1, lines.size(), metrics_file_);
  std::fflush(metrics_file_);
}

u64 TelemetrySink::events_written() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_written_;
}

u64 TelemetrySink::snapshots_written() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshots_;
}

u64 TelemetrySink::open_spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return open_;
}

std::vector<SpanRecord> TelemetrySink::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<profile::DeviceTraceSlice> TelemetrySink::device_slices() const {
  std::lock_guard<std::mutex> lock(mu_);
  return device_slices_;
}

MetricsRegistry TelemetrySink::metrics_copy() const {
  std::lock_guard<std::mutex> lock(mu_);
  return registry_;
}

}  // namespace kconv::obs
