#include "src/sim/launch.hpp"

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "src/analysis/hazard.hpp"
#include "src/analysis/lint.hpp"
#include "src/common/thread_pool.hpp"
#include "src/sim/plan_cache.hpp"
#include "src/sim/plan_io.hpp"

namespace kconv::sim::detail {

namespace {

/// Grids smaller than this skip the tape sidecar on both the load and the
/// store side of the plan cache. Tape blobs scale with the instruction
/// stream (tens of MB for filter-heavy kernels) while their benefit over
/// fast-forward replay scales with the number of blocks that share the
/// load; a handful of blocks never pays the I/O back. The threshold is a
/// host-side amortization heuristic, not a correctness knob — below it warm
/// replay fast-forwards every block with identical outputs and counters.
constexpr u64 kTapeSidecarMinBlocks = 16;

/// The set of blocks a launch executes: either the whole grid or a
/// deterministic, evenly spaced sample. Ids are computed on the fly — a
/// full-grid launch never materializes the (possibly multi-million-entry)
/// id list.
struct BlockSet {
  u64 count = 0;
  bool sampled = false;
  double stride = 1.0;

  static BlockSet pick(u64 blocks_total, u64 sample_max_blocks) {
    BlockSet set;
    if (sample_max_blocks > 0 && sample_max_blocks < blocks_total) {
      set.sampled = true;
      set.count = sample_max_blocks;
      // Deterministic even spacing, offset to avoid always hitting border
      // blocks (block 0 often touches image edges and is atypical).
      set.stride = static_cast<double>(blocks_total) / sample_max_blocks;
    } else {
      set.count = blocks_total;
    }
    return set;
  }

  u64 flat_id(u64 i) const {
    if (!sampled) return i;
    return static_cast<u64>((static_cast<double>(i) + 0.5) * stride);
  }
};

Dim3 unflatten(const Dim3& grid, u64 flat) {
  return Dim3{static_cast<u32>(flat % grid.x),
              static_cast<u32>((flat / grid.x) % grid.y),
              static_cast<u32>(flat / (static_cast<u64>(grid.x) * grid.y))};
}

/// One access-pattern cache per launch chunk, scoped like the L2 shadow and
/// constant-cache replica (docs/MODEL.md §5c): private state keeps parallel
/// launches lock-free and deterministic. Folds its hit counters into the
/// chunk's stats shard on destruction-free drain.
struct ChunkPatternCache {
  std::optional<PatternCache> cache;

  ChunkPatternCache(const Arch& arch, bool enabled) {
    if (enabled) {
      cache.emplace(arch.smem_banks, arch.smem_bank_bytes,
                    arch.gm_sector_bytes);
    }
  }
  PatternCache* get() { return cache.has_value() ? &*cache : nullptr; }
  void drain(KernelStats& stats) {
    if (cache.has_value()) {
      stats.pattern_lookups += cache->lookups();
      stats.pattern_hits += cache->hits();
    }
  }
};

}  // namespace

LaunchResult launch_impl(Device& dev, const KernelBody& body,
                         const LaunchConfig& cfg, const LaunchOptions& opt,
                         const BlockClassifier& classify,
                         const ReplayOriginsFn& origins) {
  KCONV_CHECK(cfg.grid.count() >= 1, "empty grid");
  // Validates thread/smem/register limits up front (throws on bad configs).
  (void)compute_occupancy(dev.arch(), cfg);

  const Arch& arch = dev.arch();
  if (opt.reset_l2) {
    dev.l2().invalidate();
  }
  dev.l2().reset_counters();

  LaunchResult res;
  res.blocks_total = cfg.grid.count();

  const BlockSet set = BlockSet::pick(res.blocks_total, opt.sample_max_blocks);
  res.sampled = set.sampled;

  const u32 threads = static_cast<u32>(std::min<u64>(
      ThreadPool::resolve_threads(opt.num_threads), set.count));

  // Replay engages only when both the caller opted in AND the kernel
  // declared a classifier; otherwise every block is unique (legacy path).
  // Analytic mode is replay that never materializes: it hard-requires the
  // classifier (there is no trace to serve from otherwise).
  const bool analytic = opt.analytic;
  if (analytic) {
    KCONV_CHECK(static_cast<bool>(classify),
                "analytic launch requires a kernel with a replay_class hook");
    KCONV_CHECK(!opt.hazard_check,
                "analytic launch cannot run the hazard checker");
  }
  const bool replaying =
      (opt.replay || analytic) && static_cast<bool>(classify);
  res.analytic = analytic;

  // Multi-device sharding (docs/MODEL.md §9). The shard partition is fixed
  // before anything runs — a pure function of grid, strategy and device
  // count — so fleet launches are exactly reproducible like the parallel
  // path. Analytic launches have no per-block execution to shard, and
  // sampling would break the shard/transfer geometry; both are rejected
  // loudly (the CLI turns these into exit-2 flag errors first).
  const bool fleet_on = opt.fleet.devices > 1;
  if (fleet_on) {
    KCONV_CHECK(!analytic,
                "multi-device launch is unsupported with analytic execution");
    KCONV_CHECK(!set.sampled,
                "multi-device launch cannot combine with block sampling");
  }

  const bool profiling = opt.profile;
  res.profile.enabled = profiling;

  // kconv-scope (docs/MODEL.md §11): open the launch span. Purely
  // observational — the sink only ever receives appends, so the launch's
  // outputs and counters are untouched by telemetry being on.
  const obs::TelemetryScope tel = opt.telemetry;
  u64 tel_span = 0;
  if (tel.on()) {
    const char* mode = analytic     ? "analytic"
                       : replaying  ? "replay"
                       : threads > 1 ? "parallel"
                                     : "serial";
    tel_span = tel.sink->begin_span(
        tel.trace, tel.parent, "launch", "launch",
        [&](JsonWriter& a) {
          a.kv("blocks", res.blocks_total)
              .kv("mode", mode)
              .kv("devices", fleet_on ? opt.fleet.devices : 1u);
        });
  }

  // Cross-launch plan persistence (docs/MODEL.md §5d). A warm plan seeds
  // every runner's class table before any block runs; any load-side
  // mismatch (version, key, arch, config, payload damage) is a loud miss
  // that falls back to capture. Saving is skipped when nothing fresh was
  // captured this launch.
  PlanCache* const plans = opt.plan_cache;
  const bool plan_enabled = plans != nullptr && !opt.plan_key.empty() &&
                            replaying && !opt.hazard_check;
  LaunchPlan plan;
  bool plan_hit = false;
  std::string store_key;
  if (plans != nullptr) {
    res.plan_cache_status = plan_enabled ? "miss" : "disabled";
  }
  // Only a functional, non-analytic launch executes tapes, so only it pays
  // for loading the tape sidecar — the heavyweight part of a stored plan.
  // Analytic launches load the trace payload alone, which is what makes
  // their warm path nearly free.
  //
  // The grid-size gate is an amortization cutoff: interpreting a tape beats
  // fast-forward per block, but the sidecar can run to tens of megabytes
  // (it scales with lane count x instruction stream, not with grid size),
  // and reading it back only pays for itself when enough blocks share the
  // cost. Below the cutoff warm replay uses per-block fast-forward, which
  // is bit-identical — the tape is purely a throughput tier. The store key
  // pins the launch config, so load and store sides of a key always agree
  // on the gate.
  const bool want_tapes = !analytic &&
                          opt.trace == TraceLevel::Functional &&
                          res.blocks_total >= kTapeSidecarMinBlocks;
  if (plan_enabled) {
    store_key = plan_store_key(opt.plan_key, arch, cfg, opt.trace,
                               opt.profile);
    std::string blob;
    std::string_view payload;
    std::string why;
    // kconv-xray pre-validation (docs/MODEL.md §10): a plan whose recorded
    // static signature disagrees with the launching kernel's is a capture
    // of a *different* access pattern under the same key — reject it
    // before trusting a byte, same as any other staleness. Either side
    // reporting 0 (no describer) degrades to the key-only contract.
    const auto signature_matches = [&](const LaunchPlan& p,
                                       std::string* reason) {
      if (opt.plan_static_signature == 0 || p.static_signature == 0 ||
          p.static_signature == opt.plan_static_signature) {
        return true;
      }
      if (reason != nullptr) *reason = "stale-static-signature";
      return false;
    };
    if (plans->load_view(store_key, blob, payload, &why)) {
      if (deserialize_plan(payload, plan, &why) &&
          plan_matches(plan, arch, cfg, opt.trace, &why) &&
          signature_matches(plan, &why)) {
        plan_hit = true;
        why = "hit";
        if (want_tapes) {
          std::string tape_blob;
          std::string_view tape_payload;
          // A missing/damaged sidecar is not a plan miss: the traces are
          // intact, so warm replay still serves every block — through
          // per-block fast-forward instead of the tape interpreter.
          if (plans->load_view(plan_tape_key(store_key), tape_blob,
                               tape_payload)) {
            (void)deserialize_tapes(tape_payload, plan);
          }
        }
      } else {
        plan = LaunchPlan{};
      }
    }
    res.plan_cache_status = why;
  }
  res.plan_cache_hit = plan_hit;
  const auto store_plan = [&](const LaunchPlan& out) {
    plans->store(store_key, serialize_plan(out));
    // An analytic warm launch never loaded the sidecar, so its view of the
    // tapes is incomplete — leave the stored sidecar alone rather than
    // shrink it to the freshly captured classes. Small grids skip the
    // sidecar symmetrically with the load gate: no future launch of this
    // key (same config, same grid) would ever read it.
    if (analytic && plan_hit) return;
    if (res.blocks_total < kTapeSidecarMinBlocks) return;
    const std::string tapes = serialize_tapes(out);
    if (!tapes.empty()) plans->store(plan_tape_key(store_key), tapes);
  };
  const auto saved_plan = [&](LaunchPlan&& loaded) {
    LaunchPlan out;
    out.arch = arch_fingerprint(arch);
    out.trace_level = static_cast<u8>(opt.trace);
    out.cfg = cfg;
    // Prefer the launching kernel's signature; a signature-less re-store
    // of a signed warm plan keeps the stored value instead of erasing it.
    out.static_signature = opt.plan_static_signature != 0
                               ? opt.plan_static_signature
                               : loaded.static_signature;
    // Keep every loaded class (a sampled warm launch may not even visit
    // some of them); export_plan appends only ids not already present.
    out.classes = std::move(loaded.classes);
    out.pattern_blob = std::move(loaded.pattern_blob);
    return out;
  };

  // One chunk engine for every launch mode (docs/MODEL.md §5a). The
  // partition is a pure function of grid, thread count and fleet options:
  //   serial   one chunk [0, count) on the device L2 (warm across blocks,
  //            and across launches when reset_l2 is off);
  //   parallel ceil(count / threads) contiguous chunks;
  //   fleet    one chunk per device: its shard's runs (§9; never sampled,
  //            so launch index == flat id).
  // Each chunk owns the state its blocks touch (chunks without the device
  // L2 get a fresh shadow) and results merge in chunk-index order, so every
  // mode is exactly reproducible and only the cache-warmth counters move.
  struct Chunk {
    std::vector<BlockRange> runs;  // launch indices
    L2Cache* l2 = nullptr;         // null: a fresh L2 shadow
  };
  std::vector<Chunk> chunks;
  std::vector<FleetShard> fshards;
  if (fleet_on) {
    fshards = shard_grid(cfg.grid, opt.fleet, opt.fleet_hints);
    model_transfers(opt.fleet, opt.fleet_hints, res.blocks_total, fshards);
    for (const FleetShard& fs : fshards) chunks.push_back({fs.runs});
  } else if (threads <= 1) {
    chunks.push_back({{{0, set.count}}, &dev.l2()});
  } else {
    const u64 grain = (set.count + threads - 1) / threads;
    for (u64 b = 0; b < set.count; b += grain) {
      chunks.push_back({{{b, std::min(set.count, b + grain)}}});
    }
  }

  // Chunk state outlives the chunk so captured classes merge into the saved
  // plan in index order; stats stay per chunk for the fleet report.
  struct ChunkOut {
    std::optional<analysis::BlockChecker> checker;
    std::optional<ChunkPatternCache> pattern;
    profile::PhaseProfile phases;
    std::vector<profile::BlockTimeline> timelines;
    std::optional<ReplayRunner> runner;  // last: points at the members above
  };
  std::vector<KernelStats> chunk_stats(chunks.size());
  std::vector<ChunkOut> outs(chunks.size());
  const auto run_chunk = [&](u64 c) {
    if (chunks[c].runs.empty()) return;
    ChunkOut& out = outs[c];
    KernelStats& stats = chunk_stats[c];
    std::optional<L2Cache> shadow;
    L2Cache& l2 = chunks[c].l2 != nullptr
                      ? *chunks[c].l2
                      : shadow.emplace(arch.l2_capacity, arch.gm_sector_bytes);
    L2Cache const_cache(arch.const_cache_per_sm, arch.const_line_bytes, 4);
    ChunkPatternCache& pattern = out.pattern.emplace(arch, opt.pattern_cache);
    analysis::BlockChecker* chk =
        opt.hazard_check ? &out.checker.emplace(cfg, arch.warp_size) : nullptr;
    profile::PhaseProfile* psink = profiling ? &out.phases : nullptr;
    ReplayRunner* runner = nullptr;
    if (replaying) {
      // Each chunk captures its own class representatives. A warm plan
      // primes every chunk's table; a lone chunk adopts it by move (a
      // post-capture store re-exports every class from live state).
      runner = &out.runner.emplace(arch, body, cfg, opt.trace,
                                   opt.max_rounds_per_block, classify,
                                   origins, pattern.get(), chk, psink,
                                   analytic);
      if (plan_hit) {
        if (chunks.size() == 1) {
          runner->prime(std::move(plan));
        } else {
          runner->prime(plan);
        }
        if (!plan.pattern_blob.empty() && pattern.get() != nullptr) {
          PlanReader pr(plan.pattern_blob);
          (void)pattern.get()->restore(pr);  // priming only; safe to skip
        }
      }
    }
    // Timelines cover the first profile_timeline_blocks of the launch order
    // (a partition-invariant set); replayed blocks record no slices and are
    // dropped, though their phases still count.
    profile::BlockTimeline scratch_tl;
    for (const BlockRange& r : chunks[c].runs) {
      for (u64 i = r.begin; i < r.end; ++i) {
        const Dim3 bidx = unflatten(cfg.grid, set.flat_id(i));
        profile::BlockTimeline* tl = nullptr;
        if (profiling && i < opt.profile_timeline_blocks) {
          scratch_tl = profile::BlockTimeline{bidx, i, {}};
          tl = &scratch_tl;
        }
        if (runner != nullptr) {
          runner->run(bidx, &const_cache, l2, stats, tl);
        } else {
          std::optional<profile::BlockProfiler> bp;
          if (psink != nullptr) bp.emplace(*psink, tl);
          run_block(arch, body, cfg, bidx, opt.trace,
                    opt.max_rounds_per_block, &const_cache, l2, stats,
                    nullptr, pattern.get(), chk, bp ? &*bp : nullptr);
        }
        if (tl != nullptr && !tl->slices.empty()) {
          out.timelines.push_back(std::move(*tl));
        }
      }
    }
    if (runner != nullptr) runner->finish(stats);
    pattern.drain(stats);
  };
  const u32 workers = static_cast<u32>(std::min<u64>(threads, chunks.size()));
  if (workers <= 1) {
    for (u64 c = 0; c < chunks.size(); ++c) run_chunk(c);
  } else {
    ThreadPool pool(workers);
    pool.parallel_for(0, chunks.size(), 1, [&](u64 b, u64 e, u32 /*chunk*/) {
      for (u64 c = b; c < e; ++c) run_chunk(c);
    });
  }

  // Index-order merge.
  std::vector<analysis::BlockChecker*> checkers;
  bool dirty = false;
  for (u64 c = 0; c < chunks.size(); ++c) {
    res.stats += chunk_stats[c];
    res.profile.phases += outs[c].phases;
    for (profile::BlockTimeline& tl : outs[c].timelines) {
      res.profile.timelines.push_back(std::move(tl));
    }
    checkers.push_back(outs[c].checker ? &*outs[c].checker : nullptr);
    if (outs[c].runner) {
      res.blocks_replayed += outs[c].runner->blocks_replayed();
      dirty = dirty || outs[c].runner->captured_fresh();
    }
  }
  // Channel shards interleave flat ids across devices; restore launch order.
  std::stable_sort(
      res.profile.timelines.begin(), res.profile.timelines.end(),
      [](const profile::BlockTimeline& a, const profile::BlockTimeline& b) {
        return a.seq < b.seq;
      });
  if (opt.hazard_check) analysis::finalize_hazards(checkers, res.analysis);
  if (plan_enabled && dirty) {
    // One store after every chunk finished: classes merge in index order
    // (first owner wins), and the first chunk's pattern tables are saved —
    // one chunk's analyzer outputs are as good as another's.
    LaunchPlan out = saved_plan(std::move(plan));
    for (const ChunkOut& o : outs) {
      if (o.runner) o.runner->export_plan(out);
    }
    for (ChunkOut& o : outs) {
      if (o.pattern && o.pattern->get() != nullptr) {
        PlanWriter pw;
        o.pattern->get()->save(pw);
        out.pattern_blob = pw.take();
        break;
      }
    }
    store_plan(out);
  }

  if (fleet_on) {
    // Each device executes only its shard, so its compute time is the
    // unscaled estimate over the shard's own blocks.
    std::vector<double> dev_seconds(fshards.size(), 0.0);
    for (u64 d = 0; d < fshards.size(); ++d) {
      if (opt.trace == TraceLevel::Timing && fshards[d].blocks > 0) {
        dev_seconds[d] =
            estimate_time(arch, cfg, chunk_stats[d], fshards[d].blocks)
                .seconds;
      }
    }
    res.fleet = analyze_fleet(arch, opt.fleet, opt.fleet_hints,
                              res.blocks_total, fshards, chunk_stats,
                              dev_seconds);
    // One telemetry event per device, in device order.
    if (tel.on()) {
      for (const FleetDeviceReport& d : res.fleet.device_reports) {
        tel.sink->fleet_device_event(
            tel.trace, tel_span, d.device, d.blocks, d.ledger.h2d_bytes,
            d.ledger.d2h_bytes, d.ledger.d2d_bytes, d.transfer_seconds,
            d.compute_seconds, d.comm_ratio);
      }
    }
  }
  res.blocks_executed = res.stats.blocks_executed;

  if (opt.trace == TraceLevel::Timing) {
    res.timing = estimate_time(arch, cfg, res.stats, res.blocks_total);
    if (opt.lint) {
      res.analysis.linted = true;
      res.analysis.lints = analysis::lint_stats(arch, cfg, res.stats,
                                                res.timing);
    }
  }
  if (tel.on()) {
    tel.sink->plan_cache_event(tel.trace, tel_span, res.plan_cache_status,
                               res.blocks_replayed);
    tel.sink->end_span(tel_span);
  }
  return res;
}

}  // namespace kconv::sim::detail
