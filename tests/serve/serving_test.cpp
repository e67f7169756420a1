// Serving-driver suite (docs/MODEL.md §8).
//
// The contracts under test: replies are deterministic — bit-identical for
// any worker-thread count and any fuse setting; same-(network, shape) work
// coalesces into batches; and a shared PlanCache moves traffic from cold to
// warm to analytic with the outputs (when they exist) unchanged.
#include <cstring>
#include <filesystem>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/json.hpp"
#include "src/serve/serving.hpp"
#include "src/sim/sim.hpp"

namespace kconv::serve {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const fs::path p = fs::temp_directory_path() / ("kconv_serving_test_" + name);
  fs::remove_all(p);
  fs::create_directories(p);
  return p.string();
}

bool bit_equal(const tensor::Tensor& a, const tensor::Tensor& b) {
  return a.flat().size() == b.flat().size() &&
         std::memcmp(a.flat().data(), b.flat().data(),
                     a.flat().size() * sizeof(float)) == 0;
}

std::vector<ServeReply> serve_n(const Network& net, ServeOptions opt,
                                int n) {
  ServingDriver driver(std::move(opt));
  for (int i = 0; i < n; ++i) {
    driver.enqueue(net, make_network_input(net, static_cast<u64>(i)));
  }
  return driver.drain();
}

TEST(Serving, RepliesArriveInRequestIdOrder) {
  const Network net = make_network("lenet");
  const auto replies = serve_n(net, {}, 3);
  ASSERT_EQ(replies.size(), 3u);
  for (std::size_t i = 0; i < replies.size(); ++i) {
    EXPECT_EQ(replies[i].id, i);
    EXPECT_TRUE(replies[i].ok);
    ASSERT_EQ(replies[i].output.c(), 10);
  }
}

TEST(Serving, DeterministicAcrossThreadCounts) {
  const Network net = make_network("lenet");
  ServeOptions serial;
  serial.threads = 1;
  ServeOptions wide;
  wide.threads = 4;
  const auto a = serve_n(net, serial, 4);
  const auto b = serve_n(net, wide, 4);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_TRUE(bit_equal(a[i].output, b[i].output)) << "request " << i;
    // Simulated time is a device-side quantity: identical too.
    EXPECT_EQ(a[i].sim_seconds, b[i].sim_seconds);
  }
}

TEST(Serving, FuseOffProducesBitIdenticalOutputs) {
  const Network net = make_network("vgg-tiny");
  ServeOptions fused;
  ServeOptions unfused;
  unfused.fuse = false;
  const auto a = serve_n(net, fused, 2);
  const auto b = serve_n(net, unfused, 2);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(bit_equal(a[i].output, b[i].output));
  }
}

TEST(Serving, BatchesBySameNetworkAndShape) {
  const Network lenet = make_network("lenet");
  const Network vgg = make_network("vgg-tiny");
  ServingDriver driver({});
  driver.enqueue(lenet, make_network_input(lenet, 0));
  driver.enqueue(vgg, make_network_input(vgg, 1));
  driver.enqueue(lenet, make_network_input(lenet, 2));
  driver.enqueue(vgg, make_network_input(vgg, 3));
  const auto replies = driver.drain();
  ASSERT_EQ(replies.size(), 4u);
  const ServeStats s = driver.stats();
  EXPECT_EQ(s.processed, 4u);
  EXPECT_EQ(s.batches, 2u);  // interleaved arrivals, two groups
}

TEST(Serving, SharedPlanCacheWarmsWithinOneDrain) {
  const std::string dir = fresh_dir("warm_drain");
  sim::PlanCache plans(dir);
  const Network net = make_network("lenet");
  ServeOptions opt;
  opt.plan_cache = &plans;
  ServingDriver driver(opt);
  for (int i = 0; i < 3; ++i) {
    driver.enqueue(net, make_network_input(net, static_cast<u64>(i)));
  }
  const auto replies = driver.drain();
  const ServeStats s = driver.stats();
  EXPECT_EQ(s.cold, 1u);  // first request captures the plans
  EXPECT_EQ(s.warm, 2u);  // the rest replay them
  for (const auto& r : replies) EXPECT_TRUE(r.ok);
  fs::remove_all(dir);
}

TEST(Serving, ColdWarmAnalyticProgressionAcrossDrivers) {
  const std::string dir = fresh_dir("progression");
  sim::PlanCache plans(dir);
  const Network net = make_network("lenet");

  ServeOptions opt;
  opt.plan_cache = &plans;
  const auto cold = serve_n(net, opt, 1);
  ASSERT_EQ(cold.size(), 1u);
  EXPECT_TRUE(cold[0].ok);
  EXPECT_FALSE(cold[0].warm);

  // A fresh driver (fresh process, in production) over the same store.
  const auto warm = serve_n(net, opt, 1);
  ASSERT_EQ(warm.size(), 1u);
  EXPECT_TRUE(warm[0].warm);
  EXPECT_TRUE(bit_equal(cold[0].output, warm[0].output));
  EXPECT_EQ(cold[0].sim_seconds, warm[0].sim_seconds);

  // Analytic: zero representative execution, timings only.
  opt.analytic = true;
  const auto fast = serve_n(net, opt, 1);
  ASSERT_EQ(fast.size(), 1u);
  EXPECT_TRUE(fast[0].analytic);
  EXPECT_FALSE(fast[0].ok);  // no activations materialized
  EXPECT_EQ(fast[0].sim_seconds, cold[0].sim_seconds);
  fs::remove_all(dir);
}

TEST(Serving, AnalyticRepliesAreDeterministicAcrossThreadCounts) {
  const std::string dir = fresh_dir("analytic_threads");
  sim::PlanCache plans(dir);
  const Network net = make_network("lenet");
  ServeOptions opt;
  opt.plan_cache = &plans;
  (void)serve_n(net, opt, 1);  // seed the store

  opt.analytic = true;
  opt.threads = 1;
  const auto a = serve_n(net, opt, 3);
  opt.threads = 3;
  const auto b = serve_n(net, opt, 3);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i].analytic);
    EXPECT_TRUE(b[i].analytic);
    EXPECT_EQ(a[i].sim_seconds, b[i].sim_seconds);
  }
  fs::remove_all(dir);
}

// A mixed queue drained as one work-stealing job: at any worker count each
// reply equals the same request drained alone and run_graph on it, and the
// grouping counters do not depend on the worker count. The store is seeded
// first so every conv launch hits at any thread count (a fresh store would
// let workers race for the first capture).
TEST(Serving, MixedDrainMatchesSingleRequestsAcrossThreadCounts) {
  const std::string dir = fresh_dir("mixed_drain");
  sim::PlanCache plans(dir);
  const std::vector<Network> nets{make_network("lenet"),
                                  make_network("vgg-tiny"),
                                  make_network("lenet-wide")};
  ServeOptions opt;
  opt.plan_cache = &plans;
  {
    ServingDriver seeder(opt);
    for (const Network& n : nets) seeder.enqueue(n, make_network_input(n, 9));
    (void)seeder.drain();
  }
  // lenet, vgg-tiny, lenet-wide, lenet, vgg-tiny: three batches.
  const int queue[] = {0, 1, 2, 0, 1};
  std::vector<tensor::Tensor> inputs;
  for (std::size_t r = 0; r < std::size(queue); ++r) {
    inputs.push_back(make_network_input(nets[queue[r]], r));
  }

  std::vector<ServeReply> alone;
  for (std::size_t r = 0; r < inputs.size(); ++r) {
    ServingDriver single(opt);
    single.enqueue(nets[queue[r]], inputs[r]);
    auto replies = single.drain();
    ASSERT_EQ(replies.size(), 1u);
    ASSERT_TRUE(replies[0].ok);

    GraphRunOptions g;
    g.launch.replay = true;
    g.launch.plan_cache = &plans;
    sim::Device dev(sim::kepler_k40m());
    const GraphRun run = run_graph(dev, nets[queue[r]].graph, inputs[r], g);
    EXPECT_TRUE(bit_equal(run.output, replies[0].output)) << "request " << r;
    EXPECT_EQ(run.total_seconds, replies[0].sim_seconds) << "request " << r;
    alone.push_back(std::move(replies[0]));
  }

  std::vector<ServeStats> stats;
  for (const u32 threads : {1u, 4u}) {
    ServeOptions o = opt;
    o.threads = threads;
    ServingDriver driver(o);
    for (std::size_t r = 0; r < inputs.size(); ++r) {
      driver.enqueue(nets[queue[r]], inputs[r]);
    }
    const auto replies = driver.drain();
    ASSERT_EQ(replies.size(), inputs.size());
    for (std::size_t r = 0; r < replies.size(); ++r) {
      SCOPED_TRACE(testing::Message() << threads << " threads, request " << r);
      EXPECT_EQ(replies[r].id, r);
      EXPECT_TRUE(replies[r].ok);
      EXPECT_TRUE(replies[r].warm);
      EXPECT_TRUE(bit_equal(replies[r].output, alone[r].output));
      EXPECT_EQ(replies[r].sim_seconds, alone[r].sim_seconds);
    }
    stats.push_back(driver.stats());
  }
  const ServeStats& a = stats[0];
  const ServeStats& b = stats[1];
  EXPECT_EQ(a.batches, 3u);
  EXPECT_EQ(a.max_inflight_batches, 3u);
  EXPECT_EQ(a.processed, b.processed);
  EXPECT_EQ(a.batches, b.batches);
  EXPECT_EQ(a.max_inflight_batches, b.max_inflight_batches);
  EXPECT_EQ(a.warm, b.warm);
  EXPECT_EQ(a.fused_pairs, b.fused_pairs);
  EXPECT_EQ(a.fusion_gm_bytes_eliminated, b.fusion_gm_bytes_eliminated);
  EXPECT_EQ(a.conv_launches, b.conv_launches);
  EXPECT_EQ(a.plan_taxonomy.hit, a.conv_launches);
  EXPECT_EQ(a.plan_taxonomy.hit, b.plan_taxonomy.hit);
  EXPECT_EQ(a.plan_taxonomy.total(), b.plan_taxonomy.total());
  EXPECT_EQ(a.arena_slot_reuses, b.arena_slot_reuses);
  EXPECT_EQ(a.arena_peak_bytes, b.arena_peak_bytes);
  JsonWriter ja, jb;
  a.sim_latency.to_json(ja);
  b.sim_latency.to_json(jb);
  EXPECT_EQ(ja.str(), jb.str());
  fs::remove_all(dir);
}

TEST(Serving, StatsAccumulateAcrossDrains) {
  const Network net = make_network("lenet");
  ServingDriver driver({});
  driver.enqueue(net, make_network_input(net, 0));
  (void)driver.drain();
  driver.enqueue(net, make_network_input(net, 1));
  driver.enqueue(net, make_network_input(net, 2));
  (void)driver.drain();
  const ServeStats s = driver.stats();
  EXPECT_EQ(s.processed, 3u);
  EXPECT_EQ(s.batches, 2u);
  EXPECT_GT(s.fused_pairs, 0u);
  EXPECT_GT(s.fusion_gm_bytes_eliminated, 0.0);
}

TEST(Serving, EmptyDrainIsANoOp) {
  ServingDriver driver({});
  EXPECT_TRUE(driver.drain().empty());
  EXPECT_EQ(driver.stats().processed, 0u);
  EXPECT_EQ(driver.stats().batches, 0u);
}

}  // namespace
}  // namespace kconv::serve
