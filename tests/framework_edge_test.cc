// Edge cases of the MRapid framework and the kill machinery: pool
// exhaustion and queueing, kill timing, double-submission, speculative
// races that finish before the decision poll, and no-pool fallbacks.

#include <gtest/gtest.h>

#include "cluster/azure.h"
#include "harness/world.h"
#include "mrapid/framework.h"
#include "workloads/wordcount.h"

namespace mrapid::core {
namespace {

using harness::RunMode;
using harness::World;
using harness::WorldConfig;

wl::WordCountParams small_params(int files = 2, Bytes size = 512_KB) {
  wl::WordCountParams params;
  params.num_files = static_cast<std::size_t>(files);
  params.bytes_per_file = size;
  return params;
}

TEST(FrameworkEdge, PoolExhaustionQueuesJobs) {
  // Pool of 3, five concurrent pinned submissions: two must wait, all
  // five must complete.
  wl::WordCount wc(small_params());
  WorldConfig config;
  World world(config, RunMode::kUPlus);
  world.boot();

  int completed = 0;
  for (int i = 0; i < 5; ++i) {
    mr::JobSpec spec = wc.make_spec(world.hdfs());
    spec.name = "q" + std::to_string(i);
    world.framework().submit_in_mode(spec, mr::ExecutionMode::kUPlus,
                                     [&](const mr::JobResult& r) {
                                       EXPECT_TRUE(r.succeeded);
                                       ++completed;
                                     });
  }
  world.simulation().run_until(world.simulation().now() + sim::SimDuration::seconds(600));
  EXPECT_EQ(completed, 5);
  EXPECT_EQ(world.framework().pool().free_slots(), 3);
}

TEST(FrameworkEdge, SpeculativeQueuesWhenPoolBusy) {
  // Two auto submissions, pool of 3: the second speculative pair (needs
  // 2 slots) waits until the first finishes, then runs.
  wl::WordCount wc(small_params(4, 2_MB));
  WorldConfig config;
  World world(config, RunMode::kMRapidAuto);
  world.boot();

  int completed = 0;
  for (int i = 0; i < 2; ++i) {
    mr::JobSpec spec = wc.make_spec(world.hdfs());
    spec.name = "spec" + std::to_string(i);
    world.framework().submit(spec, [&](const mr::JobResult& r) {
      EXPECT_TRUE(r.succeeded);
      ++completed;
    });
  }
  world.simulation().run_until(world.simulation().now() + sim::SimDuration::seconds(900));
  EXPECT_EQ(completed, 2);
  EXPECT_EQ(world.framework().pool().free_slots(), 3);
}

TEST(FrameworkEdge, KillBeforeStartIsClean) {
  wl::WordCount wc(small_params());
  WorldConfig config;
  World world(config, RunMode::kHadoop);
  world.boot();
  mr::JobSpec spec = wc.make_spec(world.hdfs());
  bool completed = false;
  mr::AmBase& am = world.client().submit(spec, mr::ExecutionMode::kHadoopDistributed,
                                         [&](const mr::JobResult&) { completed = true; });
  am.kill();  // before the AM container even exists
  world.simulation().run_until(world.simulation().now() + sim::SimDuration::seconds(60));
  EXPECT_FALSE(completed);
  EXPECT_TRUE(am.was_killed());
  // Cluster must drain back to fully free.
  world.simulation().run_until(world.simulation().now() + sim::SimDuration::seconds(3));
  for (const auto& state : world.rm().nodes()) EXPECT_EQ(state.used.vcores, 0);
}

TEST(FrameworkEdge, KillMidMapsReleasesEverything) {
  wl::WordCount wc(small_params(8, 4_MB));
  WorldConfig config;
  World world(config, RunMode::kHadoop);
  world.boot();
  mr::JobSpec spec = wc.make_spec(world.hdfs());
  bool completed = false;
  mr::AmBase& am = world.client().submit(spec, mr::ExecutionMode::kHadoopDistributed,
                                         [&](const mr::JobResult&) { completed = true; });
  // Let it get well into the map phase, then kill.
  world.simulation().run_until(world.simulation().now() + sim::SimDuration::seconds(8));
  am.kill();
  world.simulation().run_until(world.simulation().now() + sim::SimDuration::seconds(10));
  EXPECT_FALSE(completed);
  std::int64_t used = 0;
  for (const auto& state : world.rm().nodes()) used += state.used.vcores;
  EXPECT_EQ(used, 0);
}

TEST(FrameworkEdge, DoubleKillIsIdempotent) {
  wl::WordCount wc(small_params());
  WorldConfig config;
  World world(config, RunMode::kHadoop);
  world.boot();
  mr::AmBase& am = world.client().submit(wc.make_spec(world.hdfs()),
                                         mr::ExecutionMode::kHadoopDistributed,
                                         [](const mr::JobResult&) {});
  world.simulation().run_until(world.simulation().now() + sim::SimDuration::seconds(5));
  am.kill();
  am.kill();
  EXPECT_TRUE(am.was_killed());
}

TEST(FrameworkEdge, KillAfterCompletionDoesNothing) {
  wl::WordCount wc(small_params());
  WorldConfig config;
  World world(config, RunMode::kUPlus);
  auto result = world.run(wc);
  ASSERT_TRUE(result.has_value());
  // The AM finished; killing now must not disturb the result or crash.
  world.simulation().run_until(world.simulation().now() + sim::SimDuration::seconds(2));
  SUCCEED();
}

TEST(FrameworkEdge, ConcurrentSubmissionsGetDistinctOutputs) {
  wl::WordCount wc(small_params());
  WorldConfig config;
  World world(config, RunMode::kUPlus);
  world.boot();
  int completed = 0;
  for (int i = 0; i < 3; ++i) {
    world.framework().submit_in_mode(wc.make_spec(world.hdfs()),
                                     mr::ExecutionMode::kUPlus,
                                     [&](const mr::JobResult& r) {
                                       EXPECT_TRUE(r.succeeded);
                                       ++completed;
                                     });
  }
  world.simulation().run_until(world.simulation().now() + sim::SimDuration::seconds(300));
  EXPECT_EQ(completed, 3);
}

TEST(FrameworkEdge, HistoryFromPinnedRunsInformsAuto) {
  // Run pinned U+ once through the framework, then auto: the decision
  // maker should skip speculation (only one more run recorded).
  wl::WordCount wc(small_params(4, 2_MB));
  WorldConfig config;
  World world(config, RunMode::kUPlus);
  auto pinned = world.run(wc);
  ASSERT_TRUE(pinned.has_value());
  const auto* record = world.framework().history().find("wordcount");
  ASSERT_NE(record, nullptr);
  const int runs_before = record->runs;

  std::optional<mr::JobResult> result;
  world.framework().submit(wc.make_spec(world.hdfs()), [&](const mr::JobResult& r) {
    result = r;
    world.simulation().stop();
  });
  world.simulation().run_until(world.simulation().now() + sim::SimDuration::seconds(600));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(world.framework().history().find("wordcount")->runs, runs_before + 1);
}

TEST(FrameworkEdge, UPlusParallelismMatchesNodeCores) {
  // Maps must be long relative to the serialized 150 ms dispatch for
  // the full wave width to be observable.
  wl::WordCount wc(small_params(8, 4_MB));
  WorldConfig config;
  World world(config, RunMode::kUPlus);
  auto result = world.run(wc);
  ASSERT_TRUE(result.has_value());
  // Count the peak number of overlapping maps: must not exceed the AM
  // node's cores (A3 = 4) and should reach it.
  const auto& maps = result->profile.maps;
  int peak = 0;
  for (const auto& a : maps) {
    int overlapping = 0;
    for (const auto& b : maps) {
      if (b.start <= a.start && a.start < b.end) ++overlapping;
    }
    peak = std::max(peak, overlapping);
  }
  EXPECT_LE(peak, 4);
  EXPECT_GE(peak, 3);
}

TEST(FrameworkEdge, MapsPerCoreKnobWidensUPlusWaves) {
  wl::WordCount wc(small_params(8, 8_MB));
  WorldConfig config;
  World world(config, RunMode::kUPlus);
  auto result = world.run(wc, [](mr::JobSpec& spec) {
    spec.uber_options_locked = true;
    spec.uber.parallel = true;
    spec.uber.cache_in_memory = true;
    spec.uber.maps_per_core = 2;  // n^m_c = 2 -> 8 concurrent maps
  });
  ASSERT_TRUE(result.has_value());
  const auto& maps = result->profile.maps;
  int peak = 0;
  for (const auto& a : maps) {
    int overlapping = 0;
    for (const auto& b : maps) {
      if (b.start <= a.start && a.start < b.end) ++overlapping;
    }
    peak = std::max(peak, overlapping);
  }
  EXPECT_GE(peak, 6);
}

}  // namespace
}  // namespace mrapid::core
