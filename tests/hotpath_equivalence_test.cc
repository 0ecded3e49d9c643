// Equivalence wall for the placement/network hot-path toggles:
//
//   indexed_placement  — HDFS replica draws answered from persistent
//                        per-rack order-statistics indexes vs. the
//                        legacy per-draw candidate-vector scan
//                        (HdfsConfig::indexed_placement)
//   fast_shuffle       — partition-once map-output registry + slab
//                        fetch records + same-source leg coalescing
//                        vs. the legacy per-fetch repartition and
//                        shared_ptr leg joins (MRConfig::fast_shuffle)
//
// Like the heartbeat/scheduling toggles (heartbeat_equivalence_test),
// these are pure implementation swaps: the contract is that every
// full-mask trace is BYTE-identical whichever way the toggles point —
// same replica placements, same flow rates, same completion instants.
// That is what keeps the golden files frozen while the engines
// underneath change, and what makes the legacy sides a trustworthy
// "before" for the placement/shuffle cluster-scale bench. The
// scenarios deliberately stress both paths: small HDFS blocks (many
// placement draws), sort-heavy shuffles (many concurrent flows), node
// crashes (flow cancellation mid-shuffle), and the same generated
// fuzz scenarios the CI fuzz stage replays. (The network's waterfill
// has one engine; network_rates_diff_test holds it to a full-scan
// reference model.)

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <string>

#include "check/scenario.h"
#include "harness/stream_pump.h"
#include "harness/world.h"
#include "sim/simulation.h"
#include "sim/trace.h"
#include "workloads/pi.h"
#include "workloads/terasort.h"
#include "workloads/wordcount.h"

namespace mrapid {
namespace {

using harness::RunMode;

struct Toggles {
  bool indexed_placement;
  bool fast_shuffle;
};

// The corners: [0] is the shipping default, the rest must match it —
// each axis off individually, plus everything-legacy.
constexpr Toggles kCorners[] = {
    {true, true},
    {false, true},
    {true, false},
    {false, false},
};

void apply(harness::WorldConfig& config, const Toggles& toggles) {
  config.hdfs.indexed_placement = toggles.indexed_placement;
  config.mr.fast_shuffle = toggles.fast_shuffle;
}

std::string run_world(const harness::WorldConfig& base, RunMode mode, wl::Workload& workload,
                      const Toggles& toggles, bool* succeeded = nullptr) {
  harness::WorldConfig config = base;
  apply(config, toggles);
  harness::World world(config, mode);
  sim::Tracer tracer;  // full mask: equivalence is checked on everything
  world.attach_tracer(tracer);
  const auto result = world.run(workload);
  if (succeeded != nullptr) *succeeded = result.has_value() && result->succeeded;
  return sim::canonical_text(tracer.events());
}

void expect_all_corners_identical(const harness::WorldConfig& base, RunMode mode,
                                  const std::function<std::unique_ptr<wl::Workload>()>& make,
                                  const std::string& what) {
  std::string reference;
  for (std::size_t i = 0; i < std::size(kCorners); ++i) {
    auto workload = make();  // fresh workload per run: they carry RNG state
    bool ok = false;
    const std::string text = run_world(base, mode, *workload, kCorners[i], &ok);
    ASSERT_FALSE(text.empty()) << what;
    if (i == 0) {
      reference = text;
    } else {
      ASSERT_EQ(reference, text)
          << what << ": trace diverged at corner (indexed_placement="
          << kCorners[i].indexed_placement
          << ", fast_shuffle=" << kCorners[i].fast_shuffle << ")";
    }
  }
}

TEST(HotPathEquivalence, GoldenCellsAreByteIdenticalAcrossToggles) {
  harness::WorldConfig config;
  expect_all_corners_identical(config, RunMode::kHadoop, [] {
    wl::WordCountParams params;
    params.num_files = 2;
    params.bytes_per_file = 256_KB;
    return std::make_unique<wl::WordCount>(params);
  }, "wordcount/hadoop");
  expect_all_corners_identical(config, RunMode::kDPlus, [] {
    wl::TeraSortParams params;
    params.rows = 5000;
    return std::make_unique<wl::TeraSort>(params);
  }, "terasort/dplus");
  expect_all_corners_identical(config, RunMode::kUPlus, [] {
    wl::PiParams params;
    params.total_samples = 200000;
    return std::make_unique<wl::Pi>(params);
  }, "pi/uplus");
}

TEST(HotPathEquivalence, SmallBlocksManyReplicaDrawsAreByteIdentical) {
  // 64 KB blocks over multi-file input: dozens of placement draws per
  // file, so any draw-order or draw-count divergence between the two
  // placement engines shows up as shifted RNG state in every later
  // stochastic decision.
  harness::WorldConfig config;
  config.hdfs.block_size = 64_KB;
  expect_all_corners_identical(config, RunMode::kHadoop, [] {
    wl::WordCountParams params;
    params.num_files = 4;
    params.bytes_per_file = 384_KB;
    return std::make_unique<wl::WordCount>(params);
  }, "wordcount/small-blocks");
}

TEST(HotPathEquivalence, ShuffleHeavyCrashRecoveryIsByteIdentical) {
  // TeraSort's all-to-all shuffle under a mid-run crash: concurrent
  // flows on shared links plus cancellation of the dead node's flows.
  harness::WorldConfig config;
  config.yarn.nm_expiry = sim::SimDuration::seconds(3.0);
  harness::FaultSpec crash;
  crash.kind = harness::FaultKind::kNodeCrash;
  crash.node = 3;
  crash.at = sim::SimDuration::micros(5'800'000);
  config.faults.events.push_back(crash);

  expect_all_corners_identical(config, RunMode::kHadoop, [] {
    wl::TeraSortParams params;
    params.rows = 8000;
    params.blocks = 4;
    return std::make_unique<wl::TeraSort>(params);
  }, "terasort/crash");
}

// Generated fuzz scenarios: the same seeds the CI fuzz stage replays,
// including fault schedules, policy draws, and the generator's own
// hot-path axis (overridden per corner here). Stream scenarios go
// through the StreamPump like the oracle does; single-job ones through
// World::run. All 12 seeds run at all four corners.
TEST(HotPathEquivalence, FuzzScenarioTracesAreByteIdenticalAcrossToggles) {
  int scenarios = 0;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const check::FuzzScenario scenario = check::generate_scenario(seed);
    ++scenarios;
    std::string reference;
    for (std::size_t i = 0; i < std::size(kCorners); ++i) {
      harness::WorldConfig config = check::world_config(scenario);
      apply(config, kCorners[i]);
      harness::World world(config, RunMode::kHadoop);
      sim::Tracer tracer;
      world.attach_tracer(tracer);
      std::string text;
      if (check::is_stream(scenario)) {
        harness::StreamPumpOptions options;
        options.horizon_seconds = static_cast<double>(scenario.stream_horizon_ms) / 1000.0;
        harness::StreamPump pump(world, check::make_tenant_specs(scenario), options);
        ASSERT_TRUE(pump.run()) << "seed " << seed;
        text = sim::canonical_text(tracer.events());
      } else {
        auto workload = check::make_workload(scenario);
        world.run(*workload, [&scenario](mr::JobSpec& spec) {
          spec.num_reducers = scenario.reducers;
        });
        text = sim::canonical_text(tracer.events());
      }
      ASSERT_FALSE(text.empty()) << "seed " << seed;
      if (i == 0) {
        reference = text;
      } else {
        ASSERT_EQ(reference, text) << "fuzz seed " << seed << " corner " << i;
      }
    }
  }
  EXPECT_GE(scenarios, 12);
}

}  // namespace
}  // namespace mrapid
