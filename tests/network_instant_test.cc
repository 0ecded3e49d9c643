// The network's once-per-instant waterfill (cluster/network.h): the
// same-instant completion fallback, teardown with a flush pending, and
// a counter-based bound on the work a wide shuffle job costs.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/azure.h"
#include "cluster/network.h"
#include "cluster/topology.h"
#include "common/units.h"
#include "harness/world.h"
#include "sim/simulation.h"
#include "sim/trace.h"
#include "workloads/pi.h"

namespace mrapid::cluster {
namespace {

// 2^20 B/s NICs and 2^20-byte flows: a lone flow takes exactly one
// second and its progress integrates to exactly zero bytes left.
constexpr double kNicBytesPerSec = 1024.0 * 1024.0;
constexpr Bytes kFlowBytes = 1024 * 1024;

std::vector<Rate> two_nics() { return {Rate{kNicBytesPerSec}, Rate{kNicBytesPerSec}}; }

TEST(NetworkInstant, SameInstantCompletionKeepsTheEagerOrder) {
  // Flow A is due at t=1s, under the seq reserved when it started.
  // E1 and E2 were scheduled at t=1s before that, so they come first.
  // E1 starts flow B while A sits at zero bytes left: replanning after
  // that change puts A's completion at t=1s under a seq taken inside
  // E1, ahead of F, which E1 schedules next. Replanning only at the
  // end of the instant would let F run first. The expected log is the
  // schedule of a network that replans after every change.
  sim::Simulation sim(11);
  const Topology topology({{0, 1}});
  Network net(sim, topology, two_nics(), NetworkConfig{});
  std::vector<std::string> log;
  const auto note = [&](const std::string& what) {
    log.push_back(what + "@" + std::to_string(sim.now().as_micros()));
  };
  const sim::SimTime one_second = sim::SimTime::from_seconds(1);
  sim.schedule_at(one_second, [&] {
    note("E1");
    net.start_flow(0, 1, kFlowBytes, [&](sim::SimDuration took) {
      note("B-done");
      EXPECT_EQ(took, sim::SimDuration::seconds(1));
    });
    sim.schedule_now([&] { note("F"); });
  });
  sim.schedule_at(one_second, [&] { note("E2"); });
  net.start_flow(0, 1, kFlowBytes, [&](sim::SimDuration took) {
    note("A-done");
    EXPECT_EQ(took, sim::SimDuration::seconds(1));
  });

  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"E1@1000000", "E2@1000000", "A-done@1000000",
                                           "F@1000000", "B-done@2000000"}));
  EXPECT_EQ(net.active_flows(), 0u);
  EXPECT_EQ(net.bytes_delivered(), 2 * kFlowBytes);
}

TEST(NetworkInstant, TeardownWithAFlushPendingLeavesNoHook) {
  // Tearing a Network down must leave nothing in the simulation that
  // calls back into it: neither the instant-end hook nor the
  // completion event.
  sim::Simulation sim(12);
  const Topology topology({{0, 1}});
  bool completed = false;
  auto net = std::make_unique<Network>(sim, topology, two_nics(), NetworkConfig{});
  net->start_flow(0, 1, kFlowBytes, [&](sim::SimDuration) { completed = true; });
  // Started outside a run: the waterfill and the completion event
  // wait for the end of the instant.
  EXPECT_EQ(sim.pending_events(), 0u);
  net.reset();
  // A hook left behind would call into the freed Network here.
  EXPECT_EQ(sim.run(), 0u);
  EXPECT_FALSE(completed);
  EXPECT_TRUE(sim.idle());

  // Same with the completion event already queued.
  net = std::make_unique<Network>(sim, topology, two_nics(), NetworkConfig{});
  net->start_flow(0, 1, kFlowBytes, [&](sim::SimDuration) { completed = true; });
  sim.run_until(sim.now() + sim::SimDuration::micros(10));
  EXPECT_EQ(sim.pending_events(), 1u);
  net.reset();
  EXPECT_EQ(sim.run(), 0u);
  EXPECT_FALSE(completed);
}

TEST(NetworkInstant, WidePiJobWaterfillsOncePerInstant) {
  // 512 maps x 16 reducers on 128 nodes: over a thousand shuffle and
  // output flows that start on a handful of simulated instants. The
  // waterfill may run once per instant at which flows start or
  // complete (the slack covers completion events that fall back to
  // replanning per change); replanning after every change would cost
  // at least one waterfill per flow start.
  harness::WorldConfig config;
  config.cluster = ClusterConfig::uniform(128, 4, azure_a3());
  harness::World world(config, harness::RunMode::kHadoop);
  sim::Tracer tracer(static_cast<std::uint32_t>(sim::TraceCategory::kNet));
  world.attach_tracer(tracer);
  wl::PiParams params;
  params.num_maps = 512;
  params.fidelity_cap = 16;
  params.total_samples = 512 * 1000;
  wl::Pi pi(params);
  const auto result = world.run(pi, [](mr::JobSpec& spec) { spec.num_reducers = 16; });
  ASSERT_TRUE(result.has_value() && result->succeeded);

  std::set<std::int64_t> start_instants;
  std::set<std::int64_t> done_instants;
  for (const sim::TraceEvent& event : tracer.events()) {
    if (event.name == "net.flow") start_instants.insert(event.time_us);
    if (event.name == "net.flow.done") done_instants.insert(event.time_us);
  }
  const Network::Stats& stats = world.cluster().network().stats();
  ASSERT_GT(stats.flows_started, 1000u);
  EXPECT_LE(stats.replans, start_instants.size() + done_instants.size())
      << stats.flows_started << " flows over " << start_instants.size() << " start and "
      << done_instants.size() << " completion instants";
}

}  // namespace
}  // namespace mrapid::cluster
