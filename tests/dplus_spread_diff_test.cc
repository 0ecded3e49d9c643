// D+ balanced spread (mrapid/dplus_scheduler.h) against a reference
// model, plus a bound on the NodeTable lookups a wide D+ job costs.
//
// ReferenceDPlus is the original pass of Algorithm 1, kept verbatim:
// per tier, stable-sort every schedulable node by available dominant
// resource, scan the queue from the head judging every node's
// locality, allocate the first match, and start over. The production
// pass keeps the order across allocations, resumes at the served
// ask's index and looks only at an ask's replica holders and their
// rack mates. Over random snapshots both must make the same (ask,
// node, locality) choices in the same order and leave the same queue,
// including when a delivery re-enters the scheduler.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cluster/azure.h"
#include "cluster/topology.h"
#include "common/rng.h"
#include "harness/world.h"
#include "mrapid/dplus_scheduler.h"
#include "sim/simulation.h"
#include "workloads/pi.h"
#include "yarn/node_table.h"
#include "yarn/resource_manager.h"
#include "yarn/scheduling_algorithm.h"

namespace mrapid {
namespace {

using cluster::Locality;
using yarn::Ask;
using yarn::NodeState;
using yarn::PolicyScheduler;
using yarn::SchedulingEvent;

// ---- the reference model ------------------------------------------

class ReferenceDPlus : public yarn::ISchedulingAlgorithm {
 public:
  explicit ReferenceDPlus(core::DPlusOptions options) : options_(options) {}

  const char* name() const override { return "ReferenceDPlus"; }
  bool allocates_immediately() const override { return options_.immediate_response; }
  void schedule(PolicyScheduler& scheduler, const SchedulingEvent& event) override {
    if (event.kind == SchedulingEvent::Kind::kAsksAdded && !options_.immediate_response) {
      return;
    }
    run_algorithm(scheduler);
  }

 private:
  enum class Dominant { kVcores, kMemory };

  Dominant dominant_resource(PolicyScheduler& scheduler) const {
    const yarn::NodeTable::Aggregates agg = scheduler.context().node_table()->aggregates();
    const double vcore_ratio =
        agg.total_vcores > 0 ? static_cast<double>(agg.used_vcores) / agg.total_vcores : 0.0;
    const double mem_ratio =
        agg.total_mem > 0 ? static_cast<double>(agg.used_mem) / agg.total_mem : 0.0;
    return vcore_ratio >= mem_ratio ? Dominant::kVcores : Dominant::kMemory;
  }

  std::vector<NodeState*> sorted_nodes(PolicyScheduler& scheduler) const {
    std::vector<NodeState*> nodes = scheduler.schedulable_nodes();
    if (!options_.balanced_spread) {
      return nodes;
    }
    const Dominant dominant = dominant_resource(scheduler);
    std::stable_sort(nodes.begin(), nodes.end(), [dominant](const NodeState* a,
                                                            const NodeState* b) {
      const std::int64_t avail_a = dominant == Dominant::kVcores
                                       ? a->available().vcores
                                       : a->available().memory_mb;
      const std::int64_t avail_b = dominant == Dominant::kVcores
                                       ? b->available().vcores
                                       : b->available().memory_mb;
      if (avail_a != avail_b) return avail_a > avail_b;
      return a->id < b->id;
    });
    return nodes;
  }

  void run_algorithm(PolicyScheduler& scheduler) {
    if (scheduler.queue().empty()) return;
    const std::vector<Locality> tiers =
        options_.locality_aware
            ? std::vector<Locality>{Locality::kNodeLocal, Locality::kRackLocal, Locality::kAny}
            : std::vector<Locality>{Locality::kAny};

    for (Locality tier : tiers) {
      if (options_.balanced_spread) {
        bool progress = true;
        while (progress && !scheduler.queue().empty()) {
          progress = false;
          const auto nodes = sorted_nodes(scheduler);
          for (std::size_t i = 0; i < scheduler.queue().size(); ++i) {
            const Ask& ask = scheduler.queue()[i].ask;
            NodeState* chosen = nullptr;
            for (NodeState* node : nodes) {
              if (!ask.capability.fits_in(node->available())) continue;
              if (options_.locality_aware && tier != Locality::kAny &&
                  scheduler.locality_of(ask, node->id) != tier) {
                continue;
              }
              chosen = node;
              break;
            }
            if (chosen == nullptr) continue;
            scheduler.allocate(i, *chosen);
            progress = true;
            break;
          }
        }
      } else {
        for (NodeState* node : sorted_nodes(scheduler)) {
          for (std::size_t i = 0; i < scheduler.queue().size();) {
            const Ask& ask = scheduler.queue()[i].ask;
            const bool fits = ask.capability.fits_in(node->available());
            const bool tier_ok = !options_.locality_aware || tier == Locality::kAny ||
                                 scheduler.locality_of(ask, node->id) == tier;
            if (fits && tier_ok) {
              scheduler.allocate(i, *node);
            } else {
              ++i;
            }
          }
        }
      }
      if (scheduler.queue().empty()) break;
    }
  }

  core::DPlusOptions options_;
};

// ---- the snapshot context -----------------------------------------

// An RM stand-in over a real NodeTable. Every delivery is logged; a
// delivery may also re-enter the scheduler through `on_deliver`.
class DiffContext : public yarn::SchedulerContext {
 public:
  explicit DiffContext(std::vector<std::vector<cluster::NodeId>> racks) : topology_(racks) {}

  NodeState* node_state(cluster::NodeId id) override { return table_.find(id); }
  yarn::NodeTable* node_table() override { return &table_; }
  const cluster::Topology& topology() const override { return topology_; }
  yarn::ContainerId next_container_id() override { return next_id_++; }
  void deliver_allocation(const yarn::Allocation& allocation) override {
    std::ostringstream line;
    line << "ask " << allocation.ask << " -> node " << allocation.container.node << " "
         << cluster::locality_name(allocation.locality);
    log.push_back(line.str());
    if (on_deliver) on_deliver(allocation);
  }
  sim::Simulation& simulation() override { return sim_; }

  yarn::NodeTable& table() { return table_; }

  std::vector<std::string> log;
  std::function<void(const yarn::Allocation&)> on_deliver;

 private:
  sim::Simulation sim_;
  cluster::Topology topology_;
  yarn::NodeTable table_;
  yarn::ContainerId next_id_ = 1;
};

// Capacity shapes with different vcore-to-memory ratios (a2- and
// a3-like, and a vcore-heavy one), so the dominant dimension can flip
// mid-pass.
yarn::Resource random_capacity(RngStream& rng) {
  switch (rng.next_int(0, 2)) {
    case 0: return {2, 3584};
    case 1: return {4, 7168};
    default: return {8, 8192};
  }
}

yarn::Resource random_capability(RngStream& rng) {
  return {static_cast<int>(rng.next_int(1, 3)), 512 * rng.next_int(1, 8)};
}

// One random snapshot plus the script that drives it. Building it
// twice from the same seed yields identical contexts for the two
// algorithms; the re-entry hook draws from its own stream, so it acts
// identically as long as the two delivery logs agree.
struct Scenario {
  std::uint64_t seed = 0;
  core::DPlusOptions options;

  struct Run {
    std::unique_ptr<DiffContext> ctx;
    std::unique_ptr<PolicyScheduler> sched;
    std::vector<std::string> queue_after_passes;
  };

  Run play(bool reference) const {
    RngStream rng(seed, "test.dplus.snapshot");
    Run run;
    // Node 0 is in the topology but not in the table (a replica holder
    // that runs no NodeManager, like the master).
    const int rack_count = static_cast<int>(rng.next_int(1, 4));
    std::vector<std::vector<cluster::NodeId>> racks(static_cast<std::size_t>(rack_count));
    racks[0].push_back(0);
    cluster::NodeId next_id = 1;
    for (auto& rack : racks) {
      const int size = static_cast<int>(rng.next_int(1, 6));
      for (int k = 0; k < size; ++k) rack.push_back(next_id++);
    }
    run.ctx = std::make_unique<DiffContext>(racks);
    DiffContext& ctx = *run.ctx;
    for (cluster::NodeId id = 1; id < next_id; ++id) {
      NodeState state;
      state.id = id;
      state.capacity = random_capacity(rng);
      ctx.table().add_node(state);
    }
    for (NodeState& node : ctx.table().states()) {
      const yarn::Resource used{
          static_cast<int>(rng.next_int(0, node.capacity.vcores)),
          rng.next_int(0, node.capacity.memory_mb / 512) * 512};
      if (!used.is_zero()) ctx.table().charge(node, used);
      const double fate = rng.next_double();
      if (fate < 0.1) {
        ctx.table().set_alive(node, false);
      } else if (fate < 0.2) {
        ctx.table().set_blacklisted(node, true);
      }
    }

    std::unique_ptr<yarn::ISchedulingAlgorithm> algorithm;
    if (reference) {
      algorithm = std::make_unique<ReferenceDPlus>(options);
    } else {
      algorithm = std::make_unique<core::DPlusAlgorithm>(options);
    }
    run.sched = std::make_unique<PolicyScheduler>(std::move(algorithm));
    PolicyScheduler& sched = *run.sched;
    sched.bind(&ctx);

    yarn::AskId next_ask = 1;
    const auto make_asks = [&](RngStream& r, int count) {
      std::vector<Ask> asks;
      for (int k = 0; k < count; ++k) {
        Ask ask;
        ask.id = next_ask++;
        ask.app = static_cast<yarn::AppId>(r.next_int(1, 4));
        if (r.next_double() < 0.1) {
          ask.capability = {1, 1536};  // an AM ask
          ask.long_lived = true;
        } else {
          ask.capability = random_capability(r);
          const int replicas = static_cast<int>(r.next_int(0, 3));
          for (int j = 0; j < replicas; ++j) {
            const auto holder = static_cast<cluster::NodeId>(r.next_int(0, next_id - 1));
            ask.preferred_nodes.push_back(holder);
          }
        }
        asks.push_back(std::move(ask));
      }
      return asks;
    };

    // Re-entry: some deliveries free, charge or kill a node, cancel an
    // app's asks or submit more asks (a nested pass).
    RngStream hook_rng(seed, "test.dplus.reentry");
    int depth = 0;
    ctx.on_deliver = [&](const yarn::Allocation& allocation) {
      if (depth > 0 || hook_rng.next_double() >= 0.25) return;
      ++depth;
      std::vector<NodeState>& states = ctx.table().states();
      NodeState& node = states[static_cast<std::size_t>(
          hook_rng.next_int(0, static_cast<std::int64_t>(states.size()) - 1))];
      switch (hook_rng.next_int(0, 4)) {
        case 0:  // a container finished and the node reported in
          if (!node.used.is_zero()) ctx.table().uncharge(node, node.used);
          break;
        case 1:  // another scheduler's charge
          if (yarn::Resource{1, 512}.fits_in(node.available())) {
            ctx.table().charge(node, {1, 512});
          }
          break;
        case 2:
          ctx.table().set_alive(node, !node.alive);
          break;
        case 3:
          sched.cancel_asks(allocation.container.app == 1 ? 2 : 1);
          break;
        default:
          sched.on_container_request(
              make_asks(hook_rng, static_cast<int>(hook_rng.next_int(1, 3))));
          break;
      }
      --depth;
    };

    const auto note_queue = [&] {
      std::ostringstream line;
      for (const auto& entry : sched.queue()) line << entry.ask.id << " ";
      run.queue_after_passes.push_back(line.str());
    };
    const int rounds = static_cast<int>(rng.next_int(1, 4));
    for (int round = 0; round < rounds; ++round) {
      sched.on_container_request(make_asks(rng, static_cast<int>(rng.next_int(1, 40))));
      note_queue();
      // Free a node and serve the leftovers, as a heartbeat would.
      std::vector<NodeState>& states = ctx.table().states();
      NodeState& node = states[static_cast<std::size_t>(
          rng.next_int(0, static_cast<std::int64_t>(states.size()) - 1))];
      if (!node.used.is_zero()) ctx.table().uncharge(node, node.used);
      sched.on_node_update(node.id);
      note_queue();
    }
    ctx.on_deliver = nullptr;  // it refers to this frame
    return run;
  }
};

// Snapshots per option corner.
constexpr int kSnapshots = 300;

void expect_same_choices(const core::DPlusOptions& options) {
  int reentered = 0;
  for (int seed = 1; seed <= kSnapshots; ++seed) {
    Scenario scenario;
    scenario.seed = static_cast<std::uint64_t>(seed);
    scenario.options = options;
    const Scenario::Run want = scenario.play(/*reference=*/true);
    const Scenario::Run got = scenario.play(/*reference=*/false);
    ASSERT_EQ(got.ctx->log, want.ctx->log) << "seed " << seed;
    ASSERT_EQ(got.queue_after_passes, want.queue_after_passes) << "seed " << seed;
    ASSERT_TRUE(got.ctx->table().audit().empty()) << "seed " << seed;
    if (got.sched->counters().cancelled > 0) ++reentered;
  }
  // The hook did fire: some snapshot cancelled asks mid-pass.
  EXPECT_GT(reentered, 0);
}

TEST(DPlusSpreadDiff, SpreadAndLocality) { expect_same_choices({true, true, true}); }
TEST(DPlusSpreadDiff, SpreadWithoutLocality) { expect_same_choices({true, true, false}); }
TEST(DPlusSpreadDiff, PackingWithLocality) { expect_same_choices({true, false, true}); }
TEST(DPlusSpreadDiff, PackingWithoutLocality) { expect_same_choices({true, false, false}); }

// ---- the scaling wall ---------------------------------------------

TEST(DPlusSpreadScaling, WideJobLookupsStayLinearInAsks) {
  // 512 maps x 16 reducers under D+ on 128 nodes. A pass may judge a
  // few candidates per replica holder of each ask, and the RM looks a
  // node up per heartbeat and per container event; judging every
  // node's locality per allocation is what the bound rules out. The
  // re-sort-and-rescan pass made 107,138 lookups here; the ordered
  // pass makes 4,490.
  harness::WorldConfig config;
  config.cluster = cluster::ClusterConfig::uniform(128, 4, cluster::azure_a3());
  harness::World world(config, harness::RunMode::kDPlus);
  wl::PiParams params;
  params.num_maps = 512;
  params.fidelity_cap = 16;
  params.total_samples = 512 * 1000;
  wl::Pi pi(params);
  const auto result = world.run(pi, [](mr::JobSpec& spec) { spec.num_reducers = 16; });
  ASSERT_TRUE(result.has_value() && result->succeeded);

  const std::uint64_t asks = 512 + 16 + 1;  // maps, reducers, the AM
  const std::uint64_t allocations = asks;   // no faults: each served once
  const std::uint64_t replicas = 3;         // HdfsConfig::replication
  const std::uint64_t lookups = world.rm().node_table()->stats().lookups;
  EXPECT_LE(lookups, 4 * (asks * replicas + allocations)) << lookups << " NodeTable lookups";
}

}  // namespace
}  // namespace mrapid
