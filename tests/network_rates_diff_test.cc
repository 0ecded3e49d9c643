// Differential wall for the network's waterfill (cluster/network.h).
// A Network and a compact reference model of the original algorithm
// (FullScanNetwork below: every waterfill round scans every link for
// the bottleneck and every flow for the freeze set, and every change
// replans at once) are driven through the same randomized op scripts
// in lock-step simulations. Every assigned rate must match to 0 ULP,
// every completion must land at the same instant in the same order,
// and the Network's allocation is also checked against an independent
// brute-force max-min fairness oracle (feasibility on every link, and
// every flow crossing a saturated link on which it has the maximum
// rate). The burst scripts mutate many times per simulated instant,
// from inside events and completion callbacks, which is where the
// Network defers its waterfill to the end of the instant. A final
// test pins the bounded-work claim: the Network's bottleneck search
// must not scale with fabric size the way the full scan does.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "cluster/network.h"
#include "cluster/topology.h"
#include "common/rng.h"
#include "common/units.h"
#include "sim/simulation.h"

namespace mrapid::cluster {
namespace {

struct Fabric {
  std::vector<std::vector<NodeId>> racks;
  std::vector<Rate> nic_rates;

  cluster::Topology topology() const { return cluster::Topology(racks); }
  std::int64_t nodes() const { return static_cast<std::int64_t>(nic_rates.size()); }
};

Fabric make_fabric(RngStream& rng, int max_nodes, int max_racks) {
  const int total = static_cast<int>(rng.next_int(2, max_nodes));
  const int racks = static_cast<int>(rng.next_int(1, std::min(max_racks, total)));
  Fabric fabric;
  fabric.racks.resize(static_cast<std::size_t>(racks));
  for (int node = 0; node < total; ++node) {
    const int rack = node < racks ? node : static_cast<int>(rng.next_int(0, racks - 1));
    fabric.racks[static_cast<std::size_t>(rack)].push_back(static_cast<NodeId>(node));
  }
  // Mixed NIC speeds so per-link shares differ, while several nodes
  // still share each speed so bottleneck ties keep happening.
  for (int node = 0; node < total; ++node) {
    fabric.nic_rates.push_back(rng.next_int(0, 1) == 0 ? Rate::gbit_per_sec(1)
                                                       : Rate::gbit_per_sec(2));
  }
  return fabric;
}

// Independent re-derivation of Network's link layout and flow paths,
// so the fairness oracle does not trust the code under test for either.
struct LinkModel {
  LinkModel(const cluster::Topology& topology, const std::vector<Rate>& nic_rates,
            const NetworkConfig& config)
      : topology_(topology), nodes_(nic_rates.size()), racks_(topology.rack_count()) {
    capacity.assign(3 * nodes_ + 2 * racks_, 0.0);
    for (std::size_t n = 0; n < nodes_; ++n) {
      capacity[n] = nic_rates[n].bytes_per_sec;           // node up
      capacity[nodes_ + n] = nic_rates[n].bytes_per_sec;  // node down
      capacity[2 * nodes_ + 2 * racks_ + n] = config.loopback.bytes_per_sec;
    }
    for (std::size_t r = 0; r < racks_; ++r) {
      capacity[2 * nodes_ + r] = config.rack_uplink.bytes_per_sec;           // rack up
      capacity[2 * nodes_ + racks_ + r] = config.rack_uplink.bytes_per_sec;  // rack down
    }
  }

  std::vector<std::size_t> path(NodeId src, NodeId dst) const {
    if (src == dst) return {2 * nodes_ + 2 * racks_ + static_cast<std::size_t>(src)};
    const RackId sr = topology_.rack_of(src);
    const RackId dr = topology_.rack_of(dst);
    if (sr == dr) {
      return {static_cast<std::size_t>(src), nodes_ + static_cast<std::size_t>(dst)};
    }
    return {static_cast<std::size_t>(src), 2 * nodes_ + static_cast<std::size_t>(sr),
            2 * nodes_ + racks_ + static_cast<std::size_t>(dr),
            nodes_ + static_cast<std::size_t>(dst)};
  }

  std::vector<double> capacity;

 private:
  const cluster::Topology& topology_;
  std::size_t nodes_;
  std::size_t racks_;
};

// The reference model: the network's original algorithm, kept
// compact. Single-leg flows in a vector in insertion order; a
// waterfill scans every link per round; every change integrates
// progress, reruns the waterfill and reschedules the completion event
// at once. Same interface as Network where the scripts use it.
class FullScanNetwork {
 public:
  using FlowId = Network::FlowId;
  using CompletionCallback = Network::CompletionCallback;
  struct Stats {
    std::uint64_t flows_started = 0;
    std::uint64_t replans = 0;
    std::uint64_t links_scanned = 0;
  };

  FullScanNetwork(sim::Simulation& sim, const cluster::Topology& topology,
                  const std::vector<Rate>& nic_rates, const NetworkConfig& config)
      : sim_(sim), links_(topology, nic_rates, config) {}

  FlowId start_flow(NodeId src, NodeId dst, Bytes bytes, CompletionCallback on_complete) {
    const FlowId id = next_id_++;
    if (bytes == 0) {
      sim_.schedule_now([cb = std::move(on_complete)] { cb(sim::SimDuration::zero()); });
      return id;
    }
    advance();
    flows_.push_back(Flow{id, links_.path(src, dst), static_cast<double>(bytes), bytes,
                          sim_.now(), 0.0, std::move(on_complete)});
    ++stats_.flows_started;
    replan();
    return id;
  }

  bool cancel(FlowId id) {
    advance();
    const auto it = std::find_if(flows_.begin(), flows_.end(),
                                 [id](const Flow& f) { return f.id == id; });
    if (it == flows_.end()) return false;
    flows_.erase(it);
    replan();
    return true;
  }

  Rate flow_rate(FlowId id) const {
    for (const Flow& f : flows_) {
      if (f.id == id) return Rate{f.rate};
    }
    return Rate{0.0};
  }
  std::size_t active_flows() const { return flows_.size(); }
  Bytes bytes_delivered() const { return bytes_delivered_; }
  const Stats& stats() const { return stats_; }

 private:
  struct Flow {
    FlowId id;
    std::vector<std::size_t> path;
    double remaining;
    Bytes total;
    sim::SimTime started;
    double rate;
    CompletionCallback on_complete;
  };

  void advance() {
    const sim::SimTime now = sim_.now();
    if (now > last_update_) {
      const double elapsed = (now - last_update_).as_seconds();
      for (Flow& f : flows_) f.remaining = std::max(0.0, f.remaining - f.rate * elapsed);
    }
    last_update_ = now;
  }

  void waterfill() {
    ++stats_.replans;
    std::vector<double> residual = links_.capacity;
    std::vector<int> unassigned(residual.size(), 0);
    for (const Flow& f : flows_) {
      for (const std::size_t l : f.path) ++unassigned[l];
    }
    std::vector<bool> frozen(flows_.size(), false);
    std::size_t remaining = flows_.size();
    while (remaining > 0) {
      double best = std::numeric_limits<double>::infinity();
      std::size_t bottleneck = residual.size();
      for (std::size_t l = 0; l < residual.size(); ++l) {
        ++stats_.links_scanned;
        if (unassigned[l] == 0) continue;
        const double share = residual[l] / unassigned[l];
        if (share < best) {
          best = share;
          bottleneck = l;
        }
      }
      for (std::size_t i = 0; i < flows_.size(); ++i) {
        Flow& f = flows_[i];
        if (frozen[i] || std::find(f.path.begin(), f.path.end(), bottleneck) == f.path.end()) {
          continue;
        }
        f.rate = best;
        frozen[i] = true;
        --remaining;
        for (const std::size_t l : f.path) {
          residual[l] = std::max(0.0, residual[l] - best);
          --unassigned[l];
        }
      }
    }
  }

  void replan() {
    waterfill();
    if (completion_.valid()) {
      sim_.cancel(completion_);
      completion_ = sim::EventId{};
    }
    if (flows_.empty()) return;
    double eta = std::numeric_limits<double>::infinity();
    for (const Flow& f : flows_) {
      if (f.rate > 0) eta = std::min(eta, f.remaining / f.rate);
    }
    completion_ = sim_.schedule_after(sim::SimDuration::seconds_ceil(std::max(0.0, eta)),
                                      [this] { on_completion(); });
  }

  void on_completion() {
    completion_ = sim::EventId{};
    advance();
    std::vector<Flow> done;
    for (auto it = flows_.begin(); it != flows_.end();) {
      if (it->remaining <= 1e-6) {
        done.push_back(std::move(*it));
        it = flows_.erase(it);
      } else {
        ++it;
      }
    }
    replan();
    for (Flow& f : done) {
      bytes_delivered_ += f.total;
      f.on_complete(sim_.now() - f.started);
    }
  }

  sim::Simulation& sim_;
  LinkModel links_;
  std::vector<Flow> flows_;
  sim::SimTime last_update_ = sim::SimTime::zero();
  sim::EventId completion_{};
  FlowId next_id_ = 1;
  Bytes bytes_delivered_ = 0;
  Stats stats_;
};

struct LiveFlow {
  NodeId src;
  NodeId dst;
};

// Max-min fairness characterization (the classic bottleneck condition,
// Bertsekas & Gallager): the allocation is feasible, and every flow
// crosses at least one saturated link on which its rate is maximal —
// so no flow's rate can be raised without lowering an equal-or-smaller
// one.
void expect_max_min_fair(Network& net, const LinkModel& model,
                         const std::map<Network::FlowId, LiveFlow>& live) {
  std::vector<double> load(model.capacity.size(), 0.0);
  std::vector<double> max_rate(model.capacity.size(), 0.0);
  for (const auto& [id, flow] : live) {
    const double rate = net.flow_rate(id).bytes_per_sec;
    ASSERT_GT(rate, 0.0) << "flow " << id << " assigned no rate";
    for (const std::size_t l : model.path(flow.src, flow.dst)) {
      load[l] += rate;
      max_rate[l] = std::max(max_rate[l], rate);
    }
  }
  for (std::size_t l = 0; l < load.size(); ++l) {
    EXPECT_LE(load[l], model.capacity[l] * (1.0 + 1e-9) + 1e-3)
        << "link " << l << " oversubscribed";
  }
  for (const auto& [id, flow] : live) {
    const double rate = net.flow_rate(id).bytes_per_sec;
    bool bottlenecked = false;
    for (const std::size_t l : model.path(flow.src, flow.dst)) {
      const bool saturated = load[l] >= model.capacity[l] * (1.0 - 1e-9) - 1e-3;
      const bool maximal = rate >= max_rate[l] * (1.0 - 1e-9);
      bottlenecked |= saturated && maximal;
    }
    EXPECT_TRUE(bottlenecked) << "flow " << id << " crosses no saturated max-rate link";
  }
}

struct Completion {
  Network::FlowId id = 0;
  std::int64_t at_micros = 0;
  bool operator==(const Completion& other) const {
    return id == other.id && at_micros == other.at_micros;
  }
};

// One side of a lock-step run: a simulation, a network (Network or the
// reference model) and what the script has observed of it. FlowIds
// are sequential from 1 on both, so each side predicts the id a start
// will get (asserted) and registers a callback that knows it.
template <class Net>
struct Side {
  Side(std::uint64_t seed, const Fabric& fabric)
      : topology(fabric.topology()),
        sim(seed),
        net(sim, topology, fabric.nic_rates, NetworkConfig{}) {}

  // With `chain` set, every third completion starts a reverse flow
  // from inside its callback: a mutation in the completion's own
  // dispatch.
  void start(NodeId src, NodeId dst, Bytes bytes) {
    const Network::FlowId id = next_id++;
    const Network::FlowId got =
        net.start_flow(src, dst, bytes, [this, id, src, dst, bytes](sim::SimDuration) {
          done.push_back({id, sim.now().as_micros()});
          live.erase(id);
          if (chain && id % 3 == 0) start(dst, src, bytes / 2 + 1);
        });
    EXPECT_EQ(got, id);
    if (bytes > 0) live.emplace(id, LiveFlow{src, dst});
  }

  void cancel(Network::FlowId target) {
    const bool was_live = live.erase(target) == 1;
    EXPECT_EQ(net.cancel(target), was_live) << "flow " << target;
  }

  cluster::Topology topology;
  sim::Simulation sim;
  Net net;
  bool chain = false;
  Network::FlowId next_id = 1;
  std::map<Network::FlowId, LiveFlow> live;  // bytes > 0, not yet done/cancelled
  std::vector<Completion> done;
};

// The lock-step check after every step: same live set, same
// completions so far (ids and instants, in order), every rate equal
// to 0 ULP — identical FP operations in identical order, so exact
// equality, not near-equality — and the allocation max-min fair.
void expect_same_state(Side<Network>& net, Side<FullScanNetwork>& ref, const LinkModel& model,
                       const std::string& where) {
  ASSERT_EQ(net.done, ref.done) << where << ": completion logs diverged";
  ASSERT_EQ(net.net.active_flows(), net.live.size()) << where;
  ASSERT_EQ(ref.net.active_flows(), ref.live.size()) << where;
  for (const auto& [id, flow] : ref.live) {
    ASSERT_EQ(net.live.count(id), 1u) << where << " flow " << id;
    ASSERT_EQ(net.net.flow_rate(id).bytes_per_sec, ref.net.flow_rate(id).bytes_per_sec)
        << where << " flow " << id;
  }
  expect_max_min_fair(net.net, model, net.live);
}

// Both sides must finish every remaining flow, at the same instants,
// in the same order, having done the same work.
void expect_same_drain(Side<Network>& net, Side<FullScanNetwork>& ref, std::int64_t now_us,
                       const std::string& where) {
  net.sim.run_until(sim::SimTime::from_micros(now_us + 3'600'000'000LL));
  ref.sim.run_until(sim::SimTime::from_micros(now_us + 3'600'000'000LL));
  EXPECT_EQ(net.net.active_flows(), 0u) << where;
  EXPECT_EQ(ref.net.active_flows(), 0u) << where;
  EXPECT_EQ(net.done, ref.done) << where << ": completion logs diverged";
  EXPECT_EQ(net.net.bytes_delivered(), ref.net.bytes_delivered()) << where;
  EXPECT_EQ(net.net.stats().flows_started, ref.net.stats().flows_started) << where;
  // At most one waterfill per instant against one per change.
  EXPECT_LE(net.net.stats().replans, ref.net.stats().replans) << where;
}

// Drives one fuzzed op script through both sides, one op per step,
// each op issued between runs.
void run_script(std::uint64_t seed, int ops, int max_nodes) {
  RngStream rng(seed, "test.netdiff");
  const Fabric fabric = make_fabric(rng, max_nodes, /*max_racks=*/4);
  Side<Network> net(seed, fabric);
  Side<FullScanNetwork> ref(seed, fabric);
  const LinkModel model(net.topology, fabric.nic_rates, NetworkConfig{});

  std::int64_t now_us = 0;
  for (int op = 0; op < ops; ++op) {
    now_us += rng.next_int(0, 400'000);
    net.sim.run_until(sim::SimTime::from_micros(now_us));
    ref.sim.run_until(sim::SimTime::from_micros(now_us));

    const std::int64_t kind = rng.next_int(0, 9);
    if (kind <= 5) {  // start (kind 5: a zero-byte flow)
      const auto src = static_cast<NodeId>(rng.next_int(0, fabric.nodes() - 1));
      const auto dst = static_cast<NodeId>(rng.next_int(0, fabric.nodes() - 1));
      const Bytes bytes = kind == 5 ? 0 : 64_KB * rng.next_int(1, 64);
      net.start(src, dst, bytes);
      ref.start(src, dst, bytes);
    } else if (kind <= 7 && net.next_id > 1) {  // cancel (possibly of a finished id)
      const auto target =
          static_cast<Network::FlowId>(rng.next_int(1, static_cast<std::int64_t>(net.next_id) - 1));
      net.cancel(target);
      ref.cancel(target);
    }
    // kind 8-9: pure time advance.

    expect_same_state(net, ref, model, "seed " + std::to_string(seed) + " op " + std::to_string(op));
    if (::testing::Test::HasFatalFailure()) return;
  }
  expect_same_drain(net, ref, now_us, "seed " + std::to_string(seed));
}

// Drives bursts: each step lands 1-8 ops at one simulated instant from
// inside a scheduled event — where the Network defers its waterfill to
// the end of the instant — and completions chain reverse flows from
// their callbacks. A quarter of the steps reuse the previous instant,
// so a burst can follow completions (and a flush) at its own instant.
void run_bursts(std::uint64_t seed, int steps, int max_nodes) {
  RngStream rng(seed, "test.netdiff.bursts");
  const Fabric fabric = make_fabric(rng, max_nodes, /*max_racks=*/4);
  Side<Network> net(seed, fabric);
  Side<FullScanNetwork> ref(seed, fabric);
  net.chain = ref.chain = true;
  const LinkModel model(net.topology, fabric.nic_rates, NetworkConfig{});

  struct Op {
    bool start;
    NodeId src;
    NodeId dst;
    Bytes bytes;
    Network::FlowId target;
  };
  std::int64_t now_us = 0;
  for (int step = 0; step < steps; ++step) {
    if (rng.next_int(0, 3) != 0) now_us += rng.next_int(1, 300'000);
    std::vector<Op> ops(static_cast<std::size_t>(rng.next_int(1, 8)));
    for (Op& op : ops) {
      op.start = rng.next_int(0, 3) != 0;
      op.src = static_cast<NodeId>(rng.next_int(0, fabric.nodes() - 1));
      op.dst = static_cast<NodeId>(rng.next_int(0, fabric.nodes() - 1));
      op.bytes = 64_KB * rng.next_int(1, 64);
      op.target = static_cast<Network::FlowId>(
          rng.next_int(1, static_cast<std::int64_t>(net.next_id) + 4));
    }
    const auto burst = [&ops, now_us](auto& side) {
      side.sim.schedule_at(sim::SimTime::from_micros(now_us), [&side, ops] {
        for (const Op& op : ops) {
          if (op.start) {
            side.start(op.src, op.dst, op.bytes);
          } else {
            side.cancel(op.target);
          }
        }
      });
      side.sim.run_until(sim::SimTime::from_micros(now_us));
    };
    burst(net);
    burst(ref);
    expect_same_state(net, ref, model,
                      "seed " + std::to_string(seed) + " step " + std::to_string(step));
    if (::testing::Test::HasFatalFailure()) return;
  }
  expect_same_drain(net, ref, now_us, "seed " + std::to_string(seed));
}

TEST(NetworkRatesDiff, FuzzedScriptsMatchToZeroUlp) {
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    run_script(seed, /*ops=*/60, /*max_nodes=*/24);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(NetworkRatesDiff, DenseContentionMatchesToZeroUlp) {
  // Few nodes, many flows: every link is shared, rounds cascade, and
  // the heap sees a stale entry on nearly every pop.
  for (std::uint64_t seed = 100; seed < 108; ++seed) {
    run_script(seed, /*ops=*/80, /*max_nodes=*/5);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(NetworkRatesDiff, SameInstantBurstsMatchTheEagerModel) {
  for (std::uint64_t seed = 200; seed < 216; ++seed) {
    run_bursts(seed, /*steps=*/40, /*max_nodes=*/12);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(NetworkRatesDiff, UnknownFlowLookupsAreCheap) {
  Fabric fabric;
  fabric.racks = {{0, 1}};
  fabric.nic_rates = {Rate::gbit_per_sec(1), Rate::gbit_per_sec(1)};
  const cluster::Topology topology = fabric.topology();
  sim::Simulation sim(7);
  Network net(sim, topology, fabric.nic_rates, NetworkConfig{});
  EXPECT_EQ(net.flow_rate(123).bytes_per_sec, 0.0);
  EXPECT_FALSE(net.cancel(123));
  const auto id = net.start_flow(0, 1, 1_MB, [](sim::SimDuration) {});
  EXPECT_GT(net.flow_rate(id).bytes_per_sec, 0.0);
  EXPECT_TRUE(net.cancel(id));
  EXPECT_FALSE(net.cancel(id));
}

TEST(NetworkRatesDiff, IncrementalWorkIsIndependentOfFabricSize) {
  // A 1500-node fabric with a handful of flows: the full scan visits
  // every link per waterfill round, the Network only pops heap entries
  // for links the flows actually cross. Reading every live rate after
  // each change forces one waterfill per change on both sides.
  constexpr int kNodes = 1500;
  Fabric fabric;
  fabric.racks.resize(6);
  for (int node = 0; node < kNodes; ++node) {
    fabric.racks[static_cast<std::size_t>(node % 6)].push_back(static_cast<NodeId>(node));
    fabric.nic_rates.push_back(Rate::gbit_per_sec(1));
  }
  Side<Network> net(1, fabric);
  Side<FullScanNetwork> ref(1, fabric);
  const auto expect_same_rates = [&] {
    for (const auto& [id, flow] : ref.live) {
      ASSERT_EQ(net.net.flow_rate(id).bytes_per_sec, ref.net.flow_rate(id).bytes_per_sec);
    }
  };

  std::vector<Network::FlowId> ids;
  for (int i = 0; i < 8; ++i) {
    const auto src = static_cast<NodeId>(i);
    const auto dst = static_cast<NodeId>(kNodes - 1 - i);
    ids.push_back(net.next_id);
    net.start(src, dst, 512_MB);
    ref.start(src, dst, 512_MB);
    expect_same_rates();
  }
  for (const auto id : ids) {
    net.cancel(id);
    ref.cancel(id);
    expect_same_rates();
  }
  EXPECT_LE(net.net.stats().replans, ref.net.stats().replans);
  EXPECT_GE(net.net.stats().replans, ids.size());  // one per start at least
  // 8 flows touch <= 8 * 4 links; even with one stale pop per freeze
  // the Network stays two orders of magnitude under the full scan's
  // links * rounds * replans.
  const std::uint64_t total_links = 3 * kNodes + 2 * 6;
  EXPECT_GE(ref.net.stats().links_scanned, total_links);  // at least one full sweep
  EXPECT_LE(net.net.stats().links_scanned, net.net.stats().replans * 64);
  EXPECT_LT(net.net.stats().links_scanned * 100, ref.net.stats().links_scanned);
}

}  // namespace
}  // namespace mrapid::cluster
