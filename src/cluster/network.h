#pragma once

// Flow-level network with max-min fair bandwidth sharing.
//
// Topology: every node has a full-duplex NIC (an up-link and a
// down-link), every rack has a full-duplex uplink to a non-blocking
// core switch. A flow's path is the set of directed links it crosses;
// rates are assigned by progressive filling (the classic max-min
// waterfill), and one "next completion" event stands for every flow
// in flight.
//
// One waterfill per simulated instant. A membership change (start,
// cancel, completion) integrates fluid progress, cancels the pending
// completion event and marks the rates stale; the waterfill and the
// new completion event wait for the end of the instant
// (sim::Simulation::at_instant_end). A dispatch that starts thousands
// of shuffle flows at one instant pays for one waterfill, not one per
// flow, and the outcome is exactly that of replanning after every
// change:
//   - the waterfill recomputes from scratch, so its answer depends
//     only on the final set and order of live flows and legs;
//   - integrating progress at an unchanged instant is a no-op;
//   - every intermediate completion estimate lies strictly after now,
//     so the next change at this instant would have cancelled it
//     before it fired; the one that survives is pushed under the
//     sequence number it would have taken at the last change
//     (Simulation::take_seq), so it dispatches in the same (time,
//     seq) place.
// The last point fails only when a leg sits at <= kEpsilonBytes after
// progress is integrated: the next completion may then be due at this
// very instant, where its seq decides which same-instant events it
// precedes. For such an instant the network replans after every
// change. flow_rate() flushes pending work before it reads.
//
// The waterfill touches only the links active flows cross: per-link
// flow lists pick each freeze set and a lazy min-heap over link shares
// finds each bottleneck, O(touched links * log) per replan whatever
// the fabric size. It performs the floating-point operations of a
// scan over every link, in the same order, so its rates equal that
// scan's to 0 ULP — tests/network_rates_diff_test.cc keeps the full
// scan as a reference model and checks both against a brute-force
// max-min oracle.
//
// Flows live in a slab with an intrusive insertion-order list and an
// id -> slot map, so cancel/flow_rate are O(1), and iteration order
// (which fixes both the waterfill freeze order and completion-callback
// order, i.e. the traces) is stable insertion order.
//
// Every slab entry is a *bundle* of one or more legs sharing a
// (src, dst) path: start_flow starts a 1-leg bundle, and the shuffle
// engine batches the same-(src,dst) fetch legs of one dispatch into a
// single bundle via announce_flow/start_announced. Each leg keeps its
// own id, byte count, fluid progress and completion trace/callback,
// and the waterfill counts *legs* when splitting link capacity, so a
// k-leg bundle is observationally identical — rates, completion times
// and traces — to k separate flows, while costing one slab slot and
// one waterfill membership.

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster/topology.h"
#include "common/units.h"
#include "sim/simulation.h"

namespace mrapid::cluster {

struct NetworkConfig {
  // Per-node NIC rate is taken from each NodeSpec; these are the
  // shared fabric parameters.
  Rate rack_uplink = Rate::gbit_per_sec(10);
  Rate loopback = Rate::gbit_per_sec(20);  // same-node "transfer"
};

class Network {
 public:
  using FlowId = std::uint64_t;
  using CompletionCallback = std::function<void(sim::SimDuration)>;

  Network(sim::Simulation& sim, const Topology& topology, std::vector<Rate> node_nic_rates,
          NetworkConfig config);
  ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // Starts a src -> dst flow of `bytes`. Zero-byte flows complete at
  // the current instant.
  FlowId start_flow(NodeId src, NodeId dst, Bytes bytes, CompletionCallback on_complete);
  bool cancel(FlowId id);

  // One leg of a to-be-started bundle (see start_announced).
  struct LegStart {
    FlowId id = 0;  // from announce_flow
    Bytes bytes = 0;
    CompletionCallback on_complete;
  };

  // Reserves a flow id and emits its "net.flow" trace *now*, at the
  // call site, without starting anything — so a caller batching legs
  // keeps the exact trace interleaving an immediate start_flow would
  // have produced. The id must be started with start_announced() in
  // the same dispatch (before simulated time advances).
  FlowId announce_flow(NodeId src, NodeId dst, Bytes bytes);

  // Starts a batch of announced legs as one src -> dst bundle. Legs
  // must have bytes > 0 (zero-byte fetches never reach the network).
  // Consumes the callbacks; the caller may clear() and reuse the
  // vector's capacity.
  void start_announced(NodeId src, NodeId dst, std::vector<LegStart>& legs);

  // Flow ids in flight (every leg of a bundle counts: one per
  // announced id not yet completed or cancelled).
  std::size_t active_flows() const { return active_legs_; }
  // Rate currently assigned to a flow (0 if unknown/finished). Runs
  // a pending waterfill first.
  Rate flow_rate(FlowId id);
  Bytes bytes_delivered() const { return bytes_delivered_; }

  // Lifetime counters for the placement/shuffle bench and the
  // bounded-work assertions in the differential suite.
  struct Stats {
    std::uint64_t flows_started = 0;
    std::uint64_t replans = 0;        // waterfills run
    std::uint64_t links_scanned = 0;  // bottleneck-search heap pops
  };
  const Stats& stats() const { return stats_; }

 private:
  using LinkIndex = std::size_t;

  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  struct Leg {
    FlowId id = 0;
    double remaining_bytes = 0.0;
    Bytes total_bytes = 0;
    CompletionCallback on_complete;
    bool live = false;  // false once completed or cancelled
  };

  struct Flow {
    NodeId src = kInvalidNode;
    NodeId dst = kInvalidNode;
    double rate_bps = 0.0;  // bytes per second *per leg*, assigned by waterfill
    sim::SimTime started;
    std::vector<Leg> legs;  // >= 1; capacity reused across slot reuse
    std::uint32_t live_legs = 0;
    std::array<LinkIndex, 4> path{};  // up to [up, rack-up, rack-down, down]
    std::uint8_t path_len = 0;
    bool active = false;
    std::uint32_t prev = kNoSlot;  // insertion-order list over slots
    std::uint32_t next = kNoSlot;
    std::uint64_t assigned_round = 0;  // waterfill freeze stamp
  };

  void set_path(Flow& flow, NodeId src, NodeId dst) const;
  std::uint32_t alloc_slot();
  void push_back_slot(std::uint32_t slot);
  void remove_flow(std::uint32_t slot);  // unlink + per-link lists + free (legs already dead)
  void kill_leg(Flow& flow, Leg& leg);   // id map + live counters
  void advance_progress();
  void assign_rates();   // progressive filling
  void rates_changed();  // after every membership change
  void flush();          // waterfill + completion event, if stale
  void on_completion_event();

  sim::Simulation& sim_;
  const Topology& topology_;
  NetworkConfig config_;

  // Link layout: [node up x N][node down x N][rack up x R][rack down x R][loopback x N]
  std::vector<double> link_capacity_bps_;
  LinkIndex up_link(NodeId n) const { return static_cast<LinkIndex>(n); }
  LinkIndex down_link(NodeId n) const { return node_count_ + static_cast<LinkIndex>(n); }
  LinkIndex rack_up_link(RackId r) const { return 2 * node_count_ + static_cast<LinkIndex>(r); }
  LinkIndex rack_down_link(RackId r) const {
    return 2 * node_count_ + rack_count_ + static_cast<LinkIndex>(r);
  }
  LinkIndex loopback_link(NodeId n) const {
    return 2 * node_count_ + 2 * rack_count_ + static_cast<LinkIndex>(n);
  }

  std::size_t node_count_;
  std::size_t rack_count_;

  // Flow storage: slab + free list + intrusive insertion-order list.
  std::vector<Flow> slab_;
  std::vector<std::uint32_t> free_slots_;
  std::uint32_t head_ = kNoSlot;
  std::uint32_t tail_ = kNoSlot;
  std::size_t active_count_ = 0;  // active slab entries (bundles)
  std::size_t active_legs_ = 0;   // live legs across all bundles
  std::unordered_map<FlowId, std::uint32_t> slot_of_;  // every leg id -> slot

  // Waterfill state. link_flows_[l] holds the active slots crossing l
  // in insertion order — the same relative order the global list
  // gives, so the freeze order (and thus every FP operation) matches
  // a full scan.
  std::vector<std::vector<std::uint32_t>> link_flows_;
  // Scratch, sized by link count but touched only on active links;
  // entries are reset via touched_ after every replan.
  std::vector<double> residual_;
  std::vector<int> unassigned_on_link_;
  std::vector<LinkIndex> touched_;
  std::vector<std::pair<double, LinkIndex>> share_heap_;
  std::vector<LegStart> single_leg_;  // start_flow scratch

  std::uint64_t round_ = 0;
  sim::SimTime last_update_ = sim::SimTime::zero();
  sim::EventId completion_event_{};
  // Deferred-replan state: rates are stale until flush(); finish_seq_
  // is the seq reserved at the last change for the completion event;
  // near_done_ says a live leg sat at <= kEpsilonBytes when progress
  // was last integrated, which forces a replan after every change.
  bool dirty_ = false;
  bool near_done_ = false;
  std::uint64_t finish_seq_ = 0;
  sim::Simulation::HookId flush_hook_ = 0;
  FlowId next_id_ = 1;
  Bytes bytes_delivered_ = 0;
  Stats stats_;
};

}  // namespace mrapid::cluster
