#include "mrapid/dplus_scheduler.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <optional>

#include "yarn/node_table.h"

namespace mrapid::core {

using cluster::Locality;
using yarn::Ask;
using yarn::NodeState;
using yarn::NodeTable;
using yarn::PolicyScheduler;
using yarn::Resource;
using yarn::SchedulingEvent;

namespace {

// Which resource dimension is currently dominant cluster-wide: the one
// with the higher used share of schedulable capacity.
enum class Dominant { kVcores, kMemory };

Dominant dominant_resource(NodeTable& table) {
  const NodeTable::Aggregates agg = table.aggregates();  // O(1) when incremental
  const double vcore_ratio =
      agg.total_vcores > 0 ? static_cast<double>(agg.used_vcores) / agg.total_vcores : 0.0;
  const double mem_ratio =
      agg.total_mem > 0 ? static_cast<double>(agg.used_mem) / agg.total_mem : 0.0;
  return vcore_ratio >= mem_ratio ? Dominant::kVcores : Dominant::kMemory;
}

std::int64_t amount(Resource r, Dominant dominant) {
  return dominant == Dominant::kVcores ? r.vcores : r.memory_mb;
}

}  // namespace

// Algorithm 1 lines 3-4 — the schedulable nodes by available dominant
// resource descending, id ascending — held across the allocations of
// one pass instead of re-sorted after each. A charge only lowers the
// charged node's key, so re-keying moves that one node towards the
// back. A charge that flips the dominant dimension re-keys every node:
// rebuild.
class SpreadOrder {
 public:
  explicit SpreadOrder(NodeTable& table) : table_(table) { rebuild(); }

  void rebuild() {
    dominant_ = dominant_resource(table_);
    const std::vector<NodeState*>& nodes = table_.schedulable();  // ascending id
    order_.assign(nodes.begin(), nodes.end());
    std::sort(order_.begin(), order_.end(),
              [this](const NodeState* a, const NodeState* b) { return before(a, b); });
    position_.assign(nodes.empty() ? 0 : static_cast<std::size_t>(nodes.back()->id) + 1, -1);
    for (std::size_t i = 0; i < order_.size(); ++i) {
      position_[static_cast<std::size_t>(order_[i]->id)] = static_cast<std::int32_t>(i);
    }
  }

  // `node` was just charged by this pass.
  void charged(const NodeState& node) {
    if (dominant_resource(table_) != dominant_) {
      rebuild();
      return;
    }
    const std::int32_t from = position_[static_cast<std::size_t>(node.id)];
    assert(from >= 0 && order_[static_cast<std::size_t>(from)] == &node);
    const auto first = order_.begin() + from;
    const auto to = std::lower_bound(
        first + 1, order_.end(), &node,
        [this](const NodeState* a, const NodeState* b) { return before(a, b); });
    std::rotate(first, first + 1, to);
    for (auto it = first; it != to; ++it) {
      position_[static_cast<std::size_t>((*it)->id)] =
          static_cast<std::int32_t>(it - order_.begin());
    }
  }

  bool before(const NodeState* a, const NodeState* b) const {
    const std::int64_t key_a = amount(a->available(), dominant_);
    const std::int64_t key_b = amount(b->available(), dominant_);
    if (key_a != key_b) return key_a > key_b;  // idler nodes first
    return a->id < b->id;                      // deterministic tie-break
  }

  // The schedulable state of `id`, or null — without a NodeTable lookup.
  NodeState* schedulable(cluster::NodeId id) const {
    const auto index = static_cast<std::size_t>(id);
    if (id < 0 || index >= position_.size() || position_[index] < 0) return nullptr;
    return order_[static_cast<std::size_t>(position_[index])];
  }

  // First node in order that `need` fits on, or null.
  NodeState* first_fit(Resource need) const {
    const std::int64_t want = amount(need, dominant_);
    for (NodeState* node : order_) {
      if (amount(node->available(), dominant_) < want) break;  // nor does any later node
      if (need.fits_in(node->available())) return node;
    }
    return nullptr;
  }

 private:
  NodeTable& table_;
  Dominant dominant_ = Dominant::kVcores;
  std::vector<NodeState*> order_;
  std::vector<std::int32_t> position_;  // by node id; -1 when not schedulable
};

void DPlusAlgorithm::schedule(PolicyScheduler& scheduler, const SchedulingEvent& event) {
  if (event.kind == SchedulingEvent::Kind::kAsksAdded && !options_.immediate_response) {
    return;
  }
  // kAsksAdded with immediate_response: answer in the same heartbeat.
  // kNodeUpdated: freed resources just became visible in the
  // ClusterResource snapshot; serve whatever is still queued.
  run_algorithm(scheduler);
}

bool DPlusAlgorithm::serves_tier(PolicyScheduler& scheduler, const Ask& ask,
                                 const NodeState& node, Locality tier) const {
  return !options_.locality_aware || tier == Locality::kAny ||
         scheduler.locality_of(ask, node.id) == tier;
}

NodeState* DPlusAlgorithm::first_local(PolicyScheduler& scheduler, const SpreadOrder& order,
                                       const Ask& ask, Locality tier,
                                       std::vector<NodeState*>& candidates) const {
  // Candidates: a NodeLocal node is a replica holder and a RackLocal
  // one shares a rack with one. serves_tier() stays the exact check,
  // so the dead and blacklisted replica rules live in judge_locality
  // alone.
  candidates.clear();
  const auto consider = [&](cluster::NodeId id) {
    NodeState* node = order.schedulable(id);
    if (node != nullptr && ask.capability.fits_in(node->available())) candidates.push_back(node);
  };
  if (tier == Locality::kNodeLocal) {
    for (cluster::NodeId id : ask.preferred_nodes) consider(id);
  } else {
    const cluster::Topology& topology = scheduler.context().topology();
    const auto& preferred = ask.preferred_nodes;
    for (auto it = preferred.begin(); it != preferred.end(); ++it) {
      const cluster::RackId rack = topology.rack_of(*it);
      const bool seen = std::any_of(preferred.begin(), it, [&](cluster::NodeId earlier) {
        return topology.rack_of(earlier) == rack;
      });
      if (seen) continue;
      for (cluster::NodeId member : topology.nodes_in_rack(rack)) consider(member);
    }
  }
  const auto before = [&order](const NodeState* a, const NodeState* b) {
    return order.before(a, b);
  };
  while (!candidates.empty()) {
    const auto best = std::min_element(candidates.begin(), candidates.end(), before);
    if (serves_tier(scheduler, ask, **best, tier)) return *best;
    *best = candidates.back();
    candidates.pop_back();
  }
  return nullptr;
}

void DPlusAlgorithm::spread(PolicyScheduler& scheduler, SpreadOrder& order, Locality tier) const {
  // Serve asks FIFO, each on the idlest matching node — the round-robin
  // effect of Fig. 14. Within a pass availability only falls, so an ask
  // that found no node still finds none after a later allocation: the
  // scan resumes at the served ask's index instead of restarting.
  NodeTable& table = *scheduler.context().node_table();
  std::vector<NodeState*> candidates;
  for (std::size_t i = 0; i < scheduler.queue().size();) {
    const Ask& ask = scheduler.queue()[i].ask;
    NodeState* chosen = tier == Locality::kAny
                            ? order.first_fit(ask.capability)
                            : first_local(scheduler, order, ask, tier, candidates);
    if (chosen == nullptr) {
      ++i;
      continue;
    }
    const std::uint64_t mutations = table.mutations();
    const std::uint64_t edits = scheduler.queue_edits();
    scheduler.allocate(i, *chosen);
    if (table.mutations() == mutations + 1 && scheduler.queue_edits() == edits + 1) {
      order.charged(*chosen);
    } else {
      // The delivery re-entered and freed, charged or re-queued
      // something: the resume argument no longer holds.
      order.rebuild();
      i = 0;
    }
  }
}

void DPlusAlgorithm::pack(PolicyScheduler& scheduler, Locality tier) const {
  // Ablation (spread disabled): the paper's literal node-major loop
  // without the sort — fill each node with every matching task before
  // moving on, i.e. greedy packing. A copy, since a delivery may
  // rebuild the table's list.
  const std::vector<NodeState*> nodes = scheduler.schedulable_nodes();
  for (NodeState* node : nodes) {
    for (std::size_t i = 0; i < scheduler.queue().size();) {
      const Ask& ask = scheduler.queue()[i].ask;
      if (ask.capability.fits_in(node->available()) && serves_tier(scheduler, ask, *node, tier)) {
        scheduler.allocate(i, *node);
      } else {
        ++i;
      }
    }
  }
}

void DPlusAlgorithm::run_algorithm(PolicyScheduler& scheduler) {
  if (scheduler.queue().empty()) return;

  // Algorithm 1: types = {NodeLocal, RackLocal, ANY}. For each tier we
  // serve queued asks FIFO, placing each on the idlest matching node.
  const std::vector<Locality> tiers =
      options_.locality_aware
          ? std::vector<Locality>{Locality::kNodeLocal, Locality::kRackLocal, Locality::kAny}
          : std::vector<Locality>{Locality::kAny};

  std::optional<SpreadOrder> order;
  if (options_.balanced_spread) order.emplace(*scheduler.context().node_table());
  for (Locality tier : tiers) {
    if (order) {
      spread(scheduler, *order, tier);
    } else {
      pack(scheduler, tier);
    }
    if (scheduler.queue().empty()) break;  // lines 12-13: request satisfied
  }
}

}  // namespace mrapid::core
