#include "mrapid/ampool.h"

#include <cassert>

#include "common/log.h"
#include "sim/trace.h"

namespace mrapid::core {

AmPool::AmPool(cluster::Cluster& cluster, yarn::ResourceManager& rm, int size)
    : cluster_(cluster), rm_(rm) {
  assert(size >= 1);
  slots_.resize(static_cast<std::size_t>(size));
  for (int i = 0; i < size; ++i) slots_[static_cast<std::size_t>(i)].slot.index = i;
}

void AmPool::start(std::function<void()> on_ready) {
  on_ready_ = std::move(on_ready);
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const yarn::AppId app = rm_.submit_application(
        "ampool-reserve-" + std::to_string(i), [this, i](const yarn::Container& container) {
          SlotState& state = slots_[i];
          state.slot.container = container;
          state.warm = true;
          ++ready_slots_;
          MRAPID_TRACE(cluster_.simulation(), sim::TraceCategory::kPool, "pool.warm",
                       {"slot", static_cast<std::int64_t>(i)}, {"app", state.slot.app},
                       {"node", container.node});
          LOG_INFO("ampool", "slot %zu warm on node %d", i, container.node);
          // Fire the startup callback once (a slot re-warming after an
          // eviction must not re-trigger it).
          if (ready() && on_ready_) {
            auto cb = std::move(on_ready_);
            on_ready_ = nullptr;
            cb();
          }
          if (on_warm_) on_warm_();
        });
    slots_[i].slot.app = app;
    // The reserve app's AM dies when its node does; the RM re-executes
    // it (slot re-warms) until the attempt budget runs out.
    rm_.set_am_lost_handler(app, [this, i] { evict(i); });
    rm_.set_am_failure_handler(app, [this, i] {
      slots_[i].dead = true;
      MRAPID_TRACE(cluster_.simulation(), sim::TraceCategory::kFault, "pool.dead",
                   {"slot", static_cast<std::int64_t>(i)}, {"app", slots_[i].slot.app});
      LOG_WARN("ampool", "slot %zu permanently lost (AM attempts exhausted)", i);
    });
  }
}

void AmPool::evict(std::size_t i) {
  SlotState& state = slots_[i];
  MRAPID_TRACE(cluster_.simulation(), sim::TraceCategory::kFault, "pool.evict",
               {"slot", static_cast<std::int64_t>(i)}, {"app", state.slot.app},
               {"busy", state.busy ? 1 : 0});
  LOG_WARN("ampool", "slot %zu evicted (AM container lost)", i);
  if (state.warm) {
    state.warm = false;
    --ready_slots_;
  }
  state.busy = false;
  if (on_slot_lost_) on_slot_lost_(static_cast<int>(i));
}

bool AmPool::available(const SlotState& state) const {
  if (!state.warm || state.busy) return false;
  const yarn::NodeState* node = rm_.node_state(state.slot.container.node);
  assert(node != nullptr);
  return node->alive;
}

int AmPool::free_slots() const {
  int free = 0;
  for (const auto& state : slots_) {
    if (available(state)) ++free;
  }
  return free;
}

std::optional<AmPool::Slot> AmPool::acquire() {
  SlotState* best = nullptr;
  std::int64_t best_free_cores = 0;
  for (auto& state : slots_) {
    if (!available(state)) continue;
    auto& node = cluster_.node(state.slot.container.node);
    // Free CPU estimated from the fluid resource: fewer active compute
    // streams means a less loaded node. This can go below zero on an
    // oversubscribed node (backfilling policies pack hard), so a free
    // slot must win even at negative headroom — never start the best
    // at a sentinel a real candidate could lose to.
    const std::int64_t free_cores =
        node.spec().cores - static_cast<std::int64_t>(node.cpu().active_transfers());
    if (best == nullptr || free_cores > best_free_cores) {
      best_free_cores = free_cores;
      best = &state;
    }
  }
  if (best == nullptr) return std::nullopt;
  best->busy = true;
  MRAPID_TRACE(cluster_.simulation(), sim::TraceCategory::kPool, "pool.acquire",
               {"slot", best->slot.index}, {"app", best->slot.app},
               {"node", best->slot.container.node});
  return best->slot;
}

void AmPool::release(int index) {
  SlotState& state = slots_.at(static_cast<std::size_t>(index));
  assert(state.busy);
  state.busy = false;
  MRAPID_TRACE(cluster_.simulation(), sim::TraceCategory::kPool, "pool.release",
               {"slot", index}, {"app", state.slot.app});
}

}  // namespace mrapid::core
