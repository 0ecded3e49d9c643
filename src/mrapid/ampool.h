#pragma once

// The ApplicationMaster pool (paper §III-C): the proxy reserves a
// configurable number of AM containers (default 3) at startup; a short
// job is handed to a warm AM over RPC instead of paying
// allocation + JVM launch + init for a fresh one. The paper's AMSlave
// module — the code that "accepts and executes AM from the proxy
// instead of the RM" — is modelled by each slot's reserved container
// plus the proxy RPC hop charged on handoff.

#include <functional>
#include <optional>
#include <vector>

#include "cluster/cluster.h"
#include "yarn/resource_manager.h"

namespace mrapid::core {

class AmPool {
 public:
  struct Slot {
    int index = -1;
    yarn::AppId app = yarn::kInvalidApp;
    yarn::Container container;
  };

  AmPool(cluster::Cluster& cluster, yarn::ResourceManager& rm, int size);

  // Submits the reserve applications; `on_ready` fires when every slot
  // has a warm AM.
  void start(std::function<void()> on_ready);

  int size() const { return static_cast<int>(slots_.size()); }
  int free_slots() const;
  bool ready() const { return ready_slots_ == size(); }

  // Hands out a warm AM, preferring the slot whose node currently has
  // the most free cores (matters for U+, which runs maps there).
  std::optional<Slot> acquire();
  void release(int index);

  const Slot& slot(int index) const { return slots_.at(static_cast<std::size_t>(index)).slot; }

  // Fault wiring. `slot_lost` fires when a slot's AM container dies
  // with its node (the slot goes cold; any job it carried is gone).
  // `slot_warm` fires every time a slot (re-)warms — the framework
  // pumps its queue so resubmitted jobs can dispatch.
  void set_slot_lost(std::function<void(int index)> cb) { on_slot_lost_ = std::move(cb); }
  void set_slot_warm(std::function<void()> cb) { on_warm_ = std::move(cb); }

 private:
  struct SlotState {
    Slot slot;
    bool warm = false;
    bool busy = false;
    bool dead = false;  // reserve app exhausted its AM attempts
  };

  // The reserve app's AM container died; the RM is re-executing it
  // (the slot re-warms when the fresh AM comes up).
  void evict(std::size_t i);

  // Warm, idle, and on a node the RM still counts as alive. A node's
  // expiry reports its AMs lost one app at a time, so while the first
  // loss is handled (and its job resubmitted) the node's other slots
  // are still warm but already dead.
  bool available(const SlotState& state) const;

  cluster::Cluster& cluster_;
  yarn::ResourceManager& rm_;
  std::vector<SlotState> slots_;
  int ready_slots_ = 0;
  std::function<void()> on_ready_;
  std::function<void(int)> on_slot_lost_;
  std::function<void()> on_warm_;
};

}  // namespace mrapid::core
