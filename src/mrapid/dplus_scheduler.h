#pragma once

// MRapid's improved scheduler (paper §III-A, Algorithm 1).
//
// Differences from the baseline HadoopCapacityScheduler, each behind
// its own flag so the Fig. 14 ablation can isolate it:
//  * immediate_response — allocate inside CONTAINER_STATUS_UPDATE from
//    the RM's ClusterResource snapshot, answering the AM in the same
//    heartbeat instead of waiting for some NM to report;
//  * balanced_spread — per locality tier, sort nodes by available
//    *dominant* resource (the cluster-wide scarcest dimension)
//    descending, so tasks land on the relatively idle nodes;
//  * locality_aware — serve NodeLocal matches first, then RackLocal,
//    then ANY, per the HDFS replica placement tiers.
//
// With all three off this degenerates to baseline behaviour (FIFO
// greedy packing at node-heartbeat time).
//
// Since the scheduler-zoo refactor the algorithm is a pure
// ISchedulingAlgorithm and DPlusScheduler is its PolicyScheduler
// adapter; the class survives so construction sites and tests keep
// working unchanged.

#include <memory>
#include <vector>

#include "yarn/scheduling_algorithm.h"

namespace mrapid::core {

struct DPlusOptions {
  bool immediate_response = true;
  bool balanced_spread = true;
  bool locality_aware = true;
};

class SpreadOrder;

class DPlusAlgorithm : public yarn::ISchedulingAlgorithm {
 public:
  explicit DPlusAlgorithm(DPlusOptions options) : options_(options) {}

  const char* name() const override { return "DPlusScheduler"; }
  bool allocates_immediately() const override { return options_.immediate_response; }
  void schedule(yarn::PolicyScheduler& scheduler, const yarn::SchedulingEvent& event) override;

  const DPlusOptions& options() const { return options_; }

 private:
  // One pass of Algorithm 1 over the current queue; leftovers stay
  // queued for the next resource event.
  void run_algorithm(yarn::PolicyScheduler& scheduler);
  // One tier of the pass, balanced spread on / off.
  void spread(yarn::PolicyScheduler& scheduler, SpreadOrder& order, cluster::Locality tier) const;
  void pack(yarn::PolicyScheduler& scheduler, cluster::Locality tier) const;
  // First node in spread order among `ask`'s NodeLocal / RackLocal
  // candidates that the ask fits on and that serves `tier`.
  yarn::NodeState* first_local(yarn::PolicyScheduler& scheduler, const SpreadOrder& order,
                               const yarn::Ask& ask, cluster::Locality tier,
                               std::vector<yarn::NodeState*>& candidates) const;
  // The tier predicate both paths share: does serving `ask` on `node`
  // count for `tier`?
  bool serves_tier(yarn::PolicyScheduler& scheduler, const yarn::Ask& ask,
                   const yarn::NodeState& node, cluster::Locality tier) const;

  DPlusOptions options_;
};

class DPlusScheduler : public yarn::PolicyScheduler {
 public:
  explicit DPlusScheduler(DPlusOptions options = {},
                          yarn::PolicySchedulerOptions policy_options = {})
      : PolicyScheduler(std::make_unique<DPlusAlgorithm>(options), policy_options),
        options_(options) {}

  const DPlusOptions& options() const { return options_; }

 private:
  DPlusOptions options_;
};

}  // namespace mrapid::core
