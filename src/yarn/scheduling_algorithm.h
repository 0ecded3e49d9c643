#pragma once

// The batsched-style split of the scheduling stack:
//
//   * PolicyScheduler is the event adapter behind the yarn::Scheduler
//     seam. It owns everything stateful a policy needs but should not
//     maintain itself: the FIFO ask queue (with enqueue times and
//     per-ask runtime estimates), the running-container table the
//     backfilling shadow schedules replay, per-app runtime hints from
//     the MRapid profiler, the ask-conservation counters the
//     trace_check invariant audits, and the WaitingTimeEstimator.
//
//   * ISchedulingAlgorithm is the pure decision core: one schedule()
//     pass per resource event over the adapter's snapshot (queue +
//     node states + running table). A policy never touches the RM —
//     allocation goes through PolicyScheduler::allocate(), which does
//     all the charging, delivery and accounting identically for every
//     policy, so a new policy cannot get the bookkeeping wrong.
//
// Concrete policies live in yarn/policies.h (capacity, FCFS, EASY and
// conservative backfilling) and mrapid/dplus_scheduler.h (D+).

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "sim/time.h"
#include "yarn/scheduler.h"
#include "yarn/wait_estimator.h"

namespace mrapid::yarn {

class PolicyScheduler;

// One queued ask, annotated with what a shadow schedule needs.
struct QueuedAsk {
  Ask ask;
  sim::SimTime enqueued;
  // Expected runtime of the container this ask becomes, resolved at
  // enqueue time (per-app hint > observed mean service > default).
  double runtime_estimate_s = 0.0;
};

// A live container this scheduler allocated, for shadow schedules:
// backfilling predicts when resources free by replaying these.
struct RunningContainer {
  ContainerId id = 0;
  AppId app = kInvalidApp;
  cluster::NodeId node = cluster::kInvalidNode;
  Resource resource;
  sim::SimTime started;
  double runtime_estimate_s = 0.0;

  double estimated_end_s() const { return started.as_seconds() + runtime_estimate_s; }
};

// Why the adapter is invoking the policy.
struct SchedulingEvent {
  enum class Kind {
    kAsksAdded,    // CONTAINER_STATUS_UPDATE delivered new asks
    kNodeUpdated,  // NODE_STATUS_UPDATE refreshed one node's resources
  };
  Kind kind = Kind::kNodeUpdated;
  cluster::NodeId node = cluster::kInvalidNode;  // kNodeUpdated only
};

// A pure scheduling policy. Stateless policies need only schedule();
// reservation-holding ones (conservative backfilling with persistent
// state) also react to on_cancel so a finished app's backfill
// reservations never leak.
class ISchedulingAlgorithm {
 public:
  virtual ~ISchedulingAlgorithm() = default;
  virtual const char* name() const = 0;

  // True when the policy serves fresh asks inside the very
  // CONTAINER_STATUS_UPDATE that delivered them (MRapid D+).
  virtual bool allocates_immediately() const { return false; }

  // One decision pass over the adapter's current snapshot.
  virtual void schedule(PolicyScheduler& scheduler, const SchedulingEvent& event) = 0;

  // `app`'s queued asks are about to be dropped.
  virtual void on_cancel(PolicyScheduler& scheduler, AppId app) {
    (void)scheduler;
    (void)app;
  }
};

struct PolicySchedulerOptions {
  // Runtime estimate for an ask with no per-app hint before any
  // service time has been observed (a map container on the paper's
  // short jobs runs a few seconds).
  double default_runtime_estimate_s = 8.0;
  // AM containers live for their whole application; without this the
  // backfillers would happily stuff an AM into a short shadow gap.
  double am_runtime_estimate_s = 600.0;
  // Observed mean service time replaces the default once this many
  // containers have finished.
  std::size_t min_service_samples = 4;
  WaitEstimatorOptions wait;
};

// The event adapter every concrete scheduler is an instance of.
class PolicyScheduler : public Scheduler {
 public:
  explicit PolicyScheduler(std::unique_ptr<ISchedulingAlgorithm> algorithm,
                           PolicySchedulerOptions options = {});
  ~PolicyScheduler() override;

  // ---- yarn::Scheduler seam ---------------------------------------
  const char* name() const override { return algorithm_->name(); }
  bool allocates_immediately() const override { return algorithm_->allocates_immediately(); }
  void on_container_request(std::vector<Ask> asks) override;
  void on_node_update(cluster::NodeId node) override;
  void cancel_asks(AppId app) override;
  std::size_t queued_asks() const override { return queue_.size(); }
  void on_container_finished(const Container& container) override;
  const WaitingTimeEstimator* wait_estimator() const override { return &wait_estimator_; }
  void set_app_runtime_hint(AppId app, double seconds) override;

  // ---- snapshot services for the policy ---------------------------
  const std::deque<QueuedAsk>& queue() const { return queue_; }
  const std::vector<RunningContainer>& running() const { return running_; }
  SchedulerContext& context();
  sim::SimTime now() const;
  // Schedulable nodes in ascending id order (the deterministic
  // iteration order every policy shares), served from the NodeTable's
  // cached list (rebuilt only on membership flips). Pointers stay
  // valid for the duration of one schedule() pass.
  const std::vector<NodeState*>& schedulable_nodes();
  // Lowest-id schedulable node fitting `need`, skipping at most one
  // node — exactly the front-to-back scan every FIFO-prefix policy
  // historically did, O(log N) via the NodeTable.
  NodeState* first_fit(Resource need, cluster::NodeId skip = cluster::kInvalidNode);
  cluster::Locality locality_of(const Ask& ask, cluster::NodeId node) const {
    return judge_locality(ask, node);
  }

  // Serve queue()[index] on `node`: charges the node, mints the
  // container, delivers the allocation, records the wait sample and
  // the running-table entry, erases the queue entry. `backfilled`
  // marks out-of-order service for the shootout's backfill-rate
  // metric.
  void allocate(std::size_t index, NodeState& node, bool backfilled = false);
  // Bumped by every queue change (enqueue, serve, cancel). With
  // NodeTable::mutations() it lets a policy that holds queue indices
  // across allocate() detect a re-entrant delivery.
  std::uint64_t queue_edits() const { return queue_edits_; }

  // ---- conservation / stats ---------------------------------------
  struct Counters {
    std::uint64_t queued = 0;
    std::uint64_t delivered = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t backfilled = 0;
  };
  const Counters& counters() const { return counters_; }
  const ISchedulingAlgorithm& algorithm() const { return *algorithm_; }
  const PolicySchedulerOptions& options() const { return options_; }

 private:
  double resolve_runtime_estimate(const Ask& ask) const;
  void refresh_servers();
  NodeTable& table();

  std::unique_ptr<ISchedulingAlgorithm> algorithm_;
  PolicySchedulerOptions options_;
  std::deque<QueuedAsk> queue_;
  std::uint64_t queue_edits_ = 0;
  std::vector<RunningContainer> running_;
  std::unordered_map<AppId, double> runtime_hints_;
  WaitingTimeEstimator wait_estimator_;
  Counters counters_;
};

}  // namespace mrapid::yarn
