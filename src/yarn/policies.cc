#include "yarn/policies.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <map>

namespace mrapid::yarn {

namespace {

constexpr double kNever = std::numeric_limits<double>::infinity();
// Float slack when comparing shadow-schedule instants to "now".
constexpr double kEps = 1e-9;
// One simulated tick (1 us): the earliest an overdue container can
// still free its resources.
constexpr double kNextTickS = 1e-6;

// Serve the FIFO head onto the first (lowest-id) node it fits, until
// it fits nowhere — the strict-order prefix FCFS and both backfillers
// share.
void serve_fifo_prefix(PolicyScheduler& s) {
  while (!s.queue().empty()) {
    NodeState* chosen = s.first_fit(s.queue().front().ask.capability);
    if (chosen == nullptr) return;
    s.allocate(0, *chosen);
  }
}

// ---- per-node availability profiles (conservative backfilling) ----

// A step change of one node's future availability, relative to its
// available() now: running-container completions add, reservations
// subtract then add back.
struct ProfileEvent {
  double at = 0.0;
  int dv = 0;
  std::int64_t dm = 0;
};

struct NodeProfile {
  NodeState* node = nullptr;
  std::vector<ProfileEvent> events;  // unsorted; scanned with sums
};

Resource free_at(const NodeProfile& p, double t) {
  Resource free = p.node->available();
  for (const ProfileEvent& e : p.events) {
    if (e.at <= t + kEps) {
      free.vcores += e.dv;
      free.memory_mb += e.dm;
    }
  }
  return free;
}

// Earliest start >= now_s at which `need` fits continuously for
// `runtime` seconds, or kNever. Candidate starts are now and every
// profile step; availability is piecewise constant between steps.
double earliest_fit(const NodeProfile& p, Resource need, double runtime, double now_s) {
  std::vector<double> candidates{now_s};
  for (const ProfileEvent& e : p.events) {
    if (e.at > now_s + kEps) candidates.push_back(e.at);
  }
  std::sort(candidates.begin(), candidates.end());
  for (double t : candidates) {
    if (!need.fits_in(free_at(p, t))) continue;
    bool ok = true;
    for (const ProfileEvent& e : p.events) {
      if (e.at > t + kEps && e.at < t + runtime - kEps && !need.fits_in(free_at(p, e.at))) {
        ok = false;
        break;
      }
    }
    if (ok) return t;
  }
  return kNever;
}

}  // namespace

// ---- CapacityAlgorithm --------------------------------------------

void CapacityAlgorithm::schedule(PolicyScheduler& scheduler, const SchedulingEvent& event) {
  // Baseline semantics: allocation happens only when an NM reports in,
  // and only onto that node — greedy packing, FIFO order.
  if (event.kind != SchedulingEvent::Kind::kNodeUpdated) return;
  NodeState* state = scheduler.context().node_state(event.node);
  if (state == nullptr || !state->schedulable()) return;
  while (!scheduler.queue().empty() &&
         scheduler.queue().front().ask.capability.fits_in(state->available())) {
    scheduler.allocate(0, *state);
  }
}

// ---- FcfsAlgorithm ------------------------------------------------

void FcfsAlgorithm::schedule(PolicyScheduler& scheduler, const SchedulingEvent& event) {
  // Cluster-wide strict FIFO: unlike the baseline it looks past the
  // reporting node, but nothing behind a blocked head is ever served.
  if (event.kind != SchedulingEvent::Kind::kNodeUpdated) return;
  serve_fifo_prefix(scheduler);
}

// ---- EasyBackfillAlgorithm ----------------------------------------

Reservation easy_head_reservation(PolicyScheduler& scheduler) {
  Reservation res;
  if (scheduler.queue().empty()) return res;
  const QueuedAsk& head = scheduler.queue().front();
  const double now_s = scheduler.now().as_seconds();
  if (NodeState* node = scheduler.first_fit(head.ask.capability)) {
    return Reservation{true, now_s, node->id};
  }
  // Shadow schedule: replay estimated completions in (end, container)
  // order; availability only grows, so the first completion after
  // which the *freeing* node fits the head is the earliest start.
  struct Free {
    double end;
    ContainerId id;
    cluster::NodeId node;
    Resource resource;
  };
  std::vector<Free> frees;
  for (const RunningContainer& rc : scheduler.running()) {
    NodeState* state = scheduler.context().node_state(rc.node);
    if (state == nullptr || !state->schedulable()) continue;
    frees.push_back(Free{std::max(now_s, rc.estimated_end_s()), rc.id, rc.node, rc.resource});
  }
  std::sort(frees.begin(), frees.end(), [](const Free& a, const Free& b) {
    if (a.end != b.end) return a.end < b.end;
    return a.id < b.id;
  });
  std::map<cluster::NodeId, Resource> avail;
  for (NodeState* node : scheduler.schedulable_nodes()) avail[node->id] = node->available();
  for (const Free& f : frees) {
    Resource& a = avail[f.node];
    a = a + f.resource;
    if (head.ask.capability.fits_in(a)) return Reservation{true, f.end, f.node};
  }
  return res;  // fits nowhere, ever (oversized ask)
}

void EasyBackfillAlgorithm::schedule(PolicyScheduler& scheduler,
                                     const SchedulingEvent& event) {
  if (event.kind != SchedulingEvent::Kind::kNodeUpdated) return;
  serve_fifo_prefix(scheduler);
  if (scheduler.queue().empty()) return;
  // Head blocked: pin its reservation, then let later asks jump the
  // queue only where they cannot delay it — a backfill may land on the
  // reserved node only if its estimated runtime ends by the
  // reservation's start.
  const Reservation res = easy_head_reservation(scheduler);
  const double now_s = scheduler.now().as_seconds();
  std::size_t i = 1;
  while (i < scheduler.queue().size()) {
    const QueuedAsk& entry = scheduler.queue()[i];
    // Lowest-id fit, except that the reserved node is off limits to a
    // backfill whose estimated runtime would overrun the reservation's
    // start — retry once with it excluded.
    NodeState* chosen = scheduler.first_fit(entry.ask.capability);
    if (chosen != nullptr && res.valid && chosen->id == res.node &&
        now_s + entry.runtime_estimate_s > res.start_s + kEps) {
      chosen = scheduler.first_fit(entry.ask.capability, res.node);
    }
    if (chosen != nullptr) {
      scheduler.allocate(i, *chosen, /*backfilled=*/true);
      // The erase shifted the next candidate into slot i.
    } else {
      ++i;
    }
  }
}

// ---- ConservativeBackfillAlgorithm --------------------------------

std::vector<Reservation> conservative_reservations(PolicyScheduler& scheduler) {
  const double now_s = scheduler.now().as_seconds();
  const auto nodes = scheduler.schedulable_nodes();
  std::map<cluster::NodeId, NodeProfile> profiles;
  for (NodeState* node : nodes) profiles[node->id].node = node;
  for (const RunningContainer& rc : scheduler.running()) {
    auto it = profiles.find(rc.node);
    if (it == profiles.end()) continue;  // node expired; resources already void
    // A container still running at or past its estimated end holds its
    // resources now: it frees at some later instant, never at now.
    // Releasing it at now would let the plan start an ask on a full node.
    const double end = rc.estimated_end_s() > now_s + kEps ? rc.estimated_end_s()
                                                            : now_s + kNextTickS;
    it->second.events.push_back(ProfileEvent{end, rc.resource.vcores, rc.resource.memory_mb});
  }
  std::vector<Reservation> out;
  out.reserve(scheduler.queue().size());
  for (const QueuedAsk& entry : scheduler.queue()) {
    Reservation best;
    for (NodeState* node : nodes) {
      const NodeProfile& profile = profiles[node->id];
      const double start =
          earliest_fit(profile, entry.ask.capability, entry.runtime_estimate_s, now_s);
      if (start == kNever) continue;
      if (!best.valid || start < best.start_s - kEps) {
        best = Reservation{true, start, node->id};
      }
    }
    out.push_back(best);
    if (best.valid) {
      // Carve the reservation into its node's profile so every later
      // ask plans around it — the "never delays any earlier
      // reservation" guarantee is this line.
      NodeProfile& profile = profiles[best.node];
      profile.events.push_back(ProfileEvent{best.start_s, -entry.ask.capability.vcores,
                                            -entry.ask.capability.memory_mb});
      profile.events.push_back(ProfileEvent{best.start_s + entry.runtime_estimate_s,
                                            entry.ask.capability.vcores,
                                            entry.ask.capability.memory_mb});
    }
  }
  return out;
}

void ConservativeBackfillAlgorithm::schedule(PolicyScheduler& scheduler,
                                             const SchedulingEvent& event) {
  if (event.kind != SchedulingEvent::Kind::kNodeUpdated) return;
  // Stateless by design: the full reservation plan is recomputed from
  // the snapshot on every pass, so reservations of cancelled asks
  // cannot outlive them. Each allocation changes the snapshot, so we
  // replan after every one (queues here are short).
  bool progress = true;
  while (progress) {
    progress = false;
    const std::vector<Reservation> plan = conservative_reservations(scheduler);
    const double now_s = scheduler.now().as_seconds();
    bool earlier_waits = false;
    for (std::size_t i = 0; i < plan.size(); ++i) {
      const Reservation& r = plan[i];
      if (r.valid && r.start_s <= now_s + kEps) {
        NodeState* node = scheduler.context().node_state(r.node);
        assert(node != nullptr);
        scheduler.allocate(i, *node, /*backfilled=*/earlier_waits);
        progress = true;
        break;
      }
      earlier_waits = true;
    }
  }
}

}  // namespace mrapid::yarn
