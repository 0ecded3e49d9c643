#pragma once

// The discrete-event simulation driver.
//
// Single-threaded by design: determinism comes from the stable event
// queue plus named RNG streams (common/rng.h). Components hold a
// Simulation& and schedule callbacks; there is no global state.

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sim/event_queue.h"
#include "sim/time.h"
#include "sim/timer_wheel.h"

namespace mrapid::sim {

class Tracer;

class Simulation {
 public:
  explicit Simulation(std::uint64_t master_seed = 0x5EED);
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  SimTime now() const { return now_; }

  // Labels are cheap non-owning (prefix, literal) pairs — see
  // sim/event_queue.h. They are materialised into a string only while
  // a tracer is attached (current_event_label()); detached runs never
  // build one.
  EventId schedule_at(SimTime at, EventCallback callback, EventLabel label = {});
  EventId schedule_after(SimDuration delay, EventCallback callback, EventLabel label = {});
  // Convenience: fire "immediately", i.e. after the current event, at
  // the same simulated instant.
  EventId schedule_now(EventCallback callback, EventLabel label = {});

  // For periodic, batch-friendly events (heartbeats, liveness polls):
  // lands in the hierarchical timer wheel when batching is on, in the
  // ordinary queue otherwise. Dispatch order is byte-identical either
  // way — the wheel entry is stamped with the sequence number the
  // queue push would have consumed, and run_until merges on (time,
  // seq) — so the toggle is purely a performance/testability knob.
  EventId schedule_timer(SimDuration delay, EventCallback callback, EventLabel label = {});

  // Reserves the sequence number the next schedule_* call would take,
  // for an event whose time is not known yet. schedule_reserved later
  // pushes it, and it dispatches exactly where a schedule_at made at
  // reservation time would have: (time, seq) order is all that counts.
  std::uint64_t take_seq() { return queue_.take_seq(); }
  EventId schedule_reserved(SimTime at, std::uint64_t seq, EventCallback callback,
                            EventLabel label = {});

  bool cancel(EventId id) {
    if (TimerWheel::is_wheel_id(id)) return wheel_.cancel(id);
    return queue_.cancel(id);
  }

  // Routing for schedule_timer; flip before the first timer is
  // scheduled (harness::World sets it from YarnConfig::heartbeat_batching).
  void set_timer_batching(bool on) { timer_batching_ = on; }
  bool timer_batching() const { return timer_batching_; }

  // Runs until the event queue drains or stop() is called. Returns the
  // number of events processed by this call.
  std::uint64_t run();

  // Runs events with time <= deadline; the clock ends at
  // min(deadline, last event time). Returns events processed.
  std::uint64_t run_until(SimTime deadline);

  // Request the current run()/run_until() to return after the active
  // event finishes.
  void stop() { stop_requested_ = true; }

  // Instant-end hooks: one-shot callbacks that run_until runs once the
  // current instant is over — after the last event at now(), before
  // the clock advances, and before run_until returns for any reason
  // (deadline, drained queue, stop()). A component whose every
  // mutation would otherwise redo the same work at one instant (the
  // network's rate waterfill) registers one and does the work once.
  // Hooks run in registration order; one registered while hooks run
  // still belongs to this instant and runs in the same pass. With no
  // hook pending, the dispatch loop pays one branch per event.
  using HookId = std::uint64_t;
  HookId at_instant_end(EventCallback hook);
  // Drops a pending hook; a no-op once it has run. Owners call it on
  // teardown so no hook outlives the object it calls into.
  void cancel_instant_end(HookId id);

  bool idle() const { return queue_.empty() && wheel_.empty(); }
  std::uint64_t processed_events() const { return processed_; }

  // Event-core counters (pushed/fired/cancelled, heap peak, slab
  // capacity) — the exp layer's sim_core benchmark reports these.
  const EventQueue::Stats& queue_stats() const { return queue_.stats(); }
  const TimerWheel::Stats& wheel_stats() const { return wheel_.stats(); }
  std::size_t pending_events() const { return queue_.size() + wheel_.size(); }

  // Label of the event currently being dispatched, materialised only
  // while a tracer is attached (empty otherwise). Debug/trace aid.
  const std::string& current_event_label() const { return current_label_; }

  // Named deterministic RNG stream, created on first use. The same
  // (master seed, name) always yields the same sequence. Lookup is
  // heterogeneous: a string_view probe never allocates; the key string
  // is built only when a new stream is inserted.
  RngStream& rng(std::string_view name);
  std::uint64_t master_seed() const { return master_seed_; }

  // Trace observer (sim/trace.h). Not owned; null (the default) means
  // tracing is off and MRAPID_TRACE sites cost one pointer test.
  Tracer* tracer() const { return tracer_; }
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

 private:
  struct TransparentStringHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };

  // Runs the pending instant-end hooks.
  void end_instant();

  EventQueue queue_;
  TimerWheel wheel_;
  std::vector<std::pair<HookId, EventCallback>> instant_hooks_;
  HookId next_hook_id_ = 1;
  bool timer_batching_ = true;
  SimTime now_ = SimTime::zero();
  bool stop_requested_ = false;
  std::uint64_t processed_ = 0;
  std::uint64_t master_seed_;
  Tracer* tracer_ = nullptr;
  std::string current_label_;
  std::unordered_map<std::string, RngStream, TransparentStringHash, std::equal_to<>>
      rng_streams_;
};

}  // namespace mrapid::sim
