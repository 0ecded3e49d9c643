#include "sim/simulation.h"

#include <algorithm>
#include <cassert>

#include "common/log.h"

namespace mrapid::sim {

Simulation::Simulation(std::uint64_t master_seed) : master_seed_(master_seed) {
  // The time source is thread-local (common/log.h): worlds running in
  // parallel sweep workers each stamp their own thread's log lines.
  Logger::instance().set_time_source([this] { return now_.as_seconds(); });
}

Simulation::~Simulation() { Logger::instance().set_time_source(nullptr); }

EventId Simulation::schedule_at(SimTime at, EventCallback callback, EventLabel label) {
  assert(at >= now_ && "cannot schedule into the past");
  return queue_.push(at, std::move(callback), label);
}

EventId Simulation::schedule_after(SimDuration delay, EventCallback callback, EventLabel label) {
  assert(delay >= SimDuration::zero());
  return schedule_at(now_ + delay, std::move(callback), label);
}

EventId Simulation::schedule_now(EventCallback callback, EventLabel label) {
  return schedule_at(now_, std::move(callback), label);
}

EventId Simulation::schedule_reserved(SimTime at, std::uint64_t seq, EventCallback callback,
                                      EventLabel label) {
  assert(at >= now_ && "cannot schedule into the past");
  return queue_.push(at, seq, std::move(callback), label);
}

EventId Simulation::schedule_timer(SimDuration delay, EventCallback callback, EventLabel label) {
  assert(delay >= SimDuration::zero());
  const SimTime at = now_ + delay;
  if (!timer_batching_) return queue_.push(at, std::move(callback), label);
  // The wheel entry takes the sequence number this push would have
  // taken, so the merged dispatch order matches the non-batched run
  // byte for byte.
  return wheel_.schedule(at, queue_.take_seq(), std::move(callback), label);
}

std::uint64_t Simulation::run() { return run_until(SimTime::max()); }

std::uint64_t Simulation::run_until(SimTime deadline) {
  stop_requested_ = false;
  std::uint64_t fired = 0;
  while (!stop_requested_) {
    // The next event: the queue head, merged with the wheel head on the
    // shared global (time, seq) key while timers are outstanding —
    // exactly the order one combined heap would dispatch in.
    SimTime head = SimTime::max();
    bool wheel_first = false;
    if (wheel_.empty()) {
      if (!queue_.empty()) head = queue_.next_time();
    } else {
      const EventQueue::NextKey qk = queue_.next_key();
      const TimerWheel::Key wk = wheel_.next_key();
      wheel_first = wk.time != qk.time ? wk.time < qk.time : wk.seq < qk.seq;
      head = wheel_first ? wk.time : qk.time;
    }
    const bool done = head > deadline || head == SimTime::max();
    // The instant ends before the clock moves or the run returns; the
    // hooks may schedule more work, so look again afterwards.
    if (!instant_hooks_.empty() && (done || head > now_)) {
      end_instant();
      continue;
    }
    if (done) break;
    EventQueue::Fired event = wheel_first ? wheel_.pop() : queue_.pop();
    now_ = event.time;
    // Tracer-gated: the label string only ever exists under a tracer.
    if (tracer_ != nullptr) current_label_ = event.label.str();
    ++fired;
    ++processed_;
    if (event.callback) event.callback();
  }
  // A stop() mid-instant still ends it for observers: whatever the
  // hooks schedule is pending when run_until returns.
  end_instant();
  // Advance the clock to the deadline when nothing fires before it
  // (whether the queues are empty or their heads lie beyond the
  // deadline), so repeated bounded runs make progress.
  if (!stop_requested_ && deadline != SimTime::max() && now_ < deadline) {
    const SimTime queue_head = queue_.next_time();
    const SimTime wheel_head = wheel_.empty() ? SimTime::max() : wheel_.next_key().time;
    if (std::min(queue_head, wheel_head) > deadline) now_ = deadline;
  }
  return fired;
}

Simulation::HookId Simulation::at_instant_end(EventCallback hook) {
  const HookId id = next_hook_id_++;
  instant_hooks_.emplace_back(id, std::move(hook));
  return id;
}

void Simulation::cancel_instant_end(HookId id) {
  for (auto& [hook_id, hook] : instant_hooks_) {
    if (hook_id == id) hook = nullptr;
  }
}

void Simulation::end_instant() {
  // By index, each callback moved out before it runs: a hook may
  // register another (it runs in this same pass) or cancel one.
  for (std::size_t i = 0; i < instant_hooks_.size(); ++i) {
    EventCallback hook = std::move(instant_hooks_[i].second);
    if (hook) hook();
  }
  instant_hooks_.clear();
}

RngStream& Simulation::rng(std::string_view name) {
  auto it = rng_streams_.find(name);  // heterogeneous: no temporary string
  if (it == rng_streams_.end()) {
    it = rng_streams_.emplace(std::string(name), RngStream(master_seed_, name)).first;
  }
  return it->second;
}

}  // namespace mrapid::sim
