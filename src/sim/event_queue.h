#pragma once

// The simulator's pending-event set, built for churn: experiment
// sweeps, fault matrices and fuzz campaigns push millions of events
// through this queue, so the steady state allocates nothing.
//
//   - Records live in a slab (std::vector) recycled through a free
//     list; a pushed event reuses a finished event's slot instead of
//     touching the heap allocator.
//   - The heap orders POD (time, seq, slot) entries — no pointers, no
//     reference counting — on the pair (time, sequence): events at the
//     same instant fire in insertion order, which keeps causality
//     chains (schedule A, then B, both "now") deterministic.
//   - EventIds carry a per-slot generation stamp, so cancel() of a
//     stale id (the slot has been recycled) is an O(1) rejected lookup
//     rather than a weak_ptr graveyard that grows forever.
//
// Cancellation is lazy — a cancelled record keeps its slot until its
// heap entry surfaces and is skipped — because heartbeats and
// bandwidth re-planning cancel events constantly and heap surgery
// would cost more than it saves. A slot is recycled exactly when its
// heap entry leaves the heap, so every heap entry always refers to the
// record it was pushed for. When dead entries outnumber live events
// (far-future cancels that never surface, e.g. replanned completion
// estimates) the heap is compacted and rebuilt in one O(n) pass, so
// the slab tracks the live working set instead of the cancel history.

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.h"

namespace mrapid::sim {

using EventCallback = std::function<void()>;

// A cheap, non-owning event label: an optional prefix view plus an
// optional literal suffix. schedule_* call sites that used to pay a
// `name_ + ":finish"` concatenation per event now store two pointers;
// the string is only materialised by str() when someone (a tracer, a
// debugger, a test) actually asks for it. The prefix must outlive the
// event — in practice it views a component's name member, which
// outlives everything that component schedules.
class EventLabel {
 public:
  constexpr EventLabel() = default;
  constexpr EventLabel(const char* literal) : suffix_(literal) {}  // NOLINT(google-explicit-constructor)
  constexpr EventLabel(std::string_view prefix, const char* suffix)
      : prefix_(prefix), suffix_(suffix) {}

  bool empty() const {
    return prefix_.empty() && (suffix_ == nullptr || *suffix_ == '\0');
  }
  // Materialises "<prefix><suffix>". The only place a label becomes a
  // std::string.
  std::string str() const;

 private:
  std::string_view prefix_;
  const char* suffix_ = nullptr;
};

struct EventId {
  // Packed (generation << 32) | (slot + 1); the +1 keeps {0} "invalid".
  std::uint64_t value = 0;
  constexpr bool valid() const { return value != 0; }
  friend constexpr bool operator==(EventId a, EventId b) { return a.value == b.value; }
};

class EventQueue {
 public:
  // Lifetime counters for the sim_core benchmark and capacity
  // introspection (docs/PERF.md).
  struct Stats {
    std::uint64_t pushed = 0;
    std::uint64_t fired = 0;
    std::uint64_t cancelled = 0;
    std::size_t heap_peak = 0;      // max heap entries ever outstanding
    std::size_t slab_capacity = 0;  // record slots ever allocated
  };

  EventId push(SimTime at, EventCallback callback, EventLabel label = {});
  // Pushes under a sequence number handed out earlier by take_seq():
  // the event dispatches where that reservation stands in the (time,
  // seq) order, exactly as if it had been pushed when the seq was
  // taken. Precondition: `seq` came from take_seq() and is unused.
  EventId push(SimTime at, std::uint64_t seq, EventCallback callback, EventLabel label = {});

  // Returns true if the event existed and had not yet fired.
  bool cancel(EventId id);

  bool empty() const { return live_ == 0; }
  std::size_t size() const { return live_; }

  // Time of the next live event; SimTime::max() if none.
  SimTime next_time() const;

  // (time, seq) of the next live event; (max, UINT64_MAX) if none.
  // The merge key Simulation::run_until uses against the timer wheel.
  struct NextKey {
    SimTime time = SimTime::max();
    std::uint64_t seq = UINT64_MAX;
  };
  NextKey next_key() const;

  // Hands out the next global sequence number without pushing. The
  // timer wheel stamps its entries from this same counter (at the
  // call sites where a non-batched run would have pushed here), which
  // is what makes merged dispatch byte-identical to the pure heap;
  // push(at, seq, ...) lets a queue event be stamped the same way.
  std::uint64_t take_seq() { return next_seq_++; }

  struct Fired {
    SimTime time;
    EventCallback callback;
    EventLabel label;
  };
  // Pops the earliest live event. Precondition: !empty().
  Fired pop();

  const Stats& stats() const { return stats_; }

 private:
  // 64 bytes — exactly one cache line per slot, which matters because
  // slot access from push/pop is effectively random across the slab.
  struct Record {
    EventCallback callback;
    EventLabel label;
    std::uint32_t gen = 0;
    bool live = false;
  };
  // POD heap entry: min on (time, seq). seq doubles as the FIFO
  // tie-breaker and as a push-order stamp.
  struct HeapEntry {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  static bool before(const HeapEntry& a, const HeapEntry& b) {
    if (a.time != b.time) return a.time < b.time;  // min on time
    return a.seq < b.seq;                          // then FIFO
  }

  // 4-ary min-heap: half the levels of a binary heap and sibling
  // comparisons stay within one cache line of POD entries, which is
  // worth ~20% on the pop-dominated churn path.
  void sift_up(std::size_t i) const;
  void sift_down(std::size_t i) const;
  void heap_remove_top() const;
  void drop_cancelled_head() const;
  void release_slot(std::uint32_t slot) const;
  void compact();

  // drop_cancelled_head() is called from const observers (next_time),
  // hence the mutable internals — logically the live set is unchanged.
  mutable std::vector<HeapEntry> heap_;
  mutable std::vector<Record> slab_;
  mutable std::vector<std::uint32_t> free_slots_;
  // Single-entry cache in front of free_slots_: the slot a pop just
  // released is usually claimed by the very next push (the hold
  // pattern), so the common case skips the vector round trip and
  // reuses a slab line that is still hot.
  mutable std::uint32_t last_freed_ = kNoSlot;
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;
  // Cancelled entries still in the heap. Zero on the hot no-cancel
  // path, letting pop()/next_time() skip the liveness probe entirely.
  mutable std::size_t dead_in_heap_ = 0;
  std::size_t live_ = 0;
  std::uint64_t next_seq_ = 0;
  Stats stats_;
};

}  // namespace mrapid::sim
