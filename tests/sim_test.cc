// Unit tests for the discrete-event core: time, the event queue,
// the simulation driver, fluid bandwidth sharing, and resource pools.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/bandwidth.h"
#include "sim/event_queue.h"
#include "sim/resource_pool.h"
#include "sim/simulation.h"
#include "sim/time.h"

namespace mrapid::sim {
namespace {

// ---- time ----------------------------------------------------------

TEST(SimTimeTest, ArithmeticAndComparison) {
  const SimTime t = SimTime::from_seconds(2.0);
  const SimDuration d = SimDuration::millis(500);
  EXPECT_EQ((t + d).as_micros(), 2500000);
  EXPECT_EQ((t - d).as_micros(), 1500000);
  EXPECT_EQ(((t + d) - t).as_micros(), d.as_micros());
  EXPECT_LT(t, t + d);
}

TEST(SimTimeTest, SecondsCeilNeverEarly) {
  // 1.0000001 s must round *up* to 1000001 us.
  EXPECT_EQ(SimDuration::seconds_ceil(1.0000001).as_micros(), 1000001);
  EXPECT_EQ(SimDuration::seconds_ceil(1.0).as_micros(), 1000000);
  EXPECT_GE(SimDuration::seconds_ceil(0.3333333).as_seconds(), 0.3333333);
}

TEST(SimTimeTest, Formatting) {
  EXPECT_EQ(format_duration(SimDuration::micros(5)), "5us");
  EXPECT_EQ(format_duration(SimDuration::millis(1.5)), "1.50ms");
  EXPECT_EQ(format_duration(SimDuration::seconds(2)), "2.000s");
  EXPECT_EQ(format_time(SimTime::from_seconds(1.25)), "1.250s");
}

// ---- event queue ----------------------------------------------------

TEST(EventQueueTest, OrdersByTime) {
  EventQueue q;
  std::vector<int> fired;
  q.push(SimTime::from_seconds(2), [&] { fired.push_back(2); });
  q.push(SimTime::from_seconds(1), [&] { fired.push_back(1); });
  q.push(SimTime::from_seconds(3), [&] { fired.push_back(3); });
  while (!q.empty()) q.pop().callback();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, SameTimeIsFifo) {
  EventQueue q;
  std::vector<int> fired;
  const SimTime t = SimTime::from_seconds(1);
  for (int i = 0; i < 10; ++i) q.push(t, [&fired, i] { fired.push_back(i); });
  while (!q.empty()) q.pop().callback();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[static_cast<std::size_t>(i)], i);
}

TEST(EventQueueTest, CancelPreventsFiring) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.push(SimTime::from_seconds(1), [&] { fired = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.cancel(id));  // second cancel is a no-op
  EXPECT_FALSE(fired);
}

TEST(EventQueueTest, CancelAfterFireReturnsFalse) {
  EventQueue q;
  const EventId id = q.push(SimTime::from_seconds(1), [] {});
  q.pop().callback();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueueTest, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventId early = q.push(SimTime::from_seconds(1), [] {});
  q.push(SimTime::from_seconds(5), [] {});
  q.cancel(early);
  EXPECT_EQ(q.next_time(), SimTime::from_seconds(5));
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueueTest, EmptyQueueNextTimeIsMax) {
  EventQueue q;
  EXPECT_EQ(q.next_time(), SimTime::max());
}

TEST(EventQueueTest, StatsCountCoreOperations) {
  EventQueue q;
  const EventId victim = q.push(SimTime::from_seconds(1), [] {});
  q.push(SimTime::from_seconds(2), [] {});
  q.cancel(victim);
  q.pop().callback();
  const EventQueue::Stats& stats = q.stats();
  EXPECT_EQ(stats.pushed, 2u);
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.fired, 1u);
  EXPECT_EQ(stats.heap_peak, 2u);
  EXPECT_EQ(stats.slab_capacity, 2u);
}

TEST(EventQueueTest, SlotsAreRecycledAcrossChurn) {
  EventQueue q;
  for (int i = 0; i < 1000; ++i) {
    q.push(SimTime::from_micros(i), [] {});
    q.pop().callback();
  }
  EXPECT_EQ(q.stats().pushed, 1000u);
  EXPECT_EQ(q.stats().slab_capacity, 1u);  // one slot, recycled 1000 times
}

// ---- event labels ----------------------------------------------------

TEST(EventLabelTest, MaterializesPrefixAndSuffixOnDemand) {
  EXPECT_EQ(EventLabel("nm:heartbeat").str(), "nm:heartbeat");
  const std::string name = "node3:disk-rd";
  EXPECT_EQ(EventLabel(name, ":finish").str(), "node3:disk-rd:finish");
  EXPECT_TRUE(EventLabel().empty());
  EXPECT_TRUE(EventLabel("").empty());
  EXPECT_FALSE(EventLabel("x").empty());
  EXPECT_FALSE(EventLabel(name, nullptr).empty());
}

TEST(EventQueueTest, PopReturnsTheScheduledLabel) {
  EventQueue q;
  q.push(SimTime::from_seconds(1), [] {}, "nm:launch");
  EXPECT_EQ(q.pop().label.str(), "nm:launch");
}

// ---- simulation ------------------------------------------------------

TEST(SimulationTest, RunsEventsInOrderAndAdvancesClock) {
  Simulation sim;
  std::vector<double> times;
  sim.schedule_after(SimDuration::seconds(2), [&] { times.push_back(sim.now().as_seconds()); });
  sim.schedule_after(SimDuration::seconds(1), [&] { times.push_back(sim.now().as_seconds()); });
  const auto fired = sim.run();
  EXPECT_EQ(fired, 2u);
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.0}));
  EXPECT_DOUBLE_EQ(sim.now().as_seconds(), 2.0);
}

TEST(SimulationTest, ScheduleNowRunsAtCurrentInstantAfterCurrentEvent) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_after(SimDuration::seconds(1), [&] {
    order.push_back(1);
    sim.schedule_now([&] { order.push_back(2); });
    order.push_back(3);
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
  EXPECT_DOUBLE_EQ(sim.now().as_seconds(), 1.0);
}

TEST(SimulationTest, RunUntilStopsAtDeadlineAndAdvancesClock) {
  Simulation sim;
  int fired = 0;
  sim.schedule_after(SimDuration::seconds(10), [&] { ++fired; });
  sim.run_until(SimTime::from_seconds(5));
  EXPECT_EQ(fired, 0);
  EXPECT_DOUBLE_EQ(sim.now().as_seconds(), 5.0);  // clock reaches deadline
  sim.run_until(SimTime::from_seconds(20));
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now().as_seconds(), 20.0);
}

TEST(SimulationTest, StopInterruptsRun) {
  Simulation sim;
  int fired = 0;
  sim.schedule_after(SimDuration::seconds(1), [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule_after(SimDuration::seconds(2), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  sim.run();  // resumes
  EXPECT_EQ(fired, 2);
}

TEST(SimulationTest, CancelledEventDoesNotFire) {
  Simulation sim;
  bool fired = false;
  const EventId id = sim.schedule_after(SimDuration::seconds(1), [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(SimulationTest, NamedRngStreamsAreStablePerSeed) {
  Simulation a(42), b(42), c(43);
  EXPECT_EQ(a.rng("x").next_u64(), b.rng("x").next_u64());
  EXPECT_NE(a.rng("x").next_u64(), a.rng("y").next_u64());
  (void)c;
}

TEST(SimulationTest, ProcessedEventsAccumulates) {
  Simulation sim;
  for (int i = 0; i < 5; ++i) sim.schedule_after(SimDuration::seconds(i + 1), [] {});
  sim.run_until(SimTime::from_seconds(3));
  EXPECT_EQ(sim.processed_events(), 3u);
  sim.run();
  EXPECT_EQ(sim.processed_events(), 5u);
}

// ---- instant-end hooks and reserved seqs ----------------------------

TEST(SimulationTest, InstantEndHookRunsBeforeTheClockAdvances) {
  Simulation sim;
  std::vector<std::string> log;
  const auto note = [&](const std::string& what) {
    log.push_back(what + "@" + std::to_string(sim.now().as_micros()));
  };
  sim.schedule_at(SimTime::from_micros(10), [&] {
    sim.at_instant_end([&] {
      note("hook");
      // Registered while hooks run: still this instant, same pass.
      sim.at_instant_end([&] { note("late-hook"); });
    });
    sim.schedule_now([&] { note("now"); });  // same instant: before the hook
  });
  sim.schedule_at(SimTime::from_micros(20), [&] { note("next"); });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(log, (std::vector<std::string>{"now@10", "hook@10", "late-hook@10", "next@20"}));
}

TEST(SimulationTest, InstantEndHookRunsBeforeADeadlineExit) {
  Simulation sim;
  std::vector<std::string> log;
  sim.schedule_at(SimTime::from_micros(10), [&] {
    sim.at_instant_end([&] {
      log.push_back("hook@" + std::to_string(sim.now().as_micros()));
      // Work the hook schedules before the deadline still runs in
      // this call; work past it waits.
      sim.schedule_at(SimTime::from_micros(30), [&] { log.push_back("inside"); });
      sim.schedule_at(SimTime::from_micros(60), [&] { log.push_back("past"); });
    });
  });
  EXPECT_EQ(sim.run_until(SimTime::from_micros(50)), 2u);
  EXPECT_EQ(log, (std::vector<std::string>{"hook@10", "inside"}));
  EXPECT_EQ(sim.now(), SimTime::from_micros(50));
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(SimulationTest, InstantEndHookRunsWhenTheQueueIsEmpty) {
  Simulation sim;
  int hooks = 0;
  sim.at_instant_end([&] { ++hooks; });  // registered outside any run
  EXPECT_EQ(sim.run(), 0u);
  EXPECT_EQ(hooks, 1);
  EXPECT_EQ(sim.run(), 0u);  // one-shot
  EXPECT_EQ(hooks, 1);
}

TEST(SimulationTest, InstantEndHookRunsBeforeAStoppedRunReturns) {
  Simulation sim;
  bool scheduled = false;
  sim.schedule_at(SimTime::from_micros(10), [&] {
    sim.at_instant_end([&] {
      sim.schedule_at(SimTime::from_micros(40), [] {});
      scheduled = true;
    });
    sim.stop();
  });
  sim.run();
  EXPECT_TRUE(scheduled);
  EXPECT_EQ(sim.now(), SimTime::from_micros(10));
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(SimulationTest, CancelledInstantEndHookNeverRuns) {
  Simulation sim;
  int hooks = 0;
  const Simulation::HookId id = sim.at_instant_end([&] { ++hooks; });
  sim.at_instant_end([&] { hooks += 10; });
  sim.cancel_instant_end(id);
  sim.run();
  EXPECT_EQ(hooks, 10);
  sim.cancel_instant_end(id);  // already gone: a no-op
}

TEST(SimulationTest, ReservedSeqDispatchesInTimeSeqOrder) {
  // A seq reserved between two pushes dispatches between them at the
  // same instant, against queue events and timer-wheel entries alike,
  // however late it is pushed.
  Simulation sim;
  std::vector<std::string> order;
  const SimTime at = SimTime::from_micros(5000);
  sim.schedule_at(at, [&] { order.push_back("queue-0"); });
  const std::uint64_t early = sim.take_seq();
  sim.schedule_timer(SimDuration::micros(5000), [&] { order.push_back("wheel-2"); });
  const std::uint64_t middle = sim.take_seq();
  sim.schedule_at(at, [&] { order.push_back("queue-4"); });
  sim.schedule_at(SimTime::from_micros(1000), [&] {
    // Pushed from an earlier instant, under seqs taken at time zero.
    sim.schedule_reserved(at, middle, [&] { order.push_back("reserved-3"); });
    sim.schedule_reserved(at, early, [&] { order.push_back("reserved-1"); });
  });
  EXPECT_EQ(sim.run(), 6u);
  EXPECT_EQ(order, (std::vector<std::string>{"queue-0", "reserved-1", "wheel-2", "reserved-3",
                                             "queue-4"}));
}

// ---- bandwidth -------------------------------------------------------

class BandwidthTest : public ::testing::Test {
 protected:
  Simulation sim_;
};

TEST_F(BandwidthTest, SingleTransferTakesBytesOverRate) {
  BandwidthResource disk(sim_, "disk", Rate::mb_per_sec(100));
  double elapsed = -1;
  disk.start(100_MB, [&](SimDuration d) { elapsed = d.as_seconds(); });
  sim_.run();
  EXPECT_NEAR(elapsed, 1.0, 1e-4);
  EXPECT_EQ(disk.bytes_served(), 100_MB);
}

TEST_F(BandwidthTest, TwoEqualTransfersShareFairly) {
  BandwidthResource disk(sim_, "disk", Rate::mb_per_sec(100));
  std::vector<double> done;
  disk.start(50_MB, [&](SimDuration) { done.push_back(sim_.now().as_seconds()); });
  disk.start(50_MB, [&](SimDuration) { done.push_back(sim_.now().as_seconds()); });
  sim_.run();
  ASSERT_EQ(done.size(), 2u);
  // Each gets 50 MB/s, so both finish at ~1 s (not 0.5 and 1.0).
  EXPECT_NEAR(done[0], 1.0, 1e-3);
  EXPECT_NEAR(done[1], 1.0, 1e-3);
}

TEST_F(BandwidthTest, LateJoinerSlowsTheFirst) {
  BandwidthResource disk(sim_, "disk", Rate::mb_per_sec(100));
  double first_done = -1;
  disk.start(100_MB, [&](SimDuration) { first_done = sim_.now().as_seconds(); });
  sim_.schedule_after(SimDuration::seconds(0.5), [&] {
    disk.start(100_MB, [](SimDuration) {});
  });
  sim_.run();
  // 0.5 s alone (50 MB) + remaining 50 MB at 50 MB/s = 1.5 s total.
  EXPECT_NEAR(first_done, 1.5, 1e-3);
}

TEST_F(BandwidthTest, CancelRestoresFullRate) {
  BandwidthResource disk(sim_, "disk", Rate::mb_per_sec(100));
  double done = -1;
  disk.start(100_MB, [&](SimDuration) { done = sim_.now().as_seconds(); });
  const auto victim = disk.start(1_GB, [](SimDuration) { FAIL() << "cancelled"; });
  sim_.schedule_after(SimDuration::seconds(0.5), [&] { EXPECT_TRUE(disk.cancel(victim)); });
  sim_.run();
  // 0.5 s at 50 MB/s (25 MB) + 75 MB at 100 MB/s = 1.25 s.
  EXPECT_NEAR(done, 1.25, 1e-3);
}

TEST_F(BandwidthTest, CancelUnknownIdReturnsFalse) {
  BandwidthResource disk(sim_, "disk", Rate::mb_per_sec(100));
  EXPECT_FALSE(disk.cancel(1234));
}

TEST_F(BandwidthTest, ZeroByteTransferCompletesImmediately) {
  BandwidthResource disk(sim_, "disk", Rate::mb_per_sec(100));
  bool done = false;
  disk.start(0, [&](SimDuration d) {
    done = true;
    EXPECT_EQ(d.as_micros(), 0);
  });
  sim_.run();
  EXPECT_TRUE(done);
  EXPECT_DOUBLE_EQ(sim_.now().as_seconds(), 0.0);
}

TEST_F(BandwidthTest, PerTransferCapLimitsLoneTransfer) {
  // 4-core CPU: one task cannot exceed one core.
  BandwidthResource cpu(sim_, "cpu", Rate{4e6}, Rate{1e6});
  double done = -1;
  cpu.start(2000000, [&](SimDuration) { done = sim_.now().as_seconds(); });
  sim_.run();
  EXPECT_NEAR(done, 2.0, 1e-4);  // 2e6 work units at 1e6/s, not 4e6/s
}

TEST_F(BandwidthTest, OversubscriptionSharesFairly) {
  // 2-core CPU, 4 concurrent 1-core tasks of 1 s each -> 2 s wall.
  BandwidthResource cpu(sim_, "cpu", Rate{2e6}, Rate{1e6});
  std::vector<double> done;
  for (int i = 0; i < 4; ++i) {
    cpu.start(1000000, [&](SimDuration) { done.push_back(sim_.now().as_seconds()); });
  }
  sim_.run();
  ASSERT_EQ(done.size(), 4u);
  for (double d : done) EXPECT_NEAR(d, 2.0, 1e-3);
}

TEST_F(BandwidthTest, BusySecondsTracksActivePeriods) {
  BandwidthResource disk(sim_, "disk", Rate::mb_per_sec(100));
  disk.start(100_MB, [](SimDuration) {});
  sim_.run();
  EXPECT_NEAR(disk.busy_seconds(), 1.0, 1e-3);
  // Idle gap, then another transfer.
  sim_.schedule_after(SimDuration::seconds(5), [&] { disk.start(50_MB, [](SimDuration) {}); });
  sim_.run();
  EXPECT_NEAR(disk.busy_seconds(), 1.5, 1e-3);
}

TEST_F(BandwidthTest, ManyStaggeredTransfersAllComplete) {
  BandwidthResource disk(sim_, "disk", Rate::mb_per_sec(100));
  int completed = 0;
  for (int i = 0; i < 50; ++i) {
    sim_.schedule_after(SimDuration::millis(i * 10), [&, i] {
      disk.start((i + 1) * 1_MB, [&](SimDuration) { ++completed; });
    });
  }
  sim_.run();
  EXPECT_EQ(completed, 50);
  EXPECT_EQ(disk.active_transfers(), 0u);
}

// ---- resource pool ---------------------------------------------------

class PoolTest : public ::testing::Test {
 protected:
  Simulation sim_;
};

TEST_F(PoolTest, TryAcquireRespectsCapacity) {
  ResourcePool pool(sim_, "cores", 4);
  EXPECT_TRUE(pool.try_acquire(3));
  EXPECT_FALSE(pool.try_acquire(2));
  EXPECT_TRUE(pool.try_acquire(1));
  EXPECT_EQ(pool.available(), 0);
  pool.release(4);
  EXPECT_EQ(pool.available(), 4);
}

TEST_F(PoolTest, AcquireQueuesFifo) {
  ResourcePool pool(sim_, "cores", 2);
  std::vector<int> order;
  pool.acquire(2, [&] { order.push_back(1); });
  pool.acquire(1, [&] { order.push_back(2); });
  pool.acquire(1, [&] { order.push_back(3); });
  sim_.run();
  EXPECT_EQ(order, (std::vector<int>{1}));  // 2 and 3 wait
  pool.release(2);
  sim_.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST_F(PoolTest, HeadOfLineBlocksSmallerRequests) {
  ResourcePool pool(sim_, "mem", 4);
  std::vector<int> order;
  pool.acquire(3, [&] { order.push_back(1); });
  pool.acquire(4, [&] { order.push_back(2); });  // cannot fit yet
  pool.acquire(1, [&] { order.push_back(3); });  // fits, but FIFO blocks it
  sim_.run();
  EXPECT_EQ(order, (std::vector<int>{1}));
  pool.release(3);
  sim_.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  pool.release(4);
  sim_.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST_F(PoolTest, GrantsAreAsynchronous) {
  ResourcePool pool(sim_, "cores", 1);
  bool granted = false;
  pool.acquire(1, [&] { granted = true; });
  EXPECT_FALSE(granted);  // grant is delivered as an event, not inline
  sim_.run();
  EXPECT_TRUE(granted);
}

TEST_F(PoolTest, TryAcquireFailsWhileWaitersQueued) {
  ResourcePool pool(sim_, "cores", 2);
  pool.acquire(2, [] {});
  pool.acquire(2, [] {});  // will keep waiting
  sim_.run();
  pool.release(1);  // not enough for the waiter
  EXPECT_EQ(pool.waiting(), 1u);
  // A waiter is pending; try_acquire must not jump the queue even
  // though one unit is technically free.
  EXPECT_FALSE(pool.try_acquire(1));
}

}  // namespace
}  // namespace mrapid::sim
