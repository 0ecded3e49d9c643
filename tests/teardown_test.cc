// World teardown: destroying a World frees everything it built, and is
// safe whenever it happens.
//
//   * RetainedHeap runs 200 worlds one after another: every mode, AM
//     kills that restart an AM and resubmit a pooled job, and a tenant
//     stream. Live heap must return to its level after the first
//     round, net of the process-wide outcome cache.
//   * MidFlightTeardown destroys worlds whose jobs are still running:
//     an undecided speculative race, a pooled job waiting to be
//     resubmitted, an AM restart in progress. Simulation events and RM
//     handlers hold raw pointers to AMs, races and job records; none
//     may be dereferenced once the World is gone. ASan+UBSan and
//     LeakSanitizer check these runs.

#include <gtest/gtest.h>
#include <malloc.h>

#include <cstdint>
#include <string_view>

#include "harness/stream_pump.h"
#include "harness/world.h"
#include "sim/trace.h"
#include "workloads/outcome_cache.h"
#include "workloads/wordcount.h"

#if defined(__SANITIZE_ADDRESS__)
#define MRAPID_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MRAPID_TEST_ASAN 1
#endif
#endif

namespace mrapid::harness {
namespace {

wl::WordCountParams wc_params(int files, Bytes size) {
  wl::WordCountParams params;
  params.num_files = static_cast<std::size_t>(files);
  params.bytes_per_file = size;
  return params;
}

// One AM kill, retried by the injector until an AM is running.
WorldConfig am_kill_config(double at_seconds) {
  WorldConfig config;
  FaultSpec kill;
  kill.kind = FaultKind::kAmKill;
  kill.at = sim::SimDuration::seconds(at_seconds);
  config.faults.events.push_back(kill);
  return config;
}

// ---- retained heap ---------------------------------------------------------

// Heap the process holds: malloc'd chunks in every arena plus mmapped
// blocks, net of the outcome cache, which is process-wide by design
// and bounded by its own budget.
std::int64_t retained_heap_bytes() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<std::int64_t>(info.uordblks + info.hblkhd) -
         static_cast<std::int64_t>(wl::OutcomeCache::shared().resident_bytes());
}

void run_job(RunMode mode, const WorldConfig& config, wl::Workload& workload,
             bool expect_restart = false) {
  World world(config, mode);
  const auto result = world.run(workload);
  ASSERT_TRUE(result.has_value()) << run_mode_name(mode);
  EXPECT_TRUE(result->succeeded) << run_mode_name(mode);
  if (expect_restart) {
    EXPECT_GE(result->profile.am_restarts, 1) << run_mode_name(mode);
  }
}

void run_stream() {
  wl::TenantSpec tenant;
  tenant.arrival.mean_interarrival_seconds = 4.0;
  tenant.max_files = 2;
  tenant.min_file_bytes = 256_KB;
  tenant.max_file_bytes = 512_KB;
  StreamPumpOptions options;
  options.horizon_seconds = 20.0;
  World world(WorldConfig{}, RunMode::kMRapidAuto);
  StreamPump pump(world, {tenant}, options);
  EXPECT_TRUE(pump.run());
  EXPECT_GE(pump.submitted_jobs(), 2u);
}

// Ten worlds covering every way a World builds AMs, races and apps.
void run_round(wl::WordCount& wc) {
  for (RunMode mode : {RunMode::kHadoop, RunMode::kUber, RunMode::kDPlus, RunMode::kUPlus,
                       RunMode::kMRapidAuto, RunMode::kSpark}) {
    run_job(mode, WorldConfig{}, wc);
  }
  // The RM re-executes the killed AM under the same application.
  run_job(RunMode::kHadoop, am_kill_config(1.0), wc, /*expect_restart=*/true);
  run_job(RunMode::kUber, am_kill_config(1.0), wc, /*expect_restart=*/true);
  // The framework resubmits the job whose pool slot died.
  run_job(RunMode::kDPlus, am_kill_config(1.0), wc, /*expect_restart=*/true);
  run_stream();
}

TEST(RetainedHeap, TwoHundredWorldsReturnToBaseline) {
#ifdef MRAPID_TEST_ASAN
  GTEST_SKIP() << "ASan replaces malloc, so mallinfo2 does not see the heap; "
                  "LeakSanitizer checks the same property exactly";
#endif
  constexpr int kRounds = 20;  // 10 worlds each
  constexpr std::int64_t kSlackBytes = 64 << 10;
  wl::WordCount wc(wc_params(3, 1_MB));
  // The first round fills the outcome cache and every lazily built
  // process-wide table; the rest must give back all they take.
  run_round(wc);
  const std::int64_t baseline = retained_heap_bytes();
  for (int round = 1; round < kRounds; ++round) {
    run_round(wc);
    if (HasFailure()) return;
  }
  const std::int64_t growth = retained_heap_bytes() - baseline;
  EXPECT_LE(growth, kSlackBytes) << "retained " << growth << " bytes over "
                                 << 10 * (kRounds - 1) << " worlds";
}

// ---- mid-flight teardown ---------------------------------------------------

// Runs the simulation in 10 ms steps until `count` more events named
// `name` are traced; false if that takes over two simulated minutes.
bool run_until_traced(World& world, const sim::Tracer& tracer, std::string_view name,
                      int count = 1) {
  const sim::SimTime limit = world.simulation().now() + sim::SimDuration::seconds(120);
  std::size_t scanned = tracer.size();
  int seen = 0;
  while (world.simulation().now() < limit) {
    world.simulation().run_until(world.simulation().now() + sim::SimDuration::millis(10));
    for (; scanned < tracer.size(); ++scanned) {
      if (tracer.events()[scanned].name == name && ++seen == count) return true;
    }
  }
  return false;
}

TEST(MidFlightTeardown, UndecidedSpeculativeRace) {
  wl::WordCount wc(wc_params(8, 4_MB));
  sim::Tracer tracer;
  bool completed = false;
  {
    World world(WorldConfig{}, RunMode::kMRapidAuto);
    world.attach_tracer(tracer);
    world.boot();
    const int pool_size = world.framework().pool().free_slots();
    world.framework().submit(wc.make_spec(world.hdfs()),
                             [&](const mr::JobResult&) { completed = true; });
    // Both attempts launched (a slot each) and running maps.
    ASSERT_TRUE(run_until_traced(world, tracer, "pool.acquire", 2));
    ASSERT_TRUE(run_until_traced(world, tracer, "map.start"));
    // Undecided: the loser still holds its slot.
    EXPECT_EQ(world.framework().pool().free_slots(), pool_size - 2);
  }
  EXPECT_FALSE(completed);
}

TEST(MidFlightTeardown, PooledJobWaitingForResubmission) {
  wl::WordCount wc(wc_params(6, 1_MB));
  WorldConfig config = am_kill_config(1.0);
  config.framework.pool_size = 1;  // the resubmission waits for the slot to re-warm
  sim::Tracer tracer;
  bool completed = false;
  {
    World world(config, RunMode::kDPlus);
    world.attach_tracer(tracer);
    world.boot();
    world.framework().submit_in_mode(wc.make_spec(world.hdfs()), mr::ExecutionMode::kDPlus,
                                     [&](const mr::JobResult&) { completed = true; });
    ASSERT_TRUE(run_until_traced(world, tracer, "pool.resubmit"));
    EXPECT_EQ(world.framework().pool().free_slots(), 0);
  }
  EXPECT_FALSE(completed);
}

TEST(MidFlightTeardown, AmRestartInProgress) {
  wl::WordCount wc(wc_params(6, 1_MB));
  sim::Tracer tracer;
  bool completed = false;
  {
    World world(am_kill_config(1.0), RunMode::kHadoop);
    world.attach_tracer(tracer);
    world.boot();
    world.client().submit(wc.make_spec(world.hdfs()), mr::ExecutionMode::kHadoopDistributed,
                          [&](const mr::JobResult&) { completed = true; });
    // The fresh attempt is up and running maps; the abandoned one is
    // still owned by the client.
    ASSERT_TRUE(run_until_traced(world, tracer, "app.am_restart"));
    ASSERT_TRUE(run_until_traced(world, tracer, "map.start"));
  }
  EXPECT_FALSE(completed);
}

}  // namespace
}  // namespace mrapid::harness
