#include "exp/sim_core.h"

#include <chrono>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "cluster/azure.h"
#include "cluster/cluster.h"
#include "cluster/network.h"
#include "cluster/topology.h"
#include "common/rng.h"
#include "exp/runner.h"
#include "hdfs/hdfs.h"
#include "hdfs/placement.h"
#include "harness/stream_pump.h"
#include "harness/world.h"
#include "mapreduce/shuffle.h"
#include "mapreduce/task_runner.h"
#include "sim/event_queue.h"
#include "sim/simulation.h"
#include "workloads/jobstream.h"
#include "workloads/wordcount.h"

namespace mrapid::exp {

namespace {

// A faithful reimplementation of the pre-PR-5 event queue: one
// shared_ptr<Record> per event in a std::priority_queue, an unbounded
// weak_ptr index for cancel(), a std::string label slot per record.
// Kept as the measured baseline for the recorded speedup — the numbers
// in BENCH_simcore.json stay reproducible after the original is gone.
class LegacyEventQueue {
 public:
  struct Id {
    std::uint64_t value = 0;
    constexpr bool valid() const { return value != 0; }
  };
  struct Fired {
    sim::SimTime time;
    sim::EventCallback callback;
    std::string label;
  };

  Id push(sim::SimTime at, sim::EventCallback callback, std::string label = {}) {
    auto record = std::make_shared<Record>();
    record->time = at;
    record->seq = next_seq_++;
    record->callback = std::move(callback);
    record->label = std::move(label);
    heap_.push(record);
    index_.push_back(record);
    ++live_;
    return Id{index_.size()};
  }

  bool cancel(Id id) {
    if (!id.valid() || id.value > index_.size()) return false;
    auto record = index_[id.value - 1].lock();
    if (!record || record->cancelled) return false;
    record->cancelled = true;
    record->callback = nullptr;
    --live_;
    return true;
  }

  bool empty() const { return live_ == 0; }

  sim::SimTime next_time() const {
    drop_cancelled_head();
    return heap_.empty() ? sim::SimTime::max() : heap_.top()->time;
  }

  Fired pop() {
    drop_cancelled_head();
    auto record = heap_.top();
    heap_.pop();
    record->cancelled = true;
    --live_;
    return Fired{record->time, std::move(record->callback), std::move(record->label)};
  }

 private:
  struct Record {
    sim::SimTime time;
    std::uint64_t seq;
    sim::EventCallback callback;
    std::string label;
    bool cancelled = false;
  };
  struct Compare {
    bool operator()(const std::shared_ptr<Record>& a, const std::shared_ptr<Record>& b) const {
      if (a->time != b->time) return a->time > b->time;
      return a->seq > b->seq;
    }
  };

  void drop_cancelled_head() const {
    while (!heap_.empty() && heap_.top()->cancelled) heap_.pop();
  }

  mutable std::priority_queue<std::shared_ptr<Record>, std::vector<std::shared_ptr<Record>>,
                              Compare>
      heap_;
  std::vector<std::weak_ptr<Record>> index_;
  std::size_t live_ = 0;
  std::uint64_t next_seq_ = 0;
};

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Pseudo-random but deterministic microsecond offsets; cheap enough to
// vanish next to the queue operations being measured.
constexpr std::uint64_t spread(std::uint64_t i) { return (i * 7919) & 0xFFFF; }

// Every production schedule_* site passes a label, and the hottest
// ones (bandwidth :finish, pool :grant) concatenate a resource name
// with a literal suffix — so the measured loops do the same. Each
// queue gets the label in its native form: the legacy queue builds the
// `name + ":finish"` std::string real call sites used to pay, the slab
// queue stores a two-pointer EventLabel.
const std::string kResourceName = "node03:disk-rd";  // concat exceeds SSO, as real names do

sim::EventLabel modern_label() { return sim::EventLabel(kResourceName, ":finish"); }
std::string legacy_label() { return kResourceName + ":finish"; }

template <typename Queue, typename LabelFn>
SimCoreResult run_churn(Queue& queue, std::uint64_t events, std::size_t window,
                        LabelFn make_label) {
  SimCoreResult result;
  const auto start = Clock::now();
  std::uint64_t pushed = 0;
  for (; pushed < window; ++pushed) {
    queue.push(sim::SimTime::from_micros(spread(pushed)), [] {}, make_label());
  }
  std::uint64_t fired = 0;
  while (fired < events) {
    auto event = queue.pop();
    ++fired;
    queue.push(event.time + sim::SimDuration::micros(1 + spread(pushed++)), [] {},
               make_label());
  }
  while (!queue.empty()) queue.pop();
  result.wall_seconds = seconds_since(start);
  result.events = fired;
  result.events_per_sec = static_cast<double>(fired) / result.wall_seconds;
  return result;
}

template <typename Queue, typename LabelFn>
SimCoreResult run_cancel_heavy(Queue& queue, std::uint64_t steps, LabelFn make_label) {
  SimCoreResult result;
  const auto start = Clock::now();
  std::uint64_t now_us = 0;
  std::uint64_t fired = 0, cancelled = 0, pushed = 0;
  auto completion = queue.push(sim::SimTime::from_micros(10'000), [] {}, make_label());
  ++pushed;
  for (std::uint64_t i = 0; i < steps; ++i) {
    now_us += 10;
    const sim::SimTime now = sim::SimTime::from_micros(now_us);
    while (!queue.empty() && queue.next_time() <= now) {
      queue.pop();
      ++fired;
    }
    // The replan pattern: the outstanding completion estimate is
    // discarded and rescheduled on every membership change.
    if (queue.cancel(completion)) ++cancelled;
    completion =
        queue.push(sim::SimTime::from_micros(now_us + 10'000 + spread(i)), [] {}, make_label());
    ++pushed;
    if ((i & 7) == 0) {
      queue.push(sim::SimTime::from_micros(now_us + 40), [] {}, "nm:heartbeat");  // will fire
      ++pushed;
    }
  }
  while (!queue.empty()) {
    queue.pop();
    ++fired;
  }
  result.wall_seconds = seconds_since(start);
  result.events = pushed + cancelled + fired;  // total queue operations
  result.cancelled = cancelled;
  result.events_per_sec = static_cast<double>(result.events) / result.wall_seconds;
  return result;
}

// Wall-clock noise (CPU frequency scaling, scheduler preemption,
// noisy neighbours on shared hosts) easily swings a single run by
// 10-20%, sometimes for seconds at a time. Each differential
// measurement therefore interleaves the two queues (modern, legacy,
// modern, legacy, …) so a slow phase hits both sides about equally,
// and each side keeps its fastest repetition — the standard
// noise-resistant cost estimate, applied identically to both.
constexpr int kReps = 5;

template <typename ModernFn, typename LegacyFn>
SimCorePair best_of_interleaved(ModernFn run_modern, LegacyFn run_legacy) {
  SimCorePair best{run_modern(), run_legacy()};
  for (int i = 1; i < kReps; ++i) {
    const SimCoreResult modern = run_modern();
    if (modern.events_per_sec > best.modern.events_per_sec) best.modern = modern;
    const SimCoreResult legacy = run_legacy();
    if (legacy.events_per_sec > best.legacy.events_per_sec) best.legacy = legacy;
  }
  return best;
}

}  // namespace

SimCorePair sim_core_event_churn(std::uint64_t events, std::size_t window) {
  return best_of_interleaved(
      [&] {
        sim::EventQueue queue;
        SimCoreResult result = run_churn(queue, events, window, modern_label);
        result.cancelled = queue.stats().cancelled;
        result.heap_peak = queue.stats().heap_peak;
        result.slab_slots = queue.stats().slab_capacity;
        return result;
      },
      [&] {
        LegacyEventQueue queue;
        return run_churn(queue, events, window, legacy_label);
      });
}

SimCorePair sim_core_cancel_heavy(std::uint64_t steps) {
  return best_of_interleaved(
      [&] {
        sim::EventQueue queue;
        SimCoreResult result = run_cancel_heavy(queue, steps, modern_label);
        result.heap_peak = queue.stats().heap_peak;
        result.slab_slots = queue.stats().slab_capacity;
        return result;
      },
      [&] {
        LegacyEventQueue queue;
        return run_cancel_heavy(queue, steps, legacy_label);
      });
}

namespace {

// One cluster-scale stream run: `incremental` flips BOTH YarnConfig
// toggles (heartbeat batching + incremental scheduling) so the pair
// measures the whole hot-path overhaul against the whole legacy path.
SimCoreResult run_cluster_scale(bool incremental, std::size_t nodes, double horizon_s) {
  harness::WorldConfig config;
  // Uniform A3 machines, ~40 per rack — a plausible datacenter shape
  // that keeps rack-locality code exercised without dominating.
  config.cluster = cluster::ClusterConfig::uniform(
      nodes, std::max<std::size_t>(std::size_t{1}, nodes / 40), cluster::azure_a3());
  config.yarn.heartbeat_batching = incremental;
  config.yarn.incremental_scheduling = incremental;
  config.deadline = sim::SimDuration::seconds(horizon_s + 3600.0);
  harness::World world(config, harness::RunMode::kHadoop);

  wl::TenantSpec tenant;
  tenant.name = "stream";
  tenant.arrival.process = wl::ArrivalProcess::kPoisson;
  tenant.arrival.mean_interarrival_seconds = 6.0;
  tenant.scan_weight = 1.0;
  tenant.sort_weight = 0.0;
  tenant.numeric_weight = 0.0;
  tenant.min_files = 1;
  tenant.max_files = 2;
  tenant.min_file_bytes = 1_MB;
  tenant.max_file_bytes = 2_MB;

  harness::StreamPumpOptions pump_options;
  pump_options.horizon_seconds = horizon_s;
  pump_options.max_running_jobs = 8;
  harness::StreamPump pump(world, {tenant}, pump_options);

  const auto start = Clock::now();
  if (!pump.run()) {
    throw TrialFailure("sim_core cluster-scale stream did not drain");
  }
  SimCoreResult result;
  result.wall_seconds = seconds_since(start);
  // The dominant event population is NM heartbeats, which live in the
  // timer wheel when batching is on — count dispatches, not just queue
  // pops, so both sides report the same work.
  result.events = world.simulation().processed_events();
  result.events_per_sec = static_cast<double>(result.events) / result.wall_seconds;
  result.cancelled = world.simulation().queue_stats().cancelled +
                     world.simulation().wheel_stats().cancelled;
  result.heap_peak = world.simulation().queue_stats().heap_peak;
  result.slab_slots = std::max(world.simulation().queue_stats().slab_capacity,
                               world.simulation().wheel_stats().slab_capacity);
  result.fetches = world.shuffle_stats().fetches;
  result.coalesced_flows = world.shuffle_stats().coalesced_flows;
  result.partition_calls = world.shuffle_stats().partition_calls;
  return result;
}

// One placement/shuffle run: `fast_paths` flips the indexed placement
// engine; the network is the same on both sides. Like event-churn and
// cancel-heavy, this drives the engine pair directly — a scripted mix
// of replica draws, shuffle-pipeline flow starts, cancels and fluid
// advances on a datacenter-shaped fabric — because in an end-to-end
// job stream the draws and replans are a few percent of the event
// population and the rate ratio measures Amdahl's bystanders, not the
// engines (both sides run the identical script, so the events/sec
// ratio is a pure wall-clock ratio of the two engine pairs).
SimCoreResult run_placement_shuffle(bool fast_paths, std::size_t nodes,
                                    std::size_t iterations) {
  const std::size_t racks = std::max<std::size_t>(std::size_t{1}, nodes / 40);
  std::vector<std::vector<cluster::NodeId>> rack_layout(racks);
  for (std::size_t n = 0; n < nodes; ++n) {
    rack_layout[n % racks].push_back(static_cast<cluster::NodeId>(n));
  }
  cluster::Topology topology(std::move(rack_layout));

  sim::Simulation sim(2024);
  cluster::Network network(sim, topology,
                           std::vector<Rate>(nodes, Rate::gbit_per_sec(1)),
                           cluster::NetworkConfig{});

  std::vector<cluster::NodeId> datanodes(nodes);
  for (std::size_t n = 0; n < nodes; ++n) {
    datanodes[n] = static_cast<cluster::NodeId>(n);
  }
  hdfs::BlockPlacementPolicy policy(topology, std::move(datanodes),
                                    RngStream(99, "exp.sim_core.placement"),
                                    fast_paths);

  // Scripted block writes: draw a replica set (external client half the
  // time, a datanode writer otherwise), push the block down a
  // writer->r1->r2->r3 pipeline of block-sized flows, retire flows via
  // random cancels plus periodic fluid advances, and keep the live flow
  // population bounded so the waterfill depth reaches a steady state.
  RngStream script(4242, "exp.sim_core.pshuffle");
  std::vector<cluster::Network::FlowId> live;
  std::int64_t now_us = 0;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < iterations; ++i) {
    const cluster::NodeId writer =
        script.next_double() < 0.5
            ? cluster::kInvalidNode
            : static_cast<cluster::NodeId>(script.next_int(0, static_cast<int>(nodes) - 1));
    const auto replicas = policy.choose(writer, /*replication=*/3);
    cluster::NodeId prev = writer == cluster::kInvalidNode && !replicas.empty()
                               ? replicas.front()
                               : writer;
    for (cluster::NodeId r : replicas) {
      const Bytes bytes = static_cast<Bytes>(script.next_int(128, 512)) * 1024;
      live.push_back(network.start_flow(prev, r, bytes, [](sim::SimDuration) {}));
      prev = r;
    }
    std::size_t cancels = !live.empty() && script.next_double() < 0.25 ? 1 : 0;
    cancels += live.size() > 256 ? live.size() - 256 : 0;
    for (; cancels > 0 && !live.empty(); --cancels) {
      const std::size_t victim =
          static_cast<std::size_t>(script.next_int(0, static_cast<int>(live.size()) - 1));
      network.cancel(live[victim]);  // false for already-finished ids: fine
      live[victim] = live.back();
      live.pop_back();
    }
    if ((i & 15) == 0) {
      now_us += 50'000;
      sim.run_until(sim::SimTime::from_micros(now_us));
    }
  }
  SimCoreResult result;
  result.wall_seconds = seconds_since(start);
  result.events = policy.draws() + network.stats().replans;
  result.events_per_sec = static_cast<double>(result.events) / result.wall_seconds;
  result.cancelled = sim.queue_stats().cancelled;
  result.heap_peak = sim.queue_stats().heap_peak;
  result.slab_slots = sim.queue_stats().slab_capacity;
  return result;
}

// The job-scale workload logic: a hash partitioner over a band of 16
// reducers. Each map's band starts at a stride-37 offset (pairs of
// maps share a band, mirroring their shared source node below), and
// every record is hashed into the band — so partition_map_output costs
// what a real hash partitioner costs (one mix + bucket add per record,
// plus the R-entry shard vector), which is exactly the per-fetch price
// the legacy path pays M·R times and the registry pays M times. The
// map index rides in on outcome.output_records (execute_map is never
// called; the bench fabricates map results directly).
class JobScaleLogic final : public mr::JobLogic {
 public:
  static constexpr int kBand = 16;
  static constexpr std::int64_t kRecordsPerMap = 2048;
  static constexpr Bytes kRecordBytes = 64;

  JobScaleLogic() : payload_(std::make_shared<int>(0)) {}

  std::string name() const override { return "job-scale-shuffle"; }
  mr::MapOutcome execute_map(const mr::InputSplit&) const override { return {}; }

  mr::ReduceOutcome execute_reduce(std::span<const mr::MapOutcome>) const override {
    mr::ReduceOutcome out;
    out.output_bytes = 1_KB;
    out.core_seconds = 0.0005;
    return out;
  }

  std::vector<mr::MapOutcome> partition_map_output(const mr::MapOutcome& outcome,
                                                   int reducers) const override {
    std::vector<mr::MapOutcome> shards(static_cast<std::size_t>(reducers));
    const auto m = static_cast<std::uint64_t>(outcome.output_records);
    const auto band_start =
        static_cast<std::size_t>(((m / 2) * 37) % static_cast<std::uint64_t>(reducers));
    for (std::int64_t rec = 0; rec < kRecordsPerMap; ++rec) {
      std::uint64_t h =
          (m * static_cast<std::uint64_t>(kRecordsPerMap) + static_cast<std::uint64_t>(rec)) *
          0x9E3779B97F4A7C15ull;
      h ^= h >> 33;
      h *= 0xFF51AFD7ED558CCDull;
      h ^= h >> 33;
      const std::size_t r =
          (band_start + static_cast<std::size_t>(h % kBand)) % static_cast<std::size_t>(reducers);
      shards[r].output_bytes += kRecordBytes;
      shards[r].output_records += 1;
    }
    for (auto& shard : shards) {
      if (shard.output_bytes > 0) shard.data = payload_;
    }
    return shards;
  }

 private:
  std::shared_ptr<const void> payload_;  // stands in for the in-memory segment
};

// One job-scale run: `fast` flips MRConfig::fast_shuffle. Both sides
// feed the identical fabricated map results to the identical reducer
// set; reducers are driven one at a time with a fluid drain between
// them so the live flow population stays bounded (the waterfill depth,
// not the fetch engine, would otherwise dominate).
SimCoreResult run_job_scale(bool fast, std::size_t nodes, int maps, int reducers) {
  sim::Simulation sim(2024);
  cluster::Cluster cluster(
      sim, cluster::ClusterConfig::uniform(
               nodes, std::max<std::size_t>(std::size_t{1}, nodes / 40), cluster::azure_a3()));
  hdfs::Hdfs hdfs(cluster, hdfs::HdfsConfig{});

  JobScaleLogic logic;
  mr::JobSpec spec;
  spec.name = "job-scale";
  spec.logic = &logic;
  spec.num_reducers = reducers;

  mr::MRConfig config;
  config.fast_shuffle = fast;
  mr::ShuffleStats stats;
  config.shuffle_stats = &stats;
  auto killed = std::make_shared<bool>(false);
  mr::TaskEnv env{sim, cluster, hdfs, config, killed};

  // Fabricated map results: map m lives on node (m/2) % nodes — pairs
  // of maps share a source, so a reducer's batch feed has runs of two
  // same-source fetches for the coalescer — with spilled (on-disk)
  // output so every remote fetch joins a disk and a network leg.
  std::vector<mr::MapTaskResult> results(static_cast<std::size_t>(maps));
  for (int m = 0; m < maps; ++m) {
    mr::MapTaskResult& result = results[static_cast<std::size_t>(m)];
    result.profile.index = m;
    result.profile.node =
        static_cast<cluster::NodeId>(static_cast<std::size_t>(m / 2) % nodes);
    result.profile.output_in_memory = false;
    result.outcome.output_bytes = JobScaleLogic::kRecordsPerMap * JobScaleLogic::kRecordBytes;
    result.outcome.output_records = m;  // smuggled map index (see JobScaleLogic)
  }

  int done = 0;
  std::vector<std::unique_ptr<mr::ReduceRunner>> runners;
  runners.reserve(static_cast<std::size_t>(reducers));

  const auto start = Clock::now();
  // The AM-side half of fast_shuffle: partition each output once, on
  // announcement — on the measured clock, exactly as an AM would.
  std::unique_ptr<mr::MapOutputRegistry> registry;
  if (fast) {
    registry = std::make_unique<mr::MapOutputRegistry>(spec, maps, &stats);
    for (const mr::MapTaskResult& result : results) {
      registry->announce(result.profile.index, result.outcome);
    }
  }
  std::int64_t now_us = 0;
  for (int r = 0; r < reducers; ++r) {
    auto runner = std::make_unique<mr::ReduceRunner>(
        env, spec, r, "/bench/job-scale/part-" + std::to_string(r),
        static_cast<cluster::NodeId>(static_cast<std::size_t>(r) % nodes), maps,
        [&done](mr::TaskProfile, mr::ReduceOutcome) { ++done; });
    runner->set_registry(registry.get());
    runner->start();
    runner->on_map_outputs(results);
    runners.push_back(std::move(runner));
    // Drain this reducer's fetches (and most of its flows) before the
    // next one starts: ~60 live legs at a time, not ~30k.
    now_us += 50'000;
    sim.run_until(sim::SimTime::from_micros(now_us));
  }
  sim.run_until(sim::SimTime::from_micros(now_us) + sim::SimDuration::seconds(3600));
  if (done != reducers) throw TrialFailure("sim_core job-scale did not finish every reducer");

  SimCoreResult result;
  result.wall_seconds = seconds_since(start);
  // Both sides perform the identical M·R fetches, so events/sec is the
  // shuffle-fetch rate and the speedup column a pure wall-clock ratio.
  result.events = stats.fetches;
  result.events_per_sec = static_cast<double>(result.events) / result.wall_seconds;
  result.cancelled = sim.queue_stats().cancelled;
  result.heap_peak = sim.queue_stats().heap_peak;
  result.slab_slots = sim.queue_stats().slab_capacity;
  result.fetches = stats.fetches;
  result.coalesced_flows = stats.coalesced_flows;
  result.partition_calls = stats.partition_calls;
  return result;
}

}  // namespace

SimCorePair sim_core_job_scale(bool smoke) {
  const std::size_t nodes = smoke ? 128 : 1'000;
  const int maps = smoke ? 256 : 2'000;
  const int reducers = smoke ? 64 : 512;
  SimCorePair pair;
  pair.modern = run_job_scale(/*fast=*/true, nodes, maps, reducers);
  pair.legacy = run_job_scale(/*fast=*/false, nodes, maps, reducers);
  return pair;
}

SimCorePair sim_core_placement_shuffle(bool smoke) {
  const std::size_t nodes = smoke ? 256 : 10'000;
  // Both sides run the identical script — same draws, same flows, same
  // replans — so events are equal and the speedup column is a pure
  // wall-clock ratio of the engine pairs.
  const std::size_t iterations = smoke ? 4'000 : 20'000;
  SimCorePair pair;
  pair.modern = run_placement_shuffle(/*fast_paths=*/true, nodes, iterations);
  pair.legacy = run_placement_shuffle(/*fast_paths=*/false, nodes, iterations);
  return pair;
}

SimCorePair sim_core_cluster_scale(bool smoke) {
  const std::size_t nodes = smoke ? 256 : 10'000;
  // The legacy side pays O(nodes) per NM heartbeat — at 10k nodes a
  // full horizon would take minutes of wall clock for the same rate
  // estimate, so it runs a shorter (but still multi-million-event)
  // slice. Both sides include boot, which is charged identically.
  const double modern_horizon_s = smoke ? 30.0 : 120.0;
  const double legacy_horizon_s = smoke ? 10.0 : 12.0;
  SimCorePair pair;
  pair.modern = run_cluster_scale(/*incremental=*/true, nodes, modern_horizon_s);
  pair.legacy = run_cluster_scale(/*incremental=*/false, nodes, legacy_horizon_s);
  return pair;
}

SimCoreResult sim_core_wordcount_sweep(bool smoke) {
  wl::WordCountParams params;
  params.num_files = smoke ? 2 : 6;
  params.bytes_per_file = smoke ? 256 * 1024 : 2 * 1024 * 1024;
  wl::WordCount wc(params);

  const harness::RunMode modes[] = {harness::RunMode::kHadoop, harness::RunMode::kUber,
                                    harness::RunMode::kDPlus, harness::RunMode::kUPlus};
  SimCoreResult result;
  const auto start = Clock::now();
  for (harness::RunMode mode : modes) {
    harness::WorldConfig config;
    harness::World world(config, mode);
    world.boot();
    auto run = world.run(wc);
    if (!run.has_value() || !run->succeeded) {
      throw TrialFailure("sim_core wordcount-sweep run failed");
    }
    const sim::EventQueue::Stats& stats = world.simulation().queue_stats();
    // Heartbeats dispatch from the timer wheel when batching is on, so
    // count all dispatches, not just queue pops.
    result.events += world.simulation().processed_events();
    result.cancelled += stats.cancelled + world.simulation().wheel_stats().cancelled;
    result.heap_peak = std::max(result.heap_peak, stats.heap_peak);
    result.slab_slots = std::max({result.slab_slots, stats.slab_capacity,
                                  world.simulation().wheel_stats().slab_capacity});
    result.fetches += world.shuffle_stats().fetches;
    result.coalesced_flows += world.shuffle_stats().coalesced_flows;
    result.partition_calls += world.shuffle_stats().partition_calls;
  }
  result.wall_seconds = seconds_since(start);
  result.events_per_sec = static_cast<double>(result.events) / result.wall_seconds;
  return result;
}

}  // namespace mrapid::exp
