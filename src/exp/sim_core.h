#pragma once

// Simulation-core throughput measurement (the `sim_core` experiment).
//
// Every sweep, fault matrix and fuzz campaign is ultimately a stream of
// events through sim::EventQueue, so events/sec is the repo's
// highest-leverage performance number. Four variants:
//
//   event-churn      steady-state push/fire with a bounded window of
//                    outstanding events — the shape of a long
//                    simulation run,
//   cancel-heavy     the heartbeat/replan pattern (schedule a
//                    completion, cancel it, reschedule) that bandwidth
//                    resources and liveness timers produce,
//   wordcount-sweep  end to end: full worlds across the figure modes,
//                    events/sec read from Simulation::queue_stats(),
//   cluster-scale    a Poisson tenant stream over a 10k-node uniform
//                    cluster, run twice: with the hot-path toggles
//                    (heartbeat batching + incremental scheduling) on
//                    and off — the recorded speedup for PR 8's
//                    cluster-scale overhaul,
//   placement-shuffle a scripted block-write/shuffle-flow mix driven
//                    straight at the placement policy + flow network
//                    on a 10k-node fabric, run twice: with the
//                    indexed placement engine on and off — the
//                    recorded speedup for the placement hot-path
//                    overhaul (both sides share the one network).
//                    Throughput counts replan+placement events
//                    (replica draws + rate replans), identical work on
//                    both sides,
//   job-scale        one wide MapReduce job (2k maps x 512 reducers
//                    at 1k nodes full; 256 x 64 at 128 smoke) driven
//                    straight at the ReduceRunner fetch engine, run
//                    twice: with MRConfig::fast_shuffle (partition-
//                    once registry + slab fetch records + coalesced
//                    flows) on and off — the recorded speedup for the
//                    shuffle/job hot-path overhaul. Throughput counts
//                    shuffle fetches (M·R, identical on both sides).
//
// The churn and cancel variants also run against LegacyEventQueue — a
// faithful reimplementation of the pre-slab shared_ptr/weak_ptr queue —
// so the recorded speedup is measured, not remembered. The two queues
// run in interleaved repetitions (modern, legacy, modern, legacy, …)
// and each side keeps its fastest repetition: on shared/throttled
// hosts a slow phase then hits both sides about equally instead of
// biasing whichever ran first. Results are recorded in
// BENCH_simcore.json at the repo root (docs/PERF.md).

#include <cstddef>
#include <cstdint>

namespace mrapid::exp {

struct SimCoreResult {
  std::uint64_t events = 0;     // events fired (churn/sweep) or total ops (cancel-heavy)
  double wall_seconds = 0.0;
  double events_per_sec = 0.0;
  std::uint64_t cancelled = 0;
  std::size_t heap_peak = 0;   // modern queue only; 0 for the legacy run
  std::size_t slab_slots = 0;  // modern queue only; 0 for the legacy run
  // Shuffle counters (mr::ShuffleStats) for the variants that run the
  // MapReduce fetch engine; zero for the queue-only variants.
  std::uint64_t fetches = 0;
  std::uint64_t coalesced_flows = 0;
  std::uint64_t partition_calls = 0;
};

// The two sides of one differential measurement, interleaved.
struct SimCorePair {
  SimCoreResult modern;
  SimCoreResult legacy;
};

// Steady-state churn: prime `window` outstanding events, then
// fire-one/push-one until `events` have fired.
SimCorePair sim_core_event_churn(std::uint64_t events, std::size_t window);

// Heartbeat/replan: per step, fire due events, cancel the outstanding
// completion, schedule a new one; every 8th step adds a short-fuse
// heartbeat that actually fires. Throughput counts push+cancel+fire.
SimCorePair sim_core_cancel_heavy(std::uint64_t steps);

// End to end: WordCount through full worlds across the figure modes;
// `events` is the total fired across all runs.
SimCoreResult sim_core_wordcount_sweep(bool smoke);

// Cluster scale: a Poisson tenant stream over a large uniform cluster
// (10k nodes full, 256 smoke), baseline Hadoop mode. `modern` runs
// with heartbeat batching + incremental scheduling (the defaults);
// `legacy` re-runs with both YarnConfig toggles off — the historical
// per-event O(nodes) costs — over a reduced horizon (events/sec is a
// rate, and the legacy side is too slow to run the full horizon at
// 10k nodes). Traces are byte-identical either way (the equivalence
// suite proves it); only the wall clock differs.
SimCorePair sim_core_cluster_scale(bool smoke);

// Placement/shuffle hot paths, measured the way event-churn measures
// the queue: a deterministic scripted mix of replica draws (external
// and datanode writers), block-pipeline shuffle flows, cancels and
// fluid advances, driven straight at BlockPlacementPolicy + Network on
// a datacenter-shaped fabric (10k nodes full, 256 smoke; ~40
// nodes/rack, bounded live-flow population). `modern` runs the indexed
// placement engine (the default); `legacy` re-runs the identical
// script with HdfsConfig::indexed_placement off — the historical O(N)
// replica scan. Both sides drive the same Network. The script (and
// therefore the event count) is identical on both sides, traces stay
// byte-identical in the end-to-end system either way
// (hotpath_equivalence_test proves it); `events` counts replica draws
// + rate replans, so events/sec is the replan+placement rate the
// acceptance bar is stated in. The network waterfills once per
// simulated instant, and the script only advances the clock every 16
// iterations, so most of its starts and cancels share a replan.
SimCorePair sim_core_placement_shuffle(bool smoke);

// The shuffle/job hot paths, driven straight at the ReduceRunner fetch
// engine: one wide job's worth of fabricated map results (a band-of-16
// hash partitioner, pairs of maps per source node) fed to every
// reducer of a 2k-map x 512-reducer job on a 1k-node fabric (256 x 64
// on 128 nodes smoke). `modern` runs MRConfig::fast_shuffle (the
// default): the partition-once MapOutputRegistry, slab fetch records
// and same-(src,dst) leg coalescing. `legacy` re-runs the identical
// feed with fast_shuffle off — the historical per-fetch
// partition_map_output (O(M·R²) per job) and per-fetch shared_ptr leg
// joins. Both sides perform the same M·R fetches over the same bytes
// and the end-to-end traces are byte-identical either way
// (hotpath_equivalence_test proves it); `events` counts fetches, so
// events/sec is the shuffle-fetch rate the acceptance bar is stated
// in.
SimCorePair sim_core_job_scale(bool smoke);

}  // namespace mrapid::exp
