#pragma once

// Fuzz scenarios: the randomized-but-replayable unit the differential
// oracle runs. A FuzzScenario is a *fully materialized* description —
// integer geometry plus an explicit FaultSpec list — so it can be
// shrunk field by field and serialized to a reproducer file that
// replays byte-identically forever. Randomness only exists in
// generate_scenario(), which derives everything from its seed through
// named RngStreams: the probabilistic FaultPlan knobs are drawn first
// and then *expanded* into explicit events through the same
// expand_fault_plan() the injector uses, so the fuzzer explores
// exactly the fault distribution production plans produce.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness/world.h"
#include "workloads/jobstream.h"
#include "workloads/workload.h"

namespace mrapid::check {

// One tenant of a multi-tenant stream scenario. Integer fields only
// (like everything else in FuzzScenario) so tenants serialize to the
// same replay-forever text format.
struct FuzzTenant {
  std::string arrival = "poisson";  // poisson | bursty | diurnal
  long long mean_interarrival_ms = 15000;
  int weight_pct = 100;  // fair-share weight x100
  int floor_pct = 0;     // capacity floor in percent of the root cap
};

struct FuzzScenario {
  std::uint64_t seed = 0;  // generator seed; reused as the world seed

  std::string workload = "wordcount";  // wordcount | terasort | pi
  // WordCount geometry (sizes in KB so every field is an integer).
  int files = 2;
  int file_kb = 256;
  std::uint64_t data_seed = 42;
  // TeraSort geometry.
  long long rows = 4000;
  int blocks = 4;
  // Pi geometry.
  long long samples = 200000;
  int pi_maps = 4;

  int workers = 4;  // total nodes = workers + 1 (node 0 is the master)
  int racks = 2;
  std::string node_type = "a3";  // a2 | a3
  int reducers = 1;
  // WordCount only: HDFS block size override in KB (0 = config
  // default). Smaller blocks mean more splits, hence more maps.
  int block_kb = 0;
  long long nm_expiry_ms = 10000;

  // Scheduling policy by registry name (see mrapid/scheduler_registry.h);
  // empty keeps the mode's historical default (CapacityScheduler for
  // Hadoop modes, DPlusScheduler for MRapid modes), so pre-policy
  // reproducer files and legacy seeds replay byte-identically.
  std::string policy;

  // Hot-path toggles (HdfsConfig::indexed_placement,
  // MRConfig::fast_shuffle). Both sides of each toggle are
  // byte-identical by contract; the fuzzer still flips them on a
  // fraction of seeds so the legacy engines keep riding through the
  // full differential oracle. 1 = the shipping default, so pre-toggle
  // reproducer files parse (and serialize) unchanged. The retired
  // `incremental_rates` key still parses and is ignored.
  int indexed_placement = 1;
  int fast_shuffle = 1;

  // Explicit, already-expanded fault schedule (plan probabilities are
  // resolved at generation time so the schedule is shrinkable).
  std::vector<harness::FaultSpec> faults;

  // Multi-tenant open-loop stream. Empty = the classic single-job
  // scenario above; non-empty switches the oracle to the stream path
  // (StreamPump + TenantQueue), where the single-job geometry fields
  // are ignored.
  std::vector<FuzzTenant> tenants;
  long long stream_horizon_ms = 45000;
};

// True when the scenario drives the open-loop stream path.
inline bool is_stream(const FuzzScenario& scenario) { return !scenario.tenants.empty(); }

// Deterministic: the same seed always yields the same scenario.
FuzzScenario generate_scenario(std::uint64_t seed);

// The smallest worker count on which every mode still boots: the
// 3-slot AM pool needs three 1536 MB containers, and an a2 worker
// (2560 MB usable) hosts exactly one while an a3 worker (6144 MB)
// hosts four. Generator and shrinker both respect this floor.
int min_workers(const FuzzScenario& scenario);

// The workload instance for a scenario. One instance is shared across
// all mode runs *and* the reference executor (its memoised caches make
// that cheap, and sharing guarantees every run computes over the same
// generated input).
std::unique_ptr<wl::Workload> make_workload(const FuzzScenario& scenario);

// The WorldConfig every mode run of this scenario uses (cluster
// preset, HDFS block size, nm expiry, fault events, seed).
harness::WorldConfig world_config(const FuzzScenario& scenario);

// The TenantSpec list a stream scenario's StreamPump runs: one small
// scan-only tenant per FuzzTenant (named t0, t1, ...), with the
// arrival process shapes scaled to the short fuzz horizon. Throws
// std::invalid_argument when the scenario has no tenants.
std::vector<wl::TenantSpec> make_tenant_specs(const FuzzScenario& scenario);

// Replay text: one "key value" line per field, integers only, ending
// with "end". parse(serialize(s)) reproduces s exactly, and serialize
// is byte-deterministic — the reproducer-file format under
// tests/regressions/.
std::string serialize_scenario(const FuzzScenario& scenario);
// Throws std::invalid_argument on malformed input.
FuzzScenario parse_scenario(const std::string& text);

}  // namespace mrapid::check
