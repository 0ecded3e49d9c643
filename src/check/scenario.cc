#include "check/scenario.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "cluster/azure.h"
#include "common/rng.h"
#include "mrapid/scheduler_registry.h"
#include "workloads/pi.h"
#include "workloads/terasort.h"
#include "workloads/wordcount.h"

namespace mrapid::check {

namespace {

// Generation bounds. Deliberately conservative so a clean build has no
// false positives: at most one node crash, and only on clusters that
// keep every block reachable (replication 3) AND can still host the
// 3-slot AM pool afterwards; at most one AM kill; stragglers and
// heartbeat losses are free. Anything nastier belongs in a
// hand-written test, not in a fuzzer that must stay green on every
// seed.
//
// The pool constraint is a real capacity fact, not superstition: an
// a2 worker offers 3584 - 1024 (NM reserve) = 2560 MB, which fits
// exactly one 1536 MB AM container, so the pool needs >= 3 a2
// workers to warm up — and >= 4 to survive losing one. An a3 worker
// (7168 - 1024 = 6144 MB, 4 cores) hosts four AMs, so 2 workers are
// always enough there.
constexpr int kMaxFaults = 6;

harness::FaultKind parse_fault_kind(const std::string& name) {
  if (name == "crash") return harness::FaultKind::kNodeCrash;
  if (name == "hbloss") return harness::FaultKind::kHeartbeatLoss;
  if (name == "straggler") return harness::FaultKind::kStraggler;
  if (name == "amkill") return harness::FaultKind::kAmKill;
  throw std::invalid_argument("unknown fault kind '" + name + "'");
}

}  // namespace

int min_workers(const FuzzScenario& scenario) {
  return scenario.node_type == "a2" ? 3 : 2;
}

FuzzScenario generate_scenario(std::uint64_t seed) {
  FuzzScenario s;
  s.seed = seed;
  RngStream rng(seed, "fuzz.scenario");

  // Cluster shape first: the fault expansion below needs the worker
  // list, and the worker floor depends on the node type (see the pool
  // capacity note above).
  s.node_type = rng.next_int(0, 1) == 0 ? "a2" : "a3";
  s.workers = static_cast<int>(rng.next_int(min_workers(s), 6));
  s.racks = static_cast<int>(rng.next_int(1, 2));
  s.reducers = static_cast<int>(rng.next_int(1, 3));
  // Surviving a crash needs one spare worker above the boot floor.
  const int min_workers_for_crash = min_workers(s) + 1;

  const std::int64_t kind = rng.next_int(0, 2);
  if (kind == 0) {
    s.workload = "wordcount";
    s.files = static_cast<int>(rng.next_int(1, 4));
    s.file_kb = 128 << rng.next_int(0, 3);  // 128K..1M per file
    s.data_seed = seed ^ 0x9E3779B97F4A7C15ull;
    const int block_choices[] = {0, 256, 512};
    s.block_kb = block_choices[rng.next_int(0, 2)];
  } else if (kind == 1) {
    s.workload = "terasort";
    s.rows = 1000 * rng.next_int(2, 20);
    s.blocks = static_cast<int>(rng.next_int(2, 6));
    s.data_seed = seed ^ 0x9E3779B97F4A7C15ull;
  } else {
    s.workload = "pi";
    s.samples = 50000 * rng.next_int(1, 40);
    s.pi_maps = static_cast<int>(rng.next_int(2, 6));
  }

  // Draw a probabilistic FaultPlan, then materialize it through the
  // injector's own expansion so the fuzzer samples exactly the
  // distribution production plans produce — but ends up with explicit,
  // shrinkable events.
  harness::FaultPlan plan;
  plan.window = sim::SimDuration::seconds(10.0);
  plan.loss_duration = sim::SimDuration::seconds(static_cast<double>(rng.next_int(3, 7)));
  plan.straggler_slowdown = static_cast<double>(rng.next_int(2, 4));
  const double crash_choices[] = {0.0, 0.12, 0.25};
  const double rate_choices[] = {0.0, 0.25, 0.5};
  plan.node_crash_prob =
      s.workers >= min_workers_for_crash ? crash_choices[rng.next_int(0, 2)] : 0.0;
  plan.heartbeat_loss_prob = rate_choices[rng.next_int(0, 2)];
  plan.straggler_prob = rate_choices[rng.next_int(0, 2)];

  std::vector<cluster::NodeId> workers;
  for (int node = 1; node <= s.workers; ++node) {
    workers.push_back(static_cast<cluster::NodeId>(node));
  }
  RngStream fault_rng(seed, "fuzz.faults");
  const std::vector<harness::FaultSpec> expanded =
      harness::expand_fault_plan(plan, fault_rng, workers);

  bool crash_kept = false;
  for (const harness::FaultSpec& spec : expanded) {
    if (static_cast<int>(s.faults.size()) >= kMaxFaults) break;
    if (spec.kind == harness::FaultKind::kNodeCrash) {
      if (crash_kept || s.workers < min_workers_for_crash) continue;
      crash_kept = true;
    }
    s.faults.push_back(spec);
  }

  // One optional AM kill on top (the expansion never produces those).
  if (rng.next_double() < 0.25 && static_cast<int>(s.faults.size()) < kMaxFaults) {
    harness::FaultSpec kill;
    kill.kind = harness::FaultKind::kAmKill;
    kill.node = cluster::kInvalidNode;
    kill.at = sim::SimDuration::micros(rng.next_int(500'000, 8'000'000));
    s.faults.push_back(kill);
  }

  // Crashes and heartbeat losses only bite when the RM notices within
  // the run; keep the liveness monitor snappy in those scenarios.
  bool liveness_faults = false;
  for (const harness::FaultSpec& spec : s.faults) {
    liveness_faults |= spec.kind == harness::FaultKind::kNodeCrash ||
                       spec.kind == harness::FaultKind::kHeartbeatLoss;
  }
  s.nm_expiry_ms = liveness_faults ? 1000 * rng.next_int(3, 6) : 10000;

  // A quarter of the seeds become multi-tenant open-loop streams that
  // exercise the TenantQueue layer instead of a single job. Drawn from
  // a separate named stream so every legacy field above keeps its
  // historical per-seed value. Stream scenarios are fault-free (the
  // conservation property is then unambiguous) and run on a3 nodes so
  // the AM pool always fits.
  RngStream tenant_rng(seed, "fuzz.tenants");
  if (tenant_rng.next_double() < 0.25) {
    s.node_type = "a3";
    s.workers = std::max(s.workers, 3);
    s.faults.clear();
    s.nm_expiry_ms = 10000;
    const char* kinds[] = {"poisson", "bursty", "diurnal"};
    const int count = static_cast<int>(tenant_rng.next_int(2, 4));
    for (int i = 0; i < count; ++i) {
      FuzzTenant tenant;
      tenant.arrival = kinds[tenant_rng.next_int(0, 2)];
      tenant.mean_interarrival_ms = 1000 * tenant_rng.next_int(8, 20);
      tenant.weight_pct = 100 * static_cast<int>(tenant_rng.next_int(1, 3));
      tenant.floor_pct = 10 * static_cast<int>(tenant_rng.next_int(0, 2));
      s.tenants.push_back(tenant);
    }
    s.stream_horizon_ms = 1000 * tenant_rng.next_int(30, 60);
  }

  // Scheduling-policy axis. A fresh named stream (like the tenant axis
  // above) so every legacy field keeps its historical per-seed value;
  // ~30% of seeds swap the mode-default scheduler for one of the zoo
  // policies. The default-keeping seeds pin the historical behaviour,
  // the rest drive the FIFO/backfilling paths through the full
  // differential oracle.
  RngStream policy_rng(seed, "fuzz.policy");
  if (policy_rng.next_double() < 0.3) {
    const char* policies[] = {"fcfs", "easy-backfill", "conservative-backfill"};
    s.policy = policies[policy_rng.next_int(0, 2)];
  }

  // Hot-path implementation axis. The indexed placement and fast
  // shuffle engines are byte-identical to the legacy paths by
  // contract, so flipping either must never change a trace — a quarter
  // of the seeds run each legacy engine (independently drawn) to keep
  // that contract under the full differential oracle, not just the
  // dedicated equivalence suites. Fresh named stream so every field
  // above keeps its historical per-seed value.
  RngStream hotpath_rng(seed, "fuzz.hotpaths");
  // Draw order is append-only: new toggles draw *after* the existing
  // ones so legacy seeds keep their historical values. The second draw
  // picked the retired full-scan waterfill; it is still consumed.
  s.indexed_placement = hotpath_rng.next_double() < 0.25 ? 0 : 1;
  hotpath_rng.next_double();
  s.fast_shuffle = hotpath_rng.next_double() < 0.25 ? 0 : 1;
  return s;
}

std::vector<wl::TenantSpec> make_tenant_specs(const FuzzScenario& scenario) {
  if (!is_stream(scenario)) {
    throw std::invalid_argument("make_tenant_specs: scenario has no tenants");
  }
  std::vector<wl::TenantSpec> specs;
  for (std::size_t i = 0; i < scenario.tenants.size(); ++i) {
    const FuzzTenant& tenant = scenario.tenants[i];
    wl::TenantSpec spec;
    spec.name = "t" + std::to_string(i);
    spec.arrival.process = wl::arrival_process_from_name(tenant.arrival);
    spec.arrival.mean_interarrival_seconds =
        static_cast<double>(tenant.mean_interarrival_ms) / 1000.0;
    // Burst/diurnal shapes scaled to the short fuzz horizon so each
    // process actually cycles within the run.
    spec.arrival.burst_factor = 4.0;
    spec.arrival.mean_on_seconds = 10.0;
    spec.arrival.mean_off_seconds = 15.0;
    spec.arrival.diurnal_period_seconds =
        static_cast<double>(scenario.stream_horizon_ms) / 1000.0;
    spec.arrival.diurnal_amplitude = 0.8;
    // Small scan-only jobs: the fuzzer is probing the queue layer and
    // cross-mode agreement, not workload heft.
    spec.scan_weight = 1.0;
    spec.sort_weight = 0.0;
    spec.numeric_weight = 0.0;
    spec.min_files = 1;
    spec.max_files = 2;
    spec.min_file_bytes = 1_MB;
    spec.max_file_bytes = 2_MB;
    spec.weight = static_cast<double>(tenant.weight_pct) / 100.0;
    spec.capacity_floor = static_cast<double>(tenant.floor_pct) / 100.0;
    specs.push_back(spec);
  }
  return specs;
}

std::unique_ptr<wl::Workload> make_workload(const FuzzScenario& scenario) {
  if (scenario.workload == "wordcount") {
    wl::WordCountParams params;
    params.num_files = static_cast<std::size_t>(scenario.files);
    params.bytes_per_file = static_cast<Bytes>(scenario.file_kb) * 1024;
    params.seed = scenario.data_seed;
    return std::make_unique<wl::WordCount>(params);
  }
  if (scenario.workload == "terasort") {
    wl::TeraSortParams params;
    params.rows = scenario.rows;
    params.blocks = scenario.blocks;
    params.seed = scenario.data_seed;
    return std::make_unique<wl::TeraSort>(params);
  }
  if (scenario.workload == "pi") {
    wl::PiParams params;
    params.total_samples = scenario.samples;
    params.num_maps = scenario.pi_maps;
    return std::make_unique<wl::Pi>(params);
  }
  throw std::invalid_argument("unknown workload '" + scenario.workload + "'");
}

harness::WorldConfig world_config(const FuzzScenario& scenario) {
  harness::WorldConfig config;
  const cluster::NodeSpec spec =
      scenario.node_type == "a2" ? cluster::azure_a2() : cluster::azure_a3();
  config.cluster = cluster::ClusterConfig::uniform(
      static_cast<std::size_t>(scenario.workers) + 1,
      static_cast<std::size_t>(scenario.racks), spec);
  if (scenario.block_kb > 0) {
    config.hdfs.block_size = static_cast<Bytes>(scenario.block_kb) * 1024;
  }
  config.yarn.nm_expiry = sim::SimDuration::millis(static_cast<double>(scenario.nm_expiry_ms));
  // The oracle's contract is "faults change when, not what": a
  // schedule that stacks an AM kill on heartbeat expiries can burn
  // through the production attempt budget (2) and fail the job
  // legitimately, which the oracle cannot tell apart from a bug. Fuzz
  // worlds get a generous budget so any job failure IS a bug.
  config.yarn.am_max_attempts = 8;
  config.faults.events = scenario.faults;
  config.faults.enable = true;
  config.scheduler = scenario.policy;  // empty = mode default
  config.hdfs.indexed_placement = scenario.indexed_placement != 0;
  config.mr.fast_shuffle = scenario.fast_shuffle != 0;
  config.seed = scenario.seed;
  config.log_level = LogLevel::kError;
  return config;
}

std::string serialize_scenario(const FuzzScenario& scenario) {
  std::ostringstream out;
  out << "# mrapid fuzz scenario v1\n";
  out << "seed " << scenario.seed << "\n";
  out << "workload " << scenario.workload << "\n";
  out << "files " << scenario.files << "\n";
  out << "file_kb " << scenario.file_kb << "\n";
  out << "data_seed " << scenario.data_seed << "\n";
  out << "rows " << scenario.rows << "\n";
  out << "blocks " << scenario.blocks << "\n";
  out << "samples " << scenario.samples << "\n";
  out << "pi_maps " << scenario.pi_maps << "\n";
  out << "workers " << scenario.workers << "\n";
  out << "racks " << scenario.racks << "\n";
  out << "node_type " << scenario.node_type << "\n";
  out << "reducers " << scenario.reducers << "\n";
  out << "block_kb " << scenario.block_kb << "\n";
  out << "nm_expiry_ms " << scenario.nm_expiry_ms << "\n";
  // Optional fields only when present, so pre-policy and pre-stream
  // reproducer files keep round-tripping byte-identically.
  if (!scenario.policy.empty()) {
    out << "policy " << scenario.policy << "\n";
  }
  if (scenario.indexed_placement != 1) {
    out << "indexed_placement " << scenario.indexed_placement << "\n";
  }
  if (scenario.fast_shuffle != 1) {
    out << "fast_shuffle " << scenario.fast_shuffle << "\n";
  }
  if (is_stream(scenario)) {
    out << "stream_horizon_ms " << scenario.stream_horizon_ms << "\n";
    for (const FuzzTenant& tenant : scenario.tenants) {
      out << "tenant " << tenant.arrival << " " << tenant.mean_interarrival_ms << " "
          << tenant.weight_pct << " " << tenant.floor_pct << "\n";
    }
  }
  for (const harness::FaultSpec& fault : scenario.faults) {
    out << "fault " << harness::fault_kind_name(fault.kind) << " " << fault.node << " "
        << fault.at.as_micros() << " " << fault.duration.as_micros() << " "
        << static_cast<long long>(std::llround(fault.slowdown * 100.0)) << "\n";
  }
  out << "end\n";
  return out.str();
}

FuzzScenario parse_scenario(const std::string& text) {
  FuzzScenario s;
  s.faults.clear();
  std::istringstream in(text);
  std::string line;
  bool ended = false;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (key == "end") {
      ended = true;
      break;
    }
    bool ok = true;
    if (key == "seed") {
      ok = static_cast<bool>(fields >> s.seed);
    } else if (key == "workload") {
      ok = static_cast<bool>(fields >> s.workload);
    } else if (key == "files") {
      ok = static_cast<bool>(fields >> s.files);
    } else if (key == "file_kb") {
      ok = static_cast<bool>(fields >> s.file_kb);
    } else if (key == "data_seed") {
      ok = static_cast<bool>(fields >> s.data_seed);
    } else if (key == "rows") {
      ok = static_cast<bool>(fields >> s.rows);
    } else if (key == "blocks") {
      ok = static_cast<bool>(fields >> s.blocks);
    } else if (key == "samples") {
      ok = static_cast<bool>(fields >> s.samples);
    } else if (key == "pi_maps") {
      ok = static_cast<bool>(fields >> s.pi_maps);
    } else if (key == "workers") {
      ok = static_cast<bool>(fields >> s.workers);
    } else if (key == "racks") {
      ok = static_cast<bool>(fields >> s.racks);
    } else if (key == "node_type") {
      ok = static_cast<bool>(fields >> s.node_type);
    } else if (key == "reducers") {
      ok = static_cast<bool>(fields >> s.reducers);
    } else if (key == "block_kb") {
      ok = static_cast<bool>(fields >> s.block_kb);
    } else if (key == "nm_expiry_ms") {
      ok = static_cast<bool>(fields >> s.nm_expiry_ms);
    } else if (key == "policy") {
      ok = static_cast<bool>(fields >> s.policy);
      if (ok && !core::SchedulerRegistry::instance().contains(s.policy)) {
        throw std::invalid_argument("unknown scheduler policy '" + s.policy + "'");
      }
    } else if (key == "indexed_placement") {
      ok = static_cast<bool>(fields >> s.indexed_placement);
    } else if (key == "incremental_rates") {
      // Retired toggle (the network has one waterfill engine): older
      // reproducers still carry it, so it parses and is ignored.
      int ignored = 0;
      ok = static_cast<bool>(fields >> ignored);
    } else if (key == "fast_shuffle") {
      ok = static_cast<bool>(fields >> s.fast_shuffle);
    } else if (key == "stream_horizon_ms") {
      ok = static_cast<bool>(fields >> s.stream_horizon_ms);
    } else if (key == "tenant") {
      FuzzTenant tenant;
      ok = static_cast<bool>(fields >> tenant.arrival >> tenant.mean_interarrival_ms >>
                             tenant.weight_pct >> tenant.floor_pct);
      if (ok) {
        wl::arrival_process_from_name(tenant.arrival);  // validate, throws
        s.tenants.push_back(tenant);
      }
    } else if (key == "fault") {
      std::string kind;
      long long node = 0, at_us = 0, duration_us = 0, slowdown_pct = 0;
      ok = static_cast<bool>(fields >> kind >> node >> at_us >> duration_us >> slowdown_pct);
      if (ok) {
        harness::FaultSpec spec;
        spec.kind = parse_fault_kind(kind);
        spec.node = static_cast<cluster::NodeId>(node);
        spec.at = sim::SimDuration::micros(at_us);
        spec.duration = sim::SimDuration::micros(duration_us);
        spec.slowdown = static_cast<double>(slowdown_pct) / 100.0;
        s.faults.push_back(spec);
      }
    } else {
      throw std::invalid_argument("unknown scenario key '" + key + "'");
    }
    if (!ok) throw std::invalid_argument("malformed scenario line '" + line + "'");
  }
  if (!ended) throw std::invalid_argument("scenario text missing 'end' terminator");
  return s;
}

}  // namespace mrapid::check
