// The simulation-core throughput baseline (docs/PERF.md): events/sec
// for the slab event queue across six variants — steady-state
// event-churn, the cancel-heavy heartbeat/replan pattern, an
// end-to-end wordcount sweep, the cluster-scale tenant stream
// (10k nodes) that exercises the timer wheel and the incremental
// scheduler, the placement-shuffle stream (10k nodes, small HDFS
// blocks, sort-heavy) that exercises the indexed placement engine
// against the legacy replica scan over one shared flow network, and
// the job-scale shuffle drive (2k maps
// x 512 reducers at 1k nodes) that exercises the partition-once
// registry and the slab fetch engine. The churn/cancel variants
// measure against the pre-slab shared_ptr reference queue, the
// cluster-scale variants against the same world with the respective
// hot-path toggles off, so each recorded speedup is measured, not
// remembered.
//
// Wall-clock output can never be byte-reproducible, so this experiment
// only runs when --filter names it (like `micro`). CI refreshes the
// recorded baseline with:
//
//   mrapid_bench --filter sim_core --json BENCH_simcore.json

#include "bench/figures.h"
#include "common/table.h"
#include "exp/sim_core.h"

namespace mrapid::bench {
namespace {

exp::ScenarioSpec make(const exp::SweepOptions& opt) {
  exp::ScenarioSpec spec;
  spec.title = "Simulation core — event throughput (wall clock)";
  spec.axes = {exp::label_axis("variant",
                               {"event-churn", "cancel-heavy", "wordcount-sweep", "cluster-scale",
                                "placement-shuffle", "job-scale"})};
  const bool smoke = opt.smoke;
  const std::uint64_t churn_events = smoke ? 400'000 : 4'000'000;
  const std::size_t churn_window = 1024;
  const std::uint64_t cancel_steps = smoke ? 200'000 : 2'000'000;

  spec.run = [=](const exp::Trial& trial) {
    exp::TrialResult result;
    result.trial = trial;
    try {
      const std::string& variant = trial.str("variant");
      exp::SimCoreResult modern, legacy;
      if (variant == "event-churn") {
        const exp::SimCorePair pair = exp::sim_core_event_churn(churn_events, churn_window);
        modern = pair.modern;
        legacy = pair.legacy;
      } else if (variant == "cancel-heavy") {
        const exp::SimCorePair pair = exp::sim_core_cancel_heavy(cancel_steps);
        modern = pair.modern;
        legacy = pair.legacy;
      } else if (variant == "cluster-scale") {
        const exp::SimCorePair pair = exp::sim_core_cluster_scale(smoke);
        modern = pair.modern;
        legacy = pair.legacy;
      } else if (variant == "placement-shuffle") {
        const exp::SimCorePair pair = exp::sim_core_placement_shuffle(smoke);
        modern = pair.modern;
        legacy = pair.legacy;
      } else if (variant == "job-scale") {
        const exp::SimCorePair pair = exp::sim_core_job_scale(smoke);
        modern = pair.modern;
        legacy = pair.legacy;
      } else {
        modern = exp::sim_core_wordcount_sweep(smoke);
      }
      result.ok = true;
      result.elapsed_seconds = modern.wall_seconds;
      result.set_metric("events", static_cast<double>(modern.events));
      result.set_metric("events_per_sec", modern.events_per_sec);
      result.set_metric("cancelled", static_cast<double>(modern.cancelled));
      result.set_metric("heap_peak", static_cast<double>(modern.heap_peak));
      result.set_metric("slab_slots", static_cast<double>(modern.slab_slots));
      result.set_metric("fetches", static_cast<double>(modern.fetches));
      result.set_metric("coalesced_flows", static_cast<double>(modern.coalesced_flows));
      result.set_metric("partition_calls", static_cast<double>(modern.partition_calls));
      if (legacy.events > 0) {
        result.set_metric("legacy_events_per_sec", legacy.events_per_sec);
        result.set_metric("speedup_vs_legacy", modern.events_per_sec / legacy.events_per_sec);
      }
    } catch (const std::exception& e) {
      result.ok = false;
      result.error = e.what();
    }
    return result;
  };

  spec.render = [](const std::vector<exp::TrialResult>& results, std::ostream& os) {
    Table table({"variant", "events", "events/sec", "legacy events/sec", "speedup",
                 "heap peak", "slab slots"});
    table.with_title("Simulation core throughput");
    for (const exp::TrialResult& r : results) {
      if (!r.ok) continue;
      const double legacy = r.metric("legacy_events_per_sec");
      const double speedup = r.metric("speedup_vs_legacy");
      table.add_row({r.trial.str("variant"), Table::num(r.metric("events"), 0),
                     Table::num(r.metric("events_per_sec"), 0),
                     legacy == legacy ? Table::num(legacy, 0) : "-",
                     speedup == speedup ? exp::strprintf("%.2fx", speedup) : "-",
                     Table::num(r.metric("heap_peak"), 0),
                     Table::num(r.metric("slab_slots"), 0)});
    }
    table.print(os);
    os << "\n(cancel-heavy counts push+cancel+fire operations; the other\n"
          "variants count fired events. See docs/PERF.md.)\n";
  };
  return spec;
}

const exp::Registrar reg("sim_core",
                         "Simulation-core events/sec baseline (wall clock, BENCH_simcore.json)",
                         make, /*only_on_request=*/true);

}  // namespace
}  // namespace mrapid::bench
