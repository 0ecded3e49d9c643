#pragma once

// The benchmark's three workloads, each run as one serial pass:
//
//   figures   Fig. 7 WordCount file-count sweep (10 MB files) and the
//             Fig. 10 TeraSort row sweep, all four modes, through
//             exp::SweepRunner with a fresh workload object per trial.
//   wide-job  one very wide PI job (many maps, many reducers) per
//             distributed mode (Hadoop, D+) on a large uniform A3
//             cluster: the simulator's own machinery, not the payload.
//   fuzz      one campaign: check::run_oracle, the call run_fuzz makes
//             per seed, over a fixed set of single-job scenarios plus
//             one tenant-stream scenario (the same set for every --seed).
//
// The seed only shapes the generated inputs; every output is checked.
// A traced pass wraps each workload in ProxyWorkload, probes the live
// heap around every world and (for fuzz) rebuilds the oracle loop from
// check's public functions so its steps can be timed.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "probe.h"

namespace perfbench {

struct TrialRecord {
  double start = 0.0;
  double end = 0.0;
  double setup_s = 0.0;   // workload built + world built + booted
  double stream_s = 0.0;  // tenant-stream fuzz scenarios inside the trial
  bool ok = false;
};

struct PassResult {
  std::vector<TrialRecord> trials;
  std::vector<std::string> errors;  // one line per failed trial
  std::uint64_t fingerprint = 0;
  // Per-module metrics; filled on traced passes only.
  std::vector<std::pair<std::string, double>> metrics;
  SpanRecorder spans;
};

// Names of the per-module metrics a traced pass reports, in order.
std::vector<std::string> metric_names();

// Throws std::invalid_argument for an unknown workload name.
PassResult run_pass(const std::string& workload, std::uint64_t seed, bool trace);

}  // namespace perfbench
