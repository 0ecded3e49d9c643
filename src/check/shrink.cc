#include "check/shrink.h"

#include <algorithm>
#include <functional>

namespace mrapid::check {

namespace {

// A runaway guard, not a tuning knob: greedy shrinking of a generated
// scenario converges in well under this many oracle runs.
constexpr int kMaxOracleRuns = 200;

// The candidate list for one round, in deterministic order: each entry
// mutates a copy of `base` and returns true when it actually changed
// something (no-op candidates are skipped without an oracle run).
std::vector<std::function<bool(FuzzScenario&)>> round_candidates(const FuzzScenario& base) {
  std::vector<std::function<bool(FuzzScenario&)>> candidates;

  // 1. Drop each fault event (front to back: earlier events usually
  // matter more, so trying them first removes the big levers early).
  for (std::size_t i = 0; i < base.faults.size(); ++i) {
    candidates.push_back([i](FuzzScenario& s) {
      if (i >= s.faults.size()) return false;
      s.faults.erase(s.faults.begin() + static_cast<std::ptrdiff_t>(i));
      return true;
    });
  }

  // 2. Revert a zoo policy to the mode default: if the failure was
  // never about the scheduler, the reproducer should say so.
  candidates.push_back([](FuzzScenario& s) {
    if (s.policy.empty()) return false;
    s.policy.clear();
    return true;
  });

  // 2b. Revert legacy hot-path engines to the shipping defaults: the
  // engines are byte-identical by contract, so a failure that survives
  // this step is genuinely about the scenario, and one that doesn't
  // points straight at an engine divergence.
  candidates.push_back([](FuzzScenario& s) {
    if (s.indexed_placement == 1 && s.fast_shuffle == 1) return false;
    s.indexed_placement = 1;
    s.fast_shuffle = 1;
    return true;
  });

  // 3. Stream scenarios: drop tenants, shorten the horizon, simplify
  // arrival processes and entitlements. The single-job geometry
  // candidates below are skipped for streams (those fields are ignored
  // on the stream path, so mutating them would only waste oracle runs).
  if (is_stream(base)) {
    for (std::size_t i = 0; i < base.tenants.size(); ++i) {
      candidates.push_back([i](FuzzScenario& s) {
        if (s.tenants.size() <= 1 || i >= s.tenants.size()) return false;
        s.tenants.erase(s.tenants.begin() + static_cast<std::ptrdiff_t>(i));
        return true;
      });
    }
    candidates.push_back([](FuzzScenario& s) {
      if (s.stream_horizon_ms <= 10000) return false;
      s.stream_horizon_ms = std::max(10000LL, s.stream_horizon_ms / 2);
      return true;
    });
    for (std::size_t i = 0; i < base.tenants.size(); ++i) {
      candidates.push_back([i](FuzzScenario& s) {
        if (i >= s.tenants.size() || s.tenants[i].arrival == "poisson") return false;
        s.tenants[i].arrival = "poisson";
        return true;
      });
      candidates.push_back([i](FuzzScenario& s) {
        if (i >= s.tenants.size() || s.tenants[i].mean_interarrival_ms >= 60000) return false;
        s.tenants[i].mean_interarrival_ms =
            std::min(60000LL, s.tenants[i].mean_interarrival_ms * 2);
        return true;
      });
      candidates.push_back([i](FuzzScenario& s) {
        if (i >= s.tenants.size() ||
            (s.tenants[i].weight_pct == 100 && s.tenants[i].floor_pct == 0)) {
          return false;
        }
        s.tenants[i].weight_pct = 100;
        s.tenants[i].floor_pct = 0;
        return true;
      });
    }
  }

  // 4. Collapse to a single reducer and halve the single-job workload
  // geometry toward its floor — skipped for streams, where these
  // fields are ignored.
  const bool stream = is_stream(base);
  candidates.push_back([stream](FuzzScenario& s) {
    if (stream || s.reducers <= 1) return false;
    s.reducers = 1;
    return true;
  });
  candidates.push_back([stream](FuzzScenario& s) {
    if (stream || s.workload != "wordcount" || s.files <= 1) return false;
    s.files = std::max(1, s.files / 2);
    return true;
  });
  candidates.push_back([stream](FuzzScenario& s) {
    if (stream || s.workload != "wordcount" || s.file_kb <= 128) return false;
    s.file_kb = std::max(128, s.file_kb / 2);
    return true;
  });
  candidates.push_back([stream](FuzzScenario& s) {
    if (stream || s.workload != "wordcount" || s.block_kb == 0) return false;
    s.block_kb = 0;  // default block size -> one split per file
    return true;
  });
  candidates.push_back([stream](FuzzScenario& s) {
    if (stream || s.workload != "terasort" || s.rows <= 2000) return false;
    s.rows = std::max(2000LL, s.rows / 2);
    return true;
  });
  candidates.push_back([stream](FuzzScenario& s) {
    if (stream || s.workload != "terasort" || s.blocks <= 2) return false;
    s.blocks = std::max(2, s.blocks / 2);
    return true;
  });
  candidates.push_back([stream](FuzzScenario& s) {
    if (stream || s.workload != "pi" || s.samples <= 50000) return false;
    s.samples = std::max(50000LL, s.samples / 2);
    return true;
  });
  candidates.push_back([stream](FuzzScenario& s) {
    if (stream || s.workload != "pi" || s.pi_maps <= 2) return false;
    s.pi_maps = std::max(2, s.pi_maps / 2);
    return true;
  });

  // 5. Remove the highest-numbered worker (dropping fault events that
  // target it) and flatten to one rack.
  candidates.push_back([](FuzzScenario& s) {
    if (s.workers <= min_workers(s)) return false;
    const auto removed = static_cast<cluster::NodeId>(s.workers);
    s.workers -= 1;
    s.faults.erase(std::remove_if(s.faults.begin(), s.faults.end(),
                                  [removed](const harness::FaultSpec& f) {
                                    return f.kind != harness::FaultKind::kAmKill &&
                                           f.node == removed;
                                  }),
                   s.faults.end());
    s.racks = std::min(s.racks, s.workers);
    return true;
  });
  candidates.push_back([](FuzzScenario& s) {
    if (s.racks <= 1) return false;
    s.racks = 1;
    return true;
  });

  return candidates;
}

}  // namespace

ShrinkResult shrink_scenario(const FuzzScenario& scenario, const OracleOptions& options) {
  // Probing runs skip the determinism re-run (it doubles the cost and
  // an injected-bug failure never depends on it); the final verdict
  // uses the caller's options untouched.
  OracleOptions probe = options;
  probe.check_determinism = false;

  ShrinkResult result;
  result.scenario = scenario;

  bool progressed = true;
  while (progressed && result.oracle_runs < kMaxOracleRuns) {
    progressed = false;
    for (const auto& mutate : round_candidates(result.scenario)) {
      if (result.oracle_runs >= kMaxOracleRuns) break;
      FuzzScenario candidate = result.scenario;
      if (!mutate(candidate)) continue;
      ++result.oracle_runs;
      if (!run_oracle(candidate, probe).ok()) {
        result.scenario = std::move(candidate);
        ++result.accepted_steps;
        progressed = true;
        // Restart the round: the candidate list depends on the
        // (now smaller) scenario.
        break;
      }
    }
  }

  result.report = run_oracle(result.scenario, options);
  ++result.oracle_runs;
  return result;
}

}  // namespace mrapid::check
