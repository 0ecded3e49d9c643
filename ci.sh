#!/usr/bin/env bash
# CI entry point: builds and tests the simulator in two configurations —
#
#   1. Release      (assertions kept; what benches and users run)
#   2. ASan+UBSan   (-DMRAPID_SANITIZE=ON, catches memory errors, leaks
#                    and UB the deterministic tests alone cannot)
#
# Usage: ./ci.sh [extra ctest args, e.g. -R Golden]
#
# Golden traces are refreshed with:  GOLDEN_UPDATE=1 ctest -R Golden
# (see tests/golden_trace_test.cc) — never run that in CI.
set -euo pipefail
cd "$(dirname "$0")"

CTEST_ARGS=("$@")
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

# Golden traces must never be rewritten by CI, only compared.
unset GOLDEN_UPDATE

run_config() {
  local name="$1" dir="$2"
  shift 2
  echo "=== [$name] configure ==="
  cmake -B "$dir" -S . "$@"
  echo "=== [$name] build ==="
  cmake --build "$dir" -j "$JOBS"
  echo "=== [$name] ctest ==="
  (cd "$dir" && ctest --output-on-failure -j "$JOBS" "${CTEST_ARGS[@]}")
  echo "=== [$name] bench smoke ==="
  # The experiment driver end to end: every registered experiment on
  # CI-sized geometries, trials across 2 workers, JSON sink exercised.
  # A failed trial turns this non-zero.
  "$dir/bench/mrapid_bench" --smoke --jobs 2 --json /tmp/smoke.json > /dev/null
  # The fault-recovery experiment once more in isolation: exercises the
  # --filter path and keeps its recovery-overhead JSON as its own
  # artifact (per-mode crash/AM-kill cost, lost containers, restarts).
  "$dir/bench/mrapid_bench" --filter fault_recovery --smoke --jobs 2 \
    --json /tmp/smoke_fault.json > /dev/null
  # The multi-tenant stream experiment in isolation (docs/STREAMS.md):
  # open-loop tenant arrivals through the fair-queue layer in all four
  # modes, with steady-state quantiles and per-tenant conservation
  # checked inside each trial.
  "$dir/bench/mrapid_bench" --filter tenant_stream --smoke --jobs 2 \
    --json /tmp/smoke_stream.json > /dev/null
  # The scheduler-zoo shootout in isolation (docs/SCHEDULERS.md):
  # every registry policy x all four modes on the same streams, with
  # drain and per-job conservation asserted inside each trial — the
  # backfilling policies' only full-stack CI exercise besides the
  # fuzzer's policy seeds.
  "$dir/bench/mrapid_bench" --filter scheduler_shootout --smoke --jobs 2 \
    --json /tmp/smoke_shootout.json > /dev/null
  # The sim-core throughput experiment, smoke-sized, in BOTH configs:
  # under sanitizers its cluster-scale variant is the only CI exercise
  # of the timer wheel + incremental scheduler on a large (256-node)
  # cluster with the legacy toggles also run for the differential, its
  # placement-shuffle variant does the same for the indexed placement
  # engine (both sides of the toggle, scripted replica-draw/shuffle-flow
  # mix driven straight at BlockPlacementPolicy + Network), and its
  # job-scale variant does the
  # same for the fast-shuffle engine (partition-once registry + slab
  # fetch records + coalesced flows vs. the per-fetch legacy path, a
  # 256-map x 64-reducer job driven straight at ReduceRunner).
  "$dir/bench/mrapid_bench" --filter sim_core --smoke \
    --json /tmp/smoke_simcore.json > /dev/null
  echo "=== [$name] figure --jobs identity ==="
  # Every SweepRunner thread maps through the one process-wide outcome
  # cache (src/workloads/outcome_cache.h). The WordCount, TeraSort and
  # PI figure tables must not depend on how many threads filled it.
  for fig in fig7 fig10 fig11; do
    "$dir/bench/mrapid_bench" --filter "$fig" --smoke --jobs 1 > "/tmp/${name}_${fig}_jobs1.txt"
    "$dir/bench/mrapid_bench" --filter "$fig" --smoke --jobs 4 > "/tmp/${name}_${fig}_jobs4.txt"
    cmp "/tmp/${name}_${fig}_jobs1.txt" "/tmp/${name}_${fig}_jobs4.txt"
  done
  echo "=== [$name] fuzz smoke ==="
  # A bounded differential-fuzz campaign (docs/FUZZING.md): every
  # scenario runs all four modes against the reference executor with
  # result-digest, trace-invariant and determinism oracles. Fixed seed
  # range so CI time is bounded; any violation turns this non-zero.
  "$dir/tools/mrapid_fuzz" --seeds 0..24 --jobs 2
}

run_config release build-release -DCMAKE_BUILD_TYPE=Release -DMRAPID_WERROR=ON

echo "=== [release] unshrunk stream seeds ==="
# Two tenant-stream seeds outside the smoke range on which conservative
# backfilling once over-allocated a node under D+ (the trace check's
# capacity ledger caught it). tests/regressions replays only their
# shrunk scenarios; these run the full ones.
build-release/tools/mrapid_fuzz --seeds 54..54 --jobs 2
build-release/tools/mrapid_fuzz --seeds 150..150 --jobs 2

echo "=== [release] sim_core bench ==="
# Simulation-core throughput baseline (docs/PERF.md): smoke-sized
# event-churn / cancel-heavy / wordcount-sweep with the legacy-queue
# differential, emitted as a build artifact. The committed
# BENCH_simcore.json at the repo root is refreshed manually from a
# full (non-smoke) run on a quiet machine.
build-release/bench/mrapid_bench --filter sim_core --smoke \
  --json build-release/BENCH_simcore.json > /dev/null

echo "=== [release] perfbench self-test ==="
# The end-to-end benchmark's own tests (perfbench/README.md). They
# build perfbench_driver against src/ (into .bench_build/, about 5 s
# warm), so a change to an API the benchmark reads, such as
# NodeTable::stats(), fails CI rather than the next benchmark run.
python3 perfbench/test_perfbench.py

echo "=== [release] determinism gate ==="
# Golden traces and fuzzer reproducers live in the source tree and are
# only ever rewritten under GOLDEN_UPDATE=1 / --shrink, which CI never
# sets. After the full suite + benches + fuzz have run, any byte of
# drift under these trees means determinism regressed. The golden runs
# execute with all four hot-path toggle families at their defaults
# (heartbeat batching, incremental scheduling, indexed placement,
# fast shuffle — all on); the HeartbeatEquivalence and
# HotPathEquivalence suites (already part of ctest above, backed by
# the PlacementEquivalence draw-level differential plus the
# ShuffleEdgeCases/MapOutputRegistry shard equivalences) hold the same
# traces byte-identical across every toggle corner, so this gate
# covers the legacy paths too. The network has one waterfill engine;
# NetworkRatesDiff holds it to a full-scan reference model at 0 ULP.
git diff --exit-code -- tests/golden tests/regressions

run_config sanitize build-asan -DCMAKE_BUILD_TYPE=RelWithDebInfo -DMRAPID_SANITIZE=ON

echo "=== CI green: release + sanitize ==="
