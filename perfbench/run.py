#!/usr/bin/env python3
"""End-to-end benchmark of the MRapid simulator.

Builds perfbench_driver from this checkout's sources, then runs passes
of one workload -- one driver process per pass, every trial serial --
until --seconds have gone by (and at least a few passes have run). It
checks every pass's outputs and simulated fingerprint and prints, as the
last line of standard output, one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list; with
--trace 1 they are its per_layer list, taken from traced passes that
alternate with untraced ones (whose fingerprints they must reproduce).

  python3 perfbench/run.py --workload figures --seed 1 --seconds 20 --trace 0

See perfbench/README.md for what each workload and metric means.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("figures", "wide-job", "fuzz")

# Minimum passes per run. With the slowest workload's pass at about
# 9.5 s these fit in BENCHMARK.json's run_seconds (35 s); more passes run
# while the next one is expected to end within --seconds.
MIN_PASSES = 3        # untraced passes per --trace 0 run
MIN_TRACE_PAIRS = 1   # (traced, untraced) pairs per --trace 1 run
RUN_BUDGET_S = 165.0  # never start a pass that could end past this
PASS_TIMEOUT_S = 150.0


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configures and builds the driver; returns its path or exits 1."""
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    steps = [
        ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", out_dir, "-j", "4", "--target", "perfbench_driver"],
    ]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                with open(log_path) as failed:
                    sys.stderr.write("".join(failed.readlines()[-30:]))
                sys.stderr.write("perfbench: build failed (%s)\n" % " ".join(step))
                sys.exit(1)
    return os.path.join(out_dir, "perfbench_driver")


def run_pass(driver, out_dir, workload, seed, traced):
    """One driver process: its wall time, peak RSS and parsed report."""
    cmd = [driver, "--workload", workload, "--seed", str(seed), "--trace", "1" if traced else "0"]
    if traced:
        cmd += ["--spans", os.path.join(out_dir, "spans-%s.jsonl" % workload)]
    out_path = os.path.join(out_dir, "pass-%s.out" % workload)
    with open(out_path, "w+") as out:
        spawn = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out)
        watchdog = threading.Timer(PASS_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # e.g. SIGTERM: leave no driver behind
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.monotonic() - spawn
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        lines = out.read().strip().splitlines()
    result = {"traced": traced, "wall": wall, "spawn": spawn,
              "rss_mb": usage.ru_maxrss / 1024.0, "report": None}
    if proc.returncode != 0 or not lines:
        result["error"] = "%s pass exited with %d" % (workload, proc.returncode)
        return result
    try:
        result["report"] = json.loads(lines[-1])
    except ValueError:
        result["error"] = "%s pass printed no report" % workload
    return result


def run_passes(driver, out_dir, workload, seed, seconds, trace):
    """Passes until the next one would end past --seconds (at least a few)."""
    begin = time.monotonic()
    passes = []

    def may_continue(done, minimum, per_unit):
        elapsed = time.monotonic() - begin
        expected = per_unit * statistics.median(p["wall"] for p in passes) if passes else 0.0
        if elapsed + 2 * expected > RUN_BUDGET_S:
            return False
        return done < minimum or elapsed + expected <= seconds

    if not trace:
        while may_continue(len(passes), MIN_PASSES, 1):
            passes.append(run_pass(driver, out_dir, workload, seed, False))
    else:
        pairs = 0
        while may_continue(pairs, MIN_TRACE_PAIRS, 2):
            order = (True, False) if pairs % 2 == 0 else (False, True)
            for traced in order:
                passes.append(run_pass(driver, out_dir, workload, seed, traced))
            pairs += 1
    return passes


def trial_seconds(trial):
    return trial["end"] - trial["start"]


def pass_setup_s(p):
    """Process spawn to first trial, plus every trial's set-up."""
    trials = p["report"]["trials"]
    return trials[0]["start"] - p["spawn"] + sum(t["setup_s"] for t in trials)


def tally(passes):
    """attempted, failed, error lines; fingerprint drift counts as failure."""
    attempted = failed = 0
    errors = []
    fingerprint = None
    for p in passes:
        report = p["report"]
        if report is None:
            attempted += 1
            failed += 1
            errors.append(p["error"])
            continue
        attempted += len(report["trials"])
        failed += sum(1 for t in report["trials"] if not t["ok"])
        errors += report["errors"]
        if fingerprint is None:
            fingerprint = report["fingerprint"]
        elif report["fingerprint"] != fingerprint:
            failed += 1
            errors.append("simulated fingerprint %s differs from %s (%s pass)" % (
                report["fingerprint"], fingerprint, "traced" if p["traced"] else "untraced"))
    return max(attempted, 1), min(failed, max(attempted, 1)), errors


def end_to_end(untraced, attempted, failed):
    return {
        "wall_s": statistics.median(p["wall"] for p in untraced),
        "trial_p50_s": statistics.median(
            statistics.median(trial_seconds(t) for t in p["report"]["trials"]) for p in untraced),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in untraced),
        "setup_s": statistics.median(pass_setup_s(p) for p in untraced),
        "success_rate": 1.0 - failed / attempted,
    }


def per_layer(traced, untraced):
    names = traced[0]["report"]["metrics"].keys()
    values = {n: statistics.median(p["report"]["metrics"][n] for p in traced) for n in names}

    def trials_s(p):
        return sum(trial_seconds(t) for t in p["report"]["trials"])

    def stream_s(p):
        return sum(t["stream_s"] for t in p["report"]["trials"])

    values["exp.overhead_s"] = statistics.median(p["wall"] - trials_s(p) for p in untraced)
    values["exp.trace_overhead_s"] = (statistics.median(p["wall"] for p in traced) -
                                      statistics.median(p["wall"] for p in untraced))
    values["check.stream_share"] = statistics.median(stream_s(p) / p["wall"] for p in untraced)
    return values


def main():
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    out_dir = build_dir()
    driver = build(out_dir)
    passes = run_passes(driver, out_dir, args.workload, args.seed, args.seconds, args.trace == 1)

    attempted, failed, errors = tally(passes)
    for line in errors[:20]:
        sys.stderr.write("perfbench: FAILED %s\n" % line)
    ran = [p for p in passes if p["report"] is not None]
    untraced = [p for p in ran if not p["traced"]]
    traced = [p for p in ran if p["traced"]]
    if not untraced or (args.trace == 1 and not traced):
        sys.stderr.write("perfbench: no %s pass completed\n" % args.workload)
        return 1

    if args.trace == 0:
        wanted, values = spec["end_to_end"], end_to_end(untraced, attempted, failed)
    else:
        wanted, values = spec["per_layer"], per_layer(traced, untraced)
    metrics = {}
    for metric in wanted:
        if metric["name"] not in values:
            sys.stderr.write("perfbench: the driver did not report %s\n" % metric["name"])
            return 1
        metrics[metric["name"]] = {"value": values[metric["name"]], "unit": metric["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
