#!/usr/bin/env python3
"""Paired comparison of two commits on the end-to-end benchmark.

Exports each commit with `git archive` under .bench_build/compare/,
overlays this checkout's perfbench/ and BENCHMARK.json on both (so both
sides run identical benchmark code), then runs `perfbench/run.py` on the
two sides in pairs, alternating which side goes first. For every
workload and end-to-end metric it prints each side's median and
quartiles, the share of pairs the head side won, and a verdict:

  better      head won >= 90% of pairs and the medians differ by more
              than the base side's interquartile range
  worse       head's median is worse than base's by more than the bound
  unresolved  base's own spread exceeds the bound and head did not beat
              every base run
  within      none of the above: no worse than the bound allows

  python3 perfbench/compare.py --base HEAD~1 --head HEAD --pairs 10
  python3 perfbench/compare.py --base HEAD~1 --head . --held-out-seed 977

"." names this checkout as it is on disk (uncommitted changes included).
Pair i runs seed i + 1, each side for BENCHMARK.json's run_seconds.
--held-out-seed runs every pair on one seed not used while writing the
change instead, so a claim can be re-checked on fresh inputs.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summary(values):
    q1, median, q3 = quartiles(values)
    return "%.4g [%.4g, %.4g]" % (median, q1, q3)


def verdict(base, head, better, bound):
    """Verdict for paired runs base[i] / head[i] of one metric."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for b, h in zip(base, head) if sign * (h - b) < 0)
    win_share = wins / len(base)
    b_q1, b_med, b_q3 = quartiles(base)
    _, h_med, _ = quartiles(head)
    scale = abs(b_med) if b_med != 0 else 1.0
    worse_share = sign * (h_med - b_med) / scale
    head_beats_all = all(sign * (h - b) < 0 for h in head for b in base)
    if win_share >= 0.9 and worse_share < 0 and abs(h_med - b_med) > (b_q3 - b_q1):
        return "better", win_share
    if (b_q3 - b_q1) / scale > bound and not head_beats_all:
        return "unresolved", win_share
    if worse_share > bound:
        return "worse", win_share
    return "within", win_share


def prepare(rev, work_dir):
    """A checkout of `rev` carrying this checkout's benchmark files."""
    if rev == ".":
        return ROOT
    target = os.path.join(work_dir, rev.replace("/", "_").replace("~", "-").replace("^", "-"))
    if os.path.isdir(target):
        shutil.rmtree(target)
    os.makedirs(target)
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev], capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", target], input=archive.stdout, check=True)
    shutil.rmtree(os.path.join(target, "perfbench"), ignore_errors=True)
    shutil.copytree(HERE, os.path.join(target, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), target)
    return target


def run_side(root, workload, seed, seconds):
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(root, ".bench_build"))
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-3000:])
        raise SystemExit("compare: run.py failed in %s (%s)" % (root, workload))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.stderr.write("compare: %s reported failures on %s seed %d\n" % (root, workload, seed))
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="git revision, or . for this checkout")
    parser.add_argument("--head", required=True, help="git revision, or . for this checkout")
    parser.add_argument("--workloads", default=None, help="comma-separated (default: all)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--held-out-seed", type=int, default=None)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = spec["run_seconds"]
    work_dir = os.path.join(ROOT, ".bench_build", "compare")
    roots = {"base": prepare(args.base, work_dir), "head": prepare(args.head, work_dir)}

    for workload in workloads:
        runs = {"base": [], "head": []}
        for i in range(args.pairs):
            seed = args.held_out_seed if args.held_out_seed is not None else i + 1
            for side in (("base", "head") if i % 2 == 0 else ("head", "base")):
                runs[side].append(run_side(roots[side], workload, seed, seconds))
        print("%s (%d pairs, %g s per run)" % (workload, args.pairs, seconds))
        print("  %-14s %-30s %-30s %6s  %s" % ("metric", "base median [q1, q3]",
                                               "head median [q1, q3]", "won", "verdict"))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            base = [r[name] for r in runs["base"]]
            head = [r[name] for r in runs["head"]]
            outcome, won = verdict(base, head, metric["better"], metric["bound"])
            print("  %-14s %-30s %-30s %5.0f%%  %s" % (name, summary(base), summary(head),
                                                       100 * won, outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
