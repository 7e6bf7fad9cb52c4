#!/usr/bin/env python3
"""Alternating parent / change pairs of one BENCHMARK.json workload.

    python scripts/bench_pairs.py --parent /root/scratch/parent --change . \\
        --workload cluster-4x2 --seed 0 --pairs 10 [--trace 1] [--save FILE]

Runs the contract command (``command``, ``run_seconds`` and the metric
names, directions and bounds all come from the change's BENCHMARK.json)
in both checkouts, one process at a time, alternating which side goes
first.  A pair in which either run reports ``host.noise_frac`` >= 0.25 is
printed, kept out of the quiet summary and run again (at most ``--pairs``
extra pairs); a second table summarises every pair run, noisy ones
included, and carries the verdict and exit code when no pair is quiet.
The verdict is the choosing-metrics rule: a gain, claimed by naming its
metric with ``--metric``, needs the
change to win at least nine tenths of the pairs (ties count for neither)
and the medians to differ by more than the distance between the parent's
quartiles and by more than the metric's bound (the gap a claimed gain must
exceed, benchmarks/e2e/README.md); every other end-to-end metric is held
to its bound, and reads
``unresolved`` when the parent's own spread is wider than that bound.
With ``--trace 1`` the per-layer metrics are summarised instead (medians
only: they carry no bounds).
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

NOISE_LIMIT = 0.25  # host.noise_frac at or above this marks a noisy run
NOISE = re.compile(r"^\s*host\.noise_frac\s+([0-9.eE+-]+)", re.M)


def quartiles(values):
    """``(q1, median, q3)`` of ``values`` (a lone value is all three)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def judge(parent, change, better, bound, claimed):
    """``(wins, verdict)`` for paired ``parent[i]`` / ``change[i]`` values."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    gain = sign * (quartiles(change)[1] - p_med)
    limit = None if bound is None else bound * abs(p_med)
    if claimed:
        won = wins >= 0.9 * len(parent) and gain > max(p_q3 - p_q1, limit or 0)
        return wins, "gain" if won else "claim not met"
    if limit is None:
        return wins, ""
    apart = min(sign * c for c in change) > max(sign * p for p in parent)
    if p_q3 - p_q1 > limit and not apart:
        return wins, "unresolved"
    return wins, "ok" if gain >= -limit else "REGRESSION"


def run_once(checkout: Path, command, workload, seed, seconds, trace):
    """One contract run in ``checkout``: its result line plus the noise."""
    argv = list(command) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(
        argv, cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, check=False,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    noise = NOISE.search(done.stdout)
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "noise_frac": float(noise.group(1)) if noise else 0.0,
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--metric",
        help="the claimed gain, judged as one only when given (shown per "
        "pair; default wall_qps, or host.cpu_us_per_query with --trace 1)",
    )
    parser.add_argument("--seconds", type=float, help="default: run_seconds")
    parser.add_argument("--save", type=Path, help="append every run as JSONL")
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    claimed = None if args.trace else args.metric
    if args.metric is None:
        args.metric = "host.cpu_us_per_query" if args.trace else "wall_qps"
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    directions = {m["name"]: m["better"] for m in declared}
    if args.metric not in directions:
        parser.error(f"--metric must be one of {sorted(directions)}")
    better = directions[args.metric]
    kept, everything, ran, won = [], [], 0, 0
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={seconds:g} pairs={args.pairs}")
    print(f"pair first  parent.{args.metric} change.{args.metric} ratio "
          f"noise(parent/change) kept")
    while len(kept) < args.pairs and ran < 2 * args.pairs:
        ran += 1
        order = ["parent", "change"] if ran % 2 else ["change", "parent"]
        pair = {
            side: run_once(sides[side], spec["command"], args.workload,
                           args.seed, seconds, args.trace)
            for side in order
        }
        quiet = all(run["noise_frac"] < NOISE_LIMIT for run in pair.values())
        everything.append(pair)
        if quiet:
            kept.append(pair)
        p, c = (pair[s]["metrics"][args.metric] for s in sides)
        won += c > p if better == "higher" else c < p
        print(f"{ran:4d} {order[0]:6s} {p:14.4f} {c:14.4f} "
              f"{c / p if p else float('nan'):5.3f} "
              f"{pair['parent']['noise_frac']:.2f}/"
              f"{pair['change']['noise_frac']:.2f} {'yes' if quiet else 'NO'}")
        if args.save:
            with args.save.open("a") as out:
                for side in order:
                    row = dict(pair[side], side=side, pair=ran, kept=quiet,
                               workload=args.workload, seed=args.seed,
                               trace=args.trace, seconds=seconds)
                    out.write(json.dumps(row) + "\n")
    if not kept:
        print("no quiet pair: the all-pairs table carries the verdict",
              file=sys.stderr)
    tables = [("quiet", kept)] if kept else []
    if len(kept) < len(everything):
        tables.append(("all", everything))
    verdicts = []
    for label, pairs in tables:
        print(f"\n{label}: {len(pairs)} pairs of {ran} run ({args.metric}: "
              f"change won {won} of all {ran}); failed operations: "
              + ", ".join(
                  f"{side} {sum(pair[side]['failed'] for pair in pairs)}/"
                  f"{sum(pair[side]['attempted'] for pair in pairs)}"
                  for side in sides))
        verdicts.append(summarise(pairs, declared, claimed, sides))
    return 0 if verdicts and verdicts[0] else 1


def summarise(pairs, declared, claimed, sides) -> bool:
    """Print medians, quartiles, wins and verdicts over ``pairs``, judging
    the metric named ``claimed`` (None: none) as a claimed gain; True
    unless a claim is not met or a metric regressed."""
    print(f"{'metric':32s} {'parent median [q1, q3]':>40s} "
          f"{'change median [q1, q3]':>40s} ratio  wins verdict")
    met = True
    for metric in declared:
        name = metric["name"]
        columns = [[pair[s]["metrics"][name] for pair in pairs] for s in sides]
        wins, verdict = judge(
            *columns, metric["better"], metric.get("bound"),
            claimed=name == claimed,
        )
        spread = [quartiles(col) for col in columns]
        cells = ["{1:.6g} [{0:.6g}, {2:.6g}]".format(*qs) for qs in spread]
        p_med, c_med = spread[0][1], spread[1][1]
        ratio = f"{c_med / p_med:5.3f}" if p_med else "  -  "
        print(f"{name:32s} {cells[0]:>40s} {cells[1]:>40s} {ratio} "
              f"{wins:2d}/{len(pairs)} {verdict}")
        met = met and verdict not in ("claim not met", "REGRESSION")
    return met


if __name__ == "__main__":
    sys.exit(main())
