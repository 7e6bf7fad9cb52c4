#!/usr/bin/env python3
"""Run every workload once per seed, each in its own pinned process.

    python3 benchmarks/e2e/suite.py --seeds 0 --traced

writes ``out/result-<commit>-<seed>.json`` (one file per seed), the input
of ``compare.py`` and of ``gen_readme.py``'s first-readings table.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from e2ebench import spec as contract  # noqa: E402

#: A run sets up, gates and replays outside its measuring window.
RUN_OVERHEAD_S = 60


def commit_id() -> str:
    """Short hash of HEAD, or ``nogit`` outside a repository."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=contract.ROOT,
            capture_output=True,
            text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "nogit"
    return done.stdout.strip()


def run_once(spec: dict, workload: str, seed: int, seconds: float,
             trace: int = 0) -> dict:
    """One benchmark process; returns its result line plus the run's key."""
    command = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    done = subprocess.run(
        command,
        cwd=contract.ROOT,
        capture_output=True,
        text=True,
        timeout=seconds + RUN_OVERHEAD_S,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}"
        )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "warnings": done.stderr.strip().splitlines(),
    }


def main(argv=None) -> int:
    spec = contract.load()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload and seed (compare.py "
                        "needs several to resolve a spread)")
    parser.add_argument("--traced", action="store_true",
                        help="add one --trace 1 run per workload")
    args = parser.parse_args(argv)
    commit = commit_id()
    contract.OUT_DIR.mkdir(exist_ok=True)
    for seed in args.seeds:
        runs = []
        for workload in (w["name"] for w in spec["workloads"]):
            for _ in range(args.repeat):
                runs.append(run_once(spec, workload, seed, args.seconds))
                print(f"{workload} seed={seed}: "
                      f"wall_qps={runs[-1]['metrics']['wall_qps']:.1f}",
                      flush=True)
            if args.traced:
                runs.append(run_once(spec, workload, seed, args.seconds, 1))
        path = contract.OUT_DIR / f"result-{commit}-{seed}.json"
        with open(path, "w") as handle:
            json.dump({"commit": commit, "seed": seed,
                       "seconds": args.seconds, "runs": runs}, handle, indent=1)
        print(f"wrote {path.relative_to(contract.ROOT)}")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
