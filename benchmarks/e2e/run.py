#!/usr/bin/env python3
"""Run one workload of the end-to-end benchmark (see README.md).

    python3 benchmarks/e2e/run.py --workload engine-ssd --seed 0 \
        --seconds 30 --trace 0

prints every metric by name with its unit and ends with one JSON line.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parents[1] / "src"))

from e2ebench import host  # noqa: E402  (imports nothing heavy)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one of the names in BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smoke mode: every workload, small rounds, no bounds enforced",
    )
    args = parser.parse_args(argv)
    if not args.quick and args.workload is None:
        parser.error("--workload is required (or use --quick)")
    return args


def run_one(name: str, args, cpu: int, spec: dict) -> int:
    """Measure and print one workload; returns its failed operations."""
    # Imported late: the process is already pinned when numpy loads.
    from e2ebench import measure, spec as contract
    from e2ebench.deploy import WORKLOADS

    workload = WORKLOADS[name]
    if args.trace:
        from e2ebench import layers

        outcome = layers.run_traced(
            workload, args.seed, args.seconds, cpu, args.quick
        )
    else:
        outcome = measure.run_untraced(
            workload, args.seed, args.seconds, cpu, args.quick
        )
    table = contract.metric_table(spec, bool(args.trace))
    print(f"# {name} seed={args.seed} trace={args.trace} cpu={cpu}")
    for metric, value in outcome["metrics"].items():
        print(f"{metric:32s} {value:>16.6f} {table[metric]['unit']}")
    for key, value in outcome["diagnostics"].items():
        print(f"  {key:30s} {value}")
    # The contract's result line closes the block, so it is the last
    # thing on stdout whichever workload ran last.
    print(
        contract.result_line(
            spec,
            bool(args.trace),
            outcome["metrics"],
            outcome["attempted"],
            outcome["failed"],
        )
    )
    return outcome["failed"]


def main(argv=None) -> int:
    args = parse_args(argv)
    cpu = host.pin_to_last_cpu()
    from e2ebench import spec as contract

    spec = contract.load()
    names = [w["name"] for w in spec["workloads"]]
    if args.quick:
        args.seconds = min(args.seconds, 2.0)
        selected = [args.workload] if args.workload else names
    else:
        selected = [args.workload]
    unknown = [name for name in selected if name not in names]
    if unknown:
        print(f"unknown workload {unknown[0]!r}; choose from {names}",
              file=sys.stderr)
        return 2
    failed = sum(run_one(name, args, cpu, spec) for name in selected)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
