"""Path set-up and shared fixtures for the benchmark's own tests.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e/tests -q``; the
repository's tier-1 run (``testpaths = tests``) does not collect these.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parents[1]
for entry in (str(BENCH_DIR), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)


@pytest.fixture(scope="session")
def spec():
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


@pytest.fixture(scope="session")
def cpu():
    return max(os.sched_getaffinity(0))


def run_benchmark(*args):
    """Run ``run.py`` as the driver does; returns the completed process."""
    return subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.fixture(scope="session")
def quick_outputs():
    """Result lines of one quick run per --trace setting (all workloads)."""
    outputs = {}
    for trace in ("0", "1"):
        done = run_benchmark("--quick", "--trace", trace, "--seed", "3")
        assert done.returncode == 0, done.stderr
        outputs[trace] = done.stdout
    return outputs
