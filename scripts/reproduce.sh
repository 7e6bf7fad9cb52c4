#!/usr/bin/env bash
# Reproduce everything: tests, the full figure/table benchmark suite, and
# the rendered result tables.
#
# Usage:
#   scripts/reproduce.sh            # full bench scale (~5 min benches)
#   REPRO_BENCH_SCALE=small scripts/reproduce.sh   # fast smoke (~30 s)
#
# Outputs:
#   test_output.txt          — full pytest run
#   bench_output.txt         — benchmark run (one bench per paper artifact)
#   benchmarks/results/*.txt — the regenerated tables/figures as text

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== installing (editable) =="
pip install -e . --no-build-isolation -q || python setup.py develop

echo "== unit / integration / property tests =="
python -m pytest tests/ 2>&1 | tee test_output.txt

echo "== regenerating every paper table and figure =="
python -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

echo "== contract benches (no pytest-benchmark fixture, skipped above) =="
# These carry their own pass/fail contracts and publish JSON results:
# selection/offline speed-up over the repro.reference oracle, degraded
# serving under faults, overload goodput, and the live service gateway
# vs the open-loop simulator.
python -m pytest -q -s \
    benchmarks/bench_selection.py \
    benchmarks/bench_offline.py \
    benchmarks/bench_faults.py \
    benchmarks/bench_overload.py \
    benchmarks/bench_service.py \
    2>&1 | tee bench_contract_output.txt

echo "== done; rendered artifacts: =="
ls benchmarks/results/
