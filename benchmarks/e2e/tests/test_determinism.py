"""Same seed ⇒ same simulated metrics and counts; seeds differ by little."""

import pytest

from e2ebench import layers, measure
from e2ebench.deploy import WORKLOADS

SIMULATED = ("sim_qps", "sim_p99_us", "pages_per_query", "effective_bw_frac")
EXACT_LAYER = (
    "host.calls_per_query",
    "placement.pages",
    "placement.replica_pages",
    "placement.index_entries",
    "tiering.hit_frac",
    "cache.hit_frac",
    "cache.evictions_per_query",
    "selection.candidates_per_query",
    "selection.valid_per_page",
    "ssd.commands_per_query",
    "ssd.busy_frac",
    "ssd.queue_wait_us",
    "sim.sort_us",
    "sim.select_us",
    "sim.read_us",
    "cluster.fragments_per_query",
    "cluster.straggler_us",
    "cluster.imbalance",
    "replicas.failovers",
    "replicas.hedges",
)


def untraced(name, seed, cpu):
    return measure.run_untraced(WORKLOADS[name], seed, 0.3, cpu, quick=True)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_same_simulated_metrics(name, cpu):
    first, second = untraced(name, 5, cpu), untraced(name, 5, cpu)
    assert first["failed"] == second["failed"] == 0
    for metric in SIMULATED:
        assert first["metrics"][metric] == second["metrics"][metric], metric


def test_seeds_move_simulated_metrics_by_sampling_noise_only(cpu):
    a, b = untraced("engine-ssd", 0, cpu), untraced("engine-ssd", 1, cpu)
    for metric in SIMULATED:
        x, y = a["metrics"][metric], b["metrics"][metric]
        assert x != y, "the seed must reach the inputs"
        assert abs(x - y) / x < 0.02, metric


@pytest.mark.parametrize("name", ["engine-ssd", "cluster-4x2"])
def test_same_seed_same_counts(name, cpu):
    runs = [
        layers.run_traced(WORKLOADS[name], 5, 0.3, cpu, quick=True)
        for _ in range(2)
    ]
    assert runs[0]["failed"] == runs[1]["failed"] == 0
    for metric in EXACT_LAYER:
        assert runs[0]["metrics"][metric] == runs[1]["metrics"][metric], metric
    assert runs[0]["metrics"]["replicas.failovers"] == 0
    assert runs[0]["metrics"]["replicas.hedges"] == 0
