"""Page selection ablation (paper §6 / §6.1): one-pass vs greedy vs exact.

The paper replaces greedy set cover — each step scans every page that
holds an uncovered key — with one-pass selection, which examines only
each key's own candidate pages.  This bench replays the first live
criteo queries (no cache, full index, r = 0.4) through three selectors
on one layout and reports pages read and candidate pages examined:

* ``greedy`` — the §6 baseline, :class:`repro.reference.GreedySetCoverSelector`;
* ``onepass`` — the serving selector, :class:`repro.serving.OnePassSelector`;
* ``exact`` — the minimum page count, :func:`repro.reference.exact_cover`
  (branch and bound; a query that hits the node cap counts its best
  cover found, and the notes say how many did).

``pct_over_exact`` is each selector's page excess over the optimum.
Greedy and the exact cover are oracles in :mod:`repro.reference`, which
the library does not import, so this comparison lives here rather than
among the experiments.  Writes ``benchmarks/results/ablation-selector.txt``.
"""

from conftest import publish

from repro import reference
from repro.experiments.common import get_split_trace
from repro.experiments.report import ExperimentResult
from repro.hypergraph import build_weighted_hypergraph
from repro.partition import ShpConfig, ShpPartitioner
from repro.placement import build_indexes
from repro.replication import ConnectivityPriorityStrategy
from repro.serving import OnePassSelector


def run_selector_ablation(
    dataset: str = "criteo",
    ratio: float = 0.4,
    scale: str = "bench",
    seed: int = 0,
    capacity: int = 16,
    max_queries: int = 400,
) -> ExperimentResult:
    """Pages and candidate examinations of greedy, one-pass and exact."""
    history, live = get_split_trace(dataset, scale, seed)
    strategy = ConnectivityPriorityStrategy(
        ShpPartitioner(ShpConfig(seed=seed))
    )
    layout = strategy.build_layout(
        build_weighted_hypergraph(history), capacity, ratio
    )
    forward, invert = build_indexes(layout)
    queries = [query.unique_keys() for query in list(live)[:max_queries]]
    covers = [reference.exact_cover((forward, invert), keys) for keys in queries]
    exact_pages = sum(len(cover.pages) for cover in covers)
    unsolved = sum(not cover.optimal for cover in covers)
    result = ExperimentResult(
        exp_id="ablation-selector",
        title=f"Page selection ablation ({dataset}, r={ratio})",
        headers=[
            "selector",
            "pages_read",
            "candidates_examined",
            "pct_over_exact",
        ],
        notes=(
            "one-pass reads nearly the same page count as greedy set "
            "cover while examining far fewer candidates (paper §6.1); "
            f"exact: {unsolved} of {len(queries)} queries hit the node cap"
        ),
    )
    for name, selector in (
        ("greedy", reference.GreedySetCoverSelector(forward, invert)),
        ("onepass", OnePassSelector(forward, invert)),
    ):
        pages = candidates = 0
        for keys in queries:
            outcome = selector.select(keys)
            pages += outcome.num_steps
            candidates += outcome.total_candidates
        excess = round(100.0 * (pages - exact_pages) / exact_pages, 2)
        result.rows.append([name, pages, candidates, excess])
    result.rows.append(["exact", exact_pages, "-", 0.0])
    return result


def test_ablation_selector(benchmark, scale):
    result = benchmark.pedantic(
        run_selector_ablation,
        kwargs=dict(scale=scale),
        rounds=1,
        iterations=1,
    )
    publish(result)
    by_name = {row[0]: row for row in result.rows}
    greedy_pages, greedy_cost = by_name["greedy"][1:3]
    onepass_pages, onepass_cost = by_name["onepass"][1:3]
    exact_pages = by_name["exact"][1]
    # Near-identical page counts, far lower examination cost.
    assert onepass_pages <= greedy_pages * 1.15
    assert onepass_cost < greedy_cost / 2
    # No selector beats the optimum.
    assert exact_pages <= min(onepass_pages, greedy_pages)
