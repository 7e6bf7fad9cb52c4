"""Tests for the ablation experiments and an exact-optimality check.

The optimality check holds ``repro.reference.exact_cover`` to a
brute-force minimal set cover on small instances, then compares the
one-pass selector and the reference greedy baseline against it —
quantifying how close the paper's heuristics are to the NP-hard optimum
they approximate.
"""

from itertools import combinations

import pytest

from repro import PageLayout, reference
from repro.experiments import (
    ablations,
    clear_caches,
    get_split_trace,
    layout_for,
)
from repro.placement import ForwardIndex, InvertIndex, build_indexes
from repro.serving.selection import OnePassSelector
from tests.test_fast_selection import covered_keys

SMALL = dict(scale="small", seed=3)


@pytest.fixture(scope="module", autouse=True)
def _fresh_caches():
    clear_caches()
    yield
    clear_caches()


class TestAblationExperiments:
    def test_scoring_connectivity_wins(self):
        result = ablations.run_scoring(**SMALL)
        by_name = {row[0]: row[1] for row in result.rows}
        assert by_name["connectivity"] >= by_name["hotness"] * 0.98

    def test_home_exclusion_helps(self):
        result = ablations.run_home_cluster_exclusion(**SMALL)
        by_name = {row[0]: row[1] for row in result.rows}
        assert by_name["True"] >= by_name["False"] * 0.98

    def test_selector_cost_gap(self):
        # The selector ablation runs in benchmarks/bench_selector.py; the
        # same comparison, reference greedy vs one-pass, at small scale.
        layout = layout_for("criteo", "maxembed", 0.4, **SMALL)
        forward, invert = build_indexes(layout)
        _, live = get_split_trace("criteo", **SMALL)
        pages = {}
        candidates = {}
        for name, selector in (
            ("greedy", reference.GreedySetCoverSelector(forward, invert)),
            ("onepass", OnePassSelector(forward, invert)),
        ):
            pages[name] = candidates[name] = 0
            for query in list(live)[:400]:
                outcome = selector.select(query.unique_keys())
                pages[name] += outcome.num_steps
                candidates[name] += outcome.total_candidates
        assert candidates["onepass"] < candidates["greedy"]
        assert pages["onepass"] <= pages["greedy"] * 1.2

    def test_partitioner_refinement_ladder(self):
        result = ablations.run_partitioner_refinement(**SMALL)
        by_name = {row[0]: row[1] for row in result.rows}
        assert by_name["shp_full"] > by_name["random"]


def minimal_cover_size(pages, keys):
    """Brute-force smallest number of pages covering ``keys``."""
    wanted = set(keys)
    candidate_ids = [
        i for i, page in enumerate(pages) if wanted & set(page)
    ]
    for size in range(1, len(candidate_ids) + 1):
        for combo in combinations(candidate_ids, size):
            covered = set()
            for page_id in combo:
                covered.update(pages[page_id])
            if wanted <= covered:
                return size
    raise AssertionError("keys cannot be covered at all")


class TestNearOptimality:
    """Exact cover vs brute force, and both selectors vs exact cover, on
    enumerable instances."""

    @pytest.fixture
    def replicated(self):
        pages = [
            (0, 1, 2, 3),
            (4, 5, 6, 7),
            (8, 9, 10, 11),
            (0, 4, 8),
            (1, 5, 9),
            (2, 6, 10),
        ]
        layout = PageLayout(12, 4, pages, num_base_pages=3)
        return layout, pages

    @pytest.mark.parametrize(
        "keys",
        [
            (0, 4, 8),          # one replica page is optimal
            (0, 1, 4, 5),       # two pages needed
            (0, 1, 2, 3),       # home page alone
            (3, 7, 11),         # unreplicated keys: three pages
            (0, 5, 10),         # mixed
            (1, 9, 2, 6),
        ],
    )
    def test_selectors_within_one_of_optimal(self, replicated, keys):
        layout, pages = replicated
        forward = ForwardIndex.from_layout(layout)
        invert = InvertIndex.from_layout(layout)
        exact = reference.exact_cover((forward, invert), keys)
        assert exact.optimal
        assert len(exact.pages) == minimal_cover_size(pages, keys)
        assert set().union(*(pages[p] for p in exact.pages)) >= set(keys)
        optimal = len(exact.pages)
        for selector in (
            reference.GreedySetCoverSelector(forward, invert),
            OnePassSelector(forward, invert),
        ):
            outcome = selector.select(list(keys))
            assert len(outcome.steps) <= optimal + 1
            assert covered_keys(outcome) >= set(keys)

    def test_onepass_finds_exact_optimum_on_replica_hit(self, replicated):
        layout, pages = replicated
        forward = ForwardIndex.from_layout(layout)
        invert = InvertIndex.from_layout(layout)
        outcome = OnePassSelector(forward, invert).select([0, 4, 8])
        assert outcome.pages == [3]
