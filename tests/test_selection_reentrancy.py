"""One selector shared by concurrent threads.

The gateway — and any application that shares an engine — hands one
engine's selector to whichever thread holds the query (the cluster's
own gather is single-threaded).  The page-mask selector keeps no
per-query state on the instance, so every thread must get the
``repro.reference`` oracle's outcome however the interpreter interleaves
them; a selector with per-query scratch state on the instance loses
updates under this schedule.
"""

import random
import sys
import threading

import pytest

from repro import PageLayout, reference
from repro.placement import build_indexes
from repro.serving import OnePassSelector
from tests.test_fast_selection import assert_same_outcome

THREADS = 4
ROUNDS = 6
JOIN_TIMEOUT_S = 60.0


def make_case(seed=7, num_keys=96, capacity=8, replica_pages=40):
    """A layout with real fan-out and queries wide enough to interleave."""
    rnd = random.Random(seed)
    pages = [
        tuple(range(start, min(start + capacity, num_keys)))
        for start in range(0, num_keys, capacity)
    ]
    num_base = len(pages)
    for _ in range(replica_pages):
        pages.append(tuple(rnd.sample(range(num_keys), capacity)))
    layout = PageLayout(num_keys, capacity, pages, num_base_pages=num_base)
    queries = [
        rnd.sample(range(num_keys), rnd.randint(8, 40)) for _ in range(60)
    ]
    return layout, queries


# The ids are the ones this test has always reported under (the
# production classes were ``Fast*`` when it was written).
@pytest.mark.parametrize(
    "fast_cls, ref_cls",
    [
        pytest.param(
            OnePassSelector,
            reference.OnePassSelector,
            id="FastOnePassSelector-OnePassSelector",
        ),
    ],
)
@pytest.mark.parametrize("limit", [None, 2])
def test_shared_selector_is_reentrant(fast_cls, ref_cls, limit):
    layout, queries = make_case()
    forward, invert = build_indexes(layout, limit=limit)
    fast = fast_cls(forward, invert)
    oracle = ref_cls(forward, invert)
    expected = [oracle.select(keys) for keys in queries]
    failures = []
    start = threading.Barrier(THREADS)

    def worker(offset):
        try:
            start.wait(timeout=JOIN_TIMEOUT_S)
            for _ in range(ROUNDS):
                # Each thread walks the queries from its own offset so
                # different queries are in flight at the same moment.
                for i in range(len(queries)):
                    at = (i + offset) % len(queries)
                    assert_same_outcome(fast.select(queries[at]), expected[at])
        except Exception as exc:  # reported by the main thread
            failures.append(exc)

    threads = [
        threading.Thread(target=worker, args=(t * 15,)) for t in range(THREADS)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(JOIN_TIMEOUT_S)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures[0]
