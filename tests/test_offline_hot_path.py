"""Call budget of the offline build (ROADMAP 2(b), offline third).

One ``build_offline_layout`` — hypergraph, SHP, selective replication,
page layout — on a fixed 600-key trace under ``sys.setprofile``; Python
+ C calls stay under a committed ceiling.  Beside
``tests/test_engine_hot_path.py`` and ``tests/test_service_hot_path.py``
this is the count that names a slower build without a benchmark run.
"""

from __future__ import annotations

import gc
import random
import sys

from repro import MaxEmbedConfig, Query, QueryTrace
from repro.core import build_offline_layout

NUM_KEYS = 600
QUERIES = 500
COMMUNITY = 12

#: Python + C calls of one build: 26 987 measured on CPython 3.11 (it
#: repeats to the digit), plus 15 %.  A ceiling, not an equality — the
#: C-call mix differs across the CI matrix.  Lower it when the build gets
#: shorter: with three dedupes per query, a Python range check per pin,
#: a slice assignment per edge and unmerged KL fragments the same build
#: made 31 460.  (``max(..., key=gain.__getitem__)`` is one counted C
#: call per candidate where the old scan loop was none, so this count
#: understates the KL half of the saving.)
CEILING = 31_000


def fixed_trace() -> QueryTrace:
    """500 queries over 600 keys: six keys of one 12-key community and
    two from anywhere, drawn from Python's own (version-stable) Mersenne
    twister, every tenth query a repeat so edge weights exceed one."""
    rng = random.Random(23)
    queries = []
    for index in range(QUERIES):
        if index % 10 == 9:
            queries.append(queries[rng.randrange(len(queries))])
            continue
        base = rng.randrange(NUM_KEYS // COMMUNITY) * COMMUNITY
        keys = rng.sample(range(base, base + COMMUNITY), 6)
        keys += rng.sample(range(NUM_KEYS), 2)
        queries.append(Query(tuple(keys)))
    return QueryTrace(NUM_KEYS, queries)


def build_calls(trace: QueryTrace, config: MaxEmbedConfig) -> int:
    calls = 0

    def hook(frame, event, arg) -> None:
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    # Garbage other tests left behind must not run its finalizers here:
    # they are counted calls (an extra 4 in one suite run).
    gc.collect()
    gc.disable()
    sys.setprofile(hook)
    try:
        layout = build_offline_layout(trace, config)
    finally:
        sys.setprofile(None)
        gc.enable()
    assert layout.num_keys == NUM_KEYS
    assert layout.num_replica_pages > 0
    return calls


def test_offline_build_stays_under_its_call_ceiling():
    trace = fixed_trace()
    config = MaxEmbedConfig(offline_workers=1)
    build_offline_layout(trace, config)  # imports and lazy state
    calls = build_calls(trace, config)
    assert calls == build_calls(trace, config)  # a count, not a timing
    assert calls <= CEILING, f"{calls} calls per build > {CEILING}"
