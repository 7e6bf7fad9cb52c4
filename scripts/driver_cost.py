"""Host cost of the simulation driver alone, in microseconds per query.

Records one closed-loop pass of an ``engine-dram``-shaped engine (criteo
at bench scale, hybrid tier 0.4 + cache 0.4, the contract's 1 600
queries), then replays the recorded results from a stub engine that does
no work, in 200-query segments.  What is timed is the driver's loop and
its report, not the engine.  Two rows:

* ``closed``: ``ServingEngine.serve_trace`` (a closed loop; runs on any
  commit, so it compares a change with its parent);
* ``queued``: the same queries with every arrival at 0, so each one goes
  through the admission queue (needs ``repro.serving.simulate``).

Each row prints the best and the median of ``--rounds`` rounds.  Pin it
to one CPU and run nothing else meanwhile::

    PYTHONPATH=src taskset -c 1 python scripts/driver_cost.py --rounds 40
"""

from __future__ import annotations

import argparse
import statistics
import time

from repro import MaxEmbedConfig, MaxEmbedStore, ServingEngine, make_trace

QUERIES = 1600
SEGMENT = 200


class Replay:
    """A stub engine returning recorded results in order."""

    def __init__(self, config, results) -> None:
        self.config = config
        self._next = iter(results).__next__

    def serve_query(self, query, start_us=0.0, degrade=None):
        return self._next()


def record():
    trace, _ = make_trace("criteo", scale="bench", seed=0)
    history, live = trace.split(0.5)
    store = MaxEmbedStore.build(
        history,
        MaxEmbedConfig(
            build_workers=0,
            offline_workers=1,
            tier_mode="hybrid",
            tier_ratio=0.4,
            cache_ratio=0.4,
        ),
    )
    engine = store.engine
    queries = list(live.queries[:QUERIES])
    results = []
    serve = engine.serve_query

    def recording(*args, **kwargs):
        results.append(serve(*args, **kwargs))
        return results[-1]

    engine.serve_query = recording
    engine.serve_trace(queries)
    return engine.config, queries, results


def per_query_us(run, config, queries, results) -> float:
    elapsed = 0.0
    for at in range(0, len(queries), SEGMENT):
        stub = Replay(config, results[at : at + SEGMENT])
        segment = queries[at : at + SEGMENT]
        start = time.perf_counter()
        run(stub, segment)
        elapsed += time.perf_counter() - start
    return elapsed / len(queries) * 1e6


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rounds", type=int, default=40)
    args = parser.parse_args()
    config, queries, results = record()
    rows = {"closed": ServingEngine.serve_trace}
    try:
        from repro.serving import simulate
    except ImportError:
        pass
    else:
        rows["queued"] = lambda stub, segment: simulate(
            stub, segment, [0.0] * len(segment)
        )
    for name, run in rows.items():
        times = [
            per_query_us(run, config, queries, results)
            for _ in range(args.rounds)
        ]
        print(
            f"{name:7s} best {min(times):.3f} us/query, "
            f"median {statistics.median(times):.3f} us/query"
        )


if __name__ == "__main__":
    main()
