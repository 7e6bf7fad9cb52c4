"""Call budget of the gateway's request path (ROADMAP 2(b), gateway third).

Wall-clock claims on this sandbox need ten alternating benchmark pairs;
the interpreter call count needs none.  Two hundred fixed requests go
through ``GatewayCore.submit`` the way ``gateway-single`` delivers them —
two per loop tick, so every flush merges a pair — against an engine stub,
so the count is the gateway's and asyncio's own and an engine change
cannot move it.
"""

from __future__ import annotations

import asyncio
import sys
import threading

from repro import EngineConfig, PageLayout, Query, ServingEngine
from repro.service import GatewayCore, ServiceConfig

REQUESTS = 200

#: Python + C calls per request: 145.5 measured on CPython 3.11 (it
#: repeats to the digit), plus 15 %.  A ceiling, not an equality —
#: asyncio's internals (``gather`` included) differ across the CI matrix.
#: Lower it when the path gets shorter: with the pump task and the serve
#: thread the same loop made 264.5, not counting the thread's own.
CALLS_PER_REQUEST_CEILING = 167


class CannedEngine:
    """Answers every query with one pre-computed engine result."""

    def __init__(self) -> None:
        layout = PageLayout(
            num_keys=8,
            capacity=4,
            pages=[(0, 1, 2, 3), (4, 5, 6, 7), (0, 4, 1, 5)],
        )
        engine = ServingEngine(layout, EngineConfig(cache_ratio=0.0))
        self.config = engine.config
        self.result = engine.serve_query(Query((0, 1, 4)), 0.0)
        self.calls = 0

    def serve_query(self, query, start_us=0.0, degrade=None):
        self.calls += 1
        return self.result


def test_submit_call_budget_and_no_thread(monkeypatch):
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(
        threading.Thread,
        "start",
        lambda thread: (started.append(thread.name), start(thread))[1],
    )
    engine = CannedEngine()
    keys = [[0, 1, 4, 5] * 5, [2, 3, 6, 7] * 5]
    calls = 0

    def hook(frame, event, arg) -> None:
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    async def scenario():
        nonlocal calls
        async with GatewayCore(engine, ServiceConfig()) as core:
            for _ in range(10):  # warm-up: lazy imports, first-use caches
                await asyncio.gather(*(core.submit(k) for k in keys))
            sys.setprofile(hook)
            try:
                for _ in range(REQUESTS // 2):
                    await asyncio.gather(*(core.submit(k) for k in keys))
            finally:
                sys.setprofile(None)
            debug = asyncio.get_running_loop().get_debug()
            return core.metrics()["service"], debug

    service, debug = asyncio.run(scenario())
    assert service["completed"] == service["offered"] == REQUESTS + 20
    assert service["coalescer"]["mean_batch_size"] == 2.0
    assert engine.calls == (REQUESTS + 20) // 2
    assert started == [], "the request path must not start a thread"
    if not debug:  # asyncio's debug mode (``-X dev``) traces every handle
        assert calls / REQUESTS <= CALLS_PER_REQUEST_CEILING, calls / REQUESTS
