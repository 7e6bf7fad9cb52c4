"""Spans recorded from the benchmark's side of each layer boundary.

A span is the list ``[name, start_ns, end_ns, parent, request, attrs]``.
While recording, ``parent`` is the parent span *object* (threads append
concurrently, so positions are not known yet); :meth:`Tracer.rows`
replaces it by the parent's position in the returned list.

Self time is a partition of the wall clock, not a per-span subtraction:
at every instant the deepest open span owns the time, so overlapping
children (scatter threads, concurrent requests) are counted once and the
layers' self times plus the uncovered remainder add up to the interval.
"""

from __future__ import annotations

import heapq
import threading
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Sequence

NAME, START, END, PARENT, REQUEST, ATTRS = range(6)


class Tracer:
    """In-memory span recorder with per-thread parent stacks."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.request = 0
        self._local = threading.local()
        # Worker threads start with an empty stack; whatever the thread
        # that owns the tracer has open is what caused their work.
        self._home = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, new_request: bool = False) -> list:
        """Start a span on this thread; pair with :meth:`close`."""
        stack = self._stack()
        if new_request:
            self.request += 1
        if stack:
            parent = stack[-1]
        else:
            parent = self._home[-1] if self._home else None
        span = [name, 0, 0, parent, self.request, None]
        self.spans.append(span)
        stack.append(span)
        span[START] = perf_counter_ns()
        return span

    def close(self, span: list) -> None:
        span[END] = perf_counter_ns()
        self._stack().pop()  # spans close in LIFO order on a thread

    def wrap(
        self,
        fn: Callable,
        name: str,
        new_request: bool = False,
        keep_result: bool = False,
    ) -> Callable:
        """A timing proxy for the synchronous callable ``fn``.

        Same bookkeeping as :meth:`open` / :meth:`close`, inlined: the
        proxy's own cost lands in the layers it measures.
        """
        local, home, clock = self._local, self._home, perf_counter_ns
        record = self.spans.append

        def proxy(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            if new_request:
                self.request += 1
            if stack:
                parent = stack[-1]
            else:
                parent = home[-1] if home else None
            span = [name, 0, 0, parent, self.request, None]
            record(span)
            stack.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if keep_result:
                span[ATTRS] = result
            return result

        return proxy

    def wrap_async(self, fn: Callable, name: str) -> Callable:
        """A timing proxy for a coroutine function.

        Coroutines interleave on one thread, so no stack applies: the
        span keeps ``(args, result)`` and the caller links it to its
        request afterwards.
        """

        async def proxy(*args, **kwargs):
            span = [name, perf_counter_ns(), 0, None, 0, None]
            self.spans.append(span)
            try:
                result = await fn(*args, **kwargs)
            finally:
                span[END] = perf_counter_ns()
            span[ATTRS] = (args, result)
            return result

        return proxy

    def take(self) -> List[list]:
        """Hand over the recorded spans and empty the recorder."""
        spans = self.spans[:]
        del self.spans[:]  # in place: the proxies hold its ``append``
        return spans

    @staticmethod
    def rows(spans: Sequence[list], describe=None) -> List[list]:
        """JSON-ready copies: parents as positions, attrs described."""
        position = {id(span): i for i, span in enumerate(spans)}
        rows = []
        for span in spans:
            parent = span[PARENT]
            attrs = span[ATTRS]
            rows.append(
                [
                    span[NAME],
                    span[START],
                    span[END],
                    position.get(id(parent), -1) if parent is not None else -1,
                    span[REQUEST],
                    describe(attrs) if describe and attrs is not None else None,
                ]
            )
        return rows


def _depths(spans: Sequence[list]) -> Dict[int, int]:
    depth: Dict[int, int] = {}
    for span in spans:
        chain = []
        node: Optional[list] = span
        while node is not None and id(node) not in depth:
            chain.append(node)
            node = node[PARENT]
        base = depth[id(node)] if node is not None else -1
        for hop, member in enumerate(reversed(chain), start=1):
            depth[id(member)] = base + hop
    return depth


def self_times(spans: Sequence[list], lo: int, hi: int) -> Dict[str, int]:
    """Nanoseconds of ``[lo, hi)`` owned by each span name.

    The deepest open span owns each instant (ties: the one opened last).
    The key ``""`` holds the time no span covers.
    """
    depth = _depths(spans)
    events = []
    for index, span in enumerate(spans):
        start, end = max(span[START], lo), min(span[END], hi)
        if start < end:
            events.append((start, 1, index))
            events.append((end, 0, index))
    events.sort()  # at equal stamps closes (0) come before opens (1)
    owned: Dict[str, int] = {"": 0}
    open_heap: list = []
    closed = set()
    cursor = lo
    for stamp, opening, index in events:
        while open_heap and open_heap[0][2] in closed:
            heapq.heappop(open_heap)
        if stamp > cursor:
            name = spans[open_heap[0][2]][NAME] if open_heap else ""
            owned[name] = owned.get(name, 0) + stamp - cursor
            cursor = stamp
        if opening:
            span = spans[index]
            heapq.heappush(
                open_heap, (-depth[id(span)], -span[START], index)
            )
        else:
            closed.add(index)
    owned[""] += hi - cursor
    return owned
