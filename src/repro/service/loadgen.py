"""Closed-loop async load generator for the HTTP gateway.

The open-loop simulator (:mod:`repro.serving.openloop`) measures the
*engine* under a scheduled arrival process in simulated time; this
module measures the *whole gateway* under real concurrency in wall time:
``concurrency`` asyncio clients each loop issue-request → wait-response
→ think — the classic closed-loop driver whose offered load self-limits
at ``concurrency / (latency + think_time)``.

Two client transports share one report shape:

* :class:`HttpLoadGenerator` — real sockets against a listening
  :class:`~repro.service.HttpGateway` (the CLI's ``loadgen`` mode and
  the CI smoke job);
* :class:`CoreLoadGenerator` — direct ``await gateway.submit(...)``
  against a :class:`~repro.service.GatewayCore`, skipping the socket
  layer (benches use it so HTTP parsing never pollutes a coalescing or
  backpressure measurement).

The :class:`LoadReport` mirrors the fields of
:meth:`~repro.serving.ServingReport.as_dict` where the concepts match
(offered / shed / goodput / latency quantiles; its ``completed`` and
``achieved_qps`` are the report's ``queries`` and ``throughput_qps``),
so gateway measurements line up column-for-column with simulator
results.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..errors import ServingError
from ..types import Query


def _percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile without numpy (loadgen is stdlib-only)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(pct / 100.0 * len(ordered))))
    return ordered[rank]


@dataclass
class LoadReport:
    """What a load-generation run observed, client-side.

    Latencies are wall microseconds from just before the request was
    issued to response fully received; ``statuses`` histograms HTTP
    status codes (the core transport maps outcomes onto the same codes).
    """

    offered: int = 0
    completed: int = 0
    shed: Dict[str, int] = field(default_factory=dict)
    errors: int = 0
    wall_s: float = 0.0
    latencies_us: List[float] = field(default_factory=list)
    statuses: Dict[int, int] = field(default_factory=dict)
    degraded: int = 0
    missing_keys: int = 0

    @property
    def shed_total(self) -> int:
        """Requests rejected by the gateway (all reasons)."""
        return sum(self.shed.values())

    def achieved_qps(self) -> float:
        """Completed requests per wall second."""
        return self.completed / self.wall_s if self.wall_s > 0 else 0.0

    def goodput_qps(self, latency_slo_us: "float | None" = None) -> float:
        """Full-coverage, on-SLO completions per wall second.

        Same semantics as the simulator's goodput: a completion counts
        only when no requested key went unserved and (when an SLO is
        given) it finished inside the latency budget.
        """
        if self.wall_s <= 0:
            return 0.0
        if latency_slo_us is None:
            good = self.completed - self.degraded
        else:
            good = sum(
                1
                for lat, miss in zip(self.latencies_us, self._miss_flags)
                if not miss and lat <= latency_slo_us
            )
        return good / self.wall_s

    # Per-completion coverage flags back goodput's SLO filter; kept
    # parallel to ``latencies_us`` by the recording path.
    _miss_flags: List[bool] = field(default_factory=list)

    def record(
        self, status: int, latency_us: float, payload: Dict[str, object]
    ) -> None:
        """Fold one response into the counters."""
        self.statuses[status] = self.statuses.get(status, 0) + 1
        if status == 200:
            self.completed += 1
            self.latencies_us.append(latency_us)
            missing = int(payload.get("missing", 0) or 0)
            degraded = missing > 0 or int(
                payload.get("degrade_level", 0) or 0
            ) > 0
            self._miss_flags.append(degraded)
            if degraded:
                self.degraded += 1
            self.missing_keys += missing
        elif status in (429, 503):
            reason = str(payload.get("reason", "unknown"))
            self.shed[reason] = self.shed.get(reason, 0) + 1
        else:
            self.errors += 1

    def as_dict(
        self, latency_slo_us: "float | None" = None
    ) -> Dict[str, object]:
        """Headline metrics, field-aligned with the simulator reports."""
        return {
            "offered": self.offered,
            "completed": self.completed,
            "achieved_qps": round(self.achieved_qps(), 1),
            "goodput_qps": round(self.goodput_qps(latency_slo_us), 1),
            "mean_latency_us": round(
                sum(self.latencies_us) / len(self.latencies_us), 3
            )
            if self.latencies_us
            else 0.0,
            "p50_latency_us": round(_percentile(self.latencies_us, 50.0), 3),
            "p99_latency_us": round(_percentile(self.latencies_us, 99.0), 3),
            "completion_rate": round(self.completed / self.offered, 4)
            if self.offered
            else 0.0,
            "shed": dict(self.shed),
            "shed_total": self.shed_total,
            "errors": self.errors,
            "degraded_completions": self.degraded,
            "missing_keys": self.missing_keys,
            "wall_s": round(self.wall_s, 3),
            "statuses": {str(k): v for k, v in sorted(self.statuses.items())},
        }


class _BaseLoadGenerator:
    """Shared closed-loop driver; subclasses provide the transport.

    Args:
        queries: request stream, dealt round-robin to clients.
        concurrency: number of closed-loop clients.
        think_time_s: wall-clock pause between a client's response and
            its next request (0 = back-to-back, the saturating driver).
        duration_s: wall-clock measurement window; the stream wraps
            around if it is shorter than the window.
        tenant: tenant field stamped on every request.
        max_requests: optional hard cap on requests issued (whichever of
            duration/cap trips first ends the run).
    """

    def __init__(
        self,
        queries: Sequence[Query],
        concurrency: int = 8,
        think_time_s: float = 0.0,
        duration_s: float = 2.0,
        tenant: str = "default",
        max_requests: Optional[int] = None,
    ) -> None:
        if not queries:
            raise ServingError("load generation needs a non-empty stream")
        if concurrency < 1:
            raise ServingError(
                f"concurrency must be >= 1, got {concurrency}"
            )
        if think_time_s < 0:
            raise ServingError(
                f"think_time_s must be >= 0, got {think_time_s}"
            )
        if duration_s <= 0:
            raise ServingError(
                f"duration_s must be positive, got {duration_s}"
            )
        if max_requests is not None and max_requests < 1:
            raise ServingError(
                f"max_requests must be >= 1, got {max_requests}"
            )
        self.queries = list(queries)
        self.concurrency = concurrency
        self.think_time_s = think_time_s
        self.duration_s = duration_s
        self.tenant = tenant
        self.max_requests = max_requests
        self._cursor = 0

    def _next_query(self) -> Query:
        query = self.queries[self._cursor % len(self.queries)]
        self._cursor += 1
        return query

    async def _issue(self, query: Query) -> "tuple[int, dict]":
        """Transport hook: returns (status, response payload)."""
        raise NotImplementedError

    async def _client(
        self, report: LoadReport, deadline: float, budget: List[int]
    ) -> None:
        while time.monotonic() < deadline:
            if budget[0] <= 0:
                return
            budget[0] -= 1
            query = self._next_query()
            report.offered += 1
            t0 = time.monotonic()
            try:
                status, payload = await self._issue(query)
            except (ConnectionError, asyncio.IncompleteReadError, OSError):
                report.errors += 1
                return
            report.record(status, (time.monotonic() - t0) * 1e6, payload)
            if self.think_time_s > 0:
                await asyncio.sleep(self.think_time_s)

    async def run(self) -> LoadReport:
        """Drive the closed loop and return the client-side report."""
        report = LoadReport()
        start = time.monotonic()
        deadline = start + self.duration_s
        budget = [
            self.max_requests
            if self.max_requests is not None
            else 1 << 62
        ]
        await asyncio.gather(
            *(
                self._client(report, deadline, budget)
                for _ in range(self.concurrency)
            )
        )
        report.wall_s = time.monotonic() - start
        return report


class CoreLoadGenerator(_BaseLoadGenerator):
    """Closed loop straight into a started :class:`GatewayCore`."""

    def __init__(self, gateway, queries: Sequence[Query], **kwargs) -> None:
        super().__init__(queries, **kwargs)
        self.gateway = gateway

    async def _issue(self, query: Query) -> "tuple[int, dict]":
        outcome = await self.gateway.submit(query.keys, self.tenant)
        return outcome.http_status(), outcome.payload()


class HttpLoadGenerator(_BaseLoadGenerator):
    """Closed loop over real HTTP/1.1 keep-alive connections.

    Each client owns one persistent connection (opened lazily, reopened
    on failure), mirroring a production client pool.
    """

    def __init__(
        self, host: str, port: int, queries: Sequence[Query], **kwargs
    ) -> None:
        super().__init__(queries, **kwargs)
        self.host = host
        self.port = port

    async def _client(
        self, report: LoadReport, deadline: float, budget: List[int]
    ) -> None:
        reader = writer = None
        try:
            while time.monotonic() < deadline:
                if budget[0] <= 0:
                    return
                budget[0] -= 1
                query = self._next_query()
                report.offered += 1
                t0 = time.monotonic()
                try:
                    if writer is None:
                        reader, writer = await asyncio.open_connection(
                            self.host, self.port
                        )
                    status, payload = await self._request(
                        reader, writer, query
                    )
                except (
                    ConnectionError,
                    asyncio.IncompleteReadError,
                    OSError,
                ):
                    report.errors += 1
                    return
                report.record(
                    status, (time.monotonic() - t0) * 1e6, payload
                )
                if self.think_time_s > 0:
                    await asyncio.sleep(self.think_time_s)
        finally:
            if writer is not None:
                writer.close()

    async def _request(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        query: Query,
    ) -> "tuple[int, dict]":
        body = json.dumps(
            {"keys": list(query.keys), "tenant": self.tenant}
        ).encode()
        writer.write(
            (
                "POST /query HTTP/1.1\r\n"
                f"Host: {self.host}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                "\r\n"
            ).encode()
            + body
        )
        await writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        status_line = head.split(b"\r\n", 1)[0].decode("latin-1")
        status = int(status_line.split(" ")[1])
        length = 0
        for line in head.decode("latin-1").split("\r\n")[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        raw = await reader.readexactly(length) if length else b""
        try:
            payload = json.loads(raw) if raw else {}
        except json.JSONDecodeError:
            payload = {}
        if not isinstance(payload, dict):
            payload = {}
        return status, payload
