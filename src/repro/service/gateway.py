"""The serving gateway core: admission → coalescing → engine, async.

:class:`GatewayCore` is the transport-independent heart of the live
front-end (:mod:`repro.service.http` wraps it in HTTP/1.1).  It takes
concurrent requests — ``offer(keys, tenant, reply)``, synchronous, whose
``reply(outcome)`` is called exactly once, or its awaitable form
``await submit(keys, tenant)`` — and runs each through the pipeline the
docs diagram as *gateway → admission → coalescer → engine*:

1. **quota** — the tenant's token bucket is charged; an over-quota
   request is shed immediately (``quota``, HTTP 429) before it can
   displace other tenants' admitted work;
2. **admission** — the request enters the *existing*
   :class:`~repro.overload.AdmissionQueue` (there is deliberately no
   separate HTTP-level limiter): a full queue sheds per the configured
   policy, and queue deadlines turn stale waiters into deadline misses;
3. **coalescing** — a flush drains the waiting room into batches.
   Same-tenant neighbours merge: their deduplicated key union is served
   as *one* engine query, so overlapping keys share page reads (the
   batched-selection fast path the engine already has).  Batches never
   mix tenants — a tenant's quota boundary is also its blast radius.
   The flush policy is classic max-batch/max-wait, with an idle bypass:
   when nothing is in flight a batch flushes immediately, so coalescing
   adds no latency to an unloaded gateway;
4. **brownout** — every completion feeds the *existing*
   :class:`~repro.overload.BrownoutController`; when it steps the
   ladder up, subsequent batches are served at the degraded rung (and
   are then served member-by-member, because degraded shedding must be
   attributed to individual requests).

One record per request: ``offer`` checks the keys (the only check they
get), makes the request's :class:`ServeOutcome`, and that object is what
the admission queue holds, what the flush fills in from the engine's
result and what ``reply`` receives — no queue entry, pending record or
per-batch result object beside it.

One thread, one flush per loop tick: everything runs on the event loop's
thread — no dispatcher task, no serve thread.  ``offer`` queues its
outcome and schedules :meth:`GatewayCore._flush` once per tick
(``loop.call_soon``, de-duplicated by a flag), so one tick's arrivals
meet the admission policy and then flush together; the flush calls the
engine inline and — unpaced — records the batch and calls each member's
``reply`` before returning, so the HTTP front end writes its replies
from inside the flush.  ``coalescer.max_wait_us`` is one
``loop.call_later`` handle on the same flush; a paced batch's completion
calls it directly.  Dispatching straight from ``offer`` was measured and
rejected: each flush then finds one request, the mean batch halves to
1.0, the engine runs twice as often and ``gateway-single`` is slower
(7 905–8 291 against 8 541–8 749 wall qps; docs/architecture.md).  Declared
consequence: an engine call blocks the loop for its ≈ 50–100 µs, so an
unpaced batch is never "in flight" while the loop runs —
``max_concurrent_batches``, queue ageing, deadline misses and
``in_flight_batches > 0`` arise only under ``pace_service``.

Time: arrivals and queue waits are wall-clock microseconds from the
gateway's monotonic clock; service time is the engine's simulated
microseconds.  Both feed one latency signal, so the brownout controller
sees real queueing plus modeled service — and with ``pace_service`` set
the gateway additionally *sleeps* each batch's simulated service time
(in the batch's own task, the only one the gateway creates), making the
wall-clock throughput ceiling track the device model.

Accounting invariant (the tests and ``/metrics`` pin it): every offered
request is exactly one of *completed*, *shed* (quota / admission policy
/ drain), or *deadline-missed*.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from time import monotonic
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..errors import ConfigError, ServingError
from ..overload import (
    AdmissionQueue,
    BrownoutController,
    default_ladder,
    engine_hotness,
)
from ..serving.stats import QueryResult, ServingReport
from ..types import DistinctQuery, EmbeddingSpec, distinct_keys
from .config import ServiceConfig
from .quota import TokenBucket

#: Shed reasons the gateway adds on top of the admission policies.
SHED_QUOTA = "quota"
SHED_DRAIN = "drain"


class WallClock:
    """Monotonic wall clock in microseconds since construction."""

    def __init__(self) -> None:
        self._t0 = monotonic()

    def now_us(self) -> float:
        """Microseconds elapsed since the clock was created."""
        return (monotonic() - self._t0) * 1e6


@dataclass(init=False)
class ServeOutcome:
    """One request's record, from :meth:`GatewayCore.offer` to its reply.

    The admission queue holds it while it waits (it carries the
    ``arrival_us`` and ``priority`` an
    :class:`~repro.overload.AdmissionQueue` reads), the flush fills in
    what the engine did, and ``reply`` receives it.  ``status`` is ``ok``
    (served), ``shed`` (rejected by quota, an admission policy, or drain
    — ``shed_reason`` names which), or ``miss`` (admitted but dropped at
    dispatch because its queue wait blew the deadline); ``queued`` until
    then, which is what keeps a request from being answered twice.
    """

    status: str = "queued"
    tenant: str
    keys: Tuple[int, ...]
    arrival_us: float
    served: int = 0
    missing: int = 0
    degrade_level: int = 0
    start_us: float = 0.0
    finish_us: float = 0.0
    shed_reason: Optional[str] = None
    coalesced: int = 1
    batch_pages_read: int = 0
    #: Admission priority (read by the ``priority`` shed policy only).
    priority: float = field(default=0.0, repr=False, compare=False)
    #: Called with this outcome once it leaves ``queued``.
    reply: Optional[Callable[["ServeOutcome"], None]] = field(
        default=None, repr=False, compare=False
    )

    def __init__(
        self,
        tenant: str,
        keys: Tuple[int, ...],
        arrival_us: float,
        reply: Optional[Callable[["ServeOutcome"], None]],
    ) -> None:
        # Every other field keeps its class default until resolution.
        self.tenant = tenant
        self.keys = keys
        self.arrival_us = arrival_us
        self.reply = reply

    @property
    def ok(self) -> bool:
        """True when the request was served (possibly degraded)."""
        return self.status == "ok"

    @property
    def latency_us(self) -> float:
        """Arrival-to-completion latency (0 for rejected requests)."""
        if not self.ok:
            return 0.0
        return self.finish_us - self.arrival_us

    def http_status(self) -> int:
        """The HTTP status this outcome maps to."""
        if self.ok:
            return 200
        if self.shed_reason == SHED_QUOTA:
            return 429
        return 503

    def payload(self) -> Dict[str, object]:
        """JSON-ready response body for this outcome."""
        body: Dict[str, object] = {
            "status": self.status,
            "tenant": self.tenant,
            "keys": list(self.keys),
            "served": self.served,
            "missing": self.missing,
            "degrade_level": self.degrade_level,
        }
        if self.ok:
            body["latency_us"] = round(self.latency_us, 3)
            body["coalesced"] = self.coalesced
            body["batch_pages_read"] = self.batch_pages_read
        else:
            body["reason"] = self.shed_reason
        return body


class GatewayCore:
    """Async request front-end over one serving or cluster engine.

    Args:
        engine: a :class:`~repro.serving.ServingEngine` or
            :class:`~repro.cluster.ClusterEngine` (anything with
            ``serve_query(query, start_us, degrade)`` and a ``config``);
            a :class:`~repro.core.deploy.LayoutManager` also qualifies —
            mount one when the refresh daemon should hot-swap layouts
            under the gateway.
        config: service knobs; defaults to coalescing on, no admission
            bound, no brownout.
        clock: microsecond clock (tests inject deterministic ones).
        refresh: optional :class:`~repro.refresh.RefreshDaemon` mounted
            on this gateway's engine.  The gateway feeds every served
            query into the daemon's drift window, starts/stops its
            thread with its own lifecycle, pauses repairs while
            draining (a swap must never race shutdown), and surfaces
            ``daemon.status()`` under ``/metrics`` and ``/refresh``.
    """

    def __init__(
        self,
        engine,
        config: "ServiceConfig | None" = None,
        clock: "WallClock | None" = None,
        refresh=None,
    ) -> None:
        self.engine = engine
        self.refresh = refresh
        self.config = config or ServiceConfig()
        self.clock = clock or WallClock()
        self.ladder = self.config.ladder or default_ladder()
        self.queue = AdmissionQueue(self.config.admission)
        self.controller: Optional[BrownoutController] = (
            BrownoutController(
                self.config.brownout, max_level=self.ladder.max_level
            )
            if self.config.brownout is not None
            else None
        )
        self._hotness = (
            engine_hotness(engine)
            if (
                self.config.admission is not None
                and self.config.admission.policy == "priority"
            )
            else None
        )
        self._buckets: Dict[str, TokenBucket] = {
            t.name: TokenBucket(t.rate_qps, t.burst)
            for t in self.config.tenants
            if t.rate_qps is not None
        }
        # Per-query fault/deadline/breaker losses can only be attributed
        # to individual requests, so those engines skip key-union merging
        # (coalescing still batches the flush; members serve one by one).
        engine_cfg = getattr(engine, "config", None)
        self._exact_per_query = engine_cfg is not None and (
            getattr(engine_cfg, "fault_plan", None) is not None
            or getattr(engine_cfg, "breaker", None) is not None
            or getattr(engine_cfg, "shard_deadline_us", None) is not None
            or getattr(engine_cfg, "shard_fault_plan", None) is not None
        )
        # Engine work runs inline on the loop's thread: the simulated
        # device is shared mutable state and serve_trace's model is
        # simulated workers over one real thread — the gateway keeps that
        # contract, overlapping batches only in (paced) completion.
        coalescer = self.config.coalescer
        self._batch_limit = coalescer.max_batch if coalescer.enabled else 1
        admission = self.config.admission
        self._deadline_us = (
            admission.queue_deadline_us if admission is not None else None
        )
        # Two reports accumulate at completion, never a record per
        # request: one per request (what was offered, shed and missed
        # too), one per engine call (what the device did).
        spec = getattr(engine_cfg, "spec", None) or EmbeddingSpec()
        self._requests = ServingReport(spec.page_size, spec.embedding_bytes)
        self._engine_calls = ServingReport(
            spec.page_size, spec.embedding_bytes
        )
        self._batches = 0
        self._batch_errors: List[str] = []
        self._batch_errors_total = 0
        self._last_batch_error = ""
        self._merged_batches = 0
        self._coalesced_queries = 0
        self._duplicate_keys_merged = 0
        self._unattributed_missing = 0
        self._in_flight = 0
        self._batch_tasks: set = set()
        self._draining = False
        self._stopped = False
        self._engine_close_calls = 0
        self._started_at_us = 0.0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._flush_scheduled = False
        self._max_wait_timer: Optional[asyncio.TimerHandle] = None

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        """Bind to the running loop and open for requests (idempotent)."""
        if self._loop is not None:
            return
        self._loop = asyncio.get_running_loop()
        self._started_at_us = self.clock.now_us()
        if self.refresh is not None:
            self.refresh.resume()
            self.refresh.start()

    async def stop(self) -> None:
        """Graceful drain: finish in-flight work, shed the waiting room.

        In-flight coalesced batches run to completion (bounded by
        ``drain_timeout_s``); entries still waiting for dispatch are
        shed with reason ``drain`` — every one of them resolves, so the
        offered == completed + shed + missed invariant survives
        shutdown.  The engine is closed exactly once, no matter how many
        times ``stop`` is called.
        """
        if self._stopped:
            return
        self._draining = True
        if self.refresh is not None:
            # Repairs pause before the drain begins: a hot swap must
            # never race in-flight batches that are being run down.
            self.refresh.pause()
            self.refresh.stop()
        self._cancel_max_wait()
        for outcome in self.queue.drain():
            self._shed(outcome, SHED_DRAIN)
        if self._batch_tasks:
            await asyncio.wait(
                set(self._batch_tasks), timeout=self.config.drain_timeout_s
            )
        self._stopped = True
        self._close_engine_once()

    async def __aenter__(self) -> "GatewayCore":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    def _close_engine_once(self) -> None:
        """Invoke the engine's (idempotent) close exactly once."""
        if self._engine_close_calls:
            return
        self._engine_close_calls = 1
        close = getattr(self.engine, "close", None)
        if callable(close):
            close()

    @property
    def draining(self) -> bool:
        """True once graceful shutdown has begun."""
        return self._draining

    # -- request path ----------------------------------------------------------

    async def submit(
        self, keys: Iterable[int], tenant: str = "default"
    ) -> ServeOutcome:
        """Run one request through quota → admission → coalescer → engine.

        The awaitable form of :meth:`offer`.  Raises
        :class:`~repro.errors.ConfigError` for malformed keys — malformed
        requests are not *offered* and do not enter the accounting.
        """
        future: "asyncio.Future[ServeOutcome]" = (
            asyncio.get_running_loop().create_future()
        )

        def resolve(outcome: ServeOutcome) -> None:
            if not future.done():  # the awaiting task may be cancelled
                future.set_result(outcome)

        self.offer(keys, tenant, resolve)
        outcome = await future
        outcome.reply = None  # no cycle outcome -> resolve -> future
        return outcome

    def offer(
        self,
        keys: Iterable[int],
        tenant: str,
        reply: Callable[[ServeOutcome], None],
    ) -> None:
        """Offer one request; ``reply(outcome)`` is called exactly once.

        Synchronous: a request shed on arrival (drain, quota, admission)
        is answered before ``offer`` returns; an admitted one is answered
        from the loop tick's flush, once its batch is served.  Raises
        :class:`~repro.errors.ConfigError` for an empty key list or a
        negative key (the HTTP layer maps that to 400) before anything is
        counted.  The keys are checked here and nowhere after.
        """
        loop = self._loop
        if loop is None:
            raise ServingError("gateway not started; call start() first")
        keys = tuple(keys)
        if not keys:
            raise ConfigError("a query must contain at least one key")
        if min(keys) < 0:
            raise ConfigError("keys must be non-negative integers")
        now = self.clock.now_us()
        self._requests.offered += 1
        outcome = ServeOutcome(tenant, keys, now, reply)
        if self._draining:
            self._shed(outcome, SHED_DRAIN)
            return
        if self._buckets:
            bucket = self._buckets.get(tenant)
            if bucket is not None and not bucket.try_take(now):
                self._shed(outcome, SHED_QUOTA)
                return
        if self._hotness is not None:
            # Tenant priority breaks ties between tenants; query hotness
            # (mean replica count) orders requests within one.
            outcome.priority = self.config.tenant(
                tenant
            ).priority + self._hotness(keys)
        for victim, reason in self.queue.offer(outcome, now):
            self._shed(victim, reason)
        if not self._flush_scheduled:
            # One flush per loop tick: every arrival of this tick is in
            # the queue (and has met the admission policy) when it runs.
            self._flush_scheduled = True
            loop.call_soon(self._flush)

    def _shed(
        self, outcome: ServeOutcome, reason: str, status: str = "shed"
    ) -> None:
        """Answer a request as shed (or, ``miss``, deadline-missed) —
        unless it has been answered already."""
        if outcome.status != "queued":
            return
        if status == "miss":
            self._requests.deadline_misses += 1
        else:
            shed = self._requests.shed
            shed[reason] = shed.get(reason, 0) + 1
        outcome.status = status
        outcome.shed_reason = reason
        outcome.reply(outcome)

    # -- dispatcher ------------------------------------------------------------

    def _cancel_max_wait(self) -> None:
        if self._max_wait_timer is not None:
            self._max_wait_timer.cancel()
            self._max_wait_timer = None

    def _flush(self) -> None:
        """Drain the admission queue into coalesced batches, synchronously.

        A batch is the run of the head's tenant, up to ``max_batch``.
        Runs once per loop tick that saw an ``offer``, when the
        ``max_wait_us`` timer fires and when a paced batch completes.
        """
        self._flush_scheduled = False
        if self._max_wait_timer is not None:
            self._cancel_max_wait()
        coalescer = self.config.coalescer
        slots = self.config.max_concurrent_batches
        limit = self._batch_limit
        queue = self.queue
        deadline = self._deadline_us
        while self._in_flight < slots:
            head = queue.peek()
            if head is None:
                break
            now = self.clock.now_us()
            if deadline is not None:
                for missed in queue.expire(now):
                    self._shed(missed, "deadline-miss", status="miss")
                head = queue.peek()
                if head is None:
                    break
            if not (
                # Idle bypass: with nothing in flight, waiting to
                # coalesce would only manufacture latency.
                self._in_flight == 0
                or not coalescer.enabled
                or len(queue) >= coalescer.max_batch
                or now - head.arrival_us >= coalescer.max_wait_us
            ):
                wait_us = head.arrival_us + coalescer.max_wait_us - now
                self._max_wait_timer = self._loop.call_later(
                    wait_us * 1e-6, self._flush
                )
                break
            batch, skipped = queue.take_run(now, limit)
            for missed in skipped:
                self._shed(missed, "deadline-miss", status="miss")
            self._dispatch(batch, now)

    # -- batch execution -------------------------------------------------------

    def _shed_error(self, batch: List[ServeOutcome], exc: Exception) -> None:
        """Answer ``batch`` as shed("error") and keep ``exc`` for /metrics.

        A request must never wedge its submitter: an engine error becomes
        a 503 instead of a hung connection, and the accounting invariant
        (offered == completed + shed + missed) holds.  The error is kept
        rather than re-raised — nothing awaits a flush.
        """
        for outcome in batch:
            self._shed(outcome, "error")
        self._batch_errors_total += 1
        self._last_batch_error = f"{type(exc).__name__}: {exc}"
        if len(self._batch_errors) < 16:
            self._batch_errors.append(self._last_batch_error)

    def _serve_merged(
        self, batch: List[ServeOutcome], start_us: float
    ) -> Tuple[List[QueryResult], int]:
        """One engine query over the batch's deduplicated key union ->
        (engine results, duplicate keys merged away).

        Overlapping keys across the batch's members are read once — the
        shared-page-read path.  Only used when per-request loss
        attribution cannot arise (no degradation, faults, breakers, or
        shard deadlines), so members' own keys are all served whenever
        the union's are; a union-level loss is surfaced as
        ``unattributed_missing`` rather than silently dropped.
        """
        union: Dict[int, None] = {}
        requested = 0
        for outcome in batch:
            keys = dict.fromkeys(outcome.keys)
            outcome.served = served = len(keys)
            requested += served
            union.update(keys)
        # Distinct (a dict's keys) and non-negative (``offer`` checked).
        result = self.engine.serve_query(
            DistinctQuery(tuple(union)), start_us
        )
        finish_us = result.finish_us
        level = result.degrade_level
        for outcome in batch:
            outcome.finish_us = finish_us
            outcome.degrade_level = level
        return [result], requested - len(union)

    def _serve_each(
        self, batch: List[ServeOutcome], start_us: float, degrade
    ) -> Tuple[List[ServeOutcome], List[QueryResult]]:
        """Serve batch members individually (exact per-request results)
        -> (members served, engine results).

        Used when a degradation rung is active or the engine can lose
        keys (faults / breakers / shard deadlines): shed and missing
        keys must land on the request that owns them — and so must an
        engine error, which sheds the member that raised it and nobody
        else.  Members share the batch's dispatch time, mirroring
        ``serve_trace``'s simulated worker model.
        """
        members: List[ServeOutcome] = []
        results: List[QueryResult] = []
        for outcome in batch:
            # Deduplicated once here; ``offer`` checked the keys.
            query = DistinctQuery(distinct_keys(outcome.keys))
            try:
                result = self.engine.serve_query(query, start_us, degrade)
            except Exception as exc:
                outcome.served = 0  # a failed merged attempt counted it
                self._shed_error([outcome], exc)
                continue
            missing = result.missing_keys
            outcome.served = len(query.keys) - missing
            outcome.missing = missing
            outcome.finish_us = result.finish_us
            outcome.degrade_level = result.degrade_level
            members.append(outcome)
            results.append(result)
        return members, results

    def _dispatch(self, batch: List[ServeOutcome], start_us: float) -> None:
        """Serve ``batch`` on this thread; complete it now or after pacing."""
        size = len(batch)
        degrade = None
        if self.controller is not None and self.controller.level > 0:
            degrade = self.ladder.level(self.controller.level)
        duplicates = None
        if degrade is None and not self._exact_per_query and size > 1:
            try:
                results, duplicates = self._serve_merged(batch, start_us)
                self._merged_batches += 1
            except Exception:
                # One member's keys broke the union; serving each member
                # alone lands the error on its owner.
                pass
        if duplicates is None:
            batch, results = self._serve_each(batch, start_us, degrade)
            if not batch:
                return  # every member raised and is already shed
        if self.config.pace_service:
            self._in_flight += 1
            task = self._loop.create_task(
                self._complete_paced(batch, results, duplicates, start_us, size)
            )
            self._batch_tasks.add(task)
            task.add_done_callback(self._batch_tasks.discard)
            return
        try:
            self._record_batch(batch, results, duplicates, start_us, size)
        except Exception as exc:
            self._shed_error(batch, exc)

    async def _complete_paced(
        self,
        batch: List[ServeOutcome],
        results: List[QueryResult],
        duplicates: Optional[int],
        start_us: float,
        size: int,
    ) -> None:
        """Sleep the batch's simulated service time, then complete it."""
        try:
            finish_us = max(outcome.finish_us for outcome in batch)
            await asyncio.sleep(
                (finish_us - start_us) * self.config.time_scale * 1e-6
            )
            try:
                self._record_batch(
                    batch, results, duplicates, start_us, size
                )
            except Exception as exc:
                self._shed_error(batch, exc)
        finally:
            self._in_flight -= 1
        self._flush()

    def _record_batch(
        self,
        batch: List[ServeOutcome],
        results: List[QueryResult],
        duplicates: Optional[int],
        start_us: float,
        size: int,
    ) -> None:
        """Account one served batch and reply to each of its members.

        ``duplicates`` is None when the members were served one by one
        (one engine result each), else the keys the merged union saved.
        A failure here sheds the members not yet answered (the callers'
        ``_shed_error``).
        """
        self._batches += 1
        self._coalesced_queries += size
        if duplicates is not None:
            self._duplicate_keys_merged += duplicates
            self._unattributed_missing += results[0].missing_keys
        add_call = self._engine_calls.add
        pages_read = 0
        for result in results:
            add_call(result, result.start_us)
            pages_read += result.pages_read
        if self.refresh is not None:
            # Completed requests are the drift evidence: the daemon's
            # window sees exactly what the engine actually served.
            self.refresh.observe_many(o.keys for o in batch)
        controller = self.controller
        if controller is not None:
            depth = self.queue.depth
        add_request = self._requests.add_request
        for outcome in batch:
            arrival_us = outcome.arrival_us
            finish_us = outcome.finish_us
            missing = outcome.missing
            if controller is not None:
                controller.observe(finish_us - arrival_us, depth, start_us)
            add_request(
                arrival_us,
                start_us,
                finish_us,
                outcome.served + missing,
                missing,
                outcome.degrade_level,
            )
            outcome.status = "ok"
            outcome.start_us = start_us
            outcome.coalesced = size
            outcome.batch_pages_read = pages_read
            outcome.reply(outcome)

    # -- introspection ---------------------------------------------------------

    @property
    def brownout_level(self) -> int:
        """Current degradation rung (0 = full service)."""
        return self.controller.level if self.controller is not None else 0

    def open_loop_report(self) -> ServingReport:
        """The live per-request report, the simulator's report type.

        The same :class:`~repro.serving.ServingReport` an open-loop
        simulation returns, so ``/metrics`` output reconciles
        field-by-field with offline simulator runs (offered == completed
        + shed + misses).  The offered rate and the brownout record are
        brought up to date on each call.
        """
        report = self._requests
        span = report.makespan_us
        report.offered_qps = (
            report.offered / (span * 1e-6) if span > 0 else 0.0
        )
        if self.controller is not None:
            report.brownout_transitions = list(self.controller.transitions)
        report.final_degrade_level = self.brownout_level
        return report

    def health(self) -> Dict[str, object]:
        """Liveness summary for ``/health``."""
        return {
            "status": "draining" if self._draining else "ok",
            "uptime_s": round(
                (self.clock.now_us() - self._started_at_us) * 1e-6, 3
            )
            if self._loop is not None
            else 0.0,
            "queue_depth": self.queue.depth,
            "in_flight_batches": self._in_flight,
            "brownout_level": self.brownout_level,
            "shards": getattr(self.engine, "num_shards", 1),
        }

    def metrics(self) -> Dict[str, object]:
        """Full counter dump for ``/metrics``.

        ``service`` holds the gateway's own accounting (the invariant
        fields), ``open_loop`` the request-level report, ``serving`` the
        engine-level trace report (tier/cache hit counters included),
        ``tier`` the pinned-DRAM-tier configuration when one is active,
        ``refresh`` the mounted refresh daemon's state and counters
        (when one is mounted), ``cluster`` per-shard device
        counters when serving a sharded engine, and ``replicas``
        replica-group health states and failover/hedge counters when
        replica groups are active.
        """
        requests = self._requests
        completed = requests.num_queries
        shed_total = requests.shed_count
        batches = self._batches
        data: Dict[str, object] = {
            "service": {
                "offered": requests.offered,
                "completed": completed,
                "shed": dict(requests.shed),
                "shed_total": shed_total,
                "deadline_misses": requests.deadline_misses,
                "accounted": completed + shed_total + requests.deadline_misses,
                "queue_depth": self.queue.depth,
                "in_flight_batches": self._in_flight,
                "draining": self._draining,
                "batch_errors": list(self._batch_errors),
                "batch_errors_total": self._batch_errors_total,
                "last_batch_error": self._last_batch_error,
                "brownout_level": self.brownout_level,
                "tenant_tokens": {
                    name: round(bucket.tokens, 3)
                    for name, bucket in sorted(self._buckets.items())
                },
                "coalescer": {
                    "batches": batches,
                    "merged_batches": self._merged_batches,
                    "coalesced_queries": self._coalesced_queries,
                    "duplicate_keys_merged": self._duplicate_keys_merged,
                    "mean_batch_size": round(
                        self._coalesced_queries / batches, 3
                    )
                    if batches
                    else 0.0,
                    "unattributed_missing": self._unattributed_missing,
                },
            },
            "open_loop": self.open_loop_report().as_dict(),
        }
        if self._engine_calls.num_queries:
            data["serving"] = self._engine_calls.as_dict()
        tier_info = getattr(self.engine, "tier_info", None)
        if callable(tier_info):
            info = tier_info()
            if info is not None:
                data["tier"] = info
        if self.refresh is not None:
            data["refresh"] = self.refresh.status()
        shard_stats = getattr(self.engine, "shard_device_stats", None)
        if callable(shard_stats):
            stats = shard_stats()
            data["cluster"] = {
                "num_shards": self.engine.num_shards,
                "shard_reads": [
                    getattr(s, "reads", 0) for s in stats
                ],
                "shard_bytes_read": [
                    getattr(s, "bytes_read", 0) for s in stats
                ],
            }
        replica_info = getattr(self.engine, "replica_info", None)
        if callable(replica_info):
            info = replica_info()
            if info is not None:
                data["replicas"] = info
        return data
