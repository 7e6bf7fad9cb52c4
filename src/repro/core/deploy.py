"""Layout deployment: versioned offline results, swapped under live traffic.

The drift experiment shows MaxEmbed placements go stale; production
systems therefore re-run the offline phase periodically and swap the new
placement in.  :class:`LayoutManager` models that operational loop:

* each offline result is registered as a numbered **version**;
* ``swap`` atomically replaces the serving engine (the DRAM indexes are
  rebuilt from the new layout; the cache can be kept — keys are stable —
  or dropped to model a cold restart).  The displaced engine is closed,
  never the active one, so version churn cannot accumulate live engines;
  a swap whose ``after_install`` hook fails reinstalls the displaced
  engine itself, as the cluster's ``swap_shards`` does;
* a **retention policy** bounds registry memory: only the last
  ``retain`` registrations plus the active version keep their layouts
  (pruning never drops the active version, and version numbers are
  monotonic across pruning);
* ``staleness_probe`` measures the active placement against a recent
  traffic window so operators can trigger rebuilds on evidence instead
  of on a timer.  Scores are cached per (version, window fingerprint),
  so a daemon probing the same window repeatedly does no repeat work;
* ``swap_events`` records every activation (from, to, cache fate), and
  every rolled-back attempt, for the refresh daemon's audit trail.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import ServingError
from ..metrics import evaluate_placement
from ..placement import PageLayout
from ..serving import EngineConfig, ServingEngine
from ..types import Query, QueryTrace

#: Default registrations kept besides the active version.
DEFAULT_RETAIN = 4

#: Probe-score cache entries kept before the oldest window is evicted.
_PROBE_CACHE_LIMIT = 512


def window_fingerprint(
    window: "QueryTrace | List[Query]", max_queries: Optional[int] = None
) -> int:
    """Cheap, order-sensitive CRC32 fingerprint of a traffic window.

    Two windows with the same fingerprint are (for probe-caching
    purposes) the same window: the fingerprint folds in every query's
    key tuple, in order, up to ``max_queries`` — exactly the prefix a
    probe evaluates.
    """
    crc = 0
    for index, query in enumerate(window):
        if max_queries is not None and index >= max_queries:
            break
        crc = zlib.crc32(repr(query.keys).encode(), crc)
    return crc


@dataclass(frozen=True)
class LayoutVersion:
    """One registered offline result."""

    version: int
    layout: PageLayout
    label: str = ""


class LayoutManager:
    """Versioned layouts with atomic engine swaps and staleness probing."""

    def __init__(
        self,
        layout: PageLayout,
        config: "EngineConfig | None" = None,
        retain: int = DEFAULT_RETAIN,
    ) -> None:
        if retain < 1:
            raise ServingError(f"retain must be >= 1, got {retain}")
        self._config = config or EngineConfig()
        self._retain = retain
        self._versions: Dict[int, LayoutVersion] = {}
        self._order: List[int] = []
        self._next_version = 0
        self._active: Optional[int] = None
        self._engine: Optional[ServingEngine] = None
        self._probe_cache: Dict[Tuple[int, int, Optional[int]], float] = {}
        self.swap_events: List[dict] = []
        first = self.register(layout, label="initial")
        self.swap(first.version)

    # -- registry --------------------------------------------------------------

    def register(self, layout: PageLayout, label: str = "") -> LayoutVersion:
        """Add a new offline result; returns its version record."""
        if self._versions:
            any_record = next(iter(self._versions.values()))
            if layout.num_keys != any_record.layout.num_keys:
                raise ServingError(
                    "all layout versions must cover the same key space"
                )
        version = LayoutVersion(self._next_version, layout, label)
        self._next_version += 1
        self._versions[version.version] = version
        self._order.append(version.version)
        self._prune()
        return version

    def _prune(self) -> None:
        """Enforce retention: last ``retain`` registrations + active."""
        keep = set(self._order[-self._retain:])
        if self._active is not None:
            keep.add(self._active)
        for number in list(self._versions):
            if number not in keep:
                del self._versions[number]
                self._order.remove(number)
                self._probe_cache = {
                    key: score
                    for key, score in self._probe_cache.items()
                    if key[0] != number
                }

    def versions(self) -> List[LayoutVersion]:
        """Retained versions in registration order (pruned ones gone)."""
        return [self._versions[number] for number in self._order]

    @property
    def active_version(self) -> int:
        """Currently serving version number."""
        if self._active is None:
            raise ServingError("no layout has been activated")
        return self._active

    @property
    def engine(self) -> ServingEngine:
        """The live serving engine."""
        if self._engine is None:
            raise ServingError("no layout has been activated")
        return self._engine

    @property
    def config(self) -> EngineConfig:
        """The engine configuration every version serves under."""
        return self._config

    # -- engine facade ---------------------------------------------------------

    @property
    def forward(self):
        """Active engine's forward index (hotness scoring duck-typing)."""
        return self.engine.forward

    def serve_query(self, query, start_us: float = 0.0, degrade=None):
        """Serve through the active engine (safe across concurrent swaps).

        The engine reference is read once, so a swap that lands mid-call
        lets this query finish on the engine it started on — displaced
        engines are closed but still serve in-flight work correctly,
        which is what makes hot swaps drop zero queries.
        """
        engine = self.engine
        if degrade is None:
            return engine.serve_query(query, start_us)
        return engine.serve_query(query, start_us, degrade)

    def close(self) -> None:
        """Close the active engine (idempotent; mounted-gateway teardown)."""
        if self._engine is not None:
            self._engine.close()

    # -- swap ---------------------------------------------------------------------

    def swap(
        self,
        version: int,
        keep_cache: bool = True,
        after_install: "Optional[Callable[[int], None]]" = None,
    ) -> ServingEngine:
        """Activate a registered version.

        Args:
            version: version number from :meth:`register`.
            keep_cache: carry the warm DRAM cache across the swap.  Keys
                are placement-independent, so a kept cache stays valid; a
                dropped cache models a cold restart.
            after_install: called with ``version`` once the replacement
                serves, as :meth:`ClusterEngine.swap_shards
                <repro.cluster.ClusterEngine.swap_shards>` calls it per
                shard.  If it raises, the displaced engine object is
                reinstalled — its cache and tier plan untouched — the
                abandoned replacement is closed, the attempt is recorded
                as rolled back, and the error propagates.

        The replacement engine is fully built before the one-reference
        activation, so a failed build leaves the previous version
        serving.  Once the swap commits the displaced engine is closed
        (idempotently) — never the newly active one.
        """
        record = self._versions.get(version)
        if record is None:
            raise ServingError(f"unknown layout version {version}")
        old_engine = self._engine
        old_cache = old_engine.cache if old_engine is not None else None
        replacement = ServingEngine(record.layout, self._config)
        if keep_cache and old_cache is not None:
            replacement.cache = old_cache
        self._engine = replacement
        previous, self._active = self._active, version
        event = {
            "from": previous,
            "to": version,
            "label": record.label,
            "keep_cache": keep_cache,
        }
        if after_install is not None:
            try:
                after_install(version)
            except Exception as exc:
                self._engine, self._active = old_engine, previous
                replacement.close()
                self.swap_events.append(
                    {**event, "rolled_back": True, "error": repr(exc)}
                )
                raise
        if old_engine is not None:
            old_engine.close()
        self.swap_events.append(event)
        self._prune()
        return replacement

    # -- staleness ------------------------------------------------------------------

    def staleness_probe(
        self,
        window: QueryTrace,
        max_queries: Optional[int] = 500,
    ) -> Dict[str, float]:
        """Evaluate every *retained* version against a traffic window.

        Returns ``{label_or_version: effective_bandwidth}`` plus the
        active version's share of the best — a value well below 1.0 says
        a registered (presumably rebuilt) placement would serve the
        current traffic better.  Pruned versions are skipped (their
        layouts are gone).  Per-version scores are cached against a
        CRC32 fingerprint of the window prefix the probe evaluates, so a
        refresh daemon probing the same window repeatedly pays for each
        (version, window) pair exactly once.
        """
        if self._active is None:
            raise ServingError("no layout has been activated")
        fingerprint = window_fingerprint(window, max_queries)
        scores: Dict[str, float] = {}
        best = 0.0
        active_score = 0.0
        for record in self.versions():
            name = record.label or f"v{record.version}"
            cache_key = (record.version, fingerprint, max_queries)
            score = self._probe_cache.get(cache_key)
            if score is None:
                score = evaluate_placement(
                    record.layout,
                    window,
                    max_queries=max_queries,
                    embedding_bytes=self._config.spec.embedding_bytes,
                    page_size=self._config.spec.page_size,
                ).effective_fraction()
                if len(self._probe_cache) >= _PROBE_CACHE_LIMIT:
                    self._probe_cache.clear()
                self._probe_cache[cache_key] = score
            scores[name] = score
            best = max(best, score)
            if record.version == self._active:
                active_score = score
        scores["active_share_of_best"] = (
            active_score / best if best > 0 else 1.0
        )
        return scores
