"""Crash-safe artifact staging and the shadow-score swap gate.

A rebuilt layout never goes straight from builder memory into the
serving engine.  It is **staged**: written to disk as a CRC-enveloped
deployment bundle (:mod:`repro.bundle`), read back, and only the
round-tripped, checksum-validated copy is eligible to swap.  A torn or
bit-flipped staging write (the chaos suite injects exactly that) fails
the CRC at load time and the repair is retried — a corrupt layout
cannot reach the engine.

The **shadow-score gate** then replays the probe window against the
staged candidate and the active layout offline (no live traffic
touched): the candidate must beat the active layout's effective
bandwidth by the configured margin, or the swap is rejected — a rebuild
from a noisy window can never make serving *worse*.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass
from typing import Optional

from ..bundle import Bundle, load_bundle, save_bundle
from ..core import MaxEmbedConfig
from ..errors import ConfigError, PlacementError, RefreshError
from ..metrics import evaluate_placement
from ..placement import PageLayout
from ..types import EmbeddingSpec, QueryTrace


def stage_layout(
    layout: PageLayout,
    staging_dir: str,
    tag: str,
    corrupt: bool = False,
) -> PageLayout:
    """Round-trip ``layout`` through a CRC-validated staging artifact.

    Returns the layout *as re-loaded from disk* — the only copy the
    swap path is allowed to install.  ``corrupt=True`` flips a byte in
    the staged file first (fault injection for the chaos suite); the
    CRC check turns that into :class:`RefreshError` with
    ``stage="stage"``.  The staged file is removed once it has been
    re-loaded or refused.
    """
    os.makedirs(staging_dir, exist_ok=True)
    path = os.path.join(staging_dir, f"{tag}.bundle.json")
    try:
        # Only the layout is read back; the default config rides along.
        save_bundle(Bundle(MaxEmbedConfig(), layout), path)
        if corrupt:
            data = bytearray(open(path, "rb").read())
            middle = len(data) // 2
            data[middle] ^= 0xFF
            with open(path, "wb") as handle:
                handle.write(bytes(data))
        try:
            staged = load_bundle(path).layout
        except (ConfigError, PlacementError) as exc:
            # The loader reports a tear as CorruptArtifactError (both of
            # these): the CRC check, or JSON / UTF-8 decoding failing
            # first.
            raise RefreshError(
                f"staged artifact {path} failed validation: "
                f"{type(exc).__name__}: {exc}",
                stage="stage",
            ) from exc
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
    if staged.num_keys != layout.num_keys:
        raise RefreshError(
            f"staged artifact {path} covers {staged.num_keys} keys, "
            f"expected {layout.num_keys}",
            stage="stage",
        )
    return staged


@dataclass(frozen=True)
class ShadowScore:
    """Outcome of one shadow comparison on the probe window."""

    candidate_bw: float
    active_bw: float
    margin: float

    @property
    def passes(self) -> bool:
        """True when the candidate clears the gate."""
        return self.candidate_bw >= self.active_bw * self.margin


def shadow_score(
    candidate: PageLayout,
    active: PageLayout,
    window: QueryTrace,
    spec: EmbeddingSpec,
    max_queries: Optional[int] = None,
    margin: float = 1.0,
) -> ShadowScore:
    """Score candidate vs active effective bandwidth on ``window``."""
    kwargs = dict(
        max_queries=max_queries,
        embedding_bytes=spec.embedding_bytes,
        page_size=spec.page_size,
    )
    candidate_bw = evaluate_placement(
        candidate, window, **kwargs
    ).effective_fraction()
    active_bw = evaluate_placement(
        active, window, **kwargs
    ).effective_fraction()
    return ShadowScore(
        candidate_bw=candidate_bw, active_bw=active_bw, margin=margin
    )
