"""Persist a full MaxEmbed deployment to disk.

The offline phase is the expensive part; shipping its output between the
build job and the serving hosts needs a durable bundle.  A saved store is
a directory::

    bundle/
      config.json   — MaxEmbedConfig (spec, ratios, online knobs)
      layout.json   — the page layout (repro.placement.serialize format)
      tier.json     — optional pinned DRAM tier plan (CRC envelope)
      table.npy     — optional float32 embedding table

``save_store`` / ``load_store`` round-trip everything needed to resume
serving: the engine is rebuilt from the layout + config, and the page
store is re-materialized from the table when one is present.

Bundles are integrity-checked end to end: ``config.json`` carries a
magic/version/CRC32 envelope, ``layout.json`` is checksummed by
:func:`~repro.placement.serialize.save_layout`, and a ``manifest.json``
records the CRC32 of every binary sidecar (the embedding table), so a
truncated or bit-flipped bundle raises
:class:`~repro.errors.CorruptArtifactError` at load.  Pre-envelope
bundles still load, with an
:class:`~repro.integrity.UncheckedArtifactWarning`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

import numpy as np

from ..errors import ConfigError, CorruptArtifactError
from ..integrity import (
    MAGIC_BUNDLE_CONFIG,
    MAGIC_BUNDLE_MANIFEST,
    crc32_file,
    unwrap_document,
    verify_file_checksum,
    wrap_document,
)
from ..partition import ShpConfig
from ..placement import load_layout, save_layout
from ..serving import CpuCostModel
from ..ssd import PROFILES, SsdProfile
from ..tiering import load_tier_plan, save_tier_plan
from ..types import EmbeddingSpec
from .config import MaxEmbedConfig
from .store import MaxEmbedStore

PathLike = Union[str, Path]

_FORMAT_VERSION = 1


def config_to_dict(config: MaxEmbedConfig) -> dict:
    """Serialize a :class:`MaxEmbedConfig` to plain JSON-able data."""
    return {
        "version": _FORMAT_VERSION,
        "spec": {"dim": config.spec.dim, "page_size": config.spec.page_size},
        "replication_ratio": config.replication_ratio,
        "strategy": config.strategy,
        "partitioner": config.partitioner,
        "shp": {
            "max_iterations": config.shp.max_iterations,
            "min_swap_gain": config.shp.min_swap_gain,
            "kl_threshold": config.shp.kl_threshold,
            "kl_passes": config.shp.kl_passes,
            "kl_restarts": config.shp.kl_restarts,
            "seed": config.shp.seed
            if isinstance(config.shp.seed, int)
            else None,
        },
        "index_limit": config.index_limit,
        "cache_ratio": config.cache_ratio,
        "cache_policy": config.cache_policy,
        "tier_mode": config.tier_mode,
        "tier_ratio": config.tier_ratio,
        "profile": _profile_name(config.profile),
        "raid_members": config.raid_members,
        "executor": config.executor,
        "threads": config.threads,
        "cost_model": {
            "sort_per_key_us": config.cost_model.sort_per_key_us,
            "candidate_examine_us": config.cost_model.candidate_examine_us,
            "step_base_us": config.cost_model.step_base_us,
            "query_base_us": config.cost_model.query_base_us,
        },
        "seed": config.seed,
    }


def _profile_name(profile: SsdProfile) -> str:
    for name, registered in PROFILES.items():
        if registered == profile:
            return name
    raise ConfigError(
        f"profile {profile.name!r} is not in the registry; "
        "only registered profiles can be persisted"
    )


def config_from_dict(data: dict) -> MaxEmbedConfig:
    """Rebuild a :class:`MaxEmbedConfig` from :func:`config_to_dict` data."""
    if data.get("version") != _FORMAT_VERSION:
        raise ConfigError(
            f"unsupported bundle version {data.get('version')!r}"
        )
    # One-pass is the one page selector; a bundle saved under another
    # must not be served by it without a word.
    selector = data.get("selector", "onepass")
    if selector != "onepass":
        raise ConfigError(
            f"bundle names selector {selector!r}; only one-pass selection "
            "serves (greedy set cover is the baseline in "
            "benchmarks/bench_selector.py)"
        )
    shp = data["shp"]
    cost = data["cost_model"]
    return MaxEmbedConfig(
        spec=EmbeddingSpec(**data["spec"]),
        replication_ratio=data["replication_ratio"],
        strategy=data["strategy"],
        partitioner=data["partitioner"],
        shp=ShpConfig(
            max_iterations=shp["max_iterations"],
            min_swap_gain=shp["min_swap_gain"],
            kl_threshold=shp["kl_threshold"],
            kl_passes=shp["kl_passes"],
            kl_restarts=shp["kl_restarts"],
            seed=shp["seed"] if shp["seed"] is not None else 0,
        ),
        index_limit=data["index_limit"],
        cache_ratio=data["cache_ratio"],
        cache_policy=data.get("cache_policy", "lru"),
        tier_mode=data.get("tier_mode", "lru"),
        tier_ratio=data.get("tier_ratio", 0.0),
        profile=PROFILES[data["profile"]],
        raid_members=data["raid_members"],
        executor=data["executor"],
        threads=data["threads"],
        cost_model=CpuCostModel(**cost),
        seed=data["seed"],
    )


def save_store(store: MaxEmbedStore, directory: PathLike) -> Path:
    """Write a deployment bundle; returns the bundle directory."""
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    (path / "config.json").write_text(
        json.dumps(
            wrap_document(MAGIC_BUNDLE_CONFIG, config_to_dict(store.config)),
            indent=2,
        )
    )
    save_layout(store.layout, path / "layout.json")
    tier_plan = store.engine.tier_plan
    if tier_plan is not None:
        save_tier_plan(tier_plan, path / "tier.json")
    sidecars = {}
    table = getattr(store, "_table", None)
    if table is not None:
        np.save(path / "table.npy", table)
        sidecars["table.npy"] = crc32_file(path / "table.npy")
    (path / "manifest.json").write_text(
        json.dumps(wrap_document(MAGIC_BUNDLE_MANIFEST, {"files": sidecars}))
    )
    return path


def load_store(directory: PathLike) -> MaxEmbedStore:
    """Rebuild a :class:`MaxEmbedStore` from a bundle directory.

    Every integrity check of the bundle runs here: the config envelope,
    the layout checksum (via :func:`~repro.placement.serialize.load_layout`)
    and the manifest's sidecar CRCs all raise
    :class:`~repro.errors.CorruptArtifactError` on mismatch.
    """
    path = Path(directory)
    config_path = path / "config.json"
    layout_path = path / "layout.json"
    if not config_path.exists() or not layout_path.exists():
        raise ConfigError(f"{path} is not a store bundle")
    try:
        document = json.loads(config_path.read_text())
    except json.JSONDecodeError as exc:
        raise CorruptArtifactError(
            f"malformed bundle config in {path}: {exc}"
        )
    document = unwrap_document(
        MAGIC_BUNDLE_CONFIG, document, source=f"bundle config {config_path}"
    )
    try:
        config = config_from_dict(document)
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed bundle config in {path}: {exc}")
    layout = load_layout(layout_path)
    manifest_path = path / "manifest.json"
    if manifest_path.exists():
        try:
            manifest = json.loads(manifest_path.read_text())
        except json.JSONDecodeError as exc:
            raise CorruptArtifactError(
                f"malformed bundle manifest in {path}: {exc}"
            )
        manifest = unwrap_document(
            MAGIC_BUNDLE_MANIFEST,
            manifest,
            source=f"bundle manifest {manifest_path}",
        )
        for name, expected in manifest.get("files", {}).items():
            verify_file_checksum(
                path / name, expected, source=f"bundle {path}:"
            )
    table = None
    table_path = path / "table.npy"
    if table_path.exists():
        table = np.load(table_path)
    tier_plan = None
    tier_path = path / "tier.json"
    if tier_path.exists():
        tier_plan = load_tier_plan(tier_path)
    return MaxEmbedStore(layout, config, table=table, tier_plan=tier_plan)
