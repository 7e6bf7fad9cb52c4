"""Persist a full MaxEmbed deployment to disk.

The offline phase is the expensive part; shipping its output between the
build job and the serving hosts needs a durable bundle.  A saved store is
a directory::

    bundle/
      config.json   — every MaxEmbedConfig field (see config_to_dict)
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

``config_to_dict`` walks the fields of
:class:`~repro.core.MaxEmbedConfig`, so a new field is persisted without
an edit here.  A bundle may omit only the keys older bundles lacked
(``_OPTIONAL``), which load at their defaults; ``config_from_dict``
refuses any other missing key and every key no field reads, so a bundle
is never served differently from how it was saved without a word.
"""

from __future__ import annotations

import json
from dataclasses import fields, replace
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
# Config fields persisted as their own dataclass's fields.
_NESTED = {"spec": EmbeddingSpec, "shp": ShpConfig, "cost_model": CpuCostModel}
# Keys a bundle may omit, each loading at its field's default: the ones
# older bundles never wrote or were always read with a default.
_OPTIONAL = (
    "cache_policy",
    "tier_mode",
    "tier_ratio",
    "num_shards",
    "shard_strategy",
    "replicas",
    "build_workers",
    "offline_workers",
)


def _as_dict(value) -> dict:
    """A nested config dataclass as a flat field → value mapping."""
    return {f.name: getattr(value, f.name) for f in fields(value)}


def config_to_dict(config: MaxEmbedConfig) -> dict:
    """Serialize a :class:`MaxEmbedConfig` to plain JSON-able data.

    Every field is written: nested dataclasses as their own fields, the
    profile by its registry name, and a Generator SHP seed as ``None``.
    """
    data = {"version": _FORMAT_VERSION}
    for f in fields(MaxEmbedConfig):
        value = getattr(config, f.name)
        if f.name == "profile":
            value = _profile_name(value)
        elif f.name in _NESTED:
            value = _as_dict(value)
        data[f.name] = value
    if not isinstance(config.shp.seed, int):
        data["shp"]["seed"] = None
    return data


def _profile_name(profile: SsdProfile) -> str:
    for name, registered in PROFILES.items():
        if registered == profile:
            return name
    raise ConfigError(
        f"profile {profile.name!r} is not in the registry; "
        "only registered profiles can be persisted"
    )


def _check_keys(data, cls, optional=(), where: str = "") -> None:
    """Refuse a missing required key or a key no field of ``cls`` reads."""
    if not isinstance(data, dict):
        raise ConfigError(f"malformed bundle config: {where}not a mapping")
    known = {f.name for f in fields(cls)}
    missing = sorted(known - set(optional) - data.keys())
    if missing:
        raise ConfigError(f"malformed bundle config: {where}missing {missing}")
    unknown = sorted(data.keys() - known)
    if unknown:
        raise ConfigError(f"bundle config {where}has unknown keys {unknown}")


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
    kwargs = {
        k: v for k, v in data.items() if k not in ("version", "selector")
    }
    _check_keys(kwargs, MaxEmbedConfig, _OPTIONAL)
    for name, cls in _NESTED.items():
        _check_keys(kwargs[name], cls, where=f"{name}: ")
        kwargs[name] = cls(**kwargs[name])
    if kwargs["shp"].seed is None:  # saved from a Generator seed
        kwargs["shp"] = replace(kwargs["shp"], seed=0)
    kwargs["profile"] = PROFILES[kwargs["profile"]]
    return MaxEmbedConfig(**kwargs)


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
