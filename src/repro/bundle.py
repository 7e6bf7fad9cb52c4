"""The deployment bundle: the one file the offline phase hands to serving.

The paper ships the offline phase's placement (SHP partition plus
connectivity-priority replication) from the build job to the serving
hosts.  ``maxembed build --out PATH`` writes that hand-off as one JSON
document, and ``serve`` / ``diagnose`` read it back::

    {"magic": "maxembed-bundle", "version": 1, "crc32": 123,
     "payload": {"config": {...}, "shard_plan": null,
                 "layouts": [{...}], "tier_plan": null}}

* ``config`` — every :class:`~repro.core.MaxEmbedConfig` field the build
  ran under (:func:`config_to_dict`), so serving and a refresh rebuild
  use the deployed geometry and build parameters, not re-typed flags;
* ``shard_plan`` — the key → shard assignment, ``null`` for one shard;
* ``layouts`` — one page layout per shard (a plain layout is a
  one-element list);
* ``tier_plan`` — the optional pinned DRAM tier plan (one shard only).

The checksum is ``zlib.crc32`` over the canonical JSON encoding of the
payload (sorted keys, no whitespace), so a truncated or bit-flipped file
raises :class:`~repro.errors.CorruptArtifactError` at load instead of
serving a silently wrong layout.  A file without this envelope or under
another magic — including the layout, sharded-layout, tier-plan and
store formats earlier releases wrote — is refused with a hint to rebuild
it.  ``config_from_dict`` refuses every missing key and every key no
field reads, so a bundle is never served differently from how it was
saved without a word; a bundle saved before a field existed is refused
and must be rebuilt.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Optional, Union

from .cluster import ShardedLayout, ShardPlan
from .core import MaxEmbedConfig
from .errors import ConfigError, CorruptArtifactError
from .partition import ShpConfig
from .placement import PageLayout
from .serving import CpuCostModel
from .ssd import PROFILES, SsdProfile
from .tiering import TierPlan
from .types import EmbeddingSpec

PathLike = Union[str, Path]

MAGIC = "maxembed-bundle"
#: Envelope format version written by :func:`wrap_document`.
VERSION = 1
REBUILD_HINT = "rebuild it with `maxembed build --out`"

# Config fields persisted as their own dataclass's fields.
_NESTED = {"spec": EmbeddingSpec, "shp": ShpConfig, "cost_model": CpuCostModel}
_LAYOUT_FIELDS = ("num_keys", "capacity", "num_base_pages", "pages")
_PLAN_FIELDS = ("num_shards", "strategy", "assignment")
_TIER_FIELDS = ("num_keys", "tier_ratio", "pinned", "source")


@dataclass(frozen=True)
class Bundle:
    """A built deployment: its config, placement and optional tier plan.

    Attributes:
        config: the configuration the offline build ran under.
        layout: a :class:`~repro.placement.PageLayout` for one shard, a
            :class:`~repro.cluster.ShardedLayout` for several.
        tier_plan: the pinned DRAM tier planned from the build trace
            (one shard only), or None.
    """

    config: MaxEmbedConfig
    layout: Union[PageLayout, ShardedLayout]
    tier_plan: Optional[TierPlan] = None

    def __post_init__(self) -> None:
        sharded = isinstance(self.layout, ShardedLayout)
        shards = self.layout.num_shards if sharded else 1
        if shards != self.config.num_shards:
            raise ConfigError(
                f"bundle holds {shards} shard layout(s) but its config "
                f"says num_shards={self.config.num_shards}"
            )
        if sharded and self.tier_plan is not None:
            raise ConfigError("a bundle's tier plan is single-shard only")

    @property
    def layouts(self) -> "tuple[PageLayout, ...]":
        """Every shard's page layout, in shard order."""
        if isinstance(self.layout, ShardedLayout):
            return self.layout.layouts
        return (self.layout,)


# -- the envelope -------------------------------------------------------------


def checksum(payload) -> int:
    """CRC32 of the canonical JSON encoding of ``payload``."""
    return zlib.crc32(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    )


def wrap_document(payload) -> dict:
    """Wrap ``payload`` in a checksummed bundle envelope."""
    return {
        "magic": MAGIC,
        "version": VERSION,
        "crc32": checksum(payload),
        "payload": payload,
    }


def unwrap_document(document, source: str = "bundle"):
    """Verify a bundle envelope and return its payload.

    A document without an envelope, under another magic (an older
    release's format) or at another version, and one whose payload or
    checksum is missing or does not match, raises
    :class:`~repro.errors.CorruptArtifactError`.
    """
    if not isinstance(document, dict) or "magic" not in document:
        raise CorruptArtifactError(
            f"{source} has no integrity envelope (a pre-envelope artifact "
            f"is not a deployment bundle); {REBUILD_HINT}"
        )
    found = document["magic"]
    if found != MAGIC:
        raise CorruptArtifactError(
            f"{source} has magic {found!r}, expected {MAGIC!r} — not a "
            f"deployment bundle (an older release's format?); {REBUILD_HINT}"
        )
    version = document.get("version")
    if version != VERSION:
        raise CorruptArtifactError(
            f"{source} has unsupported bundle version {version!r} "
            f"(supported: {VERSION}); {REBUILD_HINT}"
        )
    if "payload" not in document or "crc32" not in document:
        raise CorruptArtifactError(
            f"{source} envelope is truncated (missing payload or crc32)"
        )
    payload = document["payload"]
    actual = checksum(payload)
    if actual != document["crc32"]:
        raise CorruptArtifactError(
            f"{source} failed its integrity check: crc32 {actual} != "
            f"recorded {document['crc32']} — the file is corrupted"
        )
    return payload


# -- the config ---------------------------------------------------------------


def _as_dict(value, names=None) -> dict:
    """``value``'s ``names`` (default: its dataclass fields) as a mapping."""
    names = names or [f.name for f in fields(value)]
    return {name: getattr(value, name) for name in names}


def config_to_dict(config: MaxEmbedConfig) -> dict:
    """Serialize a :class:`MaxEmbedConfig` to plain JSON-able data.

    Every field is written: nested dataclasses as their own fields, the
    profile by its registry name, and a Generator SHP seed as ``None``.
    """
    data = {}
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


def _check_keys(data, cls, where: str = "") -> None:
    """Refuse a missing key or a key no field of ``cls`` reads."""
    if not isinstance(data, dict):
        raise ConfigError(f"malformed bundle config: {where}not a mapping")
    known = {f.name for f in fields(cls)}
    missing = sorted(known - data.keys())
    if missing:
        raise ConfigError(
            f"malformed bundle config: {where}missing {missing}; "
            f"{REBUILD_HINT}"
        )
    unknown = sorted(data.keys() - known)
    if unknown:
        raise ConfigError(f"bundle config {where}has unknown keys {unknown}")


def config_from_dict(data: dict) -> MaxEmbedConfig:
    """Rebuild a :class:`MaxEmbedConfig` from :func:`config_to_dict` data."""
    _check_keys(data, MaxEmbedConfig)
    kwargs = dict(data)
    for name, cls in _NESTED.items():
        _check_keys(kwargs[name], cls, where=f"{name}: ")
        kwargs[name] = cls(**kwargs[name])
    if kwargs["shp"].seed is None:  # saved from a Generator seed
        kwargs["shp"] = replace(kwargs["shp"], seed=0)
    kwargs["profile"] = PROFILES[kwargs["profile"]]
    return MaxEmbedConfig(**kwargs)


# -- the file -----------------------------------------------------------------


def _layout_to_dict(layout: PageLayout) -> dict:
    return {
        "num_keys": layout.num_keys,
        "capacity": layout.capacity,
        "num_base_pages": layout.num_base_pages,
        "pages": [list(page) for page in layout.pages()],
    }


def _record(data, names, what: str) -> dict:
    """``data``'s ``names`` fields, refusing a non-mapping or a gap."""
    if not isinstance(data, dict):
        raise CorruptArtifactError(
            f"malformed bundle: {what} is not a mapping"
        )
    for name in names:
        if name not in data:
            raise CorruptArtifactError(
                f"malformed bundle: {what} missing field {name!r}"
            )
    return {name: data[name] for name in names}


def save_bundle(bundle: Bundle, path: PathLike) -> None:
    """Write ``bundle`` to ``path`` as one checksummed JSON document."""
    plan = tier = None
    if isinstance(bundle.layout, ShardedLayout):
        plan = _as_dict(bundle.layout.plan, _PLAN_FIELDS)
    if bundle.tier_plan is not None:
        tier = _as_dict(bundle.tier_plan, _TIER_FIELDS)
    payload = {
        "config": config_to_dict(bundle.config),
        "shard_plan": plan,
        "layouts": [_layout_to_dict(layout) for layout in bundle.layouts],
        "tier_plan": tier,
    }
    Path(path).write_text(json.dumps(wrap_document(payload)))


def load_bundle(path: PathLike) -> Bundle:
    """Read and verify a bundle written by :func:`save_bundle`.

    A torn, bit-flipped or malformed file raises
    :class:`~repro.errors.CorruptArtifactError`, a file in another format
    is refused with a hint to rebuild it, and an unreadable path raises
    :class:`~repro.errors.ConfigError`.
    """
    source = f"bundle {path}"
    try:
        document = json.loads(Path(path).read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptArtifactError(
            f"malformed {source}: not valid JSON (truncated or "
            f"corrupted?): {exc}"
        )
    except OSError as exc:
        raise ConfigError(f"cannot read {source}: {exc}")
    payload = _record(
        unwrap_document(document, source),
        ("config", "shard_plan", "layouts", "tier_plan"),
        "payload",
    )
    try:
        config = config_from_dict(payload["config"])
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed bundle config in {path}: {exc}")
    if not isinstance(payload["layouts"], list) or not payload["layouts"]:
        raise CorruptArtifactError(f"malformed {source}: no layouts")
    layouts = []
    for shard, data in enumerate(payload["layouts"]):
        layouts.append(
            PageLayout(**_record(data, _LAYOUT_FIELDS, f"layout {shard}"))
        )
    plan = payload["shard_plan"]
    if plan is not None:
        plan = _record(plan, _PLAN_FIELDS, "shard plan")
        layout = ShardedLayout(
            ShardPlan(
                num_shards=plan["num_shards"],
                assignment=tuple(plan["assignment"]),
                strategy=plan["strategy"],
            ),
            tuple(layouts),
        )
    elif len(layouts) == 1:
        layout = layouts[0]
    else:
        raise CorruptArtifactError(
            f"malformed {source}: {len(layouts)} layouts but no shard plan"
        )
    tier = payload["tier_plan"]
    if tier is not None:
        tier = _record(tier, _TIER_FIELDS, "tier plan")
        tier = TierPlan(
            num_keys=tier["num_keys"],
            tier_ratio=tier["tier_ratio"],
            pinned=tuple(tier["pinned"]),
            source=tier["source"],
        )
    return Bundle(config, layout, tier)
