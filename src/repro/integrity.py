"""Integrity envelopes for persisted artifacts (magic + version + CRC32).

Every JSON artifact the library writes (layouts, sharded layouts, store
bundles) is wrapped in a small envelope::

    {"magic": "maxembed-layout", "version": 1, "crc32": 123, "payload": {...}}

The checksum is ``zlib.crc32`` over the *canonical* JSON encoding of the
payload (sorted keys, no whitespace), so a round-trip through any
JSON-preserving transport verifies, while a truncated or bit-flipped
file raises :class:`~repro.errors.CorruptArtifactError` at load instead
of producing a silently wrong layout.  Files written before the envelope
existed load unchanged with an :class:`UncheckedArtifactWarning`.

Binary sidecars (``.npy`` embedding tables) are covered by
streaming :func:`crc32_file` checksums recorded in their metadata files.
"""

from __future__ import annotations

import json
import warnings
import zlib
from pathlib import Path
from typing import Union

from .errors import CorruptArtifactError

PathLike = Union[str, Path]

#: Envelope format version written by :func:`wrap_document`.
ENVELOPE_VERSION = 1

MAGIC_LAYOUT = "maxembed-layout"
MAGIC_SHARDED_LAYOUT = "maxembed-sharded-layout"
MAGIC_BUNDLE_CONFIG = "maxembed-bundle-config"
MAGIC_BUNDLE_MANIFEST = "maxembed-bundle-manifest"
MAGIC_TIER_PLAN = "maxembed-tier-plan"


class UncheckedArtifactWarning(UserWarning):
    """A pre-checksum (legacy) artifact was loaded without verification."""


def canonical_bytes(payload) -> bytes:
    """Canonical JSON encoding of ``payload`` (sorted keys, compact)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )


def checksum(payload) -> int:
    """CRC32 of the canonical encoding of ``payload``."""
    return zlib.crc32(canonical_bytes(payload))


def crc32_file(path: PathLike, chunk_size: int = 1 << 20) -> int:
    """Streaming CRC32 of a file's raw bytes."""
    crc = 0
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(chunk_size)
            if not chunk:
                return crc
            crc = zlib.crc32(chunk, crc)


def wrap_document(magic: str, payload) -> dict:
    """Wrap ``payload`` in a checksummed envelope."""
    return {
        "magic": magic,
        "version": ENVELOPE_VERSION,
        "crc32": checksum(payload),
        "payload": payload,
    }


def is_wrapped(document) -> bool:
    """True when ``document`` looks like an envelope (no verification)."""
    return isinstance(document, dict) and "magic" in document


def peek_payload(document):
    """The payload of a wrapped document, or the document itself.

    For format sniffing only — performs **no** integrity verification.
    """
    if is_wrapped(document) and isinstance(document.get("payload"), dict):
        return document["payload"]
    return document


def unwrap_document(magic: str, document, source: str = "artifact"):
    """Verify an envelope and return its payload.

    A document without an envelope (written before checksumming existed)
    is returned as-is with an :class:`UncheckedArtifactWarning`.  A
    wrapped document with the wrong magic, an unsupported version, a
    missing/mismatched checksum, or a missing payload raises
    :class:`CorruptArtifactError`.
    """
    if not is_wrapped(document):
        warnings.warn(
            f"{source} has no integrity envelope (legacy format); "
            f"loading without verification",
            UncheckedArtifactWarning,
            stacklevel=3,
        )
        return document
    found = document.get("magic")
    if found != magic:
        raise CorruptArtifactError(
            f"{source} has magic {found!r}, expected {magic!r} — wrong "
            f"artifact type or corrupted header"
        )
    version = document.get("version")
    if version != ENVELOPE_VERSION:
        raise CorruptArtifactError(
            f"{source} has unsupported envelope version {version!r} "
            f"(supported: {ENVELOPE_VERSION})"
        )
    if "payload" not in document or "crc32" not in document:
        raise CorruptArtifactError(
            f"{source} envelope is truncated (missing payload or crc32)"
        )
    payload = document["payload"]
    actual = checksum(payload)
    expected = document["crc32"]
    if actual != expected:
        raise CorruptArtifactError(
            f"{source} failed its integrity check: crc32 {actual} != "
            f"recorded {expected} — the file is corrupted"
        )
    return payload


def verify_file_checksum(
    path: PathLike, expected: int, source: str = "artifact"
) -> None:
    """Verify a binary sidecar against its recorded CRC32."""
    try:
        actual = crc32_file(path)
    except OSError as exc:
        raise CorruptArtifactError(
            f"{source} {Path(path).name} is missing or unreadable: {exc}"
        )
    if actual != expected:
        raise CorruptArtifactError(
            f"{source} {Path(path).name} failed its integrity check: "
            f"crc32 {actual} != recorded {expected} — the file is corrupted"
        )
