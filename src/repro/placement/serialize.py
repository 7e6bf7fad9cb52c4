"""Layout (de)serialization.

Layouts are the hand-off artifact between the offline and online phases
(the paper ships partition results from the Hadoop SHP job to the serving
hosts); persisting them lets the expensive offline pass be reused across
serving runs and experiments.  Artifacts written here carry an integrity
envelope (magic + version + CRC32, see :mod:`repro.integrity`): a
truncated or bit-flipped file raises
:class:`~repro.errors.CorruptArtifactError` at load rather than serving
a silently wrong layout, while pre-envelope files still load with an
:class:`~repro.integrity.UncheckedArtifactWarning`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from ..errors import CorruptArtifactError, PlacementError
from ..integrity import MAGIC_LAYOUT, unwrap_document, wrap_document
from .layout import PageLayout

PathLike = Union[str, Path]


def save_layout(layout: PageLayout, path: PathLike) -> None:
    """Write ``layout`` to ``path`` as checksummed JSON."""
    document = {
        "num_keys": layout.num_keys,
        "capacity": layout.capacity,
        "num_base_pages": layout.num_base_pages,
        "pages": [list(p) for p in layout.pages()],
    }
    Path(path).write_text(json.dumps(wrap_document(MAGIC_LAYOUT, document)))


def load_layout(path: PathLike) -> PageLayout:
    """Read a layout previously written by :func:`save_layout`.

    Verifies the integrity envelope (raising
    :class:`~repro.errors.CorruptArtifactError` on any mismatch); raw
    pre-envelope layout documents load with a warning.
    """
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise PlacementError(f"cannot load layout from {path}: {exc}")
    try:
        document = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise CorruptArtifactError(
            f"cannot load layout from {path}: not valid JSON "
            f"(truncated or corrupted?): {exc}"
        )
    document = unwrap_document(
        MAGIC_LAYOUT, document, source=f"layout file {path}"
    )
    for field in ("num_keys", "capacity", "num_base_pages", "pages"):
        if field not in document:
            raise PlacementError(f"layout file missing field {field!r}")
    return PageLayout(
        num_keys=document["num_keys"],
        capacity=document["capacity"],
        pages=document["pages"],
        num_base_pages=document["num_base_pages"],
    )
