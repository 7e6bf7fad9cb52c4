"""The declared Python floor is the lowest version CI actually tests.

``repro.serving.selection`` calls ``int.bit_count()`` (3.10+) on every
query; a floor below CI's matrix installs fine and fails at the first
``serve_query``.  Parsed with ``re``: ``tomllib`` is 3.11+ and PyYAML is
not a dependency.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _version(text):
    return tuple(int(part) for part in text.strip().strip("\"'").split("."))


def test_requires_python_is_the_ci_matrix_floor():
    pyproject = (ROOT / "pyproject.toml").read_text()
    (floor,) = re.findall(
        r'^requires-python\s*=\s*">=\s*([\d.]+)"', pyproject, re.M
    )
    workflow = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    (matrix,) = re.findall(
        r"^\s*python-version:\s*\[([^\]]+)\]", workflow, re.M
    )
    tested = [_version(entry) for entry in matrix.split(",")]
    assert _version(floor) == min(tested), (floor, tested)
    assert _version(floor) >= (3, 10), "int.bit_count() needs 3.10"
