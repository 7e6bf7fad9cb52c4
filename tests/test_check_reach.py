"""The reach guard, ``scripts/check_reach.py``.

Every public top-level function and class in ``src/repro`` is reached
from the library, a benchmark, a script or an example, or is allowlisted
with a reason; a name only its own tests call fails here.
"""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "check_reach.py"
spec = importlib.util.spec_from_file_location("check_reach", SCRIPT)
check_reach = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_reach)


def test_every_public_name_is_reached_or_allowlisted():
    assert check_reach.main() == 0


def _write(root: Path, relative: str, text: str) -> None:
    path = root / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def test_a_dead_name_would_fail(tmp_path):
    _write(
        tmp_path,
        "src/repro/__init__.py",
        '"""Names ``dead`` here only."""\n'
        "from .mod import dead, helper, used\n"
        '__all__ = ["dead", "helper", "used"]\n',
    )
    _write(
        tmp_path,
        "src/repro/mod.py",
        "def used():\n    return helper()\n\n"
        "def helper():\n    return 1\n\n"
        "def dead(n):\n    return dead(n - 1) if n else 0\n\n"
        "class _Private:\n    pass\n",
    )
    _write(
        tmp_path,
        "src/repro/reference/oracle.py",
        "def unused_oracle():\n    pass\n",
    )
    _write(tmp_path, "examples/demo.py", "from repro import used\nused()\n")
    _write(tmp_path, "tests/test_mod.py", "from repro import dead\ndead(1)\n")
    # Its own recursion, the re-export, a docstring and a test do not
    # reach ``dead``; ``helper`` is reached by ``used`` in its own module.
    assert check_reach.unreached(tmp_path) == ["repro.mod.dead"]
