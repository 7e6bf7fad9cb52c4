"""The reach guard, ``scripts/check_reach.py``.

Every public top-level function and class in ``src/repro``, and every
public method of such a class, is reached from the library, a benchmark,
a script or an example, or is allowlisted with a reason; a name only its
own tests call fails here.
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


METHODS = """\
class Device:
    def read(self):
        return self._inner.read()

    def reset_stats(self):
        self._inner.reset_stats()

    def test_only(self):
        return 1

    @property
    def probed(self):
        return 2

    def _private(self):
        return 3

    def __len__(self):
        return 4


class Wrapper:
    def unused(self):
        pass
"""


def method_tree(root: Path) -> None:
    _write(root, "src/repro/__init__.py", "from .dev import Device, Wrapper\n")
    _write(root, "src/repro/dev.py", METHODS)
    _write(
        root,
        "benchmarks/bench_dev.py",
        "from repro import Device\n"
        "Device().read()\n"
        'getattr(Device(), "probed", None)\n',
    )
    _write(
        root,
        "tests/test_dev.py",
        "from repro import Device\n"
        "Device().test_only()\nDevice().reset_stats()\n",
    )


def test_methods_reached_only_by_tests_or_delegation_fail(tmp_path):
    method_tree(tmp_path)
    # ``test_only`` is called only from tests/; ``reset_stats`` only by
    # itself (delegation inside a ``def`` of the same name); ``read`` by a
    # benchmark and ``probed`` by a ``getattr`` string; ``_private`` and
    # ``__len__`` are not public.  Nothing reaches ``Wrapper``.
    assert check_reach.unreached(tmp_path) == [
        "repro.dev.Device.reset_stats",
        "repro.dev.Device.test_only",
        "repro.dev.Wrapper.unused",
        "repro.dev.Wrapper",
    ]
    assert check_reach.failures(tmp_path, {}) == [
        f"unreached: {name} (delete it, or add it to ALLOWLIST with a reason)"
        for name in check_reach.unreached(tmp_path)
    ]


def test_method_allowlist_entries_and_class_coverage(tmp_path):
    method_tree(tmp_path)
    allowlist = {
        "repro.dev.Device.test_only": "kept",
        "repro.dev.Device.reset_stats": "kept",
        "repro.dev.Wrapper": "covers its methods",
    }
    # The class entry covers ``Wrapper.unused`` too.
    assert check_reach.failures(tmp_path, allowlist) == []
    allowlist["repro.dev.Device.read"] = "reached, so stale"
    assert check_reach.failures(tmp_path, allowlist) == [
        "stale ALLOWLIST entry: repro.dev.Device.read is reached or gone"
    ]
