"""The execution reach check, ``scripts/exec_reach.py``.

No entry point runs here: a tiny package under a temporary ``src/`` is
imported by one profiled process, and the check's verdict on what that
process entered is compared with what the source says.
"""

import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))

import exec_reach  # noqa: E402

MODULE = """\
import threading


def used():
    return Live().read()


def in_thread():
    return 1


def in_child():
    return 2


def under_own_hook():
    return 3


def dead():
    return 0


class Live:
    def __init__(self):
        self.value = 1

    def read(self):
        return self.value

    def unread(self):
        return 0


class Dead:
    \"\"\"Never built.\"\"\"

    def __init__(self):
        self.value = 2


class Plain:
    def method(self):
        return 0
"""

DRIVER = """\
import multiprocessing
import sys
import threading

import repro.mod as mod

mod.used()
thread = threading.Thread(target=mod.in_thread)
thread.start()
thread.join()
child = multiprocessing.get_context("fork").Process(target=mod.in_child)
child.start()
child.join()
sys.setprofile(lambda frame, event, arg: None)  # the program's own hook
mod.under_own_hook()
sys.setprofile(None)
"""


def run_package(tmp_path: Path):
    src = tmp_path / "src"
    (src / "repro" / "reference").mkdir(parents=True)
    (src / "repro" / "__init__.py").write_text("")
    (src / "repro" / "mod.py").write_text(MODULE)
    (src / "repro" / "reference" / "__init__.py").write_text(
        "def oracle():\n    return 0\n"
    )
    subprocess.run(
        [sys.executable, "-c", DRIVER],
        cwd=tmp_path,
        env=exec_reach.profiled_env(tmp_path, src),
        check=True,
        timeout=60,
    )
    defs = exec_reach.functions(src)
    return defs, exec_reach.read_entered(tmp_path / "entered", src)


def test_flags_a_never_entered_function_and_class(tmp_path):
    defs, entered = run_package(tmp_path)
    # A thread, a forked child and a program that sets its own profile
    # hook are all seen; repro.reference is not judged.
    never = {f.name for f in exec_reach.unentered(defs, entered)}
    assert never == {
        "repro.mod.dead",
        "repro.mod.Live.unread",
        "repro.mod.Dead.__init__",
        "repro.mod.Plain.method",
    }
    # Methods are reported, not gated; a class without its own __init__
    # is not gated either.
    assert exec_reach.failures(defs, entered, {}) == [
        f"unentered: {name} (run it from an entry point, delete it, or "
        f"add it to ALLOWLIST with a reason)"
        for name in ("repro.mod.Dead", "repro.mod.dead")
    ]
    dead = next(f for f in defs if f.name == "repro.mod.dead")
    assert (dead.top, dead.body) == (True, 1)
    init = next(f for f in defs if f.name == "repro.mod.Dead.__init__")
    assert init.init_of == "repro.mod.Dead"


def test_honours_the_allowlist_and_fails_on_a_stale_entry(tmp_path):
    defs, entered = run_package(tmp_path)
    allowlist = {"repro.mod.dead": "kept", "repro.mod.Dead": "kept"}
    assert exec_reach.failures(defs, entered, allowlist) == []
    allowlist["repro.mod.used"] = "entered, so stale"
    allowlist["repro.mod.gone"] = "names nothing, so stale"
    assert exec_reach.failures(defs, entered, allowlist) == [
        "stale ALLOWLIST entry: repro.mod.used is entered or gone",
        "stale ALLOWLIST entry: repro.mod.gone is entered or gone",
    ]


def test_allowlist_names_gated_definitions():
    # Each entry names a top-level function or class of the library, so
    # a typo is caught without running the entry points.
    defs = exec_reach.functions(exec_reach.ROOT / "src")
    gated = {f.name for f in defs if f.top}
    gated |= {f.init_of for f in defs if f.init_of}
    assert sorted(set(exec_reach.ALLOWLIST) - gated) == []
