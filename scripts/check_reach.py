"""Fail when a public library name or method is reached by nothing but tests.

A public top-level function or class in ``src/repro`` (``repro.reference``
excepted: it is the oracle tests compare against) is *reached* when its
name appears as an AST ``Name``, ``Attribute`` or import alias — never a
docstring or comment — in

* another top-level statement of its own module (not its own definition),
* any other module under ``src/``, except the imports of an
  ``__init__.py`` (a re-export is not a use), or
* any file under ``benchmarks/``, ``scripts/`` or ``examples/``.

A public method (properties, class- and staticmethods included) of a
public top-level class there is reached when its name appears anywhere
under ``src/``, ``benchmarks/``, ``scripts/`` or ``examples/`` as a
``Name``, ``Attribute``, keyword argument, import alias or a string
constant equal to it (``getattr(engine, "shard_device_stats", None)``) —
except inside a ``def`` of that same name, so recursion and delegation
(``reset_stats`` calling ``self._inner.reset_stats()``) keep nothing
alive.  An allowlisted class covers its methods.

Tests do not count: a name that only its own tests call is code the
suite keeps alive and nothing else runs.  Names are matched by
identifier, so a collision can hide a dead name but never invent one.

Prints each unreached name not in ``ALLOWLIST`` and each allowlist entry
that no longer names an unreached definition, and exits 1 if there is
any; stdlib only, no install::

    python scripts/check_reach.py
"""

from __future__ import annotations

import ast
import sys
from collections import Counter, defaultdict
from pathlib import Path
from typing import Dict, List, Set

ROOT = Path(__file__).resolve().parents[1]
CALLERS = ("benchmarks", "scripts", "examples")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = (*FUNCTIONS, ast.ClassDef)

#: Unreached on purpose; each entry says why it stays.
ALLOWLIST: Dict[str, str] = {
    "repro.workloads.adapters.parse_criteo_tsv": (
        "dataset adapter: the only way to load the paper's real Criteo "
        "trace once the file is in the repository"
    ),
    "repro.workloads.adapters.parse_avazu_csv": (
        "dataset adapter: the only way to load the paper's real Avazu "
        "trace once the file is in the repository"
    ),
    "repro.workloads.temporal.burst_rate": (
        "test support: tests/test_overload_faults.py builds its bursty "
        "arrival stream from it"
    ),
    "repro.workloads.temporal.sample_arrivals": (
        "test support: tests/test_overload_faults.py draws its arrival "
        "times with it"
    ),
    "repro.experiments.common.clear_caches": (
        "test support: experiment tests drop the memoized traces and "
        "layouts between cases"
    ),
    "repro.partition.metrics.fanout_objective": (
        "test support: partitioner tests score assignments with the SHP "
        "objective"
    ),
    "repro.ssd.tracing.TracingDevice": (
        "test support: device and executor tests record the commands "
        "that reach the device"
    ),
}


def _names(node: ast.AST, imports: bool = True) -> Set[str]:
    """Identifiers ``node`` refers to."""
    found: Set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif imports and isinstance(sub, ast.alias):
            found.update(sub.name.split("."))
    return found


def _uses(tree: ast.AST) -> Set[str]:
    """Identifiers ``tree`` uses in any form a method use can take, each
    counted only outside every ``def`` of the same name."""
    found: Set[str] = set()

    def visit(node: ast.AST, inside: frozenset) -> None:
        if isinstance(node, FUNCTIONS):
            inside = inside | {node.name}
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.keyword):
            names = [node.arg]
        elif isinstance(node, ast.alias):
            names = [*node.name.split("."), node.asname]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = [node.value]
        else:
            names = []
        found.update(name for name in names if name and name not in inside)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return found


def _module(path: Path, src: Path) -> str:
    parts = path.relative_to(src).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def unreached(root: Path = ROOT) -> List[str]:
    """Dotted names of the public definitions nothing outside tests reaches."""
    src = root / "src"
    exempt = src / "repro" / "reference"
    trees = {path: ast.parse(path.read_text()) for path in sorted(src.rglob("*.py"))}
    users: Dict[str, Set[Path]] = defaultdict(set)
    for path, tree in trees.items():
        for name in _names(tree, imports=path.name != "__init__.py"):
            users[name].add(path)
    callers = [
        ast.parse(path.read_text())
        for folder in CALLERS
        for path in sorted((root / folder).rglob("*.py"))
    ]
    called: Set[str] = set().union(*map(_names, callers))
    used: Set[str] = set().union(*map(_uses, [*trees.values(), *callers]))

    dead = []
    for path, tree in trees.items():
        if not path.is_relative_to(src / "repro") or path.is_relative_to(exempt):
            continue
        statements = [_names(statement) for statement in tree.body]
        in_module = Counter(name for names in statements for name in names)
        for statement, names in zip(tree.body, statements):
            if not isinstance(statement, DEFINITIONS):
                continue
            name = statement.name
            if name.startswith("_"):
                continue
            if isinstance(statement, ast.ClassDef):
                dead.extend(
                    f"{_module(path, src)}.{name}.{method.name}"
                    for method in statement.body
                    if isinstance(method, FUNCTIONS)
                    and not method.name.startswith("_")
                    and method.name not in used
                )
            if name in called or users[name] - {path}:
                continue
            if in_module[name] > (name in names):
                continue
            dead.append(f"{_module(path, src)}.{name}")
    return dead


def failures(
    root: Path = ROOT, allowlist: Dict[str, str] = ALLOWLIST
) -> List[str]:
    """One line per unreached name not allowlisted and per stale entry.

    An allowlisted class covers its methods.
    """
    dead = unreached(root)
    lines = [
        f"unreached: {name} (delete it, or add it to ALLOWLIST with a reason)"
        for name in dead
        if name not in allowlist and name.rsplit(".", 1)[0] not in allowlist
    ]
    lines += [
        f"stale ALLOWLIST entry: {name} is reached or gone"
        for name in allowlist
        if name not in dead
    ]
    return lines


def main() -> int:
    lines = failures()
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
