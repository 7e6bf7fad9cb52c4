"""The oracle boundary: ``repro.reference`` is imported by tests only.

Production has one implementation per algorithm; the loop- and set-based
versions it is held to live in ``repro.reference``.  That split only
means something while (i) nothing under ``src/repro`` outside the
package imports it, (ii) importing the library does not load it,
(iii) no ``Fast*`` / ``fast_*`` twin is exported any more, and (iv) the
oracle never calls the production algorithm it is the oracle of.
"""

import ast
import subprocess
import sys
from pathlib import Path

import repro
import repro.partition
import repro.reference
import repro.replication
import repro.serving

SRC = Path(repro.__file__).resolve().parent
REFERENCE = SRC / "reference"

# The production algorithms the oracle exists to check.
ALGORITHMS = {
    "OnePassSelector",
    "GreedySetCoverSelector",
    "SELECTORS",
    "ShpPartitioner",
    "FastShpPartitioner",
    "edge_connectivities",
    "connectivity_scores",
    "hotness_scores",
    "replica_page",
    "ConnectivityPriorityStrategy",
}


def imports_of(path: Path):
    """(absolute module, imported names) for every import in ``path``."""
    package = ("repro",) + path.relative_to(SRC).parent.parts
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, ()
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else ()
            module = ".".join(base + tuple(filter(None, [node.module])))
            yield module, tuple(alias.name for alias in node.names)


def test_nothing_in_production_imports_the_oracle():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if REFERENCE in path.parents:
            continue
        for module, names in imports_of(path):
            if module.startswith("repro.reference") or (
                module == "repro" and "reference" in names
            ):
                offenders.append(f"{path.relative_to(SRC)}: {module}")
    assert not offenders, offenders


def test_importing_the_library_does_not_load_the_oracle():
    code = (
        "import sys, repro, repro.cli, repro.experiments, repro.service\n"
        "print([m for m in sys.modules if m.startswith('repro.reference')])"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
        env={"PYTHONPATH": str(SRC.parent)},
    )
    assert result.stdout.strip() == "[]"


def test_no_fast_twin_is_exported():
    for package in (repro, repro.serving, repro.partition, repro.replication):
        twins = [
            name
            for name in package.__all__
            if name.startswith(("Fast", "fast_"))
        ]
        if package is repro.partition:
            # The frozen e2e harness addresses the class by this name.
            assert twins == ["FastShpPartitioner"]
        else:
            assert twins == [], (package.__name__, twins)
    assert repro.partition.FastShpPartitioner is repro.partition.ShpPartitioner
    assert "reference" not in repro.__all__


def test_the_oracle_imports_no_algorithm_it_checks():
    offenders = []
    for path in sorted(REFERENCE.glob("*.py")):
        for module, names in imports_of(path):
            if module.startswith("repro.reference"):
                continue  # its own λ, its own partitioner
            for name in names:
                if name in ALGORITHMS:
                    offenders.append(f"{path.name}: {module}.{name}")
    assert not offenders, offenders
    # Defaults stay inside the package too.
    oracle = repro.reference
    assert oracle.connectivity_scores.__globals__[
        "edge_connectivities"
    ] is oracle.edge_connectivities
    assert oracle.maxembed_layout.__globals__[
        "ShpPartitioner"
    ] is oracle.ShpPartitioner
