"""Fail when a library function or class runs under no entry point.

``scripts/check_reach.py`` asks whether a name is *used* outside tests;
this script asks whether it *runs*.  It copies ``src/``, ``benchmarks/``
and ``examples/`` to a temporary directory and runs every entry point in
:data:`ENTRY_POINTS` there (the examples, the CLI lines of CI's service
smoke and more, two live gateways driven over HTTP, every
``benchmarks/bench_*.py`` at ``REPRO_BENCH_SCALE=small`` and the
end-to-end harness's quick passes), with a ``sitecustomize`` hook on
``PYTHONPATH`` that records each code object under ``src/repro`` the
first time a ``sys.setprofile`` / ``threading.setprofile`` *call* event
enters it.  A process writes each first entry as it happens, so forked
pool workers and killed processes lose nothing; a hook the program sets
itself is chained, not replaced.  The same mechanism runs on every
CPython: no line tracer, no ``sys.monitoring``.

It then prints every function and method under ``src/repro``
(``repro.reference`` excepted: it is the oracle tests compare against)
that no entry point entered, with its body-line count, and exits 1 when

* a top-level function, or a top-level class whose own ``__init__`` never
  ran, was never entered and ``ALLOWLIST`` does not name it, or
* an ``ALLOWLIST`` entry names a function or class that was entered, or
  nothing at all.

Methods are reported, not gated.  ``ALLOWLIST`` is
``check_reach.ALLOWLIST`` extended in place below, so one dict says why
each unreached name stays.  An entry point that exits non-zero is
printed and the run goes on: profiling slows a process several times
over, so a wall-clock assertion inside a bench can fail here and pass
unprofiled.  Stdlib only, no install; it takes several minutes::

    python scripts/exec_reach.py
"""

from __future__ import annotations

import ast
import http.client
import json
import os
import shutil
import socket
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple,
)

sys.path.insert(0, str(Path(__file__).resolve().parent))

from check_reach import ALLOWLIST, ROOT  # noqa: E402

ALLOWLIST.update(
    {
        "repro.errors.ShardUnavailableError": (
            "error path: a shard whose every replica failed; the entry "
            "points' shard fault plan leaves a replica up"
        ),
        "repro.errors.RefreshError": (
            "error path: a failed refresh repair (rebuild, staging, "
            "swap), injected only by the refresh chaos tests"
        ),
        "repro.cluster.pipeline._sequential_layout": (
            "edge case: the layout of a shard no history query touches; "
            "every entry point's shards all have history"
        ),
        "repro.ssd.device.run_paced_reads": (
            "reference: the per-read loop SimulatedSsd's fused paced read "
            "must equal (tests/test_paced_reads.py); the tracing and fault "
            "wrappers run it, and no entry point sends them a paced read"
        ),
        "repro.workloads.adapters.hash_feature": (
            "dataset adapter: hashes the real Criteo / Avazu feature "
            "values parse_criteo_tsv and parse_avazu_csv read"
        ),
        "repro.workloads.adapters._stable_hash": (
            "dataset adapter: hash_feature's hash"
        ),
        "repro.workloads.adapters._bounded": (
            "dataset adapter: the row limit of parse_criteo_tsv and "
            "parse_avazu_csv"
        ),
    }
)

#: The entry points, run in order in one working directory.  A step is
#: an argv (``maxembed`` stands for ``python -m repro.cli``), optionally
#: with extra environment and the exit status it should end with.
CLI = ("maxembed",)
STEP_TIMEOUT_S = 1800


@dataclass(frozen=True)
class Run:
    argv: Tuple[str, ...]
    env: Optional[Dict[str, str]] = None
    status: int = 0


@dataclass(frozen=True)
class Live:
    """``maxembed serve --listen`` driven over HTTP, then drained."""

    serve: Tuple[str, ...]
    loadgen: Tuple[str, ...]
    #: (method, path, JSON body or None, expected HTTP status)
    requests: Tuple[Tuple[str, str, Optional[dict], int], ...]


def _serve(bundle: str, *flags: str) -> Run:
    return Run(
        (*CLI, "serve", "--trace", "trace.txt", "--bundle", bundle, *flags)
    )


#: Keys every small trace holds, for the batch requests below.
_BATCH = {"queries": [{"keys": [k, k + 1, k + 2]} for k in range(0, 300, 3)]}

ENTRY_POINTS: Tuple[object, ...] = (
    *(Run(("python", f"examples/{name}")) for name in (
        "quickstart.py",
        "advertising_ctr_serving.py",
        "shopping_dlrm_inference.py",
        "capacity_planning.py",
        "placement_anatomy.py",
        "drift_operations.py",
        "slo_load_planning.py",
    )),
    # CI's service smoke, line for line.
    Run((*CLI, "generate", "--dataset", "amazon_m2", "--scale", "small",
         "--out", "trace.txt")),
    Run((*CLI, "build", "--trace", "trace.txt", "--ratio", "0.1",
         "--out", "bundle.json")),
    *(_serve("bundle.json", "--executor", executor)
      for executor in ("pipelined", "serial", "batched", "ndp")),
    Run((*CLI, "build", "--trace", "trace.txt", "--shards", "2",
         "--out", "cluster.json")),
    _serve("cluster.json", "--replicas", "2", "--hedge-quantile", "0.9"),
    Run((*CLI, "diagnose", "--bundle", "cluster.json", "--trace",
         "trace.txt")),
    _serve("bundle.json", "--offered-qps", "50000", "--admission-capacity",
           "64", "--brownout"),
    _serve("bundle.json", "--fault-plan", "seed=1,read_error=0.05"),
    _serve("bundle.json", "--fault-plan",
           "examples/plans/read_errors_brownout.json"),
    _serve("cluster.json", "--replicas", "2", "--shard-fault-plan",
           "examples/plans/shard_crashes.json"),
    Run((*CLI, "build", "--trace", "trace.txt", "--ratio", "0.1",
         "--tier-ratio", "0.05", "--out", "tiered.json")),
    _serve("tiered.json"),
    Run(_serve("bundle.json", "--selector", "onepass").argv, status=2),
    Live(
        serve=("--bundle", "bundle.json", "--admission-capacity", "64"),
        loadgen=("--concurrency", "8", "--duration", "2"),
        requests=(("GET", "/metrics", None, 200),),
    ),
    Live(
        serve=("--bundle", "bundle.json", "--refresh", "--refresh-interval",
               "0.5", "--admission-policy", "priority",
               "--admission-capacity", "64", "--tenant", "gold:5000:32"),
        loadgen=("--concurrency", "4", "--duration", "1", "--tenant", "gold"),
        requests=(),
    ),
    # Surfaces no CI step runs otherwise.
    Run((*CLI, "analyze", "--trace", "trace.txt")),
    Run((*CLI, "experiment", "fig17b", "--scale", "small")),
    Run((*CLI, "experiments", "--scale", "small", "--report", "report.md")),
    _serve("bundle.json", "--offered-qps", "2000000", "--admission-capacity",
           "4", "--admission-policy", "priority"),
    _serve("bundle.json", "--executor", "ndp", "--fault-plan",
           "seed=1,read_error=0.05"),
    _serve("cluster.json", "--replicas", "2", "--shard-fault-plan",
           "crash=0.25,horizon_us=500,seed=1"),
    Live(
        serve=("--bundle", "cluster.json", "--replicas", "2", "--refresh",
               "--refresh-interval", "0", "--tenant", "gold:5000:32"),
        loadgen=("--concurrency", "4", "--duration", "1", "--tenant", "gold"),
        requests=(
            ("POST", "/query", _BATCH, 200),
            ("POST", "/query", {**_BATCH, "stream": True}, 200),
            ("GET", "/metrics?format=prometheus", None, 200),
            ("POST", "/refresh", {}, 200),
            ("GET", "/health", None, 200),
            ("POST", "/query", {"keys": [10**9]}, 503),
            ("GET", "/no-such-route", None, 404),
        ),
    ),
    # The benches, in one process as their conftest memoizes layouts
    # (it writes benchmarks/results/ in the copy).
    Run(("python", "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
         *sorted(p.relative_to(ROOT).as_posix()
                 for p in (ROOT / "benchmarks").glob("bench_*.py"))),
        env={"REPRO_BENCH_SCALE": "small"}),
    Run(("python", "benchmarks/e2e/run.py", "--quick")),
    Run(("python", "benchmarks/e2e/run.py", "--quick", "--trace", "1")),
)

HOOK = '''\
import os
import sys
import threading

_OUT = os.environ.get("EXEC_REACH_OUT")
if _OUT:
    _SRC = os.environ["EXEC_REACH_SRC"]
    _seen = set()
    _file = [None, None]  # pid, descriptor: a forked child opens its own

    def _note(code):
        _seen.add(code)
        if code.co_filename.startswith(_SRC):
            if _file[0] != os.getpid():
                _file[0] = os.getpid()
                _file[1] = os.open(
                    os.path.join(_OUT, "%d.txt" % _file[0]),
                    os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                )
            line = "%s\\t%d\\n" % (code.co_filename, code.co_firstlineno)
            os.write(_file[1], line.encode())

    def _record(frame, event, arg):
        if event == "call" and frame.f_code not in _seen:
            _note(frame.f_code)

    def _chain(func):
        if func is None or func is _record:
            return _record

        def hook(frame, event, arg):
            _record(frame, event, arg)
            return func(frame, event, arg)

        return hook

    _setprofile, _thread_setprofile = sys.setprofile, threading.setprofile
    sys.setprofile = lambda func: _setprofile(_chain(func))
    threading.setprofile = lambda func: _thread_setprofile(_chain(func))
    sys.setprofile(None)
    threading.setprofile(None)
'''


@dataclass(frozen=True)
class Function:
    """One ``def`` under ``src/repro``."""

    name: str  # dotted: module, enclosing classes / functions, name
    path: str  # relative to src/
    lines: Tuple[int, ...]  # a code object's co_firstlineno is one of these
    body: int  # body lines, docstring excluded
    top: bool  # a module-level def
    init_of: Optional[str]  # the top-level class whose own __init__ it is


def _module(relative: Path) -> str:
    parts = relative.with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _defs(
    node: ast.AST, prefix: str, depth: int = 0
) -> Iterator[Tuple[str, ast.AST, int, Optional[str]]]:
    """(dotted name, def node, depth, enclosing top-level class) of every
    ``def`` under ``node``; depth 0 is module level."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            for name, func, level, _ in _defs(
                child, f"{prefix}.{child.name}", depth + 1
            ):
                yield name, func, level, child.name if depth == 0 else None
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = f"{prefix}.{child.name}"
            yield name, child, depth, None
            for inner, func, level, _ in _defs(child, name, depth + 1):
                yield inner, func, level, None
        else:
            yield from _defs(child, prefix, depth)


def functions(src: Path) -> List[Function]:
    """Every ``def`` under ``src/repro`` outside ``repro.reference``."""
    found: List[Function] = []
    for path in sorted((src / "repro").rglob("*.py")):
        relative = path.relative_to(src)
        if relative.parts[:2] == ("repro", "reference"):
            continue
        module = _module(relative)
        tree = ast.parse(path.read_text())
        for name, func, depth, owner in _defs(tree, module):
            body = func.body
            if len(body) > 1 and ast.get_docstring(func) is not None:
                body = body[1:]
            found.append(Function(
                name=name,
                path=str(relative),
                lines=tuple(sorted(
                    {func.lineno, *(d.lineno for d in func.decorator_list)}
                )),
                body=func.end_lineno - body[0].lineno + 1,
                top=depth == 0,
                init_of=(f"{module}.{owner}"
                         if owner and depth == 1 and func.name == "__init__"
                         else None),
            ))
    return found


def unentered(
    defs: Iterable[Function], entered: Set[Tuple[str, int]]
) -> List[Function]:
    """The ``defs`` no code object in ``entered`` starts at."""
    return [
        f for f in defs
        if not any((f.path, line) in entered for line in f.lines)
    ]


def gated(defs: Iterable[Function], entered: Set[Tuple[str, int]]) -> Set[str]:
    """Top-level functions never entered and top-level classes whose own
    ``__init__`` never ran."""
    return {
        f.name if f.top else f.init_of
        for f in unentered(defs, entered)
        if f.top or f.init_of
    }


def failures(
    defs: Sequence[Function],
    entered: Set[Tuple[str, int]],
    allowlist: Dict[str, str] = ALLOWLIST,
) -> List[str]:
    """One line per gated name not allowlisted and per stale entry."""
    dead = gated(defs, entered)
    known = {f.name for f in defs if f.top} | {
        f.init_of for f in defs if f.init_of
    }
    lines = [
        f"unentered: {name} (run it from an entry point, delete it, or add "
        f"it to ALLOWLIST with a reason)"
        for name in sorted(dead - set(allowlist))
    ]
    # A method entry (check_reach gates methods) is not judged here.
    methods = {f.name for f in defs if not f.top} - known
    lines += [
        f"stale ALLOWLIST entry: {name} is entered or gone"
        for name in allowlist
        if name not in dead and name not in methods
    ]
    return lines


def profiled_env(work: Path, src: Path) -> Dict[str, str]:
    """The environment of a Python process that imports ``repro`` from
    ``src`` and records what it enters into ``work/entered``."""
    hook, out = work / "hook", work / "entered"
    hook.mkdir()
    out.mkdir()
    (hook / "sitecustomize.py").write_text(HOOK)
    return {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([str(hook), str(src)]),
        "PYTHONDONTWRITEBYTECODE": "1",
        "EXEC_REACH_OUT": str(out),
        "EXEC_REACH_SRC": str(src / "repro") + os.sep,
    }


def read_entered(out: Path, src: Path) -> Set[Tuple[str, int]]:
    """(path relative to src/, co_firstlineno) of every entered code."""
    entered: Set[Tuple[str, int]] = set()
    prefix = str(src) + os.sep
    for record in out.glob("*.txt"):
        for line in record.read_text().splitlines():
            filename, _, lineno = line.rpartition("\t")
            if filename.startswith(prefix):
                entered.add((filename[len(prefix):], int(lineno)))
    return entered


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _request(port: int, method: str, path: str, body: Optional[dict]) -> int:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        payload = None if body is None else json.dumps(body).encode()
        conn.request(method, path, body=payload)
        reply = conn.getresponse()
        reply.read()
        return reply.status
    finally:
        conn.close()


def _argv(argv: Sequence[str]) -> List[str]:
    """``maxembed …`` or ``python …`` under this interpreter."""
    if argv[0] == "maxembed":
        return [sys.executable, "-m", "repro.cli", *argv[1:]]
    return [sys.executable, *argv[1:]]


def _run(step: Run, work: Path, env: Dict[str, str]) -> Optional[str]:
    try:
        done = subprocess.run(
            _argv(step.argv), cwd=work, env={**env, **(step.env or {})},
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            timeout=STEP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return f"killed after {STEP_TIMEOUT_S} s"
    if done.returncode != step.status:
        # The last line, and pytest's FAILED lines before it.
        lines = done.stdout.strip().splitlines() or [""]
        shown = [line for line in lines if line.startswith("FAILED ")]
        return f"exit {done.returncode}: " + " | ".join([*shown, lines[-1]])
    return None


def _live(step: Live, work: Path, env: Dict[str, str]) -> Optional[str]:
    port = _free_port()
    log = work / f"gateway-{port}.log"
    with open(log, "w") as handle:
        gateway = subprocess.Popen(
            _argv((*CLI, "serve", *step.serve, "--listen",
                   f"127.0.0.1:{port}")),
            cwd=work, env=env, stdout=handle, stderr=subprocess.STDOUT,
        )
    problems = []
    try:
        deadline = time.monotonic() + 120
        while "gateway listening" not in log.read_text():
            if gateway.poll() is not None or time.monotonic() > deadline:
                return f"gateway did not start: {log.read_text()[-200:]}"
            time.sleep(0.2)
        problem = _run(
            Run((*CLI, "loadgen", "--target", f"127.0.0.1:{port}",
                 "--trace", "trace.txt", *step.loadgen)), work, env,
        )
        if problem:
            problems.append(f"loadgen {problem}")
        for method, path, body, expected in step.requests:
            status = _request(port, method, path, body)
            if status != expected:
                problems.append(f"{method} {path}: HTTP {status}")
        _request(port, "POST", "/drain", None)
        if gateway.wait(timeout=120) != 0:
            problems.append(f"gateway exit {gateway.returncode}")
    except (OSError, http.client.HTTPException,
            subprocess.TimeoutExpired) as exc:
        problems.append(f"{type(exc).__name__}: {exc}")
    finally:
        if gateway.poll() is None:
            gateway.kill()
            gateway.wait()
    return "; ".join(problems) or None


def _label(step: object) -> str:
    if isinstance(step, Live):
        return "serve --listen " + " ".join(step.serve)
    return " ".join(step.argv)


def run_entry_points() -> Set[Tuple[str, int]]:
    """Run :data:`ENTRY_POINTS` on a copy of the repository; what they
    entered."""
    work = Path(tempfile.mkdtemp(prefix="exec-reach-"))
    try:
        for folder in ("src", "benchmarks", "examples"):
            shutil.copytree(
                ROOT / folder, work / folder,
                ignore=shutil.ignore_patterns("__pycache__", "out"),
            )
        shutil.copy(ROOT / "BENCHMARK.json", work)
        env = profiled_env(work, work / "src")
        for step in ENTRY_POINTS:
            started = time.monotonic()
            if isinstance(step, Live):
                problem = _live(step, work, env)
            else:
                problem = _run(step, work, env)
            seconds = time.monotonic() - started
            note = f"  ({problem})" if problem else ""
            print(f"{seconds:7.1f} s  {_label(step)}{note}", flush=True)
        return read_entered(work / "entered", work / "src")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    started = time.monotonic()
    entered = run_entry_points()
    elapsed = time.monotonic() - started
    defs = functions(ROOT / "src")
    never = unentered(defs, entered)
    print(
        f"\n{len(never)} of {len(defs)} functions under src/repro "
        f"({sum(f.body for f in never)} body lines) were never entered:"
    )
    for f in never:
        print(f"  {f.body:4d}  {f.name}  ({f.path}:{f.lines[-1]})")
    lines = failures(defs, entered)
    for line in lines:
        print(line)
    print(f"{len(ENTRY_POINTS)} entry points ran in {elapsed:.0f} s")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
