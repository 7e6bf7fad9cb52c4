"""Self time, request ids and the separation of traced from untraced."""

import subprocess
import sys

import pytest

from e2ebench import layers
from e2ebench.deploy import WORKLOADS, deploy, make_inputs
from e2ebench.tracing import NAME, PARENT, REQUEST, Tracer, self_times

from conftest import BENCH_DIR, ROOT


def span(name, start, end, parent=None, request=0):
    return [name, start, end, parent, request, None]


def test_overlapping_children_count_the_union_once():
    parent = span("parent", 0, 100)
    spans = [
        parent,
        span("child", 10, 60, parent),
        span("child", 40, 90, parent),
    ]
    owned = self_times(spans, 0, 100)
    assert owned["child"] == 80
    assert owned["parent"] == 20
    assert owned[""] == 0


def test_self_times_partition_the_interval():
    root = span("root", 10, 90)
    mid = span("mid", 20, 70, root)
    spans = [root, mid, span("leaf", 30, 40, mid), span("other", 95, 120)]
    owned = self_times(spans, 0, 100)
    assert owned == {"": 15, "root": 30, "mid": 40, "leaf": 10, "other": 5}
    assert sum(owned.values()) == 100


def test_worker_thread_spans_hang_under_the_open_span():
    import threading

    tracer = Tracer()
    outer = tracer.open("outer", new_request=True)
    worker = threading.Thread(target=tracer.wrap(lambda: None, "inner"))
    worker.start()
    worker.join(timeout=10)
    tracer.close(outer)
    inner = next(s for s in tracer.spans if s[NAME] == "inner")
    assert inner[PARENT] is outer and inner[REQUEST] == outer[REQUEST] == 1


@pytest.fixture(scope="module")
def traced_round():
    """Spans of one traced engine round at quick size."""
    workload = WORKLOADS["engine-dram"]
    history, draw = make_inputs(0)
    deployment = deploy(workload, history)
    tracer = Tracer()
    items = deployment.round_items(draw, workload.quick_queries)
    with layers.instrumented(tracer, deployment):
        deployment.run_round(items)
    deployment.close()
    return tracer.spans, len(items)


def test_spans_of_one_request_share_its_id(traced_round):
    spans, queries = traced_round
    roots = [s for s in spans if s[NAME] == "serving.query"]
    assert len(roots) == queries
    assert sorted(s[REQUEST] for s in roots) == list(range(1, queries + 1))
    for s in spans:
        node = s
        while node[PARENT] is not None and node[NAME] != "serving.query":
            node = node[PARENT]
        if node[NAME] == "serving.query":
            assert s[REQUEST] == node[REQUEST]
    names = {s[NAME] for s in spans}
    assert {"tiering.split", "cache.lookup", "selection.select"} <= names


def test_layer_self_times_cover_the_traced_round(traced_round):
    spans, queries = traced_round
    root = next(s for s in spans if s[NAME] == "serving.trace")
    metrics = layers.host_time_metrics(spans, root[1], root[2], queries)
    assert metrics["host.untraced_frac"] == 0.0
    total_us = (root[2] - root[1]) / queries / 1e3
    layer_us = sum(v for k, v in metrics.items() if k.endswith("_us"))
    assert layer_us == pytest.approx(total_us, rel=1e-6)


def test_untraced_run_never_loads_the_tracer():
    code = (
        "import sys; sys.argv=['run.py','--quick','--workload','engine-ssd'];"
        f"sys.path.insert(0, {str(BENCH_DIR)!r}); import run;"
        "rc = run.main(['--quick','--workload','engine-ssd','--seconds','0.2']);"
        "assert rc == 0;"
        "assert 'e2ebench.tracing' not in sys.modules;"
        "assert 'e2ebench.layers' not in sys.modules"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_overhead_is_reported_against_untraced_rounds(quick_outputs):
    text = quick_outputs["1"]
    assert "trace.overhead_frac" in text
    assert "untraced_us_per_query" in text and "traced_us_per_query" in text
