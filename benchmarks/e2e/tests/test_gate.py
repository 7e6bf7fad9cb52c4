"""The output gate turns every kind of wrong answer into ``failed > 0``."""

import json

import numpy as np
import pytest

from repro import MaxEmbedConfig, MaxEmbedStore, make_trace

from e2ebench import spec as contract
from e2ebench.deploy import (
    check_lookup,
    check_report,
    check_response,
    make_table,
)


@pytest.fixture(scope="module")
def small():
    trace, _ = make_trace("criteo", "small", seed=0)
    history, live = trace.split(0.5)
    config = MaxEmbedConfig(build_workers=0, offline_workers=1)
    table = make_table(trace.num_keys, config.spec.dim)
    store = MaxEmbedStore.build(history, config, table)
    return store, table, list(live)[:50]


def test_clean_lookup_passes(small):
    store, table, queries = small
    assert check_lookup(store.lookup, table, queries) == 0


def test_corrupted_table_fails(small):
    store, table, queries = small
    corrupted = table.copy()
    corrupted[queries[0].keys[0], 0] += np.float32(1.0)
    assert check_lookup(store.lookup, corrupted, queries) > 0


def test_dropped_key_fails(small):
    store, table, queries = small

    def lossy(query):
        vectors = store.lookup(query)
        vectors.pop(query.keys[0])
        return vectors

    assert check_lookup(lossy, table, queries) == len(queries)


def test_http_503_and_short_service_fail():
    body = json.dumps({"served": 3, "missing": 0}).encode()
    assert check_response(b"200", body, 3)
    assert not check_response(b"503", body, 3)
    assert not check_response(b"200", body, 4)
    missing = json.dumps({"served": 2, "missing": 1}).encode()
    assert not check_response(b"200", missing, 3)


def test_degraded_report_fails(small):
    store, _, queries = small
    report = store.engine.serve_trace(queries)
    assert check_report(report, len(queries)) == 0
    report.total_missing_keys = 1
    report.degraded_queries = 1
    assert check_report(report, len(queries)) == 1
    assert check_report(report, len(queries) + 1) == len(queries) + 1


def test_failed_operations_make_the_result_incorrect(spec):
    values = {m["name"]: 1.0 for m in spec["end_to_end"]}
    line = json.loads(contract.result_line(spec, False, values, 10, 1))
    assert line["correct"] is False and line["failed"] == 1
    with pytest.raises(RuntimeError):
        contract.result_line(spec, False, {"wall_qps": 1.0}, 10, 0)
