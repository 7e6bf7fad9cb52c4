"""Table 1 bench: offline partition + replication wall time vs page capacity."""

from conftest import publish

from repro.experiments import table1_partition_time


def test_table1_partition_time(benchmark, scale):
    result = benchmark.pedantic(
        table1_partition_time.run,
        kwargs=dict(scale=scale),
        rounds=1,
        iterations=1,
    )
    publish(result)
    # Paper shape: time is nearly flat in d (Criteo: 5 / 4.9 / 4.8 min),
    # and the larger dataset (CriteoTB) costs more than Criteo.
    for row in result.rows:
        times = row[1:]
        assert max(times) <= max(4 * min(times), min(times) + 2.0), (
            f"partition time should be roughly flat in d, got {row}"
        )
    totals = {row[0]: sum(row[1:]) for row in result.rows}
    assert totals["criteo_tb"] > totals["criteo"]
