"""Tests for repro.experiments: report container, runner, and each artifact.

Experiments run at 'small' scale with trimmed query counts, asserting the
paper's qualitative shapes rather than absolute numbers.
"""

import pytest

from repro.errors import ExperimentError
from repro.experiments import (
    ExperimentResult,
    clear_caches,
    run_all,
    run_experiment,
)
from repro.experiments import (
    fig03_motivation,
    fig08_effective_bandwidth,
    fig09_valid_embeddings,
    fig10_throughput,
    fig11_latency,
    fig12_cache_ratio,
    fig13_no_cache,
    fig14_strategies,
    fig15_time_breakdown,
    fig16_index_shrinking,
    fig17_sensitivity,
    table1_partition_time,
    table2_tco,
)
from repro.experiments.table2_tco import TcoModel

SMALL = dict(scale="small", seed=3)


@pytest.fixture(scope="module", autouse=True)
def _fresh_caches():
    clear_caches()
    yield
    clear_caches()


class TestReport:
    def test_render_contains_rows(self):
        result = ExperimentResult(
            "figX", "demo", ["a", "b"], [[1, 2], [3, 4]], notes="shape"
        )
        text = result.render()
        assert "figX" in text
        assert "shape" in text
        assert "3" in text

    def test_column_extraction(self):
        result = ExperimentResult("x", "t", ["a", "b"], [[1, 2], [3, 4]])
        assert result.column("b") == [2, 4]

    def test_column_unknown_raises(self):
        result = ExperimentResult("x", "t", ["a"], [[1]])
        with pytest.raises(ValueError):
            result.column("zzz")

    def test_to_markdown(self):
        result = ExperimentResult(
            "figX", "demo", ["a", "b"], [[1, 2]], notes="shape text"
        )
        md = result.to_markdown()
        assert md.startswith("### figX")
        assert "| a | b |" in md
        assert "| 1 | 2 |" in md
        assert "*Shape:* shape text" in md


class TestRunner:
    def test_unknown_experiment(self):
        with pytest.raises(ExperimentError):
            run_experiment("fig99")

    def test_kwarg_filtering(self):
        # table2 takes no `scale`; the runner must drop it silently.
        result = run_experiment("table2", scale="small")
        assert result.exp_id == "table2"

    def test_run_all_subset(self, capsys):
        results = run_all(only=["table2"], verbose=True)
        assert len(results) == 1
        assert "table2" in capsys.readouterr().out


class TestFig3:
    def test_shp_beats_vanilla_everywhere(self):
        result = fig03_motivation.run(
            datasets=("criteo", "amazon_m2"), **SMALL
        )
        for row in result.rows:
            assert row[2] > row[1], f"SHP lost on {row[0]}"


class TestFig8:
    def test_bandwidth_grows_with_ratio(self):
        result = fig08_effective_bandwidth.run(
            datasets=("criteo",), ratios=(0.1, 0.8), **SMALL
        )
        row = result.rows[0]
        shp, r10, r80 = row[1], row[2], row[3]
        assert r10 > shp
        assert r80 > r10


class TestFig9:
    def test_replication_reduces_single_valid_reads(self):
        result = fig09_valid_embeddings.run(dataset="criteo", **SMALL)
        shp_row = result.rows[0]
        me_row = result.rows[1]
        assert me_row[1] > shp_row[1]  # mean valid per read rises
        assert me_row[2] < shp_row[2]  # CDF at 1 shifts down


class TestFig10:
    def test_throughput_improves(self):
        result = fig10_throughput.run(
            datasets=("criteo",), ratios=(0.8,), max_queries=150, **SMALL
        )
        assert result.rows[0][2] > 1.0


class TestFig11:
    def test_latency_drops(self):
        result = fig11_latency.run(
            datasets=("criteo",), ratios=(0.8,), max_queries=150, **SMALL
        )
        assert result.rows[0][2] < 1.0


class TestFig12:
    def test_maxembed_beats_shp_at_every_cache_ratio(self):
        result = fig12_cache_ratio.run(
            datasets=("criteo",),
            ratios=(0.8,),
            cache_ratios=(0.02, 0.2),
            max_queries=150,
            **SMALL,
        )
        rows = {(row[1], row[2]): row for row in result.rows}
        shp = rows[("shp", "lru")]
        me = rows[("me_r80", "lru")]
        assert me[3] > shp[3]
        assert me[4] > shp[4]
        # The hybrid tier gets the same DRAM budget; it must not trail
        # the reactive baseline by more than noise at either budget.
        hybrid = rows[("me_r80", "hybrid")]
        assert hybrid[3] >= me[3] * 0.9
        assert hybrid[4] >= me[4] * 0.9


class TestFig13:
    def test_cacheless_gains_and_dram_reference(self):
        result = fig13_no_cache.run(
            datasets=("criteo",),
            ratios=(0.0, 0.8),
            max_queries=150,
            **SMALL,
        )
        row = result.rows[0]
        r0, r80, pinned, dram = row[1], row[2], row[3], row[4]
        assert r80 > r0
        assert dram > r80  # pure DRAM dominates any SSD configuration
        # A small pinned tier lifts the cacheless engine, and stays
        # below the all-DRAM ceiling.
        assert pinned >= r80
        assert pinned < dram


class TestFig14:
    def test_me_beats_rpp(self):
        result = fig14_strategies.run(
            datasets=("alibaba_ifashion",), ratios=(0.4,), **SMALL
        )
        values = {row[1]: row[2] for row in result.rows}
        assert values["me"] >= values["rpp"]
        assert values["me"] > 1.0


class TestFig15:
    def test_optimizations_reduce_latency(self):
        result = fig15_time_breakdown.run(max_queries=120, **SMALL)
        raw, pipe, limited = (row[2] for row in result.rows)
        assert raw == 1.0
        assert pipe < raw
        # The index limit mostly trades bandwidth for selection CPU; at
        # small scale its latency effect can be within noise of +pipeline.
        assert limited <= pipe * 1.05


class TestFig16:
    def test_shrinking_retains_most_bandwidth(self):
        result = fig16_index_shrinking.run(
            ratios=(0.2, 0.8), limits=(None, 10, 5), **SMALL
        )
        for row in result.rows[1:]:
            for cell in row[1:]:
                assert cell >= 0.9


class TestFig17:
    def test_dimensions_monotone_in_ratio(self):
        result = fig17_sensitivity.run_dimensions(
            dims=(32, 128), ratios=(0.0, 0.75), **SMALL
        )
        for row in result.rows:
            assert row[2] > row[1]

    def test_larger_dim_serves_fewer_embeddings_per_read(self):
        # The capacity argument behind the paper's Fig 17a: fewer slots
        # per page (d = 32 → 8) means fewer valid embeddings per read.
        result = fig17_sensitivity.run_dimensions(
            dims=(32, 128), ratios=(0.0,), **SMALL
        )
        # Convert MB/s back to valid-per-read: fraction × page / emb_bytes.
        mb32, mb128 = result.rows[0][1], result.rows[1][1]
        valid32 = mb32 / 7200 * 4096 / 128
        valid128 = mb128 / 7200 * 4096 / 512
        assert valid32 > valid128

    def test_ssd_types_preserve_ordering(self):
        result = fig17_sensitivity.run_ssd_types(**SMALL)
        for row in result.rows:
            vanilla, shp, me = row[1], row[2], row[3]
            assert vanilla < shp < me
        # RAID0 row should dominate single P5800X row in absolute MB/s.
        by_name = {row[0]: row for row in result.rows}
        assert by_name["RAID0"][3] > by_name["P5800X"][3]


class TestClusterScaling:
    def test_throughput_scales_with_shards(self):
        from repro.experiments import fig_cluster_scaling

        result = fig_cluster_scaling.run(
            dataset="criteo",
            shard_counts=(1, 4),
            max_queries=150,
            **SMALL,
        )
        assert len(result.rows) == 6  # 3 strategies x 2 shard counts
        for strategy in ("modulo", "frequency", "cooccurrence"):
            rows = [r for r in result.rows if r[0] == strategy]
            one, four = rows[0], rows[1]
            assert four[2] > one[2], f"{strategy} did not scale"
            assert four[5] >= 1.0  # imbalance reported
        assert "cluster-scaling" in str(result.render())

    def test_registered_in_runner(self):
        from repro.experiments.runner import ALL_EXPERIMENTS

        assert "cluster-scaling" in ALL_EXPERIMENTS


class TestTable1:
    def test_measures_all_cells(self):
        result = table1_partition_time.run(
            datasets=("criteo", "criteo_tb"), dims=(64, 32), **SMALL
        )
        # The paper's shape: dataset x d, one pipeline.
        assert result.headers == ["dataset", "16_per_page", "32_per_page"]
        assert [row[0] for row in result.rows] == ["criteo", "criteo_tb"]
        for row in result.rows:
            assert len(row) == 3
            assert all(cell >= 0 for cell in row[1:])

    def test_paths_argument_is_gone(self):
        with pytest.raises(TypeError):
            table1_partition_time.run(
                datasets=("criteo",), dims=(64,), paths=("fast",), **SMALL
            )


class TestTable2:
    def test_paper_arithmetic(self):
        result = table2_tco.run(performance_factor=1.16)
        rows = {row[0]: row for row in result.rows}
        # Paper's Table 2: $1,869.25 baseline on P5800X; 1.04x and 1.12x
        # performance/cost.
        assert rows["total_cost_p5800x_$"][1] == pytest.approx(
            1869.25, abs=1.0
        )
        assert rows["perf_per_cost_p5800x"][2] == pytest.approx(1.04, abs=0.02)
        assert rows["perf_per_cost_pm1735"][2] == pytest.approx(1.12, abs=0.02)

    def test_custom_model(self):
        model = TcoModel(table_gb=100, replication_ratio=0.5)
        result = table2_tco.run(performance_factor=1.1, model=model)
        assert result.rows

    def test_rejects_bad_factor(self):
        with pytest.raises(ExperimentError):
            table2_tco.run(performance_factor=0)

    def test_model_helpers(self):
        model = TcoModel()
        assert model.replicated_table_gb() == pytest.approx(405.0)
        assert model.storage_cost(800, 800, 1000) == 1000
        assert model.storage_cost(801, 800, 1000) == 2000
        with pytest.raises(ExperimentError):
            model.storage_cost(0, 800, 1000)
