"""Ablation benches for the design choices DESIGN.md §5 calls out.

These are not paper figures; they justify the choices the paper made by
toggling each one off on the same workload.  The selector ablation is
``bench_selector.py``: its baselines are oracles in ``repro.reference``.
"""

from conftest import publish

from repro.experiments import ablations


def test_ablation_scoring(benchmark, scale, max_queries):
    result = benchmark.pedantic(
        ablations.run_scoring,
        kwargs=dict(scale=scale, max_queries=max_queries),
        rounds=1,
        iterations=1,
    )
    publish(result)
    by_name = {row[0]: row for row in result.rows}
    assert by_name["connectivity"][1] >= by_name["hotness"][1]


def test_ablation_home_cluster_exclusion(benchmark, scale, max_queries):
    result = benchmark.pedantic(
        ablations.run_home_cluster_exclusion,
        kwargs=dict(scale=scale, max_queries=max_queries),
        rounds=1,
        iterations=1,
    )
    publish(result)
    by_name = {row[0]: row for row in result.rows}
    assert by_name["True"][1] >= by_name["False"][1] * 0.99


def test_extension_greedy_benefit(benchmark, scale, max_queries):
    result = benchmark.pedantic(
        ablations.run_benefit_extension,
        kwargs=dict(scale=scale, max_queries=max_queries),
        rounds=1,
        iterations=1,
    )
    publish(result)
    by_name = {row[0]: row for row in result.rows}
    # The marginal-benefit extension matches or beats the paper's
    # strategy at both budgets.
    for column in (1, 2):
        assert (
            by_name["greedy_benefit"][column]
            >= by_name["maxembed"][column] * 0.98
        )


def test_extension_history_sensitivity(benchmark, scale, max_queries):
    result = benchmark.pedantic(
        ablations.run_history_sensitivity,
        kwargs=dict(scale=scale, max_queries=max_queries),
        rounds=1,
        iterations=1,
    )
    publish(result)
    bandwidths = result.column("eff_bw")
    # More history never hurts much, and a 25% sample already lands within
    # 15% of the full-log placement quality.
    assert bandwidths[-1] >= bandwidths[0] * 0.95
    assert bandwidths[1] >= bandwidths[-1] * 0.85


def test_extension_load_latency(benchmark, scale):
    result = benchmark.pedantic(
        ablations.run_load_latency,
        kwargs=dict(scale=scale),
        rounds=1,
        iterations=1,
    )
    publish(result)
    by_name = {row[0]: row for row in result.rows}
    # MaxEmbed's capacity exceeds SHP's, and each system's p99 rises
    # monotonically with offered load.
    assert by_name["maxembed"][1] > by_name["shp"][1]
    for row in result.rows:
        latencies = row[2:]
        assert latencies == sorted(latencies), f"p99 not monotone: {row}"


def test_extension_page_size(benchmark, scale, max_queries):
    result = benchmark.pedantic(
        ablations.run_page_size_sensitivity,
        kwargs=dict(scale=scale, max_queries=max_queries),
        rounds=1,
        iterations=1,
    )
    publish(result)
    reads = result.column("reads_per_query")
    valid = result.column("valid_per_read")
    fraction = result.column("eff_bw_fraction")
    # Bigger pages: fewer reads per query, more valid embeddings per
    # read, but a lower useful fraction of each transfer.
    assert reads == sorted(reads, reverse=True)
    assert valid == sorted(valid)
    assert fraction == sorted(fraction, reverse=True)


def test_ablation_cache_policy(benchmark, scale, max_queries):
    result = benchmark.pedantic(
        ablations.run_cache_policy,
        kwargs=dict(scale=scale, max_queries=max_queries),
        rounds=1,
        iterations=1,
    )
    publish(result)
    by_name = {row[0]: row for row in result.rows}
    # All policies land in the same throughput ballpark (placement is the
    # lever), and the frequency-aware policies never trail FIFO.
    qps = [row[2] for row in result.rows]
    assert max(qps) <= min(qps) * 1.25
    assert by_name["lfu"][1] >= by_name["fifo"][1]


def test_extension_partitioner_comparison(benchmark, scale, max_queries):
    result = benchmark.pedantic(
        ablations.run_partitioner_comparison,
        kwargs=dict(scale=scale, max_queries=max_queries),
        rounds=1,
        iterations=1,
    )
    publish(result)
    for row in result.rows:
        dataset, random_bw, vanilla_bw, streaming_bw, shp_bw, ml_bw = row
        oblivious = max(random_bw, vanilla_bw)
        assert shp_bw > oblivious, f"SHP lost to oblivious on {dataset}"
        assert ml_bw > oblivious, f"multilevel lost to oblivious on {dataset}"
        # Streaming bootstrap: above oblivious, below the offline best.
        assert streaming_bw > oblivious, (
            f"streaming lost to oblivious on {dataset}"
        )
        assert streaming_bw <= max(shp_bw, ml_bw) * 1.02


def test_ablation_page_grain_admission(benchmark, scale):
    result = benchmark.pedantic(
        ablations.run_page_grain_admission,
        kwargs=dict(scale=scale),
        rounds=1,
        iterations=1,
    )
    publish(result)
    rows = {(row[0], row[1]): row for row in result.rows}
    # Scan-resistant policies never lose from page-grain admission; the
    # plain-LRU direction is workload-dependent (pollution at bench
    # scale), so we only bound how far it can move.
    assert rows[("slru", "page")][2] >= rows[("slru", "key")][2] * 0.95
    assert rows[("lfu", "page")][2] >= rows[("lfu", "key")][2] * 0.95
    assert (
        rows[("lru", "page")][2] <= rows[("lru", "key")][2] * 1.25
    ), "page-grain admission should not transform LRU's hit rate"


def test_ablation_tiering(benchmark, scale, max_queries):
    result = benchmark.pedantic(
        ablations.run_tiering,
        kwargs=dict(scale=scale, max_queries=max_queries),
        rounds=1,
        iterations=1,
    )
    publish(result)
    by_name = {row[0]: row for row in result.rows}
    # At equal DRAM budget the statistical tier must hold its own
    # against reactive LRU: no fewer DRAM hits (beyond noise), no more
    # page reads.  (The decisive wins show up on the pure-Zipf presets
    # in bench_tiering; criteo's grouped head is LRU-friendly.)
    assert by_name["pinned"][1] >= by_name["lru"][1] * 0.95
    assert by_name["pinned"][2] <= by_name["lru"][2] * 1.02
    assert by_name["hybrid"][2] <= by_name["lru"][2] * 1.02


def test_ablation_partitioner_refinement(benchmark, scale, max_queries):
    result = benchmark.pedantic(
        ablations.run_partitioner_refinement,
        kwargs=dict(scale=scale, max_queries=max_queries),
        rounds=1,
        iterations=1,
    )
    publish(result)
    by_name = {row[0]: row for row in result.rows}
    assert by_name["shp_full"][1] > by_name["random"][1]
    # The KL small-block refinement should not hurt the bulk-only result.
    assert by_name["shp_full"][1] >= by_name["shp_bulk_only"][1] * 0.98
