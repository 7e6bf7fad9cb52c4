"""Tests for the maxembed CLI."""

import json

import pytest

from repro.bundle import load_bundle
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_args(self):
        args = build_parser().parse_args(
            ["generate", "--dataset", "avazu", "--out", "t.txt"]
        )
        assert args.command == "generate"
        assert args.dataset == "avazu"

    def test_rejects_unknown_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["generate", "--dataset", "netflix", "--out", "t.txt"]
            )

    def test_experiment_ids_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--bundle", "l.json", "--selection-path", "reference"],
            ["build", "--trace", "t", "--out", "l.json", "--offline-path", "fast"],
            ["serve", "--bundle", "l.json", "--selector", "warp"],
        ],
    )
    def test_removed_path_flags_and_unknown_selector_exit_2(self, argv):
        # There is one implementation per algorithm and one page
        # selector: nothing to select.
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        # The same lines minus the offending pair parse.
        build_parser().parse_args(argv[:-2])


class TestCommands:
    def test_generate_build_serve_pipeline(self, tmp_path, capsys):
        trace_path = str(tmp_path / "trace.txt")
        layout_path = str(tmp_path / "layout.json")
        assert main(
            [
                "generate",
                "--dataset",
                "amazon_m2",
                "--scale",
                "small",
                "--out",
                trace_path,
            ]
        ) == 0
        assert "wrote" in capsys.readouterr().out

        assert main(
            [
                "build",
                "--trace",
                trace_path,
                "--ratio",
                "0.2",
                "--out",
                layout_path,
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "built layout" in out

        assert main(
            ["serve", "--trace", trace_path, "--bundle", layout_path]
        ) == 0
        out = capsys.readouterr().out
        assert "throughput_qps" in out
        assert "effective_bandwidth" in out

    def test_build_none_strategy(self, tmp_path, capsys):
        trace_path = str(tmp_path / "trace.txt")
        layout_path = str(tmp_path / "layout.json")
        main(
            [
                "generate",
                "--dataset",
                "amazon_m2",
                "--scale",
                "small",
                "--out",
                trace_path,
            ]
        )
        assert main(
            [
                "build",
                "--trace",
                trace_path,
                "--strategy",
                "none",
                "--out",
                layout_path,
            ]
        ) == 0
        assert "0 replicas" in capsys.readouterr().out

    def test_sharded_build_serve_pipeline(self, tmp_path, capsys):
        trace_path = str(tmp_path / "trace.txt")
        cluster_path = str(tmp_path / "cluster.json")
        main(
            [
                "generate",
                "--dataset",
                "amazon_m2",
                "--scale",
                "small",
                "--out",
                trace_path,
            ]
        )
        assert main(
            [
                "build",
                "--trace",
                trace_path,
                "--shards",
                "4",
                "--shard-strategy",
                "frequency",
                "--out",
                cluster_path,
            ]
        ) == 0
        assert "4-shard cluster layout" in capsys.readouterr().out

        # The shard count is the bundle's: no flag restates it.
        assert main(
            ["serve", "--trace", trace_path, "--bundle", cluster_path]
        ) == 0
        out = capsys.readouterr().out
        assert "cluster serving report (4 shards, frequency)" in out
        assert "load_imbalance" in out
        assert "shard_3" in out

    def test_experiment_command(self, capsys):
        assert main(["experiment", "table2"]) == 0
        assert "TCO" in capsys.readouterr().out

    def test_diagnose_command(self, tmp_path, capsys):
        trace_path = str(tmp_path / "trace.txt")
        layout_path = str(tmp_path / "layout.json")
        main(
            [
                "generate",
                "--dataset",
                "criteo",
                "--scale",
                "small",
                "--out",
                trace_path,
            ]
        )
        main(
            [
                "build",
                "--trace",
                trace_path,
                "--ratio",
                "0.2",
                "--out",
                layout_path,
            ]
        )
        capsys.readouterr()
        assert main(
            ["diagnose", "--bundle", layout_path, "--trace", trace_path]
        ) == 0
        out = capsys.readouterr().out
        assert "num_replica_pages" in out
        assert "hot-pair coverage" in out

    def test_serve_with_selector_flags(self, tmp_path, capsys):
        trace_path = str(tmp_path / "trace.txt")
        layout_path = str(tmp_path / "layout.json")
        main(
            [
                "generate",
                "--dataset",
                "amazon_m2",
                "--scale",
                "small",
                "--out",
                trace_path,
            ]
        )
        main(
            ["build", "--trace", trace_path, "--out", layout_path]
        )
        capsys.readouterr()
        assert main(
            [
                "serve",
                "--trace",
                trace_path,
                "--bundle",
                layout_path,
                "--executor",
                "serial",
                "--cache-policy",
                "slru",
            ]
        ) == 0
        assert "throughput_qps" in capsys.readouterr().out

    def test_serve_executor_is_the_one_execution_flag(self, tmp_path, capsys):
        trace_path = str(tmp_path / "trace.txt")
        layout_path = str(tmp_path / "layout.json")
        main(
            [
                "generate",
                "--dataset",
                "amazon_m2",
                "--scale",
                "small",
                "--out",
                trace_path,
            ]
        )
        main(["build", "--trace", trace_path, "--out", layout_path])
        serve = ["serve", "--trace", trace_path, "--bundle", layout_path]
        for executor in ("batched", "ndp"):
            capsys.readouterr()
            assert main(serve + ["--executor", executor]) == 0
            assert "throughput_qps" in capsys.readouterr().out
        # The removed second knob (spelled in two pieces so a grep for
        # it over the tree stays empty) is a usage error.
        removed_flag = "--device-command" + "-path"
        with pytest.raises(SystemExit) as exit_info:
            main(serve + [removed_flag, "batched"])
        assert exit_info.value.code == 2

    def test_analyze_command(self, tmp_path, capsys):
        trace_path = str(tmp_path / "trace.txt")
        main(
            [
                "generate",
                "--dataset",
                "criteo",
                "--scale",
                "small",
                "--out",
                trace_path,
            ]
        )
        capsys.readouterr()
        assert main(["analyze", "--trace", trace_path]) == 0
        out = capsys.readouterr().out
        assert "gini" in out
        assert "hot_coappearance_breadth" in out
        assert "replication has headroom" in out


class TestGatewayCli:
    def test_listen_and_loadgen_flags_parse(self):
        args = build_parser().parse_args(
            [
                "serve",
                "--bundle",
                "l.json",
                "--listen",
                "0.0.0.0:9000",
                "--no-coalesce",
                "--tenant",
                "gold:5000:32:1.0",
                "--tenant",
                "bronze",
                "--pace-service",
            ]
        )
        assert args.trace is None
        assert args.listen == "0.0.0.0:9000"
        assert args.no_coalesce is True
        assert args.tenant == ["gold:5000:32:1.0", "bronze"]
        args = build_parser().parse_args(
            [
                "loadgen",
                "--target",
                "127.0.0.1:9000",
                "--trace",
                "t.txt",
                "--concurrency",
                "4",
            ]
        )
        assert args.command == "loadgen"
        assert args.concurrency == 4

    def test_serve_without_trace_or_listen_errors(self, tmp_path, capsys):
        assert main(["serve", "--bundle", str(tmp_path / "x.json")]) == 1
        assert "--trace is required" in capsys.readouterr().err

    def test_address_and_tenant_spec_parsing(self):
        from repro.cli import _parse_address, _parse_tenants

        assert _parse_address("127.0.0.1:8080") == ("127.0.0.1", 8080)
        assert _parse_address(":9000") == ("127.0.0.1", 9000)
        with pytest.raises(SystemExit):
            _parse_address("no-port")
        tenants = _parse_tenants(["gold:5000:32:1.5", "bronze"])
        assert tenants[0].name == "gold"
        assert tenants[0].rate_qps == 5000.0
        assert tenants[0].burst == 32
        assert tenants[0].priority == 1.5
        assert tenants[1].rate_qps is None
        with pytest.raises(SystemExit):
            _parse_tenants([":5"])
        with pytest.raises(SystemExit):
            _parse_tenants(["gold:abc"])

    def test_gateway_serves_until_drained(self, tmp_path):
        """`serve --listen` end-to-end: boot, answer /query, drain via
        POST /drain, exit 0 — the same path the CI smoke job drives."""
        import json as jsonlib
        import re
        import subprocess
        import sys
        import urllib.request

        trace_path = str(tmp_path / "trace.txt")
        layout_path = str(tmp_path / "layout.json")
        main(
            [
                "generate",
                "--dataset",
                "amazon_m2",
                "--scale",
                "small",
                "--out",
                trace_path,
            ]
        )
        main(
            ["build", "--trace", trace_path, "--ratio", "0.1", "--out", layout_path]
        )
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--bundle",
                layout_path,
                "--listen",
                "127.0.0.1:0",
                "--admission-capacity",
                "64",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            banner = proc.stdout.readline()
            match = re.search(r"http://127\.0\.0\.1:(\d+)", banner)
            assert match, f"no listen banner in {banner!r}"
            base = f"http://127.0.0.1:{match.group(1)}"
            request = urllib.request.Request(
                f"{base}/query",
                data=jsonlib.dumps({"keys": [0, 1, 2]}).encode(),
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=10) as resp:
                payload = jsonlib.loads(resp.read())
            assert payload["status"] == "ok"
            assert payload["served"] == 3
            with urllib.request.urlopen(
                f"{base}/metrics", timeout=10
            ) as resp:
                metrics = jsonlib.loads(resp.read())
            svc = metrics["service"]
            assert svc["offered"] == svc["accounted"] == 1
            drain = urllib.request.Request(
                f"{base}/drain", data=b"", method="POST"
            )
            with urllib.request.urlopen(drain, timeout=10) as resp:
                assert resp.status == 200
            out, _ = proc.communicate(timeout=30)
            assert proc.returncode == 0, out
            assert "gateway drained cleanly" in out
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()


@pytest.fixture(scope="module")
def deployment(tmp_path_factory):
    """One small trace; a plain bundle, a tiered one, a 2-shard one, and
    a layout in the format releases before the bundle wrote."""
    root = tmp_path_factory.mktemp("serve-modes")
    paths = {
        name: str(root / f"{name}.json")
        for name in ("layout", "tiered", "cluster", "old")
    }
    paths["trace"] = str(root / "trace.txt")
    build = ["build", "--trace", paths["trace"], "--workers", "1"]
    assert main(
        ["generate", "--dataset", "amazon_m2", "--scale", "small",
         "--out", paths["trace"]]
    ) == 0
    assert main(build + ["--out", paths["layout"]]) == 0
    assert main(build + ["--tier-ratio", "0.1", "--out", paths["tiered"]]) == 0
    assert main(build + ["--shards", "2", "--out", paths["cluster"]]) == 0
    with open(paths["layout"]) as handle:
        layout = json.load(handle)["payload"]["layouts"][0]
    with open(paths["old"], "w") as handle:
        json.dump({"magic": "maxembed-layout", "payload": layout}, handle)
    return paths


def replay_table(out: str) -> dict:
    """The ``name : value`` rows of a printed report."""
    rows = (line.split(":") for line in out.splitlines() if " : " in line)
    return {name.strip(): value.strip() for name, value in rows}


class TestServeModes:
    """Every serve mode builds through one EngineConfig."""

    # Each engine flag at a non-default value, and the field it must set.
    ENGINE_FLAGS = [
        ("--cache-ratio", "0.2", lambda c: c.cache_ratio, 0.2),
        ("--cache-policy", "slru", lambda c: c.cache_policy, "slru"),
        ("--tier-mode", "hybrid", lambda c: c.tier_mode, "hybrid"),
        ("--tier-ratio", "0.05", lambda c: c.tier_ratio, 0.05),
        ("--index-limit", "4", lambda c: c.index_limit, 4),
        ("--executor", "batched", lambda c: c.executor, "batched"),
        ("--threads", "3", lambda c: c.threads, 3),
        ("--retry-max", "5", lambda c: c.retry.max_retries, 5),
        ("--shard-deadline-us", "500", lambda c: c.shard_deadline_us, 500.0),
        ("--replicas", "2", lambda c: c.replicas, 2),
        ("--hedge-quantile", "0.8", lambda c: c.hedge_quantile, 0.8),
        ("--hedge-budget", "0.3", lambda c: c.hedge_budget, 0.3),
    ]
    FAULT_SPEC = "seed=1,read_error=0.05"
    SHARD_FAULT_SPEC = "seed=1,crash=0.1,horizon_us=250"

    @pytest.mark.parametrize("kind", ["plain", "cluster"])
    def test_every_engine_flag_reaches_the_engine(self, deployment, kind):
        from repro.cli import _build_serve_engine
        from repro.faults import FaultPlan, ShardFaultPlan

        # A tier plan is single-shard only: the plain case serves one.
        path = deployment["tiered" if kind == "plain" else "cluster"]
        argv = ["serve", "--trace", deployment["trace"], "--bundle", path]
        for flag, value, _, _ in self.ENGINE_FLAGS:
            argv += [flag, value]
        argv += [
            "--fault-plan", self.FAULT_SPEC,
            "--shard-fault-plan", self.SHARD_FAULT_SPEC,
        ]
        bundle = load_bundle(path)
        engine = _build_serve_engine(bundle, build_parser().parse_args(argv))
        config = engine.config
        for flag, _, read, want in self.ENGINE_FLAGS:
            assert read(config) == want, flag
        assert config.fault_plan == FaultPlan.from_spec(self.FAULT_SPEC)
        assert config.shard_fault_plan == ShardFaultPlan.from_spec(
            self.SHARD_FAULT_SPEC
        )
        assert config.spec == bundle.config.spec
        if kind == "plain":
            assert type(engine).__name__ == "ServingEngine"
            assert config.tier_plan == bundle.tier_plan is not None
            assert engine.tier_plan == config.tier_plan
        else:
            assert type(engine).__name__ == "ClusterEngine"
            assert config.tier_plan is None
            assert engine.num_shards == 2
            assert engine.groups[0].num_replicas == 2
            assert engine.groups[0].hedge_quantile == 0.8

    @pytest.mark.parametrize(
        "layout, extra, header",
        [
            (
                "layout",
                ["--offered-qps", "400000", "--admission-capacity", "8",
                 "--admission-policy", "deadline",
                 "--admission-deadline-us", "200", "--brownout"],
                "open-loop report",
            ),
            (
                "layout",
                ["--fault-plan", "seed=7,read_error=0.05"],
                "fault & recovery report",
            ),
            # The bundle's tier plan alone implies the pinned tier.
            ("tiered", [], "tier_hit_rate"),
            (
                "cluster",
                ["--replicas", "2", "--hedge-quantile", "0.9"],
                "cluster serving report (2 shards",
            ),
            (
                "cluster",
                ["--shard-fault-plan", "seed=7,crash=0.1,horizon_us=250"],
                "cluster serving report (2 shards",
            ),
        ],
        ids=["open-loop", "fault-plan", "tier-plan", "replicas", "shard-faults"],
    )
    def test_replay_modes_smoke(self, deployment, capsys, layout, extra, header):
        assert main(
            ["serve", "--trace", deployment["trace"],
             "--bundle", deployment[layout]] + extra
        ) == 0
        out = capsys.readouterr().out
        assert header in out
        # The fault report is printed under a fault plan only.
        assert ("fault & recovery report" in out) == ("--fault-plan" in extra)
        if layout == "tiered":
            assert float(replay_table(out)["tier_hit_rate"]) > 0

    def test_shard_faults_every_replica_fails_degrade_the_replay(
        self, deployment, capsys
    ):
        """A fragment whose every replica failed costs its keys, not the
        replay: a shard fault plan brings a breaker per shard."""
        from repro.cli import _build_serve_engine
        from repro.faults import BreakerConfig

        argv = [
            "serve", "--trace", deployment["trace"],
            "--bundle", deployment["cluster"], "--replicas", "2",
            "--shard-fault-plan", "crash=0.5,horizon_us=500,seed=3",
        ]
        assert main(argv) == 0
        table = replay_table(capsys.readouterr().out)
        assert float(table["coverage"]) < 1.0
        assert int(table["missing_keys"]) > 0
        assert int(table["dead_replicas"]) == 2
        args = build_parser().parse_args(argv)
        bundle = load_bundle(deployment["cluster"])
        config = _build_serve_engine(bundle, args).config
        assert config.breaker == BreakerConfig()
        deadline = build_parser().parse_args(
            argv[:5] + ["--shard-deadline-us", "500"]
        )
        assert _build_serve_engine(bundle, deadline).config.breaker == (
            BreakerConfig()
        )
        plain = build_parser().parse_args(argv[:5])
        assert _build_serve_engine(bundle, plain).config.breaker is None

    @pytest.mark.parametrize(
        "layout, extra",
        [
            ("old", []),
            ("layout", ["--fault-plan", "bogus=1"]),
            ("layout", ["--cache-ratio", "1.5"]),
            ("layout", ["--hedge-quantile", "1.5"]),
            (
                "layout",
                ["--offered-qps", "1000", "--admission-policy", "deadline",
                 "--admission-capacity", "4"],
            ),
        ],
        ids=["old-format-file", "fault-plan", "cache-ratio",
             "hedge-quantile", "deadline-without-deadline"],
    )
    def test_bad_value_is_one_error_line(self, deployment, capsys, layout, extra):
        assert main(
            ["serve", "--trace", deployment["trace"],
             "--bundle", deployment[layout]] + extra
        ) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err
        assert captured.out == ""
        if layout == "old":
            assert "maxembed build --out" in captured.err

    @pytest.mark.parametrize(
        "extra",
        [["--shards", "2", "--tier-ratio", "0.05"]],
        ids=["sharded-tier-ratio"],
    )
    def test_bad_build_value_is_one_error_line(
        self, deployment, tmp_path, capsys, extra
    ):
        out = tmp_path / "never.json"
        assert main(
            ["build", "--trace", deployment["trace"], "--workers", "1",
             "--out", str(out)] + extra
        ) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_serve_reports_the_bundle_geometry(
        self, deployment, tmp_path, capsys
    ):
        """A dim-32 bundle is served at dim 32: no serve flag restates
        the geometry it was built for."""
        from repro import EmbeddingSpec, EngineConfig, ServingEngine
        from repro.workloads import load_trace

        path = str(tmp_path / "dim32.json")
        assert main(
            ["build", "--trace", deployment["trace"], "--workers", "1",
             "--dim", "32", "--out", path]
        ) == 0
        capsys.readouterr()
        serve = ["serve", "--trace", deployment["trace"], "--bundle", path]
        assert main(serve) == 0
        table = replay_table(capsys.readouterr().out)
        served = float(table["effective_bandwidth"])
        engine = ServingEngine(
            load_bundle(path).layout, EngineConfig(spec=EmbeddingSpec(dim=32))
        )
        report = engine.serve_trace(load_trace(deployment["trace"]))
        assert served == round(report.effective_bandwidth_fraction(), 4)


class TestRefresh:
    def test_refresh_rebuilds_under_the_deployed_config(
        self, deployment, tmp_path
    ):
        """`serve --refresh` re-places with the parameters `build` used,
        not with defaults."""
        from repro.cli import _build_serve_engine, _refresh_daemon

        path = str(tmp_path / "deployed.json")
        assert main(
            ["build", "--trace", deployment["trace"], "--workers", "1",
             "--ratio", "0.4", "--strategy", "rpp", "--seed", "3",
             "--shards", "2", "--shard-strategy", "modulo", "--out", path]
        ) == 0
        args = build_parser().parse_args(
            ["serve", "--bundle", path, "--listen", "127.0.0.1:0",
             "--refresh", "--refresh-interval", "0"]
        )
        bundle = load_bundle(path)
        engine = _build_serve_engine(bundle, args)
        engine, daemon = _refresh_daemon(args, engine, bundle.config)
        assert daemon.build_config == bundle.config
        config = daemon.build_config
        assert (
            config.replication_ratio, config.strategy, config.seed,
            config.num_shards, config.shard_strategy,
        ) == (0.4, "rpp", 3, 2, "modulo")
        daemon.stop()


def test_diagnose_reports_every_shard(deployment, capsys):
    cluster, plain = deployment["cluster"], deployment["layout"]
    trace = deployment["trace"]
    assert main(["diagnose", "--bundle", cluster, "--trace", trace]) == 0
    out = capsys.readouterr().out
    for shard in (0, 1):
        assert f"layout diagnostics ({cluster}, shard {shard})\n" in out
    assert out.count("num_replica_pages") == 2
    assert out.count("hot-pair coverage") == 2
    # One shard: one table, titled by the bundle alone.
    assert main(["diagnose", "--bundle", plain]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"layout diagnostics ({plain})\n")
    assert out.count("num_replica_pages") == 1
