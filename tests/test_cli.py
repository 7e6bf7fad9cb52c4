"""Tests for the maxembed CLI."""

import pytest

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
            ["serve", "--layout", "l.json", "--selection-path", "reference"],
            ["build", "--trace", "t", "--out", "l.json", "--offline-path", "fast"],
            ["serve", "--layout", "l.json", "--selector", "warp"],
        ],
    )
    def test_removed_path_flags_and_unknown_selector_exit_2(self, argv):
        # There is one implementation per algorithm: nothing to select.
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
            ["serve", "--trace", trace_path, "--layout", layout_path]
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

        # Explicit shard count must match the file.
        assert main(
            [
                "serve",
                "--trace",
                trace_path,
                "--layout",
                cluster_path,
                "--shards",
                "4",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "cluster serving report" in out
        assert "load_imbalance" in out
        assert "shard_3" in out

        # Shard count is inferred from the layout file when omitted.
        assert main(
            ["serve", "--trace", trace_path, "--layout", cluster_path]
        ) == 0
        assert "cluster serving report" in capsys.readouterr().out

    def test_serve_shards_mismatch_errors(self, tmp_path, capsys):
        trace_path = str(tmp_path / "trace.txt")
        cluster_path = str(tmp_path / "cluster.json")
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
            [
                "build",
                "--trace",
                trace_path,
                "--shards",
                "2",
                "--out",
                cluster_path,
            ]
        )
        capsys.readouterr()
        assert main(
            [
                "serve",
                "--trace",
                trace_path,
                "--layout",
                cluster_path,
                "--shards",
                "4",
            ]
        ) == 1
        assert "holds 2 shards" in capsys.readouterr().err

        # A plain layout cannot be served with --shards > 1.
        main(
            ["build", "--trace", trace_path, "--out", layout_path]
        )
        capsys.readouterr()
        assert main(
            [
                "serve",
                "--trace",
                trace_path,
                "--layout",
                layout_path,
                "--shards",
                "4",
            ]
        ) == 1
        assert "maxembed build --shards" in capsys.readouterr().err

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
            ["diagnose", "--layout", layout_path, "--trace", trace_path]
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
                "--layout",
                layout_path,
                "--selector",
                "greedy",
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
        serve = ["serve", "--trace", trace_path, "--layout", layout_path]
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
                "--layout",
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
        assert main(["serve", "--layout", str(tmp_path / "x.json")]) == 1
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
                "--layout",
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
    """One small trace, a plain layout with its tier plan, a 2-shard one."""
    root = tmp_path_factory.mktemp("serve-modes")
    paths = {
        "trace": str(root / "trace.txt"),
        "layout": str(root / "layout.json"),
        "cluster": str(root / "cluster.json"),
    }
    paths["tier_plan"] = paths["layout"] + ".tier.json"
    build = ["build", "--trace", paths["trace"], "--workers", "1"]
    assert main(
        ["generate", "--dataset", "amazon_m2", "--scale", "small",
         "--out", paths["trace"]]
    ) == 0
    assert main(build + ["--tier-ratio", "0.1", "--out", paths["layout"]]) == 0
    assert main(build + ["--shards", "2", "--out", paths["cluster"]]) == 0
    return paths


class TestServeModes:
    """Every serve mode builds through one EngineConfig."""

    # Each engine flag at a non-default value, and the field it must set.
    ENGINE_FLAGS = [
        ("--dim", "32", lambda c: c.spec.dim, 32),
        ("--cache-ratio", "0.2", lambda c: c.cache_ratio, 0.2),
        ("--cache-policy", "slru", lambda c: c.cache_policy, "slru"),
        ("--tier-mode", "hybrid", lambda c: c.tier_mode, "hybrid"),
        ("--tier-ratio", "0.05", lambda c: c.tier_ratio, 0.05),
        ("--index-limit", "4", lambda c: c.index_limit, 4),
        ("--selector", "greedy", lambda c: c.selector, "greedy"),
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
        from repro.tiering import load_tier_plan

        argv = ["serve", "--trace", deployment["trace"]]
        for flag, value, _, _ in self.ENGINE_FLAGS:
            argv += [flag, value]
        argv += [
            "--fault-plan", self.FAULT_SPEC,
            "--shard-fault-plan", self.SHARD_FAULT_SPEC,
        ]
        if kind == "plain":
            # An explicit tier plan is single-engine only.
            argv += [
                "--layout", deployment["layout"],
                "--tier-plan", deployment["tier_plan"],
            ]
        else:
            argv += ["--layout", deployment["cluster"], "--shards", "2"]
        engine = _build_serve_engine(build_parser().parse_args(argv))
        config = engine.config
        for flag, _, read, want in self.ENGINE_FLAGS:
            assert read(config) == want, flag
        assert config.fault_plan == FaultPlan.from_spec(self.FAULT_SPEC)
        assert config.shard_fault_plan == ShardFaultPlan.from_spec(
            self.SHARD_FAULT_SPEC
        )
        if kind == "plain":
            assert type(engine).__name__ == "ServingEngine"
            assert config.tier_plan == load_tier_plan(deployment["tier_plan"])
            assert engine.tier_plan == config.tier_plan
        else:
            assert type(engine).__name__ == "ClusterEngine"
            assert config.tier_plan is None
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
            # --tier-plan alone implies the pinned tier.
            ("layout", ["--tier-plan", "{tier_plan}"], "tier_hit_rate"),
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
        extra = [arg.format(**deployment) for arg in extra]
        assert main(
            ["serve", "--trace", deployment["trace"],
             "--layout", deployment[layout]] + extra
        ) == 0
        out = capsys.readouterr().out
        assert header in out
        # The fault report is printed under a fault plan only.
        assert ("fault & recovery report" in out) == ("--fault-plan" in extra)

    @pytest.mark.parametrize(
        "layout, extra",
        [
            ("cluster", ["--tier-plan", "{tier_plan}"]),
            ("layout", ["--fault-plan", "bogus=1"]),
            ("layout", ["--cache-ratio", "1.5"]),
            ("layout", ["--hedge-quantile", "1.5"]),
            (
                "layout",
                ["--offered-qps", "1000", "--admission-policy", "deadline",
                 "--admission-capacity", "4"],
            ),
        ],
        ids=["tier-plan-on-cluster", "fault-plan", "cache-ratio",
             "hedge-quantile", "deadline-without-deadline"],
    )
    def test_bad_value_is_one_error_line(self, deployment, capsys, layout, extra):
        extra = [arg.format(**deployment) for arg in extra]
        assert main(
            ["serve", "--trace", deployment["trace"],
             "--layout", deployment[layout]] + extra
        ) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_listen_refuses_shards_mismatch(self, deployment):
        """`--listen` checks --shards like the replay does (it used to start
        a single-engine gateway and ignore it)."""
        import subprocess
        import sys

        proc = subprocess.run(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--layout", deployment["layout"], "--shards", "4",
                "--listen", "127.0.0.1:0",
            ],
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert proc.returncode == 1, proc.stdout
        assert "holds 1 shard" in proc.stderr
        assert "maxembed build --shards" in proc.stderr
        assert "gateway listening" not in proc.stdout
