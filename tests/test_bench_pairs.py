"""The verdict rule of ``scripts/bench_pairs.py`` (choosing-metrics §8)."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)
judge = bench_pairs.judge

PARENT = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 101.0]


def test_gain_needs_nine_wins_in_ten_and_medians_past_the_parent_iqr():
    faster = [p * 1.3 for p in PARENT]
    assert judge(PARENT, faster, "higher", 0.1, claimed=True) == (10, "gain")
    two_losses = [90.0, 90.0] + faster[2:]
    assert judge(PARENT, two_losses, "higher", 0.1, True) == (
        8,
        "claim not met",
    )
    inside_spread = [p + 0.5 for p in PARENT]  # 10 wins, medians 0.5 apart
    assert judge(PARENT, inside_spread, "higher", 0.1, True) == (
        10,
        "claim not met",
    )
    ties = list(PARENT)  # a tie is a win for neither
    assert judge(PARENT, ties, "higher", 0.1, True) == (0, "claim not met")


def test_gain_must_also_clear_the_metric_bound():
    # 10 / 10 wins and medians 3 apart (parent IQR 2), but the bound is
    # 10 % of 100: the pipeline would refuse this "gain".
    three_percent = [p + 3.0 for p in PARENT]
    assert judge(PARENT, three_percent, "higher", 0.1, True) == (
        10,
        "claim not met",
    )
    assert judge(PARENT, three_percent, "higher", 0.02, True) == (10, "gain")


def test_three_percent_setup_win_is_not_a_gain():
    # setup_s shape: lower is better, bound 0.20, a very tight parent.
    setups = [0.255, 0.252, 0.256, 0.254, 0.257, 0.255, 0.253, 0.256, 0.255]
    assert judge(
        setups, [s * 0.97 for s in setups], "lower", 0.2, True
    ) == (9, "claim not met")
    assert judge(
        setups, [s * 0.75 for s in setups], "lower", 0.2, True
    ) == (9, "gain")


def test_lower_is_better_flips_the_sign():
    slower = [p * 1.3 for p in PARENT]
    assert judge(PARENT, slower, "lower", 0.1, True) == (0, "claim not met")
    assert judge(PARENT, slower, "lower", 0.1, False) == (0, "REGRESSION")
    assert judge(slower, PARENT, "lower", 0.1, True) == (10, "gain")


def test_unclaimed_metric_is_held_to_its_bound():
    assert judge(PARENT, PARENT, "higher", 0.04, False) == (0, "ok")
    worse = [p * 0.8 for p in PARENT]
    assert judge(PARENT, worse, "higher", 0.1, False) == (0, "REGRESSION")
    # Parent spread (IQR 2) wider than the bound (1 % of 100): unresolved,
    # unless every run of the change beats every run of the parent.
    assert judge(PARENT, worse, "higher", 0.01, False) == (0, "unresolved")
    better = [p + 10.0 for p in PARENT]
    assert judge(PARENT, better, "higher", 0.01, False) == (10, "ok")
    assert judge(PARENT, worse, "higher", None, False) == (0, "")


def test_quartiles_of_one_run():
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)


def fake_contract(tmp_path, monkeypatch, noises, change_qps, claim=True):
    """Argv for two checkouts whose runs report ``noises`` in turn; the
    parent serves 100 qps, the change ``change_qps``; ``claim`` passes
    ``--metric wall_qps``."""
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({
        "command": ["true"],
        "run_seconds": 1,
        "end_to_end": [
            {"name": "wall_qps", "better": "higher", "bound": 0.1},
            {"name": "setup_s", "better": "lower", "bound": 0.2},
        ],
    }))
    noise = iter(noises)

    def run_once(checkout, command, workload, seed, seconds, trace):
        qps = change_qps if checkout.name == "change" else 100.0
        return {
            "correct": True,
            "attempted": 10,
            "failed": 0,
            "noise_frac": next(noise),
            "metrics": {"wall_qps": qps, "setup_s": 0.25},
        }

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    return [
        "--parent", str(tmp_path / "parent"),
        "--change", str(tmp_path / "change"),
        "--workload", "w", "--pairs", "3",
    ] + (["--metric", "wall_qps"] if claim else [])


def rows(out, metric):
    return [line for line in out.splitlines() if line.startswith(metric)]


@pytest.mark.parametrize(
    "change_qps, code, verdict",
    [(130.0, 0, "6/6 gain"), (70.0, 1, "0/6 claim not met")],
)
def test_every_pair_noisy_still_summarises_all_pairs(
    tmp_path, monkeypatch, capsys, change_qps, code, verdict
):
    argv = fake_contract(tmp_path, monkeypatch, [0.4] * 12, change_qps)
    # No pair is quiet, so the all-pairs verdict sets the exit code.
    assert bench_pairs.main(argv) == code
    out = capsys.readouterr().out
    assert "all: 6 pairs of 6 run" in out
    assert "quiet:" not in out
    (row,) = rows(out, "wall_qps")
    assert row.endswith(verdict)


def test_some_pairs_noisy_prints_both_tables(tmp_path, monkeypatch, capsys):
    # Pair 1 is noisy on its second run; pairs 2-4 are quiet.
    argv = fake_contract(tmp_path, monkeypatch, [0.0, 0.4] + [0.0] * 6, 130.0)
    assert bench_pairs.main(argv) == 0
    out = capsys.readouterr().out
    assert "quiet: 3 pairs of 4 run" in out
    assert "all: 4 pairs of 4 run" in out
    assert [row.split()[-2:] for row in rows(out, "wall_qps")] == [
        ["3/3", "gain"],
        ["4/4", "gain"],
    ]


@pytest.mark.parametrize(
    "change_qps, code, verdict",
    [(130.0, 0, "3/3 ok"), (100.0, 0, "0/3 ok"), (70.0, 1, "0/3 REGRESSION")],
)
def test_without_metric_no_gain_is_claimed(
    tmp_path, monkeypatch, capsys, change_qps, code, verdict
):
    # A change that claims nothing is held to every bound, wall_qps too.
    argv = fake_contract(
        tmp_path, monkeypatch, [0.0] * 12, change_qps, claim=False
    )
    assert bench_pairs.main(argv) == code
    out = capsys.readouterr().out
    (row,) = rows(out, "wall_qps")
    assert row.endswith(verdict)
