"""The verdict rule of ``scripts/bench_pairs.py`` (choosing-metrics §8)."""

import importlib.util
from pathlib import Path

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
