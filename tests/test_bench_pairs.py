"""The pair summary of ``scripts/bench_pairs.py`` on synthetic runs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

KEY = "optbench-suite seed 42 trace 0"


def run(side, pair, value, correct=True, **more):
    """One run as ``main`` records it; ``value`` None stands for a run that exited non-zero.

    ``value`` is the run's ``evals_per_s``; ``more`` gives other metrics.
    """
    doc = {"side": side, "workload": "optbench-suite", "seed": 42, "trace": 0, "pair": pair, "digest": "0f809a90"}
    if value is None:
        return {**doc, "result": None, "error": "exit 1: Traceback"}
    values = {"evals_per_s": value, **more}
    return {**doc, "result": {"correct": correct, "metrics": {k: {"value": v} for k, v in values.items()}}}


def test_whole_pairs_give_quartiles_wins_and_no_failures():
    runs = [run("parent", 1, 100.0), run("change", 1, 140.0), run("change", 2, 130.0), run("parent", 2, 110.0)]
    got = bench_pairs.summarize(runs, {"evals_per_s": "higher"})[KEY]
    assert got["pairs"] == 2 and got["failed"] == {"parent": 0, "change": 0}
    assert got["correct"] is True and got["digests_equal"] is True
    metric = got["metrics"]["evals_per_s"]
    assert metric["change_wins"] == 2
    assert metric["parent"]["median"] == 105.0 and metric["change"]["median"] == 135.0
    assert metric["median_ratio"] == pytest.approx(135.0 / 105.0)


@pytest.mark.parametrize("failing", ["parent", "change"])
def test_a_run_without_a_result_is_counted_and_makes_the_set_incorrect(failing):
    runs = [run("parent", 1, 100.0), run("change", 1, 140.0)]
    runs += [run(side, 2, None if side == failing else 120.0) for side in ("change", "parent")]
    got = bench_pairs.summarize(runs, {"evals_per_s": "higher"})[KEY]
    assert got["pairs"] == 1
    assert got["failed"] == {"parent": int(failing == "parent"), "change": int(failing == "change")}
    assert got["correct"] is False
    assert got["metrics"]["evals_per_s"]["change_wins"] == 1


def test_an_incorrect_result_makes_the_set_incorrect():
    runs = [run("parent", 1, 100.0), run("change", 1, 140.0, correct=False)]
    got = bench_pairs.summarize(runs, {"evals_per_s": "higher"})[KEY]
    assert got["failed"] == {"parent": 0, "change": 0} and got["correct"] is False


def test_a_median_that_moves_the_wrong_way_past_its_bound_is_flagged():
    # evals_per_s (higher is better) drops 25% and wall_s (lower is better)
    # rises 10%, against bounds of 20%; the per-layer metric has no bound.
    runs = []
    for pair, (parent, change) in enumerate([(100.0, 75.0), (104.0, 78.0), (96.0, 72.0)], start=1):
        runs += [run("parent", pair, parent, wall_s=2.0, **{"model.forward_us": 10.0}),
                 run("change", pair, change, wall_s=2.2, **{"model.forward_us": 50.0})]
    directions = {"evals_per_s": "higher", "wall_s": "lower", "model.forward_us": "lower"}
    got = bench_pairs.summarize(runs, directions, {"evals_per_s": 0.2, "wall_s": 0.2})[KEY]
    assert got["beyond_bound"] == ["evals_per_s"]
    assert got["metrics"]["evals_per_s"]["beyond_bound"] is True
    assert got["metrics"]["wall_s"]["beyond_bound"] is False
    assert "beyond_bound" not in got["metrics"]["model.forward_us"]
    # a looser bound clears evals_per_s, a tighter one catches wall_s
    got = bench_pairs.summarize(runs, directions, {"evals_per_s": 0.3, "wall_s": 0.05})[KEY]
    assert got["beyond_bound"] == ["wall_s"]
    # a change that moves the right way is never flagged
    swapped = [{**r, "side": "change" if r["side"] == "parent" else "parent"} for r in runs]
    got = bench_pairs.summarize(swapped, directions, {"evals_per_s": 0.01, "wall_s": 0.01})[KEY]
    assert got["beyond_bound"] == []


def pairs_of(values):
    """Alternating runs from ``[(parent evals_per_s, change evals_per_s), ...]``, pairs numbered from 1."""
    runs = []
    for pair, (parent, change) in enumerate(values, start=1):
        runs += [run("parent", pair, parent, wall_s=1.0 / parent), run("change", pair, change, wall_s=1.0 / change)]
    return runs


def test_a_gain_needs_nine_wins_in_ten_and_a_move_past_the_parent_iqr():
    directions = {"evals_per_s": "higher", "wall_s": "lower"}
    # nine wins and one loss in ten pairs; the medians move by 19.5, the parent's IQR is 4.5
    values = [(100.0 + k, 120.0 + k) for k in range(9)] + [(104.0, 103.0)]
    got = bench_pairs.summarize(pairs_of(values), directions)[KEY]
    assert got["metrics"]["evals_per_s"]["change_wins"] == 9
    assert got["metrics"]["evals_per_s"]["gain"] is True
    assert got["gains"] == ["evals_per_s", "wall_s"]  # each judged the way it is better
    # a tie counts for neither side: two ties leave eight wins in ten
    got = bench_pairs.summarize(pairs_of(values[:8] + [(104.0, 104.0)] * 2), directions)[KEY]
    assert got["metrics"]["evals_per_s"]["change_wins"] == 8 and got["gains"] == []
    # a pair with a failed run is not won: nine wins in eleven pairs run
    runs = pairs_of(values[:9])
    for pair in (10, 11):
        runs += [run("parent", pair, 104.0), run("change", pair, None)]
    got = bench_pairs.summarize(runs, directions)[KEY]
    assert got["metrics"]["evals_per_s"]["change_wins"] == 9 and got["gains"] == []
    # every pair won, but by less than the parent's own spread
    values = [(100.0 + 10 * k, 101.0 + 10 * k) for k in range(10)]
    got = bench_pairs.summarize(pairs_of(values), directions)[KEY]
    assert got["metrics"]["evals_per_s"]["change_wins"] == 10 and got["gains"] == []
    assert got["metrics"]["evals_per_s"]["gain"] is False


def test_bounds_are_read_from_the_benchmark_spec():
    directions, bounds = bench_pairs.metric_rules()
    assert bounds and set(bounds) <= set(directions)
    assert directions["evals_per_s"] == "higher" and bounds["evals_per_s"] > 0
    assert "model.forward_us" in directions and "model.forward_us" not in bounds
