"""The pair summary of ``scripts/bench_pairs.py`` on synthetic runs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

KEY = "optbench-suite seed 42 trace 0"


def run(side, pair, value, correct=True):
    """One run as ``main`` records it; ``value`` None stands for a run that exited non-zero."""
    doc = {"side": side, "workload": "optbench-suite", "seed": 42, "trace": 0, "pair": pair, "digest": "0f809a90"}
    if value is None:
        return {**doc, "result": None, "error": "exit 1: Traceback"}
    return {**doc, "result": {"correct": correct, "metrics": {"evals_per_s": {"value": value}}}}


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
