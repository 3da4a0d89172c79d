"""The pair summary of ``scripts/bench_pairs.py`` on synthetic runs."""

import importlib.util
import json
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


FAKE_RUN = '''import json, sys
from pathlib import Path
here = Path(__file__).resolve().parents[1]
with open(here.parent / "order.log", "a") as log:
    log.write(here.name + "\\n")
print('# host {"cpu": "fake"}')
print("# digest 0f809a90 of the outputs")
value = float((here / "evals_per_s").read_text())
print(json.dumps({"correct": True, "metrics": {"evals_per_s": {"value": value}}}))
'''


def fake_checkout(root, name, evals_per_s):
    """A directory whose ``perfbench/run.py`` reads ``evals_per_s`` and logs its own name."""
    checkout = root / name
    (checkout / "perfbench").mkdir(parents=True)
    (checkout / "perfbench" / "run.py").write_text(FAKE_RUN)
    (checkout / "evals_per_s").write_text(str(evals_per_s))
    return checkout


@pytest.mark.parametrize("change,gain", [(108.0, False), (120.0, True)])
def test_a_control_runs_as_a_third_side_and_a_gain_must_pass_its_spread(tmp_path, change, gain):
    # the parent's copy in another directory reads 10% faster: a change that
    # gains 8% wins every pair but does not move past that spread
    sides = {"parent": 100.0, "change": change, "control": 110.0}
    paths = {side: fake_checkout(tmp_path, side, value) for side, value in sides.items()}
    out = tmp_path / "bench.json"
    argv = [f"--{side}={path}" for side, path in paths.items()]
    argv += ["--workload", "optbench-suite", "--pairs", "2", "--seconds", "1", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    assert (tmp_path / "order.log").read_text().split() == [
        "parent", "change", "control", "control", "change", "parent"
    ]
    doc = json.loads(out.read_text())
    assert [(r["pair"], r["side"]) for r in doc["runs"]][:3] == [(1, "parent"), (1, "change"), (1, "control")]
    assert all(r["checkout"] == str(paths[r["side"]].resolve()) for r in doc["runs"])
    got = doc["summary"][KEY]
    assert got["correct"] is True and got["digests_equal"] is True
    assert got["failed"] == {"parent": 0, "change": 0, "control": 0}
    metric = got["metrics"]["evals_per_s"]
    assert metric["change_wins"] == 2 and metric["parent_iqr"] == 0.0
    assert metric["control"]["median"] == 110.0
    assert metric["control_ratio"] == pytest.approx(1.1) and metric["control_spread"] == 10.0
    assert metric["gain"] is gain and got["gains"] == (["evals_per_s"] if gain else [])


def test_a_failed_control_run_makes_the_set_incorrect_and_leaves_no_gain():
    runs = pairs_of([(100.0, 130.0), (101.0, 131.0)])
    runs += [run("control", 1, 100.5), run("control", 2, None)]
    got = bench_pairs.summarize(runs, {"evals_per_s": "higher"})[KEY]
    assert got["failed"] == {"parent": 0, "change": 0, "control": 1} and got["correct"] is False
    metric = got["metrics"]["evals_per_s"]
    # only pair 1 has a control reading: its spread is 0.5, which 30 passes
    assert metric["control"]["median"] == 100.5 and metric["control_spread"] == 0.5 and metric["gain"] is True
    # with no control reading at all, nothing can be a gain
    runs = pairs_of([(100.0, 130.0), (101.0, 131.0)]) + [run("control", 1, None)]
    metric = bench_pairs.summarize(runs, {"evals_per_s": "higher"})[KEY]["metrics"]["evals_per_s"]
    assert metric["control"] is None and metric["control_spread"] is None and metric["gain"] is False
