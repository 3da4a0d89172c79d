"""Each output check passes a good result and rejects a broken one built here."""

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import layers
import workloads

BENCH = Path(__file__).resolve().parents[1]


@pytest.fixture
def capture(alc):
    c = layers.Capture()
    c.install(alc)
    yield c
    c.patches.restore()


def test_history_check():
    assert checks.history_problem([3.0, 2.0, 2.0, 1.0]) is None
    assert checks.history_problem([3.0, 2.0, 2.5]) is not None
    assert checks.history_problem([3.0, float("nan")]) is not None


def test_evals_check():
    assert checks.evals_problem(5000, 500, 10) is None
    assert checks.evals_problem(4990, 500, 10) is not None


def test_best_check():
    assert checks.best_problem(1.5, [2.0, 1.5]) is None
    assert checks.best_problem(1.4, [2.0, 1.5]) is not None
    assert checks.best_problem(0.5, [2.0, 0.5]) is not None


def test_row_sum_check():
    good = np.array([[0.25, 0.75], [0.5, 0.5]])
    assert checks.row_sum_problem(good) is None
    assert checks.row_sum_problem(good * 1.001) is not None
    assert checks.row_sum_problem(np.array([[1.5, -0.5]])) is not None


def test_accuracy_and_majority_checks():
    assert checks.accuracy_problem([0, 1, 1, 0], [0, 1, 0, 0], 0.75) is None
    assert checks.accuracy_problem([0, 1, 1, 0], [0, 1, 0, 0], 0.8) is not None
    assert checks.majority_problem(0.9, 0.6) is None
    assert checks.majority_problem(0.6, 0.6) is not None


def test_label_and_equality_checks():
    assert checks.labels_problem([0, 1, 1], [0, 1, 1]) is None
    assert checks.labels_problem([0, 1, 0], [0, 1, 1]) is not None
    assert checks.labels_problem([0, 1], [0, 1, 1]) is not None
    assert checks.equal_problem("x", np.eye(2), np.eye(2)) is None
    assert checks.equal_problem("x", np.eye(2), 2 * np.eye(2)) is not None


def short_crossval(alc, tmp_path):
    wl = workloads.Crossval("iris")
    wl.setup(alc, 11, tmp_path)
    wl.cfg = dataclasses.replace(wl.cfg, epochs=20)
    return wl


def test_crossval_check_rejects_broken_folds(alc, tmp_path, capture):
    wl = short_crossval(alc, tmp_path)
    result = wl.run_pass(capture)
    assert wl.check(result, capture) == [None] * wl.tasks_per_pass

    broken = copy.deepcopy(result)
    broken.folds[2].val_accuracy += 0.01
    broken.histories[5] = np.array(broken.histories[5])
    broken.histories[5][-1] = broken.histories[5][0] + 1.0
    problems = wl.check(broken, capture)
    assert [i for i, p in enumerate(problems) if p] == [2, 5]


def test_optbench_check_rejects_broken_runs(alc, tmp_path, capture):
    wl = workloads.Optbench()
    wl.EPOCHS = 10
    wl.setup(alc, 5, tmp_path)
    result = wl.run_pass(capture)
    assert wl.check(result, capture) == [None] * wl.tasks_per_pass

    capture.runs[3].history[-1] = capture.runs[3].history[0] + 1.0
    result.stats[7]["mean"] += 1.0
    problems = wl.check(result, capture)
    assert [i for i, p in enumerate(problems) if p] == [3, 7]


def test_predict_check_rejects_wrong_labels(alc, tmp_path, capture):
    wl = workloads.PredictBulk()
    wl.setup(alc, 5, tmp_path)
    served = wl.run_pass(capture)
    assert wl.check(served, capture) == [None] * wl.tasks_per_pass

    served[1].labels = served[1].labels.copy()
    served[1].labels[0] = 1 - served[1].labels[0]
    served[4].x = served[4].x + 1e-9
    problems = wl.check(served, capture)
    assert [i for i, p in enumerate(problems) if p] == [1, 4]


def test_tracing_changes_no_result(alc, tmp_path, capture):
    wl = short_crossval(alc, tmp_path)
    plain = wl.digest(wl.run_pass(capture))
    rec = layers.Recorder()
    tracer = layers.install_tracer(alc, rec)
    try:
        traced = wl.digest(wl.run_pass(capture))
    finally:
        tracer.restore()
    assert traced == plain
    assert rec.counts["objective_calls"] == wl.cfg.k_folds * wl.cfg.epochs * wl.cfg.agents
    assert rec.counts["as_matrix_in_objective"] == 9 * rec.counts["objective_calls"]
    assert layers.self_seconds(rec) > 0


def test_fails_without_program_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cv-iris", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)


def test_task_clock_scales_times_to_reference_speed():
    nominal = layers.REFERENCE_NOMINAL_S
    assert layers.at_reference_speed(2.0, nominal) == 2.0
    assert layers.at_reference_speed(3.0, 1.5 * nominal) == pytest.approx(2.0)
    clock = layers.Capture()
    assert clock.timed(4, sum, [1, 2]) == 3
    (task,) = clock.tasks
    assert task.kind == 4 and task.seconds > 0 and task.reference > 0
