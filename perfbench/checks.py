"""Output checks. Each returns None when the output passes, else a message."""

from __future__ import annotations

import numpy as np

ROW_SUM_TOL = 1e-12
SUITE_FLOOR = 1.0 - 1e-9  # every suite function's global minimum value is 1.0


def first_problem(*problems):
    return next((p for p in problems if p is not None), None)


def history_problem(history):
    h = np.asarray(history, dtype=np.float64)
    if h.ndim != 1 or h.size == 0:
        return f"history has shape {h.shape}"
    if not np.all(np.isfinite(h)):
        return "history has non-finite entries"
    rises = np.flatnonzero(np.diff(h) > 0)
    if rises.size:
        return f"history rises after epoch {int(rises[0])}"
    return None


def evals_problem(evals, epochs, agents):
    if evals != epochs * agents:
        return f"evals {evals} != epochs*agents {epochs * agents}"
    return None


def best_problem(best_f, history):
    if best_f != history[-1]:
        return f"best_f {best_f!r} differs from the last history entry {history[-1]!r}"
    if best_f < SUITE_FLOOR:
        return f"best_f {best_f!r} is below the suite minimum 1.0"
    return None


def row_sum_problem(probs):
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 2 or p.shape[0] == 0:
        return f"probabilities have shape {p.shape}"
    if np.any(p < 0) or not np.all(np.isfinite(p)):
        return "probabilities are negative or non-finite"
    worst = float(np.abs(p.sum(axis=1) - 1.0).max())
    if worst > ROW_SUM_TOL:
        return f"a probability row sums to 1{worst:+.3g}"
    return None


def accuracy_problem(predicted, truth, reported):
    recomputed = int((np.asarray(predicted) == np.asarray(truth)).sum()) / len(truth)
    if recomputed != reported:
        return f"reported accuracy {reported!r}, recomputed {recomputed!r}"
    return None


def majority_problem(accuracy, majority_rate):
    if not accuracy > majority_rate:
        return f"accuracy {accuracy!r} does not beat the majority-class rate {majority_rate!r}"
    return None


def labels_problem(labels, expected):
    labels, expected = np.asarray(labels), np.asarray(expected)
    if labels.shape != expected.shape:
        return f"{labels.shape[0] if labels.ndim else 0} labels for {expected.shape[0]} rows"
    wrong = np.flatnonzero(labels != expected)
    if wrong.size:
        return f"{wrong.size} labels differ from forward(...).argmax, first at row {int(wrong[0])}"
    return None


def equal_problem(what, got, expected):
    if not np.array_equal(got, expected):
        return f"{what} differs from what the benchmark wrote"
    return None
