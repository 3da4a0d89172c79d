"""Evaluation metrics and the Wilcoxon signed-rank test.

Multi-class loss is categorical cross-entropy; with two classes it reduces to
the familiar binary log-loss. Precision, recall, and F1 are macro-averaged
from one-vs-rest confusion counts because class balance differs a lot between
the bundled datasets. Classes whose precision or recall denominator is zero
contribute 0 and trigger one warning per :class:`ConfusionCounts`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import InsufficientDataError, ParameterError, ShapeError

CLIP = 1e-15


def log_loss(y_onehot, probs):
    """Mean negative log-likelihood, probabilities clipped away from 0 and 1.

    Only the true class of each row contributes, so ``y_onehot`` must hold
    one-hot rows; anything else raises :class:`ParameterError`.
    """
    y = np.asarray(y_onehot, dtype=np.float64)
    p = np.asarray(probs, dtype=np.float64)
    if y.shape != p.shape:
        raise ShapeError(f"targets {y.shape} and predictions {p.shape} differ")
    labels = one_hot_labels(y)
    return float(label_log_loss(p[np.arange(len(labels)), labels]))


def one_hot_labels(y_onehot):
    """Class index of each row of a one-hot ``(n, classes)`` target matrix."""
    if y_onehot.ndim == 2 and y_onehot.shape[1] > 0:
        labels = (y_onehot == 1.0).argmax(axis=1)
        if np.array_equal(y_onehot, labels[:, None] == np.arange(y_onehot.shape[1])):
            return labels
    raise ParameterError("targets must be one-hot rows: one 1 and zeros elsewhere in each row")


def label_log_loss(picked):
    """:func:`log_loss` from the true-class probabilities ``picked``, one ``(..., n)`` row per matrix.

    Clips and takes logs in place, then sums each row over its ``n`` samples,
    so a stack of rows and a single row of the same values agree bit for bit.
    The clip is ``minimum(maximum(x, CLIP), 1 - CLIP)``, which is what
    ``np.clip`` computes (NaN passes through), and the sum is
    ``np.add.reduce``, which ``ndarray.sum`` calls; the plain ufunc calls
    skip those Python-level wrappers. The sum is negated before the division
    (``sum / -n`` would flip the sign bit of a NaN loss).
    """
    np.maximum(picked, CLIP, out=picked)
    np.minimum(picked, 1.0 - CLIP, out=picked)
    np.log(picked, out=picked)
    return -np.add.reduce(picked, axis=-1) / picked.shape[-1]


@dataclass
class ConfusionCounts:
    """One-vs-rest counts per class; each row of tp/fp/tn/fn sums to n."""

    tp: np.ndarray
    fp: np.ndarray
    tn: np.ndarray
    fn: np.ndarray

    @property
    def n(self):
        return int(self.tp[0] + self.fp[0] + self.tn[0] + self.fn[0])

    @cached_property
    def class_precision(self):  # per class, computed and warned about once per counts
        return _safe_ratio(self.tp, self.tp + self.fp, "precision")

    @cached_property
    def class_recall(self):
        return _safe_ratio(self.tp, self.tp + self.fn, "recall")


def confusion_counts(y_true, y_pred, n_classes):
    yt = np.asarray(y_true, dtype=np.int64)
    yp = np.asarray(y_pred, dtype=np.int64)
    if yt.shape != yp.shape:
        raise ShapeError(f"label sequences differ in length: {yt.shape} vs {yp.shape}")
    if yt.size and (yt.min() < 0 or yt.max() >= n_classes or yp.min() < 0 or yp.max() >= n_classes):
        raise ParameterError(f"labels must lie in [0, {n_classes})")
    # table[t, p]: how many rows of true class t were predicted as class p
    table = np.bincount(yt * n_classes + yp, minlength=n_classes**2).reshape(n_classes, n_classes)
    tp = table.diagonal().copy()
    fp = table.sum(axis=0) - tp
    fn = table.sum(axis=1) - tp
    tn = yt.size - tp - fp - fn
    return ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn)


def accuracy(counts):
    return float(counts.tp.sum() / counts.n)


def _safe_ratio(num, den, what):
    for c in np.flatnonzero(den == 0):
        warnings.warn(f"{what} undefined for class {c} (zero denominator); using 0")
    return np.divide(num, den, out=np.zeros(len(num), dtype=np.float64), where=den != 0)


def precision_macro(counts):
    return float(counts.class_precision.mean())


def recall_macro(counts):
    return float(counts.class_recall.mean())


def f1_macro(counts):
    p, r = counts.class_precision, counts.class_recall
    total = p + r
    return float(np.divide(2 * p * r, total, out=np.zeros_like(p), where=total > 0).mean())


def overfitting_gap(train_acc, val_acc):
    """Training minus validation accuracy; negative when validation is higher."""
    return float(train_acc) - float(val_acc)


@dataclass
class MetricReport:
    """One row of an experiment report, in the fixed table column order."""

    loss: float
    accuracy: float
    precision: float
    recall: float
    f1: float
    overfitting_gap: float
    wall_time: float

    def csv_row(self):
        return [getattr(self, c) for c in self.COLUMNS]


MetricReport.COLUMNS = tuple(f.name for f in fields(MetricReport))  # the mean table header


def _signed_rank_prep(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"paired samples differ in length: {a.shape} vs {b.shape}")
    d = a - b
    d = d[d != 0.0]
    if d.size < 5:
        raise InsufficientDataError(
            f"need at least 5 nonzero differences, got {d.size}"
        )
    return d


def average_ranks(values):
    """1-based ranks of ``values``; tied values share the average of their ranks."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.float64)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def _exact_p_le(double_ranks, target):
    # Subset-sum count over doubled (integer) ranks: c[s] = #subsets with sum s.
    total = int(double_ranks.sum())
    counts = np.zeros(total + 1, dtype=np.float64)
    counts[0] = 1.0
    for r in double_ranks:
        counts[r:] += counts[: total + 1 - r].copy()
    return counts[: target + 1].sum() / 2.0 ** len(double_ranks)


def wilcoxon_signed_rank(a, b):
    """Two-sided Wilcoxon signed-rank test on paired samples.

    Zero differences are dropped; tied absolute differences share average
    ranks. Returns ``(w, p)`` where w = min(W+, W-). The p-value is exact
    (distribution enumerated over all sign assignments) for up to 20 nonzero
    differences and a normal approximation with continuity and tie correction
    beyond that.
    """
    d = _signed_rank_prep(a, b)
    ranks = average_ranks(np.abs(d))
    w_plus = float(ranks[d > 0].sum())
    w_minus = float(ranks[d < 0].sum())
    w = min(w_plus, w_minus)
    n = d.size

    if n <= 20:
        double_ranks = np.rint(2.0 * ranks).astype(np.int64)
        target = int(round(2.0 * w))
        p = min(1.0, 2.0 * _exact_p_le(double_ranks, target))
        return w, p

    mean = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    _, tie_sizes = np.unique(np.abs(d), return_counts=True)
    var -= (tie_sizes**3 - tie_sizes).sum() / 48.0
    z = (w - mean + 0.5) / math.sqrt(var)
    p = min(1.0, 2.0 * 0.5 * math.erfc(-z / math.sqrt(2.0)))
    return w, p
