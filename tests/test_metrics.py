import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alc.errors import InsufficientDataError, ParameterError, ShapeError
from alc.metrics import (
    CLIP,
    ConfusionCounts,
    MetricReport,
    accuracy,
    confusion_counts,
    f1_macro,
    label_log_loss,
    log_loss,
    overfitting_gap,
    precision_macro,
    recall_macro,
    wilcoxon_signed_rank,
)


def binary_log_loss_oracle(y, p):
    # Scalar-loop binary form: -(1/n) sum y ln p + (1-y) ln(1-p)
    total = 0.0
    for yi, pi in zip(y, p):
        pi = min(max(pi, 1e-15), 1 - 1e-15)
        total += yi * math.log(pi) + (1 - yi) * math.log(1 - pi)
    return -total / len(y)


def test_log_loss_perfect_predictions_near_zero():
    y = np.eye(3)[[0, 1, 2, 1]]
    assert log_loss(y, y) <= 1e-13


def test_log_loss_uniform_three_classes():
    y = np.eye(3)[[0, 1, 2]]
    p = np.full((3, 3), 1 / 3)
    assert log_loss(y, p) == pytest.approx(math.log(3), abs=1e-12)


def test_log_loss_binary_matches_scalar_oracle():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = rng.integers(2, 40)
        labels = rng.integers(0, 2, n)
        p1 = rng.uniform(0.001, 0.999, n)
        y_onehot = np.eye(2)[labels]
        probs = np.stack([1 - p1, p1], axis=1)
        ours = log_loss(y_onehot, probs)
        oracle = binary_log_loss_oracle(labels, p1)
        assert ours == pytest.approx(oracle, abs=1e-12)


def test_log_loss_shape_mismatch():
    with pytest.raises(ShapeError):
        log_loss(np.eye(2), np.full((3, 2), 0.5))


@pytest.mark.parametrize(
    "targets",
    [
        [[0.3, 0.7], [1.0, 0.0]],  # soft labels: argmax would quietly pick class 1
        [[1.0, 1.0], [0.0, 1.0]],  # two classes marked
        [[0.0, 0.0], [0.0, 1.0]],  # no class marked
        [[2.0, 0.0], [0.0, 1.0]],
        [[float("nan"), 1.0], [0.0, 1.0]],
        [0.0, 1.0],  # not a matrix
        [[], []],  # no classes
    ],
)
def test_log_loss_rejects_targets_that_are_not_one_hot(targets):
    probs = np.full(np.shape(targets), 0.5)
    with pytest.raises(ParameterError, match="one-hot"):
        log_loss(targets, probs)


def clip_sum_log_loss(picked):
    """The loss tail as ``np.clip`` and ``ndarray.sum`` write it."""
    picked = np.clip(picked, CLIP, 1.0 - CLIP)
    return -np.log(picked).sum(axis=-1) / picked.shape[-1]


def test_label_log_loss_is_bit_equal_to_the_clip_and_sum_formula():
    edges = [0.0, 1.0, CLIP, 1.0 - CLIP, np.nextafter(CLIP, 0.0), np.nextafter(1.0 - CLIP, 1.0),
             5e-16, 1e-300, 5e-324, 1.0 - 1e-17, 0.5, math.nan]
    rng = np.random.default_rng(17)
    for trial in range(400):
        shape = (int(rng.integers(1, 4)), int(rng.integers(1, 6)))  # includes single-sample rows
        picked = rng.choice(edges, size=shape) if trial % 2 else rng.uniform(0.0, 1.0, shape)
        for rows in (picked, picked[0]):  # a stack and one row
            expected = np.asarray(clip_sum_log_loss(rows))
            got = np.asarray(label_log_loss(rows.copy()))
            assert got.shape == expected.shape
            # compared as bits, so NaN losses must carry the same sign as well
            assert got.tobytes() == expected.tobytes(), rows


def test_confusion_counts_perfect():
    c = confusion_counts([0, 1], [0, 1], 2)
    assert c.fp.tolist() == [0, 0] and c.fn.tolist() == [0, 0]
    assert c.tp.tolist() == [1, 1]


def test_confusion_counts_all_wrong():
    c = confusion_counts([0, 0], [1, 1], 2)
    assert c.fn[0] == 2 and c.fp[1] == 2
    assert (c.tp + c.fp + c.tn + c.fn == 2).all()


def test_accuracy_binary_example():
    c = ConfusionCounts(
        tp=np.array([45, 50]), fp=np.array([3, 2]), tn=np.array([50, 45]), fn=np.array([2, 3])
    )
    assert accuracy(c) == pytest.approx(0.95)


def test_accuracy_matches_direct_mean():
    rng = np.random.default_rng(6)
    for _ in range(20):
        y = rng.integers(0, 4, 50)
        p = rng.integers(0, 4, 50)
        assert accuracy(confusion_counts(y, p, 4)) == pytest.approx((y == p).mean())


def test_zero_division_precision_is_zero_with_warning():
    c = confusion_counts([0, 0], [0, 0], 2)  # class 1 never predicted
    with pytest.warns(UserWarning, match="precision"):
        assert precision_macro(c) == pytest.approx(0.5)  # class0 1.0, class1 0.0


def test_each_zero_denominator_class_warns_in_class_order():
    # predicted counts 2, 0, 2, 0 and true counts 1, 1, 0, 2
    c = confusion_counts([0, 1, 3, 3], [0, 0, 2, 2], 4)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert f1_macro(c) == 2 * 0.5 * 1.0 / 1.5 / 4
    assert [str(w.message) for w in caught] == [
        "precision undefined for class 1 (zero denominator); using 0",
        "precision undefined for class 3 (zero denominator); using 0",
        "recall undefined for class 2 (zero denominator); using 0",
    ]


def test_confusion_counts_match_a_per_class_oracle():
    rng = np.random.default_rng(8)
    for n_classes in (2, 3, 7):
        y = rng.integers(0, n_classes, 40)
        p = rng.integers(0, n_classes, 40)
        c = confusion_counts(y, p, n_classes)
        for k in range(n_classes):
            assert c.tp[k] == ((y == k) & (p == k)).sum()
            assert c.fp[k] == ((y != k) & (p == k)).sum()
            assert c.fn[k] == ((y == k) & (p != k)).sum()
            assert c.tn[k] == ((y != k) & (p != k)).sum()
        assert all(a.dtype == np.int64 for a in (c.tp, c.fp, c.tn, c.fn))


def test_f1_matches_formula_oracle():
    rng = np.random.default_rng(7)
    for _ in range(50):
        y = rng.integers(0, 3, 60)
        p = rng.integers(0, 3, 60)
        c = confusion_counts(y, p, 3)
        expected = []
        for k in range(3):
            prec = c.tp[k] / (c.tp[k] + c.fp[k]) if c.tp[k] + c.fp[k] else 0.0
            rec = c.tp[k] / (c.tp[k] + c.fn[k]) if c.tp[k] + c.fn[k] else 0.0
            expected.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
        assert f1_macro(c) == pytest.approx(np.mean(expected), abs=1e-12)
        assert 0.0 <= recall_macro(c) <= 1.0


def test_overfitting_gap_sign_convention():
    assert overfitting_gap(1.0, 1.0) == 0.0
    assert overfitting_gap(0.99, 0.995) == pytest.approx(-0.005)


def wilcoxon_enumeration_oracle(a, b):
    """Brute-force p over all 2^n sign assignments of the nonzero differences."""
    d = np.asarray(a, float) - np.asarray(b, float)
    d = d[d != 0]
    n = d.size
    mags = np.abs(d)
    order = np.argsort(mags, kind="stable")
    ranks = np.empty(n)
    i = 0
    while i < n:
        j = i
        while j + 1 < n and mags[order[j + 1]] == mags[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    w_obs = min(ranks[d > 0].sum(), ranks[d < 0].sum())
    hits = 0
    for signs in itertools.product((1, -1), repeat=n):
        signs = np.array(signs)
        w_plus = ranks[signs > 0].sum()
        w_minus = ranks[signs < 0].sum()
        if min(w_plus, w_minus) <= w_obs + 1e-12:
            hits += 1
    return w_obs, hits / 2.0**n


def test_wilcoxon_all_positive_n5():
    w, p = wilcoxon_signed_rank([2, 3, 4, 5, 6], [1, 2, 3, 4, 5])
    assert w == 0.0
    assert p == pytest.approx(2 / 32, abs=1e-15)


def test_wilcoxon_identical_sequences_rejected():
    with pytest.raises(InsufficientDataError):
        wilcoxon_signed_rank([1.0] * 6, [1.0] * 6)


def test_wilcoxon_matches_enumeration_oracle():
    rng = np.random.default_rng(8)
    for _ in range(40):
        n = int(rng.integers(5, 13))
        a = rng.normal(size=n)
        b = a + rng.normal(size=n)
        try:
            w, p = wilcoxon_signed_rank(a, b)
        except InsufficientDataError:
            continue
        w_oracle, p_oracle = wilcoxon_enumeration_oracle(a, b)
        assert w == pytest.approx(w_oracle, abs=1e-12)
        assert p == pytest.approx(p_oracle, abs=1e-12)


def test_wilcoxon_handles_ties_in_magnitudes():
    a = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    b = a + np.array([0.5, -0.5, 0.5, 0.5, -0.5, 0.5])
    w, p = wilcoxon_signed_rank(a, b)
    w_oracle, p_oracle = wilcoxon_enumeration_oracle(a, b)
    assert w == pytest.approx(w_oracle, abs=1e-12)
    assert p == pytest.approx(p_oracle, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-10, 10, allow_nan=False), min_size=6, max_size=15),
    st.integers(0, 2**31),
)
def test_wilcoxon_symmetric_in_arguments(a, seed):
    rng = np.random.default_rng(seed)
    a = np.asarray(a)
    b = a + rng.normal(size=a.size)
    try:
        w_ab, p_ab = wilcoxon_signed_rank(a, b)
    except InsufficientDataError:
        return
    w_ba, p_ba = wilcoxon_signed_rank(b, a)
    assert w_ab == pytest.approx(w_ba, abs=1e-12)
    assert p_ab == pytest.approx(p_ba, abs=1e-12)


def test_wilcoxon_normal_approximation_branch():
    rng = np.random.default_rng(9)
    a = rng.normal(size=30)
    b = a + rng.normal(loc=1.2, size=30)
    w, p = wilcoxon_signed_rank(a, b)
    assert 0.0 <= p <= 1.0
    assert p < 0.01  # strong systematic shift


def test_metric_report_column_order():
    report = MetricReport(0.1, 0.9, 0.8, 0.7, 0.75, 0.01, 2.5)
    assert report.csv_row() == [0.1, 0.9, 0.8, 0.7, 0.75, 0.01, 2.5]
    assert MetricReport.COLUMNS[0] == "loss" and MetricReport.COLUMNS[-1] == "wall_time"
