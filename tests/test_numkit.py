import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alc.errors import ShapeError
from alc.numkit import RngStream, matmul, mean_all, relu, softmax_classes, softmax_rows


def naive_matmul(a, b):
    a, b = np.asarray(a, float), np.asarray(b, float)
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            for k in range(a.shape[1]):
                out[i, j] += a[i, k] * b[k, j]
    return out


def test_matmul_hand_example():
    assert matmul([[1, 2]], [[1, 1], [1, 1]]).tolist() == [[3, 3]]


def test_matmul_identity():
    m = np.array([[2.0, -3.0], [0.5, 7.0]])
    assert np.array_equal(matmul(np.eye(2), m), m)


def test_matmul_matches_naive_oracle():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    assert np.abs(matmul(a, b) - naive_matmul(a, b)).max() <= 1e-12


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"2x3.*4x2"):
        matmul(np.ones((2, 3)), np.ones((4, 2)))


def test_matmul_associativity():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 5))
        c = rng.normal(size=(5, 2))
        left = matmul(matmul(a, b), c)
        right = matmul(a, matmul(b, c))
        assert np.abs(left - right).max() <= 1e-9 * max(1.0, np.abs(left).max())


@pytest.mark.parametrize(
    "m,expected",
    [([[1, 1], [1, 1]], 1.0), ([[-1, 1]], 0.0), ([[0.5, 1.5, 2.5]], 1.5)],
)
def test_mean_all(m, expected):
    assert mean_all(m) == expected


def test_relu_examples():
    assert relu([[-1, 2]]).tolist() == [[0, 2]]
    assert relu([[-5, -1], [-2, -3]]).tolist() == [[0, 0], [0, 0]]


def test_relu_idempotent_and_preserves_positives():
    rng = np.random.default_rng(2)
    m = rng.normal(size=(6, 5))
    once = relu(m)
    assert np.array_equal(relu(once), once)
    assert (once >= 0).all()
    assert np.array_equal(once > 0, m > 0)


def test_softmax_symmetry():
    assert softmax_rows([[0.0, 0.0]]).tolist() == [[0.5, 0.5]]
    assert softmax_rows([[5.0], [-2.0]]).tolist() == [[1.0], [1.0]]  # one class
    np.testing.assert_allclose(softmax_rows([[0.0, 0.0, 0.0]]), [[1 / 3] * 3], atol=1e-15)


def test_softmax_ln2_case():
    out = softmax_rows([[math.log(2.0), 0.0]])
    np.testing.assert_allclose(out, [[2 / 3, 1 / 3]], atol=1e-12)


def test_softmax_extreme_entries_stay_normalized():
    m = np.array([[700.0, -700.0, 0.0], [-700.0, -700.0, -700.0]])
    out = softmax_rows(m)
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)
    assert np.isfinite(out).all()


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.lists(st.floats(-700, 700, allow_nan=False), min_size=2, max_size=6),
        min_size=1,
        max_size=5,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_softmax_rows_sum_to_one(rows):
    out = softmax_rows(rows)
    assert np.abs(out.sum(axis=1) - 1.0).max() <= 1e-9
    # entries saturate to exactly 0/1 once the row spread exceeds ~745
    assert (out >= 0).all() and (out <= 1).all()
    if np.ptp(rows, axis=1).max() < 30:
        assert (out > 0).all() and (out < 1).all()


def class_order_softmax(scores):
    """Softmax of one sample's class scores, one scalar at a time.

    Each ``exp`` is numpy's own on a single value; the denominator adds the
    numerators in class order, ``((e0 + e1) + e2) + ...``.
    """
    top = max(scores)
    e = [float(np.exp(np.float64(v) - top)) for v in scores]
    total = e[0]
    for v in e[1:]:
        total += v
    return e, total


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("n", [1, 2, 7])
def test_softmax_is_bit_equal_to_a_class_order_oracle(n, order):
    # Guards the class-order sum: a reduction that adds classes pairwise or in
    # another order changes last bits for some of these shapes.
    rng = np.random.default_rng(100 + n)
    for o in range(2, 13):
        for scale in (1.0, 30.0):
            stack = np.asarray(rng.normal(scale=scale, size=(3, o, n)), order=order)
            e, total = softmax_classes(stack.copy(order=order))
            rows = softmax_rows(np.asarray(stack[0].T, order=order))
            for a in range(3):
                for j in range(n):
                    want_e, want_total = class_order_softmax(stack[a, :, j].tolist())
                    assert e[a, :, j].tolist() == want_e
                    assert total[a, j] == want_total
                    if a == 0:
                        assert rows[j].tolist() == [v / want_total for v in want_e]


def test_rng_uniform_deterministic():
    a = RngStream(7).uniform(-1, 1, (4, 3))
    b = RngStream(7).uniform(-1, 1, (4, 3))
    assert np.array_equal(a, b)


def test_rng_uniform_range_and_mean():
    draws = RngStream(3).uniform(-1, 1, (100, 100))
    assert (draws >= -1).all() and (draws < 1).all()
    assert abs(draws.mean()) <= 0.05


def test_rng_children_are_independent_and_deterministic():
    root = RngStream(11)
    a = root.child(1, 0).uniform(0, 1, 5)
    b = root.child(1, 1).uniform(0, 1, 5)
    again = RngStream(11).child(1, 0).uniform(0, 1, 5)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, again)


def test_rng_bit_reproducible_across_processes():
    code = (
        "from alc.numkit import RngStream;"
        "print(RngStream(123).uniform(-1, 1, (8, 8)).tobytes().hex())"
    )
    outs = [
        subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        ).stdout
        for _ in range(2)
    ]
    assert outs[0] == outs[1]
