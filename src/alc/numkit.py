"""Dense-matrix kernel and seeded randomness.

Matrices are plain two-dimensional float64 numpy arrays. All operations are
pure functions and safe for concurrent use. Randomness goes through
:class:`RngStream`, a thin wrapper around numpy's PCG64 generator; PCG64 is
seedable and produces the same draw sequence on every platform, which is what
makes whole experiments reproducible. A stream must be consumed by a single
owner; parallel code forks independent child streams instead of sharing one.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError


def as_matrix(a, name="matrix"):
    """Coerce to a 2-D float64 array, rejecting empty or misshaped input."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ShapeError(f"{name} must have at least one row and column, got {m.shape}")
    return m


def matmul(a, b):
    """Matrix product, with a shape check that names both operands."""
    a = as_matrix(a, "left operand")
    b = as_matrix(b, "right operand")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"cannot multiply {a.shape[0]}x{a.shape[1]} by {b.shape[0]}x{b.shape[1]}")
    return a @ b


def mean_all(m):
    """Mean of all entries."""
    return float(as_matrix(m).mean())


def relu(m):
    """Elementwise max(0, x)."""
    return np.maximum(as_matrix(m), 0.0)


def softmax_rows(m):
    """Row-wise softmax with max-subtraction so large entries cannot overflow.

    Runs :func:`softmax_classes` on the class-major transpose and returns the
    ``(rows, classes)`` view of the result.
    """
    e, total = softmax_classes(as_matrix(m).T)
    e /= total
    return e.T


def softmax_classes(s, out=None):
    """Softmax numerators and denominators over axis -2 of an ``(..., classes, n)`` array.

    Returns ``(e, total)``: ``e = exp(s - max)`` class by class, written to
    ``out`` (which may be ``s`` itself), and ``total``, their sum over the
    classes, of shape ``(..., n)``; the probabilities are ``e / total``. No
    shape checks.

    Class-order sum rule: ``total`` adds the class rows one at a time,
    ``((e0 + e1) + e2) + ...``, so each element is computed with the same
    arithmetic whatever the layout or the stack. ``np.add.reduce`` over the
    class axis would not keep that: with one sample, or with classes along
    the contiguous axis, numpy sums pairwise and the last bits change. The
    maximum is exact, so one reduction of any order gives it.
    """
    top = np.maximum.reduce(s, axis=-2, keepdims=True)
    e = np.subtract(s, top, out=out)
    np.exp(e, out=e)
    if e.shape[-2] == 1:
        return e, e[..., 0, :].copy()
    total = e[..., 0, :] + e[..., 1, :]
    for j in range(2, e.shape[-2]):
        total += e[..., j, :]
    return e, total


class RngStream:
    """Deterministic random stream (PCG64) identified by a 64-bit seed.

    ``child(*key)`` derives an independent stream from the same seed and an
    arbitrary integer key path, so parallel work units can each own a stream
    without coordinating draw order.
    """

    def __init__(self, seed, _key=()):
        self.seed = int(seed)
        self._key = tuple(int(k) for k in _key)
        seq = np.random.SeedSequence([self.seed, *self._key])
        self._gen = np.random.Generator(np.random.PCG64(seq))

    def child(self, *key):
        return RngStream(self.seed, _key=self._key + tuple(key))

    def uniform(self, lo, hi, size=None):
        return self._gen.uniform(lo, hi, size=size)

    def random(self, size=None):
        """Unit draws in [0, 1): the same doubles as ``uniform(0.0, 1.0, size)``."""
        return self._gen.random(size)

    def shuffle(self, a):
        self._gen.shuffle(a)

    def __repr__(self):
        return f"RngStream(seed={self.seed}, key={self._key})"

