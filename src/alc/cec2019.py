"""CEC2019 benchmark-function suite (F1 through F10).

Every function's global minimum value is 1.0 by the suite's +1 offset
convention. F1 (polynomial fitting), F2 (inverse Hilbert matrix), and F3
(Lennard-Jones cluster energy) are fixed-dimension problems evaluated as
published, without shift or rotation. F4 through F10 are classic functions on
the box [-100, 100]^10; each applies its conventional domain-shrink factor so
the box maps onto the function's natural domain.

By default F4-F10 use a zero shift and identity rotation, which keeps the
repo self-contained and preserves relative optimizer comparisons; official
transform data can be supplied through :func:`load_transform` files (first
line the shift vector, then one rotation-matrix row per line, whitespace
separated). A transform is checked once, against its function's dimension,
where an objective is made and on each :func:`evaluate`.

Each function is one row kernel ``kernel(x, transform)`` over an
``(agents, dim)`` block, returning ``(agents,)`` values without the offset.
:func:`evaluate` runs it on one row; :class:`SuiteObjective.population` runs
it on a whole population. A kernel's row values never depend on the other
rows, so the two paths agree bit for bit. That rests on a few rules:

* sums and products run over ``axis=-1`` of C-contiguous rows, the order of
  a 1-D reduction; F6 sums its ``(dim, 21)`` terms as one row of ``dim * 21``,
  and F8 adds ``z**2 + roll(z)**2``;
* a rotation is one matrix-vector product per row,
  ``matmul(rotation, z[:, :, None])``, since ``z @ rotation.T`` rounds
  differently;
* F1 compacts the block's out-of-band grid values once, in row-major order,
  squares only those, and sums each row's contiguous slice of them with
  ``np.add.reduce``: the values and order of the row's own compaction
  (``np.add.reduceat`` adds in another order). A row with nothing out of
  band keeps the empty sum, 0.0. The left and then the right edge terms are
  added to all rows at once. F3 adds its pair terms in a fixed pair order
  with the sequential ``np.add.accumulate``;
* F7 computes its middle arm on the whole block and its out-of-range arm
  only on the compacted coordinates where ``|z| <= 500`` fails, scattered
  back before the row sum; an elementwise result does not depend on its
  neighbours, so computing fewer of them keeps the bits;
* F9 and F10 finish each row in Python floats (``**``, ``math.exp``,
  ``math.sqrt``), whose results differ from numpy's on a few values.

A row with a NaN coordinate scores NaN in every function, so the optimizer's
finite check sees the bad agent. Each branch test is written so that a NaN
fails it and lands in the sum: F1's grid value is out of band unless
``|p| <= 1``, and an edge term is skipped only when ``edge >= bound``; an F3
pair term is ``1e20`` only when ``u <= 1e-10``, so a NaN ``u`` gives a NaN term;
an F7 coordinate takes the out-of-range arm unless ``|z| <= 500``, so a NaN row
stays NaN (the sign bit of that NaN is not kept).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import ParameterError, ShapeError


@dataclass(frozen=True)
class BenchFunction:
    fid: str
    name: str
    dim: int
    lower: float
    upper: float
    f_min: float = 1.0


@dataclass(frozen=True)
class Transform:
    """Shift vector and rotation matrix applied before a base function."""

    shift: np.ndarray
    rotation: np.ndarray


def load_transform(path, dim):
    """Parse a transform file: shift line followed by ``dim`` rotation rows.

    Every row holds ``dim`` finite numbers; a row that does not is named by its line.
    """
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError(f"transform file {path} cannot be read: {exc}") from exc
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            row = [float(v) for v in line.split()]
        except ValueError:
            row = []  # reported below like any other bad row
        if len(row) != dim or not all(math.isfinite(v) for v in row):
            raise ParameterError(
                f"transform file {path}, line {lineno}: expected {dim} finite numbers, "
                f"got {line.strip()!r}"
            )
        rows.append(row)
    if len(rows) != dim + 1:
        raise ParameterError(
            f"transform file {path} has {len(rows)} rows, expected {dim + 1} "
            f"(one shift line plus {dim} rotation rows)"
        )
    rows = np.asarray(rows, dtype=np.float64)
    return Transform(shift=rows[0], rotation=rows[1:])


def _shrunk(x, rate, transform):
    if transform is None:
        return x * rate
    # one matrix-vector product per row: the bits of ``rotation @ row``, unlike ``z @ rotation.T``
    return np.matmul(transform.rotation, ((x - transform.shift) * rate)[:, :, None])[..., 0]


@lru_cache(maxsize=8)
def _chebyshev_grid(d):
    """F1's sample grid on [-1, 1] followed by the two edge points, and the edge bound.

    Built once per dimension and returned read-only.
    """
    lo, hi = 1.0, 1.2
    for _ in range(d - 2):
        lo, hi = hi, 2.4 * hi - lo
    sample = 32 * d
    ys = np.append(-1.0 + np.arange(sample + 1) * (2.0 / sample), (-1.2, 1.2))
    ys.setflags(write=False)
    return ys, hi


def _chebyshev(x, transform):
    ys, bound = _chebyshev_grid(x.shape[1])
    # the grid and then the two edge points, in one Horner pass; starting from
    # the leading coefficient rather than from zeros can change only the sign
    # of a zero, which |p| and edge * edge discard
    cols = x.T[:, :, None]
    px = np.empty((len(x), ys.size))
    px[...] = cols[0]
    for c in cols[1:]:
        px *= ys
        px += c
    # a grid value is out of band unless |p| <= 1, so a NaN is out of band; the
    # out-of-band values are compacted once, in row-major order, and only they
    # are squared (numpy computes ``** 2`` as a square, t * t)
    grid = px[:, :-2]
    np.abs(grid, out=grid)
    out = np.less_equal(grid, 1.0)
    np.logical_not(out, out=out)
    gaps = grid[out]
    np.subtract(1.0, gaps, out=gaps)
    gaps *= gaps
    # each row with something out of band sums its own contiguous slice: the
    # values and order of the row compacted alone, so the same pairwise sum
    # (``np.add.reduceat`` adds in another order); the other rows keep 0.0
    penalty = np.zeros(len(x))
    if gaps.size:
        counts = np.add.reduce(out, axis=1, dtype=np.intp)
        rows = counts.nonzero()[0]
        ends = np.add.accumulate(counts[rows]).tolist()
        for k, start, end in zip(rows.tolist(), [0, *ends], ends):
            penalty[k] = np.add.reduce(gaps[start:end])
    # then the left edge's square and the right one's, each replaced by 0.0 (a
    # no-op on a sum of squares) where edge >= bound, so a NaN edge adds its
    # NaN square; like Python floats, these steps overflow to inf without a warning
    edges = px[:, -2:]
    with np.errstate(over="ignore"):
        squares = edges * edges
        squares[edges >= bound] = 0.0
        penalty += squares[:, 0]
        penalty += squares[:, 1]
    return penalty


@lru_cache(maxsize=8)
def _hilbert(b):
    """F2's ``(b, b)`` Hilbert matrix and identity, built once per size and returned read-only."""
    hilbert = 1.0 / (np.arange(b)[:, None] + np.arange(b)[None, :] + 1.0)
    eye = np.eye(b)
    hilbert.setflags(write=False)
    eye.setflags(write=False)
    return hilbert, eye


def _inverse_hilbert(x, transform):
    a, d = x.shape
    hilbert, eye = _hilbert(int(round(math.sqrt(d))))
    residual = np.abs(np.matmul(hilbert, x.reshape(a, *hilbert.shape)) - eye)
    return residual.reshape(a, d).sum(axis=-1)


LENNARD_JONES_OFFSET = 12.7120622568  # 6-atom minimum energy magnitude
_LJ_FIRST, _LJ_SECOND = np.triu_indices(6, 1)  # atom pairs in the order they are summed


def _lennard_jones(x, transform):
    points = x.reshape(len(x), -1, 3)
    d2 = ((points[:, _LJ_SECOND] - points[:, _LJ_FIRST]) ** 2).sum(axis=-1)
    u = d2**3
    with np.errstate(all="ignore"):  # the branch not taken may divide by zero or overflow
        terms = np.where(u <= 1e-10, 1.0e20, (1.0 / u - 2.0) / u)  # a NaN u gives a NaN term
    # add.accumulate is sequential, so each row adds its pairs in order
    energy = np.concatenate([np.full((len(x), 1), LENNARD_JONES_OFFSET), terms], axis=1)
    return np.add.accumulate(energy, axis=1)[:, -1]


def _rastrigin(x, transform):
    z = _shrunk(x, 5.12 / 100.0, transform)
    return (z * z - 10.0 * np.cos(2.0 * np.pi * z) + 10.0).sum(axis=-1)


@lru_cache(maxsize=8)
def _griewank_denominators(d):
    """F5's ``sqrt(1..d)``, built once per dimension and returned read-only."""
    denom = np.sqrt(np.arange(1.0, d + 1.0))
    denom.setflags(write=False)
    return denom


def _griewank(x, transform):
    z = _shrunk(x, 600.0 / 100.0, transform)
    denom = _griewank_denominators(z.shape[1])
    return (z * z).sum(axis=-1) / 4000.0 - np.prod(np.cos(z / denom), axis=-1) + 1.0


_W_A = 0.5 ** np.arange(21)  # Weierstrass a**k for k = 0..20
_W_ARG = 2.0 * np.pi * 3.0 ** np.arange(21)  # 2 pi b**k, the cosines' factor
_W_CENTER = (_W_A * np.cos(_W_ARG * 0.5)).sum()


def _weierstrass(x, transform):
    z = _shrunk(x, 0.5 / 100.0, transform) + 0.5
    a, d = z.shape
    # a**k cos(2 pi b**k z), in one (a, d, 21) array
    per_coord = _W_ARG * z[:, :, None]
    np.cos(per_coord, out=per_coord)
    per_coord *= _W_A
    return per_coord.reshape(a, d * _W_A.size).sum(axis=-1) - d * _W_CENTER


def _modified_schwefel(x, transform):
    z = _shrunk(x, 1000.0 / 100.0, transform) + 4.209687462275036e2
    d = z.shape[1]
    abs_z = np.abs(z)
    with np.errstate(invalid="ignore"):
        terms = -z * np.sin(np.sqrt(abs_z))
        # the out-of-range arms only where |z| <= 500 fails, a NaN included. Both
        # fold |z| back to rem = 500 - (|z| mod 500) and add the squared overshoot
        # past +-500; the z < -500 arm's -500 + (|z| mod 500) is exactly -rem, so
        # one expression rounds as either arm does
        beyond = np.logical_not(np.less_equal(abs_z, 500.0))
        far = z[beyond]
        if far.size:
            rem = 500.0 - np.mod(np.abs(far), 500.0)
            overshoot = far - np.copysign(500.0, far)
            terms[beyond] = overshoot**2 / (10000.0 * d) - np.copysign(rem, far) * np.sin(np.sqrt(rem))
    return terms.sum(axis=-1) + 4.189828872724338e2 * d


def _expanded_schaffer6(x, transform):
    z = _shrunk(x, 1.0, transform)
    s2 = z**2 + np.concatenate((z[:, 1:], z[:, :1]), axis=1) ** 2
    return (0.5 + (np.sin(np.sqrt(s2)) ** 2 - 0.5) / (1.0 + 0.001 * s2) ** 2).sum(axis=-1)


def _happy_cat(x, transform):
    z = _shrunk(x, 5.0 / 100.0, transform) - 1.0
    d = z.shape[1]
    r2, total = (z * z).sum(axis=-1).tolist(), z.sum(axis=-1).tolist()
    # Python's power, not numpy's, which differs in the last bit on a few values
    return np.array([abs(r - d) ** 0.25 + (0.5 * r + t) / d + 0.5 for r, t in zip(r2, total)])


def _ackley(x, transform):
    z = _shrunk(x, 1.0, transform)
    d = z.shape[1]
    squares, cosines = (z * z).sum(axis=-1).tolist(), np.cos(2.0 * np.pi * z).sum(axis=-1).tolist()
    return np.array([
        -20.0 * math.exp(-0.2 * math.sqrt(s / d)) - math.exp(c / d) + 20.0 + math.e
        for s, c in zip(squares, cosines)
    ])


_SUITE = {
    "F1": (BenchFunction("F1", "chebyshev-fit", 9, -8192.0, 8192.0), _chebyshev),
    "F2": (BenchFunction("F2", "inverse-hilbert", 16, -16384.0, 16384.0), _inverse_hilbert),
    "F3": (BenchFunction("F3", "lennard-jones", 18, -4.0, 4.0), _lennard_jones),
    "F4": (BenchFunction("F4", "rastrigin", 10, -100.0, 100.0), _rastrigin),
    "F5": (BenchFunction("F5", "griewank", 10, -100.0, 100.0), _griewank),
    "F6": (BenchFunction("F6", "weierstrass", 10, -100.0, 100.0), _weierstrass),
    "F7": (BenchFunction("F7", "modified-schwefel", 10, -100.0, 100.0), _modified_schwefel),
    "F8": (BenchFunction("F8", "expanded-schaffer6", 10, -100.0, 100.0), _expanded_schaffer6),
    "F9": (BenchFunction("F9", "happy-cat", 10, -100.0, 100.0), _happy_cat),
    "F10": (BenchFunction("F10", "ackley", 10, -100.0, 100.0), _ackley),
}

_FIXED = ("F1", "F2", "F3")

FUNCTION_IDS = tuple(_SUITE)


def suite_info(fid):
    """Metadata record for one function id."""
    if fid not in _SUITE:
        raise ParameterError(f"unknown function id {fid!r}; expected one of {FUNCTION_IDS}")
    return _SUITE[fid][0]


def _checked(fid, transform):
    """Metadata of ``fid`` once ``transform`` is known to fit it."""
    info = suite_info(fid)
    if transform is None:
        return info
    if fid in _FIXED:
        raise ParameterError(f"{fid} is a fixed problem and takes no transform")
    shift, rotation = np.shape(transform.shift), np.shape(transform.rotation)
    if shift != (info.dim,) or rotation != (info.dim, info.dim):
        raise ShapeError(
            f"{fid} needs a shift of shape ({info.dim},) and a rotation of shape "
            f"({info.dim}, {info.dim}), got {shift} and {rotation}"
        )
    if not (np.isfinite(transform.shift).all() and np.isfinite(transform.rotation).all()):
        raise ParameterError(f"{fid} transform has a non-finite entry")
    return info


def evaluate(fid, x, transform=None):
    """Value of a suite function at x, including the +1 offset."""
    info = _checked(fid, transform)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size != info.dim:
        raise ShapeError(f"{fid} expects a vector of length {info.dim}, got shape {x.shape}")
    return _SUITE[fid][1](x[None], transform)[0] + 1.0


@dataclass(frozen=True, eq=False)
class SuiteObjective:
    """Objective bound to one function id, scoring one vector or a whole population.

    ``obj(x)`` goes through the module's :func:`evaluate`; ``obj.population``
    runs the row kernel once over an ``(agents, dim)`` block, bit-equal to
    scoring each row on its own.
    """

    fid: str
    transform: Transform | None = None

    def __post_init__(self):
        _checked(self.fid, self.transform)

    def __call__(self, x):
        return evaluate(self.fid, x, self.transform)

    def population(self, positions):
        dim = _SUITE[self.fid][0].dim
        positions = np.ascontiguousarray(positions, dtype=np.float64)
        if positions.ndim != 2 or positions.shape[1] != dim:
            raise ShapeError(f"{self.fid} expects rows of length {dim}, got shape {positions.shape}")
        return _SUITE[self.fid][1](positions, self.transform) + 1.0
