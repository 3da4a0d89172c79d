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
separated).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    return transform.rotation @ ((x - transform.shift) * rate)


def _chebyshev(x):
    d = x.size
    a, b = 1.0, 1.2
    for _ in range(d - 2):
        a, b = b, 2.4 * b - a
    bound = b
    sample = 32 * d
    dy = 2.0 / sample
    ys = -1.0 + np.arange(sample + 1) * dy
    px = np.zeros(sample + 1)
    for c in x:
        px = ys * px + c
    outside = np.abs(px) > 1.0
    penalty = float((((1.0 - np.abs(px)) ** 2)[outside]).sum())
    for y_edge in (-1.2, 1.2):
        edge = 0.0
        for c in x:
            edge = y_edge * edge + c
        if edge < bound:
            penalty += edge * edge
    return penalty


def _inverse_hilbert(x):
    b = int(round(math.sqrt(x.size)))
    hilbert = 1.0 / (np.arange(b)[:, None] + np.arange(b)[None, :] + 1.0)
    w = x.reshape(b, b)
    return float(np.abs(hilbert @ w - np.eye(b)).sum())


LENNARD_JONES_OFFSET = 12.7120622568  # 6-atom minimum energy magnitude


def _lennard_jones(x):
    points = x.reshape(-1, 3)
    k = points.shape[0]
    energy = LENNARD_JONES_OFFSET
    for i in range(k - 1):
        d2 = ((points[i + 1 :] - points[i]) ** 2).sum(axis=1)
        ud = d2**3
        for u in ud:
            energy += (1.0 / u - 2.0) / u if u > 1e-10 else 1.0e20
    return energy


def _rastrigin(x, transform):
    z = _shrunk(x, 5.12 / 100.0, transform)
    return float((z * z - 10.0 * np.cos(2.0 * np.pi * z) + 10.0).sum())


def _griewank(x, transform):
    z = _shrunk(x, 600.0 / 100.0, transform)
    denom = np.sqrt(np.arange(1.0, z.size + 1.0))
    return float((z * z).sum() / 4000.0 - np.prod(np.cos(z / denom)) + 1.0)


def _weierstrass(x, transform):
    z = _shrunk(x, 0.5 / 100.0, transform) + 0.5
    a, b, k_max = 0.5, 3.0, 20
    powers_a = a ** np.arange(k_max + 1)
    powers_b = b ** np.arange(k_max + 1)
    per_coord = (powers_a[None, :] * np.cos(2.0 * np.pi * powers_b[None, :] * z[:, None])).sum()
    center = (powers_a * np.cos(2.0 * np.pi * powers_b * 0.5)).sum()
    return float(per_coord - z.size * center)


def _modified_schwefel(x, transform):
    z = _shrunk(x, 1000.0 / 100.0, transform) + 4.209687462275036e2
    d = z.size
    with np.errstate(invalid="ignore"):
        mid = -z * np.sin(np.sqrt(np.abs(z)))
        high_rem = 500.0 - np.mod(z, 500.0)
        high = -high_rem * np.sin(np.sqrt(np.abs(high_rem))) + (z - 500.0) ** 2 / (10000.0 * d)
        low_rem = -500.0 + np.mod(np.abs(z), 500.0)
        low = -low_rem * np.sin(np.sqrt(np.abs(500.0 - np.mod(np.abs(z), 500.0)))) + (
            z + 500.0
        ) ** 2 / (10000.0 * d)
    total = np.where(np.abs(z) <= 500.0, mid, np.where(z > 500.0, high, low))
    return float(total.sum()) + 4.189828872724338e2 * d


def _expanded_schaffer6(x, transform):
    z = _shrunk(x, 1.0, transform)
    pairs = np.stack([z, np.roll(z, -1)])
    s2 = (pairs**2).sum(axis=0)
    return float((0.5 + (np.sin(np.sqrt(s2)) ** 2 - 0.5) / (1.0 + 0.001 * s2) ** 2).sum())


def _happy_cat(x, transform):
    z = _shrunk(x, 5.0 / 100.0, transform) - 1.0
    d = z.size
    r2 = float((z * z).sum())
    return abs(r2 - d) ** 0.25 + (0.5 * r2 + z.sum()) / d + 0.5


def _ackley(x, transform):
    z = _shrunk(x, 1.0, transform)
    d = z.size
    return float(
        -20.0 * math.exp(-0.2 * math.sqrt((z * z).sum() / d))
        - math.exp(np.cos(2.0 * np.pi * z).sum() / d)
        + 20.0
        + math.e
    )


_SUITE = {
    "F1": (BenchFunction("F1", "chebyshev-fit", 9, -8192.0, 8192.0), None),
    "F2": (BenchFunction("F2", "inverse-hilbert", 16, -16384.0, 16384.0), None),
    "F3": (BenchFunction("F3", "lennard-jones", 18, -4.0, 4.0), None),
    "F4": (BenchFunction("F4", "rastrigin", 10, -100.0, 100.0), _rastrigin),
    "F5": (BenchFunction("F5", "griewank", 10, -100.0, 100.0), _griewank),
    "F6": (BenchFunction("F6", "weierstrass", 10, -100.0, 100.0), _weierstrass),
    "F7": (BenchFunction("F7", "modified-schwefel", 10, -100.0, 100.0), _modified_schwefel),
    "F8": (BenchFunction("F8", "expanded-schaffer6", 10, -100.0, 100.0), _expanded_schaffer6),
    "F9": (BenchFunction("F9", "happy-cat", 10, -100.0, 100.0), _happy_cat),
    "F10": (BenchFunction("F10", "ackley", 10, -100.0, 100.0), _ackley),
}

_FIXED = {"F1": _chebyshev, "F2": _inverse_hilbert, "F3": _lennard_jones}

FUNCTION_IDS = tuple(_SUITE)


def suite_info(fid):
    """Metadata record for one function id."""
    if fid not in _SUITE:
        raise ParameterError(f"unknown function id {fid!r}; expected one of {FUNCTION_IDS}")
    return _SUITE[fid][0]


def evaluate(fid, x, transform=None):
    """Value of a suite function at x, including the +1 offset."""
    info = suite_info(fid)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size != info.dim:
        raise ShapeError(f"{fid} expects a vector of length {info.dim}, got shape {x.shape}")
    if fid in _FIXED:
        if transform is not None:
            raise ParameterError(f"{fid} is a fixed problem and takes no transform")
        return _FIXED[fid](x) + 1.0
    return _SUITE[fid][1](x, transform) + 1.0


def make_objective(fid, transform=None):
    """Callable objective bound to one function id."""
    suite_info(fid)
    return lambda x: evaluate(fid, x, transform)
