"""Independent scalar-loop oracles shared by the unit and acceptance tests.

These stay deliberately naive (explicit index loops, no shared code with the
package) so they can vouch for the vectorized implementations.
"""

import numpy as np


def phase1_oracle(x, c):
    x, c = np.asarray(x, float), np.asarray(c, float)
    n, f = x.shape
    p = c.shape[1]
    bias = sum(c[k][l] for k in range(f) for l in range(p)) / (f * p)
    out = np.zeros((n, p))
    for j in range(n):
        for i in range(p):
            out[j, i] = sum(x[j, k] * c[k, i] for k in range(f)) / f + bias
    return out


def phase2_oracle(a, v):
    a, v = np.asarray(a, float), np.asarray(v, float)
    n, p = a.shape
    o = v.shape[1]
    bias = sum(v[k][l] for k in range(p) for l in range(o)) / (p * o)
    out = np.zeros((n, o))
    for j in range(n):
        for i in range(o):
            out[j, i] = sum(a[j, k] * v[k, i] for k in range(p)) / p + bias
    return out


def chebyshev_oracle(x):
    """F1 with its +1 offset, one row at a time: the bit-exact reference for ``cec2019`` F1.

    Each row's Horner pass runs over the grid and then the two edge points,
    starting from zeros; the penalties of the grid values outside [-1, 1] are
    compacted and summed with ``np.add.reduce`` (numpy's pairwise order, so the
    bits match), and each edge point below the bound then adds its square in a
    Python loop. Finite rows only: a NaN compares as in band here.
    """
    x = np.asarray(x, float)
    d = x.shape[1]
    lo, hi = 1.0, 1.2
    for _ in range(d - 2):
        lo, hi = hi, 2.4 * hi - lo
    sample = 32 * d
    ys = np.append(-1.0 + np.arange(sample + 1) * (2.0 / sample), (-1.2, 1.2))
    out = []
    for row in x:
        p = np.zeros(ys.size)
        for c in row:
            p = p * ys + c
        grid = np.abs(p[:-2])
        mask = grid > 1.0
        gap = 1.0 - grid
        penalty = float(np.add.reduce((gap * gap)[mask]))
        for edge in p[-2:].tolist():
            if edge < hi:
                penalty += edge * edge
        out.append(penalty + 1.0)
    return np.array(out)


def schwefel_where_oracle(x, shift=None, rotation=None):
    """F7 with its +1 offset, every arm on every coordinate: the bit-exact reference for ``cec2019`` F7.

    The shrink is ``x * 10``, or ``rotation @ ((row - shift) * 10)`` one row
    at a time with a transform. All three arms are computed for the whole
    block; ``np.where`` keeps the middle arm where ``|z| <= 500``, else the
    ``z > 500`` arm where ``z > 500``, else (a NaN included) the ``z < -500``
    arm, and the terms are summed along each row.
    """
    x = np.asarray(x, float)
    if rotation is None:
        z = x * 10.0
    else:
        z = np.array([np.matmul(rotation, (row - shift) * 10.0) for row in x]).reshape(x.shape)
    z = z + 4.209687462275036e2
    d = x.shape[1]
    abs_z = np.abs(z)
    with np.errstate(invalid="ignore", over="ignore"):
        abs_rem = np.mod(abs_z, 500.0)
        mid = -z * np.sin(np.sqrt(abs_z))
        high_rem = 500.0 - np.mod(z, 500.0)
        high = -high_rem * np.sin(np.sqrt(np.abs(high_rem))) + (z - 500.0) ** 2 / (10000.0 * d)
        low_rem = -500.0 + abs_rem
        low = -low_rem * np.sin(np.sqrt(np.abs(500.0 - abs_rem))) + (z + 500.0) ** 2 / (10000.0 * d)
        total = np.where(abs_z <= 500.0, mid, np.where(z > 500.0, high, low))
        return total.sum(axis=-1) + 4.189828872724338e2 * d + 1.0
