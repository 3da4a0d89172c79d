"""Gradient-free optimizers over a box-initialized flat parameter vector.

All three optimizers share one driver, ``_drive``: it owns the random
stream, draws the initial population uniformly in the init box, evaluates
every agent once per epoch (aborting on a non-finite value, naming the first
bad agent), keeps the incumbent, the per-epoch best-fitness history, the
evaluation count and the timing. The incumbent moves only to a strictly lower
value, and among equal minima (0.0 and -0.0 included) the lowest agent index
wins: ``min(values)`` and then ``values.index(low)``.

``_drive`` scores a whole ``(agents, dim)`` population per epoch, through the
objective's ``population(positions)`` method, which returns ``(agents,)``
values. ``model.TrainingObjective`` and the benchmark suite's
``cec2019.SuiteObjective`` offer one. A plain callable ``f(vec) -> float`` on
one ``(dim,)`` vector is wrapped once, at entry, as ``[float(f(row)) for row
in positions]``. Every epoch then takes the same path: shape check, finite
check, first minimum.

An algorithm supplies its unit draws per epoch and two functions:

* ``terms(first, u)`` turns a block of unit draws ``u``, one
  ``(count, per_epoch)`` array for the epochs ``first .. first + count - 1``,
  into one tuple of terms per epoch: everything that depends only on the draws
  and the epoch number, computed for the whole block with a few vectorised
  ops;
* ``move(best_x, *terms)`` is the rest of one epoch's step, the arithmetic on
  the incumbent, and returns the next ``(agents, dim)`` population.

``_drive`` draws a block with one ``rng.random((count, per_epoch))`` call: as
many epochs as fit in ``_BLOCK_DRAWS`` draws (32 KB), or one epoch when a
single epoch needs more. The previous block is released before the next is
drawn, so a run holds one block at a time. No step follows the last epoch,
whose moves would never be scored.

* ``optimize_ifox`` is the improved fox-hunting search: a single incumbent, an
  annealed step-size alpha that decays from 1 to 1/(2*epochs), and per agent
  either an additive perturbation around the incumbent (probability alpha) or
  a multiplicative contraction of the incumbent scaled by the epoch jump term.
  Per epoch it draws ``dim`` numbers for the jump term, then an
  ``(agents, dim + 1)`` block: beta in the first ``dim`` columns, the branch
  draw in the last. Its terms are the scaled betas, the explore mask and the
  jump term.
* ``optimize_fox`` is the original algorithm kept as a baseline: a static
  50/50 split between an exploitation move built from distance and jump terms
  and an exploration move scaled by the running minimum mean time. Per epoch
  it draws an ``(agents, 2 * dim + 2)`` block: times, branch, direction, walk.
  Every draw is taken whichever branch fires. Its terms are the jump term,
  direction, walk, branch mask, running minimum time and adjustment.
* ``optimize_random`` is plain random search with the same evaluation budget,
  kept as a control; its terms are the fresh box draws, and its move ignores
  the incumbent.

Results are bit-identical to drawing and stepping one epoch at a time, which
rests on these rules:

* ``Generator.random`` gives the same doubles as ``uniform(0.0, 1.0)``, and one
  ``(count, per_epoch)`` draw equals ``count`` consecutive per-epoch draws, in
  order;
* a box draw keeps the arithmetic of ``rng.uniform``: ``lower + (upper - lower) * u``;
* a mean is ``np.add.reduce(..., axis=-1) / count``: a sum over the last axis
  of contiguous rows has the bits of the 1-D sum ``ndarray.mean`` takes;
* every elementwise op keeps its operand order, so ``0.5 * best_x * scaled /
  jump`` runs as ``((0.5 * best_x) * scaled) / jump``, never with the
  per-block factors combined first.

Agents are deliberately not clamped back into the init box after moves; the
box only shapes the initial population. Draws come from one stream per run in
a fixed order (epoch-major, agent-minor within each epoch), so results are
fully determined by the config.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NumericError, ParameterError, ShapeError
from .numkit import RngStream

GRAVITY_HALF = 4.905  # half of 9.81


@dataclass(frozen=True)
class OptimizerConfig:
    epochs: int
    agents: int
    dim: int
    lower: float
    upper: float
    seed: int

    def __post_init__(self):
        if self.epochs < 1:
            raise ParameterError(f"epochs must be >= 1, got {self.epochs}")
        if self.agents < 2:
            raise ParameterError(f"agents must be >= 2, got {self.agents}")
        if self.dim < 1:
            raise ParameterError(f"dim must be >= 1, got {self.dim}")
        if not self.lower < self.upper:
            raise ParameterError(f"need lower < upper, got [{self.lower}, {self.upper}]")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")


@dataclass
class OptimizerRun:
    """Result of one run: incumbent, per-epoch best-fitness history, counters."""

    best_x: np.ndarray
    best_f: float
    history: np.ndarray
    evals: int
    wall_time: float


def alpha_schedule(it, epochs):
    """Annealed step size for epoch ``it`` (0-based): decays from 1 toward 1 / (2 * epochs)."""
    if not 0 <= it < epochs:
        raise ParameterError(f"epoch index {it} outside [0, {epochs})")
    alpha_min = 1.0 / (2.0 * epochs)
    return alpha_min + (1.0 - alpha_min) * (1.0 - it / epochs)


def jump(t):
    """Jump magnitude for mean time t."""
    if t < 0:
        raise ParameterError(f"time must be non-negative, got {t}")
    return GRAVITY_HALF * t * t


# Unit draws per block (32 KB of float64): big enough to amortise the call,
# small enough to leave a run's peak memory where per-epoch draws had it.
_BLOCK_DRAWS = 4096


def _drive(name, objective, cfg, per_epoch, terms, move):
    """The epoch loop shared by every optimizer (see the module docstring)."""
    start = time.perf_counter()
    rng = RngStream(cfg.seed)
    positions = rng.uniform(cfg.lower, cfg.upper, size=(cfg.agents, cfg.dim))
    population = getattr(objective, "population", None)
    if population is None:
        population = lambda rows: [float(objective(row)) for row in rows]
    block = max(1, _BLOCK_DRAWS // per_epoch)
    last = cfg.epochs - 1
    best_x = None
    best_f = math.inf
    history = np.empty(cfg.epochs)
    for epoch in range(cfg.epochs):
        scored = np.asarray(population(positions), dtype=np.float64)
        if scored.shape != (cfg.agents,):
            raise ShapeError(
                f"{name}: population gave shape {scored.shape}, expected ({cfg.agents},)"
            )
        values = scored.tolist()
        if not all(map(math.isfinite, values)):
            a = next(a for a, value in enumerate(values) if not math.isfinite(value))
            raise NumericError(
                f"{name}: objective returned {values[a]!r} at epoch {epoch}, agent {a}"
            )
        # Python lists beat numpy reductions at a few dozen agents; min and
        # index both keep the first agent among equal minima.
        low = min(values)
        if low < best_f:
            best_f = low
            best_x = positions[values.index(low)].copy()
        history[epoch] = best_f
        if epoch == last:
            break
        i = epoch % block
        if i == 0:
            # the spent block (positions may be a view of it) goes before the next is drawn
            planned = positions = None
            planned = terms(epoch, rng.random((min(block, last - epoch), per_epoch)))
        positions = move(best_x, *planned[i])
    return OptimizerRun(
        best_x=best_x,
        best_f=best_f,
        history=history,
        evals=cfg.epochs * cfg.agents,
        wall_time=time.perf_counter() - start,
    )


def optimize_ifox(objective, cfg):
    dim = cfg.dim

    def terms(first, u):
        epochs = range(first, first + len(u))
        alpha = np.array([alpha_schedule(epoch, cfg.epochs) for epoch in epochs])[:, None, None]
        means = np.add.reduce(u[:, :dim], axis=-1) / dim
        jump_term = [jump(0.5 * mean) for mean in means.tolist()]
        u = u[:, dim:].reshape(len(u), cfg.agents, dim + 1)
        # beta is lo + (hi - lo) * u, the arithmetic of rng.uniform(lo, hi), added
        # in place (the sum's bits do not depend on operand order); then times alpha
        scaled = (alpha - -alpha) * u[..., :dim]
        scaled += -alpha
        scaled *= alpha
        explore = u[..., dim:] < alpha
        return list(zip(scaled, explore, jump_term))

    def move(best_x, scaled, explore, jump_term):
        out = (0.5 * best_x) * scaled
        out /= jump_term
        np.add(best_x, scaled, out=out, where=explore)
        return out

    return _drive("ifox", objective, cfg, dim + cfg.agents * (dim + 1), terms, move)


def optimize_fox(objective, cfg):
    dim, agents = cfg.dim, cfg.agents
    min_time = 1.0

    def terms(first, u):
        nonlocal min_time
        u = u.reshape(len(u), agents, 2 * dim + 2)
        mean_time = np.add.reduce(u[..., :dim], axis=-1) / dim
        # Exploitation: sound-travel distance reduces to the incumbent itself
        # (time cancels), then scale by jump and direction.
        jump_term = (GRAVITY_HALF * 0.5 * mean_time * mean_time)[..., None]
        direction = np.where(u[..., dim + 1] > 0.18, 0.18, 0.82)[..., None]
        walk = u[..., dim + 2 :]
        mask = u[..., dim, None] < 0.5
        # min_time before each epoch: the running minimum of the epochs' mean times
        running = np.minimum.accumulate(
            np.concatenate(([min_time], np.add.reduce(mean_time, axis=-1) / agents))
        )
        min_time = running[-1]
        # 1-based iteration in the exploration adjustment term
        adjustment = 2.0 * (np.arange(first + 1, first + 1 + len(u)) - 1.0 / cfg.epochs)
        return list(zip(jump_term, direction, walk, mask, running[:-1], adjustment))

    def move(best_x, jump_term, direction, walk, mask, min_time, adjustment):
        explore = best_x * walk
        explore *= min_time
        explore *= adjustment
        exploit = (0.5 * best_x) * jump_term
        exploit *= direction
        np.copyto(explore, exploit, where=mask)
        return explore

    return _drive("fox", objective, cfg, agents * (2 * dim + 2), terms, move)


def optimize_random(objective, cfg):
    """Uniform random search in the box; control with the same budget."""
    lower, upper = float(cfg.lower), float(cfg.upper)  # rng.uniform's bounds are doubles too

    def terms(first, u):
        # lo + (hi - lo) * u, the arithmetic of rng.uniform(lo, hi), in place
        u *= upper - lower
        u += lower
        return list(zip(u.reshape(len(u), cfg.agents, cfg.dim)))

    return _drive("random", objective, cfg, cfg.agents * cfg.dim, terms, lambda best_x, box: box)


OPTIMIZERS = {
    "ifox": optimize_ifox,
    "fox": optimize_fox,
    "random": optimize_random,
}


@dataclass
class MultiRunStats:
    """Aggregate of repeated independent runs with derived seeds."""

    optimizer: str
    best_values: np.ndarray
    mean: float
    std: float
    min: float
    runs: list = field(default_factory=list)


def multi_run(optimizer_id, objective, cfg, runs):
    """Execute ``runs`` independent runs with seeds cfg.seed + i."""
    if optimizer_id not in OPTIMIZERS:
        raise ParameterError(
            f"unknown optimizer {optimizer_id!r}; expected one of {sorted(OPTIMIZERS)}"
        )
    if runs < 1:
        raise ParameterError(f"runs must be >= 1, got {runs}")
    optimize = OPTIMIZERS[optimizer_id]
    results = [optimize(objective, replace(cfg, seed=cfg.seed + i)) for i in range(runs)]
    best_values = np.array([r.best_f for r in results])
    return MultiRunStats(
        optimizer=optimizer_id,
        best_values=best_values,
        mean=float(best_values.mean()),
        std=float(best_values.std()),
        min=float(best_values.min()),
        runs=results,
    )
