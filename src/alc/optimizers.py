"""Gradient-free optimizers over a box-initialized flat parameter vector.

All three optimizers share one driver, ``_drive``: it owns the random
stream, draws the initial population uniformly in the init box, evaluates
every agent once per epoch (aborting on a non-finite value, naming the first
bad agent), keeps the incumbent, the per-epoch best-fitness history, the
evaluation count and the timing. The incumbent moves only to a strictly lower
value, and among equal minima (0.0 and -0.0 included) the lowest agent index
wins: ``min(values)`` and then ``values.index(low)``.

``_drive`` asks for fitness only through the objective's
``population(positions)`` method, which scores every row of a ``(rows,
dim)`` block and returns ``(rows,)`` values, each row independently of the
others. ``model.TrainingObjective`` and the benchmark suite's
``cec2019.SuiteObjective`` offer one. A plain callable ``f(vec) -> float`` on
one ``(dim,)`` vector is wrapped once, at entry, as ``[float(f(row)) for row
in positions]``. Every call then takes the same path: shape check, then per
epoch a finite check and the first minimum.

A ``population`` call may hold the rows of several epochs: a look-ahead
window. While the incumbent holds, the next epochs' populations depend only
on the draws, so ``_drive`` moves them all from the current incumbent and
scores them in one call. It then accepts the epochs in order, up to and
including the first that improves the incumbent, and discards the rows
after it, which the next window recomputes from the new incumbent. Every
accepted epoch was therefore moved from the incumbent that one epoch at a
time would have used, by the same arithmetic, and results are bit for bit
those of scoring one epoch per call. A discarded row is never checked, so a
non-finite value there raises nothing. ``OptimizerRun.evals`` counts the
accepted evaluations, ``epochs * agents``; ``OptimizerRun.scored`` counts
every row the objective scored, discarded ones included. A window spans
``min(16, max(1, streak // 2))`` epochs, where ``streak`` is the number of
epochs since the incumbent last improved, and never crosses a draw block or
the last epoch: a long stall, such as a FOX run whose incumbent stopped
moving, is scored 16 epochs a call. A plain callable always gets one epoch
per call, so each of its calls is one counted evaluation.

An algorithm supplies its unit draws per epoch and two functions:

* ``terms(first, u)`` turns a block of unit draws ``u``, one
  ``(count, per_epoch)`` array for the epochs ``first .. first + count - 1``,
  into a tuple of arrays with a leading step axis of ``count``, shaped to
  broadcast against ``(count, agents, dim)``: everything that depends only on
  the draws and the epoch number, computed for the whole block with a few
  vectorised ops;
* ``move(best_x, *terms)`` is the rest of the step for a slice of those
  steps, the arithmetic on the incumbent, and returns the next
  ``(steps, agents, dim)`` populations in one vectorised call.

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

Results are bit-identical to drawing, stepping and scoring one epoch at a
time, which rests on these rules:

* ``Generator.random`` gives the same doubles as ``uniform(0.0, 1.0)``, and one
  ``(count, per_epoch)`` draw equals ``count`` consecutive per-epoch draws, in
  order;
* a box draw keeps the arithmetic of ``rng.uniform``: ``lower + (upper - lower) * u``;
* a mean is ``np.add.reduce(..., axis=-1) / count``: a sum over the last axis
  of contiguous rows has the bits of the 1-D sum ``ndarray.mean`` takes;
* every elementwise op keeps its operand order, so ``0.5 * best_x * scaled /
  jump`` runs as ``((0.5 * best_x) * scaled) / jump``, never with the
  per-block factors combined first; a term broadcast along the step axis is
  the same double per element as the per-epoch scalar it replaces;
* a ``population`` row's value does not depend on the other rows in the
  call, nor on how many there are.

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
    evals: int  # accepted evaluations: epochs * agents
    scored: int  # rows the objective scored, look-ahead rows discarded after an improvement included
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


# Most epochs one look-ahead window scores (see the module docstring). Only a
# long stall fills a window, and a run holds one at a time: ``_WINDOW * agents
# * dim`` doubles plus the objective's temporaries for as many rows. At 10
# agents and dim 10 that is 12.8 KB of populations, below the 32 KB block of
# draws; the suite kernels keep their temporaries small by working in place.
_WINDOW = 16


def _drive(name, objective, cfg, per_epoch, terms, move):
    """The epoch loop shared by every optimizer (see the module docstring)."""
    start = time.perf_counter()
    rng = RngStream(cfg.seed)
    agents, dim = cfg.agents, cfg.dim
    positions = rng.uniform(cfg.lower, cfg.upper, size=(agents, dim))[None]
    population = getattr(objective, "population", None)
    window = _WINDOW
    if population is None:
        population = lambda rows: [float(objective(row)) for row in rows]
        window = 1  # so that each call of a plain callable is one counted evaluation
    block = max(1, _BLOCK_DRAWS // per_epoch)
    last = cfg.epochs - 1
    best_x = None
    best_f = math.inf
    history = np.empty(cfg.epochs)
    epoch = -1  # the last accepted epoch
    streak = 0  # accepted epochs since the incumbent last improved
    scored = 0
    while True:
        # positions holds the populations of epochs epoch + 1 .. epoch + steps
        steps = len(positions)
        rows = steps * agents
        values = np.asarray(population(positions.reshape(rows, dim)), dtype=np.float64)
        if values.shape != (rows,):
            raise ShapeError(f"{name}: population gave shape {values.shape}, expected ({rows},)")
        scored += rows
        values = values.tolist()
        for k in range(steps):
            epoch += 1
            epoch_values = values[k * agents : (k + 1) * agents]
            if not all(map(math.isfinite, epoch_values)):
                a = next(a for a, value in enumerate(epoch_values) if not math.isfinite(value))
                raise NumericError(
                    f"{name}: objective returned {epoch_values[a]!r} at epoch {epoch}, agent {a}"
                )
            # Python lists beat numpy reductions at a few dozen agents; min and
            # index both keep the first agent among equal minima.
            low = min(epoch_values)
            streak += 1
            if low < best_f:
                best_f = low
                best_x = positions[k, epoch_values.index(low)].copy()
                streak = 0
            history[epoch] = best_f
            if not streak:
                break  # the window's later epochs moved from the old incumbent
        if epoch == last:
            break
        i = epoch % block
        if i == 0:
            # the spent block (positions may be a view of it) goes before the next is drawn
            planned = positions = None
            planned = terms(epoch, rng.random((min(block, last - epoch), per_epoch)))
        # the slices stop at the block's end, so a window never crosses a block or the last epoch
        steps = min(window, max(1, streak // 2))
        positions = move(best_x, *[term[i : i + steps] for term in planned])
    return OptimizerRun(
        best_x=best_x,
        best_f=best_f,
        history=history,
        evals=cfg.epochs * agents,
        scored=scored,
        wall_time=time.perf_counter() - start,
    )


def optimize_ifox(objective, cfg):
    dim = cfg.dim

    def terms(first, u):
        epochs = range(first, first + len(u))
        alpha = np.array([alpha_schedule(epoch, cfg.epochs) for epoch in epochs])[:, None, None]
        means = np.add.reduce(u[:, :dim], axis=-1) / dim
        jump_term = np.array([jump(0.5 * mean) for mean in means.tolist()])[:, None, None]
        u = u[:, dim:].reshape(len(u), cfg.agents, dim + 1)
        # beta is lo + (hi - lo) * u, the arithmetic of rng.uniform(lo, hi), added
        # in place (the sum's bits do not depend on operand order); then times alpha
        scaled = (alpha - -alpha) * u[..., :dim]
        scaled += -alpha
        scaled *= alpha
        explore = u[..., dim:] < alpha
        return scaled, explore, jump_term

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
        return jump_term, direction, walk, mask, running[:-1, None, None], adjustment[:, None, None]

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
        return (u.reshape(len(u), cfg.agents, cfg.dim),)

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
