"""Gradient-free optimizers over a box-initialized flat parameter vector.

All three optimizers share one driver, ``_drive``: it owns the random
stream, draws the initial population uniformly in the init box, evaluates
every agent once per epoch (aborting on a non-finite value, naming the first
bad agent), keeps the incumbent, the per-epoch best-fitness history, the
evaluation count and the timing. The incumbent moves only to a strictly lower
value, and among equal minima the lowest agent index wins.

An objective is a callable ``f(vec) -> float`` on one ``(dim,)`` vector. It
may also offer ``f.population(positions)``, mapping the whole ``(agents, dim)``
population to an ``(agents,)`` array; ``_drive`` then makes one call per
epoch instead of one per agent. Its values must be bit-equal to
``[f(row) for row in positions]``, so that a run gives the same history and
incumbent whichever path it takes. ``model.TrainingObjective`` and the
benchmark suite's ``cec2019.SuiteObjective`` both offer one.

An algorithm only supplies ``step(epoch, best_x, rng)``, which returns the
next ``(agents, dim)`` population from one block of unit draws per epoch:

* ``optimize_ifox`` is the improved fox-hunting search: a single incumbent, an
  annealed step-size alpha that decays from 1 to 1/(2*epochs), and per agent
  either an additive perturbation around the incumbent (probability alpha) or
  a multiplicative contraction of the incumbent scaled by the epoch jump term.
  Per epoch it draws ``dim`` times for the jump term, then an
  ``(agents, dim + 1)`` block: beta in the first ``dim`` columns, the branch
  draw in the last.
* ``optimize_fox`` is the original algorithm kept as a baseline: a static
  50/50 split between an exploitation move built from distance and jump terms
  and an exploration move scaled by the running minimum mean time. Per epoch
  it draws an ``(agents, 2 * dim + 2)`` block: times, branch, direction, walk.
  Every draw is taken whichever branch fires.
* ``optimize_random`` is plain random search with the same evaluation budget,
  kept as a control; its step is a fresh box draw.

Agents are deliberately not clamped back into the init box after moves; the
box only shapes the initial population. Draws come from one stream per run in
a fixed order (epoch-major, agent-minor within each block), so results are
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


def _drive(name, objective, cfg, step):
    """The epoch loop shared by every optimizer (see the module docstring)."""
    start = time.perf_counter()
    rng = RngStream(cfg.seed)
    positions = rng.uniform(cfg.lower, cfg.upper, size=(cfg.agents, cfg.dim))
    population = getattr(objective, "population", None)
    best_x = None
    best_f = math.inf
    history = np.empty(cfg.epochs)
    for epoch in range(cfg.epochs):
        if population is None:
            values = [float(objective(row)) for row in positions]
        else:
            scored = np.asarray(population(positions), dtype=np.float64)
            if scored.shape != (cfg.agents,):
                raise ShapeError(
                    f"{name}: population gave shape {scored.shape}, expected ({cfg.agents},)"
                )
            values = scored.tolist()
        bad = [a for a, value in enumerate(values) if not math.isfinite(value)]
        if bad:
            raise NumericError(
                f"{name}: objective returned {values[bad[0]]!r} at epoch {epoch}, agent {bad[0]}"
            )
        # Python lists beat numpy reductions at a few dozen agents; min keeps
        # the first agent among equal minima.
        a = min(range(cfg.agents), key=values.__getitem__)
        if values[a] < best_f:
            best_f = values[a]
            best_x = positions[a].copy()
        history[epoch] = best_f
        positions = step(epoch, best_x, rng)
    return OptimizerRun(
        best_x=best_x,
        best_f=best_f,
        history=history,
        evals=cfg.epochs * cfg.agents,
        wall_time=time.perf_counter() - start,
    )


def optimize_ifox(objective, cfg):
    def step(epoch, best_x, rng):
        alpha = alpha_schedule(epoch, cfg.epochs)
        jump_term = jump(0.5 * rng.uniform(0.0, 1.0, cfg.dim).mean())
        u = rng.uniform(0.0, 1.0, (cfg.agents, cfg.dim + 1))
        # lo + (hi - lo) * u is the arithmetic of rng.uniform(lo, hi) itself
        beta = -alpha + (alpha - -alpha) * u[:, : cfg.dim]
        scaled = beta * alpha
        explore = u[:, cfg.dim, None] < alpha
        return np.where(explore, best_x + scaled, 0.5 * best_x * scaled / jump_term)

    return _drive("ifox", objective, cfg, step)


def optimize_fox(objective, cfg):
    min_time = 1.0

    def step(epoch, best_x, rng):
        nonlocal min_time
        # 1-based iteration in the exploration adjustment term
        adjustment = 2.0 * ((epoch + 1) - 1.0 / cfg.epochs)
        u = rng.uniform(0.0, 1.0, (cfg.agents, 2 * cfg.dim + 2))
        mean_time = u[:, : cfg.dim].mean(axis=1)
        branch = u[:, cfg.dim, None]
        direction = np.where(u[:, cfg.dim + 1] > 0.18, 0.18, 0.82)
        walk = u[:, cfg.dim + 2 :]
        # Exploitation: sound-travel distance reduces to the incumbent itself
        # (time cancels), then scale by jump and direction.
        jump_term = GRAVITY_HALF * 0.5 * mean_time * mean_time
        exploit = 0.5 * best_x * jump_term[:, None] * direction[:, None]
        explore = best_x * walk * min_time * adjustment
        min_time = min(min_time, float(mean_time.mean()))
        return np.where(branch < 0.5, exploit, explore)

    return _drive("fox", objective, cfg, step)


def optimize_random(objective, cfg):
    """Uniform random search in the box; control with the same budget."""

    def step(epoch, best_x, rng):
        return rng.uniform(cfg.lower, cfg.upper, size=(cfg.agents, cfg.dim))

    return _drive("random", objective, cfg, step)


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
