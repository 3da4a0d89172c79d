import math
import tracemalloc

import numpy as np
import pytest

from alc import optimizers
from alc.cec2019 import SuiteObjective, suite_info
from alc.errors import NumericError, ParameterError, ShapeError
from alc.model import AlcParams, TrainingObjective, make_variant
from alc.optimizers import (
    OPTIMIZERS,
    MultiRunStats,
    OptimizerConfig,
    alpha_schedule,
    jump,
    multi_run,
    optimize_fox,
    optimize_ifox,
    optimize_random,
)
from alc.numkit import RngStream


def sphere(x):
    return float(x @ x)


def cfg_for(dim=5, epochs=50, agents=6, seed=1, lower=-10.0, upper=10.0):
    return OptimizerConfig(epochs=epochs, agents=agents, dim=dim, lower=lower, upper=upper, seed=seed)


def test_alpha_schedule_first_epoch():
    assert alpha_schedule(0, 500) == 1.0


def test_alpha_schedule_last_epoch():
    # alpha_min = 1 / (2 * 500) = 0.001
    assert alpha_schedule(499, 500) == pytest.approx(0.001 + 0.999 * (1 / 500), abs=1e-12)


def test_alpha_strictly_decreasing():
    values = [alpha_schedule(it, 100) for it in range(100)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] > 1 / (2 * 100)  # alpha_min


def test_alpha_schedule_rejects_bad_epoch():
    with pytest.raises(ParameterError):
        alpha_schedule(100, 100)


@pytest.mark.parametrize("t,expected", [(0.5, 1.22625), (0.0, 0.0), (1.0, 4.905)])
def test_jump_values(t, expected):
    assert jump(t) == pytest.approx(expected)


def test_config_validation():
    with pytest.raises(ParameterError):
        OptimizerConfig(epochs=0, agents=5, dim=2, lower=-1, upper=1, seed=0)
    with pytest.raises(ParameterError):
        OptimizerConfig(epochs=5, agents=1, dim=2, lower=-1, upper=1, seed=0)
    with pytest.raises(ParameterError):
        OptimizerConfig(epochs=5, agents=5, dim=2, lower=1, upper=1, seed=0)
    with pytest.raises(ParameterError):
        OptimizerConfig(epochs=5, agents=5, dim=2, lower=-1, upper=1, seed=-1)


def test_ifox_sphere_converges():
    run = optimize_ifox(sphere, cfg_for(epochs=500, agents=10, seed=1))
    assert run.best_f <= 1e-3
    assert run.evals == 5000


def test_history_non_increasing_all_optimizers():
    for name, optimize in OPTIMIZERS.items():
        for seed in (1, 2, 3):
            run = optimize(sphere, cfg_for(epochs=30, agents=4, seed=seed))
            diffs = np.diff(run.history)
            assert (diffs <= 0).all(), name
            assert run.best_f == run.history[-1]


def test_single_epoch_evaluates_each_agent_once():
    calls = []

    def counting(x):
        calls.append(x.copy())
        return sphere(x)

    run = optimize_ifox(counting, cfg_for(epochs=1, agents=7))
    assert len(calls) == 7
    assert run.evals == 7
    # with one epoch the evaluated points are exactly the initial population
    for point in calls:
        assert (point >= -10).all() and (point <= 10).all()


def test_ifox_bitwise_deterministic():
    a = optimize_ifox(sphere, cfg_for(seed=9))
    b = optimize_ifox(sphere, cfg_for(seed=9))
    assert np.array_equal(a.best_x, b.best_x)
    assert np.array_equal(a.history, b.history)
    c = optimize_ifox(sphere, cfg_for(seed=10))
    assert not np.array_equal(a.history, c.history)


def test_fox_bitwise_deterministic():
    a = optimize_fox(sphere, cfg_for(seed=4))
    b = optimize_fox(sphere, cfg_for(seed=4))
    assert np.array_equal(a.best_x, b.best_x)
    assert np.array_equal(a.history, b.history)


def test_sound_distance_cancellation():
    # distance = (best / t) * t reduces to best itself for any positive times,
    # which is why the exploitation move uses the incumbent directly
    rng = np.random.default_rng(0)
    best = rng.normal(size=20)
    times = rng.uniform(0.01, 1.0, 20)
    np.testing.assert_allclose((best / times) * times, best, atol=1e-12)


def test_ifox_beats_random_search_tenfold_on_sphere():
    ifox_best = []
    random_best = []
    for seed in range(10):
        cfg = cfg_for(epochs=500, agents=10, seed=seed)
        ifox_best.append(optimize_ifox(sphere, cfg).best_f)
        random_best.append(optimize_random(sphere, cfg).best_f)
    assert np.median(random_best) >= 10 * max(np.median(ifox_best), 1e-300)


def test_non_finite_objective_aborts_with_location():
    def bad(x):
        return float("nan")

    with pytest.raises(NumericError, match="epoch 0, agent 0"):
        optimize_ifox(bad, cfg_for())


def scripted_run(values, batched):
    """One-epoch IFOX run where agent ``a`` scores ``values[a]``.

    ``batched`` gives the objective a population method; otherwise it is a
    plain per-vector callable.
    """
    cfg = cfg_for(epochs=1, agents=len(values))
    # _drive's first population: the first draw of the run's stream
    positions = RngStream(cfg.seed).uniform(cfg.lower, cfg.upper, size=(cfg.agents, cfg.dim))

    def scripted(x):
        return values[int(np.flatnonzero((positions == x).all(axis=1))[0])]

    if batched:
        scripted.population = lambda block: np.array(values)
    return optimize_ifox(scripted, cfg), positions


@pytest.mark.parametrize("batched", [False, True], ids=["per-agent", "population"])
def test_non_finite_agent_is_named_on_both_paths(batched):
    values = [3.0, 2.0, 1.0, float("nan"), float("inf"), 0.5]
    with pytest.raises(NumericError, match=r"^ifox: objective returned nan at epoch 0, agent 3$"):
        scripted_run(values, batched)


@pytest.mark.parametrize("batched", [False, True], ids=["per-agent", "population"])
def test_equal_minima_keep_the_lowest_agent(batched):
    run, positions = scripted_run([4.0, 1.0, 2.0, 1.0, 1.0, 3.0], batched)
    assert run.best_f == 1.0
    assert np.array_equal(run.best_x, positions[1])


def test_population_of_the_wrong_shape_is_rejected():
    def constant(x):
        return 1.0

    constant.population = lambda positions: np.zeros(len(positions) + 1)
    with pytest.raises(ShapeError, match="population gave shape"):
        optimize_ifox(constant, cfg_for(agents=2))


@pytest.mark.parametrize(
    "as_float, as_other",
    [
        (lambda x: float(round(sphere(x))), lambda x: round(sphere(x))),
        (sphere, lambda x: np.asarray(sphere(x))),
    ],
    ids=["int", "0-d array"],
)
@pytest.mark.parametrize("name", sorted(OPTIMIZERS))
def test_plain_callables_score_like_float_ones(name, as_float, as_other):
    cfg = cfg_for(dim=3, epochs=40, agents=5, lower=-4.0, upper=4.0)
    reference = OPTIMIZERS[name](as_float, cfg)
    run = OPTIMIZERS[name](as_other, cfg)
    assert run.best_x.tobytes() == reference.best_x.tobytes()
    assert run.history.tobytes() == reference.history.tobytes()
    assert run.best_f == reference.best_f and type(run.best_f) is float


def test_multi_run_single():
    stats = multi_run("ifox", sphere, cfg_for(epochs=20, agents=4, seed=3), runs=1)
    assert stats.mean == stats.min == stats.runs[0].best_f
    assert stats.std == 0.0


def test_multi_run_statistics_match_recompute():
    stats = multi_run("ifox", sphere, cfg_for(epochs=15, agents=4, seed=5), runs=6)
    values = stats.best_values
    assert stats.mean == pytest.approx(values.mean())
    assert stats.std == pytest.approx(values.std())
    assert stats.min == pytest.approx(values.min())
    assert len(stats.runs) == 6


def test_multi_run_derives_distinct_seeds():
    stats = multi_run("ifox", sphere, cfg_for(epochs=15, agents=4, seed=5), runs=2)
    assert not np.array_equal(stats.runs[0].history, stats.runs[1].history)


def test_multi_run_unknown_optimizer():
    with pytest.raises(ParameterError):
        multi_run("annealing", sphere, cfg_for(), runs=2)
    with pytest.raises(ParameterError):
        multi_run("ifox", sphere, cfg_for(), runs=0)


class ShiftedSphere:
    """Sphere centred at 0.3; ``population`` scores rows bit-equal to one-by-one calls."""

    def __call__(self, x):
        return float(((x - 0.3) ** 2).sum())

    def population(self, positions):
        return ((positions - 0.3) ** 2).sum(axis=-1)


def draws_per_epoch(name, cfg):
    return {
        "ifox": cfg.dim + cfg.agents * (cfg.dim + 1),
        "fox": cfg.agents * (2 * cfg.dim + 2),
        "random": cfg.agents * cfg.dim,
    }[name]


@pytest.mark.parametrize("name", sorted(OPTIMIZERS))
def test_runs_do_not_depend_on_the_draw_block_size(monkeypatch, name):
    cfg = cfg_for(dim=4, epochs=60, agents=5, lower=0.5, upper=2.0)
    reference = OPTIMIZERS[name](ShiftedSphere(), cfg)
    per_epoch = draws_per_epoch(name, cfg)
    # one epoch a block, one with draws to spare, three a block (60 - 1 steps
    # leave a short last block), and the whole run in one block
    for block_draws in (1, per_epoch + 1, 3 * per_epoch + 1, 10**9):
        monkeypatch.setattr(optimizers, "_BLOCK_DRAWS", block_draws)
        for objective in (ShiftedSphere(), ShiftedSphere().__call__):
            run = OPTIMIZERS[name](objective, cfg)
            assert run.best_x.tobytes() == reference.best_x.tobytes(), block_draws
            assert run.history.tobytes() == reference.history.tobytes(), block_draws


@pytest.mark.parametrize("batched", [False, True], ids=["per-agent", "population"])
@pytest.mark.parametrize("name", sorted(OPTIMIZERS))
def test_non_finite_agent_is_named_after_many_small_blocks(monkeypatch, name, batched):
    monkeypatch.setattr(optimizers, "_BLOCK_DRAWS", 7)
    cfg = cfg_for(epochs=60, agents=6)
    calls = [0]

    def poisoned(x):
        epoch, agent = divmod(calls[0], cfg.agents)
        calls[0] += 1
        return float("nan") if (epoch, agent) == (37, 4) else sphere(x)

    if batched:
        epochs = iter(range(cfg.epochs))

        def population(positions):
            values = (positions * positions).sum(axis=-1)
            if next(epochs) == 37:
                values[4] = np.nan
            return values

        poisoned.population = population
    with pytest.raises(NumericError, match=rf"^{name}: objective returned nan at epoch 37, agent 4$"):
        OPTIMIZERS[name](poisoned, cfg)


def traced_peak(optimize, objective, cfg):
    optimize(objective, cfg)  # warm up caches and lazy imports outside the trace
    tracemalloc.start()
    try:
        optimize(objective, cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Traced peak of a dim-2000, 10-agent run, in populations (10 * 2000 * 8 bytes),
# when each epoch drew its own unit numbers (numpy 2.4): (population path, per-agent path).
PER_EPOCH_DRAW_PEAKS = {"ifox": (7.18, 7.18), "fox": (6.18, 6.18), "random": (3.11, 2.11)}

# Traced peak of a dim-10, 10-agent, 1,000-epoch run beyond its history, in full
# look-ahead windows (16 * 10 * 10 * 8 bytes; numpy 2.4). Most of it is the block
# of draws and its terms; one window of populations and the objective's
# temporaries for it are the rest.
LONG_RUN_WINDOW_PEAKS = {"ifox": 9.78, "fox": 7.44, "random": 5.14}


@pytest.mark.parametrize("name", sorted(OPTIMIZERS))
def test_draw_blocks_keep_peak_memory_bounded(name):
    cfg = cfg_for(dim=2000, epochs=5, agents=10, lower=0.5, upper=2.0)
    for objective, before in zip((ShiftedSphere(), ShiftedSphere().__call__), PER_EPOCH_DRAW_PEAKS[name]):
        peak = traced_peak(OPTIMIZERS[name], objective, cfg)
        assert peak <= 1.1 * before * cfg.agents * cfg.dim * 8
    # a longer run holds one block of draws and one window at a time (tens of KB
    # here): only its history grows. Both runs reach full windows.
    cfgs = [cfg_for(dim=10, epochs=e, agents=10) for e in (500, 1000)]
    recorded = Recorded(ShiftedSphere())
    OPTIMIZERS[name](recorded, cfgs[0])
    assert max(recorded.calls) == optimizers._WINDOW * cfgs[0].agents
    short, long = (traced_peak(OPTIMIZERS[name], ShiftedSphere(), cfg) for cfg in cfgs)
    assert long - short <= (1000 - 500) * 8 + 4096  # the history, and some small Python objects
    window = optimizers._WINDOW * cfgs[1].agents * cfgs[1].dim * 8
    assert long - cfgs[1].epochs * 8 <= 1.1 * LONG_RUN_WINDOW_PEAKS[name] * window


# ---------------------------------------------------------------------------
# look-ahead windows


class Recorded:
    """A population objective that keeps the row count of every call."""

    def __init__(self, objective):
        self.objective = objective
        self.calls = []

    def population(self, positions):
        self.calls.append(len(positions))
        return self.objective.population(positions)


def iris_shaped_training():
    """A ``full`` model's loss at iris training shapes: 135 rows, 4 features, 5 lobules, 3 classes."""
    n, f, p, o = 135, 4, 5, 3
    rng = np.random.default_rng(0)
    vm = make_variant(AlcParams(f, p, o, np.zeros((f, p)), np.zeros((p, o))), "full")
    return TrainingObjective(rng.normal(size=(n, f)), np.eye(o)[np.arange(n) % o], vm)


def suite_case(fid):
    info = suite_info(fid)
    return SuiteObjective(fid), info.dim, info.lower, info.upper


# label -> (objective with a population method, dim, lower, upper)
LOOKAHEAD_CASES = {
    "shifted sphere": (ShiftedSphere(), 4, -10.0, 10.0),  # frequent improvements
    "stall off the origin": (ShiftedSphere(), 4, 0.5, 2.0),  # FOX stops improving
    "F1": suite_case("F1"),
    "F2": suite_case("F2"),
    "F6": suite_case("F6"),
    "F7": suite_case("F7"),
    "iris training": (iris_shaped_training(), 35, -1.0, 1.0),
}


@pytest.mark.parametrize("block_draws", [7, optimizers._BLOCK_DRAWS, 10**9])
@pytest.mark.parametrize("agents", [2, 10, 33])
@pytest.mark.parametrize("name", sorted(OPTIMIZERS))
def test_lookahead_windows_match_one_epoch_per_call(monkeypatch, name, agents, block_draws):
    monkeypatch.setattr(optimizers, "_BLOCK_DRAWS", block_draws)
    for label, (objective, dim, lower, upper) in LOOKAHEAD_CASES.items():
        # the stalled FOX run is long enough for its windows to reach the cap
        epochs = 120 if label == "stall off the origin" else 60
        cfg = cfg_for(dim=dim, epochs=epochs, agents=agents, lower=lower, upper=upper)
        # the plain per-vector twin is scored one epoch per call
        reference = OPTIMIZERS[name](objective.__call__, cfg)
        recorded = Recorded(objective)
        run = OPTIMIZERS[name](recorded, cfg)
        assert run.history.tobytes() == reference.history.tobytes(), label
        assert run.best_x.tobytes() == reference.best_x.tobytes(), label
        assert run.best_f == reference.best_f, label
        assert run.evals == reference.evals == reference.scored == cfg.epochs * agents
        assert run.scored == sum(recorded.calls) >= run.evals
        assert all(rows % agents == 0 for rows in recorded.calls)
        assert max(recorded.calls) <= optimizers._WINDOW * agents
        if block_draws == 7:  # one epoch a block, and windows never cross a block
            assert set(recorded.calls) == {agents}, label
        if block_draws != 7 and label == "stall off the origin" and name == "fox":
            # a window fills a draw block when the block holds fewer epochs than the cap
            block = block_draws // draws_per_epoch(name, cfg)
            assert max(recorded.calls) == min(optimizers._WINDOW, block) * agents


@pytest.mark.parametrize("name", sorted(OPTIMIZERS))
def test_plain_callables_are_called_once_per_evaluation(name):
    calls = [0]

    def counting(x):
        calls[0] += 1
        return ShiftedSphere()(x)

    cfg = cfg_for(dim=4, epochs=80, agents=5, lower=0.5, upper=2.0)
    run = OPTIMIZERS[name](counting, cfg)
    assert calls[0] == run.evals == run.scored == cfg.epochs * cfg.agents


class Planted(ShiftedSphere):
    """ShiftedSphere that scores nan at one row's content and keeps every population call."""

    def __init__(self, nan_at=None):
        self.nan_at = nan_at
        self.calls = []

    def __call__(self, x):
        return math.nan if x.tobytes() == self.nan_at else super().__call__(x)

    def population(self, positions):
        self.calls.append(positions.copy())
        values = super().population(positions)
        values[[row.tobytes() == self.nan_at for row in positions]] = np.nan
        return values


def test_nan_counts_only_in_accepted_epochs():
    cfg = cfg_for(dim=4, epochs=200, agents=6)
    accepted = []

    def plain(x):
        accepted.append(x.tobytes())
        return ShiftedSphere()(x)

    reference = optimize_ifox(plain, cfg)
    probe = Planted()
    optimize_ifox(probe, cfg)
    seen = set(accepted)
    windows = [block for block in probe.calls if len(block) > cfg.agents]
    discarded = [row.tobytes() for block in windows for row in block if row.tobytes() not in seen]
    assert discarded  # some window looked past an improvement
    run = optimize_ifox(Planted(nan_at=discarded[0]), cfg)
    assert run.history.tobytes() == reference.history.tobytes()
    assert run.best_x.tobytes() == reference.best_x.tobytes()
    assert run.scored > run.evals

    # an accepted row from a window's second epoch or later
    row = next(r.tobytes() for block in windows for r in block[cfg.agents :] if r.tobytes() in seen)
    epoch, agent = divmod(accepted.index(row), cfg.agents)
    assert epoch > 0
    for objective in (Planted(nan_at=row), Planted(nan_at=row).__call__):
        with pytest.raises(NumericError, match=rf"^ifox: objective returned nan at epoch {epoch}, agent {agent}$"):
            optimize_ifox(objective, cfg)
