import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alc.cec2019 import (
    FUNCTION_IDS,
    SuiteObjective,
    Transform,
    evaluate,
    load_transform,
    suite_info,
)
from alc.errors import AlcError, ParameterError, ShapeError
from alc.experiments import run_optbench
from alc.optimizers import OptimizerConfig, optimize_fox, optimize_ifox
from oracles import chebyshev_oracle, schwefel_where_oracle
from test_golden import seeded_transform

# Minimizers under the suite's zero-shift, identity-rotation default.
CHEBYSHEV_OPT = [128.0, 0.0, -256.0, 0.0, 160.0, 0.0, -32.0, 0.0, 1.0]

INVERSE_HILBERT_OPT = [
    16, -120, 240, -140,
    -120, 1200, -2700, 1680,
    240, -2700, 6480, -4200,
    -140, 1680, -4200, 2800,
]

# 6-atom minimum-energy cluster, refined to gradient norm ~1e-9.
LENNARD_JONES_OPT = [
    0.6619354637370624, 0.2358816907519946, -0.04174246829347939,
    -0.6619354637368868, -0.23588169075652818, 0.041742468314372914,
    0.1761584831251855, -0.3962028579639788, 0.5545562622654472,
    -0.17615848313524354, 0.39620285796490334, -0.5545562622265351,
    -0.1623292780393445, 0.5319062766502161, 0.4315855444662978,
    0.16232927804922634, -0.5319062766466066, -0.431585544426104,
]

OPTIMA = {
    "F1": CHEBYSHEV_OPT,
    "F2": INVERSE_HILBERT_OPT,
    "F3": LENNARD_JONES_OPT,
    **{fid: [0.0] * 10 for fid in ("F4", "F5", "F6", "F7", "F8", "F9", "F10")},
}


# ---------------------------------------------------------------------------
# scalar-loop oracles for the classic functions, domain shrink included


def rastrigin_oracle(x):
    total = 0.0
    for xi in x:
        z = xi * 5.12 / 100
        total += z * z - 10 * math.cos(2 * math.pi * z) + 10
    return total + 1


def griewank_oracle(x):
    s, prod = 0.0, 1.0
    for i, xi in enumerate(x):
        z = xi * 6.0
        s += z * z / 4000
        prod *= math.cos(z / math.sqrt(i + 1))
    return s - prod + 1 + 1


def weierstrass_oracle(x):
    a, b, kmax = 0.5, 3.0, 20
    total = 0.0
    for xi in x:
        z = xi * 0.5 / 100 + 0.5
        for k in range(kmax + 1):
            total += a**k * math.cos(2 * math.pi * b**k * z)
    center = sum(a**k * math.cos(2 * math.pi * b**k * 0.5) for k in range(kmax + 1))
    return total - len(x) * center + 1


def schwefel_oracle(x):
    d = len(x)
    total = 0.0
    for xi in x:
        z = xi * 10.0 + 4.209687462275036e2
        if abs(z) <= 500:
            total -= z * math.sin(math.sqrt(abs(z)))
        elif z > 500:
            total -= (500 - z % 500) * math.sin(math.sqrt(abs(500 - z % 500)))
            total += (z - 500) ** 2 / (10000 * d)
        else:
            total -= (-500 + abs(z) % 500) * math.sin(math.sqrt(abs(500 - abs(z) % 500)))
            total += (z + 500) ** 2 / (10000 * d)
    return total + 4.189828872724338e2 * d + 1


def schaffer6_oracle(x):
    total = 0.0
    for i in range(len(x)):
        a2 = x[i] ** 2 + x[(i + 1) % len(x)] ** 2
        total += 0.5 + (math.sin(math.sqrt(a2)) ** 2 - 0.5) / (1 + 0.001 * a2) ** 2
    return total + 1


def happy_cat_oracle(x):
    d = len(x)
    r2 = sum((xi * 0.05 - 1.0) ** 2 for xi in x)
    sz = sum(xi * 0.05 - 1.0 for xi in x)
    return abs(r2 - d) ** 0.25 + (0.5 * r2 + sz) / d + 0.5 + 1


def ackley_oracle(x):
    d = len(x)
    s1 = sum(xi * xi for xi in x)
    s2 = sum(math.cos(2 * math.pi * xi) for xi in x)
    return -20 * math.exp(-0.2 * math.sqrt(s1 / d)) - math.exp(s2 / d) + 20 + math.e + 1


ORACLES = {
    "F4": rastrigin_oracle,
    "F5": griewank_oracle,
    "F6": weierstrass_oracle,
    "F7": schwefel_oracle,
    "F8": schaffer6_oracle,
    "F9": happy_cat_oracle,
    "F10": ackley_oracle,
}


def test_suite_metadata():
    assert FUNCTION_IDS == tuple(f"F{i}" for i in range(1, 11))
    assert suite_info("F1").dim == 9
    assert suite_info("F2").dim == 16
    assert suite_info("F3").dim == 18
    for fid in ("F4", "F5", "F6", "F7", "F8", "F9", "F10"):
        info = suite_info(fid)
        assert info.dim == 10
        assert (info.lower, info.upper) == (-100.0, 100.0)
    assert suite_info("F4").f_min == 1.0


def test_unknown_function_id():
    with pytest.raises(ParameterError):
        suite_info("F11")
    with pytest.raises(ParameterError):
        evaluate("F0", [0.0])


@pytest.mark.parametrize("fid", FUNCTION_IDS)
def test_global_minimum_value_is_one(fid):
    assert evaluate(fid, OPTIMA[fid]) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("fid", sorted(ORACLES))
def test_matches_scalar_oracle_at_random_points(fid):
    rng = np.random.default_rng(int(fid[1:]))
    info = suite_info(fid)
    oracle = ORACLES[fid]
    for _ in range(100):
        x = rng.uniform(info.lower, info.upper, info.dim)
        ours = evaluate(fid, x)
        theirs = oracle(list(x))
        assert ours == pytest.approx(theirs, abs=1e-9 * max(1.0, abs(theirs)))


def test_wrong_dimension_rejected():
    with pytest.raises(ShapeError):
        evaluate("F4", np.zeros(9))
    with pytest.raises(ShapeError):
        evaluate("F1", np.zeros(10))


def test_evaluate_is_pure():
    x = np.linspace(-50, 50, 10)
    assert evaluate("F5", x) == evaluate("F5", x)
    before = x.copy()
    evaluate("F8", x)
    assert np.array_equal(x, before)


def test_suite_objective_binds_one_function():
    obj = SuiteObjective("F10")
    assert (obj.fid, obj.transform) == ("F10", None)
    assert obj(np.zeros(10)) == pytest.approx(1.0, abs=1e-9)
    assert obj.population(np.zeros((3, 10))) == pytest.approx([1.0] * 3, abs=1e-9)


@pytest.mark.parametrize("shape", [(10,), (2, 9), (3, 10, 1)])
def test_population_of_the_wrong_shape_is_rejected(shape):
    with pytest.raises(ShapeError, match="F4 expects rows of length 10"):
        SuiteObjective("F4").population(np.zeros(shape))


@st.composite
def suite_populations(draw):
    """An objective and a population of 1-12 agents, entries from 1e-3 up to 3 times the box.

    F4-F10 draw a seeded shift and rotation half the time; a collapsed draw
    puts the first two F3 atoms on top of each other in every agent.
    """
    fid = draw(st.sampled_from(FUNCTION_IDS))
    info = suite_info(fid)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1e-2, 0.1, 1.0, 3.0]))
    positions = rng.uniform(info.lower, info.upper, (draw(st.integers(1, 12)), info.dim)) * scale
    if draw(st.booleans()):
        positions[:, 3:6] = positions[:, 0:3]
    transform = None
    if fid not in ("F1", "F2", "F3") and draw(st.booleans()):
        transform = seeded_transform(rng, info.dim)
    return SuiteObjective(fid, transform), positions


@settings(max_examples=300, deadline=None)
@given(suite_populations())
def test_population_is_bit_equal_to_per_row_calls(problem):
    obj, positions = problem
    assert np.array_equal(obj.population(positions), [obj(row) for row in positions], equal_nan=True)


@st.composite
def chebyshev_blocks(draw):
    """1-200 rows of F1 coefficients, each row zero, tiny (up to 1e-3), unit or box-scale.

    Zero and tiny rows leave every grid value in band (an empty mask), nearly
    every unit row leaves some out of band, and nearly every box-scale row all.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = draw(st.integers(1, 200))
    scale = rng.choice([0.0, 1e-3, 1.0, 8192.0], size=(rows, 1))
    return rng.uniform(-1.0, 1.0, (rows, suite_info("F1").dim)) * scale


@settings(max_examples=100, deadline=None)
@given(chebyshev_blocks())
def test_f1_population_is_bit_equal_to_the_per_row_reference(x):
    assert SuiteObjective("F1").population(x).tobytes() == chebyshev_oracle(x).tobytes()


SCHWEFEL_SHIFT = 4.209687462275036e2  # z = shrink(x) + this; the arms change at |z| = 500
SPECIALS = [0.0, -0.0, math.nan, math.inf, -math.inf]


@st.composite
def schwefel_blocks(draw):
    """1-40 rows of F7 coordinates whose ``z`` lies inside [-500, 500], above 500 or below -500.

    Each ``z`` is drawn first (some exactly at +-500, the others outside up
    to 1e6 past it) and mapped back through the shrink, with a seeded
    transform half the time; then none, about 5% or about 20% of the entries
    become +-0, NaN or +-inf.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (draw(st.integers(1, 40)), suite_info("F7").dim)
    region = rng.choice(["inside", "above", "below", "edge"], size=shape, p=draw(st.sampled_from(
        [(1.0, 0.0, 0.0, 0.0), (0.7, 0.1, 0.1, 0.1), (0.2, 0.35, 0.35, 0.1), (0.0, 0.5, 0.5, 0.0)])))
    past = 500.0 + rng.uniform(0.0, 1.0, shape) * 10.0 ** rng.integers(-3, 7, shape)
    z = np.select([region == "inside", region == "above", region == "below"],
                  [rng.uniform(-500.0, 500.0, shape), past, -past], rng.choice([-500.0, 500.0], shape))
    transform = seeded_transform(rng, shape[1]) if draw(st.booleans()) else None
    x = (z - SCHWEFEL_SHIFT) / 10.0
    if transform is not None:
        x = transform.shift + x @ transform.rotation  # rotation.T @ row, the inverse rotation
    special = rng.random(shape) < draw(st.sampled_from([0.0, 0.05, 0.2]))
    x[special] = rng.choice(SPECIALS, special.sum())
    return SuiteObjective("F7", transform), x


@settings(max_examples=200, deadline=None)
@given(schwefel_blocks())
def test_f7_population_is_bit_equal_to_the_all_arms_reference(problem):
    obj, x = problem
    t = obj.transform
    with np.errstate(invalid="ignore"):  # a rotation turns an infinite coordinate into NaNs
        expected = schwefel_where_oracle(x, None if t is None else t.shift, None if t is None else t.rotation)
        values = obj.population(x)
    finite = np.isfinite(x).all(axis=1)
    assert values[finite].tobytes() == expected[finite].tobytes()
    # a row with a NaN or an infinite coordinate is NaN; the sign bit of its NaN may differ
    assert np.isnan(values[~finite]).all() and np.isnan(expected[~finite]).all()


WARNINGS = {
    "F1-inf": ("F1", math.inf, "invalid value encountered in multiply"),
    "F1-minus-inf": ("F1", -math.inf, "invalid value encountered in multiply"),
    "F1-huge": ("F1", 1e300, "overflow"),
    "F7-huge": ("F7", 1e300, "overflow"),
    "F7-minus-huge": ("F7", -1e300, "overflow"),
    "F1-nan": ("F1", math.nan, None),
    "F7-nan": ("F7", math.nan, None),
    "F7-inf": ("F7", math.inf, None),
    "F7-minus-inf": ("F7", -math.inf, None),
}


@pytest.mark.parametrize("case", sorted(WARNINGS))
def test_f1_and_f7_warn_only_where_numpy_flags_the_grid_or_arms(case):
    fid, value, message = WARNINGS[case]
    x = np.array(OPTIMA[fid], dtype=float)
    x[suite_info(fid).dim // 2] = value
    for score in (lambda: evaluate(fid, x), lambda: SuiteObjective(fid).population(np.stack([x, x]))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if message is None:
                assert np.isnan(score()).all()
            else:
                with pytest.raises(RuntimeWarning, match=message):
                    score()


def test_an_f1_edge_square_overflows_to_inf_without_a_warning():
    # CHEBYSHEV_OPT is T8, so the grid gaps stay below 5e152 and their squares sum to under 1e308, but
    # the edges, -5e152 * T8(+-1.2), square past the largest double: they add as Python floats would,
    # to inf and without a warning
    x = -5e152 * np.array(CHEBYSHEV_OPT)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert evaluate("F1", x) == math.inf
        assert SuiteObjective("F1").population(np.stack([x, x])).tolist() == [math.inf, math.inf]


def chebyshev_edge_bound(d):
    """F1's edge bound, T_{d-1}(1.2) by the three-term recurrence, as the suite computes it."""
    lo, hi = 1.0, 1.2
    for _ in range(d - 2):
        lo, hi = hi, 2.4 * hi - lo
    return hi


@pytest.mark.parametrize("edge", ["at", "just-below", "negated"])
def test_an_f1_edge_adds_its_square_only_below_the_bound(edge):
    # a constant polynomial puts both edges exactly on its value
    bound = chebyshev_edge_bound(9)
    value = {"at": bound, "just-below": np.nextafter(bound, 0.0), "negated": -bound}[edge]
    x = np.zeros((3, 9))
    x[:, -1] = value
    expected = chebyshev_oracle(x)
    assert SuiteObjective("F1").population(x).tobytes() == expected.tobytes()
    assert evaluate("F1", x[0]) == expected[0]


@pytest.mark.parametrize("fid", FUNCTION_IDS)
def test_a_nan_coordinate_gives_nan(fid):
    # a NaN must reach the optimizer's finite check, never a finite value such as F1's minimum
    dim = suite_info(fid).dim
    x = np.array(OPTIMA[fid], dtype=float)
    x[dim // 2] = np.nan
    assert math.isnan(evaluate(fid, x))
    block = np.tile(np.array(OPTIMA[fid], dtype=float), (3, 1))
    block[1] = x
    values = SuiteObjective(fid).population(block)
    assert math.isnan(values[1]) and np.isfinite(values[[0, 2]]).all()


@pytest.mark.parametrize("optimize", [optimize_ifox, optimize_fox], ids=["ifox", "fox"])
@pytest.mark.parametrize("fid", FUNCTION_IDS)
def test_run_is_identical_on_the_population_path(optimize, fid):
    # _drive scores a SuiteObjective one population per epoch, a plain callable one row per call.
    info = suite_info(fid)
    transform = None if fid in ("F1", "F2", "F3") else seeded_transform(np.random.default_rng(5), info.dim)
    obj = SuiteObjective(fid, transform)
    cfg = OptimizerConfig(epochs=30, agents=7, dim=info.dim, lower=info.lower, upper=info.upper, seed=3)
    batched, per_row = optimize(obj, cfg), optimize(lambda v: obj(v), cfg)
    assert np.array_equal(batched.history, per_row.history)
    assert np.array_equal(batched.best_x, per_row.best_x)


def test_transform_file_round_trip(tmp_path):
    info = suite_info("F4")
    rng = np.random.default_rng(99)
    shift = rng.uniform(-10, 10, info.dim)
    path = tmp_path / "F4.txt"
    lines = [" ".join(repr(float(v)) for v in shift)]
    for row in np.eye(info.dim):
        lines.append(" ".join(repr(float(v)) for v in row))
    path.write_text("\n".join(lines) + "\n")
    transform = load_transform(path, info.dim)
    np.testing.assert_allclose(transform.shift, shift)
    # optimum moves to the shift point
    assert evaluate("F4", shift, transform) == pytest.approx(1.0, abs=1e-9)
    assert evaluate("F4", np.zeros(info.dim), transform) > 1.0


def test_transform_rejected_for_fixed_problems(tmp_path):
    info = suite_info("F4")
    path = tmp_path / "t.txt"
    rows = [" ".join(["0.0"] * info.dim)]
    rows += [" ".join(repr(float(v)) for v in r) for r in np.eye(info.dim)]
    path.write_text("\n".join(rows))
    transform = load_transform(path, info.dim)
    with pytest.raises(ParameterError):
        evaluate("F1", np.zeros(9), transform)
    with pytest.raises(ParameterError, match="F1 is a fixed problem"):
        SuiteObjective("F1", transform)


def test_unknown_function_id_rejected_when_the_objective_is_made():
    with pytest.raises(ParameterError, match="unknown function id 'F11'"):
        SuiteObjective("F11")


MISFITS = {
    "short-shift": (np.zeros(5), np.eye(10), ShapeError),
    "small-rotation": (np.zeros(10), np.eye(5), ShapeError),
    "flat-rotation": (np.zeros(10), np.zeros(100), ShapeError),
    "nan-shift": (np.r_[np.nan, np.zeros(9)], np.eye(10), ParameterError),
    "inf-rotation": (np.zeros(10), np.diag(np.r_[np.inf, np.ones(9)]), ParameterError),
}


@pytest.mark.parametrize("name", sorted(MISFITS))
def test_transform_that_does_not_fit_is_rejected(name):
    shift, rotation, error = MISFITS[name]
    transform = Transform(shift=shift, rotation=rotation)
    with pytest.raises(error, match="F4"):
        SuiteObjective("F4", transform)
    with pytest.raises(error, match="F4"):
        evaluate("F4", np.zeros(10), transform)


def test_misfit_transform_stops_optbench_with_a_typed_error():
    misfit = {"F4": Transform(shift=np.zeros(5), rotation=np.eye(5))}
    with pytest.raises(AlcError, match=r"F4 needs a shift of shape \(10,\)"):
        run_optbench(function_ids=("F4",), runs=1, epochs=2, agents=2, transforms=misfit)


def test_transform_file_validation(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1.0 2.0\n3.0 4.0\n")
    with pytest.raises(ParameterError):
        load_transform(path, 10)


@pytest.mark.parametrize("cells", [["x"], ["nan"], ["inf"], []], ids=["x", "nan", "inf", "short"])
def test_transform_file_names_a_bad_row_by_line(tmp_path, cells):
    dim = suite_info("F4").dim
    rows = [" ".join(["0.0"] * dim)]
    rows += [" ".join(repr(float(v)) for v in r) for r in np.eye(dim)]
    rows[2] = " ".join(cells + ["0.0"] * (dim - 1))  # one bad cell, or one cell short
    path = tmp_path / "F4.txt"
    path.write_text("\n".join(rows))
    with pytest.raises(ParameterError, match=rf"F4\.txt, line 3: expected {dim} finite numbers"):
        load_transform(path, dim)


def unreadable_transform(tmp_path, kind):
    """``F4.txt`` under ``tmp_path`` that exists but cannot be read as text."""
    path = tmp_path / "F4.txt"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe0\x00.\x00\xff\xd8")  # UTF-16 byte order mark, then invalid UTF-8
    return path


@pytest.mark.parametrize("kind", ["directory", "utf16-bom"])
def test_transform_file_that_cannot_be_read_is_named(tmp_path, kind):
    path = unreadable_transform(tmp_path, kind)
    with pytest.raises(ParameterError, match=r"transform file .*F4\.txt cannot be read"):
        load_transform(path, suite_info("F4").dim)
