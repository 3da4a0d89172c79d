import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alc.errors import (
    LobuleRangeError,
    ParameterError,
    PersistenceError,
    ShapeError,
    VariantError,
)
from alc.model import (
    VARIANTS,
    AlcParams,
    TrainingObjective,
    embed_trainable,
    feature_embedding_map,
    forward,
    init_params,
    load_model,
    lobule_average_map,
    make_variant,
    objective,
    phase1,
    phase2,
    predict,
    save_model,
    trainable_size,
)
from alc.numkit import RngStream
from alc.optimizers import OptimizerConfig, optimize_ifox
from oracles import phase1_oracle, phase2_oracle


def make_params(f, p, o, seed=0):
    rng = np.random.default_rng(seed)
    return AlcParams(f, p, o, rng.uniform(-1, 1, (f, p)), rng.uniform(-1, 1, (p, o)))


# ---------------------------------------------------------------------------
# initialization


def test_init_params_shapes_and_range():
    params = init_params(4, 10, 3, RngStream(7))
    assert params.cofactor.shape == (4, 10)
    assert params.vitamin.shape == (10, 3)
    assert (np.abs(params.cofactor) <= 1).all() and (np.abs(params.vitamin) <= 1).all()


def test_init_params_deterministic():
    a = init_params(4, 10, 3, RngStream(7))
    b = init_params(4, 10, 3, RngStream(7))
    assert np.array_equal(a.cofactor, b.cofactor)
    assert np.array_equal(a.vitamin, b.vitamin)


def test_init_params_lobule_range_errors():
    assert init_params(4, 3, 3, RngStream(0)).shape == (4, 3, 3)
    with pytest.raises(LobuleRangeError, match="admissible range"):
        init_params(4, 0, 3, RngStream(0))
    with pytest.raises(LobuleRangeError):
        init_params(4, 100_000, 3, RngStream(0))
    with pytest.raises(ParameterError):
        init_params(4, 10, 1, RngStream(0))


# ---------------------------------------------------------------------------
# the two transformations


def test_phase1_hand_example():
    out = phase1([[1.0, 2.0]], np.array([[1.0, 1.0], [1.0, 1.0]]))
    np.testing.assert_allclose(out, [[2.5, 2.5]])


def test_phase1_zero_cases():
    x = np.array([[1.0, -2.0], [0.5, 3.0]])
    zeros = np.zeros((2, 3))
    assert np.array_equal(phase1(x, zeros), np.zeros((2, 3)))
    c = np.array([[0.2, -0.4], [0.6, 0.8]])
    np.testing.assert_allclose(phase1(np.zeros((3, 2)), c), np.full((3, 2), c.mean()))


def test_phase2_hand_example():
    out = phase2([[1.0, 1.0]], np.array([[1.0], [1.0]]))
    np.testing.assert_allclose(out, [[2.0]])


def test_phase2_zero_vitamin():
    assert np.array_equal(phase2(np.ones((2, 3)), np.zeros((3, 2))), np.zeros((2, 2)))


def test_phase2_identity_vitamin_closed_form():
    rng = np.random.default_rng(3)
    a = rng.uniform(0, 2, (4, 3))
    np.testing.assert_allclose(phase2(a, np.eye(3)), a / 3 + 1 / 3, atol=1e-15)


def test_phases_match_scalar_oracle():
    rng = np.random.default_rng(4)
    for _ in range(100):
        x = rng.normal(size=(5, 4))
        c = rng.uniform(-1, 1, (4, 3))
        v = rng.uniform(-1, 1, (3, 2))
        np.testing.assert_allclose(phase1(x, c), phase1_oracle(x, c), atol=1e-12)
        a = np.maximum(phase1(x, c), 0)
        np.testing.assert_allclose(phase2(a, v), phase2_oracle(a, v), atol=1e-12)


def test_phase_shape_error():
    with pytest.raises(ShapeError):
        phase1(np.ones((2, 3)), np.ones((4, 5)))


# ---------------------------------------------------------------------------
# forward and predict


def test_forward_zero_params_uniform():
    params = AlcParams(2, 3, 4, np.zeros((2, 3)), np.zeros((3, 4)))
    out = forward(np.array([[5.0, -1.0]]), params)
    np.testing.assert_allclose(out, np.full((1, 4), 0.25), atol=1e-15)


def test_forward_chains_the_phase_examples():
    # cofactor all ones on [[1,2]] gives activations [2.5,2.5]; vitamin all
    # ones then yields phase2 value 3.5 in both classes, softmax 0.5/0.5.
    params = AlcParams(2, 2, 2, np.ones((2, 2)), np.ones((2, 2)))
    x = np.array([[1.0, 2.0]])
    a = np.maximum(phase1(x, params.cofactor), 0)
    np.testing.assert_allclose(a, [[2.5, 2.5]])
    b = phase2(a, params.vitamin)
    np.testing.assert_allclose(b, [[3.5, 3.5]])
    np.testing.assert_allclose(forward(x, params), [[0.5, 0.5]])


def test_forward_rows_sum_to_one_and_stay_strict():
    rng = np.random.default_rng(5)
    params = make_params(4, 6, 3)
    out = forward(rng.normal(size=(50, 4)), params)
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)
    assert (out > 0).all() and (out < 1).all()


def test_forward_feature_count_mismatch():
    with pytest.raises(ShapeError):
        forward(np.ones((2, 3)), make_params(4, 6, 3))


def test_forward_unknown_variant():
    with pytest.raises(VariantError):
        forward(np.ones((2, 4)), make_params(4, 6, 3), "bogus")


def test_predict_uniform_row_tie_breaks_to_zero():
    params = AlcParams(2, 3, 4, np.zeros((2, 3)), np.zeros((3, 4)))
    assert predict(np.array([[1.0, 2.0]]), params).tolist() == [0]


def test_predict_matches_pre_softmax_argmax():
    rng = np.random.default_rng(6)
    params = make_params(5, 7, 4, seed=1)
    x = rng.normal(size=(40, 5))
    scores = phase2(np.maximum(phase1(x, params.cofactor), 0), params.vitamin)
    assert np.array_equal(predict(x, params), scores.argmax(axis=1))


def test_predict_invariant_under_row_shift_and_scale():
    from alc.numkit import softmax_rows

    rng = np.random.default_rng(7)
    scores = rng.normal(size=(30, 4))
    base = softmax_rows(scores).argmax(axis=1)
    assert np.array_equal(softmax_rows(scores + 3.7).argmax(axis=1), base)
    assert np.array_equal(softmax_rows(scores * 2.5).argmax(axis=1), base)


# ---------------------------------------------------------------------------
# variant forwards


def test_lobule_average_map_blocks():
    w = lobule_average_map(10, 2)
    np.testing.assert_allclose(w[:5, 0], 0.2)
    np.testing.assert_allclose(w[5:, 1], 0.2)
    assert w.sum() == pytest.approx(2.0)
    assert lobule_average_map(10, 2) is w and not w.flags.writeable
    with pytest.raises(VariantError):
        lobule_average_map(2, 3)


def test_feature_embedding_map_pads_and_truncates():
    pad = feature_embedding_map(3, 5)
    assert pad.shape == (3, 5)
    assert feature_embedding_map(3, 5) is pad and not pad.flags.writeable
    x = np.array([[1.0, 2.0, 3.0]])
    np.testing.assert_allclose(x @ pad, [[1, 2, 3, 0, 0]])
    clip = feature_embedding_map(5, 3)
    np.testing.assert_allclose(np.array([[1.0, 2, 3, 4, 5]]) @ clip, [[1, 2, 3]])


def test_phase1_only_forward_uses_average_readout():
    from alc.numkit import softmax_rows

    params = make_params(3, 6, 2, seed=2)
    x = np.random.default_rng(8).normal(size=(9, 3))
    activated = np.maximum(phase1(x, params.cofactor), 0)
    expected = softmax_rows(activated @ lobule_average_map(6, 2))
    np.testing.assert_allclose(forward(x, params, "phase1-only"), expected, atol=1e-15)


def test_phase2_only_forward_skips_phase1():
    from alc.numkit import softmax_rows

    params = make_params(3, 5, 2, seed=3)
    x = np.random.default_rng(9).normal(size=(7, 3))
    embedded = x @ feature_embedding_map(3, 5)
    expected = softmax_rows(phase2(embedded, params.vitamin))
    np.testing.assert_allclose(forward(x, params, "phase2-only"), expected, atol=1e-15)


def test_make_variant_full_is_unchanged():
    params = make_params(3, 5, 2)
    vm = make_variant(params, "full")
    assert vm.params is params
    assert vm.trainable == ("cofactor", "vitamin")


def test_make_variant_random_cofactor_resamples_and_freezes():
    params = make_params(3, 5, 2)
    vm = make_variant(params, "random-cofactor", RngStream(4))
    assert not np.array_equal(vm.params.cofactor, params.cofactor)
    assert np.array_equal(vm.params.vitamin, params.vitamin)
    assert vm.trainable == ("vitamin",)


def test_make_variant_identity_vitamin():
    params = make_params(3, 3, 3)
    vm = make_variant(params, "identity-vitamin")
    assert np.array_equal(vm.params.vitamin, np.eye(3))
    assert vm.trainable == ("cofactor",)
    with pytest.raises(VariantError):
        make_variant(make_params(3, 5, 2), "identity-vitamin")


def test_make_variant_unknown_tag():
    with pytest.raises(VariantError):
        make_variant(make_params(3, 5, 2), "half-liver")


# ---------------------------------------------------------------------------
# the trainable vector and the objective


def full_model(f, p, o):
    """A ``full`` variant: every entry comes from the trainable vector."""
    return make_variant(AlcParams(f, p, o, np.zeros((f, p)), np.zeros((p, o))), "full")


def test_embed_trainable_full_round_trip():
    params = make_params(2, 3, 2, seed=5)
    theta = np.concatenate([params.cofactor.ravel(), params.vitamin.ravel()])
    assert theta.size == 2 * 3 + 3 * 2
    back = embed_trainable(theta, full_model(2, 3, 2))
    assert np.array_equal(back.cofactor, params.cofactor)
    assert np.array_equal(back.vitamin, params.vitamin)


def test_embed_trainable_length_mismatch():
    with pytest.raises(ShapeError):
        embed_trainable(np.zeros(11), full_model(2, 3, 2))


def test_objective_zero_vector_gives_log_class_count():
    rng = np.random.default_rng(10)
    for o in (2, 3, 5, 10):
        x = rng.normal(size=(8, 4))
        y = np.eye(o)[rng.integers(0, o, 8)]
        theta = np.zeros(4 * 6 + 6 * o)
        assert objective(theta, x, y, full_model(4, 6, o)) == pytest.approx(math.log(o), abs=1e-12)


def test_objective_hand_built_separator_is_tiny():
    # One feature, two lobules with opposite signs, two classes: activations
    # land on disjoint lobules and the vitamin matrix votes them apart.
    cofactor = np.array([[10.0, -10.0]])
    vitamin = np.array([[5.0, -5.0], [-5.0, 5.0]])
    theta = np.concatenate([cofactor.ravel(), vitamin.ravel()])
    x = np.array([[1.0], [-1.0]])
    y = np.eye(2)
    assert objective(theta, x, y, full_model(1, 2, 2)) < 0.01


@st.composite
def training_problems(draw):
    """A variant, a training set and a population, entries up to +-50."""
    variant = draw(st.sampled_from(VARIANTS))
    n = draw(st.integers(1, 200))
    f = draw(st.integers(1, 12))
    o = draw(st.integers(2, 10))
    p = draw(st.integers(o if variant == "phase1-only" else 1, 15))
    if variant == "identity-vitamin":
        p = o
    agents = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1.0, 50.0]))
    base = AlcParams(f, p, o, rng.uniform(-scale, scale, (f, p)), rng.uniform(-scale, scale, (p, o)))
    vm = make_variant(base, variant, RngStream(int(rng.integers(2**31))))
    x = rng.uniform(-scale, scale, (n, f))
    y = np.eye(o)[rng.integers(0, o, n)]
    positions = rng.uniform(-scale, scale, (agents, trainable_size(vm)))
    return TrainingObjective(x, y, vm), positions


@settings(max_examples=100, deadline=None)
@given(training_problems())
def test_population_is_bit_equal_to_per_agent_calls(problem):
    obj, positions = problem
    expected = [obj(v) for v in positions]
    assert np.array_equal(obj.population(positions), expected)
    # a second call reuses the phase-1 buffer of the first
    assert np.array_equal(obj.population(positions[::-1]), expected[::-1])


def test_population_reuses_its_phase1_array():
    # breast_cancer training shapes: 512 rows, 30 features, 10 lobules, 10 agents
    n, f, p, o, agents = 512, 30, 10, 2, 10
    rng = np.random.default_rng(0)
    vm = make_variant(make_params(f, p, o), "full")
    obj = TrainingObjective(rng.normal(size=(n, f)), np.eye(o)[rng.integers(0, o, n)], vm)
    positions = rng.uniform(-1.0, 1.0, (agents, trainable_size(vm)))
    obj.population(positions)
    tracemalloc.start()
    try:
        obj.population(positions)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Softmax and log-loss temporaries add about one more phase-1 array at
    # these shapes, so a freshly allocated phase-1 array ends near 2x.
    phase1_bytes = agents * n * p * 8
    assert peak < 1.5 * phase1_bytes, f"second call peaked at {peak / phase1_bytes:.2f}x the phase-1 array"


@settings(max_examples=20, deadline=None)
@given(training_problems(), st.integers(0, 2**31))
def test_ifox_run_is_identical_on_either_path(problem, seed):
    # The batched run must match a run through a plain per-vector callable,
    # which is what a per-call wrapper around the objective sees.
    obj, positions = problem
    agents, dim = positions.shape
    cfg = OptimizerConfig(epochs=4, agents=agents, dim=dim, lower=-1.0, upper=1.0, seed=seed)
    batched, per_agent = optimize_ifox(obj, cfg), optimize_ifox(lambda v: obj(v), cfg)
    assert np.array_equal(batched.history, per_agent.history)
    assert np.array_equal(batched.best_x, per_agent.best_x)


def test_training_objective_rejects_a_mismatched_training_set():
    with pytest.raises(ShapeError, match="does not fit"):
        TrainingObjective(np.zeros((4, 3)), np.eye(2)[[0, 1, 0, 1]], full_model(2, 3, 2))


def test_objective_invariant_to_uniform_score_shift():
    from alc.numkit import softmax_rows

    rng = np.random.default_rng(11)
    scores = rng.normal(size=(6, 3))
    np.testing.assert_allclose(
        softmax_rows(scores + 11.0), softmax_rows(scores), atol=1e-12
    )


# ---------------------------------------------------------------------------
# persistence


def test_save_load_round_trip_bitwise(tmp_path):
    params = make_params(3, 4, 2, seed=12)
    meta = {"seed": 42, "epochs": 500, "agents": 10, "dataset_id": "iris"}
    path = tmp_path / "model.json"
    save_model(params, meta, path, variant="full")
    loaded, variant, loaded_meta = load_model(path)
    assert variant == "full"
    assert loaded_meta == meta
    assert np.array_equal(loaded.cofactor, params.cofactor)
    assert np.array_equal(loaded.vitamin, params.vitamin)


def test_model_file_fixed_field_names(tmp_path):
    params = make_params(2, 3, 2)
    path = tmp_path / "model.json"
    save_model(params, {"seed": 1, "epochs": 2, "agents": 3, "dataset_id": "iris"}, path)
    doc = json.loads(path.read_text())
    assert set(doc) == {"format_version", "f", "p", "o", "variant", "C", "V", "training_meta"}
    assert set(doc["training_meta"]) == {"seed", "epochs", "agents", "dataset_id"}
    assert len(doc["C"]) == 6 and len(doc["V"]) == 6


def test_load_model_rejects_unknown_version(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"format_version": 99}))
    with pytest.raises(PersistenceError, match="format_version"):
        load_model(path)


def test_load_model_rejects_truncated_file(tmp_path):
    params = make_params(2, 3, 2)
    path = tmp_path / "model.json"
    save_model(params, {"seed": 1, "epochs": 2, "agents": 3, "dataset_id": "x"}, path)
    path.write_text(path.read_text()[:40])
    with pytest.raises(PersistenceError):
        load_model(path)


def test_load_model_rejects_malformed_document(tmp_path):
    meta = {"seed": 1, "epochs": 2, "agents": 3, "dataset_id": "x"}
    whole = {"format_version": 1, "f": 1, "p": 2, "o": 2, "variant": "full",
             "C": [0.5, 0.5], "V": [1.0, 0.0, 0.0, 1.0], "training_meta": meta}
    documents = [
        ({"format_version": 1, "f": 2, "p": 3, "o": 2, "C": [1.0]}, "malformed"),
        ({**whole, "C": [0.5, float("nan")]}, "non-finite"),
        ({**whole, "V": [1.0, float("inf"), 0.0, 1.0]}, "non-finite"),
        ({**whole, "p": 1, "C": [0.5], "V": [1.0, 0.0], "variant": "identity-vitamin"}, "p == o"),
    ]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(whole))
    load_model(path)  # the well-formed base document loads
    for doc, message in documents:
        path.write_text(json.dumps(doc))
        with pytest.raises(PersistenceError, match=message):
            load_model(path)
