"""The Artificial Liver Classifier model.

The forward pass is two matrix transformations with a ReLU between and a
row-softmax after. Each transformation averages over its inner dimension and
adds the scalar mean of its own weight matrix as a bias, so the biases are
functions of the weights and are recomputed on every pass rather than stored.

Phase 1 maps ``n_features`` inputs onto ``n_lobules`` internal units through
the cofactor matrix; phase 2 maps lobule activations onto ``n_outputs`` class
scores through the vitamin matrix. Training is gradient-free: the trainable
matrices are laid out as one vector (cofactor row-major, then vitamin
row-major, frozen matrices left out), which :func:`embed_trainable` splices
back into full parameters; an optimizer minimizes :func:`objective`, the log
loss at that vector. :class:`TrainingObjective` binds it to one training set
and also scores a whole population of vectors in one call.

Ablation variants keep the model runnable while disabling one component.
:data:`TRAINABLE` says which matrices each variant trains; the variant's
other matrix is frozen, and :func:`make_variant` and :func:`forward` say what
stands in for it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import data, metrics, numkit
from .errors import LobuleRangeError, ParameterError, PersistenceError, ShapeError, VariantError

MAX_LOBULES = 100_000

# Trainable matrices of each ablation variant, in trainable-vector order.
TRAINABLE = {
    "full": ("cofactor", "vitamin"),
    "phase1-only": ("cofactor",),  # phase 1 plus a frozen lobule-averaging readout
    "phase2-only": ("vitamin",),  # phase 2 on an identity-embedded copy of the input
    "random-cofactor": ("vitamin",),  # cofactor resampled once and frozen
    "identity-vitamin": ("cofactor",),  # vitamin frozen to the identity (lobules == outputs)
}
VARIANTS = tuple(TRAINABLE)
MODEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class AlcParams:
    """Learnable state: cofactor (features x lobules) and vitamin (lobules x outputs)."""

    n_features: int
    n_lobules: int
    n_outputs: int
    cofactor: np.ndarray
    vitamin: np.ndarray

    def __post_init__(self):
        if self.cofactor.shape != (self.n_features, self.n_lobules):
            raise ShapeError(
                f"cofactor shape {self.cofactor.shape} does not match "
                f"({self.n_features}, {self.n_lobules})"
            )
        if self.vitamin.shape != (self.n_lobules, self.n_outputs):
            raise ShapeError(
                f"vitamin shape {self.vitamin.shape} does not match "
                f"({self.n_lobules}, {self.n_outputs})"
            )
        self.cofactor.setflags(write=False)
        self.vitamin.setflags(write=False)

    @property
    def shape(self):
        return (self.n_features, self.n_lobules, self.n_outputs)


def init_params(n_features, n_lobules, n_outputs, rng):
    """Fresh parameters, all entries uniform in [-1, 1].

    The lobule count must satisfy ``1 <= n_lobules < 100000``; fewer lobules
    than features is allowed (breast_cancer runs 30 features on 10 lobules).
    The experiment pipeline draws every training cell's parameters here.
    """
    if n_features < 1:
        raise ParameterError(f"need at least one feature, got {n_features}")
    if n_outputs < 2:
        raise ParameterError(f"need at least two output classes, got {n_outputs}")
    if not 1 <= n_lobules < MAX_LOBULES:
        raise LobuleRangeError(
            f"lobule count {n_lobules} outside admissible range [1, {MAX_LOBULES})"
        )
    return AlcParams(
        n_features=n_features,
        n_lobules=n_lobules,
        n_outputs=n_outputs,
        cofactor=rng.uniform(-1.0, 1.0, (n_features, n_lobules)),
        vitamin=rng.uniform(-1.0, 1.0, (n_lobules, n_outputs)),
    )


def phase1(x, cofactor):
    """First transformation: (x @ cofactor) / n_features + mean(cofactor)."""
    prod = numkit.matmul(x, cofactor)
    return prod / cofactor.shape[0] + numkit.mean_all(cofactor)


def phase2(activated, vitamin):
    """Second transformation: (a @ vitamin) / n_lobules + mean(vitamin)."""
    prod = numkit.matmul(activated, vitamin)
    return prod / vitamin.shape[0] + numkit.mean_all(vitamin)


@lru_cache(maxsize=32)
def lobule_average_map(n_lobules, n_outputs):
    """Frozen readout for phase1-only: each output averages a contiguous lobule block.

    Built once per shape and returned read-only.
    """
    if n_lobules < n_outputs:
        raise VariantError(
            f"phase1-only readout needs at least one lobule per class "
            f"({n_lobules} lobules < {n_outputs} classes)"
        )
    bounds = np.linspace(0, n_lobules, n_outputs + 1).round().astype(int)
    w = np.zeros((n_lobules, n_outputs))
    for j in range(n_outputs):
        w[bounds[j] : bounds[j + 1], j] = 1.0 / (bounds[j + 1] - bounds[j])
    w.setflags(write=False)
    return w


@lru_cache(maxsize=32)
def feature_embedding_map(n_features, n_lobules):
    """Frozen embedding for phase2-only: identity on the leading coordinates.

    Zero-pads when there are more lobules than features and truncates to the
    first ``n_lobules`` features otherwise. Built once per shape and returned
    read-only.
    """
    w = np.zeros((n_features, n_lobules))
    m = min(n_features, n_lobules)
    w[:m, :m] = np.eye(m)
    w.setflags(write=False)
    return w


def forward(x, params, variant="full"):
    """Class probabilities for each row of x. Every output row sums to 1."""
    if variant not in VARIANTS:
        raise VariantError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    x = numkit.as_matrix(x, "input")
    if x.shape[1] != params.n_features:
        raise ShapeError(
            f"input has {x.shape[1]} features, model expects {params.n_features}"
        )
    if variant == "phase2-only":
        hidden = numkit.matmul(x, feature_embedding_map(params.n_features, params.n_lobules))
    else:
        hidden = numkit.relu(phase1(x, params.cofactor))
    if variant == "phase1-only":
        scores = numkit.matmul(hidden, lobule_average_map(params.n_lobules, params.n_outputs))
    else:
        scores = phase2(hidden, params.vitamin)
    return numkit.softmax_rows(scores)


def predict(x, params, variant="full"):
    """Predicted class index per row; ties go to the lowest index."""
    return forward(x, params, variant).argmax(axis=1)


@dataclass(frozen=True)
class VariantModel:
    """Parameters plus which matrices the optimizer may move."""

    params: AlcParams
    tag: str
    trainable: tuple


def make_variant(params, tag, rng=None):
    """Prepare parameters for an ablation variant.

    Frozen matrices keep their values through training; the returned
    ``trainable`` tuple names the matrices the optimizer is allowed to touch.
    """
    if tag not in VARIANTS:
        raise VariantError(f"unknown variant {tag!r}; expected one of {VARIANTS}")
    f, p, o = params.shape
    if tag == "phase1-only":
        lobule_average_map(p, o)  # validate now rather than at first forward
    elif tag == "random-cofactor":
        if rng is None:
            raise ParameterError("random-cofactor needs an RngStream to resample")
        params = replace(params, cofactor=rng.uniform(-1.0, 1.0, (f, p)))
    elif tag == "identity-vitamin":
        if p != o:
            raise VariantError(
                f"identity-vitamin requires lobules == outputs, got p={p}, o={o}"
            )
        params = replace(params, vitamin=np.eye(p))
    return VariantModel(params, tag, TRAINABLE[tag])


def trainable_size(variant_model):
    f, p, o = variant_model.params.shape
    trainable = variant_model.trainable
    return ("cofactor" in trainable) * f * p + ("vitamin" in trainable) * p * o


def embed_trainable(train_vec, variant_model):
    """Splice a trainable subvector into full parameters, sharing the frozen parts.

    Frozen matrices are read-only, so the result can share them; the trained
    ones are copied out of ``train_vec``.
    """
    params, trainable = variant_model.params, variant_model.trainable
    f, p, o = params.shape
    train_vec = np.asarray(train_vec, dtype=np.float64)
    size = trainable_size(variant_model)
    if train_vec.size != size:
        raise ShapeError(f"trainable vector has length {train_vec.size}, expected {size}")
    cofactor, vitamin = params.cofactor, params.vitamin
    if "cofactor" in trainable:
        cofactor = train_vec[: f * p].reshape(f, p).copy()
    if "vitamin" in trainable:
        vitamin = train_vec[size - p * o :].reshape(p, o).copy()
    return AlcParams(f, p, o, cofactor, vitamin)


def objective(vec, x, y_onehot, variant_model):
    """Training objective: log loss of the forward pass at trainable vector ``vec``."""
    params = embed_trainable(vec, variant_model)
    return metrics.log_loss(y_onehot, forward(x, params, variant_model.tag))


class TrainingObjective:
    """:func:`objective` bound to one training set, plus a population method.

    Calling it with one trainable vector is the reference path.
    :meth:`population` scores every row of an ``(agents, dim)`` block in one
    pass over stacked matrices and gives values bit-equal to calling it once
    per row.
    """

    def __init__(self, x, y_onehot, variant_model):
        self.x = numkit.as_matrix(x, "input")
        self.y_onehot = np.asarray(y_onehot, dtype=np.float64)
        self.variant_model = variant_model
        f, _, o = variant_model.params.shape
        if self.x.shape[1] != f or self.y_onehot.shape != (self.x.shape[0], o):
            raise ShapeError(
                f"training set {self.x.shape} with targets {self.y_onehot.shape} "
                f"does not fit a model with {f} features and {o} classes"
            )
        # Phase-1 output of the last population, reused while its shape holds:
        # a fresh array per epoch is returned to the OS when freed and
        # page-faulted back in by the next epoch.
        self._hidden = None

    def __call__(self, vec):
        return objective(vec, self.x, self.y_onehot, self.variant_model)

    def population(self, positions):
        """Log loss of each row of ``positions``, as an ``(agents,)`` array.

        Trained matrices are stacked as ``(agents, rows, cols)`` with each
        slice C-contiguous, like :func:`embed_trainable`'s copies, so every
        slice goes through the same BLAS call and reductions as the reference
        path. A frozen matrix is applied once and broadcast.
        """
        vm = self.variant_model
        f, p, o = vm.params.shape
        positions = np.asarray(positions, dtype=np.float64)
        size = trainable_size(vm)
        if positions.ndim != 2 or positions.shape[1] != size:
            raise ShapeError(f"population has shape {positions.shape}, expected (agents, {size})")
        agents = positions.shape[0]
        cofactor, vitamin = vm.params.cofactor, vm.params.vitamin
        if "cofactor" in vm.trainable:
            cofactor = np.ascontiguousarray(positions[:, : f * p]).reshape(agents, f, p)
        if "vitamin" in vm.trainable:
            vitamin = np.ascontiguousarray(positions[:, size - p * o :]).reshape(agents, p, o)
        if vm.tag == "phase2-only":
            hidden = self.x @ feature_embedding_map(f, p)
        else:
            shape = (*cofactor.shape[:-2], self.x.shape[0], p)
            if self._hidden is None or self._hidden.shape != shape:
                self._hidden = np.empty(shape)
            hidden = _stacked_phase(self.x, cofactor, out=self._hidden)
            np.maximum(hidden, 0.0, out=hidden)
        if vm.tag == "phase1-only":
            scores = np.matmul(hidden, lobule_average_map(p, o))
        else:
            scores = _stacked_phase(hidden, vitamin)
        return metrics.log_loss_stack(self.y_onehot, numkit.softmax_last(scores))


def _stacked_phase(inputs, weights, out=None):
    """:func:`phase1` / :func:`phase2` on one weight matrix or an ``(agents, rows, cols)`` stack."""
    out = np.matmul(inputs, weights, out=out)
    out /= weights.shape[-2]
    out += weights.mean(axis=(-2, -1), keepdims=True)
    return out


def save_model(params, meta, path, variant="full"):
    """Write a model as a versioned JSON document.

    ``meta`` must provide seed, epochs, agents, and dataset_id. Matrix entries
    are serialized with full repr precision, so a save/load round trip
    reproduces them bit for bit.
    """
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "f": params.n_features,
        "p": params.n_lobules,
        "o": params.n_outputs,
        "variant": variant,
        "C": params.cofactor.ravel().tolist(),
        "V": params.vitamin.ravel().tolist(),
        "training_meta": {
            "seed": meta.get("seed"),
            "epochs": meta.get("epochs"),
            "agents": meta.get("agents"),
            "dataset_id": meta.get("dataset_id"),
        },
    }
    with data.atomic_path(path) as part:
        part.write_text(json.dumps(doc))


def load_model(path):
    """Read a model document; returns (params, variant, training_meta)."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise PersistenceError(f"cannot read model file {path}: {exc}") from exc
    if not isinstance(doc, dict) or "format_version" not in doc:
        raise PersistenceError(f"model file {path} has no format_version field")
    if doc["format_version"] != MODEL_FORMAT_VERSION:
        raise PersistenceError(
            f"unsupported model format_version {doc['format_version']!r}, "
            f"this build reads version {MODEL_FORMAT_VERSION}"
        )
    try:
        f, p, o = int(doc["f"]), int(doc["p"]), int(doc["o"])
        cofactor = np.asarray(doc["C"], dtype=np.float64).reshape(f, p)
        vitamin = np.asarray(doc["V"], dtype=np.float64).reshape(p, o)
        variant = doc["variant"]
        meta = dict(doc["training_meta"])
    except (KeyError, TypeError, ValueError) as exc:
        raise PersistenceError(f"model file {path} is malformed: {exc}") from exc
    if variant not in VARIANTS:
        raise PersistenceError(f"model file {path} names unknown variant {variant!r}")
    if not (np.isfinite(cofactor).all() and np.isfinite(vitamin).all()):
        raise PersistenceError(f"model file {path} has non-finite matrix entries")
    if variant == "identity-vitamin" and p != o:
        raise PersistenceError(
            f"model file {path}: identity-vitamin needs p == o, got p={p}, o={o}"
        )
    return AlcParams(f, p, o, cofactor, vitamin), variant, meta
