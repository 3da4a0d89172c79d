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
loss at that vector.

Ablation variants keep the model runnable while disabling one component:

* ``full``            both phases, both matrices trainable
* ``phase1-only``     phase 1 plus a frozen lobule-averaging readout
* ``phase2-only``     phase 2 on an identity-embedded copy of the input
* ``random-cofactor`` cofactor resampled once and frozen, vitamin trainable
* ``identity-vitamin`` vitamin frozen to the identity (needs lobules == outputs)
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import data, metrics, numkit
from .errors import LobuleRangeError, ParameterError, PersistenceError, ShapeError, VariantError

MAX_LOBULES = 100_000
VARIANTS = ("full", "phase1-only", "phase2-only", "random-cofactor", "identity-vitamin")
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
        cofactor=numkit.rng_uniform(rng, -1.0, 1.0, n_features, n_lobules),
        vitamin=numkit.rng_uniform(rng, -1.0, 1.0, n_lobules, n_outputs),
    )


def phase1(x, cofactor):
    """First transformation: (x @ cofactor) / n_features + mean(cofactor)."""
    prod = numkit.matmul(x, cofactor)
    return prod / cofactor.shape[0] + numkit.mean_all(cofactor)


def phase2(activated, vitamin):
    """Second transformation: (a @ vitamin) / n_lobules + mean(vitamin)."""
    prod = numkit.matmul(activated, vitamin)
    return prod / vitamin.shape[0] + numkit.mean_all(vitamin)


def lobule_average_map(n_lobules, n_outputs):
    """Frozen readout for phase1-only: each output averages a contiguous lobule block."""
    if n_lobules < n_outputs:
        raise VariantError(
            f"phase1-only readout needs at least one lobule per class "
            f"({n_lobules} lobules < {n_outputs} classes)"
        )
    bounds = np.linspace(0, n_lobules, n_outputs + 1).round().astype(int)
    w = np.zeros((n_lobules, n_outputs))
    for j in range(n_outputs):
        w[bounds[j] : bounds[j + 1], j] = 1.0 / (bounds[j + 1] - bounds[j])
    return w


def feature_embedding_map(n_features, n_lobules):
    """Frozen embedding for phase2-only: identity on the leading coordinates.

    Zero-pads when there are more lobules than features and truncates to the
    first ``n_lobules`` features otherwise.
    """
    w = np.zeros((n_features, n_lobules))
    m = min(n_features, n_lobules)
    w[:m, :m] = np.eye(m)
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
    if variant == "phase1-only":
        activated = numkit.relu(phase1(x, params.cofactor))
        readout = lobule_average_map(params.n_lobules, params.n_outputs)
        return numkit.softmax_rows(numkit.matmul(activated, readout))
    if variant == "phase2-only":
        embedded = numkit.matmul(x, feature_embedding_map(params.n_features, params.n_lobules))
        return numkit.softmax_rows(phase2(embedded, params.vitamin))
    activated = numkit.relu(phase1(x, params.cofactor))
    return numkit.softmax_rows(phase2(activated, params.vitamin))


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
    if tag == "full":
        return VariantModel(params, tag, ("cofactor", "vitamin"))
    if tag == "phase1-only":
        lobule_average_map(p, o)  # validate now rather than at first forward
        return VariantModel(params, tag, ("cofactor",))
    if tag == "phase2-only":
        return VariantModel(params, tag, ("vitamin",))
    if tag == "random-cofactor":
        if rng is None:
            raise ParameterError("random-cofactor needs an RngStream to resample")
        resampled = AlcParams(
            n_features=f,
            n_lobules=p,
            n_outputs=o,
            cofactor=numkit.rng_uniform(rng, -1.0, 1.0, f, p),
            vitamin=params.vitamin.copy(),
        )
        return VariantModel(resampled, tag, ("vitamin",))
    # identity-vitamin
    if p != o:
        raise VariantError(
            f"identity-vitamin requires lobules == outputs, got p={p}, o={o}"
        )
    fixed = AlcParams(
        n_features=f,
        n_lobules=p,
        n_outputs=o,
        cofactor=params.cofactor.copy(),
        vitamin=np.eye(p),
    )
    return VariantModel(fixed, tag, ("cofactor",))


def trainable_size(variant_model):
    f, p, o = variant_model.params.shape
    size = 0
    if "cofactor" in variant_model.trainable:
        size += f * p
    if "vitamin" in variant_model.trainable:
        size += p * o
    return size


def embed_trainable(train_vec, variant_model):
    """Splice a trainable subvector into full parameters, keeping frozen parts."""
    f, p, o = variant_model.params.shape
    train_vec = np.asarray(train_vec, dtype=np.float64)
    if train_vec.size != trainable_size(variant_model):
        raise ShapeError(
            f"trainable vector has length {train_vec.size}, "
            f"expected {trainable_size(variant_model)}"
        )
    pos = 0
    if "cofactor" in variant_model.trainable:
        cofactor = train_vec[: f * p].reshape(f, p).copy()
        pos = f * p
    else:
        cofactor = variant_model.params.cofactor.copy()
    if "vitamin" in variant_model.trainable:
        vitamin = train_vec[pos : pos + p * o].reshape(p, o).copy()
    else:
        vitamin = variant_model.params.vitamin.copy()
    return AlcParams(f, p, o, cofactor, vitamin)


def objective(vec, x, y_onehot, variant_model):
    """Training objective: log loss of the forward pass at trainable vector ``vec``."""
    params = embed_trainable(vec, variant_model)
    return metrics.log_loss(y_onehot, forward(x, params, variant_model.tag))


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
