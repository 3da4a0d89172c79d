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
back into full parameters. An optimizer minimizes a
:class:`TrainingObjective`, the log loss at that vector on one training set,
which scores a whole population of vectors per call.

Both forward paths are class-major: samples run along the contiguous last
axis, so hidden activations are ``(lobules, n)`` and scores ``(classes, n)``
(per agent, in a population). Each phase folds its ``1 / inner`` factor into
the small weight matrix, ``(W / inner)ᵀ @ inputs + mean(W)``, rather than
dividing the ``n``-sized product. The softmax runs over contiguous class
rows and adds the class rows one at a time, in class order, in every path:
a numpy reduction over the class axis may sum pairwise and change the last
bits (:func:`numkit.softmax_classes`). The loss reads only each sample's
true-class probability, by label index, so targets must be one-hot.
:func:`phase1`, :func:`phase2` and :func:`forward` still return ``(n, …)``
arrays, as transposed views. A variant whose hidden layer does not depend
on the trained vector (``phase2-only``, ``random-cofactor``) has it
computed once per training set. Calling a :class:`TrainingObjective` on
one vector and :meth:`TrainingObjective.population` do the same arithmetic
on every element, which keeps their values bit-equal. Both multiply the
training matrix as laid out by :func:`aligned_copy`, 64-byte aligned with
padded rows, so their speed does not depend on where malloc put it.

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
    check_lobules(n_lobules, n_outputs)
    return AlcParams(
        n_features=n_features,
        n_lobules=n_lobules,
        n_outputs=n_outputs,
        cofactor=rng.uniform(-1.0, 1.0, (n_features, n_lobules)),
        vitamin=rng.uniform(-1.0, 1.0, (n_lobules, n_outputs)),
    )


def check_lobules(n_lobules, n_outputs, variant="full"):
    """Refuse fewer than two outputs, or a lobule count outside ``[1, MAX_LOBULES)`` or one ``variant`` cannot run.

    A one-class softmax gives every row probability 1, so nothing can be
    trained or predicted. ``identity-vitamin`` freezes the vitamin to the
    identity, so it needs as many lobules as outputs; the ``phase1-only``
    readout averages at least one lobule per output.
    """
    if n_outputs < 2:
        raise ParameterError(f"need at least two output classes, got {n_outputs}")
    if not 1 <= n_lobules < MAX_LOBULES:
        raise LobuleRangeError(
            f"lobule count {n_lobules} outside admissible range [1, {MAX_LOBULES})"
        )
    if variant == "identity-vitamin" and n_lobules != n_outputs:
        raise VariantError(
            f"identity-vitamin needs p == o (lobules == outputs), got p={n_lobules}, o={n_outputs}"
        )
    if variant == "phase1-only" and n_lobules < n_outputs:
        raise VariantError(
            f"phase1-only readout needs at least one lobule per class "
            f"({n_lobules} lobules < {n_outputs} classes)"
        )


def phase1(x, cofactor):
    """First transformation: (x @ cofactor) / n_features + mean(cofactor).

    Computed class-major, as ``(cofactor / n_features)ᵀ @ xᵀ + mean(cofactor)``;
    the result is the ``(n, lobules)`` transposed view of that product.
    """
    prod = numkit.matmul((cofactor / cofactor.shape[0]).T, np.transpose(x))
    return (prod + numkit.mean_all(cofactor)).T


def phase2(activated, vitamin):
    """Second transformation: (a @ vitamin) / n_lobules + mean(vitamin), class-major like :func:`phase1`."""
    prod = numkit.matmul((vitamin / vitamin.shape[0]).T, np.transpose(activated))
    return (prod + numkit.mean_all(vitamin)).T


@lru_cache(maxsize=32)
def lobule_average_map(n_lobules, n_outputs):
    """Frozen readout for phase1-only: each output averages a contiguous lobule block.

    Built once per shape and returned read-only.
    """
    check_lobules(n_lobules, n_outputs, "phase1-only")
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
        embedding = feature_embedding_map(params.n_features, params.n_lobules)
        hidden = numkit.matmul(embedding.T, x.T).T
    else:
        hidden = numkit.relu(phase1(x, params.cofactor))
    if variant == "phase1-only":
        readout = lobule_average_map(params.n_lobules, params.n_outputs)
        scores = numkit.matmul(readout.T, hidden.T).T
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
    check_lobules(p, o, tag)
    if tag == "random-cofactor":
        if rng is None:
            raise ParameterError("random-cofactor needs an RngStream to resample")
        params = replace(params, cofactor=rng.uniform(-1.0, 1.0, (f, p)))
    elif tag == "identity-vitamin":
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


class TrainingObjective:
    """Log loss of the forward pass at a trainable vector, on one training set.

    Calling it with one trainable vector is the reference path: it runs
    :func:`embed_trainable` and :func:`forward`, then the loss on the labels
    validated once here, which is :func:`metrics.log_loss` without its
    per-call target check. :meth:`population` scores every row of an
    ``(agents, dim)`` block in one pass over stacked matrices and gives
    values bit-equal to calling it once per row. Everything that depends only
    on the training set and the variant (shapes, frozen matrices, the
    ``phase1-only`` readout, label indices) is derived once, in
    ``__init__``, so a population call runs its one shape check and the
    arithmetic.
    """

    def __init__(self, x, y_onehot, variant_model):
        x = numkit.as_matrix(x, "input")
        y_onehot = np.asarray(y_onehot, dtype=np.float64)
        self.variant_model = variant_model
        params, trainable = variant_model.params, variant_model.trainable
        f, p, o = params.shape
        if x.shape[1] != f or y_onehot.shape != (x.shape[0], o):
            raise ShapeError(
                f"training set {x.shape} with targets {y_onehot.shape} "
                f"does not fit a model with {f} features and {o} classes"
            )
        n = x.shape[0]
        self._shape = (f, p, o, n, trainable_size(variant_model))
        # Samples run along the contiguous axis of every class-major array.
        # ``self.x`` is a view whose transpose is this copy, so the reference
        # path multiplies by exactly the operand the population path does.
        # One sample is copied as one dense row: a column of padded rows
        # reaches BLAS as a strided vector, whose products differ in the
        # last bit from those of a dense one.
        self.x_t = aligned_copy(x.T) if n > 1 else aligned_copy(x).reshape(f, 1)
        self.x = self.x_t.T
        self._labels = metrics.one_hot_labels(y_onehot)
        self._samples = np.arange(n)
        # Flat index of each sample's true-class score in one agent's (o, n) block.
        self._label_index = self._labels * n + self._samples
        # Frozen matrices, None where the population supplies the matrix.
        self._cofactor = None if "cofactor" in trainable else params.cofactor
        self._vitamin = None if "vitamin" in trainable else params.vitamin
        self._readout_t = lobule_average_map(p, o).T if variant_model.tag == "phase1-only" else None
        self._frozen_hidden = None
        if variant_model.tag == "phase2-only":
            self._frozen_hidden = feature_embedding_map(f, p).T @ self.x_t
        elif variant_model.tag == "random-cofactor":
            self._frozen_hidden = _class_major_phase(params.cofactor, self.x_t)
            np.maximum(self._frozen_hidden, 0.0, out=self._frozen_hidden)
        # Phase-1 output and label indices for the largest population yet, of
        # which each call uses a prefix: a fresh array per epoch is returned to
        # the OS when freed and page-faulted back in by the next, and the
        # optimizers' look-ahead windows vary the row count from call to call.
        self._hidden = None
        self._take = None

    def __call__(self, vec):
        vm = self.variant_model
        probs = forward(self.x, embed_trainable(vec, vm), vm.tag)
        return float(metrics.label_log_loss(probs[self._samples, self._labels]))

    def population(self, positions):
        """Log loss of each row of ``positions``, as an ``(agents,)`` array.

        Everything is class-major with samples along the last axis: hidden
        activations are ``(agents, lobules, n)`` and scores ``(agents,
        classes, n)``. Trained matrices are views of ``positions`` shaped
        ``(agents, rows, cols)``; each is scaled by ``1 / rows`` into a
        C-contiguous stack, so every slice goes through the same BLAS call
        and reductions as the reference path. A frozen hidden layer is
        computed once, in ``__init__``.
        """
        f, p, o, n, size = self._shape
        positions = np.asarray(positions, dtype=np.float64)
        if positions.ndim != 2 or positions.shape[1] != size:
            raise ShapeError(f"population has shape {positions.shape}, expected (agents, {size})")
        agents = positions.shape[0]
        cofactor, vitamin = self._cofactor, self._vitamin
        if cofactor is None:
            cofactor = positions[:, : f * p].reshape(agents, f, p)
        if vitamin is None:
            vitamin = positions[:, size - p * o :].reshape(agents, p, o)
        hidden = self._frozen_hidden
        if hidden is None:
            if self._hidden is None or len(self._hidden) < agents:
                self._hidden = np.empty((agents, p, n))
            hidden = _class_major_phase(cofactor, self.x_t, out=self._hidden[:agents])
            np.maximum(hidden, 0.0, out=hidden)
        if self._readout_t is None:
            scores = _class_major_phase(vitamin, hidden)
        else:
            scores = np.matmul(self._readout_t, hidden)
        e, total = numkit.softmax_classes(scores, out=scores)
        if self._take is None or len(self._take) < agents:
            self._take = self._label_index + np.arange(0, agents * o * n, o * n)[:, None]
        picked = e.take(self._take[:agents])
        picked /= total
        return metrics.label_log_loss(picked)


def aligned_copy(a):
    """A copy of 2-D ``a`` as a C-ordered view with a 64-byte-aligned base and padded rows.

    numpy has no aligned allocator, so the copy is sliced out of an
    over-allocated ``np.empty`` buffer at its first 64-byte boundary. Rule:
    rows are the smallest odd number of 64-byte lines that holds one row
    apart (float64: the column count rounded up to a multiple of 8, plus 8
    more when that is an even number of lines). No row stride is then a
    multiple of 4,096 bytes, nor of any power of two from 128 bytes up; the
    padding is at most two lines per row.

    Median µs per whole :meth:`TrainingObjective.population` call on a
    breast_cancer fold of ``n`` rows (30 features, 10 lobules, 10 agents;
    2-core AVX-512 Xeon, OpenBLAS SkylakeX kernel, one thread). The columns
    are a dense copy 16 bytes past a 64-byte boundary, where numpy's
    allocator had put it; a dense aligned copy; an aligned copy with rows
    ``ceil(n / 8) * 8 + 16`` elements apart; and this rule:

    ====  ========  ===========  =======  =========
    n     16 off    aligned      +16      this rule
    ====  ========  ===========  =======  =========
    256   150       137          131      128
    512   236–241   201–208      193–194  192–194
    513   227–234   228–232      192–195  194
    1025  252–253   251–253      210–214  210
    ====  ========  ===========  =======  =========

    Every layout gives bit-equal products. An aligned base alone does not
    help when rows are not whole lines (n 513), and rows exactly 4,096 (or
    2,048) bytes apart alias in the cache (n 512, 256).
    """
    a = np.asarray(a)
    rows, cols = a.shape
    lines = -(-cols * a.itemsize // 64)
    stride = (lines + 1 - lines % 2) * 64
    raw = np.empty(rows * stride + 64, dtype=np.uint8)
    start = -raw.ctypes.data % 64
    out = raw[start : start + rows * stride].view(a.dtype).reshape(rows, -1)[:, :cols]
    out[...] = a
    return out


def _class_major_phase(weights, inputs, out=None):
    """:func:`phase1` / :func:`phase2` as ``(rows, n)`` inputs to ``(cols, n)`` outputs.

    ``weights`` is one ``(rows, cols)`` matrix or an ``(agents, rows, cols)``
    stack; ``1 / rows`` is folded into the weights before the product. The
    bias is ``ndarray.mean``'s own sum-then-divide, without its Python-level
    bookkeeping, so it equals :func:`numkit.mean_all` bit for bit.
    """
    rows, cols = weights.shape[-2:]
    scaled = weights / rows
    out = np.matmul(scaled.swapaxes(-1, -2), inputs, out=out)
    out += np.add.reduce(weights, axis=(-2, -1), keepdims=True) / (rows * cols)
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
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise PersistenceError(f"cannot read model file {path}: {exc}") from exc
    if not isinstance(doc, dict) or "format_version" not in doc:
        raise PersistenceError(f"model file {path} has no format_version field")
    if doc["format_version"] != MODEL_FORMAT_VERSION:
        raise PersistenceError(
            f"unsupported model format_version {doc['format_version']!r}, "
            f"this build reads version {MODEL_FORMAT_VERSION}"
        )
    try:
        f, p, o = doc["f"], doc["p"], doc["o"]
        for key, value in (("f", f), ("p", p), ("o", o)):
            if type(value) is not int or value < 1:
                raise PersistenceError(
                    f"model file {path} is malformed: {key} must be a positive JSON integer, "
                    f"got {value!r}"
                )
        cofactor = np.asarray(doc["C"], dtype=np.float64).reshape(f, p)
        vitamin = np.asarray(doc["V"], dtype=np.float64).reshape(p, o)
        variant = doc["variant"]
        meta = dict(doc["training_meta"])
    except KeyError as exc:
        raise PersistenceError(f"model file {path} is malformed: missing key {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise PersistenceError(f"model file {path} is malformed: {exc}") from exc
    if variant not in VARIANTS:
        raise PersistenceError(f"model file {path} names unknown variant {variant!r}")
    if not (np.isfinite(cofactor).all() and np.isfinite(vitamin).all()):
        raise PersistenceError(f"model file {path} has non-finite matrix entries")
    try:
        check_lobules(p, o, variant)
    except (ParameterError, VariantError) as exc:
        raise PersistenceError(f"model file {path}: {exc}") from None
    return AlcParams(f, p, o, cofactor, vitamin), variant, meta
