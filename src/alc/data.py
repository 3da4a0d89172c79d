"""Dataset ingestion, preprocessing, and cross-validation splitting.

CSV ingestion maps labels to integers in order of first appearance and keeps
the mapping on the dataset record. IDX ingestion follows the big-endian
magic/dims/payload layout used by the classic digit-image files. Iris, Wine,
and Breast Cancer ship with the package as small CSVs; larger datasets are
fetched on demand (see :mod:`alc.fetch`).

Standardization and the discriminant projection are fit objects: statistics
are computed from training rows only and then applied unchanged to validation
rows. Fit functions accept a :class:`SplitView` and refuse anything but the
training role, which is how the pipeline guarantees validation data stays
unseen until evaluation.
"""

from __future__ import annotations

import csv
import math
import os
import struct
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from importlib import resources
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import AuditError, IngestError, NumericError, ParameterError
from .numkit import as_matrix

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

BUNDLED_DATASETS = ("iris", "wine", "breast_cancer")


@dataclass
class Dataset:
    """Feature matrix, integer labels, and bookkeeping for one dataset."""

    x: np.ndarray
    y: np.ndarray
    n_classes: int
    feature_names: list
    id: str
    label_names: list = field(default_factory=list)

    def __post_init__(self):
        self.x = as_matrix(self.x, "feature matrix")
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.x.shape[0] != self.y.size:
            raise IngestError(
                f"{self.id}: {self.x.shape[0]} feature rows but {self.y.size} labels"
            )
        if self.y.min() < 0 or self.y.max() >= self.n_classes:
            raise IngestError(f"{self.id}: labels outside [0, {self.n_classes})")
        present = np.unique(self.y)
        if present.size != self.n_classes:
            raise IngestError(
                f"{self.id}: only {present.size} of {self.n_classes} classes present"
            )

    @property
    def n_samples(self):
        return self.x.shape[0]

    @property
    def n_features(self):
        return self.x.shape[1]


@dataclass
class SplitView:
    """One side of a train/validation split, tagged with its role."""

    x: np.ndarray
    y: np.ndarray
    role: str  # "train" or "validation"


def require_train(view, what):
    if view.role != "train":
        raise AuditError(f"{what} must be fit on training rows, got a {view.role!r} view")


# ---------------------------------------------------------------------------
# ingestion


# numpy's C float parser skips U+001C..U+001F around a number as white space
# while float() refuses them, so a file holding one is left to csv.reader.
C_READER_ONLY_SPACE = "\x1c\x1d\x1e\x1f"

# The same characters and the quote as bytes, and the bytes per block the C
# reader's scan for them reads. In UTF-8 and the usual ASCII-compatible
# encodings each is one ASCII byte that no other character's bytes hold.
C_READER_REFUSED_BYTES = tuple(c.encode() for c in '"' + C_READER_ONLY_SPACE)
C_READER_SCAN_BYTES = 1 << 18

# np.loadtxt opens a name with one of these suffixes through a decompressor.
NUMPY_DECOMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def _read_csv(path, has_header, label_column=None):
    """Parse a numeric CSV into (feature names, feature matrix, label cells).

    The header, when there is one, must have as many cells as the data rows,
    every row must have as many cells as the first, and every cell outside
    the label column must parse as a finite float. With ``label_column`` None
    every column is a feature and the label cells come back empty; a label
    column needs at least one feature column beside it. Blank lines are
    skipped, and rows are numbered from 1 after the header.

    Two readers share this contract, and the route is chosen before the file
    is opened. numpy's C text reader is tried first on a regular file whose
    name numpy does not take for a compressed one (a suffix in
    :data:`NUMPY_DECOMPRESSED_SUFFIXES`): ``csv.reader`` reads the header and
    the first data row, the raw bytes after the header are scanned in
    bounded blocks for a ``"`` or one of :data:`C_READER_ONLY_SPACE`, and
    ``np.loadtxt``, given the file's name, skips the header's physical lines
    and reads the data rows in its own chunks into a structured array,
    float64 for the feature columns and ``object`` for the label. It parses
    each cell with ``PyOS_string_to_double``, the parser ``float()`` ends in,
    so its values are those of ``float(cell)`` bit for bit. Its result is
    used only if the scan found none of those characters, the call raised
    nothing and every feature value is finite. Any other file is read from
    the start by the streaming reader, and its value or error is returned
    unchanged, so quoted cells, ``1_0``, non-ASCII digits and every malformed
    file give the same values, messages, rows and columns on both. A pipe, a
    device or a compressed name goes straight to the streaming reader, so
    the file is opened once. One divergence is known: the C reader has no
    field size limit, so a label or finite feature cell longer than csv's
    131,072 characters, past the first data row, is read rather than refused.

    The streaming reader makes one pass over ``csv.reader``: it checks each
    row's width, runs ``float()`` on each feature cell as it is read and
    packs the row's values onto one ``bytearray``, which becomes the matrix.
    The first bad row wins, and in it the first bad cell; a non-finite value
    is reported only when every cell parsed. A file that cannot be read as
    CSV text (a directory, undecodable bytes, a cell over csv's field size
    limit) is an :class:`IngestError` naming the file.
    """
    path = Path(path)
    if not path.exists():
        raise IngestError(f"no such file: {path}")
    by_name = path.is_file() and path.suffix not in NUMPY_DECOMPRESSED_SUFFIXES
    try:
        with path.open(newline="") as fh:
            if by_name:
                read = _read_csv_c(path, fh, has_header, label_column)
                if read is not None:
                    return read
                fh.seek(0)
            return _parse_csv(path, csv.reader(fh), has_header, label_column)
    except UnicodeDecodeError as exc:
        raise IngestError(f"{path} is not text: {exc}") from exc
    except (OSError, csv.Error) as exc:
        raise IngestError(f"{path} cannot be read as CSV: {exc}") from exc


def _csv_columns(path, header, n_cols, label_column):
    """(label index, feature indices, feature names) for data rows of ``n_cols`` cells."""
    if header is not None and len(header) != n_cols:
        raise IngestError(f"{path}: header has {len(header)} cells but row 1 has {n_cols}")
    label_idx = None
    if isinstance(label_column, str):
        if header is None:
            raise ParameterError("label column by name requires has_header=True")
        if label_column not in header:
            raise IngestError(f"{path}: no column named {label_column!r}")
        label_idx = header.index(label_column)
    elif label_column is not None:
        if not -n_cols <= label_column < n_cols:
            raise IngestError(f"{path}: label column {label_column} out of range")
        label_idx = label_column % n_cols
    feature_idx = [i for i in range(n_cols) if i != label_idx]
    if not feature_idx:
        raise IngestError(f"{path} has a label column but no feature columns")
    feature_names = (
        [header[i] for i in feature_idx] if header else [f"x{i}" for i in feature_idx]
    )
    return label_idx, feature_idx, feature_names


def _read_csv_c(path, fh, has_header, label_column):
    """:func:`_read_csv` by numpy's C reader, or None when the streaming reader must decide."""
    taken = []  # the raw lines csv.reader has taken from fh

    def remembered():
        for line in fh:
            taken.append(line)
            yield line

    rows = filter(None, csv.reader(remembered()))
    header = [c.strip() for c in next(rows, ())] if has_header else None
    head, skip = "".join(taken), len(taken)  # the header's text and physical lines
    first = next(rows, None)
    if first is None:
        return None
    label_idx, _, feature_names = _csv_columns(path, header, len(first), label_column)
    with open(path, "rb") as data_bytes:
        data_bytes.seek(len(head.encode(fh.encoding)))
        # only csv.reader unquotes a cell: np.loadtxt fails on a quoted
        # feature and keeps the quotes of a quoted label
        while block := data_bytes.read(C_READER_SCAN_BYTES):
            if any(c in block for c in C_READER_REFUSED_BYTES):
                return None
    # The feature columns before and after the label are one float64
    # subarray field each, so two slices give the feature matrix.
    lead = len(first) if label_idx is None else label_idx
    fields = [("lead", np.float64, (lead,))]
    if label_idx is not None:
        fields += [("label", object), ("rest", np.float64, (len(first) - lead - 1,))]
    try:
        table = np.loadtxt(
            path,
            dtype=np.dtype(fields),
            delimiter=",",
            comments=None,
            skiprows=skip,
            encoding=fh.encoding,
            ndmin=1,
        )
    except (ValueError, OSError):
        # numpy's opener also fails when the working directory is gone
        return None
    if label_idx is None:
        x, raw = table["lead"], []
    else:
        x = np.concatenate((table["lead"], table["rest"]), axis=1)
        raw = table["label"].tolist()
    if not np.isfinite(x).all():
        return None
    return feature_names, x, [cell.strip() for cell in raw]


def _parse_csv(path, reader, has_header, label_column):
    first = next((r for r in reader if r), None)
    if first is None:
        raise IngestError(f"{path} is empty")
    header = None
    if has_header:
        header = [c.strip() for c in first]
        first = next((r for r in reader if r), None)
        if first is None:
            raise IngestError(f"{path} has a header but no data rows")
    n_cols = len(first)
    label_idx, feature_idx, feature_names = _csv_columns(path, header, n_cols, label_column)
    pack = struct.Struct(f"{len(feature_idx)}d").pack
    values, labels, n = bytearray(), [], 0
    for row in chain((first,), reader):
        if not row:
            continue
        n += 1
        if len(row) != n_cols:
            raise IngestError(f"{path}: row {n} has {len(row)} cells, expected {n_cols}")
        if label_idx is not None:
            labels.append(row.pop(label_idx).strip())
        cells = iter(row)
        try:
            values += pack(*map(float, cells))
        except ValueError:
            # map stopped at the bad cell, so the cells left after it place it
            j = len(row) - len(list(cells)) - 1
            raise IngestError(
                f"{path}: cannot parse {row[j].strip()!r} at row {n}, column {feature_idx[j] + 1}"
            ) from None
    x = np.frombuffer(values).reshape(n, len(feature_idx))
    # float() accepts "nan" and "inf"; one vectorized pass rejects them.
    bad = ~np.isfinite(x)
    if bad.any():
        r, j = np.argwhere(bad)[0]
        raise IngestError(
            f"{path}: non-finite value {float(x[r, j])} at row {r + 1}, "
            f"column {feature_idx[j] + 1}"
        )
    return feature_names, x, labels


def load_csv(path, label_column=-1, has_header=True, dataset_id=None):
    """Read a numeric CSV with one label column.

    ``label_column`` is a column index (negative allowed) or, when the file
    has a header, a column name. Label values map to 0..c-1 in order of first
    appearance; the original names are kept on the dataset.
    """
    feature_names, x, label_cells = _read_csv(path, has_header, label_column)
    label_names = list(dict.fromkeys(label_cells))
    if "" in label_names:
        raise IngestError(f"{path}: missing label at row {label_cells.index('') + 1}")
    codes = {raw: k for k, raw in enumerate(label_names)}
    return Dataset(
        x=x,
        y=np.asarray([codes[raw] for raw in label_cells]),
        n_classes=len(label_names),
        feature_names=feature_names,
        id=dataset_id or Path(path).stem,
        label_names=label_names,
    )


def load_features(path, has_header=True):
    """Read an unlabelled numeric CSV; every column is a feature."""
    return _read_csv(path, has_header)[1]


@contextmanager
def atomic_path(path):
    """Yield ``<path>.part`` to write; on success it replaces ``path``.

    A write that fails or is interrupted leaves ``path`` as it was and removes
    the partial file, so a later run never mistakes it for a finished one.
    """
    path = Path(path)
    part = path.with_name(path.name + ".part")
    try:
        yield part
        os.replace(part, path)
    finally:
        part.unlink(missing_ok=True)


def _read_exact(fh, n, path, what):
    data = fh.read(n)
    if len(data) != n:
        raise IngestError(f"{path}: truncated while reading {what}")
    return data


def _read_idx(path, magic, n_dims, what):
    """Dims and uint8 payload of one IDX file, checked against ``magic``."""
    with path.open("rb") as fh:
        (found,) = struct.unpack(">I", _read_exact(fh, 4, path, "magic"))
        if found != magic:
            raise IngestError(f"{path}: bad {what} magic 0x{found:08x}, expected 0x{magic:08x}")
        dims = struct.unpack(f">{n_dims}I", _read_exact(fh, 4 * n_dims, path, "dims"))
        payload = fh.read()  # bounded by the file, not by the size the header claims
    size = math.prod(dims)
    if len(payload) < size:
        raise IngestError(f"{path}: truncated while reading {what} payload")
    if len(payload) > size:
        raise IngestError(f"{path}: trailing bytes after payload")
    return dims, np.frombuffer(payload, dtype=np.uint8)


def load_idx(images_path, labels_path, dataset_id="idx"):
    """Read an images/labels IDX file pair into a flattened dataset."""
    images_path, labels_path = Path(images_path), Path(labels_path)
    for p in (images_path, labels_path):
        if not p.exists():
            raise IngestError(f"no such file: {p}")

    (count, n_rows, n_cols), pixels = _read_idx(images_path, IDX_IMAGES_MAGIC, 3, "images")
    (label_count,), label_bytes = _read_idx(labels_path, IDX_LABELS_MAGIC, 1, "labels")
    images = pixels.reshape(count, n_rows * n_cols)
    labels = label_bytes.astype(np.int64)

    if count != label_count:
        raise IngestError(f"image count {count} does not match label count {label_count}")
    if images.size == 0:
        raise IngestError(f"{images_path}: no pixels in {count} images of {n_rows}x{n_cols}")
    n_classes = int(labels.max()) + 1
    return Dataset(
        x=images.astype(np.float64),
        y=labels,
        n_classes=n_classes,
        feature_names=[f"px{i}" for i in range(n_rows * n_cols)],
        id=dataset_id,
        label_names=[str(c) for c in range(n_classes)],
    )


# ---------------------------------------------------------------------------
# preprocessing


STD_FLOOR = 1e-12


def standardize_fit(x):
    """Per-column mean and population standard deviation, floored for constants."""
    x = as_matrix(x)
    if x.shape[0] < 2:
        raise ParameterError("standardization needs at least two rows")
    return x.mean(axis=0), np.maximum(x.std(axis=0), STD_FLOOR)


def standardize_apply(x, means, stds):
    return (as_matrix(x) - means) / stds


def standardize(x):
    """Fit and apply in one step; returns (transformed, means, stds)."""
    means, stds = standardize_fit(x)
    return standardize_apply(x, means, stds), means, stds


@dataclass
class LdaModel:
    """Discriminant projection fit on labeled training data."""

    projection: np.ndarray  # features x components, orthonormal columns
    class_means: np.ndarray  # classes x features
    n_components: int


def lda_fit(x, y, n_components):
    """Fit a linear discriminant projection onto ``n_components`` axes.

    Solves the between/within scatter problem through a ridge-regularized
    symmetric eigen-decomposition, then orthonormalizes the projection and
    fixes each column's sign so the first nonzero component is positive.
    """
    x = as_matrix(x)
    y = np.asarray(y, dtype=np.int64)
    classes = np.unique(y)
    c = classes.size
    if n_components > c - 1:
        raise ParameterError(
            f"at most classes-1={c - 1} components are separable, requested {n_components}"
        )
    if n_components < 1:
        raise ParameterError("need at least one component")

    f = x.shape[1]
    overall_mean = x.mean(axis=0)
    class_means = np.vstack([x[y == k].mean(axis=0) for k in classes])
    scatter_within = np.zeros((f, f))
    scatter_between = np.zeros((f, f))
    for i, k in enumerate(classes):
        rows = x[y == k]
        centered = rows - class_means[i]
        scatter_within += centered.T @ centered
        offset = (class_means[i] - overall_mean)[:, None]
        scatter_between += rows.shape[0] * (offset @ offset.T)

    ridge = 1e-6 * np.trace(scatter_within) / f
    scatter_within += np.eye(f) * max(ridge, STD_FLOOR)

    try:
        within_vals, within_vecs = np.linalg.eigh(scatter_within)
        if within_vals.min() <= 0:
            raise NumericError("within-class scatter not positive definite after ridge")
        inv_sqrt = within_vecs @ np.diag(within_vals**-0.5) @ within_vecs.T
        sym = inv_sqrt @ scatter_between @ inv_sqrt
        sym = 0.5 * (sym + sym.T)
        vals, vecs = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"discriminant eigen-decomposition failed: {exc}") from exc

    order = np.argsort(vals)[::-1][:n_components]
    directions = inv_sqrt @ vecs[:, order]
    projection, _ = np.linalg.qr(directions)
    for j in range(projection.shape[1]):
        col = projection[:, j]
        nonzero = np.flatnonzero(np.abs(col) > 1e-12)
        if nonzero.size and col[nonzero[0]] < 0:
            projection[:, j] = -col
    return LdaModel(projection=projection, class_means=class_means, n_components=n_components)


def lda_transform(x, model):
    return as_matrix(x) @ model.projection


# ---------------------------------------------------------------------------
# splitting and encoding


@dataclass
class FoldPlan:
    """Fold index per sample; every fold mirrors the class proportions."""

    k: int
    assignments: np.ndarray


def stratified_kfold(y, k, rng):
    """Assign samples to ``k`` folds, stratified by class.

    Samples of each class are shuffled and dealt round-robin; the deal start
    rotates across classes so leftover samples spread over different folds.
    """
    y = np.asarray(y, dtype=np.int64)
    if k < 2:
        raise ParameterError(f"need at least 2 folds, got {k}")
    if k > y.size:
        raise ParameterError(f"cannot split {y.size} samples into {k} folds")
    assignments = np.empty(y.size, dtype=np.int64)
    offset = 0
    for cls in np.unique(y):
        idx = np.flatnonzero(y == cls)
        if idx.size < k:
            warnings.warn(
                f"class {cls} has only {idx.size} samples for {k} folds; "
                "some folds will miss it"
            )
        rng.shuffle(idx)
        for j, sample in enumerate(idx):
            assignments[sample] = (j + offset) % k
        offset += idx.size % k
    return FoldPlan(k=k, assignments=assignments)


def one_hot(y, n_classes):
    y = np.asarray(y, dtype=np.int64)
    if y.size and (y.min() < 0 or y.max() >= n_classes):
        raise ParameterError(f"labels must lie in [0, {n_classes})")
    out = np.zeros((y.size, n_classes))
    out[np.arange(y.size), y] = 1.0
    return out


def stratified_subsample(y, n, rng):
    """Indices of a class-proportional subsample of size ``n``."""
    y = np.asarray(y, dtype=np.int64)
    if not 1 <= n <= y.size:
        raise ParameterError(f"subsample size {n} outside [1, {y.size}]")
    classes, counts = np.unique(y, return_counts=True)
    quotas = np.floor(counts * (n / y.size)).astype(int)
    remainders = counts * (n / y.size) - quotas
    shortfall = n - quotas.sum()
    for i in np.argsort(remainders)[::-1][:shortfall]:
        quotas[i] += 1
    picks = []
    for cls, quota in zip(classes, quotas):
        idx = np.flatnonzero(y == cls)
        rng.shuffle(idx)
        picks.append(idx[:quota])
    return np.sort(np.concatenate(picks))


# ---------------------------------------------------------------------------
# bundled datasets


def bundled_csv_path(name):
    if name not in BUNDLED_DATASETS:
        raise ParameterError(f"{name!r} is not a bundled dataset")
    return resources.files(__package__) / "datasets" / f"{name}.csv"


def load_dataset(dataset_id, data_dir=None):
    """Load any known dataset by id.

    Bundled ids read their packaged CSV. A fetched id reads the files that
    :data:`alc.fetch.REMOTE_FILES` lists for it from its directory under
    ``data_dir`` (see :func:`alc.fetch.fetch_dataset` for obtaining them): a
    ``.csv`` file is read by :func:`load_csv` with its ``label`` column, and
    the other files are read as (images, labels) IDX pairs. Several parts,
    such as a training and a test split, are concatenated into one pool.
    """
    if dataset_id in BUNDLED_DATASETS:
        with resources.as_file(bundled_csv_path(dataset_id)) as path:
            return load_csv(path, label_column="label", has_header=True, dataset_id=dataset_id)
    from .fetch import REMOTE_FILES, dataset_dir  # fetch imports this module

    if dataset_id not in REMOTE_FILES:
        raise ParameterError(
            f"unknown dataset id {dataset_id!r}; expected one of "
            f"{BUNDLED_DATASETS + tuple(REMOTE_FILES)}"
        )
    paths = [dataset_dir(data_dir, dataset_id) / name for name in REMOTE_FILES[dataset_id]]
    for path in paths:
        if not path.exists():
            raise IngestError(f"{path} not found; run `alc fetch {dataset_id}` first")
    csvs = [path for path in paths if path.suffix == ".csv"]
    idx = [path for path in paths if path.suffix != ".csv"]
    parts = [load_csv(path, label_column="label", dataset_id=dataset_id) for path in csvs]
    parts += [load_idx(images, labels, dataset_id) for images, labels in zip(idx[0::2], idx[1::2])]
    if len(parts) == 1:
        return parts[0]
    return Dataset(
        x=np.vstack([p.x for p in parts]),
        y=np.concatenate([p.y for p in parts]),
        n_classes=parts[0].n_classes,
        feature_names=parts[0].feature_names,
        id=dataset_id,
        label_names=parts[0].label_names,
    )
