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
import io
import math
import os
import struct
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from importlib import resources
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


# numpy's float parser skips U+001C..U+001F around a number as white space,
# while float() refuses them. In UTF-8 and the usual ASCII-compatible
# encodings each is one byte that no other character's bytes hold, so a
# regular file's bytes are scanned for them, in blocks of SCAN_BYTES.
NUMPY_ONLY_SPACE = "\x1c\x1d\x1e\x1f"
SCAN_BYTES = 1 << 18

# np.loadtxt opens a name with one of these suffixes through a decompressor.
NUMPY_DECOMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def _read_csv(path, has_header, label_column=None):
    """Parse a numeric CSV into (feature names, feature matrix, label cells).

    The header, when there is one, must have as many cells as the data rows,
    every row must have as many cells as the first, and every cell outside
    the label column must parse as a finite float. With ``label_column`` None
    every column is a feature and the label cells come back empty; a label
    column needs at least one feature column beside it. Cells may be quoted,
    blank lines are skipped, and rows are numbered from 1 after the header.

    ``csv.reader`` reads the header and the first data row, which fix the
    columns, and one ``np.loadtxt`` call reads every data row: by name for a
    regular file, and otherwise from the text read through the one open
    handle. README's CSV contract says which cells numpy refuses that
    ``float()`` reads. A refused file, or one holding a non-finite value, is
    read again by ``csv.reader`` to name its first bad row and cell.
    """
    path = Path(path)
    if not path.exists():
        raise IngestError(f"no such file: {path}")
    # numpy cannot open a pipe or a device a second time, and its opener
    # resolves the working directory, which may be gone
    by_name = path.is_file() and path.suffix not in NUMPY_DECOMPRESSED_SUFFIXES
    try:
        os.getcwd()
    except FileNotFoundError:
        by_name = False
    try:
        with path.open(newline="") as fh:
            source = fh
            if not by_name:  # read once, decoded block by block, into a seekable copy
                source = io.StringIO("".join(iter(partial(fh.read, SCAN_BYTES), "")), newline="")
            reader = csv.reader(source)
            rows = filter(None, reader)
            first = next(rows, None)
            if first is None:
                raise IngestError(f"{path} is empty")
            header, skip = None, 0
            if has_header:
                header, skip = [c.strip() for c in first], reader.line_num
                first = next(rows, None)
                if first is None:
                    raise IngestError(f"{path} has a header but no data rows")
            n_cols = len(first)
            label_idx, feature_idx, feature_names = _csv_columns(
                path, header, n_cols, label_column
            )
            # The feature columns before and after the label are one float64
            # subarray field each, so two slices give the feature matrix.
            lead = n_cols if label_idx is None else label_idx
            fields = [("lead", np.float64, (lead,))]
            if label_idx is not None:
                fields += [("label", object), ("rest", np.float64, (n_cols - lead - 1,))]
            # scanned before numpy reads, while no large array is alive: a scan
            # after it raised the resident peak of request-sized reads by 2 MB
            if by_name:
                fh.buffer.seek(0)
                blocks = iter(partial(fh.buffer.read, SCAN_BYTES), b"")
                spaced = any(c.encode() in b for b in blocks for c in NUMPY_ONLY_SPACE)
            else:
                spaced = any(c in source.getvalue() for c in NUMPY_ONLY_SPACE)
            source.seek(0)
            try:
                table = np.loadtxt(
                    path if by_name else source,
                    dtype=np.dtype(fields),
                    delimiter=",",
                    comments=None,
                    quotechar='"',
                    skiprows=skip,
                    encoding=fh.encoding,
                    ndmin=1,
                )
            except ValueError as exc:
                _raise_first_bad_row(path, source, has_header, n_cols, feature_idx)
                raise IngestError(f"{path} cannot be read as CSV: {exc}") from exc
            if label_idx is None:
                x, labels = table["lead"], []
            else:
                # a copy, so that the table is freed on return
                x = np.concatenate((table["lead"], table["rest"]), axis=1)
                labels = [cell.strip() for cell in table["label"].tolist()]
            finite = np.isfinite(x).all()
            if spaced or not finite:
                _raise_first_bad_row(path, source, has_header, n_cols, feature_idx)
    except UnicodeDecodeError as exc:
        raise IngestError(f"{path} is not text: {exc}") from exc
    except (OSError, csv.Error) as exc:
        raise IngestError(f"{path} cannot be read as CSV: {exc}") from exc
    if not finite:
        r, j = np.argwhere(~np.isfinite(x))[0]
        raise IngestError(
            f"{path}: non-finite value {float(x[r, j])} at row {r + 1}, "
            f"column {feature_idx[j] + 1}"
        )
    return feature_names, x, labels


def _raise_first_bad_row(path, source, has_header, n_cols, feature_idx):
    """Raise the IngestError naming the first bad data row of ``source``, if one is.

    A row is bad when it has other than ``n_cols`` cells, or a feature cell
    that ``float()`` refuses or that numpy's parser refuses: ``_`` or, after
    stripping white space, a non-ASCII character. No values are kept.
    """
    source.seek(0)
    rows = filter(None, csv.reader(source))
    if has_header:
        next(rows)
    for n, row in enumerate(rows, 1):
        if len(row) != n_cols:
            raise IngestError(f"{path}: row {n} has {len(row)} cells, expected {n_cols}")
        for j in feature_idx:
            cell = row[j].strip()
            try:
                if not cell.isascii() or "_" in cell:
                    raise ValueError
                float(row[j])
            except ValueError:
                raise IngestError(
                    f"{path}: cannot parse {cell!r} at row {n}, column {j + 1}"
                ) from None


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
