import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alc.data import (
    SplitView,
    lda_fit,
    lda_transform,
    load_csv,
    load_dataset,
    load_features,
    load_idx,
    one_hot,
    require_train,
    standardize,
    standardize_apply,
    standardize_fit,
    stratified_kfold,
    stratified_subsample,
)
from alc.errors import AuditError, IngestError, ParameterError
from alc.numkit import RngStream
from idx_files import write_idx_images, write_idx_labels


# ---------------------------------------------------------------------------
# bundled CSVs


@pytest.mark.parametrize(
    "dataset_id,n,f,c",
    [("iris", 150, 4, 3), ("wine", 178, 13, 3), ("breast_cancer", 569, 30, 2)],
)
def test_bundled_dataset_shapes(dataset_id, n, f, c):
    ds = load_dataset(dataset_id)
    assert (ds.n_samples, ds.n_features, ds.n_classes) == (n, f, c)
    assert len(ds.feature_names) == f
    assert len(ds.label_names) == c


def test_unknown_dataset_id():
    with pytest.raises(ParameterError):
        load_dataset("digits")


# ---------------------------------------------------------------------------
# CSV ingestion


def test_load_csv_first_appearance_label_order(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text("a,b,label\n1,2,zebra\n3,4,ant\n5,6,zebra\n")
    ds = load_csv(path, label_column="label")
    assert ds.label_names == ["zebra", "ant"]
    assert ds.y.tolist() == [0, 1, 0]
    assert ds.feature_names == ["a", "b"]


def test_load_csv_negative_label_column(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text("1,2,yes\n3,4,no\n")
    ds = load_csv(path, label_column=-1, has_header=False)
    assert ds.x.tolist() == [[1, 2], [3, 4]]
    assert ds.n_classes == 2


@pytest.mark.parametrize("label_column", [3, 5, -4])
def test_load_csv_label_column_out_of_range(tmp_path, label_column):
    path = tmp_path / "toy.csv"
    path.write_text("1,2,yes\n3,4,no\n")
    with pytest.raises(IngestError, match="out of range"):
        load_csv(path, label_column=label_column, has_header=False)


def test_load_csv_reports_bad_cell(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,label\n1,oops,x\n")
    with pytest.raises(IngestError, match=r"row 1, column 2"):
        load_csv(path, label_column="label")


def test_load_csv_missing_label(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,label\n1,2,\n")
    with pytest.raises(IngestError, match="missing label"):
        load_csv(path, label_column="label")


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(IngestError):
        load_csv(tmp_path / "nope.csv")


def test_load_csv_unknown_label_column(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text("a,b,label\n1,2,x\n")
    with pytest.raises(IngestError, match="target"):
        load_csv(path, label_column="target")


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
def test_csv_rejects_non_finite_cells(tmp_path, cell):
    labelled = tmp_path / "labelled.csv"
    labelled.write_text(f"a,b,label\n1,2,x\n3,{cell},y\n")
    with pytest.raises(IngestError, match=r"labelled\.csv: non-finite .* row 2, column 2"):
        load_csv(labelled, label_column="label")
    unlabelled = tmp_path / "unlabelled.csv"
    unlabelled.write_text(f"a,b\n1,2\n{cell},4\n")
    with pytest.raises(IngestError, match=r"unlabelled\.csv: non-finite .* row 2, column 1"):
        load_features(unlabelled)


def test_load_features_reads_every_column(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("a,b,c\n1,2,3\n4, 5 ,6\n")
    assert load_features(path).tolist() == [[1, 2, 3], [4, 5, 6]]
    with pytest.raises(IngestError, match=r"cannot parse 'a' at row 1, column 1"):
        load_features(path, has_header=False)


def test_load_features_reports_ragged_row(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1,2,3\n4,5\n")
    with pytest.raises(IngestError, match="row 2 has 2 cells, expected 3"):
        load_features(path, has_header=False)


# ---------------------------------------------------------------------------
# IDX ingestion


def test_idx_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(12, 5, 4), dtype=np.uint8)
    labels = np.array([i % 3 for i in range(12)], dtype=np.uint8)
    images_path = tmp_path / "imgs.idx"
    labels_path = tmp_path / "lbls.idx"
    write_idx_images(images_path, images)
    write_idx_labels(labels_path, labels)

    ds = load_idx(images_path, labels_path)
    assert ds.x.shape == (12, 20)
    assert ds.y.tolist() == labels.tolist()
    assert np.array_equal(ds.x.astype(np.uint8).reshape(12, 5, 4), images)

    # writing the loaded arrays back reproduces the files byte for byte
    again_images = tmp_path / "imgs2.idx"
    again_labels = tmp_path / "lbls2.idx"
    write_idx_images(again_images, ds.x.astype(np.uint8).reshape(12, 5, 4))
    write_idx_labels(again_labels, ds.y.astype(np.uint8))
    assert again_images.read_bytes() == images_path.read_bytes()
    assert again_labels.read_bytes() == labels_path.read_bytes()


def test_idx_bad_magic(tmp_path):
    images_path = tmp_path / "imgs.idx"
    labels_path = tmp_path / "lbls.idx"
    write_idx_images(images_path, np.zeros((2, 2, 2), dtype=np.uint8))
    write_idx_labels(labels_path, np.zeros(2, dtype=np.uint8))
    corrupted = bytearray(images_path.read_bytes())
    corrupted[3] = 0x55
    images_path.write_bytes(bytes(corrupted))
    with pytest.raises(IngestError, match="magic"):
        load_idx(images_path, labels_path)


def test_idx_truncated_payload(tmp_path):
    images_path = tmp_path / "imgs.idx"
    labels_path = tmp_path / "lbls.idx"
    write_idx_images(images_path, np.zeros((4, 3, 3), dtype=np.uint8))
    write_idx_labels(labels_path, np.array([0, 1, 0, 1], dtype=np.uint8))
    blob = images_path.read_bytes()
    images_path.write_bytes(blob[: len(blob) - 5])
    with pytest.raises(IngestError, match="truncated"):
        load_idx(images_path, labels_path)
    # a header claiming (2**32 - 1)**3 pixels is truncated, not an overflow
    images_path.write_bytes(struct.pack(">IIII", 0x803, *[2**32 - 1] * 3) + bytes(8))
    with pytest.raises(IngestError, match="truncated"):
        load_idx(images_path, labels_path)


def test_idx_trailing_bytes(tmp_path):
    images_path = tmp_path / "imgs.idx"
    labels_path = tmp_path / "lbls.idx"
    write_idx_images(images_path, np.zeros((2, 2, 2), dtype=np.uint8))
    write_idx_labels(labels_path, np.zeros(2, dtype=np.uint8))
    labels_path.write_bytes(labels_path.read_bytes() + b"\x00")
    with pytest.raises(IngestError, match="trailing bytes"):
        load_idx(images_path, labels_path)


def test_idx_count_mismatch(tmp_path):
    images_path = tmp_path / "imgs.idx"
    labels_path = tmp_path / "lbls.idx"
    write_idx_images(images_path, np.zeros((4, 2, 2), dtype=np.uint8))
    write_idx_labels(labels_path, np.array([0, 1, 0], dtype=np.uint8))
    with pytest.raises(IngestError, match="does not match"):
        load_idx(images_path, labels_path)


# ---------------------------------------------------------------------------
# standardization


def test_standardize_simple_column():
    x, means, stds = standardize(np.array([[1.0], [2.0], [3.0]]))
    assert means.tolist() == [2.0]
    assert x.sum() == pytest.approx(0.0, abs=1e-12)
    assert stds[0] == pytest.approx(np.sqrt(2 / 3))


def test_standardize_constant_column_floored():
    x, _, _ = standardize(np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]))
    assert np.array_equal(x[:, 0], np.zeros(3))


def test_standardize_training_columns_centered_and_scaled():
    rng = np.random.default_rng(1)
    x = rng.normal(3.0, 2.5, size=(200, 4))
    out, _, _ = standardize(x)
    assert np.abs(out.mean(axis=0)).max() < 1e-9
    assert np.abs(out.std(axis=0) - 1.0).max() < 1e-9


def test_standardize_idempotent():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(50, 3))
    once, means, stds = standardize(x)
    twice, _, _ = standardize(once)
    assert np.abs(twice - once).max() <= 1e-9


def test_standardize_apply_uses_stored_statistics():
    train = np.array([[0.0], [2.0]])
    means, stds = standardize_fit(train)
    out = standardize_apply(np.array([[4.0]]), means, stds)
    assert out[0, 0] == pytest.approx(3.0)


# ---------------------------------------------------------------------------
# discriminant projection


def test_lda_finds_separating_axis():
    rng = np.random.default_rng(3)
    n = 300
    x = rng.normal(size=(n, 5))
    y = (rng.uniform(size=n) < 0.5).astype(int)
    x[:, 0] += 6.0 * y  # classes differ only along axis 0
    model = lda_fit(x, y, 1)
    direction = model.projection[:, 0]
    cosine = abs(direction[0]) / np.linalg.norm(direction)
    assert cosine > 0.99


def test_lda_projection_orthonormal():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(120, 6))
    y = rng.integers(0, 4, 120)
    x[:, 1] += y * 2.0
    x[:, 3] -= y * 1.0
    model = lda_fit(x, y, 3)
    gram = model.projection.T @ model.projection
    assert np.abs(gram - np.eye(3)).max() <= 1e-9


def test_lda_component_cap():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(60, 4))
    y = rng.integers(0, 3, 60)
    with pytest.raises(ParameterError):
        lda_fit(x, y, 3)  # c == 3 allows at most 2
    ten_class_y = np.arange(60) % 10
    model = lda_fit(rng.normal(size=(60, 12)) + ten_class_y[:, None], ten_class_y, 9)
    assert model.projection.shape == (12, 9)


def test_lda_transform_shape_and_determinism():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(80, 7))
    y = rng.integers(0, 3, 80)
    x[:, 2] += 3.0 * y
    model = lda_fit(x, y, 2)
    projected = lda_transform(x, model)
    assert projected.shape == (80, 2)
    model_again = lda_fit(x, y, 2)
    assert np.array_equal(model.projection, model_again.projection)


# ---------------------------------------------------------------------------
# folding and encoding


def test_stratified_kfold_balanced_iris():
    ds = load_dataset("iris")
    plan = stratified_kfold(ds.y, 10, RngStream(42))
    for fold in range(10):
        members = ds.y[plan.assignments == fold]
        assert members.size == 15
        assert [(members == c).sum() for c in range(3)] == [5, 5, 5]


def test_stratified_kfold_deterministic():
    y = np.repeat([0, 1, 2], 30)
    a = stratified_kfold(y, 5, RngStream(7)).assignments
    b = stratified_kfold(y, 5, RngStream(7)).assignments
    assert np.array_equal(a, b)


def test_stratified_kfold_partition():
    rng = np.random.default_rng(8)
    y = rng.integers(0, 4, 97)
    plan = stratified_kfold(y, 7, RngStream(1))
    assert plan.assignments.min() >= 0 and plan.assignments.max() < 7
    assert plan.assignments.size == 97


def test_stratified_kfold_errors_and_warning():
    with pytest.raises(ParameterError):
        stratified_kfold(np.zeros(5, dtype=int), 6, RngStream(0))
    with pytest.raises(ParameterError):
        stratified_kfold(np.zeros(5, dtype=int), 1, RngStream(0))
    y = np.array([0] * 20 + [1] * 2)
    with pytest.warns(UserWarning, match="class 1"):
        stratified_kfold(y, 5, RngStream(0))


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(0, 3), min_size=20, max_size=120),
    st.integers(2, 8),
    st.integers(0, 1000),
)
def test_stratified_fold_histograms_deviate_at_most_one(labels, k, seed):
    import warnings

    y = np.asarray(labels)
    if k > y.size:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # sparse classes are expected here
        plan = stratified_kfold(y, k, RngStream(seed))
    for cls in np.unique(y):
        per_fold = np.array([((y == cls) & (plan.assignments == fold)).sum() for fold in range(k)])
        assert per_fold.max() - per_fold.min() <= 1


def test_one_hot():
    out = one_hot([2], 3)
    assert out.tolist() == [[0, 0, 1]]
    out = one_hot([0, 1, 2, 1], 3)
    assert np.array_equal(out.sum(axis=1), np.ones(4))
    with pytest.raises(ParameterError):
        one_hot([3], 3)


def test_stratified_subsample_proportions():
    y = np.repeat([0, 1], [700, 300])
    picks = stratified_subsample(y, 100, RngStream(5))
    assert picks.size == 100
    sub = y[picks]
    assert (sub == 0).sum() == 70 and (sub == 1).sum() == 30
    with pytest.raises(ParameterError):
        stratified_subsample(y, 0, RngStream(5))


def test_require_train_blocks_validation_views():
    view = SplitView(np.ones((3, 2)), np.array([0, 1, 0]), "validation")
    with pytest.raises(AuditError):
        require_train(view, "standardization")
