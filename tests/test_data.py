import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alc import data
from alc.data import (
    CSV_BLOCK_ROWS,
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


B = CSV_BLOCK_ROWS
CELL_FORMATS = (repr, "%.6f".__mod__, "%e".__mod__, lambda v: f"  {v!r} ")


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


@settings(max_examples=40, deadline=None)
@given(
    n_rows=st.sampled_from([1, B - 1, B, B + 1, 2 * B + 1]),
    n_features=st.integers(1, 4),
    label_at=st.sampled_from([None, "first", "middle", "last"]),
    drawn=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40),
    seed=st.integers(0, 2**32 - 1),
)
def test_csv_values_are_bit_equal_to_float_of_each_cell(
    tmp_path_factory, n_rows, n_features, label_at, drawn, seed
):
    rng = np.random.default_rng(seed)
    values = rng.normal(0.0, 10.0 ** rng.integers(-8, 9, (n_rows, n_features)))
    values.ravel()[: len(drawn)] = drawn[: values.size]
    formats = rng.integers(0, len(CELL_FORMATS), values.shape)
    cells = [
        [CELL_FORMATS[k](v) for k, v in zip(fmt_row, row)]
        for fmt_row, row in zip(formats.tolist(), values.tolist())
    ]
    label_idx = {None: None, "first": 0, "middle": min(1, n_features), "last": n_features}[label_at]
    lines = []
    for r, row in enumerate(cells):
        if label_idx is not None:
            row = [*row[:label_idx], f"c{r % 3}", *row[label_idx:]]
        lines.append(",".join(row))
    path = tmp_path_factory.mktemp("csv") / "cells.csv"
    path.write_text("\n".join(lines) + "\n")

    _, x, labels = data._read_csv(path, has_header=False, label_column=label_idx)
    expected = np.array([[float(c) for c in row] for row in cells]).reshape(n_rows, n_features)
    assert x.shape == (n_rows, n_features)
    assert np.array_equal(_bits(x), _bits(expected))
    assert labels == ([] if label_idx is None else [f"c{r % 3}" for r in range(n_rows)])


@pytest.mark.parametrize(
    "cell", ["1_0", " 12.5 ", "\u00a012\u00a0", "\uff13.\uff15", "-0", "-0.0", "1e-320", "+.5", "\t7\t"]
)
def test_csv_odd_cells_read_as_float_reads_them(tmp_path, cell):
    path = tmp_path / "odd.csv"
    path.write_text(f'a,b\n1,"{cell}"\n')
    assert np.array_equal(_bits(load_features(path)), _bits([[1.0, float(cell)]]))


@pytest.mark.parametrize("cell", ["1\x1c", "\x1d2", "\x1e3\x1e", "4\x1f"])
def test_csv_cells_padded_with_separators_are_refused_as_float_refuses_them(tmp_path, cell):
    # numpy's C reader skips U+001C..U+001F as white space; float() does not.
    path = tmp_path / "sep.csv"
    path.write_text(f"a,b\n1,{cell}\n")
    with pytest.raises(IngestError, match=r"cannot parse .* at row 1, column 2"):
        load_features(path)


def test_csv_cell_over_the_field_limit_past_row_one_is_read(tmp_path):
    # The known divergence from csv.reader: the C reader has no field size limit.
    cell = "0." + "0" * 140_000 + "1"
    path = tmp_path / "long.csv"
    path.write_text(f"a,b\n1,2\n3,{cell}\n")
    assert np.array_equal(_bits(load_features(path)), _bits([[1.0, 2.0], [3.0, float(cell)]]))


# Cells and lines the C reader refuses or must not take, so the streaming
# reader decides; each marks its file as not clean.
SPOILED_CELLS = ['"1.5"', "1_0", "\uff13", "nan", "1e999", "-inf", "\x1c1", "1\x1f", "abc", "", "0x10"]
SPOILED_LABELS = ['"p"', '"p,q"', 'p"q']
SPOILED_LINES = ["   ", "ragged-short", "ragged-long"]
CLEAN_PADS = ("{}", " {} ", "\u00a0{}\u00a0", "\t{}")


@st.composite
def csv_files(draw):
    """(text, has_header, label_column, clean): a small CSV, its read arguments,
    and whether the C reader must take it."""
    n_features = draw(st.integers(1, 3))
    label_idx = draw(st.sampled_from([None, 0, min(1, n_features), n_features]))
    n_cols = n_features + (label_idx is not None)
    has_header = draw(st.booleans())
    label_column = None
    if label_idx is not None:
        label_column = draw(
            st.sampled_from([label_idx, label_idx - n_cols] + ["label"] * has_header)
        )
    clean = True
    rows = []
    for r in range(draw(st.sampled_from([0, 1, 2, 7]))):
        cells = [
            draw(st.sampled_from(CLEAN_PADS)).format(draw(st.sampled_from(CELL_FORMATS))(v))
            for v in draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                   min_size=n_features, max_size=n_features))
        ]
        if label_idx is not None:
            cells.insert(label_idx, draw(st.sampled_from(["p", "q", " r ", ""])))
        rows.append(cells)
    if not rows:
        clean = False
    for r in draw(st.sets(st.integers(0, len(rows) - 1), max_size=2)) if rows else ():
        kind = draw(st.sampled_from(["cell", "label", "line"]))
        if kind == "label" and label_idx is not None:
            rows[r][label_idx] = draw(st.sampled_from(SPOILED_LABELS))
        elif kind == "line":
            line = draw(st.sampled_from(SPOILED_LINES))
            rows[r] = {"ragged-short": rows[r][:-1], "ragged-long": rows[r] + ["1"]}.get(line, [line])
        else:
            j = draw(st.sampled_from([i for i in range(n_cols) if i != label_idx]))
            rows[r][j] = draw(st.sampled_from(SPOILED_CELLS))
        clean = False
    lines = [",".join(cells) for cells in rows]
    if has_header:
        header = [f"h{i}" for i in range(n_cols)]
        if label_idx is not None:
            header[label_idx] = "label"
        width = draw(st.sampled_from([n_cols] * 4 + [n_cols - 1, n_cols + 1]))
        clean &= width == n_cols
        lines.insert(0, ",".join((header + ["extra"])[:width]))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), "")
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(lines) + newline * draw(st.booleans()), has_header, label_column, clean


def _read_outcome(path, has_header, label_column):
    try:
        names, x, labels = data._read_csv(path, has_header, label_column)
    except (IngestError, ParameterError) as exc:
        return type(exc), str(exc)
    return names, x.shape, _bits(x).tobytes(), labels


@settings(max_examples=300, deadline=None)
@given(csv_files())
def test_c_reader_and_streaming_reader_agree(tmp_path_factory, case):
    text, has_header, label_column, clean = case
    path = tmp_path_factory.mktemp("csv") / "f.csv"
    path.write_text(text, newline="")
    with mock.patch.object(data, "_read_csv_c", return_value=None):
        streamed = _read_outcome(path, has_header, label_column)
    assert _read_outcome(path, has_header, label_column) == streamed
    if clean:
        with path.open(newline="") as fh:
            assert data._read_csv_c(path, fh, has_header, label_column) is not None


def _block_rows(n_rows, bad_row=None, bad_line=None):
    """An unlabelled 3-column CSV of ``n_rows`` data rows; ``bad_row`` (1-based) is replaced."""
    lines = ["a,b,c"]
    for r in range(1, n_rows + 1):
        lines.append(bad_line if r == bad_row else f"{r},{r / 7!r},-{r}e-3")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("bad_row", [B, B + 1, B + 7, 2 * B + 1])
@pytest.mark.parametrize(
    "bad_line,message",
    [
        ("1,oops,3", "cannot parse 'oops' at row {r}, column 2"),
        ("1,2", "row {r} has 2 cells, expected 3"),
        ("1,2,-inf", "non-finite value -inf at row {r}, column 3"),
    ],
)
def test_csv_errors_after_the_first_block_name_their_row(tmp_path, bad_row, bad_line, message):
    path = tmp_path / "late.csv"
    path.write_text(_block_rows(2 * B + 1, bad_row, bad_line))
    with pytest.raises(IngestError, match=rf"late\.csv: {message.format(r=bad_row)}$"):
        load_features(path)


@pytest.mark.parametrize(
    "lines,message",
    [
        # a parse error before a ragged row in a later block wins
        ({B + 2: "1,x,3", B + 5: "1,2"}, f"cannot parse 'x' at row {B + 2}"),
        # a ragged row before a parse error in the same block wins
        ({B + 2: "1,2", B + 5: "1,x,3"}, f"row {B + 2} has 2 cells"),
        # a parse error in the block still pending when a ragged row is met wins
        ({3: "x,2,3", 5: "1,2"}, "cannot parse 'x' at row 3"),
        # any parse error wins over a non-finite value, wherever it is
        ({2: "nan,2,3", B + 5: "1,x,3"}, f"cannot parse 'x' at row {B + 5}"),
        ({2: "nan,2,3", B + 5: "1,2"}, f"row {B + 5} has 2 cells"),
        ({2: "nan,2,3", B + 5: "1,inf,3"}, "non-finite value nan at row 2, column 1"),
    ],
)
def test_csv_first_bad_row_wins(tmp_path, lines, message):
    rows = _block_rows(2 * B + 1).splitlines()
    for r, line in lines.items():
        rows[r] = line
    path = tmp_path / "two.csv"
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(IngestError, match=message):
        load_features(path)


def test_csv_rows_are_numbered_past_blank_lines_and_the_header(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("a,b\n\n1,2\n\n\n3,x\n")
    with pytest.raises(IngestError, match="cannot parse 'x' at row 2, column 2"):
        load_features(path)


@pytest.mark.parametrize(
    "text,label_column,x",
    [
        ("a\n1\n2.5\n", None, [[1.0], [2.5]]),
        ("a,label\n1,p\n2.5,q\n", "label", [[1.0], [2.5]]),
        ("label,a\np,1\nq,2.5\n", "label", [[1.0], [2.5]]),
    ],
)
def test_csv_with_one_feature_reads_a_column(tmp_path, text, label_column, x):
    path = tmp_path / "one.csv"
    path.write_text(text)
    if label_column is None:
        assert load_features(path).tolist() == x
    else:
        ds = load_csv(path, label_column=label_column)
        assert ds.x.tolist() == x
        assert ds.feature_names == ["a"] and ds.label_names == ["p", "q"]


def test_csv_with_a_header_only_or_no_features_is_refused(tmp_path):
    header_only = tmp_path / "header.csv"
    header_only.write_text("a,b,label\n\n")
    with pytest.raises(IngestError, match=r"header\.csv has a header but no data rows"):
        load_csv(header_only, label_column="label")
    labels_only = tmp_path / "labels.csv"
    labels_only.write_text("label\np\nq\n")
    with pytest.raises(IngestError, match=r"labels\.csv has a label column but no feature columns"):
        load_csv(labels_only, label_column="label")


@pytest.mark.parametrize(
    "name,content,message",
    [
        ("latin1.csv", b"a,b\n1,2\n3,\xe9\n", "latin1.csv is not text"),
        ("huge.csv", b"a,b\n1," + b"9" * 140_000 + b"\n", "huge.csv cannot be read as CSV: field larger"),
    ],
    ids=["undecodable", "oversized-cell"],
)
def test_csv_that_cannot_be_read_as_text_is_named(tmp_path, name, content, message):
    path = tmp_path / name
    path.write_bytes(content)
    with pytest.raises(IngestError, match=message):
        load_features(path)
    with pytest.raises(IngestError, match=rf"{tmp_path.name}.* cannot be read as CSV"):
        load_features(tmp_path)


def test_csv_ingest_peak_memory_is_bounded_by_the_matrix(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(20_000, 30))
    lines = [",".join([*(f"f{i}" for i in range(30)), "label"])]
    lines.extend(",".join([*map(repr, row), "ab"[r % 2]]) for r, row in enumerate(x.tolist()))
    path = tmp_path / "big.csv"
    path.write_text("\n".join(lines) + "\n")
    del lines
    tracemalloc.start()
    try:
        ds = load_csv(path, label_column="label")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(ds.x, x)
    assert peak <= 3 * ds.x.nbytes, f"peak {peak / ds.x.nbytes:.2f}x the matrix"


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
