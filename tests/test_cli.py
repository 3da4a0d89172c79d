import gzip
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from alc import data, errors, experiments, fetch, model
from alc.cli import EXIT_CODES, main, read_config_file
from alc.data import load_dataset
from alc.errors import ConfigError, IntegrityError, ParameterError
from alc.fetch import REMOTE_FILES, dataset_available, fetch_dataset, sha256_of
from idx_files import write_idx_images, write_idx_labels


def run_cli(*argv):
    return main(list(argv))


# ---------------------------------------------------------------------------
# config file parsing


def test_read_config_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# comment\n"
        "dataset = iris\n"
        "lobules = 8\n"
        "epochs = 40   # inline comment\n"
        "standardize = false\n"
        "seed = 5\n"
    )
    values = read_config_file(path)
    assert values == {
        "dataset": "iris",
        "lobules": 8,
        "epochs": 40,
        "standardize": False,
        "seed": 5,
    }


def test_read_config_file_rejects_unknown_key(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("learning_rate = 0.1\n")
    with pytest.raises(ConfigError, match="unknown config key"):
        read_config_file(path)


def test_read_config_file_rejects_bad_value(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("epochs = soon\n")
    with pytest.raises(ConfigError):
        read_config_file(path)


def test_read_config_file_missing(tmp_path):
    with pytest.raises(ConfigError):
        read_config_file(tmp_path / "none.cfg")


# ---------------------------------------------------------------------------
# subcommands


def test_crossval_command_writes_reports(tmp_path, capsys):
    code = run_cli(
        "crossval", "--dataset", "iris", "--epochs", "15", "--agents", "3",
        "--folds", "3", "--out-dir", str(tmp_path),
    )
    assert code == 0
    out_dir = tmp_path / "crossval_iris"
    assert (out_dir / "mean.csv").exists()
    assert "accuracy=" in capsys.readouterr().out


def test_crossval_with_config_file_and_override(tmp_path, capsys):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("dataset = iris\nepochs = 12\nagents = 3\nk_folds = 3\n")
    code = run_cli(
        "crossval", "--config", str(cfg_file), "--epochs", "8",
        "--out-dir", str(tmp_path),
    )
    assert code == 0
    history = (tmp_path / "crossval_iris" / "history.csv").read_text().splitlines()
    # 3 folds x 8 epochs of history rows plus the header: the flag override won
    assert len(history) == 1 + 3 * 8


def test_crossval_lobule_grid(tmp_path, capsys):
    code = run_cli(
        "crossval", "--dataset", "iris", "--epochs", "10", "--agents", "3",
        "--folds", "3", "--lobule-grid", "4,6", "--out-dir", str(tmp_path),
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "lobules=4" in out and "selected lobules=" in out

    code = run_cli("crossval", "--dataset", "iris", "--lobule-grid", "5,a", "--out-dir", str(tmp_path))
    assert code == 2
    err = capsys.readouterr().err
    assert "error: --lobule-grid takes a comma list of integers" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("grid", [",", ""])
def test_lobule_grid_without_integers_is_a_config_error(tmp_path, capsys, grid):
    code = run_cli("crossval", "--dataset", "iris", "--lobule-grid", grid, "--out-dir", str(tmp_path))
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: --lobule-grid takes a comma list of integers, got {grid!r}\n"


def test_lobule_grid_widths_are_checked_before_any_run(tmp_path, capsys, monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr(experiments, "_map_tasks", no_training)
    code = run_cli("crossval", "--dataset", "iris", "--lobule-grid", "4,0", "--out-dir", str(tmp_path))
    assert code == 2
    assert capsys.readouterr().err == "error: lobules must be >= 1, got 0\n"


@pytest.mark.parametrize("jobs", ["0", "-3"])
@pytest.mark.parametrize("command", ["crossval", "ablate", "optbench"])
def test_jobs_below_one_fails_before_any_data_loads(tmp_path, capsys, monkeypatch, command, jobs):
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(data, "load_dataset", no_work)
    monkeypatch.setattr(experiments, "run_optbench", no_work)
    dataset = () if command == "optbench" else ("--dataset", "iris")
    code = run_cli(command, *dataset, "--jobs", jobs, "--out-dir", str(tmp_path))
    assert code == 2
    assert capsys.readouterr().err == f"error: --jobs must be >= 1, got {jobs}\n"
    assert not list(tmp_path.iterdir())


# The README's exit-code table; any other AlcError exits 1.
DOCUMENTED_EXIT_CODES = {
    "AlcError": 1,
    "ShapeError": 1,
    "ParameterError": 2,
    "LobuleRangeError": 2,
    "VariantError": 2,
    "IngestError": 3,
    "IntegrityError": 3,
    "PersistenceError": 1,
    "NumericError": 4,
    "ConfigError": 2,
    "AuditError": 1,
    "InsufficientDataError": 1,
}


@pytest.mark.parametrize(
    "name",
    sorted(
        name for name, kind in vars(errors).items()
        if isinstance(kind, type) and issubclass(kind, errors.AlcError)
    ),
)
def test_every_error_class_exits_with_its_documented_code(capsys, monkeypatch, name):
    def failing_fetch(*args, **kwargs):
        raise getattr(errors, name)("boom")

    monkeypatch.setattr(fetch, "fetch_dataset", failing_fetch)
    assert run_cli("fetch", "iris") == DOCUMENTED_EXIT_CODES[name]
    assert capsys.readouterr().err == "error: boom\n"


def test_config_error_exit_code(tmp_path, capsys):
    code = run_cli(
        "crossval", "--dataset", "iris", "--folds", "1", "--out-dir", str(tmp_path)
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_missing_dataset_exit_code(capsys):
    assert run_cli("crossval") == 2


def test_unknown_dataset_ingest_path(tmp_path, capsys):
    code = run_cli("crossval", "--dataset", "unknown", "--out-dir", str(tmp_path))
    assert code == 2  # rejected while building the config, before ingestion


@pytest.mark.parametrize(
    "command",
    [
        ("crossval", "--dataset", "iris"),
        ("optbench", "--functions", "F4", "--runs", "1", "--epochs", "2", "--agents", "2"),
    ],
)
def test_negative_seed_exit_code_without_traceback(tmp_path, command):
    # A separate interpreter, so an uncaught exception would show on stderr.
    src = str(Path(model.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "alc.cli", *command, "--seed", "-1", "--out-dir", str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "seed must be >= 0" in proc.stderr


def test_ablate_command(tmp_path, capsys):
    code = run_cli(
        "ablate", "--dataset", "iris", "--epochs", "8", "--agents", "3",
        "--folds", "3", "--out-dir", str(tmp_path),
    )
    assert code == 0
    lines = (tmp_path / "ablation_iris" / "ablation.csv").read_text().splitlines()
    assert len(lines) == 6  # header plus five variants
    out = capsys.readouterr().out
    assert "identity-vitamin needs lobules == classes" in out


@pytest.mark.parametrize("route", ["flag", "config file"])
def test_ablate_rejects_a_variant(tmp_path, capsys, route):
    if route == "flag":
        extra = ["--dataset", "iris", "--variant", "phase2-only"]
    else:
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("dataset = iris\nvariant = phase2-only\n")
        extra = ["--config", str(cfg_file)]
    code = run_cli("ablate", *extra, "--epochs", "2", "--agents", "2", "--out-dir", str(tmp_path))
    assert code == 2
    err = capsys.readouterr().err
    assert "error: ablate runs every variant" in err
    assert "Traceback" not in err
    assert not (tmp_path / "ablation_iris").exists()


@pytest.mark.parametrize("token", ["x", "nan"])
def test_optbench_malformed_transform_file(tmp_path, capsys, token):
    # F4 is 10-dimensional, so the first line has the right length and fails on the token
    (tmp_path / "F4.txt").write_text(" ".join([token] + ["0.0"] * 9) + "\n")
    code = run_cli(
        "optbench", "--functions", "F4", "--runs", "1", "--epochs", "2", "--agents", "2",
        "--transform-dir", str(tmp_path), "--out-dir", str(tmp_path),
    )
    assert code == 2
    err = capsys.readouterr().err
    assert f"error: transform file {tmp_path / 'F4.txt'}, line 1" in err
    assert "Traceback" not in err
    assert not (tmp_path / "optbench").exists()


@pytest.mark.parametrize("kind", ["directory", "utf16-bom"])
def test_optbench_unreadable_transform_file(tmp_path, capsys, kind):
    transforms = tmp_path / "transforms"
    transforms.mkdir()
    if kind == "directory":
        (transforms / "F4.txt").mkdir()
    else:
        (transforms / "F4.txt").write_bytes(b"\xff\xfe0\x00.\x00")  # UTF-16 byte order mark
    code = run_cli(
        "optbench", "--functions", "F4", "--runs", "1", "--epochs", "2", "--agents", "2",
        "--transform-dir", str(transforms), "--out-dir", str(tmp_path),
    )
    assert code == 2
    err = capsys.readouterr().err
    assert f"error: transform file {transforms / 'F4.txt'} cannot be read" in err
    assert "Traceback" not in err
    assert not (tmp_path / "optbench").exists()


def test_optbench_command(tmp_path, capsys):
    code = run_cli(
        "optbench", "--functions", "F4,F10", "--optimizers", "ifox,fox",
        "--runs", "2", "--epochs", "10", "--agents", "3",
        "--out-dir", str(tmp_path),
    )
    assert code == 0
    out_dir = tmp_path / "optbench"
    assert (out_dir / "stats.csv").exists()
    assert (out_dir / "ranks.csv").exists()
    assert (out_dir / "history_F4_fox.csv").exists()
    text = capsys.readouterr().out
    assert "total rank" in text


def test_predict_round_trip(tmp_path):
    ds = load_dataset("iris")
    rng = np.random.default_rng(0)
    params = model.AlcParams(
        4, 6, 3, rng.uniform(-1, 1, (4, 6)), rng.uniform(-1, 1, (6, 3))
    )
    model_path = tmp_path / "model.json"
    model.save_model(
        params, {"seed": 1, "epochs": 1, "agents": 2, "dataset_id": "iris"}, model_path
    )
    csv_path = tmp_path / "features.csv"
    header = ",".join(ds.feature_names)
    rows = [",".join(repr(float(v)) for v in row) for row in ds.x[:12]]
    csv_path.write_text(header + "\n" + "\n".join(rows) + "\n")
    out_path = tmp_path / "labels.txt"
    code = run_cli(
        "predict", "--model", str(model_path), "--data", str(csv_path),
        "--out", str(out_path),
    )
    assert code == 0
    predicted = [int(v) for v in out_path.read_text().split()]
    expected = model.predict(ds.x[:12], params).tolist()
    assert predicted == expected


def test_predict_feature_count_mismatch(tmp_path, capsys):
    params = model.AlcParams(2, 3, 2, np.zeros((2, 3)), np.zeros((3, 2)))
    model_path = tmp_path / "m.json"
    model.save_model(params, {"seed": 0, "epochs": 1, "agents": 2, "dataset_id": "x"}, model_path)
    csv_path = tmp_path / "f.csv"
    csv_path.write_text("a,b,c\n1,2,3\n")
    assert run_cli("predict", "--model", str(model_path), "--data", str(csv_path)) == 3


@pytest.mark.parametrize("cell", ["nan", "inf"])
@pytest.mark.parametrize("labelled", [False, True])
def test_predict_rejects_non_finite_cells(tmp_path, capsys, cell, labelled):
    params = model.AlcParams(2, 3, 2, np.zeros((2, 3)), np.zeros((3, 2)))
    model_path = tmp_path / "m.json"
    model.save_model(params, {"seed": 0, "epochs": 1, "agents": 2, "dataset_id": "x"}, model_path)
    csv_path = tmp_path / "f.csv"
    if labelled:
        csv_path.write_text(f"a,b,label\n1,2,x\n{cell},4,y\n")
        extra = ["--label-column", "label"]
    else:
        csv_path.write_text(f"a,b\n1,2\n{cell},4\n")
        extra = []
    assert run_cli("predict", "--model", str(model_path), "--data", str(csv_path), *extra) == 3
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind,message",
    [
        ("undecodable", "is not text"),
        ("oversized-cell", "cannot be read as CSV: field larger than field limit"),
        ("directory", "cannot be read as CSV"),
    ],
    ids=["undecodable", "oversized-cell", "directory"],
)
def test_predict_unreadable_data_file_exits_3(tmp_path, capsys, kind, message):
    params = model.AlcParams(2, 3, 2, np.zeros((2, 3)), np.zeros((3, 2)))
    model_path = tmp_path / "m.json"
    model.save_model(params, {"seed": 0, "epochs": 1, "agents": 2, "dataset_id": "x"}, model_path)
    data_path = tmp_path / "requests.csv"
    if kind == "undecodable":
        data_path.write_bytes(b"a,b\n1,2\n\xff\xfe,4\n")
    elif kind == "oversized-cell":
        data_path.write_bytes(b"a,b\n1,2\n3," + b"4" * 140_000 + b"\n")
    else:
        data_path.mkdir()
    assert run_cli("predict", "--model", str(model_path), "--data", str(data_path)) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {data_path}") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "text,extra,message",
    [
        ("a,b\n1,2,3\n", [], "header has 2 cells but row 1 has 3"),
        ("a,b,label\n1,2\n", ["--label-column", "label"], "header has 3 cells but row 1 has 2"),
        ("a,b,c,label\n1,2,x\n", ["--label-column", "label"], "header has 4 cells but row 1 has 3"),
    ],
    ids=["narrow", "narrow-labelled", "wide-labelled"],
)
def test_predict_header_width_mismatch_exits_3(tmp_path, capsys, text, extra, message):
    params = model.AlcParams(2, 3, 2, np.zeros((2, 3)), np.zeros((3, 2)))
    model_path = tmp_path / "m.json"
    model.save_model(params, {"seed": 0, "epochs": 1, "agents": 2, "dataset_id": "x"}, model_path)
    data_path = tmp_path / "requests.csv"
    data_path.write_text(text)
    assert run_cli("predict", "--model", str(model_path), "--data", str(data_path), *extra) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {data_path}: {message}")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "cell,shown", [("1_0", "1_0"), ("\x1c4", "4")], ids=["underscore", "separator"]
)
def test_predict_refuses_a_cell_float_reads_but_numpy_does_not(tmp_path, capsys, cell, shown):
    params = model.AlcParams(2, 3, 2, np.zeros((2, 3)), np.zeros((3, 2)))
    model_path = tmp_path / "m.json"
    model.save_model(params, {"seed": 0, "epochs": 1, "agents": 2, "dataset_id": "x"}, model_path)
    data_path = tmp_path / "requests.csv"
    data_path.write_text(f"a,b\n1,2\n3,{cell}\n")
    assert run_cli("predict", "--model", str(model_path), "--data", str(data_path)) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {data_path}: cannot parse {shown!r} at row 2, column 2\n"


def test_predict_reads_a_fully_quoted_crlf_file_as_its_unquoted_twin(tmp_path, capsys):
    ds = load_dataset("iris")
    rng = np.random.default_rng(0)
    params = model.AlcParams(
        4, 6, 3, rng.uniform(-1, 1, (4, 6)), rng.uniform(-1, 1, (6, 3))
    )
    model_path = tmp_path / "model.json"
    model.save_model(
        params, {"seed": 1, "epochs": 1, "agents": 2, "dataset_id": "iris"}, model_path
    )
    table = [[*ds.feature_names, "label"]] + [
        [*map(repr, row), ds.label_names[k]] for row, k in zip(ds.x[::5].tolist(), ds.y[::5])
    ]
    plain = tmp_path / "plain.csv"
    plain.write_text("".join(",".join(cells) + "\n" for cells in table))
    quoted = tmp_path / "quoted.csv"
    quoted.write_text(
        "".join(",".join(f'"{c}"' for c in cells) + "\r\n" for cells in table), newline=""
    )
    outputs = []
    for path in (plain, quoted):
        argv = ["predict", "--model", str(model_path), "--data", str(path)]
        assert run_cli(*argv, "--label-column", "label") == 0
        outputs.append(capsys.readouterr().out.split())
    assert outputs[0] == outputs[1] == [str(k) for k in model.predict(ds.x[::5], params)]


def test_predict_bad_model_file(tmp_path):
    bad = tmp_path / "m.json"
    bad.write_text("{}")
    csv_path = tmp_path / "f.csv"
    csv_path.write_text("a\n1\n")
    assert run_cli("predict", "--model", str(bad), "--data", str(csv_path)) == 1


@pytest.mark.parametrize(
    "changes,message",
    [
        ({"f": "Infinity"}, "f must be a positive JSON integer, got inf"),
        ({"p": "1e400"}, "p must be a positive JSON integer, got inf"),
        ({"o": "2.5"}, "o must be a positive JSON integer, got 2.5"),
        ({"f": '"2"'}, "f must be a positive JSON integer, got '2'"),
        ({"f": "true"}, "f must be a positive JSON integer, got True"),
        ({"p": "0"}, "p must be a positive JSON integer, got 0"),
        ({"p": "1", "variant": '"phase1-only"'}, "at least one lobule per class"),
        ({"p": "3", "variant": '"identity-vitamin"'}, "needs p == o"),
        ({"o": "1"}, "need at least two output classes, got 1"),
    ],
    ids=["infinity", "overflow", "fraction", "string", "bool", "zero", "phase1-only", "identity-vitamin", "one-class"],
)
def test_predict_refuses_model_dimensions_it_cannot_use(tmp_path, capsys, changes, message):
    doc = {"format_version": "1", "f": "2", "p": "2", "o": "2", "variant": '"full"'}
    doc.update(changes)
    # matrices sized for the integer dimensions; a refused type is never reshaped
    p, o = (v if type(v) is int else 1 for v in (json.loads(doc["p"]), json.loads(doc["o"])))
    text = ", ".join(f'"{key}": {value}' for key, value in doc.items())
    matrices = json.dumps({"C": [0.5] * 2 * p, "V": [0.5] * p * o, "training_meta": {}})
    bad = tmp_path / "m.json"
    bad.write_text("{" + text + ", " + matrices[1:])
    csv_path = tmp_path / "f.csv"
    csv_path.write_text("a,b\n1,2\n")
    code = next((c for kinds, c in EXIT_CODES if issubclass(errors.PersistenceError, kinds)), 1)
    assert run_cli("predict", "--model", str(bad), "--data", str(csv_path)) == code
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: model file {bad}") and err.count("\n") == 1
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("ablate", "--dataset", "wine", "--lobules", "2"),
        ("crossval", "--dataset", "iris", "--lobule-grid", "5,100000"),
        ("crossval", "--dataset", "iris", "--lobule-grid", "4,4"),
    ],
    ids=["ablate-phase1-only", "lobule-grid-range", "lobule-grid-repeated"],
)
def test_sweep_cells_are_checked_before_the_first_fold(tmp_path, capsys, monkeypatch, argv):
    calls = []
    monkeypatch.setattr(experiments, "run_fold", lambda *args: calls.append(args))
    assert run_cli(*argv, "--out-dir", str(tmp_path)) == 2
    assert calls == []
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("kind", ["undecodable", "directory"])
def test_unreadable_config_file_exits_2(tmp_path, capsys, kind):
    cfg_file = tmp_path / "exp.cfg"
    if kind == "directory":
        cfg_file.mkdir()
    else:
        cfg_file.write_bytes(b"\xff\xfedataset = iris\n")
    code = run_cli("crossval", "--config", str(cfg_file), "--out-dir", str(tmp_path / "out"))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config file {cfg_file} cannot be read as text")
    assert "Traceback" not in err


def test_undecodable_model_file_exits_1(tmp_path, capsys):
    bad = tmp_path / "m.json"
    bad.write_bytes(b"\xff\xfe{}")
    csv_path = tmp_path / "f.csv"
    csv_path.write_text("a\n1\n")
    assert run_cli("predict", "--model", str(bad), "--data", str(csv_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read model file {bad}")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["crossval", "ablate"])
def test_out_dir_that_cannot_be_made_fails_before_training(tmp_path, capsys, monkeypatch, command):
    def no_training(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr(experiments, "run_crossval", no_training)
    monkeypatch.setattr(experiments, "run_ablation", no_training)
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = run_cli(command, "--dataset", "iris", "--out-dir", str(blocker / "x"))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --out-dir: cannot make report directory {blocker / 'x'}")
    assert "Traceback" not in err


@pytest.mark.parametrize("kind", ["file", "missing"])
def test_optbench_transform_dir_must_be_a_directory(tmp_path, capsys, kind):
    transforms = tmp_path / "transforms"
    if kind == "file":
        transforms.write_text("")
    code = run_cli(
        "optbench", "--functions", "F4", "--runs", "1", "--epochs", "2", "--agents", "2",
        "--transform-dir", str(transforms), "--out-dir", str(tmp_path),
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --transform-dir {transforms} is not a directory")
    assert not (tmp_path / "optbench").exists()


@pytest.mark.parametrize("held", [[], ["F5.txt"]], ids=["empty", "other-functions"])
def test_optbench_transform_dir_must_hold_a_requested_file(tmp_path, capsys, held):
    transforms = tmp_path / "transforms"
    transforms.mkdir()
    identity = "\n".join(" ".join("1.0" if j == i else "0.0" for j in range(10)) for i in range(-1, 10))
    for name in held:
        (transforms / name).write_text(identity + "\n")
    args = ["optbench", "--functions", "F4,F1", "--runs", "1", "--epochs", "2", "--agents", "2",
            "--transform-dir", str(transforms), "--out-dir", str(tmp_path)]
    assert run_cli(*args) == 2
    err = capsys.readouterr().err
    assert err.startswith(
        f"error: --transform-dir {transforms} holds none of the transform files F4.txt, F1.txt"
    )
    assert not (tmp_path / "optbench").exists()
    # one requested file is enough: the other functions run untransformed
    (transforms / "F4.txt").write_text(identity + "\n")
    assert run_cli(*args) == 0


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--functions", ",", "no function ids given"),
        ("--functions", " , ", "no function ids given"),
        ("--optimizers", ",", "no optimizer ids given"),
        ("--functions", "F4,F10,F4", "function id 'F4' is given more than once"),
        ("--optimizers", "ifox,fox,fox", "optimizer id 'fox' is given more than once"),
        ("--functions", "F4,F11", "unknown function id 'F11'"),
        ("--optimizers", "ifox,sgd", "unknown optimizer 'sgd'"),
    ],
)
def test_optbench_rejects_empty_repeated_or_unknown_ids(tmp_path, capsys, monkeypatch, flag, value, message):
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(experiments, "_map_tasks", no_work)
    code = run_cli("optbench", flag, value, "--runs", "1", "--epochs", "2", "--agents", "2",
                   "--out-dir", str(tmp_path))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not (tmp_path / "optbench").exists()


def test_optbench_defaults_epochs_agents_and_seed(tmp_path, monkeypatch):
    seen = {}

    def record(**kwargs):
        seen.update(kwargs)
        raise ParameterError("recorded")

    monkeypatch.setattr(experiments, "run_optbench", record)
    assert run_cli("optbench", "--out-dir", str(tmp_path)) == 2
    assert (seen["epochs"], seen["agents"], seen["seed"]) == (
        experiments.DEFAULT_EPOCHS, experiments.DEFAULT_AGENTS, 1
    )


# ---------------------------------------------------------------------------
# fetch


def test_fetch_bundled_is_noop(capsys):
    assert run_cli("fetch", "iris") == 0
    assert "ships with the package" in capsys.readouterr().out


def test_fetch_unknown_dataset(capsys):
    assert run_cli("fetch", "imagenet") == 2


def _file_registry(tmp_path, payload, sha=None, gzipped=False):
    source = tmp_path / ("src.gz" if gzipped else "src.bin")
    if gzipped:
        source.write_bytes(gzip.compress(payload))
    else:
        source.write_bytes(payload)
    digest = sha if sha is not None else hashlib.sha256(source.read_bytes()).hexdigest()
    return {"testset": {source.name.removesuffix(".gz"): (source.as_uri(), digest)}}


def test_fetch_verifies_checksum_and_decompresses(tmp_path):
    registry = _file_registry(tmp_path, b"hello idx world", gzipped=True)
    dest = tmp_path / "cache"
    paths = fetch_dataset("testset", dest_dir=dest, registry=registry, log=lambda *_: None)
    assert paths[0].name == "src"
    assert paths[0].read_bytes() == b"hello idx world"


def test_fetch_checksum_mismatch_removes_file(tmp_path):
    registry = _file_registry(tmp_path, b"payload", sha="0" * 64)
    dest = tmp_path / "cache"
    with pytest.raises(IntegrityError):
        fetch_dataset("testset", dest_dir=dest, registry=registry, log=lambda *_: None)
    assert not (dest / "testset" / "src.bin").exists()


def test_fetch_skips_existing(tmp_path, capsys):
    registry = _file_registry(tmp_path, b"payload")
    dest = tmp_path / "cache"
    messages = []
    fetch_dataset("testset", dest_dir=dest, registry=registry, log=messages.append)
    fetch_dataset("testset", dest_dir=dest, registry=registry, log=messages.append)
    assert any("already present" in m for m in messages)


def test_fetch_interrupted_download_leaves_no_file(tmp_path, monkeypatch):
    registry = _file_registry(tmp_path, b"label\nx\ny\n")
    dest = tmp_path / "cache"
    real_download = fetch._download

    def broken_download(url, path):
        path.write_bytes(b"label\nx")
        raise ConnectionResetError("connection dropped")

    monkeypatch.setattr(fetch, "_download", broken_download)
    with pytest.raises(ConnectionResetError):
        fetch_dataset("testset", dest_dir=dest, registry=registry, log=lambda *_: None)
    assert list((dest / "testset").iterdir()) == []

    monkeypatch.setattr(fetch, "_download", real_download)
    messages = []
    paths = fetch_dataset("testset", dest_dir=dest, registry=registry, log=messages.append)
    assert any("downloading" in m for m in messages)
    assert paths[0].read_bytes() == b"label\nx\ny\n"


def test_fetch_unpinned_checksum_warns(tmp_path):
    source = tmp_path / "voice.csv"
    source.write_bytes(b"label\nx\n")
    registry = {"testset": {"voice.csv": (source.as_uri(), None)}}
    messages = []
    fetch_dataset("testset", dest_dir=tmp_path / "c", registry=registry, log=messages.append)
    assert any("no pinned checksum" in m for m in messages)


def test_fetched_cache_names_are_the_names_the_loader_reads(tmp_path):
    """fetch_dataset writes each REMOTE_FILES cache name that load_dataset reads."""
    mirror, cache = tmp_path / "mirror", tmp_path / "cache"
    mirror.mkdir()
    rng = np.random.default_rng(3)
    train, test = (rng.integers(0, 256, (n, 3, 3), dtype=np.uint8) for n in (30, 20))
    written = [
        (write_idx_images, train), (write_idx_labels, np.arange(30) % 10),
        (write_idx_images, test), (write_idx_labels, np.arange(20) % 10),
    ]
    registry = {"mnist": {}, "voice_gender": {}}
    for name, (write, payload) in zip(REMOTE_FILES["mnist"], written):
        write(mirror / name, payload)
        archive = mirror / f"{name}.gz"
        archive.write_bytes(gzip.compress((mirror / name).read_bytes()))
        registry["mnist"][name] = (archive.as_uri(), sha256_of(archive))
    (voice_name,) = REMOTE_FILES["voice_gender"]
    (mirror / voice_name).write_text("meanfreq,sd,label\n0.1,0.2,male\n0.3,0.4,female\n0.5,0.6,male\n")
    registry["voice_gender"][voice_name] = ((mirror / voice_name).as_uri(), None)

    for dataset_id in registry:
        assert not dataset_available(dataset_id, data_dir=cache)
        fetch_dataset(dataset_id, dest_dir=cache, registry=registry, log=lambda *_: None)
        assert dataset_available(dataset_id, data_dir=cache)
    mnist = load_dataset("mnist", data_dir=cache)
    assert np.array_equal(mnist.x, np.vstack([train, test]).reshape(50, 9).astype(np.float64))
    assert mnist.y.tolist() == (np.r_[np.arange(30), np.arange(20)] % 10).tolist()
    voice = load_dataset("voice_gender", data_dir=cache)
    expected = data.load_csv(mirror / voice_name, dataset_id="voice_gender")
    assert np.array_equal(voice.x, expected.x) and voice.y.tolist() == [0, 1, 0]
    assert voice.label_names == ["male", "female"]


def test_sha256_of(tmp_path):
    path = tmp_path / "f.bin"
    path.write_bytes(b"abc")
    assert sha256_of(path) == hashlib.sha256(b"abc").hexdigest()


def test_dataset_available_for_synthetic_mnist(tmp_path, monkeypatch):
    monkeypatch.setenv("ALC_DATA_DIR", str(tmp_path))
    assert not dataset_available("mnist")
    root = tmp_path / "mnist"
    root.mkdir()
    rng = np.random.default_rng(1)
    write_idx_images(root / "train-images-idx3-ubyte", rng.integers(0, 255, (40, 4, 4), dtype=np.uint8))
    write_idx_labels(root / "train-labels-idx1-ubyte", np.arange(40) % 10)
    write_idx_images(root / "t10k-images-idx3-ubyte", rng.integers(0, 255, (20, 4, 4), dtype=np.uint8))
    write_idx_labels(root / "t10k-labels-idx1-ubyte", np.arange(20) % 10)
    assert dataset_available("mnist")
    ds = load_dataset("mnist")
    assert ds.n_samples == 60
    assert ds.n_features == 16
    assert ds.n_classes == 10


def test_mnist_pipeline_end_to_end_on_synthetic_digits(tmp_path, monkeypatch):
    """Subsample + discriminant projection + crossval, as the image config runs it."""
    from alc.experiments import default_config, run_crossval

    monkeypatch.setenv("ALC_DATA_DIR", str(tmp_path))
    root = tmp_path / "mnist"
    root.mkdir()
    rng = np.random.default_rng(2)
    labels_train = np.arange(400) % 10
    labels_test = np.arange(100) % 10
    # class-dependent mean pixels so the projection has signal to find
    imgs_train = (rng.integers(0, 100, (400, 6, 6)) + labels_train[:, None, None] * 12).astype(np.uint8)
    imgs_test = (rng.integers(0, 100, (100, 6, 6)) + labels_test[:, None, None] * 12).astype(np.uint8)
    write_idx_images(root / "train-images-idx3-ubyte", imgs_train)
    write_idx_labels(root / "train-labels-idx1-ubyte", labels_train)
    write_idx_images(root / "t10k-images-idx3-ubyte", imgs_test)
    write_idx_labels(root / "t10k-labels-idx1-ubyte", labels_test)

    cfg = default_config("mnist", epochs=20, agents=3, k_folds=3, subsample=200, lobules=12)
    result = run_crossval(cfg, dataset=load_dataset("mnist"))
    assert cfg.lda_dims == 9
    assert result.models[0].n_features == 9
    assert len(result.folds) == 3


# ---------------------------------------------------------------------------
# experiment battery script


def test_reproduce_results_drives_the_cli(tmp_path, monkeypatch):
    import importlib.util

    from alc import cli

    script = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_results.py"
    spec = importlib.util.spec_from_file_location("reproduce_results", script)
    battery = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(battery)
    monkeypatch.setenv("ALC_DATA_DIR", str(tmp_path))
    (tmp_path / "voice_gender").mkdir()
    (tmp_path / "voice_gender" / "voice.csv").write_text("")
    calls = []
    monkeypatch.setattr(cli, "main", lambda argv: calls.append(argv) or 0)

    assert battery.main(["--seed", "7", "--runs", "3", "--out-dir", "res", "--jobs", "2"]) == 0
    seeded = ["--seed", "7", "--out-dir", "res", "--jobs", "2"]
    assert calls == [
        ["crossval", "--dataset", "iris", *seeded],
        ["crossval", "--dataset", "wine", *seeded],
        ["crossval", "--dataset", "breast_cancer", *seeded],
        ["crossval", "--dataset", "voice_gender", *seeded],
        ["ablate", "--dataset", "breast_cancer", *seeded],
        ["optbench", "--runs", "3", "--seed", "1", "--out-dir", "res", "--jobs", "2"],
    ]

    calls.clear()
    assert battery.main(["--skip-optbench"]) == 0
    assert [c[0] for c in calls] == ["crossval"] * 4 + ["ablate"]
    assert calls[0] == ["crossval", "--dataset", "iris", "--seed", "42", "--out-dir", "out", "--jobs", "1"]

    monkeypatch.setattr(cli, "main", lambda argv: calls.append(argv) or 2)
    calls.clear()
    assert battery.main([]) == 2
    assert len(calls) == 1
