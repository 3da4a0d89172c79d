import gzip
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from alc import fetch, model
from alc.cli import main, read_config_file
from alc.data import load_dataset
from alc.errors import ConfigError, IntegrityError, ParameterError
from alc.fetch import RemoteFile, dataset_available, fetch_dataset, sha256_of
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


def test_predict_bad_model_file(tmp_path):
    bad = tmp_path / "m.json"
    bad.write_text("{}")
    csv_path = tmp_path / "f.csv"
    csv_path.write_text("a\n1\n")
    assert run_cli("predict", "--model", str(bad), "--data", str(csv_path)) == 1


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
    return {
        "testset": [
            RemoteFile(
                url=source.as_uri(),
                filename=source.name,
                sha256=digest,
                gzipped=gzipped,
            )
        ]
    }


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
    registry = {
        "testset": [RemoteFile(url=source.as_uri(), filename="voice.csv", sha256=None)]
    }
    messages = []
    fetch_dataset("testset", dest_dir=tmp_path / "c", registry=registry, log=messages.append)
    assert any("no pinned checksum" in m for m in messages)


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
