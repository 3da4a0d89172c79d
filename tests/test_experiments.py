import csv
import json
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from alc import data, experiments, model
from alc.cec2019 import SuiteObjective
from alc.errors import ConfigError, ParameterError
from alc.experiments import (
    DEFAULT_LOBULES,
    ExperimentConfig,
    build_rank_table,
    default_config,
    fit_preprocessing,
    lobule_grid_search,
    mean_report,
    run_ablation,
    run_crossval,
    run_fold,
    run_optbench,
    write_ablation_reports,
    write_crossval_reports,
    write_optbench_reports,
)
from alc.numkit import RngStream
from alc.optimizers import OptimizerConfig, multi_run


def tiny_config(**overrides):
    base = dict(epochs=25, agents=4, k_folds=4, seed=3)
    base.update(overrides)
    return default_config("iris", **base)


@pytest.fixture(scope="module")
def iris():
    return data.load_dataset("iris")


@pytest.fixture(scope="module")
def tiny_result(iris):
    return run_crossval(tiny_config(), dataset=iris)


# ---------------------------------------------------------------------------
# configuration


def test_default_config_mirrors_protocol():
    cfg = default_config("iris")
    assert (cfg.epochs, cfg.agents, cfg.k_folds) == (500, 10, 10)
    assert cfg.lobules == 10 and cfg.standardize and cfg.lda_dims is None
    assert default_config("wine").lobules == 15
    assert default_config("breast_cancer").lobules == 10
    assert default_config("voice_gender").lobules == 15
    mnist = default_config("mnist")
    assert mnist.lobules == 50 and mnist.lda_dims == 9 and mnist.subsample == 2000
    assert set(DEFAULT_LOBULES) == {"iris", "wine", "breast_cancer", "voice_gender", "mnist"}


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        default_config("iris", k_folds=1)
    with pytest.raises(ConfigError):
        default_config("iris", epochs=0)
    with pytest.raises(ConfigError):
        default_config("iris", variant="missing")
    with pytest.raises(ConfigError):
        default_config("nope")
    with pytest.raises(ConfigError):
        ExperimentConfig(dataset_id="iris", lobules=10, subsample=5, k_folds=10)
    with pytest.raises(ConfigError):
        default_config("iris", seed=-1)
    with pytest.raises(ConfigError, match="epochs"):
        replace(default_config("iris"), epochs=0)


# ---------------------------------------------------------------------------
# cross-validation mechanics


def test_crossval_shapes_and_mean_row(tiny_result):
    cfg = tiny_result.config
    assert len(tiny_result.folds) == cfg.k_folds
    assert len(tiny_result.histories) == cfg.k_folds
    assert all(len(h) == cfg.epochs for h in tiny_result.histories)
    mean = tiny_result.mean
    for column, value in zip(
        ("loss", "accuracy", "precision", "recall", "f1", "overfitting_gap", "wall_time"),
        mean.csv_row(),
    ):
        fold_values = {
            "loss": [fr.val_loss for fr in tiny_result.folds],
            "accuracy": [fr.val_accuracy for fr in tiny_result.folds],
            "precision": [fr.val_precision for fr in tiny_result.folds],
            "recall": [fr.val_recall for fr in tiny_result.folds],
            "f1": [fr.val_f1 for fr in tiny_result.folds],
            "overfitting_gap": [fr.overfitting_gap for fr in tiny_result.folds],
            "wall_time": [fr.wall_time for fr in tiny_result.folds],
        }[column]
        assert value == pytest.approx(np.mean(fold_values), abs=1e-12)


def test_crossval_deterministic(iris, tiny_result):
    again = run_crossval(tiny_config(), dataset=iris)
    for a, b in zip(tiny_result.folds, again.folds):
        row_a, row_b = a.csv_row(), b.csv_row()
        assert row_a[:-1] == row_b[:-1]  # wall time is the only free-running value
    for ha, hb in zip(tiny_result.histories, again.histories):
        assert np.array_equal(ha, hb)
    for ma, mb in zip(tiny_result.models, again.models):
        assert np.array_equal(ma.cofactor, mb.cofactor)
        assert np.array_equal(ma.vitamin, mb.vitamin)


def test_crossval_parallel_folds_match_serial(iris):
    def grid(jobs):
        return [r for _, _, r in lobule_grid_search(tiny_config(), (4, 8), dataset=iris, jobs=jobs)[1]]

    sweeps = {
        "crossval": lambda jobs: [run_crossval(tiny_config(), dataset=iris, jobs=jobs)],
        "ablation": lambda jobs: list(run_ablation(tiny_config(epochs=8), dataset=iris, jobs=jobs).values()),
        "grid": grid,
    }
    for name, sweep in sweeps.items():
        serial, parallel = sweep(1), sweep(2)
        assert [r.config for r in serial] == [r.config for r in parallel], name
        for a, b in zip(serial, parallel):
            # wall time is the only free-running value
            assert [fr.csv_row()[:-1] for fr in a.folds] == [fr.csv_row()[:-1] for fr in b.folds], name
            for ha, hb in zip(a.histories, b.histories, strict=True):
                assert np.array_equal(ha, hb), name
            for ma, mb in zip(a.models, b.models, strict=True):
                assert np.array_equal(ma.cofactor, mb.cofactor) and np.array_equal(ma.vitamin, mb.vitamin), name


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps serially."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


@pytest.mark.parametrize(
    "jobs,tasks,cpus,expected",
    [(5000, 10, 64, [10]), (5000, 10, 4, [4]), (3, 10, 64, [3]), (8, 1, 64, []), (2, 10, 1, [])],
)
def test_map_tasks_clamps_pool_size(monkeypatch, jobs, tasks, cpus, expected):
    # _map_tasks imports the pool class from concurrent.futures when it starts one
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: cpus)
    RecordingPool.sizes = []
    assert experiments._map_tasks(abs, [-t for t in range(tasks)], jobs) == list(range(tasks))
    assert RecordingPool.sizes == expected


def test_a_sweep_runs_all_its_folds_in_one_pool(monkeypatch, iris):
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 4)
    RecordingPool.sizes = []
    results = run_ablation(tiny_config(epochs=3), dataset=iris, jobs=2)
    assert len(results) == len(model.VARIANTS)
    assert RecordingPool.sizes == [2]


@pytest.mark.parametrize(
    "sweep, cells, message",
    [
        ("ablation", (), "no variants given"),
        ("ablation", ("full", "phase2-only", "full"), "variant 'full' is given more than once"),
        ("grid", (), "no lobule counts given"),
        ("grid", (4, 6, 4), "lobule count 4 is given more than once"),
    ],
)
def test_sweeps_refuse_empty_or_repeated_cells(monkeypatch, sweep, cells, message):
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    # refused before the dataset loads and before any fold runs
    monkeypatch.setattr(data, "load_dataset", no_work)
    monkeypatch.setattr(experiments, "_map_tasks", no_work)
    with pytest.raises(ParameterError, match=f"^{message}$"):
        if sweep == "ablation":
            run_ablation(tiny_config(), variants=cells)
        else:
            lobule_grid_search(tiny_config(), cells)


def test_score_warns_once_per_zero_denominator_class():
    # class 1 is never predicted: one precision warning, though f1 reads that ratio too
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        scores = experiments._score(np.array([0, 1, 2, 2]), np.eye(3)[[0, 0, 0, 2]], 3)
    assert [str(w.message) for w in caught] == [
        "precision undefined for class 1 (zero denominator); using 0"
    ]
    assert scores[1:] == (0.5, 4 / 9, 0.5, 0.38888888888888884)


def test_importing_the_package_leaves_the_process_pool_unloaded():
    # A fresh interpreter: this one has long since loaded the pool for other tests.
    src = str(Path(experiments.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, alc, alc.cec2019; print('concurrent.futures.process' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True, timeout=60
    )
    assert proc.stdout.strip() == "False"


def test_histories_non_increasing(tiny_result):
    for history in tiny_result.histories:
        assert (np.diff(history) <= 0).all()


def test_fit_preprocessing_refuses_validation_rows(iris):
    cfg = tiny_config()
    view = data.SplitView(iris.x[:30], iris.y[:30], "validation")
    from alc.errors import AuditError

    with pytest.raises(AuditError):
        fit_preprocessing(cfg, view)


def test_run_fold_is_pure_given_arguments(iris):
    cfg = tiny_config()
    plan = data.stratified_kfold(iris.y, cfg.k_folds, RngStream(cfg.seed).child(2))
    report_a, hist_a, model_a = run_fold(cfg, iris.x, iris.y, 3, plan.assignments, 1)
    report_b, hist_b, model_b = run_fold(cfg, iris.x, iris.y, 3, plan.assignments, 1)
    assert report_a.csv_row()[:-1] == report_b.csv_row()[:-1]
    assert np.array_equal(hist_a, hist_b)
    assert np.array_equal(model_a.cofactor, model_b.cofactor)


def test_lda_pipeline_runs(iris):
    cfg = tiny_config(lda_dims=2)
    result = run_crossval(cfg, dataset=iris)
    assert result.models[0].n_features == 2


def test_subsample_pipeline(iris):
    cfg = tiny_config(subsample=60)
    result = run_crossval(cfg, dataset=iris)
    assert len(result.folds) == cfg.k_folds


# ---------------------------------------------------------------------------
# ablation variants


def test_ablation_full_row_matches_crossval(iris, tiny_result):
    results = run_ablation(tiny_config(), dataset=iris, variants=("full",))
    assert results["full"].mean.csv_row()[:-1] == tiny_result.mean.csv_row()[:-1]


def test_ablation_coerces_identity_vitamin_to_square(tmp_path, iris):
    cfg = tiny_config(epochs=5)
    results = run_ablation(cfg, dataset=iris)
    assert list(results) == list(model.VARIANTS)
    for tag, result in results.items():
        assert result.config.variant == tag
        expected = iris.n_classes if tag == "identity-vitamin" else cfg.lobules
        assert result.config.lobules == expected
    assert results["identity-vitamin"].config.lobules == 3
    assert results["identity-vitamin"].models[0].vitamin.shape == (3, 3)

    # the table's trailing lobules column shows the count each row ran at
    with open(write_ablation_reports(results, tmp_path) / "ablation.csv", newline="") as fh:
        table = list(csv.reader(fh))
    assert table[0][-1] == "lobules"
    lobules = {row[0]: row[-1] for row in table[1:]}
    assert lobules == {tag: "3" if tag == "identity-vitamin" else str(cfg.lobules) for tag in results}


def test_frozen_components_survive_training(iris):
    cfg = tiny_config(variant="random-cofactor", epochs=15)
    plan = data.stratified_kfold(iris.y, cfg.k_folds, RngStream(cfg.seed).child(2))
    from alc.experiments import _INIT_STREAM, build_variant_model

    init_stream = RngStream(cfg.seed).child(_INIT_STREAM, 0)
    frozen = build_variant_model(cfg, 4, 3, init_stream).params.cofactor
    _, _, trained = run_fold(cfg, iris.x, iris.y, 3, plan.assignments, 0)
    assert np.array_equal(trained.cofactor, frozen)

    cfg_iv = tiny_config(variant="identity-vitamin", lobules=3, epochs=15)
    _, _, trained_iv = run_fold(cfg_iv, iris.x, iris.y, 3, plan.assignments, 0)
    assert np.array_equal(trained_iv.vitamin, np.eye(3))


def test_lobule_grid_search_picks_best(iris):
    best_result, rows = lobule_grid_search(tiny_config(), grid=(4, 8), dataset=iris)
    assert [p for p, _, _ in rows] == [4, 8]
    best_acc = max(acc for _, acc, _ in rows)
    assert best_result.mean.accuracy == best_acc


# ---------------------------------------------------------------------------
# optimizer benchmark


def test_optbench_small_run():
    result = run_optbench(
        function_ids=("F4", "F10"),
        optimizer_ids=("ifox", "random"),
        runs=2,
        epochs=20,
        agents=4,
        seed=7,
    )
    assert len(result.stats) == 4
    for row in result.stats:
        stats = multi_run(
            row["optimizer"],
            SuiteObjective(row["function"]),
            OptimizerConfig(epochs=20, agents=4, dim=10, lower=-100, upper=100, seed=7),
            runs=2,
        )
        assert row["mean"] == pytest.approx(stats.mean)
        assert row["min"] == pytest.approx(stats.min)
    assert set(result.histories) == {
        ("F4", "ifox"), ("F4", "random"), ("F10", "ifox"), ("F10", "random")
    }


def test_optbench_rejects_unknown_optimizer():
    with pytest.raises(ParameterError):
        run_optbench(function_ids=("F4",), optimizer_ids=("sgd",), runs=1, epochs=2, agents=2)


@pytest.mark.parametrize(
    "function_ids, optimizer_ids, message",
    [
        ((), ("ifox",), "no function ids given"),
        (("F4",), (), "no optimizer ids given"),
        (("F4", "F4"), ("ifox", "fox"), "function id 'F4' is given more than once"),
        (("F4",), ("ifox", "ifox"), "optimizer id 'ifox' is given more than once"),
    ],
)
def test_optbench_rejects_empty_or_repeated_ids(function_ids, optimizer_ids, message):
    # a repeated id would run its cells twice and rank them as one function of extra entries
    with pytest.raises(ParameterError, match=f"^{message}$"):
        run_optbench(function_ids=function_ids, optimizer_ids=optimizer_ids, runs=1, epochs=2, agents=2)


@pytest.mark.parametrize(
    "setting, message",
    [
        ({"epochs": 0}, "epochs must be >= 1, got 0"),
        ({"agents": 1}, "agents must be >= 2, got 1"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
        ({"runs": 0}, "runs must be >= 1, got 0"),
    ],
)
def test_optbench_settings_are_checked_before_any_cell_runs(monkeypatch, setting, message):
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(experiments, "_map_tasks", no_work)
    kwargs = dict(function_ids=("F4", "F10"), runs=1, epochs=2, agents=2, seed=1, jobs=2)
    with pytest.raises(ParameterError, match=f"^{message}$"):
        run_optbench(**{**kwargs, **setting})


def test_optbench_runs_is_checked_after_the_cell_settings():
    with pytest.raises(ParameterError, match="^epochs must be >= 1, got 0$"):
        run_optbench(function_ids=("F4",), runs=0, epochs=0, agents=2)


def test_rank_table_single_optimizer():
    rows = [{"function": f"F{i}", "optimizer": "ifox", "mean": float(i)} for i in range(1, 11)]
    table = build_rank_table(rows)
    assert all(table.ranks["ifox"][f"F{i}"] == 1.0 for i in range(1, 11))
    assert table.totals["ifox"] == 10.0
    assert table.averages["ifox"] == 1.0


def test_rank_table_average_ties_and_totals():
    rows = [
        {"function": "F1", "optimizer": "a", "mean": 1.0},
        {"function": "F1", "optimizer": "b", "mean": 1.0},
        {"function": "F1", "optimizer": "c", "mean": 2.0},
        {"function": "F2", "optimizer": "a", "mean": 3.0},
        {"function": "F2", "optimizer": "b", "mean": 1.0},
        {"function": "F2", "optimizer": "c", "mean": 2.0},
    ]
    table = build_rank_table(rows)
    assert table.ranks["a"]["F1"] == table.ranks["b"]["F1"] == 1.5
    assert table.ranks["c"]["F1"] == 3.0
    for opt in ("a", "b", "c"):
        assert table.totals[opt] == pytest.approx(sum(table.ranks[opt].values()))
    # ranks per function sum to 1+2+3 even with ties
    assert sum(table.ranks[o]["F1"] for o in ("a", "b", "c")) == 6.0


# ---------------------------------------------------------------------------
# report files


def test_crossval_reports_written(tmp_path, tiny_result):
    out = write_crossval_reports(tiny_result, tmp_path / "cv")
    names = {p.name for p in out.iterdir()}
    assert names == {"folds.csv", "mean.csv", "history.csv", "model.json"}
    folds = (out / "folds.csv").read_text().splitlines()
    assert folds[0].startswith("fold,train_loss")
    assert len(folds) == 1 + len(tiny_result.folds)
    params, variant, meta = model.load_model(out / "model.json")
    assert variant == "full"
    assert meta["dataset_id"] == "iris"
    best = tiny_result.models[tiny_result.best_fold]
    assert np.array_equal(params.cofactor, best.cofactor)


def test_crossval_reports_json_format(tmp_path, tiny_result):
    out = write_crossval_reports(tiny_result, tmp_path / "cv", fmt="json")
    names = {p.name for p in out.iterdir()}
    assert names == {"folds.json", "mean.json", "history.json", "model.json"}


def test_report_determinism_modulo_wall_time(tmp_path, iris, tiny_result):
    again = run_crossval(tiny_config(), dataset=iris)
    out_a = write_crossval_reports(tiny_result, tmp_path / "a")
    out_b = write_crossval_reports(again, tmp_path / "b")

    def strip_time(path):
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        keep = [i for i, c in enumerate(header) if c != "wall_time"]
        return ["\x1f".join(line.split(",")[i] for i in keep) for line in lines]

    assert strip_time(out_a / "folds.csv") == strip_time(out_b / "folds.csv")
    assert strip_time(out_a / "mean.csv") == strip_time(out_b / "mean.csv")
    assert (out_a / "history.csv").read_bytes() == (out_b / "history.csv").read_bytes()
    assert (out_a / "model.json").read_bytes() == (out_b / "model.json").read_bytes()


def test_ablation_and_optbench_reports(tmp_path, iris):
    results = run_ablation(tiny_config(epochs=10), dataset=iris, variants=("full", "phase2-only"))
    out = write_ablation_reports(results, tmp_path / "ab")
    lines = (out / "ablation.csv").read_text().splitlines()
    assert lines[0].startswith("variant,loss")
    assert len(lines) == 3

    bench = run_optbench(
        function_ids=("F4",), optimizer_ids=("ifox",), runs=1, epochs=5, agents=3
    )
    out2 = write_optbench_reports(bench, tmp_path / "ob")
    assert (out2 / "stats.csv").exists()
    assert (out2 / "ranks.csv").exists()
    assert (out2 / "history_F4_ifox.csv").exists()


def test_json_reports_are_the_csv_tables_as_records(tmp_path, iris, tiny_result):
    ablation = run_ablation(tiny_config(epochs=3), dataset=iris, variants=("full", "phase1-only"))
    bench = run_optbench(function_ids=("F4", "F10"), optimizer_ids=("ifox", "fox"), runs=2, epochs=4, agents=3)
    writers = {
        "crossval": (write_crossval_reports, tiny_result),
        "ablation": (write_ablation_reports, ablation),
        "optbench": (write_optbench_reports, bench),
    }
    for name, (writer, result) in writers.items():
        csv_dir = writer(result, tmp_path / name / "csv")
        json_dir = writer(result, tmp_path / name / "json", fmt="json")
        assert {p.stem for p in csv_dir.iterdir()} == {p.stem for p in json_dir.iterdir()}
        for csv_path in csv_dir.glob("*.csv"):
            with csv_path.open(newline="") as fh:
                header, *rows = csv.reader(fh)
            records = json.loads((json_dir / f"{csv_path.stem}.json").read_text())
            assert isinstance(records, list) and len(records) == len(rows)
            for record, row in zip(records, rows):
                assert list(record) == header
                assert [str(v) for v in record.values()] == row


def test_mean_report_helper(tiny_result):
    mean = mean_report(tiny_result.folds)
    assert mean.accuracy == pytest.approx(
        np.mean([fr.val_accuracy for fr in tiny_result.folds]), abs=1e-12
    )
