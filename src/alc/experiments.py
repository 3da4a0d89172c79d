"""Experiment orchestration: cross-validation, ablation, optimizer benchmarks.

A run is fully determined by its :class:`ExperimentConfig`. Fold membership,
parameter initialization, and optimizer seeds all derive from the config seed
through named substreams, so repeating a run reproduces every number; folds
are independent of each other and may execute in parallel without changing
results. Cross-validation, the ablation and the lobule grid each run a list of
cells through :func:`_run_cells`: every cell checked, then one split and one
task list of ``(cell, fold)`` pairs in one process pool.

Per fold the pipeline is: fit preprocessing on the training rows only,
transform both sides, train the classifier by minimizing training log loss
with the improved fox search, then score both sides. Preprocessing fit
functions take role-tagged views and refuse validation rows outright.
"""

from __future__ import annotations

import csv
import json
import os
import time
import warnings
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import cec2019, data, metrics, model
from .errors import ConfigError, ParameterError
from .numkit import RngStream
from .optimizers import OPTIMIZERS, OptimizerConfig, multi_run

DEFAULT_EPOCHS = 500
DEFAULT_AGENTS = 10
DEFAULT_FOLDS = 10
DEFAULT_SEED = 42

DEFAULT_LOBULES = {
    "iris": 10,
    "breast_cancer": 10,
    "wine": 15,
    "voice_gender": 15,
    "mnist": 50,
}

DEFAULT_LDA_DIMS = {"mnist": 9}
DEFAULT_SUBSAMPLE = {"mnist": 2000}

# Substream tags for deriving independent generators from the config seed.
_FOLD_STREAM = 1
_SPLIT_STREAM = 2
_INIT_STREAM = 3
_SUBSAMPLE_STREAM = 4


@dataclass(frozen=True)
class ExperimentConfig:
    dataset_id: str
    lobules: int
    epochs: int = DEFAULT_EPOCHS
    agents: int = DEFAULT_AGENTS
    k_folds: int = DEFAULT_FOLDS
    seed: int = DEFAULT_SEED
    variant: str = "full"
    standardize: bool = True
    lda_dims: int | None = None
    subsample: int | None = None

    def __post_init__(self):
        if self.lobules < 1:
            raise ConfigError(f"lobules must be >= 1, got {self.lobules}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.agents < 2:
            raise ConfigError(f"agents must be >= 2, got {self.agents}")
        if self.k_folds < 2:
            raise ConfigError(f"k_folds must be >= 2, got {self.k_folds}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.variant not in model.VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}")
        if self.lda_dims is not None and self.lda_dims < 1:
            raise ConfigError(f"lda_dims must be >= 1, got {self.lda_dims}")
        if self.subsample is not None and self.subsample < self.k_folds:
            raise ConfigError(
                f"subsample {self.subsample} smaller than k_folds {self.k_folds}"
            )


def default_config(dataset_id, **overrides):
    """Config with the per-dataset defaults: 500 epochs, 10 agents, 10 folds."""
    if dataset_id not in DEFAULT_LOBULES:
        raise ConfigError(f"no defaults for dataset {dataset_id!r}")
    base = dict(
        dataset_id=dataset_id,
        lobules=DEFAULT_LOBULES[dataset_id],
        lda_dims=DEFAULT_LDA_DIMS.get(dataset_id),
        subsample=DEFAULT_SUBSAMPLE.get(dataset_id),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@dataclass
class FoldReport:
    """Metrics for one fold, training side and validation side."""

    fold: int
    train_loss: float
    train_accuracy: float
    train_precision: float
    train_recall: float
    train_f1: float
    val_loss: float
    val_accuracy: float
    val_precision: float
    val_recall: float
    val_f1: float
    overfitting_gap: float
    wall_time: float

    def csv_row(self):
        return [getattr(self, c) for c in self.COLUMNS]


FoldReport.COLUMNS = tuple(f.name for f in fields(FoldReport))  # the folds table header


@dataclass
class CrossvalResult:
    config: ExperimentConfig
    folds: list
    mean: metrics.MetricReport
    histories: list = field(default_factory=list)  # per fold: best-f per epoch
    models: list = field(default_factory=list)  # per fold: trained AlcParams

    @property
    def best_fold(self):
        accs = [fr.val_accuracy for fr in self.folds]
        return int(np.argmax(accs))


@dataclass
class FittedPreprocess:
    means: np.ndarray | None = None
    stds: np.ndarray | None = None
    lda: data.LdaModel | None = None


def fit_preprocessing(cfg, train_view):
    fitted = FittedPreprocess()
    x = train_view.x
    if cfg.standardize:
        data.require_train(train_view, "standardization")
        fitted.means, fitted.stds = data.standardize_fit(x)
        x = data.standardize_apply(x, fitted.means, fitted.stds)
    if cfg.lda_dims is not None:
        data.require_train(train_view, "discriminant projection")
        fitted.lda = data.lda_fit(x, train_view.y, cfg.lda_dims)
    return fitted


def apply_preprocessing(x, fitted):
    if fitted.means is not None:
        x = data.standardize_apply(x, fitted.means, fitted.stds)
    if fitted.lda is not None:
        x = data.lda_transform(x, fitted.lda)
    return x


def _fold_seed(seed, fold):
    seq = np.random.SeedSequence([int(seed), _FOLD_STREAM, int(fold)])
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def build_variant_model(cfg, n_features, n_classes, init_stream):
    """Base parameters plus variant bookkeeping for one training cell."""
    base = model.init_params(n_features, cfg.lobules, n_classes, init_stream)
    return model.make_variant(base, cfg.variant, init_stream)


def run_fold(cfg, x, y, n_classes, assignments, fold):
    """Train and score one fold; pure function of its arguments."""
    started = time.perf_counter()
    train_mask = assignments != fold
    train_view = data.SplitView(x[train_mask], y[train_mask], "train")
    val_view = data.SplitView(x[~train_mask], y[~train_mask], "validation")

    fitted = fit_preprocessing(cfg, train_view)
    x_train = apply_preprocessing(train_view.x, fitted)
    x_val = apply_preprocessing(val_view.x, fitted)

    init_stream = RngStream(cfg.seed).child(_INIT_STREAM, fold)
    variant_model = build_variant_model(cfg, x_train.shape[1], n_classes, init_stream)
    y_train_onehot = data.one_hot(train_view.y, n_classes)

    opt_cfg = OptimizerConfig(
        epochs=cfg.epochs,
        agents=cfg.agents,
        dim=model.trainable_size(variant_model),
        lower=-1.0,
        upper=1.0,
        seed=_fold_seed(cfg.seed, fold),
    )
    training_objective = model.TrainingObjective(x_train, y_train_onehot, variant_model)
    run = OPTIMIZERS["ifox"](training_objective, opt_cfg)
    trained = model.embed_trainable(run.best_x, variant_model)
    wall_time = time.perf_counter() - started

    train = _score(train_view.y, model.forward(x_train, trained, cfg.variant), n_classes)
    val = _score(val_view.y, model.forward(x_val, trained, cfg.variant), n_classes)
    gap = metrics.overfitting_gap(train[1], val[1])  # train minus validation accuracy
    report = FoldReport(fold, *train, *val, gap, wall_time)
    return report, run.history, trained


def _score(y, probs, n_classes):
    """``(loss, accuracy, precision, recall, f1)`` of class probabilities against labels."""
    counts = metrics.confusion_counts(y, probs.argmax(axis=1), n_classes)
    return (
        metrics.log_loss(data.one_hot(y, n_classes), probs),
        metrics.accuracy(counts),
        metrics.precision_macro(counts),
        metrics.recall_macro(counts),
        metrics.f1_macro(counts),
    )


def _fold_worker(args):
    # run_fold is looked up at call time, so a rebound experiments.run_fold
    # also runs on the serial path.
    return run_fold(*args)


def _map_tasks(worker, tasks, jobs):
    """``[worker(t) for t in tasks]``, spread over at most ``jobs`` processes.

    The pool never has more workers than tasks or CPUs, because a forking
    pool starts every worker at its first submit; one worker runs serially.
    """
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        return [worker(t) for t in tasks]
    # imported here: multiprocessing costs every serial run about a megabyte
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, tasks))


def mean_report(fold_reports):
    """Validation-side mean row; every value is the arithmetic fold mean.

    A metric with both sides in the folds table takes its ``val_`` column.
    """
    means = {}
    for column in metrics.MetricReport.COLUMNS:
        source = f"val_{column}" if f"val_{column}" in FoldReport.COLUMNS else column
        means[column] = float(np.mean([getattr(fr, source) for fr in fold_reports]))
    return metrics.MetricReport(**means)


def prepare_arrays(cfg, dataset):
    """Dataset arrays after the optional stratified subsample."""
    x, y = dataset.x, dataset.y
    if cfg.subsample is not None and cfg.subsample < y.size:
        picks = data.stratified_subsample(
            y, cfg.subsample, RngStream(cfg.seed).child(_SUBSAMPLE_STREAM)
        )
        x, y = x[picks], y[picks]
    return x, y


def _distinct(noun, items):
    """``items`` as a tuple; no items, or an item given twice, is a :class:`ParameterError`."""
    items = tuple(items)
    if not items:
        raise ParameterError(f"no {noun}s given")
    repeated = [item for i, item in enumerate(items) if item in items[:i]]
    if repeated:
        raise ParameterError(f"{noun} {repeated[0]!r} is given more than once")
    return items


def _run_cells(configs, dataset=None, jobs=1):
    """Cross-validate each config; one :class:`CrossvalResult` per config, in order.

    Every cell's lobule count is checked before the first fold runs. The
    cells of a sweep differ only in ``lobules`` and ``variant``, which neither
    the subsample nor the fold plan reads, so the first config's split serves
    every cell, and all ``(cell, fold)`` tasks share one task list and one pool.
    """
    first = configs[0]
    if dataset is None:
        dataset = data.load_dataset(first.dataset_id)
    for cell in configs:
        model.check_lobules(cell.lobules, dataset.n_classes, cell.variant)
    x, y = prepare_arrays(first, dataset)
    plan = data.stratified_kfold(y, first.k_folds, RngStream(first.seed).child(_SPLIT_STREAM))

    k = first.k_folds
    tasks = [(cell, x, y, dataset.n_classes, plan.assignments, fold) for cell in configs for fold in range(k)]
    outcomes = _map_tasks(_fold_worker, tasks, jobs)

    results = []
    for i, cell in enumerate(configs):
        reports, histories, models = map(list, zip(*outcomes[i * k : (i + 1) * k]))
        results.append(CrossvalResult(cell, reports, mean_report(reports), histories, models))
    return results


def run_crossval(cfg, dataset=None, jobs=1):
    """K-fold cross-validation of the classifier under ``cfg``."""
    return _run_cells([cfg], dataset, jobs)[0]


def run_ablation(cfg, dataset=None, variants=model.VARIANTS, jobs=1):
    """Cross-validate each requested variant with identical seeds and folds.

    ``identity-vitamin`` only exists for lobules == classes, so that row runs
    at ``lobules = n_classes``; its result's ``config`` records the count used.
    """
    variants = _distinct("variant", variants)
    if dataset is None:
        dataset = data.load_dataset(cfg.dataset_id)
    configs = [
        replace(cfg, variant=tag, lobules=dataset.n_classes if tag == "identity-vitamin" else cfg.lobules)
        for tag in variants
    ]
    return dict(zip(variants, _run_cells(configs, dataset, jobs)))


def lobule_grid_search(cfg, grid, dataset=None, jobs=1):
    """Cross-validate over a lobule grid; best is highest mean accuracy, then fewest lobules."""
    widths = _distinct("lobule count", (int(p) for p in grid))
    results = _run_cells([replace(cfg, lobules=p) for p in widths], dataset, jobs)
    rows = [(result.config.lobules, result.mean.accuracy, result) for result in results]
    best = max(rows, key=lambda r: (r[1], -r[0]))
    return best[2], rows


# ---------------------------------------------------------------------------
# optimizer benchmark


@dataclass
class RankTable:
    """Per-function ranks (average on ties), totals, and averages."""

    optimizers: list
    function_ids: list
    ranks: dict  # optimizer -> {fid: rank}
    totals: dict
    averages: dict


def build_rank_table(stats_rows):
    by_function = {}
    for row in stats_rows:
        by_function.setdefault(row["function"], []).append((row["optimizer"], row["mean"]))
    function_ids = list(by_function)
    optimizers = sorted({row["optimizer"] for row in stats_rows})
    ranks = {opt: {} for opt in optimizers}
    for fid, entries in by_function.items():
        position = metrics.average_ranks(np.array([m for _, m in entries]))
        for idx, (opt, _) in enumerate(entries):
            ranks[opt][fid] = float(position[idx])
    totals = {opt: float(sum(ranks[opt].values())) for opt in optimizers}
    averages = {opt: totals[opt] / len(function_ids) for opt in optimizers}
    return RankTable(optimizers, function_ids, ranks, totals, averages)


@dataclass
class OptbenchResult:
    stats: list
    ranks: RankTable
    histories: dict  # (function, optimizer) -> list of per-run history arrays


def _optbench_cell(args):
    fid, optimizer_id, runs, epochs, agents, seed, transform = args
    info = cec2019.suite_info(fid)
    objective = cec2019.SuiteObjective(fid, transform)
    cfg = OptimizerConfig(
        epochs=epochs, agents=agents, dim=info.dim, lower=info.lower, upper=info.upper, seed=seed
    )
    stats = multi_run(optimizer_id, objective, cfg, runs)
    in_bounds = all(
        bool(np.all((r.best_x >= info.lower) & (r.best_x <= info.upper))) for r in stats.runs
    )
    row = {
        "function": fid,
        "optimizer": optimizer_id,
        "mean": stats.mean,
        "std": stats.std,
        "min": stats.min,
        "best_in_bounds": in_bounds,
    }
    return row, [r.history for r in stats.runs]


def optbench_ids(function_ids, optimizer_ids):
    """Both id lists as tuples, once each is non-empty, known and free of repeats.

    An empty list would run nothing and write empty reports, and a repeated id
    would run its cells twice and rank them as one function of extra entries.
    """
    function_ids, optimizer_ids = tuple(function_ids), tuple(optimizer_ids)
    for fid in function_ids:
        cec2019.suite_info(fid)
    for opt in optimizer_ids:
        if opt not in OPTIMIZERS:
            raise ParameterError(f"unknown optimizer {opt!r}")
    return _distinct("function id", function_ids), _distinct("optimizer id", optimizer_ids)


def run_optbench(
    function_ids=cec2019.FUNCTION_IDS,
    optimizer_ids=("ifox", "fox"),
    runs=30,
    epochs=DEFAULT_EPOCHS,
    agents=DEFAULT_AGENTS,
    seed=1,
    jobs=1,
    transforms=None,
):
    """Benchmark optimizers over the suite; same derived seeds per cell."""
    function_ids, optimizer_ids = optbench_ids(function_ids, optimizer_ids)
    transforms = transforms or {}
    tasks = [
        (fid, opt, runs, epochs, agents, seed, transforms.get(fid))
        for fid in function_ids
        for opt in optimizer_ids
    ]
    outcomes = _map_tasks(_optbench_cell, tasks, jobs)
    stats_rows = [o[0] for o in outcomes]
    histories = {(t[0], t[1]): o[1] for t, o in zip(tasks, outcomes)}
    for row in stats_rows:
        if not row["best_in_bounds"]:
            warnings.warn(
                f"{row['optimizer']} best position left the init box on {row['function']}"
            )
    return OptbenchResult(stats=stats_rows, ranks=build_rank_table(stats_rows), histories=histories)


# ---------------------------------------------------------------------------
# report emission


def _write_tables(out_dir, tables, fmt):
    """Write each ``(stem, header, rows)`` table to ``out_dir`` as ``<stem>.<fmt>``.

    ``csv`` writes the header line and then the rows; ``json`` writes the same
    table as a list with one ``{column: value}`` record per row.
    """
    if fmt not in ("csv", "json"):
        raise ConfigError(f"unknown report format {fmt!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for stem, header, rows in tables:
        with data.atomic_path(out / f"{stem}.{fmt}") as part, part.open("w", newline="") as fh:
            if fmt == "csv":
                writer = csv.writer(fh)
                writer.writerow(header)
                writer.writerows(rows)
            else:
                json.dump([dict(zip(header, row)) for row in rows], fh, indent=2)
                fh.write("\n")
    return out


def _history_table(stem, histories):
    """Per-epoch incumbent fitness of each run, as a ``(run_id, epoch, best_f)`` table.

    The rows are a generator, so a benchmark with many cells holds one cell's
    rows at a time while its reports are written.
    """
    rows = (
        (run_id, epoch, value)
        for run_id, history in enumerate(histories)
        for epoch, value in enumerate(history.tolist())
    )
    return stem, ("run_id", "epoch", "best_f"), rows


def write_crossval_reports(result, out_dir, fmt="csv"):
    """Emit folds, mean, per-epoch history, and the best fold's model."""
    tables = [
        ("folds", FoldReport.COLUMNS, [fr.csv_row() for fr in result.folds]),
        ("mean", metrics.MetricReport.COLUMNS, [result.mean.csv_row()]),
        _history_table("history", result.histories),
    ]
    out = _write_tables(out_dir, tables, fmt)
    cfg = result.config
    # save_model stores only seed, epochs, agents and dataset_id from the config.
    model.save_model(result.models[result.best_fold], vars(cfg), out / "model.json", variant=cfg.variant)
    return out


def write_ablation_reports(results, out_dir, fmt="csv"):
    """One mean row per variant, ending with the lobule count that variant ran at."""
    header = ("variant", *metrics.MetricReport.COLUMNS, "lobules")
    rows = [(tag, *res.mean.csv_row(), res.config.lobules) for tag, res in results.items()]
    return _write_tables(out_dir, [("ablation", header, rows)], fmt)


def write_optbench_reports(result, out_dir, fmt="csv"):
    stats_header = ("function", "optimizer", "mean", "std", "min", "best_in_bounds")
    ranks = result.ranks
    rank_rows = [
        [opt, *(ranks.ranks[opt][fid] for fid in ranks.function_ids),
         ranks.totals[opt], ranks.averages[opt]]
        for opt in ranks.optimizers
    ]
    tables = [
        ("stats", stats_header, [[row[c] for c in stats_header] for row in result.stats]),
        ("ranks", ("optimizer", *ranks.function_ids, "total_rank", "average_rank"), rank_rows),
    ]
    tables += [
        _history_table(f"history_{fid}_{opt}", histories)
        for (fid, opt), histories in result.histories.items()
    ]
    return _write_tables(out_dir, tables, fmt)
