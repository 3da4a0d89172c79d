"""Experiment orchestration: cross-validation, ablation, optimizer benchmarks.

A run is fully determined by its :class:`ExperimentConfig`. Fold membership,
parameter initialization, and optimizer seeds all derive from the config seed
through named substreams, so repeating a run reproduces every number; folds
are independent of each other and may execute in parallel without changing
results.

Per fold the pipeline is: fit preprocessing on the training rows only,
transform both sides, train the classifier by minimizing training log loss
with the improved fox search, then score both sides. Preprocessing fit
functions take role-tagged views and refuse validation rows outright.
"""

from __future__ import annotations

import csv
import json
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import cec2019, data, metrics, model
from .errors import ConfigError, ParameterError, VariantError
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

DEFAULT_LOBULE_GRIDS = {
    "iris": (5, 10, 15, 20),
    "breast_cancer": (5, 10, 15, 20),
    "wine": (5, 10, 15, 20, 25),
    "voice_gender": (10, 15, 20, 25),
    "mnist": (25, 50, 75),
}

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

    def validate(self):
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
        return self


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
    return ExperimentConfig(**base).validate()


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

    COLUMNS = (
        "fold",
        "train_loss",
        "train_accuracy",
        "train_precision",
        "train_recall",
        "train_f1",
        "val_loss",
        "val_accuracy",
        "val_precision",
        "val_recall",
        "val_f1",
        "overfitting_gap",
        "wall_time",
    )

    def csv_row(self):
        return [getattr(self, c) for c in self.COLUMNS]


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
    base = model.AlcParams(
        n_features=n_features,
        n_lobules=cfg.lobules,
        n_outputs=n_classes,
        cofactor=init_stream.uniform(-1.0, 1.0, (n_features, cfg.lobules)),
        vitamin=init_stream.uniform(-1.0, 1.0, (cfg.lobules, n_classes)),
    )
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
    training_objective = partial(
        model.objective, x=x_train, y_onehot=y_train_onehot, variant_model=variant_model
    )
    run = OPTIMIZERS["ifox"](training_objective, opt_cfg)
    trained = model.embed_trainable(run.best_x, variant_model)
    wall_time = time.perf_counter() - started

    probs_train = model.forward(x_train, trained, cfg.variant)
    probs_val = model.forward(x_val, trained, cfg.variant)
    pred_train = probs_train.argmax(axis=1)
    pred_val = probs_val.argmax(axis=1)

    counts_train = metrics.confusion_counts(train_view.y, pred_train, n_classes)
    counts_val = metrics.confusion_counts(val_view.y, pred_val, n_classes)
    train_acc = metrics.accuracy(counts_train)
    val_acc = metrics.accuracy(counts_val)
    y_val_onehot = data.one_hot(val_view.y, n_classes)

    report = FoldReport(
        fold=fold,
        train_loss=metrics.log_loss(y_train_onehot, probs_train),
        train_accuracy=train_acc,
        train_precision=metrics.precision_macro(counts_train),
        train_recall=metrics.recall_macro(counts_train),
        train_f1=metrics.f1_macro(counts_train),
        val_loss=metrics.log_loss(y_val_onehot, probs_val),
        val_accuracy=val_acc,
        val_precision=metrics.precision_macro(counts_val),
        val_recall=metrics.recall_macro(counts_val),
        val_f1=metrics.f1_macro(counts_val),
        overfitting_gap=metrics.overfitting_gap(train_acc, val_acc),
        wall_time=wall_time,
    )
    return report, run.history, trained


def _fold_worker(args):
    return run_fold(*args)


def mean_report(fold_reports):
    """Validation-side mean row; every value is the arithmetic fold mean."""
    return metrics.MetricReport(
        loss=float(np.mean([fr.val_loss for fr in fold_reports])),
        accuracy=float(np.mean([fr.val_accuracy for fr in fold_reports])),
        precision=float(np.mean([fr.val_precision for fr in fold_reports])),
        recall=float(np.mean([fr.val_recall for fr in fold_reports])),
        f1=float(np.mean([fr.val_f1 for fr in fold_reports])),
        overfitting_gap=float(np.mean([fr.overfitting_gap for fr in fold_reports])),
        wall_time=float(np.mean([fr.wall_time for fr in fold_reports])),
    )


def prepare_arrays(cfg, dataset):
    """Dataset arrays after the optional stratified subsample."""
    x, y = dataset.x, dataset.y
    if cfg.subsample is not None and cfg.subsample < y.size:
        picks = data.stratified_subsample(
            y, cfg.subsample, RngStream(cfg.seed).child(_SUBSAMPLE_STREAM)
        )
        x, y = x[picks], y[picks]
    return x, y


def run_crossval(cfg, dataset=None, jobs=1):
    """K-fold cross-validation of the classifier under ``cfg``."""
    cfg.validate()
    if dataset is None:
        dataset = data.load_dataset(cfg.dataset_id)
    x, y = prepare_arrays(cfg, dataset)
    plan = data.stratified_kfold(y, cfg.k_folds, RngStream(cfg.seed).child(_SPLIT_STREAM))

    tasks = [(cfg, x, y, dataset.n_classes, plan.assignments, fold) for fold in range(cfg.k_folds)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_fold_worker, tasks))
    else:
        outcomes = [run_fold(*t) for t in tasks]

    fold_reports = [o[0] for o in outcomes]
    histories = [o[1] for o in outcomes]
    models = [o[2] for o in outcomes]
    return CrossvalResult(
        config=cfg,
        folds=fold_reports,
        mean=mean_report(fold_reports),
        histories=histories,
        models=models,
    )


def run_ablation(cfg, dataset=None, variants=model.VARIANTS, jobs=1):
    """Cross-validate each requested variant with identical seeds and folds.

    ``identity-vitamin`` only exists for lobules == classes and raises
    :class:`VariantError` otherwise; the CLI substitutes a coerced lobule
    count for that row instead.
    """
    cfg.validate()
    if dataset is None:
        dataset = data.load_dataset(cfg.dataset_id)
    results = {}
    for tag in variants:
        if tag == "identity-vitamin" and cfg.lobules != dataset.n_classes:
            raise VariantError(
                f"identity-vitamin requires lobules == classes "
                f"({cfg.lobules} != {dataset.n_classes})"
            )
        results[tag] = run_crossval(replace(cfg, variant=tag), dataset=dataset, jobs=jobs)
    return results


def lobule_grid_search(cfg, grid=None, dataset=None, jobs=1):
    """Cross-validate over a lobule grid; best is highest mean accuracy."""
    if grid is None:
        grid = DEFAULT_LOBULE_GRIDS.get(cfg.dataset_id)
        if grid is None:
            raise ConfigError(f"no default lobule grid for {cfg.dataset_id!r}")
    if dataset is None:
        dataset = data.load_dataset(cfg.dataset_id)
    rows = []
    for p in grid:
        result = run_crossval(replace(cfg, lobules=int(p)), dataset=dataset, jobs=jobs)
        rows.append((int(p), result.mean.accuracy, result))
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
    return RankTable(
        optimizers=optimizers,
        function_ids=function_ids,
        ranks=ranks,
        totals=totals,
        averages=averages,
    )


@dataclass
class OptbenchResult:
    stats: list
    ranks: RankTable
    histories: dict  # (function, optimizer) -> list of per-run history arrays


def _optbench_cell(args):
    fid, optimizer_id, runs, epochs, agents, seed, transform = args
    info = cec2019.suite_info(fid)
    objective = cec2019.make_objective(fid, transform)
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
    for opt in optimizer_ids:
        if opt not in OPTIMIZERS:
            raise ParameterError(f"unknown optimizer {opt!r}")
    transforms = transforms or {}
    tasks = [
        (fid, opt, runs, epochs, agents, seed, transforms.get(fid))
        for fid in function_ids
        for opt in optimizer_ids
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_optbench_cell, tasks))
    else:
        outcomes = [_optbench_cell(t) for t in tasks]
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


def _write_csv(path, header, rows):
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path, payload):
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def write_crossval_reports(result, out_dir, fmt="csv"):
    """Emit folds, mean, per-epoch history, and the best fold's model."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    fold_rows = [fr.csv_row() for fr in result.folds]
    mean_row = result.mean.csv_row()
    if fmt == "csv":
        _write_csv(out / "folds.csv", FoldReport.COLUMNS, fold_rows)
        _write_csv(out / "mean.csv", metrics.MetricReport.COLUMNS, [mean_row])
        history_rows = [
            (fold, epoch, value)
            for fold, history in enumerate(result.histories)
            for epoch, value in enumerate(history)
        ]
        _write_csv(out / "history.csv", ("run_id", "epoch", "best_f"), history_rows)
    elif fmt == "json":
        _write_json(
            out / "folds.json",
            [dict(zip(FoldReport.COLUMNS, row)) for row in fold_rows],
        )
        _write_json(out / "mean.json", dict(zip(metrics.MetricReport.COLUMNS, mean_row)))
        _write_json(
            out / "history.json",
            {str(fold): list(map(float, h)) for fold, h in enumerate(result.histories)},
        )
    else:
        raise ConfigError(f"unknown report format {fmt!r}")

    cfg = result.config
    model.save_model(
        result.models[result.best_fold],
        {
            "seed": cfg.seed,
            "epochs": cfg.epochs,
            "agents": cfg.agents,
            "dataset_id": cfg.dataset_id,
        },
        out / "model.json",
        variant=cfg.variant,
    )
    return out


def write_ablation_reports(results, out_dir, fmt="csv"):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    header = ("variant",) + metrics.MetricReport.COLUMNS
    rows = [(tag,) + tuple(res.mean.csv_row()) for tag, res in results.items()]
    if fmt == "csv":
        _write_csv(out / "ablation.csv", header, rows)
    elif fmt == "json":
        _write_json(out / "ablation.json", [dict(zip(header, row)) for row in rows])
    else:
        raise ConfigError(f"unknown report format {fmt!r}")
    return out


def write_optbench_reports(result, out_dir, fmt="csv"):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stats_header = ("function", "optimizer", "mean", "std", "min", "best_in_bounds")
    stats_rows = [[row[c] for c in stats_header] for row in result.stats]
    ranks = result.ranks
    rank_header = ("optimizer", *ranks.function_ids, "total_rank", "average_rank")
    rank_rows = [
        [opt, *(ranks.ranks[opt][fid] for fid in ranks.function_ids),
         ranks.totals[opt], ranks.averages[opt]]
        for opt in ranks.optimizers
    ]
    if fmt == "csv":
        _write_csv(out / "stats.csv", stats_header, stats_rows)
        _write_csv(out / "ranks.csv", rank_header, rank_rows)
        for (fid, opt), histories in result.histories.items():
            rows = [
                (run_id, epoch, value)
                for run_id, history in enumerate(histories)
                for epoch, value in enumerate(history)
            ]
            _write_csv(out / f"history_{fid}_{opt}.csv", ("run_id", "epoch", "best_f"), rows)
    elif fmt == "json":
        _write_json(out / "stats.json", [dict(zip(stats_header, r)) for r in stats_rows])
        _write_json(out / "ranks.json", [dict(zip(rank_header, r)) for r in rank_rows])
        _write_json(
            out / "history.json",
            {
                f"{fid}_{opt}": [list(map(float, h)) for h in histories]
                for (fid, opt), histories in result.histories.items()
            },
        )
    else:
        raise ConfigError(f"unknown report format {fmt!r}")
    return out
