"""The benchmark's workloads. Each is a closed loop with one client.

A workload is set up once per run from the seed, then repeats identical
passes; each pass is a fixed set of tasks (folds, optimizer runs or
requests), timed by ``layers.Capture`` at the workload's
``task_boundary``. ``check`` returns one
entry per task, None when the task's output passed every check, and
``digest`` hashes the deterministic outputs so that passes, traced and
untraced runs, and two versions of the program can be compared bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

import checks


class Crossval:
    """``run_crossval(default_config(dataset, seed))`` plus its report files."""

    setup_repeats = 9
    task_boundary = "fold"

    def __init__(self, dataset_id):
        self.dataset_id = dataset_id
        self.name = f"cv-{dataset_id}"

    def setup(self, alc, seed, workdir):
        self.alc = alc
        ex, data = alc.experiments, alc.data
        self.cfg = ex.default_config(self.dataset_id, seed=seed)
        self.x, self.y = ex.prepare_arrays(self.cfg, data.load_dataset(self.dataset_id))
        # The same split stream run_crossval draws its fold plan from.
        split = alc.numkit.RngStream(seed).child(ex._SPLIT_STREAM)
        self.plan = data.stratified_kfold(self.y, self.cfg.k_folds, split).assignments
        self.majority = np.bincount(self.y).max() / self.y.size
        self.out_dir = workdir / "reports"

    def inputs_bytes(self):
        return self.plan.tobytes()

    @property
    def tasks_per_pass(self):
        return self.cfg.k_folds

    def run_pass(self, capture):
        ex = self.alc.experiments
        result = ex.run_crossval(self.cfg)
        ex.write_crossval_reports(result, self.out_dir)
        return result

    def counts(self, result, capture):
        """(objective evaluations, rows those evaluations pushed through forward)."""
        evals = sum(run.evals for run in capture.runs)
        rows = sum(run.evals * int((self.plan != k).sum()) for k, run in enumerate(capture.runs))
        return evals, rows

    def check(self, result, capture):
        ex, data, model, cfg = self.alc.experiments, self.alc.data, self.alc.model, self.cfg
        if len(result.folds) != cfg.k_folds or len(capture.runs) != cfg.k_folds:
            return [f"{len(result.folds)} folds and {len(capture.runs)} optimizer runs"] * cfg.k_folds
        problems = []
        for k, fold in enumerate(result.folds):
            val = self.plan == k
            fitted = ex.fit_preprocessing(cfg, data.SplitView(self.x[~val], self.y[~val], "train"))
            probs = model.forward(ex.apply_preprocessing(self.x[val], fitted), result.models[k], cfg.variant)
            problems.append(checks.first_problem(
                checks.history_problem(result.histories[k]),
                checks.evals_problem(capture.runs[k].evals, cfg.epochs, cfg.agents),
                checks.row_sum_problem(probs),
                checks.accuracy_problem(probs.argmax(axis=1), self.y[val], fold.val_accuracy),
                checks.majority_problem(fold.val_accuracy, self.majority),
            ))
        return problems

    def digest(self, result):
        h = hashlib.sha256()
        for row in [*result.folds, result.mean]:
            h.update(repr([getattr(row, c) for c in row.COLUMNS if c != "wall_time"]).encode())
        for history in result.histories:
            h.update(np.asarray(history, dtype=np.float64).tobytes())
        for params in result.models:
            h.update(params.cofactor.tobytes() + params.vitamin.tobytes())
        return h.hexdigest()

    def quality(self, result):
        return result.mean.accuracy

    def extras(self, result):
        return {"val_accuracy": (result.mean.accuracy, "share"), "val_loss": (result.mean.loss, "nats")}


class Optbench:
    """``run_optbench`` with IFOX and FOX over F1-F10 plus its report files.

    One run per cell at the default 500 epochs and 10 agents keeps a pass
    near four seconds while every cell still anneals over the full schedule.
    """

    name = "optbench-suite"
    setup_repeats = 9
    task_boundary = "run"
    OPTIMIZERS = ("ifox", "fox")
    RUNS = 1
    EPOCHS = 500
    AGENTS = 10

    def setup(self, alc, seed, workdir):
        self.alc = alc
        self.seed = seed
        self.functions = alc.cec2019.FUNCTION_IDS
        self.out_dir = workdir / "optbench"

    def inputs_bytes(self):
        plan = [list(self.functions), self.OPTIMIZERS, self.RUNS, self.EPOCHS, self.AGENTS, self.seed]
        return json.dumps(plan).encode()

    @property
    def tasks_per_pass(self):
        return len(self.functions) * len(self.OPTIMIZERS) * self.RUNS

    def run_pass(self, capture):
        ex = self.alc.experiments
        result = ex.run_optbench(
            function_ids=self.functions,
            optimizer_ids=self.OPTIMIZERS,
            runs=self.RUNS,
            epochs=self.EPOCHS,
            agents=self.AGENTS,
            seed=self.seed,
        )
        ex.write_optbench_reports(result, self.out_dir)
        return result

    def counts(self, result, capture):
        """(suite evaluations, points evaluated); each evaluation takes one point."""
        evals = sum(run.evals for run in capture.runs)
        return evals, evals

    def check(self, result, capture):
        if len(capture.runs) != self.tasks_per_pass or len(result.stats) * self.RUNS != self.tasks_per_pass:
            return [f"{len(capture.runs)} optimizer runs"] * self.tasks_per_pass
        problems = []
        for run in capture.runs:
            problems.append(checks.first_problem(
                checks.history_problem(run.history),
                checks.evals_problem(run.evals, self.EPOCHS, self.AGENTS),
                checks.best_problem(run.best_f, run.history),
            ))
        for j, row in enumerate(result.stats):
            cell = range(j * self.RUNS, (j + 1) * self.RUNS)
            mean = float(np.array([capture.runs[i].best_f for i in cell]).mean())
            if row["mean"] != mean:
                for i in cell:
                    problems[i] = problems[i] or f"{row['function']} {row['optimizer']} mean {row['mean']!r} != {mean!r}"
        return problems

    def digest(self, result):
        h = hashlib.sha256()
        for row in result.stats:
            h.update(repr(sorted(row.items())).encode())
        for key in sorted(result.histories):
            for history in result.histories[key]:
                h.update(np.asarray(history, dtype=np.float64).tobytes())
        return h.hexdigest()

    def quality(self, result):
        """Mean over (function, optimizer) cells of f_min / mean best value; 1.0 is optimal."""
        return float(np.mean([1.0 / row["mean"] for row in result.stats]))

    def extras(self, result):
        log_mean = float(np.mean([math.log10(row["mean"]) for row in result.stats]))
        return {"best_f_log10_mean": (log_mean, "log10")}


@dataclass
class Request:
    path: object
    x: np.ndarray
    source: np.ndarray  # class of the real row each synthetic row was drawn around
    expected: np.ndarray  # forward(x).argmax(axis=1), computed by the benchmark
    problem: object  # row-sum check of forward(x), or None


@dataclass
class Served:
    index: int
    params: object
    x: np.ndarray
    labels: np.ndarray


class PredictBulk:
    """The ``alc predict`` path as a closed loop of requests.

    Each request is ``load_model``, ``load_csv`` of a request file, then
    ``predict``. The request sizes are a fixed geometric ladder over two
    decades, so every seed sees the same mix of sizes; the seed draws the
    rows, their noise and the request order.
    """

    name = "predict-bulk"
    setup_repeats = 3
    task_boundary = None
    SIZES = tuple(round(150 * 10 ** (i / 3)) for i in range(7))  # 150 .. 15000 rows
    TRAIN_EPOCHS = 300
    NOISE = 0.25  # standard deviations, in standardized feature units
    DECIMALS = 6

    def setup(self, alc, seed, workdir):
        self.alc = alc
        data, ex, model = alc.data, alc.experiments, alc.model
        ds = data.load_dataset("breast_cancer")
        x, _, _ = data.standardize(ds.x)
        # The model is trained on standardized rows, and requests arrive standardized.
        cfg = ex.default_config("breast_cancer", seed=seed, epochs=self.TRAIN_EPOCHS, standardize=False)
        plan = data.stratified_kfold(ds.y, cfg.k_folds, alc.numkit.RngStream(seed))
        _, _, self.params = ex.run_fold(cfg, x, ds.y, ds.n_classes, plan.assignments, 0)
        request_dir = workdir / "requests"
        request_dir.mkdir(parents=True, exist_ok=True)
        self.model_path = workdir / "model.json"
        meta = {"seed": seed, "epochs": cfg.epochs, "agents": cfg.agents, "dataset_id": ds.id}
        model.save_model(self.params, meta, self.model_path)

        rng = np.random.default_rng([seed, 20250114])
        self.requests = []
        for i, size in enumerate(self.SIZES):
            rows = rng.integers(0, ds.n_samples, size)
            noisy = x[rows] + rng.normal(0.0, self.NOISE, (size, ds.n_features))
            xs = np.round(noisy, self.DECIMALS)
            path = request_dir / f"request_{i}.csv"
            write_request(path, ds.feature_names, xs, [ds.label_names[c] for c in ds.y[rows]])
            probs = model.forward(xs, self.params)
            self.requests.append(Request(path, xs, ds.y[rows], probs.argmax(axis=1), checks.row_sum_problem(probs)))
        self.order = rng.permutation(len(self.SIZES))
        self.loss = float(np.mean([
            alc.metrics.log_loss(data.one_hot(r.source, ds.n_classes), model.forward(r.x, self.params))
            for r in self.requests
        ]))

    def inputs_bytes(self):
        return b"".join(r.path.read_bytes() for r in self.requests) + self.order.tobytes()

    @property
    def tasks_per_pass(self):
        return len(self.SIZES)

    def run_pass(self, capture):
        return [capture.timed(int(i), self.serve, int(i)) for i in self.order]

    def serve(self, i):
        """One request: load the model, read the request file, label its rows."""
        model, data = self.alc.model, self.alc.data
        params, variant, _ = model.load_model(self.model_path)
        batch = data.load_csv(self.requests[i].path, label_column="label")
        return Served(i, params, batch.x, model.predict(batch.x, params, variant))

    def counts(self, served, capture):
        """(requests, rows predicted)."""
        return len(served), sum(len(s.labels) for s in served)

    def check(self, served, capture):
        problems = []
        for s in served:
            req = self.requests[s.index]
            problems.append(checks.first_problem(
                req.problem,
                checks.equal_problem("loaded cofactor", s.params.cofactor, self.params.cofactor),
                checks.equal_problem("loaded vitamin", s.params.vitamin, self.params.vitamin),
                checks.equal_problem("parsed request", s.x, req.x),
                checks.labels_problem(s.labels, req.expected),
            ))
        return problems

    def digest(self, served):
        h = hashlib.sha256(self.model_path.read_bytes())
        for s in sorted(served, key=lambda s: s.index):
            h.update(np.asarray(s.labels, dtype=np.int64).tobytes())
        return h.hexdigest()

    def quality(self, served):
        """Share of served labels equal to the class of the row each request row was drawn around."""
        hits = sum(int((s.labels == self.requests[s.index].source).sum()) for s in served)
        return hits / sum(len(s.labels) for s in served)

    def extras(self, served):
        return {"request_accuracy": (self.quality(served), "share"), "request_loss": (self.loss, "nats")}


def write_request(path, feature_names, x, labels):
    lines = [",".join([*feature_names, "label"])]
    lines.extend(",".join([*map(repr, row), label]) for row, label in zip(x.tolist(), labels))
    path.write_text("\n".join(lines) + "\n")


WORKLOADS = {
    "cv-iris": lambda: Crossval("iris"),
    "cv-breast_cancer": lambda: Crossval("breast_cancer"),
    "optbench-suite": Optbench,
    "predict-bulk": PredictBulk,
}
