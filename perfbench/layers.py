"""Call-boundary instrumentation of the alc library, installed from outside.

Every call from one alc module into another goes through a module attribute
(``model.forward``, ``numkit.matmul``, the ``optimizers.OPTIMIZERS`` entries
and so on), so rebinding those attributes times each layer without editing
the library. ``Capture`` times the tasks (folds, optimizer runs or
requests) in every run, each right after a reference kernel that gauges the
host's speed. ``install_tracer`` adds a span around each layer for traced
runs. Spans nest: a span's self time is its duration minus the time of the
spans it encloses, so the self times of a pass add up to the part of the pass
spent inside traced calls.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter, defaultdict, namedtuple
from importlib import resources
from time import perf_counter

import numpy as np

import spec

SCORE_FUNCTIONS = ("confusion_counts", "accuracy", "precision_macro", "recall_macro", "f1_macro", "overfitting_gap")
PREPROCESS_FUNCTIONS = ("standardize_fit", "standardize_apply", "lda_fit", "lda_transform", "one_hot")
PROBE_EPOCHS = 20

Task = namedtuple("Task", "kind seconds reference")

# The reference kernel has two halves of about equal time: small numpy calls
# driven from a Python loop (like the training and suite inner loops) and
# float parsing plus scalar arithmetic in pure Python (like CSV ingest and the
# suite's Python loops). Either half alone tracks some workloads poorly.
_REF_X = np.linspace(-1.0, 1.0, 540).reshape(135, 4)
_REF_C = np.linspace(-1.0, 1.0, 40).reshape(4, 10)
_REF_CELLS = [repr(i * 0.123457) for i in range(1500)]
# reference() on an uncontended core of the host the first baseline was
# measured on (2-core Xeon, Python 3.11, numpy 2.4); times are reported as
# if every reference() call had taken this long.
REFERENCE_NOMINAL_S = 0.003


def reference():
    """Seconds one run of the reference kernel takes now."""
    t0 = perf_counter()
    for _ in range(150):
        e = np.exp(_REF_X @ _REF_C)
        (e / e.sum(axis=1, keepdims=True)).max()
    for _ in range(7):
        total = 0.0
        for cell in _REF_CELLS:
            value = float(cell)
            total += value * value - value
        ",".join(_REF_CELLS[:200]).split(",")
    return perf_counter() - t0


def at_reference_speed(seconds, reference_seconds):
    """``seconds`` rescaled to the host speed at which reference() takes REFERENCE_NOMINAL_S."""
    return seconds * REFERENCE_NOMINAL_S / reference_seconds


def pass_at_reference_speed(wall, tasks):
    """A pass's time at reference speed: each task by the reference taken just
    before it, the time outside tasks by the pass's median reference."""
    outside = wall - sum(t.seconds for t in tasks)
    return sum(at_reference_speed(t.seconds, t.reference) for t in tasks) + at_reference_speed(
        outside, statistics.median(t.reference for t in tasks)
    )


class Patches:
    """Rebinds module attributes or dict entries and puts the originals back."""

    def __init__(self):
        self._saved = []

    def set(self, owner, key, value):
        if isinstance(owner, dict):
            self._saved.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._saved.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def restore(self):
        while self._saved:
            owner, key, old = self._saved.pop()
            if isinstance(owner, dict):
                owner[key] = old
            else:
                setattr(owner, key, old)


class Capture:
    """Times each task of a pass and keeps every ``OptimizerRun``.

    ``boundary`` names the call that is one task: ``"fold"`` for
    ``experiments.run_fold``, ``"run"`` for one optimizer run, or None when
    the workload times its own tasks through ``timed``. Each task runs right
    after ``reference()``, which gauges how fast the shared host is running.
    """

    def __init__(self, boundary=None):
        self.boundary = boundary
        self.patches = Patches()
        self.reset()

    def reset(self):
        self.tasks = []
        self.runs = []

    def timed(self, kind, fn, *args, **kwargs):
        ref = reference()
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        self.tasks.append(Task(kind, perf_counter() - t0, ref))
        return out

    def install(self, alc):
        if self.boundary == "fold":
            run_fold = alc.experiments.run_fold
            self.patches.set(alc.experiments, "run_fold", lambda *a, **k: self.timed(0, run_fold, *a, **k))
        table = alc.optimizers.OPTIMIZERS
        for key, optimize in list(table.items()):
            self.patches.set(table, key, self._kept(optimize))

    def _kept(self, optimize):
        def kept(objective, cfg, *args, **kwargs):
            if self.boundary == "run":
                run = self.timed(len(self.runs), optimize, objective, cfg, *args, **kwargs)
            else:
                run = optimize(objective, cfg, *args, **kwargs)
            self.runs.append(run)
            return run

        return kept


class Recorder:
    """Spans and counters of traced calls, kept in memory."""

    def __init__(self):
        self.stack = []  # open spans as [name, seconds spent in child spans]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # name -> [calls, inclusive s, self s]
        self.counts = Counter()
        self.objective_depth = 0

    def call(self, name, fn, args, kwargs):
        frame = [name, 0.0]
        self.stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            self.stack.pop()
            entry = self.stats[name]
            entry[0] += 1
            entry[1] += dt
            entry[2] += dt - frame[1]
            if self.stack:
                self.stack[-1][1] += dt

    def span(self, name, fn):
        return lambda *args, **kwargs: self.call(name, fn, args, kwargs)

    def snapshot(self):
        """Counters that must grow by the same amount in every pass."""
        return (
            self.stats["model.forward"][0],
            self.counts["objective_calls"],
            self.counts["as_matrix_in_objective"],
        )


def install_tracer(alc, rec):
    """Wrap every traced layer of ``alc`` in spans recorded by ``rec``."""
    patches = Patches()
    numkit, model, metrics, data, ex, cec = (
        alc.numkit, alc.model, alc.metrics, alc.data, alc.experiments, alc.cec2019
    )

    for name in ("matmul", "mean_all", "relu", "softmax_rows"):
        patches.set(numkit, name, rec.span(f"numkit.{name}", getattr(numkit, name)))
    as_matrix = numkit.as_matrix

    def counted_as_matrix(*args, **kwargs):
        if rec.objective_depth:
            rec.counts["as_matrix_in_objective"] += 1
        return as_matrix(*args, **kwargs)

    patches.set(numkit, "as_matrix", counted_as_matrix)

    for name in ("phase1", "phase2", "embed_trainable", "load_model"):
        patches.set(model, name, rec.span(f"model.{name}", getattr(model, name)))
    forward, predict = model.forward, model.predict

    def traced_forward(x, params, *args, **kwargs):
        # README complexity: 2n(fp + po) multiply-adds; bytes read or written once.
        n = len(x)
        f, p, o = params.shape
        rec.counts["forward_flops"] += 2 * n * (f * p + p * o)
        rec.counts["forward_bytes"] += 8 * (n * f + f * p + p * o + n * p + n * o)
        return rec.call("model.forward", forward, (x, params, *args), kwargs)

    def traced_predict(x, *args, **kwargs):
        rec.counts["predict_rows"] += len(x)
        return rec.call("model.predict", predict, (x, *args), kwargs)

    patches.set(model, "forward", traced_forward)
    patches.set(model, "predict", traced_predict)

    patches.set(metrics, "log_loss", rec.span("metrics.log_loss", metrics.log_loss))
    for name in SCORE_FUNCTIONS:
        patches.set(metrics, name, rec.span("metrics.score", getattr(metrics, name)))
    for name in ("load_dataset", "load_csv", "stratified_kfold"):
        patches.set(data, name, rec.span(f"data.{name}", getattr(data, name)))
    for name in PREPROCESS_FUNCTIONS:
        patches.set(data, name, rec.span("data.preprocess", getattr(data, name)))
    patches.set(ex, "run_fold", rec.span("experiments.fold", ex.run_fold))
    for name in ("write_crossval_reports", "write_optbench_reports"):
        patches.set(ex, name, rec.span("experiments.write_reports", getattr(ex, name)))

    evaluate = cec.evaluate

    def traced_evaluate(fid, *args, **kwargs):
        return rec.call(f"cec2019.{fid}", evaluate, (fid, *args), kwargs)

    patches.set(cec, "evaluate", traced_evaluate)

    table = alc.optimizers.OPTIMIZERS
    for key, optimize in list(table.items()):
        patches.set(table, key, _traced_optimizer(rec, optimize))
    return patches


def _traced_optimizer(rec, optimize):
    def traced(objective, cfg, *args, **kwargs):
        best = math.inf

        def traced_objective(vec):
            nonlocal best
            rec.objective_depth += 1
            try:
                value = rec.call("optimizers.objective", objective, (vec,), {})
            finally:
                rec.objective_depth -= 1
            rec.counts["objective_calls"] += 1
            # Same strict test as the optimizers' incumbent update.
            if float(value) < best:
                best = float(value)
                rec.counts["improvements"] += 1
            return value

        in_fold = bool(rec.stack) and rec.stack[-1][0] == "experiments.fold"
        t0 = perf_counter()
        run = rec.call("optimizers.run", optimize, (traced_objective, cfg, *args), kwargs)
        if in_fold:
            rec.counts["fold_train_s"] += perf_counter() - t0
        return run

    return traced


def layer_values(rec, passes):
    """Per-layer metrics seen by ``rec`` over ``passes`` passes.

    A value is None where ``rec`` saw no call of its layer, except for the
    counts in ``spec.COUNTS``, which are then 0.
    """
    stats, counts = rec.stats, rec.counts

    def calls(name):
        return stats[name][0] if name in stats else 0

    def inclusive(name):
        return stats[name][1] if name in stats else 0.0

    def share(num, den, scale=1.0):
        return num / den * scale if den else None

    def per_call(name, scale):
        return share(inclusive(name), calls(name), scale)

    folds = calls("experiments.fold")
    evals = counts["objective_calls"]
    forwards = calls("model.forward")
    values = {
        "numkit.matmul_us": per_call("numkit.matmul", 1e6),
        "numkit.softmax_rows_us": per_call("numkit.softmax_rows", 1e6),
        "numkit.relu_us": per_call("numkit.relu", 1e6),
        "numkit.mean_all_us": per_call("numkit.mean_all", 1e6),
        "numkit.as_matrix_calls_per_eval": share(counts["as_matrix_in_objective"], evals) or 0.0,
        "model.forward_us": per_call("model.forward", 1e6),
        "model.forward_self_us": share(stats["model.forward"][2], forwards, 1e6) if forwards else None,
        "model.phase1_us": per_call("model.phase1", 1e6),
        "model.phase2_us": per_call("model.phase2", 1e6),
        "model.embed_trainable_us": per_call("model.embed_trainable", 1e6),
        "model.forward_calls": forwards / passes,
        "model.forward_gflops": share(counts["forward_flops"], inclusive("model.forward"), 1e-9),
        "model.forward_flops_per_call": share(counts["forward_flops"], forwards) or 0.0,
        "model.forward_bytes_per_call": share(counts["forward_bytes"], forwards) or 0.0,
        "model.load_model_ms": per_call("model.load_model", 1e3),
        "model.predict_us_per_row": share(inclusive("model.predict"), counts["predict_rows"], 1e6),
        "metrics.log_loss_us": per_call("metrics.log_loss", 1e6),
        "metrics.score_ms": share(inclusive("metrics.score"), folds, 1e3) if calls("metrics.score") else None,
        "optimizers.step_us": share(stats["optimizers.run"][2], evals, 1e6) if evals else None,
        "optimizers.objective_share": share(inclusive("optimizers.objective"), inclusive("optimizers.run")),
        "optimizers.evals": evals / passes,
        "optimizers.improve_ratio": share(counts["improvements"], evals),
        **{f"cec2019.{fid}_us": per_call(f"cec2019.{fid}", 1e6) for fid in spec.SUITE},
        "data.load_dataset_ms": per_call("data.load_dataset", 1e3),
        "data.stratified_kfold_ms": per_call("data.stratified_kfold", 1e3),
        "data.preprocess_ms": share(inclusive("data.preprocess"), folds, 1e3) if calls("data.preprocess") else None,
        "data.load_csv_ms": per_call("data.load_csv", 1e3),
        "experiments.fold_train_s": share(counts["fold_train_s"], folds),
        "experiments.fold_self_ms": share(stats["experiments.fold"][2], folds, 1e3) if folds else None,
        "experiments.write_reports_ms": per_call("experiments.write_reports", 1e3),
    }
    return values


def self_seconds(rec):
    """Total self time of all spans: the time spent inside traced calls."""
    return sum(entry[2] for entry in rec.stats.values())


def run_probe(alc, seed, workdir):
    """Trace a short pass of every pipeline: cross-validation, prediction, suite.

    A workload that never calls a layer takes that layer's per-layer time
    from here, so every per-layer metric is measured on every workload. The
    probe runs twice and reports the second time, after the first has loaded
    what a workload that skipped those paths never loaded.
    """
    ex, model, data = alc.experiments, alc.model, alc.data
    out = workdir / "probe"
    cfg = ex.default_config("iris", seed=seed, epochs=PROBE_EPOCHS, k_folds=2)
    for _ in range(2):
        rec = Recorder()
        patches = install_tracer(alc, rec)
        try:
            ex.write_crossval_reports(ex.run_crossval(cfg), out)
            params, variant, _ = model.load_model(out / "model.json")
            with resources.as_file(data.bundled_csv_path("iris")) as path:
                batch = data.load_csv(path, label_column="label")
            model.predict(batch.x, params, variant)
            ex.write_optbench_reports(ex.run_optbench(epochs=PROBE_EPOCHS, runs=1, seed=seed), out)
        finally:
            patches.restore()
    return rec


def variant_forward_us(alc, seed, repeats=5, calls=100):
    """Median microseconds per untraced ``forward`` of each non-full variant at iris shapes."""
    ex, data, model = alc.experiments, alc.data, alc.model
    iris = data.load_dataset("iris")
    x, _, _ = data.standardize(iris.x)
    out = {}
    for variant in spec.VARIANTS:
        lobules = iris.n_classes if variant == "identity-vitamin" else ex.DEFAULT_LOBULES["iris"]
        cfg = ex.default_config("iris", seed=seed, variant=variant, lobules=lobules)
        params = ex.build_variant_model(cfg, iris.n_features, iris.n_classes, alc.numkit.RngStream(seed)).params
        per_call = []
        for _ in range(repeats):
            t0 = perf_counter()
            for _ in range(calls):
                model.forward(x, params, variant)
            per_call.append((perf_counter() - t0) / calls)
        out[f"model.forward_us.{variant}"] = statistics.median(per_call) * 1e6
    return out
