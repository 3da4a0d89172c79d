"""Acceptance battery.

One test per release criterion, each printing a PASS/FAIL line with the
measured values (run with ``-s -v`` to see every line). The two large
datasets are exercised only when their files are present in the local cache;
otherwise those criteria are skipped with a notice naming the fetch command.
"""

import itertools
import math
import sys
import time

import numpy as np
import pytest

from alc import cec2019, data, metrics, model
from alc.experiments import (
    default_config,
    run_ablation,
    run_crossval,
    run_optbench,
    write_crossval_reports,
)
from alc.fetch import dataset_available
from alc.numkit import RngStream, softmax_rows
from alc.optimizers import OPTIMIZERS, OptimizerConfig

pytestmark = pytest.mark.acceptance

ACCEPTANCE_SEEDS = (42, 43, 44)
ABLATION_SEEDS = (42, 43, 44, 45, 46)


def report(criterion, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status} | {detail}", file=sys.stderr, flush=True)
    if not passed:
        pytest.fail(f"criterion {criterion}: {detail}")


# ---------------------------------------------------------------------------
# criterion 1: iris cross-validation


def test_criterion_1_iris_crossval():
    dataset = data.load_dataset("iris")
    accuracies, losses, runtimes = [], [], []
    for seed in ACCEPTANCE_SEEDS:
        started = time.perf_counter()
        result = run_crossval(default_config("iris", seed=seed), dataset=dataset)
        runtimes.append(time.perf_counter() - started)
        accuracies.append(result.mean.accuracy)
        losses.append(result.mean.loss)
    mean_acc = float(np.mean(accuracies))
    mean_loss = float(np.mean(losses))
    detail = (
        f"iris 10-fold over seeds {ACCEPTANCE_SEEDS}: mean accuracy {mean_acc:.4f} "
        f"(need >= 0.97), mean loss {mean_loss:.4f} (need <= 0.15), "
        f"per-seed runtime {max(runtimes):.1f}s (need <= 120s)"
    )
    report(1, mean_acc >= 0.97 and mean_loss <= 0.15 and max(runtimes) <= 120.0, detail)


# ---------------------------------------------------------------------------
# criterion 2: wine cross-validation


def test_criterion_2_wine_crossval():
    dataset = data.load_dataset("wine")
    means = [
        run_crossval(default_config("wine", seed=seed), dataset=dataset).mean
        for seed in ACCEPTANCE_SEEDS
    ]
    acc = float(np.mean([m.accuracy for m in means]))
    gap = float(np.mean([m.overfitting_gap for m in means]))
    detail = (
        f"wine 10-fold over seeds {ACCEPTANCE_SEEDS}: accuracy {acc:.4f} (need >= 0.97), "
        f"|overfitting gap| {abs(gap):.4f} (need <= 0.03)"
    )
    report(2, acc >= 0.97 and abs(gap) <= 0.03, detail)


# ---------------------------------------------------------------------------
# criterion 3: breast cancer cross-validation


def test_criterion_3_breast_cancer_crossval():
    dataset = data.load_dataset("breast_cancer")
    means = [
        run_crossval(default_config("breast_cancer", seed=seed), dataset=dataset).mean
        for seed in ACCEPTANCE_SEEDS
    ]
    acc = float(np.mean([m.accuracy for m in means]))
    loss = float(np.mean([m.loss for m in means]))
    gap = float(np.mean([m.overfitting_gap for m in means]))
    detail = (
        f"breast cancer 10-fold over seeds {ACCEPTANCE_SEEDS}: accuracy {acc:.4f} "
        f"(need >= 0.95), loss {loss:.4f} (need <= 0.12), gap {gap:.4f} (need <= 0.03)"
    )
    report(3, acc >= 0.95 and loss <= 0.12 and gap <= 0.03, detail)


# ---------------------------------------------------------------------------
# criterion 4: ablation ordering


def test_criterion_4_ablation_ordering():
    dataset = data.load_dataset("breast_cancer")
    tags = ("full", "phase1-only", "random-cofactor")
    per_variant = {tag: [] for tag in tags}
    for seed in ABLATION_SEEDS:
        results = run_ablation(
            default_config("breast_cancer", seed=seed), dataset=dataset, variants=tags
        )
        for tag in tags:
            per_variant[tag].append(results[tag].mean.accuracy)
    medians = {tag: float(np.median(v)) for tag, v in per_variant.items()}
    ordered = (
        medians["full"] > medians["phase1-only"] > medians["random-cofactor"]
    )
    detail = (
        f"breast cancer seed-median of {len(ABLATION_SEEDS)}: "
        f"full {medians['full']:.4f} > phase1-only {medians['phase1-only']:.4f} "
        f"> random-cofactor {medians['random-cofactor']:.4f} required"
    )
    report(4, ordered, detail)


# ---------------------------------------------------------------------------
# criterion 5: optimizer benchmark


def test_criterion_5_optimizer_benchmark():
    result = run_optbench(
        function_ids=cec2019.FUNCTION_IDS,
        optimizer_ids=("ifox", "fox"),
        runs=30,
        epochs=500,
        agents=10,
        seed=1,
        jobs=2,
    )
    means = {(r["function"], r["optimizer"]): r["mean"] for r in result.stats}
    wins = sum(
        means[(fid, "ifox")] <= means[(fid, "fox")] for fid in cec2019.FUNCTION_IDS
    )

    f4_histories = result.histories[("F4", "ifox")]
    reach_epochs = []
    for history in f4_histories:
        final = history[-1]
        threshold = final * 1.10  # within 10% of the final value (all values > 0)
        reach_epochs.append(int(np.argmax(history <= threshold)))
    median_reach = float(np.median(reach_epochs))
    budget = 0.6 * len(f4_histories[0])

    detail = (
        f"identity transforms, 30 runs: ifox mean <= fox mean on {wins}/10 functions "
        f"(need >= 6); F4 ifox within 10% of final by epoch {median_reach:.0f} "
        f"(need <= {budget:.0f}); absolute published table values not asserted"
    )
    report(5, wins >= 6 and median_reach <= budget, detail)


# ---------------------------------------------------------------------------
# criterion 6: digit images at desk scale


def test_criterion_6_mnist_desk_scale():
    if not dataset_available("mnist"):
        pytest.skip("mnist files not in the local cache; run `alc fetch mnist` first")
    dataset = data.load_dataset("mnist")
    result = run_crossval(default_config("mnist"), dataset=dataset, jobs=2)
    acc = result.mean.accuracy
    detail = (
        f"mnist 2000-sample desk scale, 9 discriminant axes: accuracy {acc:.4f} "
        f"(need >= 0.90); full-scale published accuracy not asserted at desk scale"
    )
    report(6, acc >= 0.90, detail)


# ---------------------------------------------------------------------------
# criterion 7: property suites


def test_criterion_7a_softmax_row_sums():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        rows = rng.integers(1, 6)
        cols = rng.integers(2, 8)
        m = rng.uniform(-700, 700, (rows, cols))
        worst = max(worst, float(np.abs(softmax_rows(m).sum(axis=1) - 1.0).max()))
    report("7a", worst <= 1e-9, f"softmax row-sum deviation {worst:.2e} over 1000 matrices")


def test_criterion_7b_zero_objective_equals_log_classes():
    rng = np.random.default_rng(1)
    worst = 0.0
    for o in (2, 3, 4, 7, 10):
        x = rng.normal(size=(20, 5))
        y = data.one_hot(rng.integers(0, o, 20), o)
        full = model.make_variant(
            model.AlcParams(5, 8, o, np.zeros((5, 8)), np.zeros((8, o))), "full"
        )
        value = model.TrainingObjective(x, y, full)(np.zeros(5 * 8 + 8 * o))
        worst = max(worst, abs(value - math.log(o)))
    report("7b", worst <= 1e-12, f"objective(0) vs ln(classes) deviation {worst:.2e}")


def test_criterion_7c_phases_match_scalar_oracle():
    from oracles import phase1_oracle, phase2_oracle

    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        x = rng.normal(size=(5, 4))
        c = rng.uniform(-1, 1, (4, 3))
        v = rng.uniform(-1, 1, (3, 2))
        worst = max(worst, float(np.abs(model.phase1(x, c) - phase1_oracle(x, c)).max()))
        a = np.maximum(model.phase1(x, c), 0)
        worst = max(worst, float(np.abs(model.phase2(a, v) - phase2_oracle(a, v)).max()))
    report("7c", worst <= 1e-12, f"phase transforms vs scalar oracle deviation {worst:.2e}")


def test_criterion_7d_incumbent_monotonicity_50_seeds():
    def sphere(x):
        return float(x @ x)

    violations = 0
    for seed in range(50):
        for name in ("ifox", "fox"):
            cfg = OptimizerConfig(epochs=20, agents=4, dim=4, lower=-5, upper=5, seed=seed)
            history = OPTIMIZERS[name](sphere, cfg).history
            if (np.diff(history) > 0).any():
                violations += 1
    report("7d", violations == 0, f"{violations} monotonicity violations over 50 seeds x 2 optimizers")


def test_criterion_7e_fold_histograms():
    rng = np.random.default_rng(3)
    worst = 0
    for trial in range(50):
        y = rng.integers(0, rng.integers(2, 5), size=rng.integers(30, 200))
        k = int(rng.integers(2, 11))
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("ignore")
            plan = data.stratified_kfold(y, k, RngStream(trial))
        for cls in np.unique(y):
            per_fold = np.array(
                [((y == cls) & (plan.assignments == fold)).sum() for fold in range(k)]
            )
            worst = max(worst, int(per_fold.max() - per_fold.min()))
    report("7e", worst <= 1, f"max per-class fold-count spread {worst} (need <= 1)")


def test_criterion_7f_wilcoxon_exact_vs_enumeration():
    rng = np.random.default_rng(4)
    worst = 0.0
    checked = 0
    while checked < 100:
        n = int(rng.integers(5, 13))
        a = rng.normal(size=n)
        b = a + np.round(rng.normal(size=n), 1)
        d = a - b
        if (d != 0).sum() < 5:
            continue
        w, p = metrics.wilcoxon_signed_rank(a, b)
        d = d[d != 0]
        mags = np.abs(d)
        order = np.argsort(mags, kind="stable")
        ranks = np.empty(d.size)
        i = 0
        while i < d.size:
            j = i
            while j + 1 < d.size and mags[order[j + 1]] == mags[order[i]]:
                j += 1
            ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
            i = j + 1
        hits = 0
        for signs in itertools.product((1, -1), repeat=d.size):
            sgn = np.array(signs)
            if min(ranks[sgn > 0].sum(), ranks[sgn < 0].sum()) <= w + 1e-12:
                hits += 1
        worst = max(worst, abs(p - hits / 2.0**d.size))
        checked += 1
    report("7f", worst <= 1e-12, f"exact p vs enumeration deviation {worst:.2e} over 100 cases")


def test_criterion_7g_model_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    params = model.AlcParams(
        3, 5, 2, rng.uniform(-1, 1, (3, 5)), rng.uniform(-1, 1, (5, 2))
    )
    path = tmp_path / "model.json"
    model.save_model(params, {"seed": 9, "epochs": 1, "agents": 2, "dataset_id": "iris"}, path)
    loaded, _, _ = model.load_model(path)
    exact = np.array_equal(loaded.cofactor, params.cofactor) and np.array_equal(
        loaded.vitamin, params.vitamin
    )
    report("7g", exact, "save/load round trip bitwise equal")


def test_criterion_7h_pipeline_determinism(tmp_path):
    dataset = data.load_dataset("iris")
    cfg = default_config("iris", epochs=40, agents=4, k_folds=5)
    out_dirs = []
    for repeat in range(2):
        result = run_crossval(cfg, dataset=dataset)
        out_dirs.append(write_crossval_reports(result, tmp_path / f"rep{repeat}"))

    def stable_lines(path):
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        keep = [i for i, c in enumerate(header) if c != "wall_time"]
        return ["|".join(line.split(",")[i] for i in keep) for line in lines]

    same = (
        stable_lines(out_dirs[0] / "folds.csv") == stable_lines(out_dirs[1] / "folds.csv")
        and stable_lines(out_dirs[0] / "mean.csv") == stable_lines(out_dirs[1] / "mean.csv")
        and (out_dirs[0] / "history.csv").read_bytes() == (out_dirs[1] / "history.csv").read_bytes()
        and (out_dirs[0] / "model.json").read_bytes() == (out_dirs[1] / "model.json").read_bytes()
    )
    report(
        "7h",
        same,
        "two repeats byte-identical (wall_time column excluded; timings cannot repeat)",
    )


# ---------------------------------------------------------------------------
# criterion 8: voice gender after fetch


def test_criterion_8_voice_gender():
    if not dataset_available("voice_gender"):
        pytest.skip(
            "voice gender files not in the local cache; run `alc fetch voice_gender` first"
        )
    dataset = data.load_dataset("voice_gender")
    result = run_crossval(default_config("voice_gender"), dataset=dataset, jobs=2)
    acc = result.mean.accuracy
    report(8, acc >= 0.95, f"voice gender 10-fold: accuracy {acc:.4f} (need >= 0.95)")
