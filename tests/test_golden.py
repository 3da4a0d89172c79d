"""Golden files: report bytes pinned across versions.

Each test reruns a small, fully seeded experiment, writes its reports, and
compares them byte for byte with the files under ``tests/golden/``. Unlike a
run-against-run determinism check, this catches any change in results
between versions of the package. ``wall_time`` is dropped from the
cross-validation tables because timings cannot repeat.

The golden files were written by these same helpers; a deliberate change in
results means writing new files from :func:`crossval_outputs`,
:func:`ablation_outputs`, :func:`optbench_outputs`, :func:`fox_outputs` and
:func:`suite_outputs` and :func:`optimizer_outputs` in a commit of its own.
"""

from pathlib import Path

import numpy as np
import pytest

from alc import cec2019, data
from alc.experiments import (
    default_config,
    run_ablation,
    run_crossval,
    run_optbench,
    write_ablation_reports,
    write_crossval_reports,
    write_optbench_reports,
)
from alc.optimizers import OPTIMIZERS, OptimizerConfig, optimize_fox

GOLDEN = Path(__file__).parent / "golden"


def _drop_wall_time(raw):
    lines = raw.decode().split("\r\n")  # the csv module's line terminator
    col = lines[0].split(",").index("wall_time")
    rows = ([c for i, c in enumerate(line.split(",")) if i != col] for line in lines)
    return "\r\n".join(",".join(row) for row in rows).encode()


def crossval_outputs(out_dir):
    """Pinned iris cross-validation reports, keyed by golden file name."""
    cfg = default_config("iris", seed=42, epochs=60, agents=5, k_folds=3)
    result = run_crossval(cfg, dataset=data.load_dataset("iris"))
    out = write_crossval_reports(result, out_dir)
    return {
        "crossval_folds.csv": _drop_wall_time((out / "folds.csv").read_bytes()),
        "crossval_mean.csv": _drop_wall_time((out / "mean.csv").read_bytes()),
        "crossval_history.csv": (out / "history.csv").read_bytes(),
        "crossval_model.json": (out / "model.json").read_bytes(),
    }


def ablation_outputs(out_dir):
    """Pinned iris ablation table: one mean row for each of the five variants."""
    cfg = default_config("iris", seed=42, epochs=60, agents=5, k_folds=3)
    results = run_ablation(cfg, dataset=data.load_dataset("iris"))
    out = write_ablation_reports(results, out_dir)
    return {"ablation.csv": _drop_wall_time((out / "ablation.csv").read_bytes())}


def optbench_outputs(out_dir):
    """Pinned optimizer-benchmark reports, keyed by golden file name."""
    result = run_optbench(
        function_ids=("F1", "F4", "F10"),
        optimizer_ids=("ifox", "fox", "random"),
        runs=2,
        epochs=8,
        agents=5,
        seed=1,
    )
    out = write_optbench_reports(result, out_dir)
    return {
        "optbench_stats.csv": (out / "stats.csv").read_bytes(),
        "optbench_ranks.csv": (out / "ranks.csv").read_bytes(),
    }


def fox_outputs(out_dir):
    """One FOX run on a sphere centred at 0.3, from a box that excludes it.

    On the suite's origin-centred functions every FOX move contracts toward
    the optimum, so the short optbench above never tells the direction
    constants apart; here the incumbent depends on each of them.
    """
    cfg = OptimizerConfig(epochs=40, agents=6, dim=4, lower=0.5, upper=2.0, seed=11)
    run = optimize_fox(lambda v: float(((v - 0.3) ** 2).sum()), cfg)
    lines = ["best_x," + ",".join(repr(float(v)) for v in run.best_x)]
    lines += [f"{epoch},{float(f)!r}" for epoch, f in enumerate(run.history)]
    return {"fox_shifted_sphere.csv": ("\n".join(lines) + "\n").encode()}


def optimizer_outputs(out_dir):
    """300-epoch runs of every optimizer on a sphere centred at 0.3, from a box that excludes it.

    Dims 4 and 70 with 2, 10 and 33 agents: long enough that each run's unit
    draws span many epochs and, at the small shapes, more than one draw block.
    The history is written as the epochs where the incumbent improved, which
    fixes every other epoch's value. FOX stops improving within a few epochs,
    so each run also pins the sum of every value it evaluated, in call order,
    which depends on every epoch's moves.
    """
    lines = ["optimizer,dim,agents,epoch,value"]
    for name, optimize in OPTIMIZERS.items():
        for dim in (4, 70):
            for agents in (2, 10, 33):
                evaluated = [0.0]

                def sphere(v):
                    value = float(((v - 0.3) ** 2).sum())
                    evaluated[0] += value
                    return value

                cfg = OptimizerConfig(epochs=300, agents=agents, dim=dim, lower=0.5, upper=2.0, seed=15)
                run = optimize(sphere, cfg)
                tag = f"{name},{dim},{agents}"
                lines.append(f"{tag},best_x," + ",".join(repr(float(v)) for v in run.best_x))
                lines.append(f"{tag},evaluated,{evaluated[0]!r}")
                lines += [
                    f"{tag},{epoch},{float(f)!r}"
                    for epoch, f in enumerate(run.history)
                    if epoch == 0 or f != run.history[epoch - 1]
                ]
    return {"optimizer_runs.csv": ("\n".join(lines) + "\n").encode()}


def seeded_transform(rng, dim):
    """Shift uniform in [-80, 80]^dim; rotation the sign-fixed Q of a Gaussian draw."""
    shift = rng.uniform(-80.0, 80.0, dim)
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return cec2019.Transform(shift=shift, rotation=q * np.sign(np.diag(r)))


def suite_outputs(out_dir):
    """Every suite function at 20 seeded points; F4-F10 also under one seeded transform.

    Points span 1e-3 to 3 times the box, and the last one puts the first two
    F3 atoms on top of each other.
    """
    rng = np.random.default_rng(2019)
    lines = ["function,transform,point,value"]
    for fid in cec2019.FUNCTION_IDS:
        info = cec2019.suite_info(fid)
        points = [
            rng.uniform(info.lower, info.upper, info.dim) * (1e-3, 1e-2, 0.1, 0.5, 1.0, 3.0)[i % 6]
            for i in range(20)
        ]
        points[-1][3:6] = points[-1][0:3]
        transforms = [None] if fid in ("F1", "F2", "F3") else [None, seeded_transform(rng, info.dim)]
        for tag, transform in enumerate(transforms):
            for i, x in enumerate(points):
                lines.append(f"{fid},{tag},{i},{float(cec2019.evaluate(fid, x, transform))!r}")
    return {"suite_values.csv": ("\n".join(lines) + "\n").encode()}


@pytest.mark.parametrize(
    "produce",
    [crossval_outputs, ablation_outputs, optbench_outputs, fox_outputs, suite_outputs, optimizer_outputs],
)
def test_reports_match_golden_files(tmp_path, produce):
    for name, produced in produce(tmp_path).items():
        assert produced == (GOLDEN / name).read_bytes(), name
