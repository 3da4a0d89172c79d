"""Golden files: report bytes pinned across versions.

Each test reruns a small, fully seeded experiment, writes its reports, and
compares them byte for byte with the files under ``tests/golden/``. Unlike a
run-against-run determinism check, this catches any change in results
between versions of the package. ``wall_time`` is dropped from the
cross-validation tables because timings cannot repeat.

The golden files were written by these same helpers; a deliberate change in
results means writing new files from :func:`crossval_outputs` and
:func:`optbench_outputs` in a commit of its own.
"""

from pathlib import Path

import pytest

from alc import data
from alc.experiments import (
    default_config,
    run_crossval,
    run_optbench,
    write_crossval_reports,
    write_optbench_reports,
)

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


@pytest.mark.parametrize("produce", [crossval_outputs, optbench_outputs])
def test_reports_match_golden_files(tmp_path, produce):
    for name, produced in produce(tmp_path).items():
        assert produced == (GOLDEN / name).read_bytes(), name
