"""``scripts/ab_inprocess.py`` comparing this checkout with itself on a tiny callable."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "ab_inprocess.py"

CALLS = '''
import numpy as np

def tiny(alc, seed):
    with open({log!r}, "a") as fh:
        fh.write(alc.__name__ + "\\n")
    values = alc.cec2019.SuiteObjective("F4").population(np.full((3, 10), float(seed)))
    return values.tobytes() + alc.data.load_dataset("iris").x.tobytes()
'''


def test_the_repo_against_itself_alternates_sides_and_agrees(tmp_path):
    log = tmp_path / "calls.log"
    calls = tmp_path / "calls.py"
    calls.write_text(CALLS.format(log=str(log)))
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--parent", str(ROOT), "--change", str(ROOT),
         "--call", f"{calls}:tiny", "--seed", "3", "--pairs", "3"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    # one warm-up per side, then the parent first in odd pairs and the change first in even ones
    order = ["parent", "change", "parent", "change", "change", "parent", "parent", "change"]
    assert log.read_text().split() == [f"alc_{side}" for side in order]
    assert (got["pairs"], got["seed"], got["call"]) == (3, 3, f"{calls}:tiny")
    assert got["digests_equal"] is True and len(got["parent"]["digests"]) == 1
    assert 0 <= got["change_wins"] <= 3 and got["paired_ratio"] > 0
    for side in ("parent", "change"):
        assert 0 < got[side]["q1"] <= got[side]["median"] <= got[side]["q3"]


def test_an_unknown_callable_is_refused():
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--parent", str(ROOT), "--change", str(ROOT), "--call", "nothing"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and "unknown callable 'nothing'" in proc.stderr


def test_each_call_follows_the_reference_kernel_and_is_reported_at_its_speed(monkeypatch):
    monkeypatch.setattr(sys, "path", [str(ROOT / "scripts"), *sys.path])
    spec = importlib.util.spec_from_file_location("ab_inprocess", SCRIPT)
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    nominal = sys.modules["layers"].REFERENCE_NOMINAL_S
    clock, log = [0.0], []

    def reference():
        log.append("reference")
        return 2 * nominal  # the host runs at half the reference speed

    def call(package, seed):
        log.append(package)
        clock[0] += {"parent": 3.0, "change": 2.0}[package]
        return b"output"

    monkeypatch.setattr(ab, "reference", reference)
    monkeypatch.setattr(ab, "perf_counter", lambda: clock[0])
    got = ab.compare({"parent": "parent", "change": "change"}, call, 5, 2)
    order = ["parent", "change", "parent", "change", "change", "parent"]
    assert log == [step for side in order for step in ("reference", side)]
    assert got["parent"]["median"] == pytest.approx(1.5) and got["change"]["median"] == pytest.approx(1.0)
    assert got["paired_ratio"] == pytest.approx(1.5) and got["change_wins"] == 2
