"""Benchmark of the alc library, run from the root of a checkout.

    python3 perfbench/run.py --workload cv-iris --seed 42 --seconds 25 --trace 0

It imports the library from ``src/`` of the checkout it sits in, sets a
workload up from the seed (several times, to time set-up), then repeats the
workload's passes for ``--seconds`` seconds in one process with one BLAS
thread. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. Lines
before it start with ``#`` and give the host facts, the output digest and
every metric by name and unit. perfbench/README.md describes the workloads
and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from host import THREAD_VARS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SELF_SHARE_MIN = 0.95  # traced runs: share of traced wall time the layer spans must cover


@dataclass
class Pass:
    traced: bool
    wall: float  # pass time, without the reference kernel runs inside it
    iteration: float  # the whole iteration, checks included
    tasks: list  # layers.Task per task
    evals: int
    rows: int
    digest: str
    optimizer_evals: int  # evaluations the optimizers report for this pass
    growth: tuple = ()  # traced passes: growth of Recorder.snapshot()


def parse_args(argv):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import alc afresh from the checkout's src/, never from an installed copy."""
    for name in [m for m in sys.modules if m == "alc" or m.startswith("alc.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    alc = importlib.import_module("alc")
    importlib.import_module("alc.cec2019")
    if SRC.resolve() not in Path(alc.__file__).resolve().parents:
        raise ImportError(f"alc was imported from {alc.__file__}, not from {SRC}")
    return alc


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "alc" / "__init__.py").is_file():
        print(f"perfbench: no alc source under {SRC}; run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def run(args, workdir):
    import host
    import layers
    import spec
    import workloads

    wl = workloads.WORKLOADS[args.workload]()
    # Compile alc from source on every import, as a fresh checkout does.
    sys.pycache_prefix = str(workdir / "no-pycache")
    setups = []  # (seconds, reference seconds just before)
    for _ in range(wl.setup_repeats):
        ref = layers.reference()
        t0 = perf_counter()
        alc = import_program()
        wl.setup(alc, args.seed, workdir)
        setups.append((perf_counter() - t0, ref))

    capture = layers.Capture(wl.task_boundary)
    recorder = layers.Recorder() if args.trace else None
    passes, problems = [], []
    attempted = failed = 0
    start = perf_counter()
    while True:
        # Traced runs alternate untraced and traced passes. The task clock sits
        # above the tracer, so its reference kernel stays outside every span.
        traced = bool(args.trace) and len(passes) % 2 == 1
        before = recorder.snapshot() if traced else ()
        tracer = layers.install_tracer(alc, recorder) if traced else None
        capture.reset()
        capture.install(alc)
        t0 = perf_counter()
        try:
            out = wl.run_pass(capture)
        except Exception:
            traceback.print_exc()
            attempted += wl.tasks_per_pass
            failed += wl.tasks_per_pass
            problems.append("a pass raised")
            break
        finally:
            wall = perf_counter() - t0 - sum(t.reference for t in capture.tasks)
            capture.patches.restore()
            if tracer is not None:
                tracer.restore()
        task_problems = wl.check(out, capture)
        for problem in sorted({p for p in task_problems if p is not None}):
            print(f"perfbench: check failed: {problem}", file=sys.stderr)
        attempted += len(task_problems)
        failed += sum(p is not None for p in task_problems)
        growth = tuple(b - a for a, b in zip(before, recorder.snapshot())) if traced else ()
        evals, rows = wl.counts(out, capture)
        passes.append(Pass(traced, wall, perf_counter() - t0, list(capture.tasks), evals, rows,
                           wl.digest(out), sum(run.evals for run in capture.runs), growth))
        elapsed = perf_counter() - start
        if len(passes) >= (2 if args.trace else 1) and elapsed + max(p.iteration for p in passes[-2:]) > args.seconds:
            break

    plain = [p for p in passes if not p.traced]
    traced_passes = [p for p in passes if p.traced]
    if not plain or (args.trace and not traced_passes):
        print("perfbench: no pass completed", file=sys.stderr)
        return 1
    digests = sorted({p.digest for p in passes})
    if len(digests) > 1:
        problems.append("passes produced different outputs" + (" (traced vs untraced)" if args.trace else ""))

    # Times at reference speed: each task's time scaled by how long the
    # reference kernel took just before it (see README).
    at_ref = layers.at_reference_speed
    norm_passes = [layers.pass_at_reference_speed(p.wall, p.tasks) for p in plain]
    norm_tasks = [at_ref(t.seconds, t.reference) for p in plain for t in p.tasks]
    end_to_end = {
        "setup_s": statistics.median(at_ref(seconds, ref) for seconds, ref in setups),
        "wall_s": statistics.median(norm_passes),
        "evals_per_s": statistics.median(p.evals / n for p, n in zip(plain, norm_passes)),
        "rows_per_s": statistics.median(p.rows / n for p, n in zip(plain, norm_passes)),
        "task_p50_ms": statistics.median(norm_tasks) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": (attempted - failed) / attempted,
        "quality_score": wl.quality(out),
    }

    print("# host " + json.dumps(host.facts(ROOT), sort_keys=True))
    print(f"# workload {wl.name} seed {args.seed} trace {args.trace} passes {len(passes)} "
          f"tasks {attempted} setups {len(setups)}")
    print(f"# digest {digests[0]}")
    for name, value in end_to_end.items():
        print(f"# metric {name} {value!r} {spec.END_TO_END[name]}")
    print(f"# metric failed_ratio {failed / attempted!r} share")
    if len(norm_tasks) >= 100:
        print(f"# metric task_p90_ms {statistics.quantiles(norm_tasks, n=10)[-1] * 1e3!r} ms (n={len(norm_tasks)})")
    else:
        print(f"# task_p90_ms not reported: {len(norm_tasks)} tasks, fewer than 100")
    refs = [t.reference for p in plain for t in p.tasks]
    print(f"# raw reference_ms {statistics.median(refs) * 1e3!r} ms (nominal {layers.REFERENCE_NOMINAL_S * 1e3!r})")
    print(f"# raw setup_s {statistics.median(seconds for seconds, _ in setups)!r} s (n={len(setups)})")
    print(f"# raw wall_s {statistics.median(p.wall for p in plain)!r} s (n={len(plain)})")
    print(f"# raw task_p50_ms {statistics.median(t.seconds for p in plain for t in p.tasks) * 1e3!r} ms "
          f"(n={len(norm_tasks)})")
    for name, (value, unit) in wl.extras(out).items():
        print(f"# metric {name} {value!r} {unit}")

    if args.trace:
        metrics = per_layer(alc, args.seed, workdir, recorder, plain, traced_passes, problems)
        units = spec.PER_LAYER
    else:
        metrics = end_to_end
        units = spec.END_TO_END
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


def per_layer(alc, seed, workdir, recorder, plain, traced_passes, problems):
    import layers
    import spec

    traced_wall = sum(p.wall for p in traced_passes)
    values = layers.layer_values(recorder, len(traced_passes))
    probe = layers.layer_values(layers.run_probe(alc, seed, workdir), 1)
    sources = {}
    for name, value in values.items():
        if value is None:
            values[name] = probe[name] if probe[name] is not None else 0.0
            sources[name] = "probe" if probe[name] is not None else "none"
    values.update(layers.variant_forward_us(alc, seed))
    sources.update(dict.fromkeys((f"model.forward_us.{v}" for v in spec.VARIANTS), "microbench"))
    # Per-layer times at reference speed too, by the traced passes' median reference.
    scale = layers.REFERENCE_NOMINAL_S / statistics.median(t.reference for p in traced_passes for t in p.tasks)
    for name, unit in spec.PER_LAYER.items():
        if unit in ("us", "ms", "s"):
            values[name] *= scale
        elif unit == "GFLOP/s-computed":
            values[name] /= scale
    values["trace.overhead_ratio"] = (
        statistics.median(layers.pass_at_reference_speed(p.wall, p.tasks) for p in traced_passes)
        / statistics.median(layers.pass_at_reference_speed(p.wall, p.tasks) for p in plain)
    )
    values["trace.self_share"] = layers.self_seconds(recorder) / traced_wall

    if values["trace.self_share"] < SELF_SHARE_MIN:
        problems.append(f"layer self times cover {values['trace.self_share']:.3f} of traced wall time, "
                        f"below {SELF_SHARE_MIN}")
    if len({p.growth for p in traced_passes}) > 1:
        problems.append(f"per-pass counts differ between traced passes: {sorted({p.growth for p in traced_passes})}")
    for p in traced_passes:
        if p.growth[1] != p.optimizer_evals:
            problems.append(f"objective called {p.growth[1]} times, optimizers report {p.optimizer_evals} evals")
    for name in spec.PER_LAYER:
        print(f"# layer {name} {values[name]!r} {spec.PER_LAYER[name]} {sources.get(name, 'workload')}")
    return values


if __name__ == "__main__":
    sys.dont_write_bytecode = True
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    sys.exit(main())
