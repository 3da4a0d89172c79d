#!/usr/bin/env python3
"""Time one callable on two checkouts of alc inside one process, alternating.

    python3 scripts/ab_inprocess.py --parent ../parent --change . \\
        --call optbench_suite --seed 42 --pairs 16

Each checkout's ``src/alc`` is imported under its own package name
(``alc_parent`` and ``alc_change``), so both sides run in one interpreter,
on one heap and at one page-fault history. Separate processes started from
two checkout paths can land in different page-fault modes and read a few
percent apart on identical code, which hides a change of that size. Each
package finds its bundled datasets under its own name; a checkout older
than that lookup finds them as ``alc.datasets``, so run it with a ``src``
holding ``alc`` on ``PYTHONPATH``.

``--call`` names the callable: ``FILE:FUNCTION``, or a function defined in
this script (``optbench_suite``, ``predict_bulk``). It is called as
``function(package, seed)`` and returns the bytes that stand for its output.
Each side makes one untimed warm-up call; then each pair times one call per
side, the parent first in odd pairs and the change first in even pairs.
Each timed call runs right after perfbench's reference kernel
(``perfbench/layers.py::reference``) and is reported at reference speed, as
perfbench reports its tasks: its seconds times the reference's nominal
seconds over the seconds the reference took just before it. The script
prints one JSON document: each side's median and quartiles in seconds per
call at reference speed and the sha256 prefixes of the outputs it returned,
the median over pairs of parent time / change time (above 1 when the change
is faster), and the number of pairs the change won (a tie wins for neither
side).
"""

import argparse
import gc
import hashlib
import importlib.util
import json
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

from bench_pairs import quartiles

sys.path.insert(1, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402
from layers import at_reference_speed, reference  # noqa: E402

SIDES = ("parent", "change")


def load_package(checkout, name):
    """Import ``checkout/src/alc`` as the package ``name``; its modules import each other relatively."""
    src = Path(checkout).resolve() / "src" / "alc"
    if not (src / "__init__.py").is_file():
        raise SystemExit(f"ab_inprocess: no alc package under {src}")
    spec = importlib.util.spec_from_file_location(name, src / "__init__.py",
                                                  submodule_search_locations=[str(src)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def optbench_suite(alc, seed):
    """The optbench-suite pass: IFOX and FOX over F1-F10, 1 run, 500 epochs, 10 agents, reports written.

    Returns the bytes perfbench's optbench-suite digest hashes, so the
    digest printed matches that workload's ``# digest`` line.
    """
    ex = alc.experiments
    result = ex.run_optbench(alc.cec2019.FUNCTION_IDS, ("ifox", "fox"), runs=1, epochs=500, agents=10, seed=seed)
    with tempfile.TemporaryDirectory() as out:
        ex.write_optbench_reports(result, out)
    parts = [repr(sorted(row.items())).encode() for row in result.stats]
    parts += [history.tobytes() for key in sorted(result.histories) for history in result.histories[key]]
    return b"".join(parts)


_PREDICT_BULK = {}  # seed -> the workload whose model and request files it serves


def predict_bulk(alc, seed):
    """The predict-bulk pass: perfbench's seven request files, each read and labelled.

    The model and request files are made once per seed, by the package first
    called. Returns the bytes perfbench's predict-bulk digest hashes, so the
    digest printed matches that workload's ``# digest`` line.
    """
    if seed not in _PREDICT_BULK:
        workdir = tempfile.TemporaryDirectory(prefix="ab_inprocess_")
        bench = workloads.PredictBulk()
        bench.setup(alc, seed, Path(workdir.name))
        _PREDICT_BULK[seed] = bench, workdir
    bench, _ = _PREDICT_BULK[seed]
    bench.alc = alc
    served = sorted((bench.serve(int(i)) for i in bench.order), key=lambda s: s.index)
    labels = [np.asarray(s.labels, dtype=np.int64).tobytes() for s in served]
    return bench.model_path.read_bytes() + b"".join(labels)


BUILTIN = {"optbench_suite": optbench_suite, "predict_bulk": predict_bulk}


def resolve_call(spec):
    """The function named by ``FILE:FUNCTION`` or by a bare name defined in this script."""
    path, _, name = spec.rpartition(":")
    if not path:
        if name not in BUILTIN:
            raise SystemExit(f"ab_inprocess: unknown callable {spec!r}; give FILE:FUNCTION")
        return BUILTIN[name]
    module_spec = importlib.util.spec_from_file_location("ab_inprocess_calls", path)
    if module_spec is None:
        raise SystemExit(f"ab_inprocess: cannot load {path}")
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    return getattr(module, name)


def timed(call, package, seed):
    """One call's seconds at reference speed, and the sha256 prefix of its output."""
    gc.collect()
    reference_seconds = reference()
    start = perf_counter()
    out = call(package, seed)
    return at_reference_speed(perf_counter() - start, reference_seconds), hashlib.sha256(out).hexdigest()[:8]


def compare(packages, call, seed, pairs):
    """Alternate ``call`` over the two packages; the summary the script prints."""
    for side in SIDES:
        timed(call, packages[side], seed)
    seconds = {side: [] for side in SIDES}
    digests = {side: set() for side in SIDES}
    for pair in range(1, pairs + 1):
        for side in SIDES if pair % 2 else SIDES[::-1]:
            took, digest = timed(call, packages[side], seed)
            seconds[side].append(took)
            digests[side].add(digest)
    ratios = [p / c for p, c in zip(seconds["parent"], seconds["change"])]
    return {
        "pairs": pairs,
        "seed": seed,
        **{side: {**quartiles(seconds[side]), "digests": sorted(digests[side])} for side in SIDES},
        "paired_ratio": statistics.median(ratios),
        "change_wins": sum(c < p for p, c in zip(seconds["parent"], seconds["change"])),
        "digests_equal": digests["parent"] == digests["change"],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, type=Path, help="checkout of the change")
    parser.add_argument("--call", default="optbench_suite",
                        help="FILE:FUNCTION, optbench_suite or predict_bulk")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--pairs", type=int, default=16)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    call = resolve_call(args.call)
    packages = {side: load_package(getattr(args, side), f"alc_{side}") for side in SIDES}
    summary = compare(packages, call, args.seed, args.pairs)
    print(json.dumps({"call": args.call, **summary}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
