#!/usr/bin/env python3
"""Run alternating parent/change benchmark pairs and summarize them.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --control ../other/parent --workload predict-bulk --seed 42 --pairs 10 \\
        --out BENCH_13.json

Each pair runs ``perfbench/run.py`` once from each checkout, one after the
other: odd pairs run the parent first, even pairs the change first. With
``--control``, a second copy of the parent in another directory, each pair
runs it too, as a third side: odd pairs run parent, change, control and even
pairs the reverse, so the parent and the control take the same positions.
Every run's checkout path, ``# digest`` and final result line go to
``--out``, with a summary per (workload, seed, trace) set: each metric's
quartiles on either side, the number of pairs the change won, and the ratio
of the medians. An
end-to-end metric whose median moved the wrong way by more than its bound, as
a share of the parent's median, is marked ``beyond_bound`` and listed under
the set's ``beyond_bound``. A metric is marked ``gain``, and listed under the
set's ``gains``, when the change won at least nine in ten of the pairs run
(a tie wins for neither side, and a pair with a failed run is not won) and
its median moved the better way by more than the parent's interquartile
range. Where the set has control runs, each metric also gets the control's
quartiles, the control-to-parent ratio of the medians, and
``control_spread``, how far the control's median sits from the parent's:
the same code moved only by where it sits. A metric is then a ``gain`` only
if its median also moved by more than that spread. A pair with a failed run
is left out of the quartiles; its failed runs are counted per side under
``failed`` and make the set's ``correct`` false. An existing
``--out`` is extended rather than replaced, so workloads can be run one at a
time into one file; it is rewritten after every run, so an interrupted
session keeps what it measured. Which direction is better for each metric,
and each end-to-end bound, come from ``BENCHMARK.json`` at the root of this
script's checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def metric_rules():
    """``({metric: "higher" or "lower"}, {end-to-end metric: bound})`` from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    directions = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    return directions, {m["name"]: m["bound"] for m in spec["end_to_end"]}


def run_once(checkout, workload, seed, seconds, trace):
    """One perfbench run from ``checkout``: its digest, host facts and result line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    run = {"digest": None, "result": None}
    for line in lines:
        if line.startswith("# digest "):
            run["digest"] = line.split()[2]
        elif line.startswith("# host "):
            run["host"] = json.loads(line[len("# host "):])
    if proc.returncode == 0 and lines and not lines[-1].startswith("#"):
        run["result"] = json.loads(lines[-1])
    else:
        run["error"] = f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    return run


def quartiles(values):
    q = [values[0]] * 3 if len(values) == 1 else statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q[0], "median": q[1], "q3": q[2]}


def paired_values(pairs, side, name):
    """``[(parent value, side's value), ...]`` of metric ``name``, over the pairs where both have one."""
    got = [(p["parent"]["result"]["metrics"].get(name), p[side]["result"]["metrics"].get(name)) for p in pairs]
    return [(a["value"], b["value"]) for a, b in got if a and b and a["value"] is not None and b["value"] is not None]


def control_reading(got):
    """The control's quartiles, its median over the parent's, and the distance between the two medians."""
    if not got:
        return {"control": None, "control_ratio": None, "control_spread": None}
    parent, control = quartiles([a for a, _ in got]), quartiles([b for _, b in got])
    return {
        "control": control,
        "control_ratio": control["median"] / parent["median"] if parent["median"] else None,
        "control_spread": abs(control["median"] - parent["median"]),
    }


def summarize(runs, directions, bounds=None):
    """Per (workload, seed, trace) set: digests, then per-metric quartiles and pair wins.

    ``bounds`` maps end-to-end metrics to the share of the parent's median by
    which the change's median may move the wrong way; only those metrics get
    a ``beyond_bound`` flag.
    """
    bounds = bounds or {}
    sets = {}
    for run in runs:
        key = f"{run['workload']} seed {run['seed']} trace {run['trace']}"
        sets.setdefault(key, {}).setdefault(run["pair"], {})[run["side"]] = run
    summary = {}
    for key, pairs in sets.items():
        sides = ("parent", "change", "control") if any("control" in p for p in pairs.values()) else ("parent", "change")
        whole = [p for p in pairs.values() if all(s in p and p[s]["result"] for s in ("parent", "change"))]
        controlled = [p for p in pairs.values() if all(s in p and p[s]["result"] for s in ("parent", "control"))]
        failed = {side: sum(side in p and not p[side]["result"] for p in pairs.values()) for side in sides}
        digests = {side: sorted({p[side]["digest"] for p in pairs.values() if side in p}) for side in sides}
        metrics = {}
        for name, better in directions.items():
            got = paired_values(whole, "change", name)
            if not got:
                continue
            parent, change = quartiles([a for a, _ in got]), quartiles([b for _, b in got])
            wins = sum((b > a) if better == "higher" else (b < a) for a, b in got)
            gained = change["median"] - parent["median"] if better == "higher" else parent["median"] - change["median"]
            metrics[name] = {
                "better": better,
                "parent": parent,
                "change": change,
                "change_wins": wins,
                "median_ratio": change["median"] / parent["median"] if parent["median"] else None,
                "parent_iqr": parent["q3"] - parent["q1"],
                "median_difference": change["median"] - parent["median"],
                "gain": 10 * wins >= 9 * len(pairs) and gained > parent["q3"] - parent["q1"],
            }
            if "control" in sides:
                metrics[name].update(control_reading(paired_values(controlled, "control", name)))
                spread = metrics[name]["control_spread"]
                metrics[name]["gain"] &= spread is not None and gained > spread
            if name in bounds:
                metrics[name]["beyond_bound"] = -gained > bounds[name] * abs(parent["median"])
        summary[key] = {
            "pairs": len(whole),
            "digests": digests,
            "digests_equal": all(d == digests["parent"] for d in digests.values()),
            "failed": failed,
            "correct": not any(failed.values())
            and all(p[s]["result"]["correct"] for p in pairs.values() for s in sides if s in p),
            "beyond_bound": [name for name, m in metrics.items() if m.get("beyond_bound")],
            "gains": [name for name, m in metrics.items() if m["gain"]],
            "metrics": metrics,
        }
    return summary


def write_json(path, doc):
    part = path.with_name(path.name + ".part")
    part.write_text(json.dumps(doc, indent=1) + "\n")
    os.replace(part, path)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, type=Path, help="checkout of the change")
    parser.add_argument("--control", type=Path, help="a second checkout of the parent, in another directory")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, type=Path, help="BENCH_<n>.json to write or extend")
    args = parser.parse_args(argv)

    directions, bounds = metric_rules()
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.setdefault("command", "python3 perfbench/run.py --workload W --seed S --seconds T --trace R")
    doc.setdefault("order", "parent first in odd pairs, change first in even pairs; "
                   "with a control, parent, change, control in odd pairs and the reverse in even pairs")
    runs = doc.setdefault("runs", [])
    done = [r["pair"] for r in runs if (r["workload"], r["seed"], r["trace"]) == (args.workload, args.seed, args.trace)]
    first_pair = max(done, default=0) + 1
    order = ("parent", "change", "control") if args.control else ("parent", "change")
    for pair in range(first_pair, first_pair + args.pairs):
        sides = order if pair % 2 else order[::-1]
        for side in sides:
            checkout = getattr(args, side)
            run = run_once(checkout, args.workload, args.seed, args.seconds, args.trace)
            doc["host"] = run.pop("host", doc.get("host"))
            runs.append({"side": side, "checkout": str(checkout.resolve()), "workload": args.workload,
                         "seed": args.seed, "trace": args.trace, "pair": pair, "seconds": args.seconds, **run})
            doc["summary"] = summarize(runs, directions, bounds)
            write_json(args.out, doc)
            result = run["result"]
            shown = result["metrics"] if result else {}
            print(f"pair {pair} {side}: digest {str(run['digest'])[:8]} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in shown.items() if v["value"] is not None)
                  + (f" ERROR {run['error'][-200:]}" if not result else ""), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
