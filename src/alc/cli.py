"""Command-line interface.

Subcommands: ``crossval``, ``ablate``, ``optbench``, ``fetch``, ``predict``.
Exit codes: 0 success, 2 configuration error, 3 ingest or integrity error,
4 numeric failure.

Config files are plain ``key = value`` lines (``#`` comments allowed) with
keys mirroring the experiment config: dataset, lobules, epochs, agents,
k_folds, seed, variant, standardize, lda_dims, subsample. Command-line flags
override file values.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import cec2019, data, experiments, fetch, model
from .errors import (
    AlcError,
    ConfigError,
    IngestError,
    IntegrityError,
    NumericError,
    ParameterError,
    VariantError,
)

_CONFIG_KEYS = {
    "dataset": str,
    "lobules": int,
    "epochs": int,
    "agents": int,
    "k_folds": int,
    "seed": int,
    "variant": str,
    "standardize": None,  # parsed as bool
    "lda_dims": int,
    "subsample": int,
}


def _parse_bool(raw, key):
    value = raw.strip().lower()
    if value in ("true", "yes", "1", "on"):
        return True
    if value in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"config key {key}: cannot parse {raw!r} as a boolean")


def read_config_file(path):
    """Parse a key-value config file into a plain dict."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    values = {}
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if _CONFIG_KEYS[key] is None:
            values[key] = _parse_bool(raw, key)
        else:
            try:
                values[key] = _CONFIG_KEYS[key](raw)
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: bad value {raw!r} for {key}") from None
    return values


def _build_experiment_config(args):
    file_values = read_config_file(args.config) if args.config else {}
    dataset_id = args.dataset or file_values.get("dataset")
    if dataset_id is None:
        raise ConfigError("no dataset given (use --dataset or a config file)")
    overrides = {key: value for key, value in file_values.items() if key != "dataset"}
    for key in _CONFIG_KEYS:
        value = getattr(args, "folds" if key == "k_folds" else key, None)
        if key != "dataset" and value is not None:
            overrides[key] = value
    if getattr(args, "no_standardize", False):
        overrides["standardize"] = False
    if getattr(args, "full", False):
        overrides["subsample"] = None
    return experiments.default_config(dataset_id, **overrides)


def _add_common_experiment_flags(parser):
    parser.add_argument("--dataset", help="dataset id (iris, wine, breast_cancer, voice_gender, mnist)")
    parser.add_argument("--config", help="key-value config file; flags override it")
    parser.add_argument("--seed", type=int, help="experiment seed")
    parser.add_argument("--lobules", type=int, help="internal width of the classifier")
    parser.add_argument("--epochs", type=int, help="optimizer epochs")
    parser.add_argument("--agents", type=int, help="optimizer population size")
    parser.add_argument("--folds", type=int, help="cross-validation fold count")
    parser.add_argument("--variant", choices=model.VARIANTS, help="model variant to train")
    parser.add_argument("--lda-dims", dest="lda_dims", type=int, help="project to this many discriminant axes")
    parser.add_argument("--no-standardize", dest="no_standardize", action="store_true")
    parser.add_argument("--subsample", type=int, help="stratified subsample size before splitting")
    parser.add_argument("--full", action="store_true", help="disable the default subsample")
    parser.add_argument("--out-dir", dest="out_dir", default="out", help="report directory root")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--jobs", type=int, default=1, help="parallel fold/cell workers")
    parser.add_argument("--data-dir", dest="data_dir", help="dataset cache override")


def _cmd_crossval(args):
    cfg = _build_experiment_config(args)
    dataset = data.load_dataset(cfg.dataset_id, data_dir=args.data_dir)
    if args.lobule_grid:
        grid = [int(v) for v in args.lobule_grid.split(",") if v.strip()]
        result, rows = experiments.lobule_grid_search(cfg, grid or None, dataset=dataset, jobs=args.jobs)
        for p, acc, _ in rows:
            print(f"lobules={p}: mean validation accuracy {acc:.4f}")
        cfg = result.config
        print(f"selected lobules={cfg.lobules}")
    else:
        result = experiments.run_crossval(cfg, dataset=dataset, jobs=args.jobs)
    out = experiments.write_crossval_reports(
        result, Path(args.out_dir) / f"crossval_{cfg.dataset_id}", fmt=args.format
    )
    m = result.mean
    print(
        f"{cfg.dataset_id}: loss={m.loss:.4f} accuracy={m.accuracy:.4f} "
        f"precision={m.precision:.4f} recall={m.recall:.4f} f1={m.f1:.4f} "
        f"overfitting_gap={m.overfitting_gap:+.4f} time={m.wall_time:.2f}s"
    )
    print(f"reports written to {out}")
    return 0


def _cmd_ablate(args):
    if args.variant is not None or (args.config and "variant" in read_config_file(args.config)):
        raise ConfigError("ablate runs every variant; remove --variant and any 'variant =' config line")
    cfg = _build_experiment_config(args)
    dataset = data.load_dataset(cfg.dataset_id, data_dir=args.data_dir)
    results = experiments.run_ablation(cfg, dataset=dataset, jobs=args.jobs)
    coerced = results["identity-vitamin"].config.lobules
    if coerced != cfg.lobules:
        print(f"identity-vitamin needs lobules == classes; using lobules={coerced} for that row")
    out = experiments.write_ablation_reports(
        results, Path(args.out_dir) / f"ablation_{cfg.dataset_id}", fmt=args.format
    )
    for tag, result in results.items():
        m = result.mean
        print(f"{tag:17s} loss={m.loss:.4f} accuracy={m.accuracy:.4f} gap={m.overfitting_gap:+.4f}")
    print(f"reports written to {out}")
    return 0


def _cmd_optbench(args):
    function_ids = tuple(v.strip() for v in args.functions.split(",") if v.strip())
    optimizer_ids = tuple(v.strip() for v in args.optimizers.split(",") if v.strip())
    transforms = {}
    if args.transform_dir:
        for fid in function_ids:
            path = Path(args.transform_dir) / f"{fid}.txt"
            if path.exists():
                transforms[fid] = cec2019.load_transform(path, cec2019.suite_info(fid).dim)
    result = experiments.run_optbench(
        function_ids=function_ids,
        optimizer_ids=optimizer_ids,
        runs=args.runs,
        epochs=args.epochs if args.epochs is not None else experiments.DEFAULT_EPOCHS,
        agents=args.agents if args.agents is not None else experiments.DEFAULT_AGENTS,
        seed=args.seed if args.seed is not None else 1,
        jobs=args.jobs,
        transforms=transforms,
    )
    out = experiments.write_optbench_reports(result, Path(args.out_dir) / "optbench", fmt=args.format)
    for row in result.stats:
        print(
            f"{row['function']:4s} {row['optimizer']:7s} "
            f"mean={row['mean']:.6g} std={row['std']:.3g} min={row['min']:.6g}"
        )
    ranks = result.ranks
    for opt in ranks.optimizers:
        print(f"{opt}: total rank {ranks.totals[opt]:g}, average {ranks.averages[opt]:.2f}")
    print(f"reports written to {out}")
    return 0


def _cmd_fetch(args):
    paths = fetch.fetch_dataset(args.dataset_id, dest_dir=args.data_dir)
    for p in paths:
        print(p)
    return 0


def _cmd_predict(args):
    params, variant, _meta = model.load_model(args.model)
    if args.label_column:
        x = data.load_csv(
            args.data, label_column=args.label_column, has_header=not args.no_header
        ).x
    else:
        x = data.load_features(args.data, has_header=not args.no_header)
    if x.shape[1] != params.n_features:
        raise IngestError(
            f"{args.data} has {x.shape[1]} feature columns, model expects {params.n_features}"
        )
    labels = model.predict(x, params, variant)
    lines = [str(int(label)) for label in labels]
    if args.out:
        with data.atomic_path(args.out) as part:
            part.write_text("\n".join(lines) + "\n")
        print(f"wrote {len(lines)} predictions to {args.out}")
    else:
        for line in lines:
            print(line)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="alc",
        description="Liver-inspired classifier, gradient-free training, and benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cv = sub.add_parser("crossval", help="k-fold cross-validation of the classifier")
    _add_common_experiment_flags(p_cv)
    p_cv.add_argument("--lobule-grid", dest="lobule_grid", help="comma list of widths to search")
    p_cv.set_defaults(func=_cmd_crossval)

    p_ab = sub.add_parser("ablate", help="run every model variant on one dataset")
    _add_common_experiment_flags(p_ab)
    p_ab.set_defaults(func=_cmd_ablate)

    p_ob = sub.add_parser("optbench", help="benchmark optimizers on the function suite")
    p_ob.add_argument("--functions", default=",".join(cec2019.FUNCTION_IDS))
    p_ob.add_argument("--optimizers", default="ifox,fox")
    p_ob.add_argument("--runs", type=int, default=30)
    p_ob.add_argument("--epochs", type=int)
    p_ob.add_argument("--agents", type=int)
    p_ob.add_argument("--seed", type=int)
    p_ob.add_argument("--out-dir", dest="out_dir", default="out")
    p_ob.add_argument("--format", choices=("csv", "json"), default="csv")
    p_ob.add_argument("--jobs", type=int, default=1)
    p_ob.add_argument("--transform-dir", dest="transform_dir", help="directory of per-function transform files")
    p_ob.set_defaults(func=_cmd_optbench)

    p_fetch = sub.add_parser("fetch", help="download a dataset into the local cache")
    p_fetch.add_argument("dataset_id")
    p_fetch.add_argument("--data-dir", dest="data_dir")
    p_fetch.set_defaults(func=_cmd_fetch)

    p_pred = sub.add_parser("predict", help="label a CSV with a saved model")
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--data", required=True)
    p_pred.add_argument("--label-column", dest="label_column", help="ignore this label column in the input")
    p_pred.add_argument("--no-header", dest="no_header", action="store_true")
    p_pred.add_argument("--out", help="write predictions here instead of stdout")
    p_pred.set_defaults(func=_cmd_predict)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ParameterError, VariantError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (IngestError, IntegrityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except AlcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
