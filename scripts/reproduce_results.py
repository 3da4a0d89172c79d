#!/usr/bin/env python3
"""Run the full desk-scale experiment battery and write reports under out/.

Each block is one ``alc`` command: ``crossval`` on the bundled datasets,
``ablate`` on breast_cancer, and ``optbench`` over the function suite. Each
fetched dataset (``alc fetch <id>``) is included when its files are already
in the local cache. The battery stops at the first command that fails and
exits with its code.
"""

import argparse
import sys

from alc import cli
from alc.data import BUNDLED_DATASETS
from alc.fetch import REMOTE_FILES, dataset_available


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--runs", type=int, default=30, help="benchmark repetitions")
    parser.add_argument("--out-dir", default="out")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--skip-optbench", action="store_true")
    args = parser.parse_args(argv)

    datasets = list(BUNDLED_DATASETS)
    for dataset_id in REMOTE_FILES:
        if dataset_available(dataset_id):
            datasets.append(dataset_id)
        else:
            print(f"note: {dataset_id} not in cache, skipping (alc fetch {dataset_id})")

    common = ["--out-dir", args.out_dir, "--jobs", str(args.jobs)]
    seeded = ["--seed", str(args.seed), *common]
    commands = [["crossval", "--dataset", dataset_id, *seeded] for dataset_id in datasets]
    commands.append(["ablate", "--dataset", "breast_cancer", *seeded])
    if not args.skip_optbench:
        commands.append(["optbench", "--runs", str(args.runs), "--seed", "1", *common])
    for command in commands:
        code = cli.main(command)
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
