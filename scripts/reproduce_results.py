#!/usr/bin/env python3
"""Run the full desk-scale experiment battery and write reports under out/.

Each block is one ``alc`` command: ``crossval`` on the three bundled
datasets, ``ablate`` on breast_cancer, and ``optbench`` over the function
suite. The two fetchable datasets are included automatically when their
files are already in the local cache (``alc fetch voice_gender``,
``alc fetch mnist``). The battery stops at the first command that fails and
exits with its code.
"""

import argparse
import sys

from alc import cli
from alc.fetch import dataset_available


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--runs", type=int, default=30, help="benchmark repetitions")
    parser.add_argument("--out-dir", default="out")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--skip-optbench", action="store_true")
    args = parser.parse_args(argv)

    datasets = ["iris", "wine", "breast_cancer"]
    for dataset_id in ("voice_gender", "mnist"):
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
