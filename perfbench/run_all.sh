#!/usr/bin/env bash
# Run every workload once and print each one's metric lines and result.
# Usage, from the repository root: bash perfbench/run_all.sh [seed] [seconds] [trace]
set -euo pipefail
seed=${1:-42}
seconds=${2:-25}
trace=${3:-0}
for workload in cv-iris cv-breast_cancer optbench-suite predict-bulk; do
    echo "== $workload"
    python3 perfbench/run.py --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace"
done
