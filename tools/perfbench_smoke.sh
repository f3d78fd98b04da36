#!/usr/bin/env bash
# Repository-benchmark smoke: builds perfbench/ through perfbench/run.py
# (Release, under <target-dir> as CARGO_TARGET_DIR) and runs every
# BENCHMARK.json workload for one second, then compile_matrix once more
# traced. Fails unless every run's result line reports "correct": true,
# so a src/ change that breaks the benchmark, or makes its gen_* metrics
# or per-layer counts disagree between runs, fails CI.
#
# Usage: tools/perfbench_smoke.sh <target-dir>

set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$1"
export CARGO_TARGET_DIR=$(cd "$1" && pwd)
cd "$root"

workloads=$(python3 -c 'import json
print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
for run in $(printf '%s:0 ' $workloads) compile_matrix:1; do
  workload=${run%:*}
  trace=${run#*:}
  result=$(python3 perfbench/run.py --workload "$workload" --seed 1 \
    --seconds 1 --trace "$trace" | tail -n 1)
  case $result in
    *'"correct": true'*) echo "perfbench smoke: $workload (trace $trace) correct" ;;
    *) echo "perfbench smoke: $workload (trace $trace) FAILED: $result"
       exit 1 ;;
  esac
done
