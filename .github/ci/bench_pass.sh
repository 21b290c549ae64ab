#!/usr/bin/env bash
# One short benchmark pass for every workload in $1 at every trace setting
# in $2, each checked: the last stdout line is the run's JSON result, which
# must read "correct": true and "failed": 0. -eo pipefail makes a crashed
# pass fail the script.
# usage: bash .github/ci/bench_pass.sh "lsq-scaled cli-suite" "0 1"
set -eo pipefail
for workload in $1; do
  for trace in $2; do
    out="${RUNNER_TEMP:-${TMPDIR:-/tmp}}/$workload-trace$trace.out"
    python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 1 --trace "$trace" \
      | tee "$out"
    tail -n 1 "$out" | python3 -c '
import json, sys
result = json.loads(sys.stdin.read())
sys.exit(0 if result["correct"] is True and result["failed"] == 0 else 1)'
  done
done
