#!/usr/bin/env bash
# One short benchmark pass for every workload in $1 at every trace setting
# in $2, each checked: the last stdout line is the run's JSON result, which
# must read "correct": true and "failed": 0. -eo pipefail makes a crashed
# pass fail the script. When $GITHUB_STEP_SUMMARY is set, each checked pass
# also appends one row of its five end-to-end readings to that summary; a
# traced pass reports per-layer metrics instead, so its row reads "-".
# usage: bash .github/ci/bench_pass.sh "lsq-scaled cli-suite" "0 1"
set -eo pipefail
if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
  {
    echo "Benchmark smoke passes (1 s each): readings, not claims"
    echo
    echo "| workload | trace | setup_s | batch_s | op_geomean_s | peak_rss_mb | ok_ratio |"
    echo "|---|---|---|---|---|---|---|"
  } >> "$GITHUB_STEP_SUMMARY"
fi
for workload in $1; do
  for trace in $2; do
    out="${RUNNER_TEMP:-${TMPDIR:-/tmp}}/$workload-trace$trace.out"
    python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 1 --trace "$trace" \
      | tee "$out"
    tail -n 1 "$out" | python3 -c '
import json, os, sys
result = json.loads(sys.stdin.read())
summary = os.environ.get("GITHUB_STEP_SUMMARY")
if summary:
    metrics = result.get("metrics", {})
    names = ("setup_s", "batch_s", "op_geomean_s", "peak_rss_mb", "ok_ratio")
    values = [metrics.get(k, {}).get("value") for k in names]
    cells = [format(v, ".4g") if isinstance(v, (int, float)) else "-" for v in values]
    with open(summary, "a") as table:
        table.write("| " + " | ".join(sys.argv[1:3] + cells) + " |\n")
sys.exit(0 if result["correct"] is True and result["failed"] == 0 else 1)' "$workload" "$trace"
  done
done
