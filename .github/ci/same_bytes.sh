#!/usr/bin/env bash
# Same-bytes report: runs the 12 acceptance configs of
# perfbench/cli_configs.json through `python -m cyclicity` at BASE_REF (in a
# temporary git worktree) and at the checked-out tree, then reports which
# .json / .csv outputs differ, the src/ line totals of both and their signed
# difference. A differing pair is listed with the largest relative
# difference between the numbers at the same JSON path (.json) or the same
# row and column (.csv), or as "structure differs", so that a
# rounding-level change reads as one. It writes Markdown to
# $GITHUB_STEP_SUMMARY, or to stdout outside CI, and only reports: a
# differing output, or a command that fails on either side, is listed,
# never an exit status.
# usage: bash .github/ci/same_bytes.sh BASE_REF
set -u
base_ref=${1:?usage: same_bytes.sh BASE_REF}
root=$(git rev-parse --show-toplevel)
work=$(mktemp -d "${RUNNER_TEMP:-${TMPDIR:-/tmp}}/same-bytes.XXXXXX")
summary=${GITHUB_STEP_SUMMARY:-/dev/stdout}
trap 'git -C "$root" worktree remove --force "$work/base" >/dev/null 2>&1; rm -rf "$work"' EXIT

if ! git -C "$root" worktree add --detach "$work/base" "$base_ref" >/dev/null 2>&1; then
  echo "same-bytes report: cannot check out $base_ref" >> "$summary"
  exit 0
fi

# one config file per command, from the checked-out tree's list
python3 - "$root/perfbench/cli_configs.json" "$work/configs" <<'EOF'
import json, pathlib, sys
out = pathlib.Path(sys.argv[2])
out.mkdir()
for command, config in json.loads(pathlib.Path(sys.argv[1]).read_text()).items():
    (out / f"{command}.json").write_text(json.dumps(config))
EOF

# the largest relative difference between numbers at the same place of two
# files, the same JSON path of .json files or the same row and column of
# .csv files, or "structure differs" when their keys, lengths, columns or
# non-numbers do
gap() {
  python3 - "$1" "$2" <<'EOF' 2>/dev/null || echo "unreadable"
import csv, json, math, sys

def relative(a, b):
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0

def gaps(a, b, path):
    number = (int, float)
    if isinstance(a, number) and isinstance(b, number) and bool not in (type(a), type(b)):
        yield relative(a, b), path
    elif isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        for key in a:
            yield from gaps(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from gaps(x, y, f"{path}[{i}]")
    elif a != b:
        raise ValueError(path)

def finite(cell):
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None

def csv_gaps(a, b):
    if len(a) != len(b):
        raise ValueError("the row count")
    for i, (row_a, row_b) in enumerate(zip(a, b)):
        if len(row_a) != len(row_b):
            raise ValueError(f"row {i}")
        for j, (x, y) in enumerate(zip(row_a, row_b)):
            place = f"row {i}, column {a[0][j]}"
            if x == y:
                yield 0.0, place
            elif finite(x) is None or finite(y) is None:
                raise ValueError(place)
            else:
                yield relative(finite(x), finite(y)), place

if sys.argv[1].endswith(".csv"):
    a, b = (list(csv.reader(open(p, newline=""))) for p in sys.argv[1:])
    found = csv_gaps(a, b)
else:
    a, b = (json.load(open(p)) for p in sys.argv[1:])
    found = gaps(a, b, "$")
try:
    gap, place = max(found, default=(0.0, "$"))
except ValueError as exc:
    print(f"structure differs at {exc}")
else:
    print(f"largest relative difference {gap:.3g} at {place}")
EOF
}

for side in base head; do
  src=$root/src
  [ "$side" = base ] && src=$work/base/src
  for cfg in "$work"/configs/*.json; do
    command=$(basename "$cfg" .json)
    PYTHONPATH=$src python3 -m cyclicity "$command" --config "$cfg" \
      --out "$work/out-$side" >/dev/null 2>"$work/$side-$command.err" \
      || echo "$command exited $? at $side" >> "$work/failures"
  done
done

{
  echo "### Same-bytes report against \`$base_ref\`"
  echo
  differ=0
  for cfg in "$work"/configs/*.json; do
    command=$(basename "$cfg" .json)
    for ext in json csv; do
      a=$work/out-base/$command.$ext
      b=$work/out-head/$command.$ext
      [ -e "$a" ] || [ -e "$b" ] || continue
      if ! cmp -s "$a" "$b"; then
        echo "- \`$command.$ext\` differs: $(gap "$a" "$b")"
        differ=$((differ + 1))
      fi
    done
  done
  [ -e "$work/failures" ] && sed 's/^/- /' "$work/failures"
  [ "$differ" -eq 0 ] && echo "All .json and .csv outputs are byte-identical."
  echo
  base_lines=$(cat "$work"/base/src/cyclicity/*.py | wc -l)
  head_lines=$(cat "$root"/src/cyclicity/*.py | wc -l)
  echo "src/ lines: $base_lines at \`$base_ref\`, $head_lines here" \
       "($(printf '%+d' $((head_lines - base_lines))))."
} >> "$summary"
exit 0
