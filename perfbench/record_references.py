"""Record the reference outputs the benchmark checks against.

    PYTHONPATH=src python3 perfbench/record_references.py

Run from the repository root on the commit whose outputs are the
reference; it rewrites perfbench/references.json. Only seed-independent
values are recorded; seeded outputs are checked through invariants.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import cli_suite  # noqa: E402
import scaled  # noqa: E402


def main() -> int:
    refs = {}
    for workload, (build, ops, *_) in scaled.WORKLOADS.items():
        inputs = build(0)
        with tempfile.TemporaryDirectory() as out:
            recorded = {op.name: op.record(op.run(inputs, Path(out))) for op in ops}
        refs[workload] = {name: value for name, value in recorded.items() if value is not None}
    refs["cli-suite"] = {}
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        cli_suite.write_configs(0, work)
        for command in cli_suite.configs(0):
            subprocess.run(
                [sys.executable, "-m", "cyclicity", command, "--config",
                 str(cli_suite.config_path(work, command)), "--out", str(work)],
                check=True, capture_output=True,
            )
            result = json.loads((work / f"{command}.json").read_text())["result"]
            value = cli_suite.record(command, result)
            if value is not None:
                refs["cli-suite"][command] = value
    (HERE / "references.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
