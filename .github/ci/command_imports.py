"""Which `cyclicity` modules each acceptance command loads, and their import self-times.

Runs each config of perfbench/cli_configs.json once in a fresh
`python -X importtime` process that runs the package as `python -m cyclicity`
does (`runpy.run_module`), with PYTHONDONTWRITEBYTECODE=1 so that every module
is compiled as the benchmark's processes compile it. It prints a Markdown
table of the `cyclicity` modules in that process's `sys.modules` when the
command ends, each with the self-time `-X importtime` gave it (compile
included). A module that a command does not call but now loads, say after
an eager import, shows in its row. `-X importtime` does not log a submodule
loaded by `from . import name`, so such a module is listed with its time
counted in its importer's. It only reports: a command that fails is listed
with its exit code, and the script always exits 0.

usage: PYTHONPATH=src python .github/ci/command_imports.py >> "$GITHUB_STEP_SUMMARY"
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
# runs the package as `python -m cyclicity` does, then prints the names of
# the package's modules that the process holds
RUN = """\
import json, runpy, sys
sys.argv = ['cyclicity', *sys.argv[1:]]
try:
    runpy.run_module('cyclicity', run_name='__main__')
finally:
    print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'cyclicity')))
"""


def self_times(stderr: str) -> dict[str, int]:
    """Self-time in µs of each `cyclicity` import in `-X importtime` output."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        self_us, _, name = (part.strip() for part in line.removeprefix("import time:").split("|"))
        if name.split(".")[0] == "cyclicity":
            out[name] = int(self_us)
    return out


def main() -> None:
    configs = json.loads((ROOT / "perfbench" / "cli_configs.json").read_text())
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    print("### Modules each command loads")
    print()
    print("A fresh `python -X importtime -m cyclicity <command>` per acceptance config,")
    print("without bytecode caches; self-times in ms, compile included.")
    print()
    print("| command | `cyclicity` modules (self ms) | total ms |")
    print("|---|---|---|")
    with tempfile.TemporaryDirectory() as work:
        for command, config in configs.items():
            path = Path(work, f"{command}.json")
            path.write_text(json.dumps(config))
            proc = subprocess.run(
                [sys.executable, "-X", "importtime", "-c", RUN, command,
                 "--config", str(path), "--out", work],
                capture_output=True, text=True, env=env,
            )
            times = self_times(proc.stderr)
            modules = json.loads(proc.stdout.splitlines()[-1]) if proc.stdout else sorted(times)
            listed = ", ".join(f"`{name}` " + (f"{times[name] / 1000:.1f}" if name in times
                                                else "(in its importer)") for name in modules)
            if proc.returncode:
                listed += f" (exited {proc.returncode})"
            print(f"| {command} | {listed} | {sum(times.values()) / 1000:.1f} |")


if __name__ == "__main__":
    main()
