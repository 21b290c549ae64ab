"""Traced stand-in for `python -m cyclicity`, used by traced cli-suite passes.

    python perfbench/cli_shim.py SPANS_OUT COMMAND --config ... --out ...

Times `import cyclicity`, installs the spans of `tracing` (including one
around `cli.COMMANDS[COMMAND]`), runs the CLI's own `main`, and writes the
spans to SPANS_OUT when the command ends.
"""

import json
import sys
import time
from pathlib import Path

start = time.perf_counter()
import cyclicity.cli  # noqa: E402

import_s = time.perf_counter() - start
sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracing import Tracer  # noqa: E402


def main(argv: list[str]) -> int:
    spans_out, command = Path(argv[0]), argv[1]
    tracer = Tracer()
    with tracer.installed(command):
        code = cyclicity.cli.main(argv[1:])
    spans_out.write_text(json.dumps({"import_s": import_s, "spans": tracer.spans}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
