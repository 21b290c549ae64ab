"""Reference work that operation times are scaled to.

This runs no code of this repository, so its time follows only how fast
the machine is at that moment. On a shared host that speed switches by
tens of percent for seconds to tens of seconds at a time, and every
operation's time switches with it. Operation times are therefore
reported as they would read on a host where the reference work takes a
fixed time (see README.md, "Reference work").

- cli-suite: a fresh interpreter importing the third-party modules
  cyclicity builds on (REFERENCE_IMPORT), scaled to REFERENCE_S.
- lsq-scaled, capacity-scaled: a fixed in-process numpy loop
  (run_numeric_reference), scaled to NUMERIC_REFERENCE_S.
"""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path

REFERENCE_IMPORT = "import numpy, scipy.linalg"
# about the median reference import on the 2-vCPU host the benchmark was written on
REFERENCE_S = 0.57


# small numpy steps on 1024-vectors, shaped like the equilibrium solver's inner loop
NUMERIC_ITERATIONS = 2000
# about the median numeric reference on the host the benchmark was written on
NUMERIC_REFERENCE_S = 0.034
_numeric_inputs = None


def run_numeric_reference() -> float:
    """Wall seconds of one numeric reference loop, run in this process."""
    import numpy as np

    global _numeric_inputs
    if _numeric_inputs is None:
        rng = np.random.default_rng(0)
        _numeric_inputs = rng.random((1024, 1024)), rng.random(1024), np.full(1024, 1 / 1024)
    kernel, grad0, weights = _numeric_inputs
    start = time.perf_counter()
    grad = grad0.copy()
    for _ in range(NUMERIC_ITERATIONS):
        i, j = int(np.argmin(grad)), int(np.argmax(grad))
        grad += 1e-9 * (kernel[:, i] - kernel[:, j])
        float(grad @ weights)
    return time.perf_counter() - start


def run_reference(cwd: Path) -> float:
    """Wall seconds of one fresh reference-import process."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", REFERENCE_IMPORT], cwd=cwd, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def scaled_to_reference(seconds: float, reference_s: float) -> float:
    """`seconds` on a host where the reference import takes REFERENCE_S."""
    return seconds * REFERENCE_S / reference_s
