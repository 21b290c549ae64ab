"""Configs and output checks of the `cli-suite` workload.

The twelve configs in cli_configs.json are the acceptance suite's CLI
configs. The workload seed replaces every seed they carry (corona-check
samples, the weight-perturb draw, the report's zero-set seed), so the
outputs of those three commands follow the seed and are checked through
invariants; the rest are checked against closed forms and the references
recorded in references.json. This module does not import cyclicity.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from pathlib import Path

from checks import Check, all_close, close, energy_close
from seeds import sub_seeds

HERE = Path(__file__).resolve().parent
SEEDED = {"corona-check": "corona", "perturb": "perturb", "report": "report"}


def configs(seed: int) -> dict[str, dict]:
    subs = sub_seeds(seed)
    out = json.loads((HERE / "cli_configs.json").read_text())
    for command, key in SEEDED.items():
        out[command]["seed"] = subs[key]
    return out


def config_path(work: Path, command: str) -> Path:
    return work / f"{command}.config.json"


def write_configs(seed: int, work: Path) -> None:
    for command, config in configs(seed).items():
        config_path(work, command).write_text(json.dumps(config, sort_keys=True))


def run_command(command: str, work: Path, out: Path, spans: Path | None) -> tuple[float, int, str]:
    """Run one command as a fresh process; return (wall seconds, exit code, stderr).

    Untraced runs are `python -m cyclicity`; traced runs go through
    cli_shim.py, which writes the command's spans to `spans`.
    """
    tail = [command, "--config", str(config_path(work, command)), "--out", str(out)]
    if spans is None:
        argv = [sys.executable, "-m", "cyclicity", *tail]
    else:
        argv = [sys.executable, str(HERE / "cli_shim.py"), str(spans), *tail]
    start = time.perf_counter()
    proc = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    return time.perf_counter() - start, proc.returncode, proc.stderr.decode(errors="replace")


def _hardy_oracle(label, residual, n):
    # Hardy space, f = 1 - z: the degree-n residual squared is 1/(n+2)
    return close(label, residual**2, 1.0 / (n + 2), rel=1e-9)


def check(command: str, result: dict, config: dict, ref: dict | None) -> list[tuple]:
    """(label, ok, detail) for one command's `result` object."""
    out = []
    if command == "index":
        out.append(_hardy_oracle("residual^2 = 1/(n+2)", result["residual"], config["n"]))
    elif command == "sweep":
        out += [_hardy_oracle(f"n={n}: residual^2 = 1/(n+2)", r, n)
                for n, r in zip(result["degrees"], result["residuals"])]
    elif command == "free-index":
        # free Hardy, 1 - Z1: same closed form as the Hardy space
        out.append(_hardy_oracle("free residual^2 = 1/(n+2)", result["residual"], config["n"]))
    elif command == "compress-check":
        out.append(Check("free residual >= Drury-Arveson residual",
                    result["freeResidual"] >= result["commutativeResidual"] - 1e-10,
                    f"{result['freeResidual']!r} vs {result['commutativeResidual']!r}"))
        if ref:
            out.append(close("free residual vs reference", result["freeResidual"], ref["freeResidual"]))
    elif command == "corona-check":
        floor = 2.0 - config["rho"]
        out += [
            Check("sigma_min(2I - Z1) >= 2 - rho", result["minOverSamples"] >= floor - 1e-9,
             repr(result["minOverSamples"])),
            Check("inverse norm within envelope",
             result["maxTupleNorm"] <= result["tupleNormEnvelope"] + 1e-9, repr(result["maxTupleNorm"])),
            Check("sample count", len(result["minSingularValues"]) == config["samples"], ""),
        ]
        if ref:
            out.append(all_close("theta norms vs reference", result["thetaNorms"], ref["thetaNorms"]))
    elif command == "capacity":
        out.append(Check("converged", result["iterations"] < config.get("maxIter", 20000)
                    or result["kktGap"] <= config.get("tol", 1e-7), repr(result["kktGap"])))
        if ref:
            out.append(energy_close("energy vs reference", result["energy"], result["kktGap"], ref))
    elif command == "dimension":
        out.append(Check("arc box dimension is about 1", abs(result["dimension"] - 1.0) <= 0.02,
                    repr(result["dimension"])))
        if ref:
            out.append(close("dimension vs reference", result["dimension"], ref["dimension"], rel=1e-9))
    elif command == "perturb":
        out += [
            _hardy_oracle("base residual^2 = 1/(n+2)", result["baseResidual"], config["n"]),
            Check("perturbed residual within bound", result["holds"]
             and result["perturbedResidual"] <= result["bound"], repr(result["perturbedResidual"])),
            Check("realized epsilon <= requested", result["realizedEpsilon"] <= result["requestedEpsilon"], ""),
        ]
    elif command == "mixed-norm":
        # p = q = 2, area measure: the Bergman norm, ||1 - z||^2 = 1 + 1/2
        out.append(close("p=q=2 norm equals the Hilbert norm", result["norm"], math.sqrt(1.5), rel=1e-10))
    elif command == "varexp-norm":
        if ref:
            out.append(close("norm vs reference", result["norm"], ref["norm"], rel=1e-9))
    elif command == "mixed-index":
        # p = q = 2 at the boundary point mass is the Hardy space
        out += [_hardy_oracle(f"n={r['n']}: objective^2 = 1/(n+2)", r["value"], r["n"])
                for r in result["results"]]
        out.append(Check("converged", all(r["converged"] for r in result["results"]), ""))
    elif command == "report":
        if ref:
            out += [
                Check("verdict vs reference", result["verdict"] == ref["verdict"], result["verdict"]),
                all_close("sweep residuals vs reference", result["sweep"]["residuals"],
                           ref["residuals"], rel=1e-9),
            ]
    return out


def record(command: str, result: dict) -> dict | None:
    """The seed-independent values check() compares against."""
    if command == "compress-check":
        return {"freeResidual": result["freeResidual"]}
    if command == "corona-check":
        return {"thetaNorms": result["thetaNorms"]}
    if command == "capacity":
        return {"energy": result["energy"], "kkt_gap": result["kktGap"]}
    if command == "dimension":
        return {"dimension": result["dimension"]}
    if command == "varexp-norm":
        return {"norm": result["norm"]}
    if command == "report":
        return {"verdict": result["verdict"], "residuals": result["sweep"]["residuals"]}
    return None
