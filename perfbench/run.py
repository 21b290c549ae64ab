"""Benchmark of the cyclicity CLI and library at scaled sizes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
./src, nothing is installed. Workloads (see README.md for why each exists):

    cli-suite        the acceptance suite's 12 CLI configs, each a fresh
                     `python -m cyclicity` process
    lsq-scaled       index sweeps, a large free index and IRLS mixed
                     indices in one process
    capacity-scaled  equilibrium measures on 1024/4096-point arcs and a
                     sphere cap, plus boundary geometry, in one process

Each run times the set-up of three fresh workers (set-up time is their
median): one before and one after the worker that runs whole passes for S
seconds, so the samples see different moments of a shared machine.
cli-suite and capacity-scaled operation times are scaled to reference work
timed next to them (see reference.py). The last stdout line is the JSON
result: end-to-end metrics with --trace 0, per-layer metrics with
--trace 1. Lines before it give every timing with its sample count, the
environment, failed operations and failed checks. Full results and spans
go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from reference import (  # noqa: E402
    NUMERIC_REFERENCE_S, REFERENCE_IMPORT, REFERENCE_S, scaled_to_reference,
)
from tracing import LAYERS  # noqa: E402  (imports nothing from cyclicity)

WORKLOADS = ("cli-suite", "lsq-scaled", "capacity-scaled")
# set-up is timed on fresh workers before and after the measuring one
SETUPS_AROUND = 1
INTERP_PROBES = 5
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "batch_s": "s",
    "op_geomean_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}
# Per-layer metrics that the worker's spans do not give.
EXTRA_LAYER_UNITS = {
    "cli.interp_s": "s",
    "cli.import_s": "s",
    "solver.blas_threads": "count",
    "checks.failed": "count",
    "ops.attempted": "count",
    "ops.failed": "count",
    "ops.failed_ratio": "ratio",
    "trace.overhead_s": "s",
}
# Untraced per-operation medians reported with the per-layer metrics, so the
# named cases can be quoted from one traced run.
OP_METRICS = {
    "lsq-scaled": ("sweep_da3", "sweep_dirichlet1", "free_index_d2", "mixed_index_d2", "varexp_sweep"),
    "capacity-scaled": ("equilibrium_arc1024", "equilibrium_arc4096", "equilibrium_cap", "geometry"),
}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest rank with TAIL_BEYOND samples above it.

    None when that rank would not lie above the median (fewer than
    2 * TAIL_BEYOND + 1 samples).
    """
    if len(values) <= 2 * TAIL_BEYOND:
        return None
    ordered = sorted(values)
    rank = len(ordered) - TAIL_BEYOND - 1
    return 100.0 * (rank + 1) / len(ordered), ordered[rank]


def describe(name: str, values: list[float], unit: str = "s") -> str:
    line = f"{name}: median {statistics.median(values):.6g} {unit} over {len(values)} samples"
    t = tail(values)
    if t:
        line += f", p{t[0]:.0f} {t[1]:.6g} {unit} ({TAIL_BEYOND} samples beyond)"
    else:
        line += f", max {max(values):.6g} {unit} (too few samples for a tail percentile)"
    return line


def environment(seed: int, threads: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": threads,
        "seed": seed,
        "machine": platform.machine(),
    }


def spawn_worker(env, root, args, setup_only: bool):
    """Start a worker; return (process, seconds from start to its ready line, ready payload)."""
    argv = [sys.executable, str(HERE / "worker.py"), *map(str, args)]
    if setup_only:
        argv.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        if not line:
            raise RuntimeError(f"worker exited with code {proc.wait()} before set-up finished")
        return proc, setup_s, json.loads(line)
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def finish(proc) -> dict | None:
    text = proc.stdout.read()
    proc.stdout.close()
    if proc.wait() != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(text) if text.strip() else None


def interp_probe(env, root) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], cwd=root, env=env, check=True)
    return time.perf_counter() - start


def summarize(report: dict, setups: list[float]) -> dict:
    """End-to-end metrics, per-operation timings and failure lists from the worker report.

    A cli-suite command is scaled to the reference imports around it.
    capacity-scaled times are scaled to the mean numeric reference loop of
    the run's untraced passes (see reference.py); lsq-scaled times are raw.
    `op_times_raw` keeps the measured times.
    """
    untraced = [p for p in report["passes"] if not p["traced"]]
    references = [t for p in untraced for t in p["reference_s"]]
    op_times: dict[str, list[float]] = {}
    op_times_raw: dict[str, list[float]] = {}
    for p in untraced:
        for sample in p["samples"]:
            if "ref_s" in sample:
                scaled = scaled_to_reference(sample["s"], sample["ref_s"])
            elif references:
                scaled = sample["s"] * NUMERIC_REFERENCE_S / statistics.mean(references)
            else:
                scaled = sample["s"]
            op_times.setdefault(sample["op"], []).append(scaled)
            op_times_raw.setdefault(sample["op"], []).append(sample["s"])
    all_samples = [s for p in report["passes"] for s in p["samples"]]
    errors = [s for s in all_samples if s.get("error")]
    unconverged = [s for s in all_samples if s.get("unconverged")]
    failed_checks = [(s["op"], c) for s in all_samples for c in s["checks"] if not c["ok"]]
    attempted = len(all_samples)
    batches = {
        traced: [sum(s["s"] for s in p["samples"]) for p in report["passes"] if p["traced"] == traced]
        for traced in (False, True)
    }
    return {
        "op_times": op_times,
        "op_times_raw": op_times_raw,
        "attempted": attempted,
        "errors": errors,
        "unconverged": unconverged,
        "failed_checks": failed_checks,
        "checks_run": sum(len(s["checks"]) for s in all_samples),
        "batches": batches,
        "end_to_end": {
            "setup_s": statistics.median(setups),
            # one pass, composed from each operation's median
            "batch_s": sum(statistics.median(v) for v in op_times.values()),
            # every operation weighs the same, however long it runs
            "op_geomean_s": statistics.geometric_mean([statistics.median(v) for v in op_times.values()]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
            "ok_ratio": (attempted - len(errors) - len(unconverged)) / attempted,
        },
    }


def layer_summary(workload, report, summary, interp, imports, threads) -> dict:
    traced = [p for p in report["passes"] if p["traced"]]
    keys = traced[0]["layers"].keys()
    layers = {k: statistics.median(p["layers"][k] for p in traced) for k in keys}
    failed_ops = len(summary["errors"]) + len(summary["unconverged"])
    batches = summary["batches"]
    layers.update({
        "cli.interp_s": statistics.median(interp),
        "cli.import_s": statistics.median(imports),
        "solver.blas_threads": threads,
        "checks.failed": len(summary["failed_checks"]),
        "ops.attempted": summary["attempted"],
        "ops.failed": failed_ops,
        "ops.failed_ratio": failed_ops / summary["attempted"],
        "trace.overhead_s": statistics.median(batches[True]) - statistics.median(batches[False]),
    })
    op_times = summary["op_times"]
    for names in OP_METRICS.values():
        for name in names:
            layers[f"op.{name}_s"] = statistics.median(op_times[name]) if name in op_times else 0.0
    cmd = [t for v in op_times.values() for t in v] if workload == "cli-suite" else []
    layers["op.cmd_p50_s"] = statistics.median(cmd) if cmd else 0.0
    # the maximum stands in when there are too few samples for a tail percentile
    layers["op.cmd_tail_s"] = (tail(cmd) or (None, max(cmd)))[1] if cmd else 0.0
    return layers


def layer_unit(name: str) -> str:
    if name in EXTRA_LAYER_UNITS:
        return EXTRA_LAYER_UNITS[name]
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_bytes", "bytes_written")):
        return "B"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith(("_condition", "kkt_gap_max")):
        return "1"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "cyclicity" / "__init__.py").is_file():
        return fail("run from the root of a cyclicity checkout (no src/cyclicity here)")
    threads = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    # the BLAS default here is one thread per core; pin it explicitly so the
    # count is recorded and the same on every commit compared
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    env["PYTHONPATH"] = str(root / "src")
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    work = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    stem = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env_record = environment(args.seed, threads)
    worker_args = (args.workload, args.seed, work, args.seconds, args.trace)

    try:
        interp = [interp_probe(env, root) for _ in range(INTERP_PROBES)] if args.trace else []
        setups, imports = [], []

        def timed_setup(setup_only):
            proc, setup_s, ready = spawn_worker(env, root, worker_args, setup_only)
            setups.append(setup_s)
            imports.append(ready["import_s"])
            return finish(proc)

        for _ in range(SETUPS_AROUND):
            timed_setup(setup_only=True)
        report = timed_setup(setup_only=False)
        for _ in range(SETUPS_AROUND):
            timed_setup(setup_only=True)
        if args.trace:
            shutil.move(work / "spans.json", f"{stem}.spans.json")
    except (RuntimeError, json.JSONDecodeError, OSError) as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    imports += [t for p in report["passes"] for t in p["import_s"]]
    references = [t for p in report["passes"] for t in p["reference_s"]]
    summary = summarize(report, setups)
    print(f"env: {json.dumps(env_record, sort_keys=True)}")
    print(f"workload {args.workload}: {len(report['passes'])} passes, closed loop, one client")
    print(describe("setup_s", setups))
    print(describe("import cyclicity (in-process)", imports))
    if args.workload == "cli-suite":
        print(describe(f"reference import ({REFERENCE_IMPORT!r} in a fresh process)", references))
        print(f"command times below are scaled to a host where the reference import takes "
              f"{REFERENCE_S} s; raw times follow them")
    elif references:
        print(describe("numeric reference loop", references))
        print(f"operation times below are scaled to a host where the mean numeric reference "
              f"loop takes {NUMERIC_REFERENCE_S} s; raw times follow them")
    for name, values in summary["op_times"].items():
        print(describe(f"op {name}", values))
        if values != summary["op_times_raw"][name]:
            print(describe(f"op {name} (raw)", summary["op_times_raw"][name]))
    all_ops = [t for v in summary["op_times"].values() for t in v]
    print(describe("op (all)", all_ops))
    for traced, values in summary["batches"].items():
        if values:
            print(describe(f"pass ({'traced' if traced else 'untraced'}, sum of raw op times)", values))
    failed = len(summary["errors"]) + len(summary["unconverged"])
    print(f"failed_ratio: {failed / summary['attempted']:.6g} ({failed} failed of "
          f"{summary['attempted']} attempted: {len(summary['errors'])} raised, "
          f"{len(summary['unconverged'])} did not converge)")
    for sample in summary["errors"]:
        print(f"FAILED {sample['op']}: {sample['error'].strip().splitlines()[-1]}")
    for name in sorted({s["op"] for s in summary["unconverged"]}):
        reason = next(s["unconverged"] for s in summary["unconverged"] if s["op"] == name)
        print(f"FAILED {name} (did not converge): {reason}")
    print(f"checks: {summary['checks_run'] - len(summary['failed_checks'])} passed, "
          f"{len(summary['failed_checks'])} failed")
    for op, check in summary["failed_checks"][:20]:
        print(f"CHECK FAILED {op}: {check['label']} ({check['detail']})")

    if args.trace:
        layers = layer_summary(args.workload, report, summary, interp, imports, threads)
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
        self_total = sum(layers[f"{layer}.self_s"] for layer in LAYERS)
        print(f"traced-pass self time by layer (median over {sum(p['traced'] for p in report['passes'])} traced passes):")
        for layer in LAYERS:
            v = layers[f"{layer}.self_s"]
            share = v / self_total if self_total else 0.0
            print(f"  {layer:<10} {v:10.4f} s  {100 * share:5.1f}%")
        print(f"trace overhead: {layers['trace.overhead_s']:+.4f} s per pass "
              f"(traced minus untraced median pass)")
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in summary["end_to_end"].items()}
    result = {
        "correct": not summary["failed_checks"] and not summary["errors"],
        "attempted": summary["attempted"],
        "failed": len(summary["errors"]),
        "metrics": metrics,
    }
    record = {"env": env_record, "workload": args.workload, "seconds": args.seconds,
              "setups_s": setups, "reference_s": references,
              "op_times": summary["op_times"], "op_times_raw": summary["op_times_raw"],
              "unconverged": summary["unconverged"], "failed_checks": summary["failed_checks"],
              "result": result}
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
