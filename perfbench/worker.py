"""One benchmark worker process: set up a workload, then run timed passes.

    python perfbench/worker.py WORKLOAD SEED WORK_DIR SECONDS TRACE [--setup-only]

The worker is the workload's single closed-loop client: it runs one
operation at a time. It prints a `ready` line once `import cyclicity` and
the workload's inputs are built; the parent times set-up from process
start to that line. It then runs whole passes while the next pass is
expected to end within SECONDS, and at least MIN_PASSES passes, so that
each cli-suite command's output is compared across passes. A scaled pass
runs each operation `repeat` times (see scaled.py). Passes time the
reference work of reference.py between operations: the numeric loop on
capacity-scaled, the reference import on cli-suite (untraced passes).
It prints one JSON document with every operation sample. With TRACE=1
passes alternate untraced and traced, so the two can be compared within
one run.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from reference import run_numeric_reference, run_reference  # noqa: E402

MIN_PASSES = 2
# cli-suite commands between two reference imports
REFERENCE_EVERY = 3


def _setup(workload: str, seed: int, work: Path):
    start = time.perf_counter()
    import cyclicity  # noqa: F401  (timed: the import every user pays)

    import_s = time.perf_counter() - start
    if workload == "cli-suite":
        import cli_suite

        cli_suite.write_configs(seed, work)
        return import_s, cli_suite.configs(seed)
    import scaled

    build, ops, pass_checks, numeric_reference = scaled.WORKLOADS[workload]
    return import_s, (build(seed), ops, pass_checks, numeric_reference)


def _check_dicts(checks) -> list[dict]:
    return [{"label": label, "ok": bool(ok), "detail": detail} for label, ok, detail in checks]


def _scaled_pass(setup, refs, out: Path, tracer):
    """Run every operation `op.repeat` times; spans cover the timed calls, never the checks.

    For capacity-scaled, the numeric reference loop runs before the first
    operation and after each.
    """
    inputs, ops, pass_checks, numeric_reference = setup
    samples, results, groups = [], {}, []
    references = [run_numeric_reference()] if numeric_reference else []
    for op in [op for op in ops for _ in range(op.repeat)]:
        if tracer:
            tracer.reset()
        with tracer.installed() if tracer else contextlib.nullcontext():
            start = time.perf_counter()
            try:
                result, error = op.run(inputs, out), None
            except Exception:  # a raising operation is counted, not fatal
                result, error = None, traceback.format_exc(limit=3)
            elapsed = time.perf_counter() - start
        if numeric_reference:
            references.append(run_numeric_reference())
        if tracer:
            groups.append(tracer.spans)
        if error:
            samples.append({"op": op.name, "s": elapsed, "error": error, "checks": []})
            continue
        results[op.name] = result
        checks = op.check(result, refs.get(op.name), inputs)
        samples.append({"op": op.name, "s": elapsed, "unconverged": op.failure(result),
                        "checks": _check_dicts(checks)})
    samples[-1]["checks"] += _check_dicts(pass_checks(results))
    return samples, groups, [], references


def _cli_pass(configs, refs, out: Path, traced: bool, work: Path, first: dict):
    """Run the twelve commands once each as fresh processes and check their files.

    An untraced pass also runs the reference import before the first command,
    after every REFERENCE_EVERY commands and after the last; each command's
    `ref_s` is the mean of the two reference imports around it.
    """
    import cli_suite

    samples, groups, imports, references = [], [], [], []
    for k, (command, config) in enumerate(configs.items()):
        if not traced and k % REFERENCE_EVERY == 0:
            references.append(run_reference(work))
        target = out / command
        spans = target / "spans.json" if traced else None
        if traced:
            target.mkdir(parents=True)
        elapsed, code, stderr = cli_suite.run_command(command, work, target, spans)
        sample = {"op": command, "s": elapsed, "checks": []}
        samples.append(sample)
        if code != 0:
            sample["error"] = f"exit {code}: {stderr.strip()}"
            continue
        if traced:
            traced_run = json.loads(spans.read_text())
            groups.append(traced_run["spans"])
            imports.append(traced_run["import_s"])
        files = sorted(target.glob(f"{command}.*"))
        digest = hashlib.sha256(b"".join(f.read_bytes() for f in files)).hexdigest()
        first.setdefault(command, digest)
        result = json.loads((target / f"{command}.json").read_text())["result"]
        checks = cli_suite.check(command, result, config, refs.get(command))
        checks.append(("output byte-identical across passes", digest == first[command], digest[:12]))
        sample["checks"] = _check_dicts(checks)
        sample["unconverged"] = None
    if not traced:
        references.append(run_reference(work))
        for k, sample in enumerate(samples):
            sample["ref_s"] = (references[k // REFERENCE_EVERY] + references[k // REFERENCE_EVERY + 1]) / 2
    return samples, groups, imports, references


def main(argv: list[str]) -> int:
    workload, seed, work, seconds, trace = argv[:5]
    seed, work, seconds, trace = int(seed), Path(work), float(seconds), trace == "1"
    work.mkdir(parents=True, exist_ok=True)
    import_s, setup = _setup(workload, seed, work)
    print(json.dumps({"ready": True, "import_s": import_s}), flush=True)
    if "--setup-only" in argv:
        return 0
    refs = json.loads((HERE / "references.json").read_text()).get(workload, {})

    from tracing import Tracer, layer_metrics

    tracer = Tracer()
    first_digests: dict[str, str] = {}
    passes, durations, all_spans = [], [], []
    start = time.perf_counter()
    while (
        len(passes) < MIN_PASSES
        or time.perf_counter() - start + statistics.median(durations) <= seconds
    ):
        traced = trace and len(passes) % 2 == 1
        out = work / f"pass{len(passes)}"
        out.mkdir()
        pass_start = time.perf_counter()
        if workload == "cli-suite":
            samples, groups, imports, references = _cli_pass(setup, refs, out, traced, work, first_digests)
        else:
            samples, groups, imports, references = _scaled_pass(setup, refs, out, tracer if traced else None)
        durations.append(time.perf_counter() - pass_start)
        passes.append({
            "traced": traced,
            "samples": samples,
            "layers": layer_metrics(groups) if traced else None,
            "import_s": imports,
            "reference_s": references,
        })
        all_spans += [{"pass": len(passes) - 1, "spans": spans} for spans in groups]
    if trace:
        (work / "spans.json").write_text(json.dumps(all_spans))
    print(json.dumps({"passes": passes}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
