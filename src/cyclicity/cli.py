"""Batch experiment front end.

Usage: cyclicity <command> --config path.json [--out dir]

Every command reads a JSON config, writes <out>/<command>.json (and a CSV
next to it where noted), and exits 0 on success, 2 on validation errors,
3 on numeric failures. Identical config plus seed produces byte-identical
JSON: keys are sorted, floats use shortest round-trip formatting, line
endings are LF, and every stochastic step takes an explicit seed. Each
result embeds its input config as given, without defaults filled in.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
from pathlib import Path

from . import capacity as cap
from . import freespace as free
from . import indices as idx
from . import mixednorm as mx
from .errors import ArgumentError, CyclicityError, NumericFailureError
from .poly import Polynomial, jsonsafe
from .spaces import SpaceSpec, preset

SCHEMA_VERSION = 1

log = logging.getLogger("cyclicity")


def write_json(path: Path, payload: dict) -> None:
    text = json.dumps(jsonsafe(payload), sort_keys=True, indent=2, allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8")


def write_csv(path: Path, rows: list[tuple]) -> None:
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        for row in rows:
            writer.writerow([v if isinstance(v, str) else repr(v) for v in row])


def _require(config: dict, key: str):
    if key not in config:
        raise ArgumentError(f"config is missing required key {key!r}")
    return config[key]


def _require_seed(config: dict) -> int:
    if "seed" not in config:
        raise ArgumentError("this command samples; config must carry an explicit seed")
    return int(config["seed"])


def parse_space(obj) -> SpaceSpec:
    if isinstance(obj, str):
        # "hardy(1)" style preset addressing
        name, _, rest = obj.partition("(")
        if not rest.endswith(")"):
            raise ArgumentError(f"cannot parse space string {obj!r}; use name(d)")
        return preset(name.strip(), int(rest[:-1]))
    if not isinstance(obj, dict):
        raise ArgumentError("space must be a string or an object")
    if "preset" in obj:
        return preset(obj["preset"], int(_require(obj, "d")), obj.get("maxDegree"))
    return SpaceSpec.from_json(obj)


def _coefficient(entry) -> complex:
    """A coeffs1d entry: a number, or an [re, im] pair of numbers."""
    parts = entry if isinstance(entry, list) and len(entry) == 2 else [entry]
    if not all(type(v) in (int, float) for v in parts):  # bool is not a number here
        raise ArgumentError(f"coeffs1d entry {entry!r} is not a number or an [re, im] pair")
    return complex(*parts)


def parse_polynomial(obj, d: int | None = None) -> Polynomial:
    if isinstance(obj, list):
        return Polynomial.from_json(obj, d)
    if isinstance(obj, dict) and isinstance(obj.get("coeffs1d"), list):
        return Polynomial.from_coeffs1d([_coefficient(e) for e in obj["coeffs1d"]])
    raise ArgumentError("function must be a JSON term array or {'coeffs1d': [...]}")


def parse_cloud(obj, seed_supplier) -> cap.BoundaryCloud:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ArgumentError("cloud must be an object with a 'kind'")
    kind = obj["kind"]
    if kind == "points":
        return cap.BoundaryCloud.from_json(obj.get("points", []), int(_require(obj, "d")))
    if kind == "circle":
        return cap.circle_cloud(int(_require(obj, "count")))
    if kind == "arc":
        return cap.arc_cloud(float(_require(obj, "angle")), int(_require(obj, "count")))
    if kind == "sphere_cap":
        return cap.sphere_cap_cloud(
            int(_require(obj, "count")), float(_require(obj, "polarAngle"))
        )
    if kind == "zero_set":
        f = parse_polynomial(_require(obj, "function"), obj.get("d"))
        seed = seed_supplier() if f.d >= 2 else 0
        return cap.sample_zero_set(f, int(obj.get("resolution", 2048)), obj.get("tol"), seed)
    raise ArgumentError(f"unknown cloud kind {kind!r}")


def parse_quadrature_spec(cls, obj):
    """A MixedSpec or VarExpSpec from JSON; d >= 2 sampling must be seeded."""
    spec = cls.from_json(obj)
    if spec.d >= 2 and "seed" not in obj.get("angular", {}):
        raise ArgumentError("d >= 2 angular sampling needs an explicit seed")
    return spec


def cmd_index(config: dict):
    space = parse_space(_require(config, "space"))
    f = parse_polynomial(_require(config, "function"), space.d)
    n = int(_require(config, "n"))
    target = (
        parse_polynomial(config["target"], space.d)
        if "target" in config
        else Polynomial.one(space.d)
    )
    result = idx.subspace_distance(space, target, f, n)
    return result.to_json(), None


def cmd_sweep(config: dict):
    space = parse_space(_require(config, "space"))
    f = parse_polynomial(_require(config, "function"), space.d)
    n_max = int(_require(config, "nMax"))
    tol = float(config.get("tol", idx.DEFAULT_TOL))
    report = idx.index_sweep(space, f, n_max, tol)
    return report.to_json(), report.csv_rows()


def cmd_free_index(config: dict):
    spec = free.FreeSpaceSpec.from_json(_require(config, "freeSpace"))
    g = free.FreePolynomial.from_json(_require(config, "function"), spec.d)
    n = int(_require(config, "n"))
    target = (
        free.FreePolynomial.from_json(config["target"], spec.d)
        if "target" in config
        else free.FreePolynomial.identity(spec.d)
    )
    result = free.free_subspace_distance(spec, target, g, n)
    return result.to_json(), None


def cmd_compress_check(config: dict):
    d = int(_require(config, "d"))
    n = int(_require(config, "n"))
    max_length = int(config.get("maxLength", max(12, n + 4)))
    g = free.FreePolynomial.from_json(_require(config, "function"), d)
    from .spaces import drury_arveson

    spec_free = free.free_hardy(d, max_length)
    spec_comm = drury_arveson(d, max(n + g.degree, 1))
    report = free.compression_check(spec_free, spec_comm, g, n)
    return report.to_json(), None


def cmd_corona_check(config: dict):
    mode = config.get("mode", "commutative")
    if mode == "commutative":
        space = parse_space(_require(config, "space"))
        psi = parse_polynomial(_require(config, "function"), space.d)
        l_max = int(config.get("lMax", 10))
        # the sections of the inverse truncations need n_in + l_max <= max_degree
        n_in = int(config.get("nIn", min(40, space.max_degree - l_max)))
        norms = idx.inverse_truncation_multiplier_norms(space, psi, l_max, n_in)
        return {
            "mode": mode,
            "lengths": list(range(l_max + 1)),
            "multiplierLowerBounds": norms,
            "nIn": n_in,
        }, None
    if mode == "free":
        seed = _require_seed(config)
        d = int(_require(config, "d"))
        rho = float(_require(config, "rho"))
        size = int(config.get("size", 8))
        report = free.row_contraction_inversion_report(
            d=d,
            rho=rho,
            samples=int(config.get("samples", 100)),
            size=size,
            seed=seed,
            l_max=int(config.get("lMax", 10)),
        )
        out = report.to_json()
        out["mode"] = mode
        if config.get("exportTuples"):
            out["firstTuple"] = free.tuple_to_json(
                free.sample_row_contraction(d, size, rho, seed)
            )
        return out, None
    raise ArgumentError(f"unknown corona mode {mode!r}")


def cmd_capacity(config: dict):
    cloud = parse_cloud(_require(config, "cloud"), lambda: _require_seed(config))
    alpha = float(_require(config, "alpha"))
    if cloud.size == 0:
        log.warning("capacity requested on an empty cloud; returning 0 by convention")
    result = cap.riesz_equilibrium(cloud, alpha, max_iter=int(config.get("maxIter", 20000)),
                                   tol=float(config.get("tol", 1e-7)))
    if not result.converged:
        log.warning("equilibrium not converged (kkt_gap %g)", result.kkt_gap)
    out = result.to_json()
    out["cloudSize"] = cloud.size
    return out, None


def cmd_dimension(config: dict):
    cloud = parse_cloud(_require(config, "cloud"), lambda: _require_seed(config))
    estimate = cap.box_dimension(cloud, int(config.get("jMin", 2)), int(config.get("jMax", 7)))
    out = estimate.to_json()
    out["cloudSize"] = cloud.size
    return out, None


def cmd_perturb(config: dict):
    variant = config.get("variant", "function")
    space = parse_space(_require(config, "space"))
    f = parse_polynomial(_require(config, "function"), space.d)
    n = int(_require(config, "n"))
    if variant == "function":
        if "perturbed" in config:
            g = parse_polynomial(config["perturbed"], space.d)
        elif "delta" in config:
            g = f + parse_polynomial(config["delta"], space.d)
        else:
            raise ArgumentError("function perturbation needs 'perturbed' or 'delta'")
        report = idx.check_perturbation_bound(space, f, g, n)
        out = report.to_json()
        out["variant"] = variant
        return out, None
    if variant == "weight":
        seed = _require_seed(config)
        epsilon = float(_require(config, "epsilon"))
        perturbed = idx.perturb_weights(space, epsilon, seed)
        realized = idx.realized_weight_deviation(space, perturbed)
        report = idx.check_weight_stability(space, perturbed, f, n, epsilon=realized)
        out = report.to_json()
        out["variant"] = variant
        out["requestedEpsilon"] = epsilon
        out["realizedEpsilon"] = realized
        out["perturbedSpace"] = perturbed.to_json()
        return out, None
    raise ArgumentError(f"unknown perturb variant {variant!r}")


def cmd_mixed_norm(config: dict):
    spec = parse_quadrature_spec(mx.MixedSpec, _require(config, "mixedSpec"))
    f = parse_polynomial(_require(config, "function"), spec.d)
    return {"norm": mx.mixed_norm(spec, f), "spec": spec.to_json()}, None


def cmd_varexp_norm(config: dict):
    spec = parse_quadrature_spec(mx.VarExpSpec, _require(config, "varExpSpec"))
    f = parse_polynomial(_require(config, "function"), spec.d)
    return {"norm": mx.luxemburg_norm(spec, f), "spec": spec.to_json()}, None


def cmd_mixed_index(config: dict):
    if "mixedSpec" in config:
        spec = parse_quadrature_spec(mx.MixedSpec, config["mixedSpec"])
    elif "varExpSpec" in config:
        spec = parse_quadrature_spec(mx.VarExpSpec, config["varExpSpec"])
    else:
        raise ArgumentError("mixed-index needs 'mixedSpec' or 'varExpSpec'")
    f = parse_polynomial(_require(config, "function"), spec.d)
    if "nMax" in config:
        n_max = int(config["nMax"])
        if n_max < 0:
            raise ArgumentError("nMax must be >= 0")
        budgets = list(range(n_max + 1))
    else:
        budgets = [int(_require(config, "n"))]
    results = [mx.mixed_index(spec, f, n) for n in budgets]
    for r in results:
        if not r.converged:
            log.warning("IRLS not converged at n=%d after %d iterations", r.n, r.iterations)
    rows = [("n", "objective", "iterations", "converged")]
    rows += [(r.n, r.value, r.iterations, str(r.converged).lower()) for r in results]
    return {"results": [r.to_json() for r in results], "spec": spec.to_json()}, rows


def cmd_report(config: dict):
    space = parse_space(_require(config, "space"))
    f = parse_polynomial(_require(config, "function"), space.d)
    seed = int(config.get("seed", 0)) if space.d == 1 else _require_seed(config)
    report = cap.obstruction_report(
        space,
        f,
        n_max=int(_require(config, "nMax")),
        alpha=float(_require(config, "alpha")),
        tol=float(config.get("tol", 1e-3)),
        capacity_threshold=float(
            config.get("capacityThreshold", cap.DEFAULT_CAPACITY_THRESHOLD)
        ),
        resolution=int(config.get("resolution", 2048)),
        zero_tol=config.get("zeroTol"),
        eps_nbhd=float(config.get("epsNbhd", 0.01)),
        seed=seed,
    )
    if not report.riesz.converged:
        log.warning("equilibrium not converged (kkt_gap %g)", report.riesz.kkt_gap)
    return report.to_json(), report.sweep.csv_rows()


COMMANDS = {
    "index": cmd_index,
    "sweep": cmd_sweep,
    "free-index": cmd_free_index,
    "compress-check": cmd_compress_check,
    "corona-check": cmd_corona_check,
    "capacity": cmd_capacity,
    "dimension": cmd_dimension,
    "perturb": cmd_perturb,
    "mixed-norm": cmd_mixed_norm,
    "varexp-norm": cmd_varexp_norm,
    "mixed-index": cmd_mixed_index,
    "report": cmd_report,
}


def _reject_constant(name: str):
    raise ArgumentError(f"config contains the non-finite number {name}")


def run_command(command: str, config: dict, out_dir: Path) -> Path:
    handler = COMMANDS[command]
    result, csv_rows = handler(config)
    payload = {
        "schemaVersion": SCHEMA_VERSION,
        "command": command,
        "config": config,
        "result": result,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    json_path = out_dir / f"{command}.json"
    write_json(json_path, payload)
    if csv_rows is not None:
        write_csv(out_dir / f"{command}.csv", csv_rows)
    return json_path


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    parser = argparse.ArgumentParser(
        prog="cyclicity",
        description="Cyclicity index experiments over diagonal function spaces",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--out", default=".", help="output directory")
    args = parser.parse_args(argv)
    try:
        config_path = Path(args.config)
        try:
            config = json.loads(
                config_path.read_text(encoding="utf-8"), parse_constant=_reject_constant
            )
        except OSError as exc:
            raise ArgumentError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ArgumentError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(config, dict):
            raise ArgumentError("config must be a JSON object")
        declared = config.get("schemaVersion", SCHEMA_VERSION)
        if declared != SCHEMA_VERSION:
            raise ArgumentError(
                f"unsupported schemaVersion {declared}; this build speaks {SCHEMA_VERSION}"
            )
        json_path = run_command(args.command, config, Path(args.out))
    except NumericFailureError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (ArgumentError, ValueError, KeyError, TypeError) as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 2
    except CyclicityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(json_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
