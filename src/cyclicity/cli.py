"""Batch experiment front end.

Usage: cyclicity <command> --config path.json [--out dir]

Every command reads a JSON config and writes <out>/<command>.json (and a
CSV next to it where noted). Exit codes: 0 success, 2 a validation error
(`ArgumentError`), 3 a numeric failure (`NumericFailureError`), 1 an
internal error: any other exception, with Python's traceback. Identical
config plus seed produces byte-identical JSON: keys are sorted, floats use
shortest round-trip formatting, line endings are LF, and every stochastic
step takes an explicit seed. Each result embeds its input config as given,
without defaults filled in.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import logging
import math
import sys
from pathlib import Path

from . import capacity as cap
from . import freespace as free
from . import indices as idx
from . import mixednorm as mx
from .errors import ArgumentError, NumericFailureError
from .poly import (Polynomial, TermArray, bind, brief, camel, choose, json_value, jsonsafe,
                   read_keys)
from .spaces import SpaceSpec, drury_arveson, preset

SCHEMA_VERSION = 1

log = logging.getLogger("cyclicity")


def write_json(path: Path, payload: dict) -> None:
    """Write the bytes of `json.dumps(jsonsafe(payload), sort_keys=True,
    indent=2)` and a final newline, in one walk that makes values JSON-safe
    as it writes them. A `TermArray`, most of a large result, lays itself out."""
    path.write_text(_layout(payload, "") + "\n", encoding="utf-8")


def _layout(value, pad: str) -> str:
    """The JSON text of `jsonsafe(value)` as json.dumps lays it out when it
    starts at indentation pad."""
    kind = type(value)  # exact types of the common leaves first, for speed
    if kind is int or kind is float and math.isfinite(value):
        return repr(value)
    if kind is str:
        return json.dumps(value)
    if isinstance(value, TermArray):
        return value.layout(pad)
    inner = pad + "  "
    if isinstance(value, dict):
        items = {str(k): v for k, v in value.items()}
        lines = [f"{inner}{json.dumps(k)}: {_layout(items[k], inner)}" for k in sorted(items)]
        return "{\n" + ",\n".join(lines) + f"\n{pad}}}" if lines else "{}"
    if isinstance(value, (list, tuple)):
        lines = [inner + _layout(v, inner) for v in value]
        return "[\n" + ",\n".join(lines) + f"\n{pad}]" if lines else "[]"
    value = jsonsafe(value)
    if isinstance(value, (dict, list)):
        return _layout(value, pad)
    return json.dumps(value)


def write_csv(path: Path, rows: list[tuple]) -> None:
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        for row in rows:
            writer.writerow([v if isinstance(v, str) else repr(v) for v in row])


def command(fn):
    """Decorator: the COMMANDS entry that binds a config to fn."""
    return functools.partial(bind, fn)


def _seed(seed: int | None, d: int = 1) -> int:
    if seed is not None and seed < 0:
        raise ArgumentError(f"config key 'seed' must be >= 0, not {brief(seed)}")
    if seed is None and d >= 2:
        raise ArgumentError("sampling at d >= 2 needs an explicit seed in the config")
    return seed or 0


def _exactly_one(**pair) -> None:
    if sum(v is not None for v in pair.values()) != 1:
        raise ArgumentError(f"config needs exactly one of {[camel(k) for k in pair]}")


def parse_space(obj) -> SpaceSpec:
    if isinstance(obj, str):
        # "hardy(1)" style preset addressing
        name, _, rest = obj.partition("(")
        if not (rest.endswith(")") and rest[:-1].strip().isdecimal()):
            raise ArgumentError(f"cannot parse space string {brief(obj)}; use name(d)")
        return preset(name.strip(), int(rest[:-1]))
    if not isinstance(obj, dict):
        raise ArgumentError("space must be a string or an object")
    return bind(preset, obj, "preset space") if "preset" in obj else SpaceSpec.from_json(obj)


def _coefficient(entry, i: int) -> complex:
    """A coeffs1d entry: a number, or an [re, im] pair of numbers."""
    if isinstance(entry, list) and len(entry) == 2:
        return complex(*json_value(entry, "list[float]", f"coeffs1d entry {i}"))
    return complex(json_value(entry, "float", f"coeffs1d entry {i}"))


def parse_polynomial(obj, d: int | None = None) -> Polynomial:
    if isinstance(obj, list):
        return Polynomial.from_json(obj, d)
    if isinstance(obj, dict):
        read_keys(obj, ("coeffs1d",), "function")
    if isinstance(obj, dict) and isinstance(obj.get("coeffs1d"), list):
        entries = enumerate(obj["coeffs1d"])
        return Polynomial.from_coeffs1d([_coefficient(e, i) for i, e in entries])
    raise ArgumentError("function must be a JSON term array or {'coeffs1d': [...]}")


def parse_cloud(obj, seed: int | None) -> cap.BoundaryCloud:
    """A boundary cloud from its JSON object; `seed` seeds a zero set's sampling."""
    _seed(seed)  # a negative seed is an error with any kind

    def points(d: int, points: list[list[float]] = ()):
        return cap.BoundaryCloud.from_json(points, d)

    def zero_set(function, d: int | None = None, resolution: int = 2048,
                 tol: float | None = None):
        f = parse_polynomial(function, d)
        return cap.sample_zero_set(f, resolution, tol, _seed(seed, f.d))

    kinds = {"arc": cap.arc_cloud, "circle": cap.circle_cloud, "points": points,
             "sphere_cap": cap.sphere_cap_cloud, "zero_set": zero_set}
    return choose("kind", kinds, what="cloud")(obj)


def parse_quadrature_spec(cls, obj):
    """A MixedSpec or VarExpSpec from JSON; d >= 2 sampling must be seeded."""
    spec = cls.from_json(obj)
    _seed(obj.get("angular", {}).get("seed"), spec.d)
    return spec


@command
def cmd_index(space, function, n: int, target=None):
    space = parse_space(space)
    f = parse_polynomial(function, space.d)
    g = Polynomial.one(space.d) if target is None else parse_polynomial(target, space.d)
    return idx.subspace_distance(space, g, f, n).to_json(), None


@command
def cmd_sweep(space, function, n_max: int, tol: float = idx.DEFAULT_TOL):
    space = parse_space(space)
    report = idx.index_sweep(space, parse_polynomial(function, space.d), n_max, tol)
    return report.to_json(), report.csv_rows()


@command
def cmd_free_index(free_space, function, n: int, target=None):
    spec = free.FreeSpaceSpec.from_json(free_space)
    g = free.FreePolynomial.from_json(function, spec.d)
    target = (free.FreePolynomial.identity(spec.d) if target is None
              else free.FreePolynomial.from_json(target, spec.d))
    return free.free_subspace_distance(spec, target, g, n).to_json(), None


@command
def cmd_compress_check(d: int, function, n: int, max_length: int | None = None):
    g = free.FreePolynomial.from_json(function, d)
    spec_free = free.free_hardy(d, max(12, n + 4) if max_length is None else max_length)
    spec_comm = drury_arveson(d, max(n + g.degree, 1))
    return free.compression_check(spec_free, spec_comm, g, n).to_json(), None


def corona_commutative(space, function, l_max: int = 10, n_in: int | None = None):
    space = parse_space(space)
    psi = parse_polynomial(function, space.d)
    if n_in is None:
        # the sections of the inverse truncations need n_in + l_max <= max_degree
        n_in = min(40, space.max_degree - l_max)
    norms = idx.inverse_truncation_multiplier_norms(space, psi, l_max, n_in)
    return {"mode": "commutative", "lengths": list(range(l_max + 1)),
            "multiplierLowerBounds": norms, "nIn": n_in}, None


def corona_free(d: int, rho: float, seed: int, samples: int = 100, size: int = 8,
                l_max: int = 10, export_tuples: bool = False):
    seed = _seed(seed, d)
    out = free.row_contraction_inversion_report(d, rho, samples, size, seed, l_max).to_json()
    out["mode"] = "free"
    if export_tuples:
        out["firstTuple"] = free.tuple_to_json(free.sample_row_contraction(d, size, rho, seed))
    return out, None


cmd_corona_check = choose("mode", {"commutative": corona_commutative, "free": corona_free},
                          "commutative")


@command
def cmd_capacity(cloud, alpha: float, seed: int | None = None, max_iter: int = 20000,
                 tol: float = 1e-7):
    cloud = parse_cloud(cloud, seed)
    if cloud.size == 0:
        log.warning("capacity requested on an empty cloud; returning 0 by convention")
    result = cap.riesz_equilibrium(cloud, alpha, max_iter, tol)
    if not result.converged:
        log.warning("equilibrium not converged (kkt_gap %g)", result.kkt_gap)
    return {**result.to_json(), "cloudSize": cloud.size}, None


@command
def cmd_dimension(cloud, seed: int | None = None, j_min: int = 2, j_max: int = 7):
    cloud = parse_cloud(cloud, seed)
    return {**cap.box_dimension(cloud, j_min, j_max).to_json(), "cloudSize": cloud.size}, None


def perturb_function(space, function, n: int, perturbed=None, delta=None):
    _exactly_one(perturbed=perturbed, delta=delta)
    space = parse_space(space)
    f = parse_polynomial(function, space.d)
    g = (parse_polynomial(perturbed, space.d) if delta is None
         else f + parse_polynomial(delta, space.d))
    return {**idx.check_perturbation_bound(space, f, g, n).to_json(), "variant": "function"}, None


def perturb_weight(space, function, n: int, epsilon: float, seed: int):
    space = parse_space(space)
    f = parse_polynomial(function, space.d)
    perturbed = idx.perturb_weights(space, epsilon, _seed(seed, space.d))
    realized = idx.realized_weight_deviation(space, perturbed)
    report = idx.check_weight_stability(space, perturbed, f, n, epsilon=realized)
    return {**report.to_json(), "variant": "weight", "requestedEpsilon": epsilon,
            "realizedEpsilon": realized, "perturbedSpace": perturbed.to_json()}, None


cmd_perturb = choose("variant", {"function": perturb_function, "weight": perturb_weight},
                     "function")


@command
def cmd_mixed_norm(mixed_spec, function):
    spec = parse_quadrature_spec(mx.MixedSpec, mixed_spec)
    f = parse_polynomial(function, spec.d)
    return {"norm": mx.mixed_norm(spec, f), "spec": spec.to_json()}, None


@command
def cmd_varexp_norm(var_exp_spec, function):
    spec = parse_quadrature_spec(mx.VarExpSpec, var_exp_spec)
    f = parse_polynomial(function, spec.d)
    return {"norm": mx.luxemburg_norm(spec, f), "spec": spec.to_json()}, None


@command
def cmd_mixed_index(function, mixed_spec=None, var_exp_spec=None, n_max: int | None = None,
                    n: int | None = None):
    _exactly_one(mixed_spec=mixed_spec, var_exp_spec=var_exp_spec)
    _exactly_one(n_max=n_max, n=n)
    cls, obj = (mx.MixedSpec, mixed_spec) if var_exp_spec is None else (mx.VarExpSpec, var_exp_spec)
    spec = parse_quadrature_spec(cls, obj)
    f = parse_polynomial(function, spec.d)
    if n_max is not None and n_max < 0:
        raise ArgumentError("nMax must be >= 0")
    results = [mx.mixed_index(spec, f, k) for k in ([n] if n_max is None else range(n_max + 1))]
    for r in results:
        if not r.converged:
            log.warning("IRLS not converged at n=%d after %d iterations", r.n, r.iterations)
    rows = [("n", "objective", "iterations", "converged")]
    rows += [(r.n, r.value, r.iterations, str(r.converged).lower()) for r in results]
    return {"results": [r.to_json() for r in results], "spec": spec.to_json()}, rows


@command
def cmd_report(space, function, n_max: int, alpha: float, seed: int | None = None,
               tol: float = 1e-3, capacity_threshold: float = cap.DEFAULT_CAPACITY_THRESHOLD,
               resolution: int = 2048, zero_tol: float | None = None, eps_nbhd: float = 0.01):
    space = parse_space(space)
    f = parse_polynomial(function, space.d)
    report = cap.obstruction_report(space, f, n_max, alpha, tol, capacity_threshold,
                                    resolution, zero_tol, eps_nbhd, _seed(seed, space.d))
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
    result, csv_rows = handler({k: v for k, v in config.items() if k != "schemaVersion"})
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
        except ValueError as exc:  # not UTF-8, or an integer past Python's digit limit
            raise ArgumentError(f"cannot read config: {exc}") from exc
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
    except ArgumentError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 2
    print(json_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
