"""Inputs, operations and output checks of the in-process workloads.

`lsq-scaled` drives design assembly and the least-squares solver with many
small nested solves and one large solve; `capacity-scaled` drives the
equilibrium solver, its distance tensor and boundary geometry. Every
operation calls the library through module attributes (`indices.index_sweep`,
not a name imported here), so spans installed by `tracing` see the calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from cyclicity import capacity, cli, freespace, indices, mixednorm, spaces
from cyclicity.poly import Polynomial
from checks import Check, all_close, close, energy_close
from seeds import sub_seeds

SIN_PI_8 = math.sin(math.pi / 8)


@dataclass
class Op:
    """One timed library call (or fixed group of calls) of a pass.

    run(inputs, out_dir) is the timed part and includes serialization
    through `to_json` and `cli.write_json`. failure(result) names a solver
    that stopped without converging; check(result, ref, inputs) compares
    outputs to oracles and to the references recorded in references.json;
    record(result) gives those references. A pass runs the operation
    `repeat` times in a row, each a sample of its own, so that a short
    operation's median rests on as many samples as a long one's.
    """

    name: str
    run: Callable
    check: Callable
    record: Callable
    failure: Callable = lambda result: None
    repeat: int = 1


def _write(out_dir: Path, name: str, payload) -> None:
    cli.write_json(out_dir / f"{name}.json", payload)


def _nonincreasing(label, values, slack=1e-12) -> Check:
    rises = [k for k in range(1, len(values)) if values[k] > values[k - 1] * (1 + slack) + slack]
    return Check(label, not rises, f"rises at budgets {rises}" if rises else "nonincreasing")


# ---------------------------------------------------------------- lsq-scaled


def build_lsq(seed: int) -> dict:
    third = -1.0 / 3.0
    half_free = freespace.FreePolynomial(2, {(): 1.0, (1,): -0.5, (2,): -0.5})
    f2 = Polynomial(2, {(0, 0): 1.0, (1, 0): -0.5, (0, 1): -0.5})
    mixed_spec = mixednorm.MixedSpec.with_measure(
        "area", 2, 0, 3.0, 2.0, radial_count=24, angular_count=2048,
        seed=sub_seeds(seed)["mixed_nodes"],
    )
    varexp_spec = mixednorm.VarExpSpec.with_measure(
        "area", 1, 1, 2.0, 1.0, 2.0, radial_count=24, angular_count=256
    )
    return {
        "da3": spaces.drury_arveson(3, 18),
        "f_da3": Polynomial(3, {(0, 0, 0): 1.0, (1, 0, 0): third, (0, 1, 0): third, (0, 0, 1): third}),
        "dirichlet": spaces.dirichlet_type(1, 121),
        "one_minus_z": Polynomial.from_coeffs1d([1.0, -1.0]),
        "free": freespace.free_hardy(2, 12),
        "free_g": half_free,
        "free_one": freespace.FreePolynomial.identity(2),
        "mixed_spec": mixed_spec,
        "f2": f2,
        "varexp_spec": varexp_spec,
    }


def _sweep_op(name, space_key, f_key, n_max, repeat):
    def run(inp, out):
        report = indices.index_sweep(inp[space_key], inp[f_key], n_max)
        _write(out, name, report.to_json())
        return report

    def check(report, ref, inp):
        checks = [_nonincreasing("residuals nonincreasing in n", report.residuals)]
        if ref is not None:
            checks.append(all_close("residuals vs reference", report.residuals, ref["residuals"], rel=1e-7))
            checks.append(Check("verdict vs reference", report.verdict == ref["verdict"], report.verdict))
        return checks

    return Op(name, run, check, lambda r: {"residuals": r.residuals, "verdict": r.verdict},
              repeat=repeat)


def _free_run(inp, out):
    result = freespace.free_subspace_distance(inp["free"], inp["free_one"], inp["free_g"], 10)
    _write(out, "free_index_d2", result.to_json())
    return result


def _free_check(result, ref, inp):
    spec, g = inp["free"], inp["free_g"]
    achieved = spec.norm(inp["free_one"] - result.phi * g)
    # the abelianization is a contraction into Drury-Arveson, so the free
    # residual dominates the commutative one at the same budget
    da = indices.subspace_distance(
        spaces.drury_arveson(2, 11), Polynomial.one(2), freespace.abelianize(g), 10
    ).residual
    checks = [
        close("residual is achieved by phi", achieved, result.residual, rel=1e-9),
        Check("free residual >= Drury-Arveson residual", result.residual >= da - 1e-10,
              f"{result.residual!r} vs {da!r}"),
    ]
    if ref is not None:
        checks.append(close("residual vs reference", result.residual, ref["residual"], rel=1e-7))
    return checks


def _mixed_run(inp, out):
    result = mixednorm.mixed_index(inp["mixed_spec"], inp["f2"], 6)
    _write(out, "mixed_index_d2", result.to_json())
    return result


def _mixed_failure(result):
    return None if result.converged else f"IRLS converged=False after {result.iterations} iterations"


def _mixed_check(result, ref, inp):
    spec, f = inp["mixed_spec"], inp["f2"]
    achieved = mixednorm.mixed_norm(spec, Polynomial.one(2) - result.phi * f)
    ceiling = mixednorm.mixed_norm(spec, Polynomial.one(2))
    # the angular nodes follow the seed, so only invariants are checked
    return [
        close("objective is achieved by phi", achieved, result.value, rel=1e-9),
        Check("objective below ||1||", 0.0 < result.value <= ceiling, f"{result.value!r} vs {ceiling!r}"),
    ]


def _varexp_run(inp, out):
    results = [
        mixednorm.mixed_index(inp["varexp_spec"], inp["one_minus_z"], n) for n in range(17)
    ]
    _write(out, "varexp_sweep", {"results": [r.to_json() for r in results]})
    return results


def _varexp_failure(results):
    stalled = [r.n for r in results if not r.converged]
    rises = [r.n for prev, r in zip(results, results[1:]) if r.value > prev.value * (1 + 1e-12)]
    if not stalled:
        return None
    note = f"; objective rises at n={rises} although the budgets are nested" if rises else ""
    return f"IRLS converged=False at n={stalled}{note}"


def _varexp_check(results, ref, inp):
    spec, f = inp["varexp_spec"], inp["one_minus_z"]
    one = Polynomial.one(1)
    achieved = [mixednorm.luxemburg_norm(spec, one - r.phi * f) for r in results]
    checks = [all_close("objectives are achieved by phi", achieved, [r.value for r in results], rel=1e-9)]
    if ref is not None:
        # a solver that converges further may only lower the objective
        worse = [r.n for r, v in zip(results, ref["values"]) if r.value > v * (1 + 1e-9)]
        checks.append(Check("objectives not above reference", not worse, f"above at n={worse}"))
    return checks


# Repeats bring each operation to 2-3 s of a pass here (the Dirichlet sweep
# takes about 0.9 s, the mixed index 1.5 s, the DA sweep 1.7 s, the
# variable-exponent sweep 2 s, the free index 5.5 s).
LSQ_OPS = [
    _sweep_op("sweep_da3", "da3", "f_da3", 15, repeat=2),
    _sweep_op("sweep_dirichlet1", "dirichlet", "one_minus_z", 120, repeat=3),
    Op("free_index_d2", _free_run, _free_check, lambda r: {"residual": r.residual}),
    Op("mixed_index_d2", _mixed_run, _mixed_check, lambda r: None, _mixed_failure, repeat=2),
    Op("varexp_sweep", _varexp_run, _varexp_check,
       lambda rs: {"values": [r.value for r in rs]}, _varexp_failure),
]


# ----------------------------------------------------------- capacity-scaled


def build_capacity(seed: int) -> dict:
    return {
        "arc1024": capacity.arc_cloud(math.pi / 2, 1024),
        "arc4096": capacity.arc_cloud(math.pi / 2, 4096),
        # 768 points puts the alpha = 1 solve near half a second here
        "cap": capacity.sphere_cap_cloud(768, 1.0),
        "z64": Polynomial.from_coeffs1d([-1.0] + [0.0] * 63 + [1.0]),
        "hardy80": spaces.hardy(1, 80),
        "report_seed": sub_seeds(seed)["report"],
    }


def equilibrium_failure(result, max_iter=20000, tol=1e-7):
    if result.iterations == max_iter and result.kkt_gap > tol:
        return f"stopped at the {max_iter}-iteration cap with kkt_gap {result.kkt_gap:.3g} > tol {tol:g}"
    return None


def _equilibrium_op(name, cloud_key, alpha, repeat):
    def run(inp, out):
        result = capacity.riesz_equilibrium(inp[cloud_key], alpha)
        _write(out, name, result.to_json())
        return result

    def check(result, ref, inp):
        checks = [Check("weights form a probability vector",
                        abs(result.weights.sum() - 1.0) <= 1e-12 and result.weights.min() >= 0, "")]
        if ref is not None:
            checks.append(energy_close("energy vs reference", result.energy, result.kkt_gap, ref))
        return checks

    return Op(name, run, check, lambda r: {"energy": r.energy, "kkt_gap": r.kkt_gap},
              equilibrium_failure, repeat)


def circle_capacity(count: int) -> float:
    """Discrete log capacity of `count` equispaced circle points.

    Uniform weights are optimal by symmetry; pair energy -log(count)/count
    plus smeared self-energy -log(sin(pi/count))/count.
    """
    return (count * math.sin(math.pi / count)) ** (1.0 / count)


def _geometry_run(inp, out):
    """Zero set, neighborhood measure, box dimension and obstruction report."""
    got = {
        "zeros": capacity.sample_zero_set(inp["z64"], 65536),
        "nbhd": capacity.neighborhood_capacity(inp["cap"], 1.0, 0.05),
        "dimension": capacity.box_dimension(inp["arc4096"]),
        "report": capacity.obstruction_report(
            inp["hardy80"], inp["z64"], n_max=16, alpha=0.0, resolution=65536,
            seed=inp["report_seed"],
        ),
    }
    _write(out, "geometry", {
        "zeros": got["zeros"].to_json(),
        "nbhd": got["nbhd"],
        "dimension": got["dimension"].to_json(),
        "report": got["report"].to_json(),
    })
    return got


def _geometry_failure(got):
    return equilibrium_failure(got["report"].riesz)


def _geometry_record(got):
    return {
        "nbhd": got["nbhd"],
        "dimension": got["dimension"].dimension,
        "verdict": got["report"].verdict,
        "report_nbhd": got["report"].neighborhood_measure,
    }


def _geometry_check(got, ref, inp):
    zeros, report, dim = got["zeros"], got["report"], got["dimension"].dimension
    residual = float(np.max(np.abs(inp["z64"].evaluate_grid(zeros.points))))
    angles = np.sort(np.angle(zeros.points[:, 0]) % (2 * np.pi))
    spacing = np.diff(np.append(angles, angles[0] + 2 * np.pi))
    want_cap = circle_capacity(64)
    checks = [
        Check("z^64 - 1 has 64 boundary zeros", zeros.size == 64, str(zeros.size)),
        Check("zeros satisfy |f| <= 1e-9", residual <= 1e-9, repr(residual)),
        Check("zeros are equispaced", zeros.size == 64 and np.ptp(spacing) <= 1e-9, ""),
        Check("arc box dimension is about 1", abs(dim - 1.0) <= 0.02, repr(dim)),
        Check("report cloud has 64 points", report.cloud_size == 64, str(report.cloud_size)),
        # full-circle capacity is 1; 64 equispaced points give (64 sin(pi/64))^(1/64)
        Check("circle capacity oracle",
              abs(math.log(report.riesz.capacity / want_cap)) <= report.riesz.kkt_gap + 1e-12,
              f"{report.riesz.capacity!r} vs {want_cap!r}"),
        # for n < 64, 1 - phi (z^64 - 1) splits into the orthogonal parts 1 + phi and -phi z^64
        all_close("report sweep residuals are sqrt(1/2)", report.sweep.residuals,
                   [math.sqrt(0.5)] * len(report.sweep.residuals), rel=1e-9),
    ]
    if ref is not None:
        # one of the 8192 fixed sphere samples may flip across the eps boundary
        flip = 1.0 / 8192
        checks += [
            close("cap neighborhood measure vs reference", got["nbhd"], ref["nbhd"], rel=0.0, abs_tol=flip),
            close("dimension vs reference", dim, ref["dimension"], rel=1e-9),
            Check("report verdict vs reference", report.verdict == ref["verdict"], report.verdict),
            close("report neighborhood measure vs reference", report.neighborhood_measure,
                   ref["report_nbhd"], rel=0.0, abs_tol=flip),
        ]
    return checks


# Repeats bring each operation to 1-2 s of a pass here (geometry takes about
# 0.2 s, the cap 0.4 s, the 1024-point arc 1 s, the 4096-point arc 5 s).
CAPACITY_OPS = [
    _equilibrium_op("equilibrium_arc1024", "arc1024", 0.0, repeat=2),
    _equilibrium_op("equilibrium_arc4096", "arc4096", 0.0, repeat=1),
    _equilibrium_op("equilibrium_cap", "cap", 1.0, repeat=3),
    Op("geometry", _geometry_run, _geometry_check, _geometry_record, _geometry_failure, repeat=6),
]


def capacity_pass_checks(results: dict) -> list[Check]:
    """Checks that compare operations of one pass with each other."""
    a, b = results.get("equilibrium_arc1024"), results.get("equilibrium_arc4096")
    if a is None or b is None:
        return []
    return [Check("arc capacity moves toward sin(pi/8) from 1024 to 4096 points",
                  abs(b.capacity - SIN_PI_8) < abs(a.capacity - SIN_PI_8),
                  f"{a.capacity!r} -> {b.capacity!r}, limit {SIN_PI_8!r}")]


# (build, ops, pass checks, whether times are scaled to the numeric reference
# loop). The loop follows the equilibrium solver's speed. After the BLAS-bound
# solves of lsq-scaled it runs slow while OpenBLAS threads wind down, so
# scaling lsq-scaled to it spread ten runs twice as far as its raw times.
WORKLOADS = {
    "lsq-scaled": (build_lsq, LSQ_OPS, lambda results: [], False),
    "capacity-scaled": (build_capacity, CAPACITY_OPS, capacity_pass_checks, True),
}

