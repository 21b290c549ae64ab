"""Finite-degree cyclicity indices by exact least squares.

The degree-n index of f against a target g is the distance from g to
span{z^gamma f : |gamma| <= n} in the space norm; with g = 1 the squared
residual measures how far f is from generating the constants at budget n.
Residuals are genuine objective values (upper bounds for the infimum over
all polynomial multipliers of any degree); limits are only ever
extrapolated from sweeps and reported as fits, never asserted.

Multiplier norms are reported as finite-section lower bounds together with
the section size, since sections only bound the true norm from below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError, DegenerateInputError
from .poly import (
    JsonRecord,
    Polynomial,
    brief,
    invert_power_series,
    mult_operator_section,
    shifted_columns,
)
from .solver import solve_least_squares, solve_nested
from .spaces import KIND_DIAGONAL_BESOV, DiagonalSpace, MomentSequence, SpaceSpec

VERDICT_CYCLIC = "numerically_cyclic"
VERDICT_PLATEAU = "plateau"
VERDICT_INCONCLUSIVE = "inconclusive"

FIT_NONE = "none"
FIT_INVERSE_LOG = "inverse_log"
FIT_INVERSE_POLY = "inverse_poly"

DEFAULT_TOL = 1e-3
PLATEAU_WINDOW = 5
PLATEAU_VARIATION = 1e-6


@dataclass
class ApproximantResult(JsonRecord):
    """Optimal degree-n multiplier with its residual and solve diagnostics."""

    n: int
    phi: object
    residual: float
    gram_condition: float
    solve_method: str


@dataclass
class SweepReport(JsonRecord):
    """Residuals over a degree range with verdict and extrapolation fits."""

    degrees: list[int]
    residuals: list[float]
    gram_conditions: list[float]
    solve_methods: list[str]
    verdict: str
    tol: float
    fitted_limit: float | None = None
    fit_model: str = FIT_NONE
    fit_diagnostics: dict = field(default_factory=dict)

    def csv_rows(self) -> list[tuple]:
        header = ("degree", "residual", "gramCondition", "solveMethod")
        rows = zip(self.degrees, self.residuals, self.gram_conditions, self.solve_methods)
        return [header, *rows]


def _design_matrix(spec: DiagonalSpace, g, f, n: int, solves: int = 1):
    """The shifted design of f at budget n, target g, in the space norm: a
    kept row is scaled by the norm of its key, weighed only there. g and f
    are series of the space's algebra, f nonzero; `shifted_columns` counts
    the keys, and the weights refuse a degree past the space's range. The
    design's form suits `solves` nested solves of its leading columns."""
    spec.check_algebra(g, f)
    if f.is_zero:
        raise DegenerateInputError("f must be nonzero")
    if n < 0:
        raise ArgumentError("degree budget n must be >= 0")
    return shifted_columns(g, f, n, lambda keys: np.sqrt(spec.weights(keys)), solves=solves)[:3]


def subspace_distance(spec: DiagonalSpace, g, f, n: int) -> ApproximantResult:
    """Distance from g to {phi f : deg phi <= n} and the minimizing phi, in a
    `SpaceSpec` over `Polynomial`s (phi spans z^gamma, |gamma| <= n) or a
    `freespace.FreeSpaceSpec` over `FreePolynomial`s (phi spans the words
    Z^w, |w| <= n); a series of the other algebra is a `DimensionMismatchError`."""
    design, target, cols = _design_matrix(spec, g, f, n)
    out = solve_least_squares(design, target)
    phi = type(f).from_solution(spec.d, cols, out.coefficients)
    return ApproximantResult(n, phi, out.residual, out.gram_condition, out.method)


def _fit_inverse_log(ns: np.ndarray, rs: np.ndarray):
    X = np.column_stack([np.ones_like(ns, dtype=float), 1.0 / np.log(ns + 2.0)])
    coef, *_ = np.linalg.lstsq(X, rs, rcond=None)
    rss = float(np.sum((rs - X @ coef) ** 2))
    return {"a": float(coef[0]), "b": float(coef[1]), "rss": rss}


def _fit_inverse_poly(ns: np.ndarray, rs: np.ndarray):
    """Least-squares fit of a + b (n+2)^(-c) over 160 exponents c, keeping the
    first c of least rss. Each c is the closed-form regression of rs on
    t = (ns+2)^(-c): b = cov(t, rs) / var(t), a = mean(rs) - b mean(t)."""
    exponents = np.geomspace(0.05, 8.0, 160)
    t = (ns + 2.0) ** -exponents[:, None]
    dt = t - t.mean(axis=1, keepdims=True)
    b = (dt * (rs - rs.mean())).sum(axis=1) / (dt * dt).sum(axis=1)
    a = rs.mean() - b * t.mean(axis=1)
    rss = ((rs - a[:, None] - b[:, None] * t) ** 2).sum(axis=1)
    best = int(np.argmin(rss))
    return {"a": float(a[best]), "b": float(b[best]), "c": float(exponents[best]),
            "rss": float(rss[best])}


def _fit_tail(degrees: list[int], residuals: list[float]):
    if len(degrees) < 6:
        return None, FIT_NONE, {}
    start = len(degrees) // 2
    ns = np.asarray(degrees[start:], dtype=float)
    rs = np.asarray(residuals[start:], dtype=float)
    log_fit = _fit_inverse_log(ns, rs)
    poly_fit = _fit_inverse_poly(ns, rs)
    diagnostics = {FIT_INVERSE_LOG: log_fit, FIT_INVERSE_POLY: poly_fit}
    if poly_fit["rss"] < log_fit["rss"]:
        model, fit = FIT_INVERSE_POLY, poly_fit
    else:
        model, fit = FIT_INVERSE_LOG, log_fit
    return max(fit["a"], 0.0), model, diagnostics


def index_sweep(
    spec: SpaceSpec,
    f: Polynomial,
    n_max: int,
    tol: float = DEFAULT_TOL,
) -> SweepReport:
    """Residuals for every budget n = 0..n_max, with verdict and tail fits.

    The design matrix is assembled once at n_max; lower budgets are its
    leading column blocks (graded order makes them nested), so the sweep is
    one `solve_nested` call. On its dense route the Gram of the widest block
    is factored once and every budget reads its solution, residual and
    exact condition number from the leading blocks of that one factor.
    """
    if not tol > 0:  # a NaN fails it too
        raise ArgumentError(f"tol must be positive, not {brief(tol)}")
    design, rhs, _ = _design_matrix(spec, Polynomial.one(spec.d), f, n_max, solves=n_max + 1)
    # the first C(n+d, d) graded-lex columns are the shifts with |gamma| <= n
    outs = solve_nested(design, rhs, [math.comb(n + spec.d, spec.d) for n in range(n_max + 1)])
    residuals = [out.residual for out in outs]
    conds = [out.gram_condition for out in outs]
    methods = [out.method for out in outs]
    if residuals[-1] < tol:
        verdict = VERDICT_CYCLIC
    elif (
        len(residuals) >= PLATEAU_WINDOW
        and max(residuals[-PLATEAU_WINDOW:]) - min(residuals[-PLATEAU_WINDOW:])
        < PLATEAU_VARIATION
    ):
        verdict = VERDICT_PLATEAU
    else:
        verdict = VERDICT_INCONCLUSIVE
    fitted_limit, fit_model, diagnostics = _fit_tail(list(range(n_max + 1)), residuals)
    return SweepReport(
        degrees=list(range(n_max + 1)),
        residuals=residuals,
        gram_conditions=conds,
        solve_methods=methods,
        verdict=verdict,
        tol=tol,
        fitted_limit=fitted_limit,
        fit_model=fit_model,
        fit_diagnostics=diagnostics,
    )


def multiplier_norm_lower(spec: SpaceSpec, phi: Polynomial, n_in: int) -> float:
    """Certified lower bound for the multiplier norm of phi.

    Top singular value of the finite section acting on polynomials of
    degree <= n_in, whose rows hold every coefficient of each phi z^beta, so
    no coefficient mass is dropped.
    """
    section = mult_operator_section(spec, phi, n_in)
    if section.size == 0:
        return 0.0
    return float(np.linalg.svd(section, compute_uv=False)[0])


@dataclass
class PerturbationReport(JsonRecord):
    """Realized triangle-inequality budget for replacing f by a nearby g."""

    n: int
    epsilon: float
    delta: float
    multiplier_lower_bound: float
    multiplier_section_degree: int
    realized_ratio: float
    lhs: float
    rhs: float
    slack: float
    holds: bool


def check_perturbation_bound(
    spec: SpaceSpec,
    f: Polynomial,
    g: Polynomial,
    n: int,
) -> PerturbationReport:
    """Verify ||1 - phi* g|| <= epsilon + M'' delta for the f-optimal phi*.

    epsilon is the degree-n residual of f, delta = ||f - g||, and M'' is the
    norm ratio phi* realizes on f - g itself. The finite-section multiplier
    norm of phi* is reported alongside as a lower bound (sections cannot
    certify from above).
    """
    if f.is_zero or g.is_zero:
        raise DegenerateInputError("f and g must be nonzero")
    one = Polynomial.one(spec.d)
    base = subspace_distance(spec, one, f, n)
    phi = base.phi
    epsilon = base.residual
    diff = f - g
    delta = spec.norm(diff)
    realized = spec.norm(phi * diff) / delta if delta > 0 else 0.0
    n_in = min(spec.max_degree - phi.degree, max(2 * n, 16))
    lower = multiplier_norm_lower(spec, phi, n_in)
    lhs = spec.norm(one - phi * g)
    rhs = epsilon + realized * delta
    return PerturbationReport(
        n=n,
        epsilon=epsilon,
        delta=delta,
        multiplier_lower_bound=lower,
        multiplier_section_degree=n_in,
        realized_ratio=realized,
        lhs=lhs,
        rhs=rhs,
        slack=rhs - lhs,
        holds=lhs <= rhs + 1e-10,
    )


def perturb_weights(spec: SpaceSpec, epsilon: float, seed: int) -> SpaceSpec:
    """Multiplicative moment jitter with a nonincreasing-envelope repair.

    Each moment is scaled by an independent uniform draw from
    [1 - epsilon, 1 + epsilon]; the running-minimum envelope restores
    monotonicity. Since the base moments are themselves nonincreasing,
    every repaired ratio stays inside [1 - epsilon, 1 + epsilon], so the
    perturbed norms are squeezed between (1 -/+ epsilon) times the original
    squared norm coefficientwise.
    """
    if spec.kind != KIND_DIAGONAL_BESOV:
        raise ArgumentError("weight perturbation requires a moment-based space")
    if not 0 < epsilon < 1:
        raise ArgumentError("epsilon must lie in (0, 1)")
    base = np.asarray(spec.moments.values, dtype=float)
    rng = np.random.default_rng(seed)
    jitter = rng.uniform(1.0 - epsilon, 1.0 + epsilon, size=base.shape)
    repaired = np.minimum.accumulate(base * jitter)
    moments = MomentSequence(tuple(repaired))
    return SpaceSpec(KIND_DIAGONAL_BESOV, spec.d, spec.N, spec.max_degree, moments=moments)


def realized_weight_deviation(spec: SpaceSpec, perturbed: SpaceSpec) -> float:
    """Largest relative moment deviation between two moment-based spaces."""
    if spec.kind != KIND_DIAGONAL_BESOV or perturbed.kind != KIND_DIAGONAL_BESOV:
        raise ArgumentError("both spaces must be moment-based")
    a = np.asarray(spec.moments.values, dtype=float)
    b = np.asarray(perturbed.moments.values, dtype=float)
    m = min(len(a), len(b))
    return float(np.max(np.abs(b[:m] / a[:m] - 1.0)))


@dataclass
class WeightStabilityReport(JsonRecord):
    """Index comparison between a space and a perturbed-weight copy."""

    n: int
    epsilon: float
    base_residual: float
    perturbed_residual: float
    bound: float
    ratio: float | None
    holds: bool


def check_weight_stability(
    spec: SpaceSpec,
    perturbed: SpaceSpec,
    f: Polynomial,
    n: int,
    epsilon: float | None = None,
) -> WeightStabilityReport:
    """Verify C_n under the perturbed weight is at most sqrt(1+eps) times C_n.

    The f-optimal multiplier under the base weight is feasible for the
    perturbed problem and its objective inflates by at most sqrt(1+eps)
    coefficientwise, so the optimal perturbed residual obeys the bound.
    When epsilon is omitted the realized moment deviation is used, which is
    never larger than the requested jitter.
    """
    if epsilon is None:
        epsilon = realized_weight_deviation(spec, perturbed)
    elif not epsilon >= 0:
        raise ArgumentError(f"epsilon must be >= 0, not {brief(epsilon)}")
    one = Polynomial.one(spec.d)
    base = subspace_distance(spec, one, f, n).residual
    pert = subspace_distance(perturbed, one, f, n).residual
    bound = math.sqrt(1.0 + epsilon) * base + 1e-10
    ratio = pert / base if base > 0 else None
    return WeightStabilityReport(
        n=n,
        epsilon=epsilon,
        base_residual=base,
        perturbed_residual=pert,
        bound=bound,
        ratio=ratio,
        holds=pert <= bound,
    )


def power_membership_residual(
    spec: SpaceSpec, phi: Polynomial, k: int, n: int
) -> float:
    """Distance from phi^k to the degree-n multiples of phi^(k+1).

    A vanishing limit over n is the finite-degree proxy for phi^k lying in
    the invariant subspace generated by phi^(k+1). `subspace_distance` and
    the power check its inputs.
    """
    return subspace_distance(spec, phi**k, phi ** (k + 1), n).residual


def inverse_truncation_multiplier_norms(
    spec: SpaceSpec, psi: Polynomial, l_max: int, n_in: int
) -> list[float]:
    """Section norms of the truncated inverse series of psi, by length.

    For psi bounded below on the closed domain the truncations of 1/psi
    stay uniformly bounded and the section norms stabilize; the returned
    values are lower bounds for each truncation's multiplier norm.
    """
    # a truncation of length l_max needs a section reaching degree l_max
    if not 0 <= l_max <= spec.max_degree:
        raise ArgumentError(f"l_max must lie in 0..{spec.max_degree}, not {brief(l_max)}")
    q = invert_power_series(psi, l_max)
    return [
        multiplier_norm_lower(spec, q.truncated(length), n_in)
        for length in range(l_max + 1)
    ]
