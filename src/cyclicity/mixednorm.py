"""Mixed-norm and variable-exponent norms by quadrature, with convex
minimization of the finite-degree index outside the Hilbert case.

The radial measure enters through an explicit quadrature rule (nodes and
positive weights on [0, 1]); the angular integral uses the equispaced rule
on the circle for d = 1 (spectrally exact for trigonometric polynomials of
bounded degree) and seeded Monte Carlo sphere sampling for d >= 2. With
p = q = 2 and an exact radial rule every quantity here reduces to the
diagonal Hilbert norms of `spaces`, which is both the consistency oracle
and the warm start for the iteratively reweighted least-squares index
solver.

A positive derivative order N kills constants, so the Hilbert-space norm
adds a mass * |f(0)|^2 term. The quadrature norms mirror that convention
behind the `include_constant_term` flag (default on) so the p = q = 2
reduction is exact; disable it for the bare double-integral norm.
"""

from __future__ import annotations

import functools
import inspect
import math
import warnings
from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np

from .errors import ArgumentError, DegenerateInputError, DimensionMismatchError
from .indices import subspace_distance
from .poly import (JsonRecord, Polynomial, bind, brief, camel, multi_indices, read_keys,
                   shifted_columns)
from .solver import solve_normal_equations
from .spaces import KIND_DIAGONAL_BESOV, MomentSequence, SpaceSpec, sphere_sample

RADIAL_POINT_MASS = "point_mass"
RADIAL_AREA = "area"

# magnitudes raised to negative powers in IRLS weights are floored here
_FLOOR = 1e-12
# IRLS stops after this many steps, or once a step lowers the objective by less
IRLS_MAX_ITER = 60
IRLS_DECREASE_TOL = 1e-10
MAX_NODES = 1024  # Gauss-Legendre radial nodes: a count x count eigenproblem, 0.1 s
MAX_GRID = 1 << 24  # radial nodes x angular points x d complex coordinates: 256 MB
MAX_ORDER = 1023  # R^N scales degree k by k^N, and 2^1023 is a float
# the IRLS objective evaluates a dense design, grid rows x C(n + d, d), and its
# steps solve that design's C(n + d, d)^2 weighted Gram, which they build from a
# table of at most this many monomial pairs or else from the design
MAX_IRLS_ENTRIES = 1 << 26
# the JSON keys of every spec; the rest are a subclass's exponent keys
_SHARED_KEYS = ("d", "N", "radial", "angular", "includeConstantTerm")


def radial_rule(measure: str, count: int = 40) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes and weights for a named radial measure on [0, 1].

    "point_mass": unit mass at r = 1 (boundary measure, exact).
    "area": d(mu) = 2r dr via Gauss-Legendre, exact for radial polynomials
    of degree <= 2*count - 2.
    """
    if measure == RADIAL_POINT_MASS:
        return np.array([1.0]), np.array([1.0])
    if measure == RADIAL_AREA:
        if not 2 <= count <= MAX_NODES:
            raise ArgumentError(f"radial count must lie in 2..{MAX_NODES}, not {brief(count)}")
        t, v = np.polynomial.legendre.leggauss(count)
        nodes = (t + 1.0) / 2.0
        weights = (v / 2.0) * 2.0 * nodes
        return nodes, weights
    raise ArgumentError(f"unknown radial measure {brief(measure)}")


class _QuadratureSpec:
    """Shared radial-times-angular evaluation grid.

    A subclass takes its own exponent parameters after (d, N), converts them
    to JSON in `_params_json` and from JSON in `_params_from_json`, a
    function whose signature is the subclass's own keys, and owns one
    norm formula: `_norm` of grid values of R^N f plus the constant term f(0)
    (counted only when `uses_constant_term`), and `_irls_weights`, the
    weights of that norm's reweighted least-squares step.
    """

    def __init__(
        self,
        d: int,
        N: int,
        radial_nodes,
        radial_weights,
        angular_count: int = 256,
        seed: int = 0,
        include_constant_term: bool = True,
        descriptor: Mapping | None = None,
    ):
        if d < 1:
            raise ArgumentError("d must be >= 1")
        if not 0 <= N <= MAX_ORDER:
            raise ArgumentError(f"derivative order N must lie in 0..{MAX_ORDER}, not {brief(N)}")
        nodes = np.asarray(radial_nodes, dtype=float)
        weights = np.asarray(radial_weights, dtype=float)
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise ArgumentError("radial nodes and weights must be equal-length vectors")
        if np.any(nodes < 0) or np.any(nodes > 1):
            raise ArgumentError("radial nodes must lie in [0, 1]")
        if np.any(weights <= 0):
            raise ArgumentError("radial weights must be positive")
        if angular_count < 8:
            raise ArgumentError("angular_count must be >= 8")
        if nodes.size * angular_count * d > MAX_GRID:
            raise ArgumentError(f"d = {brief(d)}, radial count = {nodes.size} and angular count "
                                f"= {brief(angular_count)} give more than {MAX_GRID} grid "
                                "coordinates")
        if seed < 0:  # the d >= 2 grid is drawn here, before a caller could check
            raise ArgumentError(f"angular seed must be >= 0, not {brief(seed)}")
        self.d = int(d)
        self.N = int(N)
        self.radial_nodes = nodes
        self.radial_weights = weights
        self.angular_count = int(angular_count)
        self.seed = int(seed)
        self.include_constant_term = bool(include_constant_term)
        self.descriptor = dict(descriptor) if descriptor else None
        self._angular = self._build_angular()
        # the largest budget n whose IRLS design and Gram fit MAX_IRLS_ENTRIES,
        # counted up from n = 0 with cols = C(n + 1 + d, d), or at once at d = 1
        rows = nodes.size * self.angular_count + 1
        limit = min(MAX_IRLS_ENTRIES // rows, math.isqrt(MAX_IRLS_ENTRIES))
        self.max_budget, cols = (limit - 1, limit + 1) if self.d == 1 else (0, self.d + 1)
        while cols <= limit:
            self.max_budget += 1
            cols = cols * (self.max_budget + 1 + self.d) // (self.max_budget + 1)

    def _build_angular(self) -> np.ndarray:
        m = self.angular_count
        if self.d == 1:
            theta = 2.0 * np.pi * np.arange(m) / m
            return np.exp(1j * theta)[:, None]
        return sphere_sample(np.random.default_rng(self.seed), m, self.d)

    @classmethod
    def with_measure(cls, measure: str, d: int, N: int, *params, radial_count: int = 40,
                     **kwargs):
        """Spec on the named radial rule; params are the subclass's exponents."""
        nodes, weights = radial_rule(measure, radial_count)
        descriptor = {"measure": measure, "count": radial_count}
        return cls(d, N, *params, nodes, weights, descriptor=descriptor, **kwargs)

    @property
    def mass(self) -> float:
        """Total mass of the radial measure (= measure of the whole ball)."""
        return float(self.radial_weights.sum())

    @property
    def uses_constant_term(self) -> bool:
        return self.N > 0 and self.include_constant_term

    def _check_resolution(self, degree: int) -> None:
        # stacklevel points past grid_values or the index builder to the caller
        if self.d == 1 and self.angular_count < 8 * max(degree, 1):
            warnings.warn(
                "angular resolution below 8x polynomial degree; "
                "the circle rule may lose exactness",
                stacklevel=4,
            )

    def grid_values(self, h: Polynomial) -> np.ndarray:
        """Values of h on the (radial node) x (angular point) grid."""
        if h.d != self.d:
            raise DimensionMismatchError("polynomial does not match the spec dimension")
        self._check_resolution(h.degree)
        grid = self.radial_nodes[:, None, None] * self._angular[None, :, :]
        return h.evaluate_grid(grid)

    def to_json(self) -> dict:
        radial = dict(self.descriptor) if self.descriptor else {
            "nodes": self.radial_nodes.tolist(), "weights": self.radial_weights.tolist(),
        }
        return {
            "d": self.d,
            "N": self.N,
            **self._params_json(),
            "radial": radial,
            "angular": {"count": self.angular_count, "seed": self.seed},
            "includeConstantTerm": self.include_constant_term,
        }

    @classmethod
    def from_json(cls, obj: Mapping):
        """A spec from its JSON object, read by `bind`: the keys every spec
        shares here, the subclass's exponent keys by `_params_from_json`. A
        spec reads exactly the keys that its `to_json` writes."""
        what = cls.__name__
        own = map(camel, inspect.signature(cls._params_from_json).parameters)
        read_keys(obj, (*_SHARED_KEYS, *own), what)  # an unknown key is named with all allowed
        params, kwargs = bind(
            cls._params_from_json, {k: v for k, v in obj.items() if k not in _SHARED_KEYS}, what
        )

        def grid(count: int = 256, seed: int = 0):
            return {"angular_count": count, "seed": seed}

        def shared(d: int, radial, N: int = 0, angular=None, include_constant_term: bool = True):
            kwargs.update(bind(grid, {} if angular is None else angular, "angular"),
                          include_constant_term=include_constant_term)

            def measured(measure: str, count: int = 40):
                return cls.with_measure(measure, d, N, *params, radial_count=count, **kwargs)

            def tabulated(nodes: list[float], weights: list[float]):
                return cls(d, N, *params, nodes, weights, **kwargs)

            measure = isinstance(radial, Mapping) and "measure" in radial
            return bind(measured if measure else tabulated, radial, "radial")

        return bind(shared, {k: v for k, v in obj.items() if k in _SHARED_KEYS}, what)


class MixedSpec(_QuadratureSpec):
    """Mixed-norm space: inner angular exponent p, outer radial exponent q."""

    def __init__(self, d, N, p, q, radial_nodes, radial_weights, **kwargs):
        if p < 1 or q < 1:
            raise ArgumentError("exponents p, q must be >= 1")
        super().__init__(d, N, radial_nodes, radial_weights, **kwargs)
        self.p = float(p)
        self.q = float(q)

    def _params_json(self) -> dict:
        return {"p": self.p, "q": self.q}

    @staticmethod
    def _params_from_json(p: float, q: float) -> tuple[tuple, dict]:
        return (p, q), {}

    def _norm(self, values: np.ndarray, constant: complex) -> float:
        # powers of |v / s| stay in range at any scale s of finite values
        constant = abs(constant) if self.uses_constant_term else 0.0
        scale = max(float(np.max(np.abs(values), initial=0.0)), constant) or 1.0
        inner = np.mean((np.abs(values) / scale) ** self.p, axis=1)
        total = float(self.radial_weights @ inner ** (self.q / self.p))
        total += self.mass * (constant / scale) ** self.q
        return scale * total ** (1.0 / self.q)

    def _irls_weights(self, values: np.ndarray, constant: complex):
        # the gradient of the q-th power of the norm over 2|v|, up to q/2
        mags = np.maximum(np.abs(values), _FLOOR)
        inner = np.maximum(np.mean(np.abs(values) ** self.p, axis=1), _FLOOR)
        grid = (
            self.radial_weights[:, None]
            / self.angular_count
            * inner[:, None] ** (self.q / self.p - 1.0)
            * mags ** (self.p - 2.0)
        )
        return grid, self.mass * max(abs(constant), _FLOOR) ** (self.q - 2.0)


class VarExpSpec(_QuadratureSpec):
    """Variable-exponent space with a radial exponent profile p(r) = a + b r^c.

    A Lipschitz radial profile is automatically log-Holder continuous, which
    is the regularity the Luxemburg-norm theory expects.
    """

    def __init__(
        self, d, N, a, b, c, radial_nodes, radial_weights,
        bisection_tol: float = 1e-12, **kwargs,
    ):
        if a < 1:
            raise ArgumentError("exponent offset a must be >= 1")
        if a + min(b, 0.0) < 1:
            raise ArgumentError("exponent profile must stay >= 1 on [0, 1]")
        if c <= 0:
            raise ArgumentError("exponent shape c must be positive")
        if bisection_tol <= 0:
            raise ArgumentError("bisection tolerance must be positive")
        super().__init__(d, N, radial_nodes, radial_weights, **kwargs)
        self.a = float(a)
        self.b = float(b)
        self.c = float(c)
        self.bisection_tol = float(bisection_tol)

    def exponents(self) -> np.ndarray:
        """p evaluated at the radial nodes."""
        return self.a + self.b * self.radial_nodes**self.c

    def _params_json(self) -> dict:
        return {
            "exponent": {"a": self.a, "b": self.b, "c": self.c},
            "bisectionTol": self.bisection_tol,
        }

    @staticmethod
    def _params_from_json(exponent, bisection_tol: float = 1e-12) -> tuple[tuple, dict]:
        def profile(a: float, b: float = 0.0, c: float = 1.0):
            return a, b, c

        return bind(profile, exponent, "exponent"), {"bisection_tol": bisection_tol}

    def _node_sums(self, values: np.ndarray) -> tuple[float, np.ndarray]:
        """s = max|v| and sums[r] = w_r mean(|v / s|^p_r), so that the modular
        at lam is sum_r sums[r] (lam / s)^(-p_r)."""
        scale = float(np.max(np.abs(values), initial=0.0))
        if scale == 0.0:
            return 1.0, np.zeros_like(self.radial_weights)
        pexp = self.exponents()[:, None]
        return scale, self.radial_weights * np.mean((np.abs(values) / scale) ** pexp, axis=1)

    def _luxemburg(self, values: np.ndarray) -> float:
        """Root lam of modular(lam) = 1 by bisection on a closed-form bracket.

        With M = sum of the node sums, M * mu^(-p_max) and M * mu^(-p_min)
        bound the scaled modular on either side of mu = 1, so its root lies
        between M^(1/p_max) and M^(1/p_min).
        """
        scale, sums = self._node_sums(values)
        total = float(sums.sum())
        if total == 0.0:
            return 0.0
        pexp = self.exponents()
        lo, hi = sorted((total ** (1.0 / pexp.max()), total ** (1.0 / pexp.min())))
        # a few ulps is the finest width at which a midpoint still splits
        tol = max(self.bisection_tol, 4.0 * np.finfo(float).eps)
        while hi - lo > tol * hi:
            mid = (lo + hi) / 2.0
            lo, hi = (lo, mid) if sums @ mid ** -pexp <= 1.0 else (mid, hi)
        return scale * hi

    def _norm(self, values: np.ndarray, constant: complex) -> float:
        lam = self._luxemburg(values)
        if self.uses_constant_term:
            return math.hypot(math.sqrt(self.mass) * abs(constant), lam)
        return lam

    def _irls_weights(self, values: np.ndarray, constant: complex):
        # On modular(v, lam) = 1, d lam / d|v| = lam (w/m) p |v|^(p-1) lam^-p / S
        # with S = sum (w/m) p (|v|/lam)^p. The factor lam^2 / S turns that
        # gradient over 2|v| into the one of lam^2, whose scale the constant
        # term's weight, the gradient of mass |c|^2 over 2|c|, shares.
        lam = max(self._luxemburg(values), _FLOOR)
        pexp = self.exponents()[:, None]
        mags = np.maximum(np.abs(values), _FLOOR)
        grid = self.radial_weights[:, None] / self.angular_count * pexp * (mags / lam) ** pexp
        return grid * (lam * lam / grid.sum()) / (mags * mags), self.mass


def mixed_norm(spec: MixedSpec | VarExpSpec, f: Polynomial) -> float:
    """The norm of f in a quadrature spec. A `MixedSpec` gives (integral of
    (angular p-mean of |R^N f|)^(q/p) d(mu))^(1/q), a `VarExpSpec` the
    Luxemburg norm inf{lam > 0 : modular(f, lam) <= 1} by bracketed
    bisection. When N > 0 and the flag is on the constant term joins, as
    sqrt(mass |f(0)|^2 + lam^2) in the Luxemburg case (module docstring)."""
    return spec._norm(spec.grid_values(f.radial_derivative(spec.N)), f.constant_term)


luxemburg_norm = mixed_norm


def modular(spec: VarExpSpec, f: Polynomial, lam: float) -> float:
    """Integral of |R^N f / lam|^(p(r)) against the radial-angular measure.

    Strictly decreasing and continuous in lam whenever R^N f is not
    identically zero.
    """
    if lam <= 0:
        raise ArgumentError("lam must be positive")
    scale, sums = spec._node_sums(spec.grid_values(f.radial_derivative(spec.N)))
    return float(sums @ (lam / scale) ** -spec.exponents())


@dataclass
class MixedIndexResult(JsonRecord):
    """Finite-degree index value in a quadrature norm, with IRLS diagnostics."""

    n: int
    value: float
    phi: Polynomial
    iterations: int
    converged: bool


def _hilbert_twin(spec: _QuadratureSpec, max_degree: int) -> SpaceSpec:
    """Diagonal Hilbert space whose moments are the radial rule's moments."""
    powers = np.arange(2 * max_degree + 1)[:, None]
    moments = (spec.radial_weights * spec.radial_nodes**powers).sum(axis=1)
    # guard against roundoff bumps in what is mathematically nonincreasing
    moments = np.minimum.accumulate(moments)
    return SpaceSpec(
        KIND_DIAGONAL_BESOV, spec.d, spec.N, max_degree,
        moments=MomentSequence(tuple(moments)),
    )


class _GridTables(NamedTuple):
    """The factors of the grid design of min ||1 - phi f|| over deg(phi) <= n.

    z^alpha at radial node r and angular point u is r^|alpha| u^alpha, and
    R^N scales z^alpha by |alpha|^N, so column gamma of the design, R^N(z^gamma
    f) on the grid, is sum_alpha coeffs[alpha, gamma] r^|alpha| u^alpha.
    """

    angular: np.ndarray  # u^alpha: angular points x monomials of degree <= n + deg f
    degrees: np.ndarray  # |alpha| of each monomial, in graded order
    coeffs: np.ndarray  # the shifted coefficient columns, rows scaled by |alpha|^N
    target: complex  # R^N 1, a constant on the grid
    cols: list  # the exponent gamma of each column


def _grid_tables(spec: _QuadratureSpec, f: Polynomial, n: int) -> _GridTables:
    top = n + f.degree
    spec._check_resolution(top)
    exponents = np.array(multi_indices(spec.d, top))
    degrees = exponents.sum(axis=1)
    one = Polynomial.one(spec.d)
    coeffs, target, cols = shifted_columns(one, f, n, degrees ** float(spec.N), dense=True)
    angular = np.prod(spec._angular[:, None, :] ** exponents, axis=2)
    return _GridTables(angular, degrees, coeffs, target[0], cols)


def _grid_design(spec: _QuadratureSpec, f: Polynomial, tables: _GridTables):
    """Design and target of the least-squares problem of `tables`: the grid
    values of each column (radial node major), then in a last row its
    constant term, which the norm counts only when `uses_constant_term`."""
    angular, degrees, coeffs, target, cols = tables
    radial = spec.radial_nodes[:, None] ** degrees
    # column-major, so that each column's grid block, (node, point), is a
    # view written in place below
    design = np.zeros((radial.shape[0] * spec.angular_count + 1, len(cols)), dtype=complex,
                      order="F")
    grid = design[:-1].T.reshape(len(cols), radial.shape[0], spec.angular_count)
    np.matmul(radial[:, None, :] * coeffs.T, angular.T, out=grid.transpose(1, 0, 2))
    design[-1, 0] = f.constant_term
    rhs = np.full(len(design), target)
    rhs[-1] = 1.0
    return design, rhs


def _shifted_grid(spec: _QuadratureSpec, f: Polynomial, n: int):
    """Design, target and column exponents of min ||1 - phi f|| over
    deg(phi) <= n (`_grid_design`)."""
    tables = _grid_tables(spec, f, n)
    return (*_grid_design(spec, f, tables), tables.cols)


def _normal_equations(spec: _QuadratureSpec, f: Polynomial, tables: _GridTables,
                      grid: np.ndarray, constant: float):
    """Gram A^H U A and A^H U b of the design A and target b of `_grid_design`
    under the weights U: grid[r, j] on the row of radial node r and angular
    point j, constant on the constant-term row. Neither A nor U A is formed.

    With the radial moments V[j, s] = sum_r grid[r, j] r^s, the Gram of the
    monomials is H[alpha, beta] = sum_j conj(u_j^alpha) u_j^beta
    V[j, |alpha| + |beta|], and A^H U A = C^H H C for the coefficient
    columns C. Column 0 of H, beta = 0, gives A^H U b on the grid.
    """
    angular, degrees, coeffs, target, _ = tables
    top = int(degrees[-1])
    moments = grid.T @ spec.radial_nodes[:, None] ** np.arange(2 * top + 1)
    bounds = np.searchsorted(degrees, np.arange(top + 2))
    table = np.empty((len(degrees), len(degrees)), dtype=complex)
    conj = angular.conj().T
    with np.errstate(over="ignore", invalid="ignore"):
        # the rows of degree a from the diagonal block on; H is Hermitian
        for lo, hi in zip(bounds, bounds[1:]):
            weighted = angular[:, lo:] * moments[:, degrees[lo] + degrees[lo:]]
            table[lo:hi, lo:] = conj[lo:hi] @ weighted
            table[hi:, lo:hi] = table[lo:hi, hi:].conj().T
        gram = coeffs.conj().T @ table @ coeffs
        rhs = target * (coeffs.conj().T @ table[:, 0])
    # the constant-term row holds f(0) in column 0 and 1 in the target
    gram[0, 0] += constant * abs(f.constant_term) ** 2
    rhs[0] += constant * np.conj(f.constant_term)
    return gram, rhs


def _design_normal_equations(design: np.ndarray, rhs: np.ndarray, grid: np.ndarray,
                             constant: float):
    """Gram A^H U A and A^H U b of `_normal_equations`, from the design A
    itself through one array of its size, U conj(A)."""
    scaled = design.conj()
    scaled *= np.append(grid, constant)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        return scaled.T @ design, scaled.T @ rhs


def _moment_route(spec: _QuadratureSpec, tables: _GridTables) -> bool:
    """Whether an IRLS step takes its normal equations from radial moments
    (`_normal_equations`) rather than from the design
    (`_design_normal_equations`).

    For K monomials up to degree n + deg f, k columns, R radial nodes and m
    angular points, the moment route fills a K x K table with about
    m K^2 / 2 multiply-adds, in one small product per degree; the design
    route copies the R m x k design and multiplies it in R m k^2. Timed per
    step on d = 1, 2 and 3 grids, the moment route was faster below
    K^2 = R k^2 / 16, slower above R k^2 / 2 (1200 times slower for
    f = 1 - z_1^40 at n = 0 and R = 40), and at the threshold R k^2 / 8
    the route taken was at most twice as slow as the other. The table is
    also held to MAX_IRLS_ENTRIES, like the Gram.
    """
    K, k = len(tables.degrees), len(tables.cols)
    return K * K <= min(spec.radial_nodes.size * k * k // 8, MAX_IRLS_ENTRIES)


def mixed_index(
    spec: MixedSpec | VarExpSpec,
    f: Polynomial,
    n: int,
) -> MixedIndexResult:
    """Minimize ||1 - phi f|| over deg(phi) <= n in the quadrature norm.

    Iteratively reweighted least squares warm-started from the p = q = 2
    diagonal solution, with damped steps accepted only on true objective
    decrease; a stall away from a fixed point is reported as
    converged=False rather than silently accepted.
    """
    if f.is_zero:
        raise DegenerateInputError("f must be nonzero")
    if f.d != spec.d:
        raise DimensionMismatchError("f does not match the spec dimension")
    if not 0 <= n <= spec.max_budget:
        raise ArgumentError(f"n must lie in 0..{spec.max_budget}, not {brief(n)}")
    # the twin's weight table refuses a degree n + deg f, or an order N,
    # that the grid's monomial tables could not hold either
    twin = _hilbert_twin(spec, n + f.degree)
    tables = _grid_tables(spec, f, n)
    design, rhs = _grid_design(spec, f, tables)

    def residual(x: np.ndarray):
        r = rhs - design @ x
        return r[:-1].reshape(-1, spec.angular_count), r[-1]

    def weighted(grid: np.ndarray, constant: float):
        sqrt_u = np.sqrt(np.append(grid, constant))
        return design * sqrt_u[:, None], rhs * sqrt_u

    by_moments = _moment_route(spec, tables)
    start = subspace_distance(twin, Polynomial.one(spec.d), f, n).phi
    x = np.array([start.coefficient(gamma) for gamma in tables.cols], dtype=complex)
    current = residual(x)
    best_value = spec._norm(*current)
    converged = False
    iterations = 0
    for iterations in range(1, IRLS_MAX_ITER + 1):
        grid, constant = spec._irls_weights(*current)
        constant = constant if spec.uses_constant_term else 0.0
        if by_moments:
            equations = _normal_equations(spec, f, tables, grid, constant)
        else:
            equations = _design_normal_equations(design, rhs, grid, constant)
        proposal = solve_normal_equations(
            *equations, functools.partial(weighted, grid, constant)
        ).coefficients
        for tau in 0.5 ** np.arange(30):
            trial = x + tau * (proposal - x)
            trial_residual = residual(trial)
            trial_value = spec._norm(*trial_residual)
            if trial_value < best_value - 1e-15 * max(best_value, 1.0):
                break
        else:
            converged = np.linalg.norm(proposal - x) <= 1e-8 * (1.0 + np.linalg.norm(x))
            break
        decrease = best_value - trial_value
        x, best_value, current = trial, trial_value, trial_residual
        if decrease < IRLS_DECREASE_TOL:
            converged = True
            break
    phi = Polynomial.from_solution(spec.d, tables.cols, x)
    return MixedIndexResult(n, best_value, phi, iterations, converged)
