"""Mixed-norm and variable-exponent norms by quadrature, with convex
minimization of the finite-degree index outside the Hilbert case.

The radial measure enters through an explicit quadrature rule (nodes and
positive weights on [0, 1]); the angular integral uses the equispaced rule
on the circle for d = 1 (spectrally exact for trigonometric polynomials of
bounded degree) and seeded Monte Carlo sphere sampling for d >= 2. With
p = q = 2, d = 1 and an exact radial rule every quantity here reduces to
the diagonal Hilbert norms of `spaces`, which is both the consistency
oracle and the warm start for the iteratively reweighted least-squares
index solver. At d >= 2 the reduction holds only to the Monte Carlo error
(on the 24-node area rule at d = 2, percents at 256 angular points and
tenths of a percent at 2048; ROADMAP item 8).

A positive derivative order N kills constants, so the Hilbert-space norm
adds a mass * |f(0)|^2 term. The quadrature norms mirror that convention
behind the `include_constant_term` flag (default on) so the p = q = 2
reduction covers the constant term too; disable it for the bare
double-integral norm.
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
from .poly import (JsonRecord, Polynomial, bind, brief, camel, choose, graded_rank,
                   read_keys, shifted_columns)
from .solver import solve_normal_equations
from .spaces import KIND_DIAGONAL_BESOV, MomentSequence, SpaceSpec, sphere_sample

RADIAL_POINT_MASS = "point_mass"
RADIAL_AREA = "area"
RADIAL_COUNT = 40  # the area rule's Gauss-Legendre nodes by default

# magnitudes raised to negative powers in IRLS weights are floored here
_FLOOR = 1e-12
# IRLS stops after this many steps, or once a step lowers the objective by less
IRLS_MAX_ITER = 60
IRLS_DECREASE_TOL = 1e-10
MAX_NODES = 1024  # Gauss-Legendre radial nodes: a count x count eigenproblem, 0.1 s
MAX_GRID = 1 << 24  # radial nodes x angular points x d complex coordinates: 256 MB
MAX_ORDER = 1023  # R^N scales degree k by k^N, and 2^1023 is a float
# IRLS steps solve a C(n + d, d)^2 weighted Gram, built from a table of at most
# this many monomial pairs or else from the dense grid design, grid rows x
# C(n + d, d). The moment route holds no design, but the design route and a
# fallback step build one, so the design is held to this bound too
MAX_IRLS_ENTRIES = 1 << 26
# the JSON keys of every spec; the rest are a subclass's exponent keys
_SHARED_KEYS = ("d", "N", "radial", "angular", "includeConstantTerm")


def radial_rule(measure: str, count: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes and weights for a named radial measure on [0, 1].

    "point_mass": unit mass at r = 1 (boundary measure, exact); one node,
    so it takes no count.
    "area": d(mu) = 2r dr via Gauss-Legendre on count nodes (RADIAL_COUNT
    by default), exact for radial polynomials of degree <= 2*count - 2.
    """
    if measure == RADIAL_POINT_MASS:
        if count is not None:
            raise ArgumentError("the point_mass radial rule has one node and takes no count")
        return np.array([1.0]), np.array([1.0])
    if measure == RADIAL_AREA:
        count = RADIAL_COUNT if count is None else count
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
    norm formula: `_norm` of the magnitudes of the grid values of R^N f and
    of the constant term f(0) (counted only when `uses_constant_term`), and
    `_irls_weights`, the weights of that norm's reweighted least-squares
    step, from the same magnitudes.
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
        if not np.all((nodes >= 0) & (nodes <= 1)):
            raise ArgumentError("radial nodes must lie in [0, 1]")
        if not np.all((weights > 0) & np.isfinite(weights)):
            raise ArgumentError("radial weights must be positive and finite")
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
        # the largest budget n whose IRLS Gram, and the design that the design
        # route or a fallback step builds, fit MAX_IRLS_ENTRIES, counted up
        # from n = 0 with cols = C(n + 1 + d, d), or at once at d = 1
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
    def with_measure(cls, measure: str, d: int, N: int, *params,
                     radial_count: int | None = None, **kwargs):
        """Spec on the named radial rule (`radial_rule`); params are the
        subclass's exponents."""
        nodes, weights = radial_rule(measure, radial_count)
        descriptor = {"measure": measure}
        if measure == RADIAL_AREA:
            descriptor["count"] = nodes.size
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

            def point_mass():
                return cls.with_measure(RADIAL_POINT_MASS, d, N, *params, **kwargs)

            def area(count: int = RADIAL_COUNT):
                return cls.with_measure(RADIAL_AREA, d, N, *params, radial_count=count, **kwargs)

            def tabulated(nodes: list[float], weights: list[float]):
                return cls(d, N, *params, nodes, weights, **kwargs)

            if isinstance(radial, Mapping) and "measure" in radial:
                rules = {RADIAL_POINT_MASS: point_mass, RADIAL_AREA: area}
                return choose("measure", rules, what="radial")(radial)
            return bind(tabulated, radial, "radial")

        return bind(shared, {k: v for k, v in obj.items() if k in _SHARED_KEYS}, what)


class MixedSpec(_QuadratureSpec):
    """Mixed-norm space: inner angular exponent p, outer radial exponent q."""

    def __init__(self, d, N, p, q, radial_nodes, radial_weights, **kwargs):
        if not (p >= 1 and q >= 1):
            raise ArgumentError("exponents p, q must be >= 1")
        super().__init__(d, N, radial_nodes, radial_weights, **kwargs)
        self.p = float(p)
        self.q = float(q)

    def _params_json(self) -> dict:
        return {"p": self.p, "q": self.q}

    @staticmethod
    def _params_from_json(p: float, q: float) -> tuple[tuple, dict]:
        return (p, q), {}

    def _norm(self, mags: np.ndarray, constant: float) -> float:
        # powers of |v / s| stay in range at any scale s of finite values
        constant = constant if self.uses_constant_term else 0.0
        scale = max(float(np.max(mags, initial=0.0)), constant) or 1.0
        inner = np.mean((mags / scale) ** self.p, axis=1)
        total = float(self.radial_weights @ inner ** (self.q / self.p))
        total += self.mass * (constant / scale) ** self.q
        return scale * total ** (1.0 / self.q)

    def _irls_weights(self, mags: np.ndarray, constant: float):
        # the gradient of the q-th power of the norm over 2|v|, up to q/2
        floored = np.maximum(mags, _FLOOR)
        inner = np.maximum(np.mean(mags ** self.p, axis=1), _FLOOR)
        grid = (
            self.radial_weights[:, None]
            / self.angular_count
            * inner[:, None] ** (self.q / self.p - 1.0)
            * floored ** (self.p - 2.0)
        )
        return grid, self.mass * max(constant, _FLOOR) ** (self.q - 2.0)


class VarExpSpec(_QuadratureSpec):
    """Variable-exponent space with a radial exponent profile p(r) = a + b r^c.

    A Lipschitz radial profile is automatically log-Holder continuous, which
    is the regularity the Luxemburg-norm theory expects.
    """

    def __init__(
        self, d, N, a, b, c, radial_nodes, radial_weights,
        bisection_tol: float = 1e-12, **kwargs,
    ):
        if not a >= 1:
            raise ArgumentError("exponent offset a must be >= 1")
        if not a + min(b, 0.0) >= 1:
            raise ArgumentError("exponent profile must stay >= 1 on [0, 1]")
        if not c > 0:
            raise ArgumentError("exponent shape c must be positive")
        if not bisection_tol > 0:
            raise ArgumentError("bisection tolerance must be positive")
        super().__init__(d, N, radial_nodes, radial_weights, **kwargs)
        self.a = float(a)
        self.b = float(b)
        self.c = float(c)
        self.bisection_tol = float(bisection_tol)
        self._exponents = self.a + self.b * self.radial_nodes**self.c
        self._exponents.flags.writeable = False
        # the magnitudes `_norm` measured last and their lam (`_irls_weights`)
        self._measured = (None, 0.0)

    def exponents(self) -> np.ndarray:
        """p evaluated at the radial nodes (read-only)."""
        return self._exponents

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

    def _node_sums(self, mags: np.ndarray) -> tuple[int, np.ndarray]:
        """e and sums[r] = w_r mean(|v / s|^p_r) for the power of two s = 2^e
        just above max|v|, so that the modular at lam is the sum of
        `_modular_terms(sums, lam / s)`; a power of two keeps lam / s exact."""
        peak = float(np.max(mags, initial=0.0))
        if peak == 0.0:
            return 0, np.zeros_like(self.radial_weights)
        exponent = math.frexp(peak)[1]
        scaled = np.ldexp(mags, -exponent) ** self._exponents[:, None]
        return exponent, self.radial_weights * np.mean(scaled, axis=1)

    def _modular_terms(self, sums: np.ndarray, mu: float) -> np.ndarray:
        """The modular's node terms sums[r] mu^(-p_r) at the scaled lam mu."""
        return sums * mu ** -self._exponents

    def _luxemburg(self, mags: np.ndarray) -> float:
        """Root lam of modular(lam) = 1 by safeguarded Newton steps on a
        closed-form bracket.

        With M = sum of the node sums, M * mu^(-p_max) and M * mu^(-p_min)
        bound the scaled modular on either side of mu = 1, so its root lies
        between M^(1/p_max) and M^(1/p_min). In log mu the log of the modular
        is a log-sum-exp of linear functions (one, for a constant exponent),
        convex and decreasing, so a Newton step from either side lands at or
        below the root: mu * phi^(1/pbar), pbar the exponents' mean weighted
        by the terms. The first probe is tol/4 above the bracket, which
        settles a constant exponent at once. Each later probe is the Newton
        point pushed tol/4 toward the side not just probed, so that once the
        steps have converged one probe lands on each side of the root, and a
        probe outside the bracket is replaced by its midpoint. The returned
        lam is the upper end of a bracket of relative width <= tol, evaluated
        at modular(lam) <= 1, whose lower end is the closed form's or
        evaluated above 1.
        """
        exponent, sums = self._node_sums(mags)
        total = float(sums.sum())
        if total == 0.0:
            return 0.0
        pexp = self._exponents
        lo, top = sorted((total ** (1.0 / pexp.max()), total ** (1.0 / pexp.min())))
        # a few ulps is the finest width at which a midpoint still splits
        tol = max(self.bisection_tol, 4.0 * np.finfo(float).eps)
        hi = math.inf  # the smallest probe evaluated at modular <= 1
        mu = top * (1.0 + tol / 4.0)
        while True:
            terms = self._modular_terms(sums, mu)
            phi = float(terms.sum())
            if phi <= 1.0:
                hi = mu
            else:
                lo = mu
            if lo >= hi * (1.0 - tol):
                return math.ldexp(hi, exponent)
            # the Newton point, pushed tol/4 toward the side not just probed
            push = 1.0 + tol / 4.0 if phi > 1.0 else 1.0 - tol / 4.0
            mu *= phi ** (phi / float(pexp @ terms)) * push
            if not lo < mu < hi:
                mu = (lo + hi) / 2.0

    def _norm(self, mags: np.ndarray, constant: float) -> float:
        lam = self._luxemburg(mags)
        self._measured = (mags, lam)
        if self.uses_constant_term:
            return math.hypot(math.sqrt(self.mass) * constant, lam)
        return lam

    def _irls_weights(self, mags: np.ndarray, constant: float):
        # On modular(v, lam) = 1, d lam / d|v| = lam (w/m) p |v|^(p-1) lam^-p / S
        # with S = sum (w/m) p (|v|/lam)^p. The factor lam^2 / S turns that
        # gradient over 2|v| into the one of lam^2, whose scale the constant
        # term's weight, the gradient of mass |c|^2 over 2|c|, shares.
        # the IRLS weighs the residual whose norm it has just accepted, so the
        # root of that `_norm` call answers
        measured, lam = self._measured
        lam = max(lam if measured is mags else self._luxemburg(mags), _FLOOR)
        pexp = self._exponents[:, None]
        floored = np.maximum(mags, _FLOOR)
        grid = self.radial_weights[:, None] / self.angular_count * pexp * (floored / lam) ** pexp
        return grid * (lam * lam / grid.sum()) / (floored * floored), self.mass


def mixed_norm(spec: MixedSpec | VarExpSpec, f: Polynomial) -> float:
    """The norm of f in a quadrature spec. A `MixedSpec` gives (integral of
    (angular p-mean of |R^N f|)^(q/p) d(mu))^(1/q), a `VarExpSpec` the
    Luxemburg norm inf{lam > 0 : modular(f, lam) <= 1} by safeguarded
    Newton steps on a closed-form bracket. When N > 0 and the flag is on the
    constant term joins, as sqrt(mass |f(0)|^2 + lam^2) in the Luxemburg
    case (module docstring)."""
    values = spec.grid_values(f.radial_derivative(spec.N))
    return spec._norm(np.abs(values), abs(f.constant_term))


luxemburg_norm = mixed_norm


def modular(spec: VarExpSpec, f: Polynomial, lam: float) -> float:
    """Integral of |R^N f / lam|^(p(r)) against the radial-angular measure.

    Strictly decreasing and continuous in lam whenever R^N f is not
    identically zero.
    """
    if lam <= 0:
        raise ArgumentError("lam must be positive")
    exponent, sums = spec._node_sums(np.abs(spec.grid_values(f.radial_derivative(spec.N))))
    return float(spec._modular_terms(sums, math.ldexp(lam, -exponent)).sum())


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
    """The factors of the grid design of min ||1 - phi f|| over deg(phi) <= n,
    and the per-index tables of its IRLS steps.

    z^alpha at radial node r and angular point u is r^|alpha| u^alpha, and
    R^N scales z^alpha by |alpha|^N, so column gamma of the design, R^N(z^gamma
    f) on the grid, is sum_alpha coeffs[alpha, gamma] r^|alpha| u^alpha. The
    monomials are those that some column or the target reaches, at most
    k |f| + 1 of them, with the unit first.
    """

    # Re and Im of u^t on rows 2t and 2t + 1, angular points along them: the
    # K monomials at d >= 2, and at d = 1 the T degree differences of the
    # monomial pairs (every degree among them), as the transposed real view
    # of the complex table E[j, t] = u_j^t
    angular: np.ndarray
    slots: np.ndarray  # the t of each monomial
    radial: np.ndarray  # r^|alpha|: radial nodes x monomials
    degrees: np.ndarray  # |alpha| of each monomial, in graded order
    coeffs: np.ndarray  # the shifted coefficient columns, rows scaled by |alpha|^N
    target: complex  # R^N 1, a constant on the grid
    cols: list  # the exponent gamma of each column
    powers: np.ndarray  # r^s for the degree sums s of the moment table: nodes x sums
    # d = 1: the cell of each monomial pair in [P, conj P] of `_normal_equations`
    pairs: np.ndarray | None
    blocks: np.ndarray | None  # d >= 2: the first monomial of each degree, and K


def _grid_tables(spec: _QuadratureSpec, f: Polynomial, n: int) -> _GridTables:
    top = n + f.degree
    spec._check_resolution(top)
    # the degree of every rank up to top, graded blocks of C(k + d - 1, d - 1)
    sizes = [math.comb(k + spec.d - 1, spec.d - 1) for k in range(top + 1)]
    degrees = np.repeat(np.arange(top + 1), sizes)
    one = Polynomial.one(spec.d)
    coeffs, target, cols, kept = shifted_columns(one, f, n, degrees ** float(spec.N), dense=True)
    degrees = degrees[kept]
    radial = spec.radial_nodes[:, None] ** degrees
    if spec.d == 1:
        # H[a, b] = P[deg a + deg b, deg b - deg a] above the diagonal and its
        # conjugate below, P = V E the moments by the phases (`_normal_equations`)
        add = np.add.outer(degrees, degrees)
        sums, sum_at = np.unique(add, return_inverse=True)
        gap = np.subtract.outer(degrees, degrees)
        diffs, diff_at = np.unique(np.abs(gap), return_inverse=True)
        cells = sum_at.reshape(add.shape) * len(diffs) + diff_at.reshape(add.shape)
        pairs = np.where(gap > 0, cells + len(sums) * len(diffs), cells)
        angular = (spec._angular ** diffs).view(float).T
        slots, blocks = np.searchsorted(diffs, degrees), None  # deg b - deg 0 = deg b
        powers = spec.radial_nodes[:, None] ** sums
    else:
        # the kept monomials are the unit and the products z^gamma z^alpha of
        # the columns and f's terms, so their exponents come from those alone
        products = (np.array(cols)[:, None, :] + np.array(list(f.coeffs))).reshape(-1, spec.d)
        products = np.concatenate((np.zeros((1, spec.d), dtype=products.dtype), products))
        exponents = products[np.unique(graded_rank(products), return_index=True)[1]]
        values = np.prod(spec._angular ** exponents[:, None, :], axis=2)
        angular = np.stack((values.real, values.imag), axis=1).reshape(-1, spec.angular_count)
        slots, pairs = np.arange(len(degrees)), None
        blocks = np.append(np.unique(degrees, return_index=True)[1], len(degrees))
        powers = spec.radial_nodes[:, None] ** np.arange(2 * top + 1)
    return _GridTables(angular, slots, radial, degrees, coeffs, target[0], cols, powers, pairs,
                       blocks)


def _grid_design(spec: _QuadratureSpec, f: Polynomial, tables: _GridTables):
    """Design and target of the least-squares problem of `tables`: the grid
    values of each column (radial node major), then in a last row its
    constant term, which the norm counts only when `uses_constant_term`."""
    parts, slots, radial, _, coeffs, target, cols = tables[:7]
    angular = np.empty((len(slots), spec.angular_count), dtype=complex)
    angular.real, angular.imag = parts[2 * slots], parts[2 * slots + 1]
    # column-major, so that each column's grid block, (node, point), is a
    # view written in place below
    design = np.zeros((radial.shape[0] * spec.angular_count + 1, len(cols)), dtype=complex,
                      order="F")
    grid = design[:-1].T.reshape(len(cols), radial.shape[0], spec.angular_count)
    np.matmul(radial[:, None, :] * coeffs.T, angular, out=grid.transpose(1, 0, 2))
    design[-1, 0] = f.constant_term
    rhs = np.full(len(design), target)
    rhs[-1] = 1.0
    return design, rhs


def _table_residual(f: Polynomial, tables: _GridTables):
    """The residual b - A x of the design A and target b of `_grid_design`,
    as a function of x: grid values target - (r^|alpha| (C x)_alpha) u^alpha,
    one real product of radial nodes x monomials by monomials x angular
    points, and the constant term 1 - f(0) x_0, since only column 0
    (gamma = 0) has one."""
    nodes = len(tables.radial)
    count, points = tables.angular.shape

    def residual(x: np.ndarray):
        # the real view of conj(y) pairs (Re y, -Im y) with (Re u, Im u), so
        # its rows give Re(y u), and those of i conj(y) give Im(y u)
        y = np.zeros((nodes, count // 2), dtype=complex)
        y[:, tables.slots] = np.conj(tables.radial * (tables.coeffs @ x))
        products = np.concatenate((y, 1j * y)).view(float) @ tables.angular
        values = np.empty((nodes, points), dtype=complex)
        np.subtract(tables.target.real, products[:nodes], out=values.real)
        np.subtract(tables.target.imag, products[nodes:], out=values.imag)
        return values, 1.0 - f.constant_term * x[0]

    return residual


def _normal_equations(spec: _QuadratureSpec, f: Polynomial, tables: _GridTables,
                      grid: np.ndarray, constant: float):
    """Gram A^H U A and A^H U b of the design A and target b of `_grid_design`
    under the weights U: grid[r, j] on the row of radial node r and angular
    point j, constant on the constant-term row. Neither A nor U A is formed.

    With the radial moments V[s, j] = sum_r grid[r, j] r^s, the Gram of the
    monomials is H[alpha, beta] = sum_j conj(u_j^alpha) u_j^beta
    V[|alpha| + |beta|, j], and A^H U A = C^H H C for the coefficient
    columns C. Column 0 of H, beta = 0, gives A^H U b on the grid. At d = 1,
    with E[j, t] = u_j^t, H[a, b] is (V E)[a + b, b - a] above the diagonal,
    one product; at d >= 2 it is real products of the angular parts, one
    block of rows per degree. Either way no complex factor meets a real one
    in a product.
    """
    coeffs = tables.coeffs
    with np.errstate(over="ignore", invalid="ignore"):
        if tables.pairs is not None:
            # V E = r^s (grid E), by real products with E's real view
            transform = grid @ tables.angular.T
            products = (tables.powers.T @ transform).view(complex)
            table = np.concatenate((products, products.conj()), axis=None)[tables.pairs]
        else:
            table = _angular_table(tables, tables.powers.T @ grid)
        gram = coeffs.conj().T @ table @ coeffs
        rhs = tables.target * (coeffs.conj().T @ table[:, 0])
    # the constant-term row holds f(0) in column 0 and 1 in the target
    gram[0, 0] += constant * abs(f.constant_term) ** 2
    rhs[0] += constant * np.conj(f.constant_term)
    return gram, rhs


def _angular_table(tables: _GridTables, moments: np.ndarray) -> np.ndarray:
    """H of `_normal_equations` at d >= 2 from the moments V, by rows of one
    degree from the diagonal block on: one real product of the rows' (Re, Im)
    parts by the weighted parts of the columns gives the four real sums of
    each entry."""
    degrees, rows = tables.degrees, tables.angular
    count, m = len(degrees), rows.shape[1]
    parts = rows.reshape(count, 2, m)
    table = np.empty((count, count), dtype=complex)
    for lo, hi in zip(tables.blocks, tables.blocks[1:]):
        weighted = parts[lo:] * moments[degrees[lo] + degrees[lo:], None, :]
        block = (rows[2 * lo:2 * hi] @ weighted.reshape(-1, m).T).reshape(hi - lo, 2, -1, 2)
        # conj(u^a) u^b = Re Re + Im Im + i (Re_a Im_b - Im_a Re_b)
        table[lo:hi, lo:].real = block[:, 0, :, 0] + block[:, 1, :, 1]
        table[lo:hi, lo:].imag = block[:, 0, :, 1] - block[:, 1, :, 0]
        table[hi:, lo:hi] = table[lo:hi, hi:].conj().T
    return table


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

    At d = 1 the moment table comes from two real products, of the R x m
    weights by the m x T phases and of the S x R radial powers by that, for
    the S degree sums and T degree differences of the monomial pairs: about
    2 R m T + 2 S R T multiply-adds, with S < 2K and T <= K when the K
    monomials are consecutive degrees. The design route copies the R m x k
    design and multiplies it in R m k^2 complex ones. So d = 1 takes the
    moments whenever the S x T products and the K x K table fit
    MAX_IRLS_ENTRIES, like the Gram.

    At d >= 2, for K monomials that the columns or the target reach, k
    columns, R radial nodes and m angular points, the moment route fills the
    K x K table with about m K^2 / 2 multiply-adds, in one product per degree
    present. Timed per step on d = 2 and 3 grids, the moment route was
    faster below K^2 = R k^2 / 16, slower above R k^2 / 2, and at the
    threshold R k^2 / 8 the route taken was at most twice as slow as the
    other. Trial residuals read the monomial tables on both routes, so they
    cost the same either way; only the design route builds the design, once.
    """
    K, k = len(tables.degrees), len(tables.cols)
    if spec.d == 1:
        return max(tables.powers.shape[1] * len(tables.angular) // 2, K * K) <= MAX_IRLS_ENTRIES
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
    by_moments = _moment_route(spec, tables)
    # the design is built only for the design route's Gram, or by a step's
    # fallback solve; every trial residual comes from the tables
    design = None if by_moments else _grid_design(spec, f, tables)
    residual = _table_residual(f, tables)

    def magnitudes(x: np.ndarray):
        # what the norm and the weights read of a residual, taken once
        values, constant = residual(x)
        return np.abs(values), abs(constant)

    def weighted(grid: np.ndarray, constant: float):
        a, b = _grid_design(spec, f, tables) if design is None else design
        sqrt_u = np.sqrt(np.append(grid, constant))
        return a * sqrt_u[:, None], b * sqrt_u

    start = subspace_distance(twin, Polynomial.one(spec.d), f, n).phi
    x = np.array([start.coefficient(gamma) for gamma in tables.cols], dtype=complex)
    current = magnitudes(x)
    best_value = spec._norm(*current)
    converged = False
    iterations = 0
    for iterations in range(1, IRLS_MAX_ITER + 1):
        grid, constant = spec._irls_weights(*current)
        constant = constant if spec.uses_constant_term else 0.0
        if by_moments:
            equations = _normal_equations(spec, f, tables, grid, constant)
        else:
            equations = _design_normal_equations(*design, grid, constant)
        proposal = solve_normal_equations(
            *equations, functools.partial(weighted, grid, constant)
        ).coefficients
        for tau in 0.5 ** np.arange(30):
            trial = x + tau * (proposal - x)
            trial_residual = magnitudes(trial)
            trial_value = spec._norm(*trial_residual)
            if trial_value < best_value - 1e-15 * max(best_value, 1.0):
                break
        else:
            converged = bool(np.linalg.norm(proposal - x) <= 1e-8 * (1.0 + np.linalg.norm(x)))
            break
        decrease = best_value - trial_value
        x, best_value, current = trial, trial_value, trial_residual
        if decrease < IRLS_DECREASE_TOL:
            converged = True
            break
    phi = Polynomial.from_solution(spec.d, tables.cols, x)
    return MixedIndexResult(n, best_value, phi, iterations, converged)
