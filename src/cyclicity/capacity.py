"""Boundary zero sets and their potential-theoretic size.

Finite point clouds on the unit sphere of C^d stand in for boundary zero
sets. Three size measurements are provided and deliberately kept distinct:

* `riesz_equilibrium`: discrete equilibrium measure minimizing the pairwise
  Riesz (alpha > 0) or logarithmic (alpha = 0) energy over the probability
  simplex, solved exactly by a primal active-set method on the KKT system
  and certified by a reported optimality gap. Capacity is 1/energy for
  alpha > 0 and exp(-energy) for alpha = 0, which normalizes the full unit
  circle to capacity 1.
* `neighborhood_capacity`: normalized surface measure of a metric
  neighborhood of the cloud. For a closed set the infimum of integrals of
  continuous majorants of its indicator collapses to the measure of the set
  itself, so the neighborhood measure is the honest outer estimate. This is
  a different functional from the Riesz capacity and the two are never
  conflated.
* `box_dimension`: box-counting slope, a computable proxy for Hausdorff
  dimension (exact Hausdorff measure is out of scope).

`obstruction_report` bundles these with a degree sweep of the cyclicity
index and an interior zero probe, and emits a labeled heuristic verdict;
thresholds are configuration, not theorems.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (ArgumentError, DegenerateInputError, DimensionMismatchError,
                     NumericFailureError)
from .indices import (
    VERDICT_CYCLIC,
    VERDICT_PLATEAU,
    SweepReport,
    index_sweep,
)
from .poly import JsonRecord, Polynomial, brief
from .spaces import SpaceSpec, sphere_sample

OBSTRUCTION = "obstruction detected"
CONSISTENT = "consistent with cyclicity"
TENSION = "tension"

DEFAULT_CAPACITY_THRESHOLD = 1e-3
PROBE_RADIUS = 0.95  # interior_zero_probe searches the ball of this radius
PROBE_TOL = 1e-6
PROBE_RESOLUTION = 4096
MAX_ROOT_DEGREE = 512  # d = 1 root solve: a 4 MB companion matrix, cost grows as deg^3
# an equilibrium face of at most this many points is solved by numpy alone:
# up to here a face solve takes at most about 9 ms either way, against
# about 0.3 s to import scipy.linalg; beyond it the solve grows as m^3 and
# numpy's LU takes up to 3.1 times as long as scipy's Cholesky (README)
NUMPY_MAX_FACE = 511
BLOCK_ENTRIES = 1 << 17  # a blocked pass's scratch: 1 MB of float64, which stays in cache
MAX_CLOUD_POINTS = 1 << 24  # a generated cloud: 256 MB of coordinates per complex dimension


def as_real(points: np.ndarray) -> np.ndarray:
    """Points of C^d, along the last axis, in R^(2d): interleaved real and
    imaginary parts."""
    out = np.empty(points.shape[:-1] + (2 * points.shape[-1],))
    out[..., 0::2] = points.real
    out[..., 1::2] = points.imag
    return out


@dataclass
class BoundaryCloud:
    """Finite set of unit vectors in C^d sampled from a boundary zero set."""

    points: np.ndarray
    source_tol: float = 0.0

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=complex)
        if pts.size == 0:
            pts = pts.reshape(0, pts.shape[1] if pts.ndim == 2 else 1)
        if pts.ndim != 2:
            raise ArgumentError("points must form a 2-d array (count, d)")
        if not np.all(np.isfinite(pts)):
            raise ArgumentError("cloud points must be finite")
        if len(pts):
            norms = np.linalg.norm(pts, axis=1)
            if np.any(np.abs(norms - 1.0) > 1e-6):
                raise ArgumentError("cloud points must lie on the unit sphere")
            pts = pts / norms[:, None]
        self.points = pts

    @property
    def size(self) -> int:
        return len(self.points)

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    def as_real(self) -> np.ndarray:
        """View in R^(2d): interleaved real and imaginary parts."""
        return as_real(self.points)

    def union(self, other: "BoundaryCloud") -> "BoundaryCloud":
        if self.dimension != other.dimension:
            raise DimensionMismatchError("clouds live on spheres of different dimension")
        return BoundaryCloud(
            np.vstack([self.points, other.points]),
            max(self.source_tol, other.source_tol),
        )

    def to_json(self) -> list[list[float]]:
        return self.as_real().tolist()

    @classmethod
    def from_json(cls, rows: Sequence[Sequence[float]], d: int) -> "BoundaryCloud":
        if d < 1:
            raise ArgumentError(f"a points cloud needs d >= 1, not {brief(d)}")
        if d > MAX_CLOUD_POINTS:  # one point's coordinates stay within 256 MB
            raise ArgumentError(f"a points cloud needs d <= {MAX_CLOUD_POINTS}, not {brief(d)}")
        if any(len(row) != 2 * d for row in rows):
            raise ArgumentError(f"point rows need {2 * d} real coordinates")
        vals = np.asarray(rows, dtype=float).reshape(len(rows), 2 * d)
        return cls(vals[:, 0::2] + 1j * vals[:, 1::2])


def _check_count(count: int) -> None:
    if not 1 <= count <= MAX_CLOUD_POINTS:
        raise ArgumentError(f"count must lie in 1..{MAX_CLOUD_POINTS}, not {brief(count)}")


def circle_cloud(count: int) -> BoundaryCloud:
    """count equispaced points on the unit circle (d = 1)."""
    _check_count(count)
    theta = 2.0 * np.pi * np.arange(count) / count
    return BoundaryCloud(np.exp(1j * theta)[:, None])


def arc_cloud(angle: float, count: int) -> BoundaryCloud:
    """count equispaced points on the circular arc of total opening `angle`."""
    _check_count(count)
    if not 0 < angle <= 2 * np.pi:
        raise ArgumentError("angle must lie in (0, 2*pi]")
    theta = np.linspace(-angle / 2.0, angle / 2.0, count)
    return BoundaryCloud(np.exp(1j * theta)[:, None])


def sphere_cap_cloud(count: int, polar_angle: float) -> BoundaryCloud:
    """Quasi-uniform samples of a real 2-sphere cap embedded in the unit
    sphere of C^2 via (sin t * e^(i phi), cos t), t <= polar_angle.

    Fibonacci spiral in the cap's area coordinate; deterministic.
    """
    _check_count(count)
    if not 0 < polar_angle <= np.pi:
        raise ArgumentError("polar_angle must lie in (0, pi]")
    k = np.arange(count)
    u = (k + 0.5) / count
    cos_t = 1.0 - u * (1.0 - np.cos(polar_angle))
    sin_t = np.sqrt(np.clip(1.0 - cos_t**2, 0.0, None))
    golden = np.pi * (3.0 - np.sqrt(5.0))
    phi = golden * k
    z1 = sin_t * np.exp(1j * phi)
    z2 = cos_t.astype(complex)
    return BoundaryCloud(np.column_stack([z1, z2]))


def _gauss_newton_polish(f: Polynomial, pts: np.ndarray, steps: int, project: bool):
    """Least-squares Newton steps toward f = 0; optionally reproject to the sphere."""
    grads = [f.partial_derivative(j) for j in range(f.d)]
    z = pts.copy()
    for _ in range(steps):
        vals = f.evaluate_grid(z)
        grad = np.stack([g.evaluate_grid(z) for g in grads], axis=-1)
        denom = np.sum(np.abs(grad) ** 2, axis=-1)
        denom = np.where(denom > 0, denom, 1.0)
        z = z - grad.conj() * (vals / denom)[..., None]
        if project:
            norms = np.linalg.norm(z, axis=-1, keepdims=True)
            norms = np.where(norms > 0, norms, 1.0)
            z = z / norms
    return z


def sample_zero_set(
    f: Polynomial,
    resolution: int = 2048,
    tol: float | None = None,
    seed: int = 0,
) -> BoundaryCloud:
    """Sample the boundary zero set {|z| = 1 : f(z) = 0}.

    Candidates at d = 1 are the nonzero roots of f (companion eigenvalues,
    so deg f <= MAX_ROOT_DEGREE) projected onto the circle; `resolution` is
    ignored. At d >= 2 they are `resolution` (>= 8) seeded samples of the
    sphere with |f| < tol (default 1e-4); the acceptance band of a
    hypersurface zero set scales like tol, so `resolution` must grow as tol
    shrinks. Either way 10 projected least-squares descent steps on |f|^2
    follow, and points with |f| <= tol (default 1e-9 at d = 1) are kept.

    Duplicates merge. At d = 1 a point is dropped when |f| <= tol holds at
    31 evenly spaced points of the arc back to its predecessor by angle,
    which leaves one point per arc of {|f| <= tol}: a k-fold zero, or zeros
    closer than that arc, give one point inside it. At d >= 2 points that
    agree on a 1e-8 grid merge. Deterministic for a fixed seed.
    """
    if f.is_zero:
        raise DegenerateInputError("f must be nonzero")
    d = f.d
    if tol is None:
        tol = 1e-9 if d == 1 else 1e-4
    if not tol > 0:
        raise ArgumentError("tol must be positive")
    if d == 1:
        if f.degree > MAX_ROOT_DEGREE:
            raise ArgumentError(f"d = 1 zero sets need degree <= {MAX_ROOT_DEGREE}")
        top_first = [f.coeffs.get((k,), 0) for k in range(f.degree, -1, -1)]
        roots = np.roots(np.asarray(top_first, dtype=complex))
        roots = roots[roots != 0]
        candidates = (roots / np.abs(roots))[:, None]
    else:
        if resolution < 8:
            raise ArgumentError("resolution must be >= 8")
        sphere = sphere_sample(np.random.default_rng(seed), resolution, d)
        candidates = sphere[np.abs(f.evaluate_grid(sphere)) < tol]
    polished = _gauss_newton_polish(f, candidates, steps=10, project=True)
    pts = polished[np.abs(f.evaluate_grid(polished)) <= tol]
    if d > 1:
        pts = _dedup_rows(pts, 1e-8)
    elif len(pts) > 1:
        theta = np.angle(pts[:, 0]) % (2.0 * np.pi)
        order = np.argsort(theta)
        theta, pts = theta[order], pts[order]
        gap = np.diff(theta, prepend=theta[-1]) % (2.0 * np.pi)
        arcs = np.exp(1j * (theta[:, None] - np.outer(gap, np.arange(1, 32) / 32)))
        keep = np.any(np.abs(f.evaluate_grid(arcs[..., None])) > tol, axis=1)
        keep[0] |= not keep.any()  # every gap lies in {|f| <= tol}: keep one point
        pts = pts[keep]
    return BoundaryCloud(pts, source_tol=tol)


@dataclass
class EquilibriumResult(JsonRecord):
    """Energy-minimizing weights over a cloud with optimality certificate."""

    weights: np.ndarray
    energy: float
    capacity: float
    alpha: float
    iterations: int
    kkt_gap: float
    converged: bool
    note: str = ""


def _dedup_rows(pts: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    if len(pts) < 2:
        return pts
    # first occurrence of each row after rounding to the tol grid
    _, first = np.unique(np.round(pts / tol) * tol, axis=0, return_index=True)
    return pts[np.sort(first)]


def _mirror_upper(kernel: np.ndarray, diagonal: np.ndarray) -> None:
    """Rebuild a symmetric kernel whose lower triangle and diagonal a factor
    of kernel.T overwrote, from its untouched strict upper triangle and the
    saved diagonal, 64 x 64 tiles at a time. At n = 4096 on a 2-core host
    that took 0.033 s, against 0.10 s by whole row strips and 0.083 s for
    the copy of the face that it replaces."""
    n = len(kernel)
    for lo in range(0, n, 64):
        rows = slice(lo, lo + 64)
        for left in range(0, lo, 64):
            cols = slice(left, left + 64)
            kernel[rows, cols] = kernel[cols, rows].T
        tile = kernel[rows, rows]
        below = np.tril_indices(len(tile), -1)
        tile[below] = tile.T[below]
    np.fill_diagonal(kernel, diagonal)


def _face_minimizer(kernel: np.ndarray, free: np.ndarray) -> np.ndarray:
    """Minimizer of w^T K w over sum(w) = 1, w = 0 off `free`: K_S w = lambda * 1.
    A face of more than NUMPY_MAX_FACE points is solved by Cholesky of K_S
    when it is positive definite. Any other face (the log kernel is only
    conditionally so) is solved by numpy's LU of the bordered system, which
    is nonsingular whenever K is conditionally positive definite on S.

    K_S is symmetric, so its transpose is Fortran-ordered and LAPACK copies
    nothing. The face of all points, the solve's first, is the kernel itself:
    it is factored in place and restored before anything else reads it. A
    smaller face is factored in a copy."""
    idx = np.flatnonzero(free)
    m, w = len(idx), np.zeros(len(kernel))
    if m > NUMPY_MAX_FACE:
        import scipy.linalg  # only here: loading it costs a fresh process about 0.3 s

        whole = m == len(kernel)
        diagonal = kernel.diagonal().copy() if whole else None
        face = kernel.T if whole else kernel[np.ix_(idx, idx)].T
        try:
            factor = scipy.linalg.cho_factor(face, overwrite_a=True, check_finite=False)
            v = scipy.linalg.cho_solve(factor, np.ones(m), check_finite=False)
        except np.linalg.LinAlgError:
            v = None  # not positive definite: the bordered system below answers
        finally:
            if whole:  # cho_factor wrote one triangle and the diagonal
                _mirror_upper(kernel, diagonal)
        if v is not None:
            w[idx] = v / v.sum()
            return w
    # [K_S 1; 1^T 0] [w; -lambda] = e_m
    system = np.ones((m + 1, m + 1))
    system[:m, :m] = kernel[np.ix_(idx, idx)]
    system[m, m] = 0.0
    w[idx] = np.linalg.solve(system, np.eye(1, m + 1, m)[0])[:m]
    return w


def _check_alpha(alpha: float) -> None:
    if not 0 <= alpha < math.inf:
        raise ArgumentError(f"alpha must be finite and >= 0, not {brief(alpha)}")


def _riesz_kernel(pts: np.ndarray, alpha: float) -> np.ndarray:
    """The kernel of `riesz_equilibrium` on n >= 2 distinct points of R^(2d),
    self-energies on the diagonal, and the only n x n array it allocates.

    Squared distances are summed one real coordinate at a time, in the same
    order as over a difference tensor, for one block of rows at a time
    through a scratch block of at most BLOCK_ENTRIES entries (1 MB)."""
    n = len(pts)
    first, *rest = np.ascontiguousarray(pts.T)
    rows = max(1, BLOCK_ENTRIES // n)
    scratch = np.empty((min(rows, n), n))
    kernel = np.empty((n, n))
    for lo in range(0, n, rows):
        block = kernel[lo : lo + rows]
        np.subtract.outer(first[lo : lo + rows], first, out=block)
        block *= block
        part = scratch[: len(block)]
        for coord in rest:
            np.subtract.outer(coord[lo : lo + rows], coord, out=part)
            part *= part
            block += part
    np.sqrt(kernel, out=kernel)
    np.fill_diagonal(kernel, np.inf)
    local_scale = kernel.min(axis=1) / 2.0
    np.fill_diagonal(kernel, 1.0)
    if alpha > 0:
        kernel **= -alpha
        np.fill_diagonal(kernel, local_scale ** (-alpha))
    else:
        np.log(kernel, out=kernel)
        np.negative(kernel, out=kernel)
        np.fill_diagonal(kernel, -np.log(local_scale))
    return kernel


def riesz_equilibrium(
    cloud: BoundaryCloud,
    alpha: float,
    max_iter: int = 20000,
    tol: float = 1e-7,
) -> EquilibriumResult:
    """Minimize the pairwise interaction energy over probability weights.

    Kernel ||x - y||^(-alpha) for alpha > 0, -log ||x - y|| for alpha = 0.
    Each atom also carries the self-energy of a mass smeared at half its
    nearest-neighbor spacing (the kernel evaluated at that local scale);
    without this term the bare pairwise objective is minimized by piling
    everything onto two far-apart points, whereas with it the discrete
    minimum tracks the continuum equilibrium measure of the sampled set.

    Primal active set after Lawson and Hanson's NNLS, from uniform weights:
    solve K_S w = lambda * 1, sum(w) = 1 on the free set S and drop every
    point whose weight comes out negative. A nonnegative solution is taken
    only if it lowers the energy, else the solve stops at the previous
    weights; once taken, every point whose gradient lies below the
    multiplier is added. `iterations` counts KKT solves (at most max_iter).
    The returned kkt_gap bounds the energy suboptimality, so every vertex
    directional derivative at the returned weights is >= -kkt_gap;
    `tol` is relative to the energy's scale: the solve stops, and
    `converged` holds, once kkt_gap <= tol * max(1, |energy|), since an
    absolute gap cannot fall below the roundoff of energies near 1e12.
    Past NUMPY_MAX_FACE points scipy factors the whole cloud's kernel, and
    scipy's BLAS makes the kernel products too: numpy and scipy each bundle an OpenBLAS
    with a thread pool of its own, and a factor started while numpy's
    threads still spin after a product took up to twice as long (README).
    Duplicate points are merged; clouds with fewer than two distinct points
    get capacity 0 by convention (their energy is infinite) and are flagged
    in the note.
    """
    _check_alpha(alpha)
    if max_iter < 1:
        raise ArgumentError("max_iter must be >= 1")
    if not tol > 0:
        raise ArgumentError("tol must be positive")
    pts = _dedup_rows(cloud.as_real())
    n = len(pts)
    if n < 2:
        note = ("empty cloud: capacity 0 by convention",
                "singleton cloud: infinite energy, capacity 0 by convention")[n]
        return EquilibriumResult(np.ones(n), math.inf, 0.0, alpha, 0, 0.0, True, note=note)
    kernel = _riesz_kernel(pts, alpha)
    # row_times(v) is v @ kernel and times(v) is kernel @ v
    if n > NUMPY_MAX_FACE:
        from scipy.linalg.blas import dgemv  # scipy factors this cloud's kernel

        # kernel.T is F-ordered, so dgemv reads the kernel in place
        row_times = functools.partial(dgemv, 1.0, kernel.T)
        times = functools.partial(dgemv, 1.0, kernel.T, trans=1)
    else:
        row_times, times = kernel.__rmatmul__, kernel.__matmul__

    w = np.full(n, 1.0 / n)
    energy = float(row_times(w) @ w)
    free = np.ones(n, dtype=bool)
    for iterations in range(1, max_iter + 1):
        z = _face_minimizer(kernel, free)
        negative = free & (z < 0)
        if negative.any():
            free &= ~negative
            continue
        z_energy = float(row_times(z) @ z)
        if z_energy >= energy:
            # each accepted face lowers the energy, so none recurs and the
            # loop ends; a point added on roundoff whose solve drops it
            # again gives back the same face and stops here
            break
        w, energy = z, z_energy
        grad = 2.0 * times(w)
        mu = float(grad @ w)
        below = ~free & (grad < mu)
        if mu - float(grad.min()) <= tol * max(1.0, abs(energy)) or not below.any():
            break
        free |= below
    w /= w.sum()
    grad = 2.0 * times(w)
    # the weighted mean of the gradient can round below its minimum
    gap = max(float(grad @ w) - float(grad.min()), 0.0)
    energy = float(row_times(w) @ w)
    if alpha > 0:
        capacity = 1.0 / energy if energy > 0 else math.inf
    else:
        capacity = math.exp(-energy)
    if not (math.isfinite(energy) and np.all(np.isfinite(w))):
        raise NumericFailureError(f"equilibrium energy {energy} at alpha={alpha} is not finite")
    converged = gap <= tol * max(1.0, abs(energy))
    return EquilibriumResult(w, energy, capacity, alpha, iterations, gap, converged)


@functools.lru_cache(maxsize=4)
def _quasi_uniform_sphere(real_dim: int, count: int) -> np.ndarray:
    """Deterministic quasi-uniform samples of the unit sphere in R^real_dim:
    unscrambled Halton points 1..count (radical inverses in the first
    real_dim prime bases), Gaussianized by the inverse normal CDF. The last
    few samples are kept by (real_dim, count) and shared, so the array is
    read-only."""
    if real_dim == 2:
        theta = 2.0 * np.pi * np.arange(count) / count
        sample = np.column_stack([np.cos(theta), np.sin(theta)])
    else:
        primes = [p for p in range(2, real_dim**2 + 3)
                  if all(p % q for q in range(2, math.isqrt(p) + 1))]
        u = np.zeros((count, real_dim))  # point 0 is the cube's origin and is skipped
        for j, base in enumerate(primes[:real_dim]):
            digits = np.arange(1, count + 1)
            scale = 1.0 / base
            while digits.any():
                u[:, j] += (digits % base) * scale
                scale /= base
                digits //= base
        import scipy.special  # only here: loading it costs every fresh process ~50 ms

        g = scipy.special.ndtri(np.clip(u, 1e-12, 1 - 1e-12))
        sample = g / np.linalg.norm(g, axis=1, keepdims=True)
    sample.flags.writeable = False
    return sample


def neighborhood_capacity(
    cloud: BoundaryCloud,
    alpha: float,
    eps_nbhd: float,
    samples: int = 8192,
) -> float:
    """Normalized surface measure of the eps-neighborhood of the cloud.

    Estimated on a fixed quasi-uniform sphere sample, so the value is
    monotone in eps_nbhd and in cloud inclusion. The exponent alpha of the
    defining family of continuous majorants does not change the collapsed
    value (any alpha > 0 gives the measure of the set); it is carried only
    to label reports.

    Squared distances |x|^2 - 2 x.y + |y|^2 are formed for one block of
    sample rows at a time, of at most BLOCK_ENTRIES (2^17) entries, in
    place and in that order of operations, so every value is the one a
    whole-grid array would hold.
    """
    if not 0 < eps_nbhd < math.inf:
        raise ArgumentError("eps_nbhd must be positive and finite")
    _check_alpha(alpha)
    if samples < 1:
        raise ArgumentError(f"samples must be >= 1, not {brief(samples)}")
    if cloud.size == 0:
        return 0.0
    grid = _quasi_uniform_sphere(2 * cloud.dimension, samples)
    pts = cloud.as_real()
    pts_sq = np.sum(pts**2, axis=1)
    hits = 0
    chunk = max(1, BLOCK_ENTRIES // len(pts))
    eps_sq = eps_nbhd * eps_nbhd
    for start in range(0, len(grid), chunk):
        block = grid[start : start + chunk]
        d2 = 2.0 * block @ pts.T
        np.subtract(np.sum(block**2, axis=1)[:, None], d2, out=d2)
        d2 += pts_sq
        hits += int(np.count_nonzero(d2.min(axis=1) <= eps_sq))
    return hits / len(grid)


@dataclass
class DimensionEstimate(JsonRecord):
    """Box-counting slope with fit diagnostics."""

    dimension: float
    r_squared: float
    scales: list[int]
    counts: list[int]


def box_dimension(
    cloud: BoundaryCloud, j_min: int = 2, j_max: int = 7
) -> DimensionEstimate:
    """Slope of log(occupied boxes) against log(1/scale) at scales 2^-j.

    j_max should stay small enough that boxes hold several samples each;
    once counts saturate at the sample count the slope flattens.
    """
    if cloud.size == 0:
        raise DegenerateInputError("cannot estimate the dimension of an empty cloud")
    if not 1 <= j_min < j_max <= 62:  # a box index floor(x 2^j), |x| <= 1, fits an int64
        raise ArgumentError(
            f"need 1 <= j_min < j_max <= 62, not {brief(j_min)} and {brief(j_max)}"
        )
    pts = cloud.as_real()
    scales = list(range(j_min, j_max + 1))
    counts = []
    for j in scales:
        boxes = np.floor(pts * (2.0**j)).astype(np.int64)
        boxes = boxes[np.lexsort(boxes.T)]  # equal boxes are now adjacent rows
        counts.append(1 + int(np.count_nonzero(np.any(boxes[1:] != boxes[:-1], axis=1))))
    x = np.array(scales, dtype=float) * math.log(2.0)
    y = np.log(np.array(counts, dtype=float))
    if np.allclose(y, y[0]):
        return DimensionEstimate(0.0, 1.0, scales, counts)
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return DimensionEstimate(float(slope), r2, scales, counts)


def interior_zero_probe(f: Polynomial, seed: int = 0) -> dict | None:
    """Grid-plus-polish search for a zero of f inside the ball of radius
    PROBE_RADIUS, from PROBE_RESOLUTION seeded samples at d >= 2.

    Returns {"point": ..., "value": ...} when the polished minimum of |f|
    falls below PROBE_TOL strictly inside the ball, else None. Points that
    drift to the boundary are clipped back, so boundary zeros do not register.
    """
    if f.is_zero:
        raise DegenerateInputError("f must be nonzero")
    d = f.d
    if d == 1:
        r = np.linspace(0.0, PROBE_RADIUS, 48)
        theta = 2.0 * np.pi * np.arange(96) / 96
        grid = (r[:, None] * np.exp(1j * theta)[None, :]).reshape(-1, 1)
    else:
        rng = np.random.default_rng(seed)
        sphere = sphere_sample(rng, PROBE_RESOLUTION, d)
        radii = PROBE_RADIUS * rng.random(PROBE_RESOLUTION) ** (1.0 / (2 * d))
        grid = np.vstack([sphere * radii[:, None], np.zeros((1, d), dtype=complex)])
    vals = np.abs(f.evaluate_grid(grid))
    order = np.argsort(vals)[:8]
    candidates = grid[order]
    polished = _gauss_newton_polish(f, candidates, steps=12, project=False)
    norms = np.linalg.norm(polished, axis=1)
    over = norms > PROBE_RADIUS
    polished[over] = polished[over] * (PROBE_RADIUS / norms[over])[:, None]
    final = np.abs(f.evaluate_grid(polished))
    best = int(np.argmin(final))
    if final[best] <= PROBE_TOL:
        point = polished[best]
        return {
            "point": as_real(point).tolist(),
            "value": float(final[best]),
        }
    return None


@dataclass
class ObstructionReport(JsonRecord):
    """Geometric obstructions versus sweep behavior, with a heuristic verdict."""

    verdict: str
    sweep: SweepReport
    cloud_size: int
    riesz: EquilibriumResult
    neighborhood_measure: float
    dimension: DimensionEstimate | None
    interior_zero: dict | None
    capacity_threshold: float


def obstruction_report(
    spec: SpaceSpec,
    f: Polynomial,
    n_max: int,
    alpha: float,
    tol: float = 1e-3,
    capacity_threshold: float = DEFAULT_CAPACITY_THRESHOLD,
    resolution: int = 2048,
    zero_tol: float | None = None,
    eps_nbhd: float = 0.01,
    seed: int = 0,
) -> ObstructionReport:
    """Bundle sweep, capacity, dimension, and interior-zero evidence.

    Verdict policy (heuristic, thresholds configurable):
    * obstruction detected: the sweep plateaus above tol while the zero set
      carries capacity above the threshold or an interior zero exists;
    * consistent with cyclicity: capacity at or below the threshold, no
      interior zero, and residuals that reached tol or keep decreasing;
    * tension: anything else.
    """
    if not capacity_threshold >= 0:
        raise ArgumentError(f"capacity threshold must be >= 0, not {capacity_threshold}")
    sweep = index_sweep(spec, f, n_max, tol)
    cloud = sample_zero_set(f, resolution, zero_tol, seed)
    riesz = riesz_equilibrium(cloud, alpha)
    nbhd = neighborhood_capacity(cloud, alpha, eps_nbhd)
    dim = box_dimension(cloud) if cloud.size >= 1 else None
    interior = interior_zero_probe(f, seed=seed)
    plateau = sweep.verdict == VERDICT_PLATEAU
    decreasing = (
        sweep.verdict == VERDICT_CYCLIC
        or sweep.residuals[-1] < sweep.residuals[0] - 1e-9
    )
    capacity_large = riesz.capacity > capacity_threshold
    if plateau and (capacity_large or interior is not None):
        verdict = OBSTRUCTION
    elif not capacity_large and interior is None and decreasing:
        verdict = CONSISTENT
    else:
        verdict = TENSION
    return ObstructionReport(
        verdict=verdict,
        sweep=sweep,
        cloud_size=cloud.size,
        riesz=riesz,
        neighborhood_measure=nbhd,
        dimension=dim,
        interior_zero=interior,
        capacity_threshold=capacity_threshold,
    )
