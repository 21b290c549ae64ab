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
  conflated. The samples within eps of the cloud are counted by a sorted
  sweep along the cloud's widest real coordinate: a block of samples meets
  only the cloud points within `reach` of it there, eps widened by a
  rounding bound so that no point left out could have counted, at a cost
  of samples x window and in blocks of at most BLOCK_ENTRIES entries.
* `box_dimension`: box-counting slope, a computable proxy for Hausdorff
  dimension (exact Hausdorff measure is out of scope).

`obstruction_report` bundles these with a degree sweep of the cyclicity
index and an interior zero probe, and emits a labeled heuristic verdict;
thresholds are configuration, not theorems.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

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
# a cloud of at most this many points holds its whole kernel and is solved
# by numpy alone: up to here a face solve takes at most about 9 ms, against
# about 0.3 s to import scipy.linalg, and the CLI's small clouds load none
# of it; a larger cloud holds its kernel packed and factors it in float32
NUMPY_MAX_FACE = 511
REFINE_MAX_STEPS = 30  # float64 refinements of a float32 face solve: LAPACK's ITERMAX
UNIT_ROUNDOFF = 2.0**-53  # of float64: LAPACK's dlamch('Epsilon')
BLOCK_ENTRIES = 1 << 17  # a blocked pass's scratch: 1 MB of float64, which stays in cache
# a generated cloud: 256 MB of coordinates per complex dimension. An arc or
# circle past NUMPY_MAX_FACE points is solved by FFT in O(n) memory; any
# other cloud past it takes the packed route, which PACKED_MAX_POINTS bounds
MAX_CLOUD_POINTS = 1 << 24
PACKED_MAX_POINTS = 1 << 15  # the packed kernel and a face's factor: 8n^2 bytes, 8 GiB
TOEPLITZ_MAX_STEPS = 60  # conjugate gradient steps of an FFT solve; 6-15 stop an arc


def as_real(points: np.ndarray) -> np.ndarray:
    """Points of C^d, along the last axis, in R^(2d): interleaved real and
    imaginary parts."""
    out = np.empty(points.shape[:-1] + (2 * points.shape[-1],))
    out[..., 0::2] = points.real
    out[..., 1::2] = points.imag
    return out


@dataclass
class BoundaryCloud:
    """Finite set of unit vectors in C^d sampled from a boundary zero set.

    `step` is the equal angle between consecutive points of a cloud that
    `arc_cloud` or `circle_cloud` lays out on the unit circle (d = 1), which
    makes its equilibrium kernel Toeplitz; `riesz_equilibrium` then solves
    it by FFT past NUMPY_MAX_FACE points. A circle's step is 2 pi / count.
    `union`, `from_json` and every other constructor leave it None."""

    points: np.ndarray
    source_tol: float = 0.0
    step: float | None = None

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
    return BoundaryCloud(np.exp(1j * theta)[:, None], step=2.0 * math.pi / count)


def arc_cloud(angle: float, count: int) -> BoundaryCloud:
    """count equispaced points on the circular arc of total opening `angle`.

    The cloud records its step angle / (count - 1) unless its two ends lie
    closer than one step around the far side of the circle, where their
    nearest neighbours, and so the kernel's diagonal, differ."""
    _check_count(count)
    if not 0 < angle <= 2 * np.pi:
        raise ArgumentError("angle must lie in (0, 2*pi]")
    theta = np.linspace(-angle / 2.0, angle / 2.0, count)
    step = angle / (count - 1) if count > 1 else math.inf
    return BoundaryCloud(np.exp(1j * theta)[:, None],
                         step=step if angle + step <= 2.0 * math.pi else None)


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


class _PackedKernel(NamedTuple):
    """A symmetric n x n kernel held by its upper triangle, row after row:
    K[i, j], j >= i, at rows[starts[i] + j - i]. That is BLAS's
    column-packed lower triangle, which dspmv (lower=1) reads in place."""

    rows: np.ndarray
    starts: list[int]  # n + 1 offsets, row i at rows[starts[i] : starts[i + 1]]
    largest: float  # the largest |entry|
    least: float  # the least entry, or 0 if none is negative


def _fill_upper(out: np.ndarray, kernel: _PackedKernel, idx: np.ndarray) -> None:
    """Write the upper triangle of the face K_S, S = idx (ascending), into
    out[:m, :m] row by row, each row gathered from one packed row; the
    strict lower triangle of out is left as it was."""
    m, starts = len(idx), kernel.starts
    whole = m == len(starts) - 1
    for a, i in enumerate(idx.tolist()):
        row = kernel.rows[starts[i] : starts[i + 1]]  # K[i, i:]
        out[a, a:m] = row if whole else row[idx[a:] - i]


def _refined_face(kernel: _PackedKernel, idx: np.ndarray) -> np.ndarray | None:
    """The solution v of K_S v = 1, or None when the float32 route fails.

    K_S, rounded to float32, is factored by spotrf in an m x m float32 array,
    half the bytes of a float64 face. v is then refined in float64 as
    LAPACK's dsposv does: each step takes the residual r = 1 - K_S v from
    dspmv on the whole packed kernel, v zero off the face, and its
    correction from two strsv calls on the factor, made for r scaled to a
    largest entry of 1 and scaled back in float64: a correction is about
    r / K_S, and where K's entries near 1e37 (alpha = 10 on close points)
    it would fall among float32's subnormals. dsposv's rule is read on the
    equilibrated D K_S D, D = diag(K_S)^(-1/2), whose entries are all of
    one scale: the solve stops once ||D r||_inf <= ||D^-1 v||_inf
    ||D K_S D||_inf u sqrt(m), u = UNIT_ROUNDOFF. The face is not positive
    definite when spotrf fails; an entry of K past the float32 range, or no
    stop within REFINE_MAX_STEPS corrections, also gives None."""
    from scipy.linalg.blas import dspmv, strsv
    from scipy.linalg.lapack import spotrf

    n, m = len(kernel.starts) - 1, len(idx)
    if not kernel.largest < float(np.finfo(np.float32).max):
        return None
    factor = np.empty((m, m), dtype=np.float32)
    _fill_upper(factor, kernel, idx)
    # factor.T is F-ordered, and its lower triangle is the filled one
    lower, info = spotrf(factor.T, lower=1, clean=0, overwrite_a=1)
    if info != 0:
        return None
    # K_S is positive definite, so its diagonal is; no entry of K lies below
    # kernel.least <= 0, so |K_S| <= K_S - 2 least and ||D K_S D||_inf is at
    # most max(D (K_S d - 2 least sum(d))), d the diagonal of D
    jacobi = 1.0 / np.sqrt(kernel.rows[np.asarray(kernel.starts)[idx]])
    v = np.zeros(n)
    v[idx] = jacobi
    bound = dspmv(n, 1.0, kernel.rows, v, lower=1)[idx] - 2.0 * kernel.least * jacobi.sum()
    limit = float((jacobi * bound).max()) * UNIT_ROUNDOFF * math.sqrt(m)
    v[idx] = 0.0
    residual = np.ones(m)
    for _ in range(REFINE_MAX_STEPS + 1):
        size = np.abs(residual).max()
        step = strsv(lower, (residual / size).astype(np.float32), lower=1, overwrite_x=1)
        v[idx] += size * strsv(lower, step, lower=1, trans=1, overwrite_x=1).astype(np.float64)
        residual = 1.0 - dspmv(n, 1.0, kernel.rows, v, lower=1)[idx]
        if np.abs(jacobi * residual).max() <= np.abs(v[idx] / jacobi).max() * limit:
            return v[idx]
    return None


def _face_minimizer(kernel: np.ndarray | _PackedKernel, free: np.ndarray) -> np.ndarray:
    """Minimizer of w^T K w over sum(w) = 1, w = 0 off `free`: K_S w = lambda * 1.

    A cloud of at most NUMPY_MAX_FACE points holds its whole kernel, and
    every face is solved by numpy's LU of the bordered system
    [K_S 1; 1^T 0] [w; -lambda] = e_m, which is nonsingular whenever K is
    conditionally positive definite on S (the log kernel is only
    conditionally so). A larger cloud holds its kernel packed, and a face is
    solved by a float32 Cholesky refined to float64 (`_refined_face`). When
    that fails, as on a face that is not positive definite, the float32
    factor is released and LAPACK's dsysv solves the bordered system in
    place, from one triangle filled straight from the packed rows: the face
    then costs 8 (m + 1)^2 bytes beside the kernel, not three such arrays."""
    idx = np.flatnonzero(free)
    m, w = len(idx), np.zeros(len(free))
    if isinstance(kernel, np.ndarray):
        system = np.ones((m + 1, m + 1))
        system[:m, :m] = kernel[np.ix_(idx, idx)]
        system[m, m] = 0.0
        w[idx] = np.linalg.solve(system, np.eye(1, m + 1, m)[0])[:m]
        return w
    v = _refined_face(kernel, idx)
    if v is not None:
        w[idx] = v / v.sum()
        return w
    from scipy.linalg.lapack import dsysv, dsysv_lwork

    system = np.empty((m + 1, m + 1))  # dsysv reads the upper triangle alone
    _fill_upper(system, kernel, idx)
    system[:, m] = 1.0
    system[m, m] = 0.0
    lwork, _ = dsysv_lwork(m + 1, lower=1)
    _, _, x, info = dsysv(system.T, np.eye(m + 1, 1, -m), lwork=int(lwork), lower=1,
                          overwrite_a=1, overwrite_b=1)
    if info > 0:
        raise np.linalg.LinAlgError("Singular matrix")
    w[idx] = x[:m, 0]
    return w


def _check_alpha(alpha: float) -> None:
    if not 0 <= alpha < math.inf:
        raise ArgumentError(f"alpha must be finite and >= 0, not {brief(alpha)}")


def _riesz_kernel(pts: np.ndarray, alpha: float) -> _PackedKernel:
    """The kernel of `riesz_equilibrium` on n >= 2 distinct points of
    R^(2d), self-energies on the diagonal, packed: n(n+1)/2 float64.

    One block of rows i at a time, through scratch blocks of at most
    BLOCK_ENTRIES entries (1 MB), the squared distances to the columns
    j >= i are summed one real coordinate at a time, in the same order as
    over a difference tensor; their square root, then the power or log,
    follows in the block, so each transcendental runs on the upper triangle
    only. Every entry is the one a whole n x n array holds, bit for bit.
    A row's nearest neighbour, which sets its self-energy, is the least of
    its row and its column in the blocks so far, and both are complete once
    its own block is done."""
    n = len(pts)
    first, *rest = np.ascontiguousarray(pts.T)
    rows = max(1, BLOCK_ENTRIES // n)
    starts = [0, *itertools.accumulate(range(n, 0, -1))]
    packed = np.empty(starts[-1])
    nearest = np.full(n, np.inf)  # squared distances: the square root keeps order
    largest = least = 0.0
    scratch = np.empty((2, min(rows, n) * n))
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        shape = (hi - lo, n - lo)
        block, part = (buf[: shape[0] * shape[1]].reshape(shape) for buf in scratch)
        np.subtract.outer(first[lo:hi], first[lo:], out=block)
        block *= block
        for coord in rest:
            np.subtract.outer(coord[lo:hi], coord[lo:], out=part)
            part *= part
            block += part
        head, diag = block[:, : shape[0]], np.diag_indices(shape[0])
        below = np.tri(shape[0], dtype=bool)  # the diagonal and the lower triangle
        head[below] = np.inf  # out of the minima
        np.minimum(nearest[lo:hi], block.min(axis=1), out=nearest[lo:hi])
        np.minimum(nearest[lo:], block.min(axis=0), out=nearest[lo:])
        head[below] = 1.0  # its root, power and log raise no warning
        np.sqrt(block, out=block)
        local_scale = np.sqrt(nearest[lo:hi]) / 2.0
        if alpha > 0:
            block **= -alpha
            self_energy = local_scale ** (-alpha)
        else:
            np.log(block, out=block)
            np.negative(block, out=block)
            self_energy = -np.log(local_scale)
        head[below] = 0.0  # out of the extremes
        head[diag] = self_energy
        low, high = float(block.min()), float(block.max())
        largest, least = max(largest, high, -low), min(least, low)
        for i, row in enumerate(block, lo):
            packed[starts[i] : starts[i + 1]] = row[i - lo :]
    return _PackedKernel(packed, starts, largest, least)


def _unpacked(kernel: _PackedKernel) -> np.ndarray:
    """The whole n x n array of a packed kernel."""
    n = len(kernel.starts) - 1
    full = np.empty((n, n))
    upper = ~np.tri(n, k=-1, dtype=bool)
    full[upper] = kernel.rows
    full.T[upper] = kernel.rows
    return full


def _packed_energy(kernel: _PackedKernel, w: np.ndarray) -> float:
    """w^T K w from its terms w_i K_ij w_j, j >= i (twice off the diagonal),
    each rounded once or twice and then summed exactly.

    A log energy can cancel: a circle's is 1e-3 from terms near 1, and
    w @ dspmv(w) is off by 8e-14 of it at 1024 points. The terms are split
    against sigma, a power of two past their count times their bound
    2 max|w|^2 max|K_ij|: each high part lies on sigma's grid of spacing
    u sigma, so their sum is exact in any order, and each remainder is
    below u sigma (one extraction of Rump, Ogita and Oishi's AccSum, SIAM
    J. Sci. Comput. 31, 2008). One block of rows at a time, as it is built."""
    n, starts = len(w), kernel.starts
    bound = 2.0 * float(np.abs(w).max()) ** 2 * kernel.largest
    if not math.isfinite(bound):  # an entry past the float range: no grid
        return math.nan
    exponent = math.frexp(bound)[1] + (starts[-1] + 2).bit_length()
    sigma = math.ldexp(1.0, min(exponent, 1023))
    rows = max(1, BLOCK_ENTRIES // n)
    scratch = np.empty((2, min(rows, n) * n))
    twice = 2.0 * w
    high = low = 0.0
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        shape = (hi - lo, n - lo)
        terms, grid = (buf[: shape[0] * shape[1]].reshape(shape) for buf in scratch)
        for a, i in enumerate(range(lo, hi)):
            np.multiply(kernel.rows[starts[i] : starts[i + 1]], w[i:], out=terms[a, a:])
        head = terms[:, : shape[0]]
        head[np.tri(shape[0], k=-1, dtype=bool)] = 0.0
        terms *= twice[lo:hi, None]
        head[np.diag_indices(shape[0])] *= 0.5
        np.add(terms, sigma, out=grid)
        grid -= sigma
        high += float(grid.sum())
        terms -= grid
        low += float(terms.sum())
    return high + low


def _toeplitz_column(step: float, n: int, alpha: float) -> np.ndarray:
    """The kernel of n points at equal angles `step` apart on the unit
    circle, K[i, j] = column[|i - j|]: the kernel at the chord
    2 sin(k step / 2) at k >= 1 and the self-energy at half the nearest
    spacing, sin(step / 2), at k = 0."""
    chord = 2.0 * np.sin(np.arange(n) * (0.5 * step))
    chord[0] = math.sin(0.5 * step)
    return chord ** -alpha if alpha > 0 else -np.log(chord)


def _toeplitz_solve(column: np.ndarray, times) -> np.ndarray | None:
    """The solution v of K v = 1, K the symmetric Toeplitz matrix of
    `column` and times(v) = K v, by conjugate gradients preconditioned with
    T. Chan's optimal circulant, of column ((n - k) c_k + k c_(n-k)) / n,
    applied by FFT (Chan, SIAM J. Sci. Stat. Comput. 9, 1988).

    The stop is dsposv's rule, as in `_refined_face` (K's diagonal is one
    constant, so equilibrating changes nothing): the true residual
    r = 1 - K v meets ||r||_inf <= ||v||_inf ||K||_inf u sqrt(n), and the
    recursively updated residual has fallen below half of it, so that r sits
    at the floor that the products round to; the first step to meet the
    rule alone can stop 10 times short of it, with weights 1e-12 off.
    None when the preconditioner or a step's p^T K p is not positive, or
    when no stop comes within TOEPLITZ_MAX_STEPS steps."""
    n = len(column)
    k = np.arange(n)
    circulant = ((n - k) * column + k * np.concatenate([[0.0], column[:0:-1]])) / n
    eigenvalues = np.fft.rfft(circulant).real
    if not eigenvalues.min() > 0:
        return None
    total = np.cumsum(np.abs(column))  # row i of |K| sums |c_k| over k <= i and 0 < k < n - i
    limit = float((total + total[::-1]).max() - abs(column[0])) * UNIT_ROUNDOFF * math.sqrt(n)
    v, residual = np.zeros(n), np.ones(n)
    p = z = np.fft.irfft(np.fft.rfft(residual) / eigenvalues, n)
    rz = float(residual @ z)
    for _ in range(TOEPLITZ_MAX_STEPS):
        q = times(p)
        curvature = float(p @ q)
        if not curvature > 0:
            return None
        v += (rz / curvature) * p
        residual -= (rz / curvature) * q
        bound, recursive = float(np.abs(v).max()) * limit, float(np.abs(residual).max())
        if recursive <= bound:
            true = float(np.abs(1.0 - times(v)).max())
            if true <= bound and 2.0 * recursive <= true:
                return v
        z = np.fft.irfft(np.fft.rfft(residual) / eigenvalues, n)
        rz, previous = float(residual @ z), rz
        p = z + (rz / previous) * p
    return None


def _toeplitz_equilibrium(step: float, n: int, alpha: float, tol: float
                          ) -> EquilibriumResult | None:
    """`riesz_equilibrium` for n > NUMPY_MAX_FACE distinct points at equal
    angles `step` apart on the unit circle, in O(n) memory, or None to hand
    the cloud to the packed route.

    The kernel is Toeplitz, one column (`_toeplitz_column`), and a product
    with it is two FFTs of its 2n circulant embedding. A whole circle's
    kernel is circulant, and its uniform start is the equilibrium by
    symmetry: the weights are exactly 1/n and the energy the column's exact
    sum over n. An arc's whole face K v = 1 is solved by `_toeplitz_solve`
    and the face is taken by the packed route's accept rule; the route
    hands on when the solve does or when a weight comes out negative."""
    with np.errstate(over="ignore", divide="ignore"):  # the packed route warns once
        column = _toeplitz_column(step, n, alpha)
    if not np.all(np.isfinite(column)):
        return None
    spectrum = np.fft.rfft(np.concatenate([column, [0.0], column[:0:-1]])).real

    def times(v):
        return np.fft.irfft(spectrum * np.fft.rfft(v, 2 * n), 2 * n)[:n]

    closed = step == 2.0 * math.pi / n
    w = np.full(n, 1.0 / n)
    if not closed:
        v = _toeplitz_solve(column, times)
        if v is None:
            return None
        z = v / v.sum()
        if np.any(z < 0):
            return None
        energy, z_energy = float(times(w) @ w), float(times(z) @ z)
        slack = 2 * n * UNIT_ROUNDOFF * (energy + z_energy - 4.0 * min(0.0, float(column.min())))
        if z_energy < energy - (slack if math.isfinite(slack) else 0.0):
            w = z
        w /= w.sum()
    grad = 2.0 * times(w)
    mu = float(grad @ w)
    energy = math.fsum(column.tolist()) / n if closed else 0.5 * mu
    return _certified(w, energy, max(mu - float(grad.min()), 0.0), alpha, 1, tol)


def _certified(w: np.ndarray, energy: float, gap: float, alpha: float, iterations: int,
               tol: float) -> EquilibriumResult:
    """The result of weights w with energy E and KKT gap: capacity 1/E for
    alpha > 0 and exp(-E) for alpha = 0; NumericFailureError if E or w is
    not finite."""
    if alpha > 0:
        capacity = 1.0 / energy if energy > 0 else math.inf
    else:
        capacity = math.exp(-energy)
    if not (math.isfinite(energy) and np.all(np.isfinite(w))):
        raise NumericFailureError(f"equilibrium energy {energy} at alpha={alpha} is not finite")
    converged = gap <= tol * max(1.0, abs(energy))
    return EquilibriumResult(w, energy, capacity, alpha, iterations, gap, converged)


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
    weights; past NUMPY_MAX_FACE points it must lower it by more than the
    two computed energies can round (2 n u sum |w_i K_ij w_j| each,
    u = UNIT_ROUNDOFF), so that a tie, such as a regular polygon's uniform
    start against its face solution, is not decided by the order in which
    a BLAS sums. Once a solution is taken, every point whose gradient lies
    below the multiplier is added. `iterations` counts KKT solves (at most
    max_iter).
    The returned kkt_gap bounds the energy suboptimality, so every vertex
    directional derivative at the returned weights is >= -kkt_gap;
    `tol` is relative to the energy's scale: the solve stops, and
    `converged` holds, once kkt_gap <= tol * max(1, |energy|), since an
    absolute gap cannot fall below the roundoff of energies near 1e12.
    Up to NUMPY_MAX_FACE points the kernel is one n x n array, and numpy
    makes its products and solves its faces. Past that it is held packed,
    n(n+1)/2 float64, beside one float32 array for a face's Cholesky factor:
    8n^2 bytes in all. scipy's BLAS then makes the loop's products (dspmv
    on the packed rows), each face is solved by a float32 Cholesky refined
    to float64, or else by the float64 bordered system (`_face_minimizer`),
    and the returned energy is summed exactly from its terms
    (`_packed_energy`); a cloud past PACKED_MAX_POINTS points that would
    take this route is refused with ArgumentError before any kernel is built.
    An arc or circle of `arc_cloud` or `circle_cloud` (its `step` set) past
    NUMPY_MAX_FACE points takes a third route in O(n) memory: its kernel is
    Toeplitz, built from the sine formula for the chords, so its entries
    differ from the coordinate kernel's by rounding and its weights by
    about 1e-13. A circle returns its uniform start, the equilibrium by
    symmetry; an arc's whole face is solved by preconditioned conjugate
    gradients on FFT products (`_toeplitz_equilibrium`). The cloud is handed
    to the packed route when points merge, a weight comes out negative, or
    the solve fails or finds no stop.
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
    if cloud.step is not None and n == cloud.size and n > NUMPY_MAX_FACE:
        result = _toeplitz_equilibrium(cloud.step, n, alpha, tol)
        if result is not None:
            return result
    if n > PACKED_MAX_POINTS:
        raise ArgumentError(
            f"the packed equilibrium route holds at most {PACKED_MAX_POINTS} points, in 8 n^2 "
            f"bytes, not {n}; arcs and circles past {NUMPY_MAX_FACE} points take an FFT route")
    kernel = _riesz_kernel(pts, alpha)
    packed, least = n > NUMPY_MAX_FACE, kernel.least
    # row_times(v) is v @ kernel and times(v) is kernel @ v
    if packed:
        from scipy.linalg.blas import dspmv  # scipy factors this cloud's faces

        row_times = times = functools.partial(dspmv, n, 1.0, kernel.rows, lower=1)
    else:
        kernel = _unpacked(kernel)
        row_times, times = kernel.__rmatmul__, kernel.__matmul__
    # a computed energy of weights >= 0 that sum to 1 rounds by up to
    # 2 n u sum |w_i K_ij w_j|, and |K_ij| <= K_ij - 2 least bounds the sum
    # by E - 2 least; up to NUMPY_MAX_FACE points no slack is allowed
    roundoff = 2 * n * UNIT_ROUNDOFF if packed else 0.0

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
        slack = roundoff * (energy + z_energy - 4.0 * least)
        if z_energy >= energy - (slack if math.isfinite(slack) else 0.0):
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
    energy = _packed_energy(kernel, w) if packed else float(row_times(w) @ w)
    return _certified(w, energy, gap, alpha, iterations, tol)


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

    The count is a sorted sweep. Cloud points and samples are both sorted
    along the real coordinate k on which the cloud spreads most; each block
    of max(1, BLOCK_ENTRIES // n) consecutive samples (BLOCK_ENTRIES = 2^17)
    meets only the one run of cloud points whose coordinate k lies within
    `reach` of the block's, so it costs samples x window, not samples x n,
    and no block of squared distances holds more than BLOCK_ENTRIES entries
    (one row of n when n exceeds it), whatever eps_nbhd is. On that window
    the squared distances |x|^2 - 2 x.y + |y|^2 are formed in place, in the
    order of operations of the whole-grid formula.

    No point left out of a window could have been counted. The computed d2
    of x and y in R^(2d) sums 6d products, each through at most 2d + 2
    roundings, in whatever order the matrix product takes, so
    |fl(d2) - |x - y|^2| <= gamma (|x| + |y|)^2 with gamma = gamma_(2d+2)
    = (2d+2) u / (1 - (2d+2) u), u = 2^-53 (Higham, Accuracy and Stability
    of Numerical Algorithms, 2nd ed., 3.1): 4 gamma for unit vectors.
    Hence reach = sqrt(eps^2 + 4 gamma) + 4 gamma. The added 4 gamma >= 16 u
    covers the roundings of reach and of each window's limits, at most
    u (1 + 3.5 reach) < 9 u while reach < 2.2 (a larger reach leaves no
    point out), and norms off 1 by a few u; so a point outside a window
    lies more than sqrt(eps^2 + 4 gamma) from every sample of the block
    along k alone, and its computed d2 exceeds eps^2. Each count is then
    the whole-grid one, up to the matrix product itself: BLAS can round
    an entry by an ulp otherwise as its block's shape changes (OpenBLAS
    does), which only a d2 within that of eps^2 would show.
    """
    if not 0 < eps_nbhd < math.inf:
        raise ArgumentError("eps_nbhd must be positive and finite")
    _check_alpha(alpha)
    if (not isinstance(samples, int) or isinstance(samples, bool)
            or not 1 <= samples <= MAX_CLOUD_POINTS):
        raise ArgumentError(
            f"samples must be >= 1 and <= {MAX_CLOUD_POINTS} (an int), not {brief(samples)}")
    if cloud.size == 0:
        return 0.0
    pts = cloud.as_real()
    axis = int(np.argmax(np.ptp(pts, axis=0)))
    pts = pts[np.argsort(pts[:, axis])]
    keys = pts[:, axis]
    pts_sq = np.sum(pts**2, axis=1)
    grid = _quasi_uniform_sphere(2 * cloud.dimension, samples)
    grid = grid[np.argsort(grid[:, axis])]
    grid_sq = np.sum(grid**2, axis=1)
    eps_sq = eps_nbhd * eps_nbhd
    m = 2 * cloud.dimension + 2
    gamma = m * UNIT_ROUNDOFF / (1.0 - m * UNIT_ROUNDOFF)
    reach = math.sqrt(eps_sq + 4.0 * gamma) + 4.0 * gamma
    rows = max(1, BLOCK_ENTRIES // len(pts))
    starts = np.arange(0, samples, rows)
    ends = np.minimum(starts + rows, samples)
    firsts = np.searchsorted(keys, grid[starts, axis] - reach)
    lasts = np.searchsorted(keys, grid[ends - 1, axis] + reach, side="right")
    hits = 0
    for start, end, first, last in zip(starts.tolist(), ends.tolist(),
                                       firsts.tolist(), lasts.tolist()):
        if first == last:
            continue
        d2 = 2.0 * grid[start:end] @ pts[first:last].T
        np.subtract(grid_sq[start:end, None], d2, out=d2)
        d2 += pts_sq[first:last]
        hits += int(np.count_nonzero(d2.min(axis=1) <= eps_sq))
    return hits / samples


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
