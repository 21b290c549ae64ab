"""Weighted least squares on shifted designs, with a conditioning-aware fallback.

A design column holds one shifted basis element (z^gamma f, or Z^w G over
words), so it has only |f| nonzeros. `shifted_design` picks the design's
representation by its shape:

* at most DENSE_MAX_COLUMNS = 64 columns and at most DENSE_MAX_ENTRIES =
  2^15 entries (rows x columns): a dense column-major ndarray. Its Gram
  A^H A is formed in numpy and LU-factored once, as
  `solve_normal_equations` factors a Gram it is given, for both the solve
  and the exact 1-norm condition kappa_1 = ||G||_1 ||G^-1||_1. Every
  index of the acceptance configs is such a design, so these solves load
  no scipy.
* otherwise: a CSC matrix (scipy.sparse is loaded only here). The sparse
  Gram is factored by SuperLU in symmetric mode (an unpivoted LDL^H under
  a minimum-degree ordering), and kappa_1 is Hager's estimate from the
  factors.

Both limits are measured crossovers. Per solve (Gram, condition, solve):

    design              columns   dense     SuperLU
    d=1 Dirichlet           65   0.31 ms   0.35 ms
    d=1 Dirichlet          129   1.4 ms    0.39 ms
    Drury-Arveson d=3       84   0.53 ms   0.54 ms
    Drury-Arveson d=3      165   2.0 ms    0.79 ms

The dense route's cost also grows with the rows, which a free design has
for every word up to its longest length, touched or not; the sparse
route's cost follows the stored entries. Assembly and solve of designs
with 2 stored entries per column (lower quartile of 31 runs, 2-core host):

    columns   rows    entries   dense     SuperLU
        16    2048     32768   0.69 ms   0.84 ms
        16    4096     65536   1.28 ms   0.87 ms
        32    1024     32768   0.55 ms   0.95 ms
        32    2048     65536   0.82 ms   0.75 ms
        64     512     32768   1.03 ms   1.07 ms
        64    1024     65536   1.49 ms   1.06 ms

Gram matrices of shifted bases grow ill-conditioned with degree, so on
either route a kappa_1 past DEFAULT_COND_THRESHOLD switches the solve to a
dense orthogonal factorization of the design matrix itself.

An IRLS step of the mixed indices does not form its weighted grid design
sqrt(u) A. When the monomials up to the grid's top degree are few against
the design's columns and radial nodes, it builds the Gram and A^H b from
radial moments of its weights, and otherwise from U conj(A); either way it
hands them to `solve_normal_equations`, the dense route's factor and gate,
which asks for the weighted design only past the threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError, NumericFailureError

# the Gram route keeps its historical name
CHOLESKY = "cholesky"
QR_FALLBACK = "qr_fallback"

DEFAULT_COND_THRESHOLD = 1e10
DENSE_MAX_COLUMNS = 64
DENSE_MAX_ENTRIES = 1 << 15


@dataclass
class NormalSolution:
    coefficients: np.ndarray
    gram_condition: float
    method: str


@dataclass
class LeastSquaresOutcome(NormalSolution):
    residual: float


def shifted_design(rows, coeffs, target_rows, target_coeffs, sqrt_weights, dense=False):
    """Design and dense target of a shifted-basis least-squares problem.

    Column j holds coeffs[t] * sqrt_weights[r] at row r = rows[j, t], and the
    target holds target_coeffs[t] * sqrt_weights[r] at r = target_rows[t].
    The design is a column-major ndarray when `dense` is set or it has at
    most DENSE_MAX_COLUMNS columns and DENSE_MAX_ENTRIES entries, and a CSC
    matrix otherwise.
    """
    ncols, nterms = rows.shape
    values = np.asarray(coeffs, dtype=complex) * sqrt_weights[rows]
    if dense or (ncols <= DENSE_MAX_COLUMNS
                 and len(sqrt_weights) * ncols <= DENSE_MAX_ENTRIES):
        design = np.zeros((len(sqrt_weights), ncols), dtype=complex, order="F")
        design[rows, np.arange(ncols)[:, None]] = values
    else:
        # loaded on first use: scipy.sparse adds about 0.15 s to a fresh process
        import scipy.sparse

        design = scipy.sparse.csc_matrix(
            (values.ravel(), rows.ravel(), np.arange(0, ncols * nterms + 1, nterms)),
            shape=(len(sqrt_weights), ncols),
        )
    target = np.zeros(len(sqrt_weights), dtype=complex)
    target_coeffs = np.asarray(target_coeffs, dtype=complex)
    target[target_rows] = target_coeffs * sqrt_weights[target_rows]
    return design, target


def solve_least_squares(design, target: np.ndarray) -> LeastSquaresOutcome:
    """Minimize ||design @ x - target||_2 for a dense ndarray or sparse design.

    The reported residual is evaluated directly on the returned x, so it is
    always an achievable objective value. `gram_condition` is the 1-norm
    condition ||G||_1 ||G^-1||_1 of G = A^H A: exact for an ndarray design,
    Hager's estimate for a sparse one, and infinite when G is exactly
    singular.
    """
    target = np.asarray(target, dtype=complex)
    if isinstance(design, np.ndarray):
        design = design.astype(complex, copy=False)
        normal_solve = _dense_normal_solve
    else:
        import scipy.sparse

        design = scipy.sparse.csc_matrix(design, dtype=complex)
        normal_solve = _sparse_normal_solve
    # A^H b as conj(b^H A), without a conjugated copy of A
    cond, x = normal_solve(design, (target.conj() @ design).conj())
    out = _gate(cond, x, lambda: (
        design if isinstance(design, np.ndarray) else design.toarray(), target))
    residual = float(np.linalg.norm(target - design @ out.coefficients))
    return LeastSquaresOutcome(out.coefficients, out.gram_condition, out.method, residual)


def solve_normal_equations(gram: np.ndarray, rhs: np.ndarray, problem) -> NormalSolution:
    """Solve the normal equations G x = rhs of min ||A x - b||_2, given the
    dense Gram G = A^H A and rhs = A^H b, by one LU factorization that also
    gives the exact kappa_1 of G. Past DEFAULT_COND_THRESHOLD the solution
    is instead the dense least-squares one of (A, b) = problem(), which is
    called only then."""
    return _gate(*_dense_factor(gram, rhs), problem)


def _dense_normal_solve(design: np.ndarray, rhs: np.ndarray):
    """Exact kappa_1 of the Gram of a dense design and the normal-equation
    solution."""
    with np.errstate(over="ignore", invalid="ignore"):
        gram = design.conj().T @ design
    return _dense_factor(gram, rhs)


def _dense_factor(gram: np.ndarray, rhs: np.ndarray):
    """Exact kappa_1 of a dense Gram and the normal-equation solution, from
    one LU factorization."""
    k = len(gram)
    if not np.all(np.isfinite(gram)):
        return math.inf, None  # the Gram overflowed, so it cannot be inverted
    try:
        # solving for [I | rhs] reads G^-1 and x off the same factors
        solved = np.linalg.solve(gram, np.column_stack([np.eye(k), rhs]))
    except np.linalg.LinAlgError:
        return math.inf, None
    cond = float(np.linalg.norm(gram, 1) * np.linalg.norm(solved[:, :k], 1))
    return cond, solved[:, k]


def _sparse_normal_solve(design, rhs: np.ndarray):
    """Hager's estimate of kappa_1 of the Gram of a CSC design and the
    normal-equation solution, from one SuperLU factorization."""
    from scipy.sparse.linalg import LinearOperator, onenormest, splu

    gram = (design.conj().T @ design).tocsc()
    try:
        factor = splu(gram, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                      options={"SymmetricMode": True})
    except RuntimeError:
        return math.inf, None  # SuperLU found an exactly zero pivot
    # G is Hermitian, so G^-1 is its own adjoint; t=1 keeps the estimate
    # deterministic (larger t draws random probe vectors)
    inverse = LinearOperator(gram.shape, matvec=factor.solve, rmatvec=factor.solve,
                             dtype=complex)
    cond = float(abs(gram).sum(axis=0).max() * onenormest(inverse, t=1))
    return cond, factor.solve(rhs)


def _gate(cond: float, x, problem) -> NormalSolution:
    """Keep the normal-equation solution x when kappa_1 is at most the
    threshold, else solve the dense least-squares problem (A, b) = problem()."""
    if cond <= DEFAULT_COND_THRESHOLD:
        method = CHOLESKY
    else:
        method = QR_FALLBACK
        try:
            x = np.linalg.lstsq(*problem(), rcond=None)[0]
        except np.linalg.LinAlgError as exc:
            raise NumericFailureError(f"least-squares fallback failed: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise ConditioningError("least-squares solve produced non-finite coefficients")
    return NormalSolution(x, cond, method)
