"""Sparse weighted least squares with a conditioning-aware fallback.

A design column holds one shifted basis element (z^gamma f, or Z^w G over
words), so it has only |f| nonzeros. The primary route factors the sparse
Gram matrix A^H A by SuperLU in symmetric mode (an unpivoted LDL^H under a
minimum-degree ordering) and estimates its 1-norm condition from the
factors. A dense design (the quadrature grids of the IRLS index steps)
stays dense and forms its small dense Gram by one Hermitian BLAS product
(zherk) before the same factorization. Gram matrices of shifted bases grow
ill-conditioned with degree, so past a condition threshold the solve falls
back to a dense orthogonal factorization of the design matrix itself.
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


@dataclass
class LeastSquaresOutcome:
    coefficients: np.ndarray
    residual: float
    gram_condition: float
    method: str


def shifted_design(rows, coeffs, target_rows, target_coeffs, sqrt_weights):
    """Sparse design and dense target of a shifted-basis least-squares problem.

    Column j holds coeffs[t] * sqrt_weights[r] at row r = rows[j, t], and the
    target holds target_coeffs[t] * sqrt_weights[r] at r = target_rows[t].
    """
    # loaded on first use: scipy.sparse adds tens of milliseconds to every
    # fresh process, and most commands never solve
    import scipy.sparse

    ncols, nterms = rows.shape
    design = scipy.sparse.csc_matrix(
        ((np.asarray(coeffs, dtype=complex) * sqrt_weights[rows]).ravel(), rows.ravel(),
         np.arange(0, ncols * nterms + 1, nterms)),
        shape=(len(sqrt_weights), ncols),
    )
    target = np.zeros(len(sqrt_weights), dtype=complex)
    target_coeffs = np.asarray(target_coeffs, dtype=complex)
    target[target_rows] = target_coeffs * sqrt_weights[target_rows]
    return design, target


def solve_least_squares(design, target: np.ndarray) -> LeastSquaresOutcome:
    """Minimize ||design @ x - target||_2 for a sparse (or dense) design.

    The reported residual is evaluated directly on the returned x, so it is
    always an achievable objective value. `gram_condition` is the 1-norm
    condition estimate ||G||_1 ||G^-1||_1 of G = A^H A (infinite when G is
    exactly singular).
    """
    import scipy.sparse
    from scipy.sparse.linalg import LinearOperator, onenormest, splu

    target = np.asarray(target, dtype=complex)
    if scipy.sparse.issparse(design):
        design = scipy.sparse.csc_matrix(design, dtype=complex)
        gram = (design.conj().T @ design).tocsc()
    else:
        from scipy.linalg.blas import zherk

        # one Hermitian rank-k product, with no conjugated copy of the design
        design = np.asarray(design, dtype=complex)
        upper = zherk(1.0, design, trans=2)
        gram = scipy.sparse.csc_matrix(np.triu(upper) + np.triu(upper, 1).conj().T)
    cond = math.inf
    try:
        factor = splu(gram, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                      options={"SymmetricMode": True})
        # G is Hermitian, so G^-1 is its own adjoint; t=1 keeps the estimate
        # deterministic (larger t draws random probe vectors)
        inverse = LinearOperator(gram.shape, matvec=factor.solve, rmatvec=factor.solve,
                                 dtype=complex)
        cond = float(abs(gram).sum(axis=0).max() * onenormest(inverse, t=1))
    except RuntimeError:
        pass  # SuperLU found an exactly zero pivot
    if cond <= DEFAULT_COND_THRESHOLD:
        # A^H b as conj(b^H A), again without a conjugated copy of A
        method, x = CHOLESKY, factor.solve((target.conj() @ design).conj())
    else:
        method = QR_FALLBACK
        try:
            dense = design.toarray() if scipy.sparse.issparse(design) else design
            x = np.linalg.lstsq(dense, target, rcond=None)[0]
        except np.linalg.LinAlgError as exc:
            raise NumericFailureError(f"least-squares fallback failed: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise ConditioningError("least-squares solve produced non-finite coefficients")
    residual = float(np.linalg.norm(target - design @ x))
    return LeastSquaresOutcome(x, residual, cond, method)
