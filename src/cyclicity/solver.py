"""Weighted least squares on shifted designs, with a conditioning-aware fallback.

A design column holds one shifted basis element (z^gamma f, or Z^w G over
words), so it has only |f| nonzeros. `solve_nested` solves the leading
column blocks of width k in `widths` of one design (a degree sweep's
budgets); a single solve is its one-width case. Its route depends on the
widest width K and the number of widths:

* dense, when K^3 <= DENSE_MAX_COLUMNS^3 x (number of widths)
  (`dense_route`), or when the design is an ndarray: the Gram G = A^H A
  of width K is formed once (a CSC design's sparse product is densified),
  factored once as G = L L^H by `np.linalg.cholesky`, and M = L^-1 is
  formed once. The leading block of L factors the leading block of G, so
  every width reads its solution and its exact 1-norm condition
  kappa_1 = ||G_k||_1 ||G_k^-1||_1 off leading blocks of L and M.
  `solve_normal_equations`, the IRLS step's solve, is the one-width case
  of the same factor. A single solve takes this route up to 64 columns.
* sparse otherwise: each width's sparse Gram is factored by SuperLU in
  symmetric mode (an unpivoted LDL^H under a minimum-degree ordering), and
  kappa_1 is Hager's estimate from the factors.

`shifted_design` stores the design as a dense column-major ndarray when
its solves take the dense route and it has at most DENSE_MAX_ENTRIES = 2^15
entries (rows x columns), and as a CSC matrix otherwise (scipy.sparse is
loaded only then). Every index of the acceptance configs, and every d = 1
sweep up to n = 179 whose f has degree 1, is such a design, so these
solves load no scipy.

The route rule is a measured crossover. A dense factor costs about K^3
and is shared by the widths, while SuperLU is paid per width. Nested
solve of every budget of a sweep, dense route against per-width SuperLU
(median of 5, 2-core host, numpy 2.4 with OpenBLAS):

    sweep, f = 1 - mean(z)      K  widths    dense    SuperLU  rule picks
    d=1 Dirichlet, n=60        61      61    3.6 ms    47 ms   dense
    d=1 Dirichlet, n=120      121     121     15 ms    95 ms   dense
    d=1 Dirichlet, n=250      251     251     73 ms   202 ms   dense
    d=1 Dirichlet, n=500      501     501    580 ms   460 ms   dense
    Drury-Arveson d=2, n=12    91      13    3.3 ms    13 ms   dense
    Drury-Arveson d=2, n=16   153      17    8.9 ms    13 ms   dense
    Drury-Arveson d=2, n=22   276      23     29 ms    19 ms   SuperLU
    Drury-Arveson d=2, n=30   496      31    190 ms    53 ms   SuperLU
    Drury-Arveson d=3, n=7    120       8    4.9 ms   9.4 ms   dense
    Drury-Arveson d=3, n=9    220      10     20 ms    13 ms   SuperLU
    Drury-Arveson d=3, n=11   364      12     70 ms    20 ms   SuperLU
    Drury-Arveson d=3, n=15   816      16    706 ms    46 ms   SuperLU

The rule picks the faster route in all but the d=1, n=500 sweep, which
sits at 0.96 of its bound.

The entry limit picks the storage. An ndarray's Gram product grows with
the rows, which a free design has for every word up to its longest
length, touched or not; a CSC product follows the stored entries.
Assembly and single solve of designs with 2 stored entries per column,
both on the dense route (lower quartile of 31 runs, 2-core host):

    columns   rows    entries   ndarray    CSC
        16    2048     32768   0.31 ms   0.43 ms
        16    4096     65536   0.63 ms   0.44 ms
        32    1024     32768   0.50 ms   0.62 ms
        32    2048     65536   0.79 ms   0.57 ms
        64     512     32768   1.36 ms   1.31 ms
        64    1024     65536   1.61 ms   1.27 ms

Gram matrices of shifted bases grow ill-conditioned with degree, so on
either route a kappa_1 past DEFAULT_COND_THRESHOLD switches the solve to a
dense orthogonal factorization of the design matrix itself.

An IRLS step of the mixed indices does not form its weighted grid design
sqrt(u) A. When the monomials up to the grid's top degree are few against
the design's columns and radial nodes, it builds the Gram and A^H b from
radial moments of its weights, and otherwise from U conj(A); either way it
hands them to `solve_normal_equations`, the dense route's factor and gate,
which asks for the weighted design only past the threshold. On the moment
route the index holds no design at all: each trial's residual comes from
the monomial tables, and the design is built only for such a fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError, NumericFailureError

# the normal-equation route: the Gram's Cholesky factor (SuperLU's LDL^H on
# the sparse route)
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


def shifted_design(rows, coeffs, target_rows, target_coeffs, sqrt_weights, dense=False,
                   solves=1):
    """Design and dense target of a shifted-basis least-squares problem.

    Column j holds coeffs[t] * sqrt_weights[r] at row r = rows[j, t], and the
    target holds target_coeffs[t] * sqrt_weights[r] at r = target_rows[t].
    The design is a column-major ndarray when `dense` is set, or when
    `solve_nested` takes the dense route for `solves` leading blocks of it
    (`dense_route`) and it has at most DENSE_MAX_ENTRIES entries; it is a
    CSC matrix otherwise.
    """
    ncols, nterms = rows.shape
    values = np.asarray(coeffs, dtype=complex) * sqrt_weights[rows]
    if dense or (dense_route(ncols, solves)
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


def dense_route(columns: int, solves: int) -> bool:
    """Whether `solve_nested` factors the Gram of `columns` columns densely
    when it solves `solves` leading blocks of it: one dense factor costs
    about columns^3 and serves every block, while SuperLU is paid per block."""
    return columns**3 <= DENSE_MAX_COLUMNS**3 * solves


def solve_least_squares(design, target: np.ndarray) -> LeastSquaresOutcome:
    """Minimize ||design @ x - target||_2 for a dense ndarray or sparse
    design: the one-width case of `solve_nested`."""
    return solve_nested(design, target, [design.shape[1]])[0]


def solve_nested(design, target: np.ndarray, widths) -> list[LeastSquaresOutcome]:
    """Minimize ||design[:, :k] @ x - target||_2 for every leading width k of
    the increasing `widths`, one outcome per width.

    Each reported residual is evaluated directly on its returned x, so it is
    always an achievable objective value. `gram_condition` is the 1-norm
    condition ||G_k||_1 ||G_k^-1||_1 of G_k = A_k^H A_k: exact on the dense
    route, Hager's estimate on the sparse one, and infinite when the
    factorization of G_k fails. An ndarray design, or a sparse one that
    `dense_route` picks, takes the dense route: the Gram of the widest width
    is factored once and every G_k is its leading block.
    """
    target = np.asarray(target, dtype=complex)
    widths = list(widths)
    top = widths[-1]
    if isinstance(design, np.ndarray):
        design = design.astype(complex, copy=False)[:, :top]
    else:
        import scipy.sparse

        design = scipy.sparse.csc_matrix(design, dtype=complex)
        if top < design.shape[1]:  # slicing copies a CSC matrix
            design = design[:, :top]
    # A^H b as conj(b^H A), without a conjugated copy of A
    rhs = (target.conj() @ design).conj()
    if isinstance(design, np.ndarray):
        with np.errstate(over="ignore", invalid="ignore"):
            solved = _dense_factor(design.conj().T @ design, rhs, widths)
    elif dense_route(top, len(widths)):
        solved = _dense_factor((design.conj().T @ design).toarray(), rhs, widths)
    else:
        solved = [_sparse_normal_solve(design[:, :k] if k < top else design, rhs[:k])
                  for k in widths]
    outs, block = [], np.zeros((top, len(widths)), dtype=complex)
    for j, (k, (cond, x)) in enumerate(zip(widths, solved)):
        out = _gate(cond, x, lambda k=k: (
            design[:, :k] if isinstance(design, np.ndarray) else design[:, :k].toarray(),
            target))
        block[:k, j] = out.coefficients
        outs.append(out)
    # every width's residual from one product; zero padding adds nothing
    residuals = design @ block
    np.subtract(target[:, None], residuals, out=residuals)
    residuals = np.linalg.norm(residuals, axis=0)
    return [LeastSquaresOutcome(out.coefficients, out.gram_condition, out.method, float(r))
            for out, r in zip(outs, residuals)]


def solve_normal_equations(gram: np.ndarray, rhs: np.ndarray, problem) -> NormalSolution:
    """Solve the normal equations G x = rhs of min ||A x - b||_2, given the
    dense Gram G = A^H A and rhs = A^H b, by the one Cholesky factor that
    also gives the exact kappa_1 of G. Past DEFAULT_COND_THRESHOLD the
    solution is instead the dense least-squares one of (A, b) = problem(),
    which is called only then."""
    return _gate(*_dense_factor(gram, rhs, [len(gram)])[0], problem)


def _dense_factor(gram: np.ndarray, rhs: np.ndarray, widths: list[int]):
    """(exact kappa_1, normal-equation solution) of every leading block
    gram[:k, :k], k in widths, from one Cholesky factor G = L L^H.

    The leading block of L is the factor of the leading block of G, and the
    leading block of M = L^-1 is its inverse, so G_k^-1 = M_k^H M_k, which
    is accumulated as the rows of each width enter, and x_k = M_k^H (M c)[:k].
    When the widest block is not numerically positive definite, each width
    is factored on its own.
    """
    try:
        if not np.all(np.isfinite(gram)):
            raise np.linalg.LinAlgError("the Gram overflowed")
        factor = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        if len(widths) == 1:
            return [(math.inf, None)]
        return [_dense_factor(gram[:k, :k], rhs[:k], [k])[0] for k in widths]
    with np.errstate(all="ignore"):
        # M^T = (L^T)^-1: the LU factorization of the upper triangular L^T
        # pivots nowhere, so M is exactly lower triangular and its leading
        # blocks are computed from the leading blocks of L alone
        inverse = np.linalg.inv(factor.T).T
        # column sums of |G| over the leading rows: ||G_k||_1 = max(sums[k - 1, :k])
        sums = np.abs(gram)
        np.cumsum(sums, axis=0, out=sums)
        inverse_gram = np.zeros_like(inverse)
        conds, start = [], 0
        for k in widths:
            rows = inverse[start:k, :k]
            # one product for the first block (a single solve's only one),
            # then elementwise products: a BLAS call per width can stall for
            # a scheduler tick on a host whose other core is busy
            inverse_gram[:k, :k] += (rows.conj().T @ rows if start == 0
                                     else np.einsum("ji,jl->il", rows.conj(), rows))
            cond = float(sums[k - 1, :k].max() * np.abs(inverse_gram[:k, :k]).sum(axis=0).max())
            conds.append(math.inf if math.isnan(cond) else cond)
            start = k
        # row k - 1 of the running sum of conj(M[j, :]) (M c)[j] is x_k
        solutions = inverse.conj()
        solutions *= (inverse @ rhs)[:, None]
        np.cumsum(solutions, axis=0, out=solutions)
    return [(cond, solutions[k - 1, :k]) for k, cond in zip(widths, conds)]


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
