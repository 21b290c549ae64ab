"""Weighted least squares on shifted designs, with a conditioning-aware fallback.

A design column holds one shifted basis element (z^gamma f, or Z^w G over
words), so it has only |f| nonzeros. `solve_nested` solves the leading
column blocks of width k in `widths` of one design (a degree sweep's
budgets); a single solve is its one-width case.

Every solve is equilibrated (van der Sluis, Numer. Math. 14, 1969): with D
the inverse column norms of the design, it solves D G D y = D A^H b
for G = A^H A and returns x = D y. Drury-Arveson weights and decaying
moments spread the column norms over orders of magnitude, and D removes
the part of the condition number that comes from that alone: on the
Drury-Arveson d=3, n=15 sweep design kappa_1 falls from 2.65e6 to 16.8.
The leading blocks of D G D are the scaled leading blocks of G, so one D
serves every width. The dense route rounds D down to powers of two, which
rounds nothing: its solutions are those of the unscaled Gram to the bit,
and only the condition it reports and gates on changes. A design's storage
is its route, picked once where `poly.shifted_columns` builds it from the
widest width K and the number of widths (`dense_route`):

* an ndarray, when K^3 <= DENSE_MAX_COLUMNS^3 x (number of widths), takes
  the dense route: the scaled Gram of width K is formed once, factored
  once as L L^H by `np.linalg.cholesky`, and M = L^-1 is formed once. The
  leading block of L factors the leading block of D G D, so every width
  reads its solution and its exact 1-norm condition
  kappa_1 = ||B||_1 ||B^-1||_1 off leading blocks of L and M.
  `solve_normal_equations`, the IRLS step's solve, is the one-width case
  of the same factor, scaled by D = diag(G)^(-1/2) rounded the same way.
  A single solve takes this route up to 64 columns.
* a CSC matrix otherwise takes conjugate gradients (CG): on A_k^H (A_k p)
  of the scaled design, never forming the Gram, each width started from
  the last one's solution. Its own step coefficients give the Lanczos
  estimate of kappa_2 of D G_k D.

A design keeps only the rows that some column or the target reaches.
scipy.sparse is loaded only for a CSC design; scipy.sparse.linalg and
scipy.linalg never are. Every index of the acceptance configs, and every
d = 1 sweep up to n = 511, is an ndarray, so these solves load no scipy.

The route rule is a measured crossover. A dense factor costs about K^3
and is shared by the widths, while CG is paid per width. Nested solve of
every budget of a sweep, dense route against CG (median of 7, 2-core
host, numpy 2.4 with OpenBLAS, scipy 1.17):

    sweep, f = 1 - mean(z)      K  widths    dense       CG  rule picks
    d=1 Dirichlet, n=60        61      61    4.8 ms    68 ms   dense
    d=1 Dirichlet, n=120      121     121     14 ms   274 ms   dense
    d=1 Dirichlet, n=250      251     251     85 ms  1.11 s    dense
    d=1 Dirichlet, n=500      501     501    616 ms  5.27 s    dense
    Drury-Arveson d=2, n=12    91      13    3.5 ms   5.5 ms   dense
    Drury-Arveson d=2, n=16   153      17    8.7 ms   4.8 ms   dense
    Drury-Arveson d=2, n=22   276      23     25 ms   7.8 ms   CG
    Drury-Arveson d=2, n=30   496      31    159 ms    24 ms   CG
    Drury-Arveson d=3, n=7    120       8    3.2 ms   1.6 ms   dense
    Drury-Arveson d=3, n=9    220      10     13 ms   2.2 ms   CG
    Drury-Arveson d=3, n=11   364      12     65 ms   5.6 ms   CG
    Drury-Arveson d=3, n=15   816      16    593 ms   7.7 ms   CG

CG's cost follows the scaled condition, not K alone: the Drury-Arveson
Grams stay near kappa_2 = 30 and take tens of iterations per width, while
the d = 1 ones grow like K^2 and take about K. So the crossover has moved
below the rule's at d >= 2 (CG wins the d=2, n=16 and d=3, n=7 sweeps),
and at d = 1 the dense route wins at every size measured, although the
rule sends d = 1 sweeps past n = 511 to CG.

Past DEFAULT_COND_THRESHOLD on the condition of D G D, at CG's iteration
cap, or on a zero column, the solve switches to a dense orthogonal
factorization of the unscaled design matrix itself.

An IRLS step of the mixed indices does not form its weighted grid design
sqrt(u) A. It builds the Gram and A^H b from radial moments of its
weights: at d = 1 by one product of the moments and the angular phases,
on one route; at d >= 2 when the monomials that its columns reach are
few against the design's columns and radial nodes, and otherwise from
U conj(A). Either way it hands them to `solve_normal_equations`, the
dense route's factor and gate, which asks for the weighted design only
past the threshold. On the moment route the index holds no design at
all: each trial's residual comes from the monomial tables, and the
design is built only for such a fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError, NumericFailureError

# the normal-equation routes: the scaled Gram's Cholesky factor, or
# conjugate gradients on the scaled design
CHOLESKY = "cholesky"
CG = "cg"
QR_FALLBACK = "qr_fallback"

DEFAULT_COND_THRESHOLD = 1e10
DENSE_MAX_COLUMNS = 64
CG_RTOL = 1e-14
CG_MAX_ITER = 2000


@dataclass
class NormalSolution:
    coefficients: np.ndarray
    gram_condition: float
    method: str


@dataclass
class LeastSquaresOutcome(NormalSolution):
    residual: float


def dense_route(columns: int, solves: int) -> bool:
    """Whether a design of `columns` columns, solved at `solves` leading
    widths, is stored as an ndarray and so takes the dense route: one dense
    factor costs about columns^3 and serves every width, while CG is paid
    per width. `poly.shifted_columns` asks it once, when it builds the design."""
    return columns**3 <= DENSE_MAX_COLUMNS**3 * solves


def solve_least_squares(design, target: np.ndarray) -> LeastSquaresOutcome:
    """Minimize ||design @ x - target||_2 for a dense ndarray or sparse
    design: the one-width case of `solve_nested`."""
    return solve_nested(design, target, [design.shape[1]])[0]


def solve_nested(design, target: np.ndarray, widths) -> list[LeastSquaresOutcome]:
    """Minimize ||design[:, :k] @ x - target||_2 for every leading width k of
    the increasing `widths`, whose last is the design's width, one outcome
    per width.

    The design's storage is its route. An ndarray takes the dense route: the
    scaled Gram is factored once and every D G_k D is its leading block. A
    sparse design takes conjugate gradients. Each reported residual is
    evaluated directly on its returned x, so it is always an achievable
    objective value. The normal equations are solved equilibrated: with D
    the inverse column norms of the design (rounded down to powers of two on
    the dense route), D G_k D y = D A_k^H b and x = D y. `gram_condition` is
    the condition of D G_k D: its exact kappa_1 on the dense route, the
    Lanczos estimate of its kappa_2 on the CG route, and infinite when the
    factorization of G_k fails or A_k has a zero column. Only kappa_1 or a
    zero column certifies a singular Gram: the Lanczos estimate sees only
    the Krylov space CG spans, and can stay small when a column repeats
    another, while the residual stays the optimal one. The solve is for
    b / 2^e, 2^e the power of two just above max|b|, so that no square of a
    residual overflows, and x and the residuals are scaled back: a power of
    two scales them exactly.
    """
    target = np.ascontiguousarray(target, dtype=complex)
    shift = math.frexp(float(np.max(np.abs(target), initial=0.0)))[1]
    target = np.ldexp(target.view(float), -shift).view(complex)
    widths = list(widths)
    if isinstance(design, np.ndarray):
        method, design = CHOLESKY, design.astype(complex, copy=False)
    else:
        import scipy.sparse

        method, design = CG, scipy.sparse.csc_matrix(design, dtype=complex)
    scale, scaled = _equilibrate(design)
    # D A^H b as conj(b^H A D), without a conjugated copy of A D
    rhs = (target.conj() @ scaled).conj()
    if method == CG:
        solved = _conjugate_gradients(scaled, rhs, widths, scale > 0)
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            gram = scaled.conj().T @ scaled
        solved = _dense_factor(gram, rhs, widths)
    outs, block = [], np.zeros((widths[-1], len(widths)), dtype=complex)
    for j, (k, (cond, y)) in enumerate(zip(widths, solved)):
        out = _gate(cond, None if y is None else scale[:k] * y, method, lambda k=k: (
            design[:, :k] if method == CHOLESKY else design[:, :k].toarray(), target))
        block[:k, j] = out.coefficients
        outs.append(out)
    # every width's residual from one product; zero padding adds nothing
    residuals = design @ block
    np.subtract(target[:, None], residuals, out=residuals)
    residuals = np.ldexp(np.linalg.norm(residuals, axis=0), shift)
    return [LeastSquaresOutcome(np.ldexp(out.coefficients.view(float), shift).view(complex),
                                out.gram_condition, out.method, float(r))
            for out, r in zip(outs, residuals)]


def solve_normal_equations(gram: np.ndarray, rhs: np.ndarray, problem) -> NormalSolution:
    """Solve the normal equations G x = rhs of min ||A x - b||_2, given the
    dense Gram G = A^H A and rhs = A^H b, equilibrated as D G D y = D rhs
    with D = diag(G)^(-1/2) rounded down to powers of two, by the one
    Cholesky factor that also gives the exact kappa_1 of D G D. Past
    DEFAULT_COND_THRESHOLD the solution is instead the dense least-squares
    one of (A, b) = problem(), which is called only then."""
    # a diagonal entry m 2^e, 1/2 <= m < 1, gets the scale 2^-ceil(e/2); a zero
    # or non-finite one gets 1, and the factorization refuses the Gram
    scale = np.ldexp(1.0, -((np.frexp(gram.diagonal().real)[1] + 1) // 2))
    cond, y = _dense_factor(gram * np.outer(scale, scale), scale * rhs, [len(gram)])[0]
    return _gate(cond, None if y is None else scale * y, CHOLESKY, problem)


def _equilibrate(design):
    """(D, A D) for the inverse column norms D of the design A.

    For an ndarray, the dense route's design, D is rounded down to powers of
    two. That rounds nothing (LAPACK's xPOEQUB scales by powers of the radix
    for the same reason): the Cholesky factor of D G D is then exactly D
    times the factor of G, and x = D y exactly the unscaled solution. For a
    CSC design D is exact, since CG's iteration count follows the condition
    of D G D. A column's norm is taken as max_i |a_ij| ||a_j / max_i |a_ij|||,
    and D as the inverse of each factor in turn, so no step overflows. A
    column that is zero or not finite gets the scale 0, which marks it,
    never inf."""
    dense = isinstance(design, np.ndarray)
    if dense:
        magnitude = np.abs(design)
        peak = magnitude.max(axis=0, initial=0.0)
    else:
        magnitude = np.abs(design.data)
        counts = np.diff(design.indptr)
        filled = counts > 0
        starts = design.indptr[:-1][filled]
        peak = np.zeros(design.shape[1])
        peak[filled] = np.maximum.reduceat(magnitude, starts)
    with np.errstate(all="ignore"):
        if dense:
            square_sums = ((magnitude / peak) ** 2).sum(axis=0)
        else:
            square_sums = np.zeros(design.shape[1])
            square_sums[filled] = np.add.reduceat(
                (magnitude / np.repeat(peak, counts)) ** 2, starts)
        scale = 1.0 / peak / np.sqrt(square_sums)
        usable = np.isfinite(scale) & (scale > 0)
        if dense:
            scale = np.where(usable, np.ldexp(1.0, np.frexp(scale)[1] - 1), 0.0)
            return scale, design * scale
        scale = np.where(usable, scale, 0.0)
        data = design.data * np.repeat(scale, counts)
    import scipy.sparse

    return scale, scipy.sparse.csc_matrix((data, design.indices, design.indptr),
                                          shape=design.shape)


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


def _conjugate_gradients(design, rhs: np.ndarray, widths: list[int], usable):
    """(kappa_2 estimate, normal-equation solution) of every leading block
    of a column-scaled CSC design, by conjugate gradients on
    A_k^H (A_k p), never forming the Gram.

    Each width starts from the previous one's solution, padded with zeros,
    and stops once ||r|| <= CG_RTOL ||A_k^H b||. CG's step lengths alpha
    and ratios beta are the Lanczos tridiagonal T of the Krylov space it
    spans, whose extreme eigenvalues bound the spectrum of the Gram from
    inside (Golub & Meurant, Matrices, Moments and Quadrature, 2010, ch.
    12). The leading block of a Hermitian matrix has a spectrum inside the
    whole one's, so the estimate carried to width k is the largest seen up
    to it. A width with an unusable column, or one that meets the
    iteration cap, gives no solution.
    """
    import scipy.sparse

    adjoint = design.data.conj()
    x, cond, solved = np.zeros(0, dtype=complex), 1.0, []
    for k in widths:
        x = np.concatenate([x, np.zeros(k - len(x), dtype=complex)])
        if not usable[:k].all():
            solved.append((math.inf, None))
            continue
        stored = design.indptr[k]
        parts = design.indices[:stored], design.indptr[:k + 1]
        a = scipy.sparse.csc_matrix((design.data[:stored], *parts), shape=(design.shape[0], k))
        a_adjoint = scipy.sparse.csr_matrix((adjoint[:stored], *parts), shape=(k, design.shape[0]))
        residual = rhs[:k] - a_adjoint @ (a @ x)
        direction = residual.copy()
        square = np.vdot(residual, residual).real
        stop = (CG_RTOL * np.linalg.norm(rhs[:k])) ** 2
        alphas, betas = [], []
        # a direction that A maps to 0 makes the iterate non-finite, which
        # ends the loop and sends the width to the fallback
        with np.errstate(all="ignore"):
            while square > stop and len(alphas) < CG_MAX_ITER:
                image = a @ direction
                alphas.append(square / np.vdot(image, image).real)
                x += alphas[-1] * direction
                residual -= alphas[-1] * (a_adjoint @ image)
                betas.append(np.vdot(residual, residual).real / square)
                square *= betas[-1]
                direction *= betas[-1]
                direction += residual
        if not np.isfinite(square):
            cond = math.inf
        elif alphas:
            cond = max(cond, _lanczos_condition(np.array(alphas), np.array(betas)))
        solved.append((cond, x.copy() if square <= stop else None))
    return solved


def _lanczos_condition(alphas: np.ndarray, betas: np.ndarray) -> float:
    """lambda_max / lambda_min of the Lanczos tridiagonal of CG's steps: its
    diagonal is 1/alpha_j + beta_(j-1)/alpha_(j-1) and its subdiagonal
    sqrt(beta_j)/alpha_j."""
    diagonal = 1.0 / alphas
    diagonal[1:] += betas[:-1] / alphas[:-1]
    # eigvalsh reads the lower triangle only
    tridiagonal = np.diag(diagonal)
    tridiagonal.flat[len(alphas)::len(alphas) + 1] = np.sqrt(betas[:-1]) / alphas[:-1]
    ritz = np.linalg.eigvalsh(tridiagonal)
    return float(ritz[-1] / ritz[0]) if ritz[0] > 0 else math.inf


def _gate(cond: float, x, method: str, problem) -> NormalSolution:
    """Keep the normal-equation solution x of `method` when there is one and
    the condition is at most the threshold, else solve the dense
    least-squares problem (A, b) = problem()."""
    if x is None or not cond <= DEFAULT_COND_THRESHOLD:
        method = QR_FALLBACK
        try:
            x = np.linalg.lstsq(*problem(), rcond=None)[0]
        except np.linalg.LinAlgError as exc:
            raise NumericFailureError(f"least-squares fallback failed: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise ConditioningError("least-squares solve produced non-finite coefficients")
    return NormalSolution(x, cond, method)
