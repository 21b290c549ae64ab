"""Word-indexed free (non-commutative) power series and their diagonal norms.

Words over the letters 1..d index coefficients; multiplication concatenates
words, so the algebra is associative but not commutative. The canonical
word order is length first, then lexicographic. Norms are weighted l2 sums
over word coefficients with a weight depending on word length only, which
makes the free least-squares problems the exact analogue of the commutative
ones.

The letter-counting map (`abelianize`) sends a word to the multi-index of
its letter multiplicities. Against the Drury-Arveson weights
alpha!/|alpha|! it is a unital multiplicative contraction, because each
multi-index alpha collects exactly |alpha|!/alpha! words and Cauchy-Schwarz
absorbs that multiplicity. That contraction is what makes the free index
dominate the commutative index of the abelianization at matched budgets.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import ArgumentError, DegreeRangeError, DimensionMismatchError
from .indices import ApproximantResult, subspace_distance, validate_problem
from .poly import JsonRecord, Polynomial, SparseSeries, invert_power_series
from .solver import shifted_design, solve_least_squares
from .spaces import KIND_DRURY_ARVESON, SpaceSpec

KIND_FREE_HARDY = "free_hardy"
KIND_FREE_BESOV = "free_besov"

Word = tuple[int, ...]


def words(d: int, max_length: int) -> list[Word]:
    """All words over letters 1..d with length <= max_length, length-then-lex."""
    if d < 1:
        raise ArgumentError("d must be >= 1")
    if max_length < 0:
        raise ArgumentError("max_length must be >= 0")
    out: list[Word] = []
    for length in range(max_length + 1):
        out.extend(itertools.product(range(1, d + 1), repeat=length))
    return out


class FreePolynomial(SparseSeries):
    """Finite free power series: sparse map from words to complex coefficients."""

    __slots__ = ()
    _json_field = "letters"

    def _key(self, word) -> Word:
        key = tuple(int(a) for a in word)
        if any(not 1 <= a <= self.d for a in key):
            raise ArgumentError(f"word {key} has letters outside 1..{self.d}")
        return key

    _length = staticmethod(len)

    def _unit(self) -> Word:
        return ()

    _concat = staticmethod(operator.add)

    def _keys_of_length(self, k: int) -> Iterator[Word]:
        return itertools.product(range(1, self.d + 1), repeat=k)

    @staticmethod
    def _remainder(word: Word, prefix: Word) -> Word | None:
        return word[len(prefix) :] if word[: len(prefix)] == prefix else None

    @staticmethod
    def _label(word) -> str:
        return f"Z{list(word)}"

    @classmethod
    def identity(cls, d: int) -> "FreePolynomial":
        return cls(d, {(): 1.0})

    @classmethod
    def letter(cls, j: int, d: int) -> "FreePolynomial":
        """The generator Z_j (1-based j)."""
        if not 1 <= j <= d:
            raise ArgumentError(f"letter {j} out of range 1..{d}")
        return cls(d, {(j,): 1.0})


class FreeSpaceSpec:
    """Diagonal free function space: one positive weight per word length."""

    __slots__ = ("kind", "d", "max_length", "smoothness", "_weights")

    def __init__(
        self,
        kind: str,
        d: int,
        max_length: int,
        smoothness: float = 0.0,
    ):
        if kind not in (KIND_FREE_HARDY, KIND_FREE_BESOV):
            raise ArgumentError(f"unknown free space kind {kind!r}")
        if d < 1:
            raise ArgumentError("d must be >= 1")
        if max_length < 0:
            raise ArgumentError("max_length must be >= 0")
        self.kind = kind
        self.d = int(d)
        self.max_length = int(max_length)
        self.smoothness = float(smoothness)
        if kind == KIND_FREE_HARDY:
            table = (1.0,) * (max_length + 1)
        else:
            table = tuple(
                float(k + 1) ** (2.0 * self.smoothness) for k in range(max_length + 1)
            )
        if any(w <= 0 or not math.isfinite(w) for w in table):
            raise ArgumentError("word-length weights must be positive finite")
        self._weights = table

    def weight(self, length: int) -> float:
        if not 0 <= length <= self.max_length:
            raise DegreeRangeError(
                f"word length {length} beyond precomputed max_length={self.max_length}"
            )
        return self._weights[length]

    def inner_product(self, F: FreePolynomial, G: FreePolynomial) -> complex:
        if F.d != self.d or G.d != self.d:
            raise DimensionMismatchError("free polynomials do not match the space")
        if F.degree > self.max_length or G.degree > self.max_length:
            raise DegreeRangeError(
                f"word length exceeds precomputed max_length={self.max_length}"
            )
        return F.weighted_inner(G, lambda word: self._weights[len(word)])

    def norm(self, F: FreePolynomial) -> float:
        return math.sqrt(max(self.inner_product(F, F).real, 0.0))

    def to_json(self) -> dict:
        out = {"kind": self.kind, "d": self.d, "maxLength": self.max_length}
        if self.kind == KIND_FREE_BESOV:
            out["s"] = self.smoothness
        return out

    @classmethod
    def from_json(cls, obj: Mapping) -> "FreeSpaceSpec":
        if not isinstance(obj, Mapping):
            raise ArgumentError("free space must be an object")
        kind = obj.get("kind")
        if kind == KIND_FREE_HARDY:
            return free_hardy(int(obj["d"]), int(obj.get("maxLength", 12)))
        if kind == KIND_FREE_BESOV:
            return free_besov(
                int(obj["d"]), float(obj.get("s", 0.0)), int(obj.get("maxLength", 12))
            )
        raise ArgumentError(f"unknown free space kind {kind!r}")

    def __repr__(self) -> str:
        return (
            f"FreeSpaceSpec(kind={self.kind!r}, d={self.d}, "
            f"max_length={self.max_length})"
        )


def free_hardy(d: int, max_length: int = 12) -> FreeSpaceSpec:
    """Unit weights: square-summable word coefficients."""
    return FreeSpaceSpec(KIND_FREE_HARDY, d, max_length)


def free_besov(d: int, s: float, max_length: int = 12) -> FreeSpaceSpec:
    """Length weights (k+1)^(2s), mirroring commutative radial-derivative scaling."""
    if s < 0:
        raise ArgumentError("smoothness s must be >= 0")
    return FreeSpaceSpec(KIND_FREE_BESOV, d, max_length, smoothness=s)


def free_subspace_distance(
    spec: FreeSpaceSpec,
    g: FreePolynomial,
    G: FreePolynomial,
    n: int,
) -> ApproximantResult:
    """Distance from g to {Phi G : words of Phi of length <= n} with minimizer.

    Same least-squares core as the commutative solver, over the word
    basis {Z^w G : |w| <= n}. A word's row is its length-then-lex rank: the
    words shorter than it, plus its letters read as base-d digits; Z^u V
    then lands at lex(u) * d^|V| + lex(V) among the words of length |u|+|V|.
    """
    validate_problem(spec.d, spec.max_length, g, G, n, "max_length")
    cols = words(spec.d, n)
    row_length = max(n + G.degree, g.degree)
    sizes = spec.d ** np.arange(row_length + 1)
    start = np.concatenate([[0], np.cumsum(sizes)])

    def lengths_and_lex(F):
        lengths = np.array([len(w) for w in F.coeffs], dtype=np.int64)
        lex = [sum((a - 1) * spec.d**k for k, a in enumerate(w[::-1])) for w in F.coeffs]
        return lengths, np.array(lex, dtype=np.int64)

    col_len = np.repeat(np.arange(n + 1), sizes[: n + 1])
    col_lex = np.arange(len(cols)) - start[col_len]
    G_len, G_lex = lengths_and_lex(G)
    g_len, g_lex = lengths_and_lex(g)
    rows = start[col_len[:, None] + G_len] + col_lex[:, None] * sizes[G_len] + G_lex
    sqrt_w = np.repeat(np.sqrt([spec.weight(k) for k in range(row_length + 1)]), sizes)
    design, target = shifted_design(
        rows, list(G.coeffs.values()), start[g_len] + g_lex, list(g.coeffs.values()),
        sqrt_w,
    )
    out = solve_least_squares(design, target)
    phi = FreePolynomial.from_solution(spec.d, cols, out.coefficients)
    return ApproximantResult(n, phi, out.residual, out.gram_condition, out.method)


def abelianize(F: FreePolynomial) -> Polynomial:
    """Letter-counting quotient: Z^w maps to z^(multiplicity vector of w).

    Unital and multiplicative; contracts free Hardy norms into
    Drury-Arveson norms.
    """
    coeffs: dict[tuple[int, ...], complex] = {}
    for word, c in F.coeffs.items():
        alpha = [0] * F.d
        for letter in word:
            alpha[letter - 1] += 1
        key = tuple(alpha)
        coeffs[key] = coeffs.get(key, 0j) + c
    return Polynomial(F.d, coeffs)


def evaluate_on_tuple(F: FreePolynomial, mats: Sequence[np.ndarray]) -> np.ndarray:
    """Substitute square matrices for the letters; the empty word becomes I."""
    if len(mats) != F.d:
        raise DimensionMismatchError(f"expected {F.d} matrices, got {len(mats)}")
    arrays = [np.asarray(m, dtype=complex) for m in mats]
    size = arrays[0].shape[0]
    for m in arrays:
        if m.ndim != 2 or m.shape != (size, size):
            raise ArgumentError("all matrices must be square and of equal size")
    out = np.zeros((size, size), dtype=complex)
    eye = np.eye(size, dtype=complex)
    # sorted accumulation keeps evaluation deterministic regardless of
    # coefficient insertion order
    for word in sorted(F.coeffs, key=lambda w: (len(w), w)):
        prod = eye
        for letter in word:
            prod = prod @ arrays[letter - 1]
        out += F.coeffs[word] * prod
    return out


def _row_contraction_from_rng(
    rng: np.random.Generator, d: int, size: int, rho: float
) -> tuple[np.ndarray, ...]:
    if d < 1 or size < 1:
        raise ArgumentError("d and size must be >= 1")
    if not 0 <= rho < 1:
        raise ArgumentError("rho must lie in [0, 1)")
    blocks = [
        (rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size)))
        / math.sqrt(2.0)
        for _ in range(d)
    ]
    if rho == 0:
        return tuple(np.zeros((size, size), dtype=complex) for _ in range(d))
    row = np.hstack(blocks)
    scale = rho / np.linalg.svd(row, compute_uv=False)[0]
    return tuple(b * scale for b in blocks)


def sample_row_contraction(
    d: int, size: int, rho: float, seed: int
) -> tuple[np.ndarray, ...]:
    """Random matrix tuple whose row block [Z_1 ... Z_d] has operator norm rho.

    Gaussian blocks rescaled exactly; reproducible for a fixed seed.
    """
    return _row_contraction_from_rng(np.random.default_rng(seed), d, size, rho)


def tuple_to_json(mats: Sequence[np.ndarray]) -> list[dict]:
    """Serialize a matrix tuple for replay: one {re, im} matrix pair per letter."""
    out = []
    for m in mats:
        arr = np.asarray(m, dtype=complex)
        out.append({"re": arr.real.tolist(), "im": arr.imag.tolist()})
    return out


def tuple_from_json(data: Sequence[Mapping]) -> tuple[np.ndarray, ...]:
    return tuple(
        np.asarray(entry["re"], dtype=float) + 1j * np.asarray(entry["im"], dtype=float)
        for entry in data
    )


@dataclass
class CompressionReport(JsonRecord):
    """Free index against the commutative index of the abelianization."""

    n: int
    free_residual: float
    commutative_residual: float
    gap: float
    holds: bool


def compression_check(
    spec_free: FreeSpaceSpec,
    spec_comm: SpaceSpec,
    G: FreePolynomial,
    n: int,
) -> CompressionReport:
    """Verify the free residual dominates the commutative residual of the
    abelianization at the same budget.

    Requires the symmetric-Fock pairing: unit word weights on the free side
    and Drury-Arveson weights on the commutative side, same d.
    """
    if spec_free.kind != KIND_FREE_HARDY:
        raise ArgumentError("compression pairing requires unit free weights")
    if spec_comm.kind != KIND_DRURY_ARVESON:
        raise ArgumentError("compression pairing requires Drury-Arveson weights")
    if spec_free.d != spec_comm.d:
        raise DimensionMismatchError("free and commutative sides must share d")
    free_res = free_subspace_distance(
        spec_free, FreePolynomial.identity(spec_free.d), G, n
    ).residual
    comm_res = subspace_distance(
        spec_comm, Polynomial.one(spec_comm.d), abelianize(G), n
    ).residual
    return CompressionReport(
        n=n,
        free_residual=free_res,
        commutative_residual=comm_res,
        gap=free_res - comm_res,
        holds=free_res >= comm_res - 1e-10,
    )


@dataclass
class RowContractionInversionReport(JsonRecord):
    """Spectral floor of 2I - Z_1 on sampled tuples plus inverse-truncation data."""

    d: int
    rho: float
    samples: int
    size: int
    min_singular_values: list[float]
    min_over_samples: float
    theta_lengths: list[int]
    theta_norms: list[float]
    theta_stabilized: bool
    max_tuple_norm: float
    tuple_norm_envelope: float | None


def row_contraction_inversion_report(
    d: int,
    rho: float,
    samples: int,
    size: int,
    seed: int,
    l_max: int = 10,
) -> RowContractionInversionReport:
    """Check that Psi = 2I - Z_1 stays bounded below on sampled row
    contractions and that its truncated inverse series stabilizes.

    The modulus bound |Psi(Z)| >= c is read as a floor on the smallest
    singular value of Psi(Z). Bounded below forces invertibility; the
    numerical witness is that the truncation norms of the inverse series
    settle (last two lengths within 1e-3).
    """
    if samples < 1:
        raise ArgumentError("samples must be >= 1")
    if l_max < 1:
        raise ArgumentError("l_max must be >= 1")
    psi = 2.0 * FreePolynomial.identity(d) - FreePolynomial.letter(1, d)
    norm_space = free_hardy(d, max_length=l_max)
    theta = invert_power_series(psi, l_max)
    theta_norms = [
        norm_space.norm(theta.truncated(length)) for length in range(l_max + 1)
    ]
    stabilized = abs(theta_norms[-1] - theta_norms[-2]) < 1e-3
    rng = np.random.default_rng(seed)
    min_svs = []
    max_tuple_norm = 0.0
    for _ in range(samples):
        mats = _row_contraction_from_rng(rng, d, size, rho)
        psi_eval = evaluate_on_tuple(psi, mats)
        min_svs.append(float(np.linalg.svd(psi_eval, compute_uv=False)[-1]))
        theta_eval = evaluate_on_tuple(theta, mats)
        max_tuple_norm = max(
            max_tuple_norm, float(np.linalg.svd(theta_eval, compute_uv=False)[0])
        )
    envelope = None
    denom = 2.0 - rho * math.sqrt(d)
    if denom > 0:
        envelope = 1.0 / denom
    return RowContractionInversionReport(
        d=d,
        rho=rho,
        samples=samples,
        size=size,
        min_singular_values=min_svs,
        min_over_samples=min(min_svs),
        theta_lengths=list(range(l_max + 1)),
        theta_norms=theta_norms,
        theta_stabilized=stabilized,
        max_tuple_norm=max_tuple_norm,
        tuple_norm_envelope=envelope,
    )
