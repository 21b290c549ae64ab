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
from typing import Mapping, Sequence

import numpy as np

from .errors import ArgumentError, DegreeRangeError, DimensionMismatchError
from .indices import ApproximantResult, subspace_distance
from .poly import (MAX_KEYS, JsonRecord, Polynomial, SparseSeries, bind, brief,
                   invert_power_series)
# not called here, but perfbench/tracing.py rebinds this name in this module
from .solver import solve_least_squares  # noqa: F401
from .spaces import KIND_DRURY_ARVESON, DiagonalSpace, SpaceSpec

KIND_FREE_HARDY = "free_hardy"
KIND_FREE_BESOV = "free_besov"
# a sampled tuple holds d blocks of size x size: at most this many entries (64 MB)
MAX_TUPLE_ENTRIES = 1 << 22
# the report lists one singular value per sample, about 20 bytes of JSON
MAX_SAMPLES = 1 << 16

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


def _word_count(d: int, max_length: int) -> int:
    """The number of words over d letters of length <= max_length."""
    return max_length + 1 if d == 1 else (d ** (max_length + 1) - 1) // (d - 1)


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

    @staticmethod
    def _key_array(keys: list, d: int) -> np.ndarray:
        # a free space weighs a word by its length
        return np.array([len(k) for k in keys], dtype=np.int64).reshape(-1, 1)

    def _shifted_ranks(self, n: int, keys: list) -> tuple[list, np.ndarray, np.ndarray]:
        # u k ranks at start[|u|+|k|] + lex(u) d^|k| + lex(k); lex reads letters as
        # base-d digits
        cols = words(self.d, n)
        lengths = self._key_array(keys, self.d)[:, 0]
        sizes = self.d ** np.arange(n + lengths.max(initial=0) + 1)
        start = np.concatenate([[0], np.cumsum(sizes)])
        col_len = np.repeat(np.arange(n + 1), sizes[: n + 1])
        lex = np.array([sum((a - 1) * self.d**i for i, a in enumerate(k[::-1])) for k in keys],
                       dtype=np.int64)
        col_lex = np.arange(len(cols)) - start[col_len]
        products = col_len[:, None] + lengths
        ranks = start[products] + col_lex[:, None] * sizes[lengths] + lex
        return cols, ranks, products[..., None]

    def _key_count(self, top: int) -> tuple[int, str]:
        count = _word_count(self.d, top if self.d == 1 else min(top, 63))  # past 2^63 at 63
        return count, f"words of length <= {brief(top)} over {self.d} letters"

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


class FreeSpaceSpec(DiagonalSpace):
    """Diagonal free function space: one positive weight per word length."""

    __slots__ = ("kind", "d", "max_length", "smoothness", "_weights")
    series = FreePolynomial

    def __init__(self, kind: str, d: int, max_length: int, smoothness: float = 0.0):
        if kind not in (KIND_FREE_HARDY, KIND_FREE_BESOV):
            raise ArgumentError(f"unknown free space kind {brief(kind)}")
        if d < 1:
            raise ArgumentError("d must be >= 1")
        if max_length < 0:
            raise ArgumentError("max_length must be >= 0")
        # words rank as int64 (_shifted_ranks), so at d >= 2 L < 63, which
        # spares _word_count a huge exponent; at d = 1 the tuple of length
        # weights is bounded as a space bounds its moments
        if max_length >= (63 if d > 1 else MAX_KEYS) or _word_count(d, max_length) >= 2**63:
            raise ArgumentError(f"d = {brief(d)} and maxLength = {brief(max_length)} give 2^63 "
                                f"words or more, or more than {MAX_KEYS} lengths")
        if not 0 <= smoothness < math.inf:
            raise ArgumentError("smoothness s must be finite and >= 0")
        if kind == KIND_FREE_HARDY and smoothness != 0:
            raise ArgumentError("free_hardy has unit weights; smoothness s must be 0")
        self.kind = kind
        self.d = int(d)
        self.max_length = int(max_length)
        self.smoothness = float(smoothness)
        try:  # free_hardy's smoothness 0 gives unit weights
            self._weights = tuple(float(k + 1) ** (2.0 * self.smoothness)
                                  for k in range(max_length + 1))
        except OverflowError:
            raise ArgumentError(f"smoothness s = {smoothness!r} overflows the word-length "
                                "weight (k + 1)^(2s)") from None

    def weight(self, length: int) -> float:
        if not 0 <= length <= self.max_length:
            raise DegreeRangeError(
                f"word length {brief(length)} beyond max_length={self.max_length}"
            )
        return self._weights[length]

    def weights(self, keys: np.ndarray) -> np.ndarray:
        """The weights of words from their lengths, one a row of keys."""
        top = int(keys.max(initial=0))
        self.weight(top)  # refuses a length past the range by name
        return np.array(self._weights[: top + 1])[keys[:, 0]]

    def to_json(self) -> dict:
        out = {"kind": self.kind, "d": self.d, "maxLength": self.max_length}
        if self.kind == KIND_FREE_BESOV:
            out["s"] = self.smoothness
        return out

    @classmethod
    def from_json(cls, obj: Mapping) -> "FreeSpaceSpec":
        def read(kind: str, d: int, max_length: int = 12, s: float = 0.0):
            return cls(kind, d, max_length, s)

        return bind(read, obj, "free space")

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
    return FreeSpaceSpec(KIND_FREE_BESOV, d, max_length, smoothness=s)


def free_subspace_distance(
    spec: FreeSpaceSpec,
    g: FreePolynomial,
    G: FreePolynomial,
    n: int,
) -> ApproximantResult:
    """Distance from g to {Phi G : words of Phi of length <= n} with minimizer:
    `indices.subspace_distance` in a free space, over the word basis
    {Z^w G : |w| <= n}."""
    return subspace_distance(spec, g, G, n)


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


def sample_row_contraction(
    d: int, size: int, rho: float, seed: int | np.random.Generator
) -> tuple[np.ndarray, ...]:
    """Random matrix tuple whose row block [Z_1 ... Z_d] has operator norm rho.

    Gaussian blocks rescaled exactly; reproducible for a fixed seed. A
    `Generator` passed as the seed is drawn from in place.
    """
    if d < 1 or size < 1:
        raise ArgumentError("d and size must be >= 1")
    if d * size * size > MAX_TUPLE_ENTRIES:
        raise ArgumentError(f"d = {brief(d)} and size = {brief(size)} give more than "
                            f"{MAX_TUPLE_ENTRIES} tuple entries")
    if not 0 <= rho < 1:
        raise ArgumentError("rho must lie in [0, 1)")
    # letter by letter, a real then an imaginary block, from the stream;
    # drawn at rho = 0 too, so that a Generator advances the same way
    gauss = np.random.default_rng(seed).standard_normal((d, 2, size, size))
    if rho == 0:
        return tuple(np.zeros((size, size), dtype=complex) for _ in range(d))
    blocks = (gauss[:, 0] + 1j * gauss[:, 1]) / math.sqrt(2.0)
    row = blocks.transpose(1, 0, 2).reshape(size, d * size)
    scale = rho / np.linalg.svd(row, compute_uv=False)[0]
    return tuple(blocks * scale)


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
    if not 1 <= samples <= MAX_SAMPLES:
        raise ArgumentError(f"samples must lie in 1..{MAX_SAMPLES}, not {brief(samples)}")
    if l_max < 1:
        raise ArgumentError("l_max must be >= 1")
    psi = 2.0 * FreePolynomial.identity(d) - FreePolynomial.letter(1, d)
    norm_space = free_hardy(d, max_length=l_max)
    theta = invert_power_series(psi, l_max)
    theta_norms = norm_space.truncation_norms(theta, l_max)
    stabilized = abs(theta_norms[-1] - theta_norms[-2]) < 1e-3
    rng = np.random.default_rng(seed)
    min_svs = []
    max_tuple_norm = 0.0
    for _ in range(samples):
        mats = sample_row_contraction(d, size, rho, rng)
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
