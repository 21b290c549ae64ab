"""Radially weighted Besov spaces and the Drury-Arveson space in diagonal form.

Every space is represented by one strictly positive weight per monomial,
c_alpha = ||z^alpha||^2. For a moment-based space with radial derivative
order N these factor as

    c_alpha = |alpha|^(2N) * m[2|alpha|] * s(d, alpha)   for alpha != 0,
    c_0     = m[0],

where m[j] is the j-th moment of the radial measure on [0, 1] and
s(d, alpha) is the sphere moment of |w^alpha|^2 under the rotation-invariant
surface measure, normalized so the sphere has measure 1 throughout the
package. The separate c_0 rule realizes the extra modulus-at-zero term that
a positive derivative order requires. Norms and inner products are then
weighted l2 sums over power-series coefficients, which keeps every
least-squares problem downstream closed-form.

The Drury-Arveson space is the special diagonal family
c_alpha = alpha!/|alpha|!, matching the kernel 1/(1 - <z, w>); this is also
exactly the weight that makes full-Fock-to-symmetric-Fock compression
contractive (see `freespace.abelianize`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    ArgumentError,
    DegreeRangeError,
    DimensionMismatchError,
)
from .poly import Polynomial, bind, brief, choose, multi_indices

KIND_DIAGONAL_BESOV = "diagonal_besov"
KIND_DRURY_ARVESON = "drury_arveson"
KIND_CUSTOM_DIAGONAL = "custom_diagonal"

_KINDS = (KIND_DIAGONAL_BESOV, KIND_DRURY_ARVESON, KIND_CUSTOM_DIAGONAL)


def default_max_degree(d: int) -> int:
    # Bounded memory with predictable ranges: 64 monomials in one variable,
    # total degree 20 otherwise.
    return 64 if d == 1 else 20


# a space tabulates the weight of each of its C(max_degree + d, d) monomials
# eagerly; this many (d = 8 at the default degree 20 needs 3.1M) is the most
MAX_MONOMIALS = 1 << 22


def _check_table(d: int, max_degree: int) -> None:
    if d < 1:
        raise ArgumentError("d must be >= 1")
    if max_degree < 0:
        raise ArgumentError("max_degree must be >= 0")
    # C(n + d, d) > max(n, d), so the first test spares comb() a huge argument
    if max(d, max_degree) >= MAX_MONOMIALS or math.comb(max_degree + d, d) > MAX_MONOMIALS:
        raise ArgumentError(f"d = {brief(d)} and maxDegree = {brief(max_degree)} give more "
                            f"than {MAX_MONOMIALS} monomial weights to tabulate")


@dataclass(frozen=True)
class MomentSequence:
    """Moments m[j] = integral of r^j over [0, 1] against a radial measure.

    Any genuine measure with mass near r = 1 yields a positive, nonincreasing
    sequence; both properties are validated because the monomial weights
    inherit them.
    """

    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if not vals:
            raise ArgumentError("moment sequence is empty")
        if not all(map(math.isfinite, vals)):
            raise ArgumentError("moments must be finite")
        if vals[0] <= 0:
            raise ArgumentError("m[0] must be positive")
        for j in range(1, len(vals)):
            if vals[j] <= 0:
                raise ArgumentError(f"moment m[{j}] must be positive")
            if vals[j] > vals[j - 1] * (1 + 1e-12):
                raise ArgumentError(
                    f"moments must be nonincreasing (m[{j}] > m[{j - 1}])"
                )

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, j: int) -> float:
        return self.values[j]


def sphere_moment(d: int, alpha: Sequence[int]) -> float:
    """Integral of |w^alpha|^2 over the unit sphere of C^d (measure normalized to 1).

    Classical identity: (d-1)! * alpha! / (d-1+|alpha|)!. Symmetric under
    permutations of alpha; identically 1 when d = 1.
    """
    if d < 1:
        raise ArgumentError("d must be >= 1")
    key = tuple(int(a) for a in alpha)
    if len(key) != d:
        raise DimensionMismatchError(f"alpha has {len(key)} entries, expected {d}")
    if any(a < 0 for a in key):
        raise ArgumentError(f"negative exponent in {key}")
    num = math.factorial(d - 1)
    for a in key:
        num *= math.factorial(a)
    den = math.factorial(d - 1 + sum(key))
    return num / den


def sphere_sample(rng: np.random.Generator, count: int, d: int) -> np.ndarray:
    """`count` uniform points on the unit sphere of C^d, shape (count, d):
    normalized complex Gaussians, real parts drawn before imaginary parts."""
    raw = rng.standard_normal((count, d)) + 1j * rng.standard_normal((count, d))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


class SpaceSpec:
    """Immutable diagonal description of a function space.

    All operations are pure; construction eagerly tabulates every monomial
    weight up to max_degree.
    """

    __slots__ = ("kind", "d", "N", "max_degree", "moments", "_weights")

    def __init__(
        self,
        kind: str,
        d: int,
        N: int = 0,
        max_degree: int | None = None,
        moments: MomentSequence | None = None,
        custom_weights: Mapping[tuple[int, ...], float] | None = None,
    ):
        if kind not in _KINDS:
            raise ArgumentError(f"unknown space kind {brief(kind)}")
        if N < 0:
            raise ArgumentError("N must be >= 0")
        if N != 0 and kind != KIND_DIAGONAL_BESOV:
            raise ArgumentError(f"{kind} spaces take no derivative order; N must be 0")
        self.kind = kind
        self.d = int(d)
        self.N = int(N)
        self.max_degree = int(max_degree if max_degree is not None else default_max_degree(d))
        _check_table(self.d, self.max_degree)
        self.moments = moments
        self._weights = self._build_weights(custom_weights)

    def _build_weights(self, custom) -> dict[tuple[int, ...], float]:
        indices = multi_indices(self.d, self.max_degree)
        table: dict[tuple[int, ...], float] = {}
        if self.kind == KIND_DRURY_ARVESON:
            for alpha in indices:
                num = 1
                for a in alpha:
                    num *= math.factorial(a)
                table[alpha] = num / math.factorial(sum(alpha))
        elif self.kind == KIND_DIAGONAL_BESOV:
            if self.moments is None:
                raise ArgumentError("diagonal Besov spaces require a moment sequence")
            needed = 2 * self.max_degree + 1
            if len(self.moments) < needed:
                raise ArgumentError(
                    f"moment sequence has {len(self.moments)} entries, "
                    f"needs {needed} for max_degree={self.max_degree}"
                )
            try:
                for alpha in indices:
                    k = sum(alpha)
                    if k == 0:
                        table[alpha] = self.moments[0]
                    else:
                        table[alpha] = (
                            float(k) ** (2 * self.N)
                            * self.moments[2 * k]
                            * sphere_moment(self.d, alpha)
                        )
            except OverflowError:
                raise ArgumentError(f"derivative order N = {self.N} overflows the weight "
                                    f"factor |alpha|^(2N) at degree {k}") from None
        else:
            if custom is None:
                raise ArgumentError("custom diagonal spaces require a weight table")
            for alpha in indices:
                key = tuple(alpha)
                if key not in custom:
                    raise ArgumentError(f"custom weights missing entry for {key}")
                w = float(custom[key])
                if w <= 0:
                    raise ArgumentError(f"weight for {key} must be positive")
                table[key] = w
        for alpha, w in table.items():
            if not (w > 0) or not math.isfinite(w):
                raise ArgumentError(f"monomial weight for {alpha} is not positive finite")
        return table

    def monomial_norm_sq(self, alpha: Sequence[int]) -> float:
        """c_alpha = ||z^alpha||^2 for |alpha| <= max_degree."""
        key = tuple(int(a) for a in alpha)
        if len(key) != self.d:
            raise DimensionMismatchError(f"alpha has {len(key)} entries, expected {self.d}")
        try:
            return self._weights[key]
        except KeyError:
            raise DegreeRangeError(
                f"|alpha|={sum(key)} beyond precomputed max_degree={self.max_degree}"
            ) from None

    def weight_vector(self, max_degree: int) -> np.ndarray:
        """c_alpha for every |alpha| <= max_degree, in graded-lex order."""
        if max_degree > self.max_degree:
            raise DegreeRangeError(
                f"degree {max_degree} beyond precomputed max_degree={self.max_degree}"
            )
        # the table was filled in graded-lex order, so its head is the answer
        count = math.comb(max_degree + self.d, self.d)
        return np.fromiter(self._weights.values(), dtype=float, count=count)

    def inner_product(self, f: Polynomial, g: Polynomial) -> complex:
        """<f, g> = sum_alpha c_alpha fhat(alpha) conj(ghat(alpha))."""
        if f.d != self.d or g.d != self.d:
            raise DimensionMismatchError("polynomials do not match the space dimension")
        if f.degree > self.max_degree or g.degree > self.max_degree:
            raise DegreeRangeError(
                f"degree exceeds precomputed max_degree={self.max_degree}"
            )
        return f.weighted_inner(g, self._weights.__getitem__)

    def norm(self, f: Polynomial) -> float:
        return math.sqrt(max(self.inner_product(f, f).real, 0.0))

    def to_json(self) -> dict:
        out = {
            "kind": self.kind,
            "d": self.d,
            "N": self.N,
            "maxDegree": self.max_degree,
        }
        if self.kind == KIND_DIAGONAL_BESOV:
            out["moments"] = list(self.moments.values)
        elif self.kind == KIND_CUSTOM_DIAGONAL:
            out["weights"] = [
                {"exponents": list(a), "value": self._weights[a]}
                for a in sorted(self._weights, key=lambda a: (sum(a), a))
            ]
        return out

    @classmethod
    def from_json(cls, obj: Mapping) -> "SpaceSpec":
        """A spec from its JSON object, whose kind picks the function that
        `bind` reads the other keys with."""

        def diagonal_besov(d: int, moments: list[float], N: int = 0, max_degree: int | None = None):
            return cls(KIND_DIAGONAL_BESOV, d, N, max_degree, moments=MomentSequence(moments))

        def drury_arveson(d: int, N: int = 0, max_degree: int | None = None):
            return cls(KIND_DRURY_ARVESON, d, N, max_degree)

        def weight(exponents: list[int], value: float):
            return exponents, value

        def custom_diagonal(d: int, weights: list[dict], N: int = 0, max_degree: int | None = None):
            table = dict(bind(weight, t, "weight") for t in weights)
            return cls(KIND_CUSTOM_DIAGONAL, d, N, max_degree, custom_weights=table)

        readers = {KIND_DIAGONAL_BESOV: diagonal_besov, KIND_DRURY_ARVESON: drury_arveson,
                   KIND_CUSTOM_DIAGONAL: custom_diagonal}
        return choose("kind", readers, what="space")(obj)

    def __repr__(self) -> str:
        return (
            f"SpaceSpec(kind={self.kind!r}, d={self.d}, N={self.N}, "
            f"max_degree={self.max_degree})"
        )


def _moment_space(d: int, max_degree: int | None, N: int, moment) -> SpaceSpec:
    """Diagonal Besov space of derivative order N whose j-th radial moment is
    moment(j), tabulated for j <= 2 * max_degree."""
    md = max_degree if max_degree is not None else default_max_degree(d)
    _check_table(d, md)
    moments = MomentSequence(tuple(moment(j) for j in range(2 * md + 1)))
    return SpaceSpec(KIND_DIAGONAL_BESOV, d, N, md, moments=moments)


def hardy(d: int, max_degree: int | None = None) -> SpaceSpec:
    """Boundary L2 space: radial measure is the unit point mass at r = 1."""
    return _moment_space(d, max_degree, 0, lambda j: 1.0)


def _area_moment(j: int) -> float:
    return 2.0 / (j + 2)  # the moments of d(mu) = 2r dr on [0, 1]


def bergman(d: int, max_degree: int | None = None) -> SpaceSpec:
    """Volume L2 space: radial measure 2r dr, no derivative."""
    return _moment_space(d, max_degree, 0, _area_moment)


def dirichlet_type(d: int, max_degree: int | None = None) -> SpaceSpec:
    """One radial derivative against the measure 2r dr."""
    return _moment_space(d, max_degree, 1, _area_moment)


def drury_arveson(d: int, max_degree: int | None = None) -> SpaceSpec:
    """Monomial weights alpha!/|alpha|! (kernel 1/(1 - <z, w>))."""
    return SpaceSpec(KIND_DRURY_ARVESON, d, 0, max_degree)


PRESET_BUILDERS = {
    "hardy": hardy,
    "bergman": bergman,
    "dirichlet_type": dirichlet_type,
    "drury_arveson": drury_arveson,
}


def preset(preset: str, d: int, max_degree: int | None = None) -> SpaceSpec:
    """Build a preset space by string name, e.g. preset("hardy", 1)."""
    try:
        builder = PRESET_BUILDERS[preset]
    except KeyError:
        raise ArgumentError(
            f"unknown preset {brief(preset)}; choose from {sorted(PRESET_BUILDERS)}"
        ) from None
    return builder(d, max_degree)
