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
least-squares problem downstream closed-form. No weight is tabulated: a
space keeps the radial factor of each degree, and `SpaceSpec.weights`
evaluates the closed form on the keys that a norm or a design reaches.

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

from .errors import ArgumentError, DegreeRangeError, DimensionMismatchError
from .poly import MAX_KEYS, Polynomial, bind, brief, choose, compositions

KIND_DIAGONAL_BESOV = "diagonal_besov"
KIND_DRURY_ARVESON = "drury_arveson"
KIND_CUSTOM_DIAGONAL = "custom_diagonal"

_KINDS = (KIND_DIAGONAL_BESOV, KIND_DRURY_ARVESON, KIND_CUSTOM_DIAGONAL)


def default_max_degree(d: int) -> int:
    # the degree range of a space that names none: 64 in one variable, total
    # degree 20 otherwise; a moment kind holds 2 max_degree + 1 moments for it
    return 64 if d == 1 else 20


def _check_size(d: int, max_degree: int, moments: bool) -> None:
    """Refuse a d whose d + 1 monomials of degree <= 1 hold more than
    MAX_KEYS exponents (d <= 2047), or for a moment kind (`moments` set) more
    than MAX_KEYS moments, 2 max_degree + 1; nothing is allocated before."""
    if d < 1:
        raise ArgumentError("d must be >= 1")
    if max_degree < 0:
        raise ArgumentError("max_degree must be >= 0")
    if d * (d + 1) > MAX_KEYS or moments and 2 * max_degree + 1 > MAX_KEYS:
        raise ArgumentError(f"d = {brief(d)} and maxDegree = {brief(max_degree)} give more "
                            f"than {MAX_KEYS} exponents of degree <= 1 or radial moments")


# k! for k <= 22, each exactly a float: the odd part of 22! is below 2^53
_FACTORIALS = np.array([math.factorial(k) for k in range(23)], dtype=float)


def _reciprocal_multinomials(parts: np.ndarray) -> np.ndarray:
    """p!/|p|! for each row p of the integer array parts, correctly rounded.
    Up to |p| = 22, |p|! is an exact float and so is p!, which divides it,
    so their quotient rounds once; a row of one nonzero part is 1. Any other
    row is divided in Python integers, which round correctly too, where
    1/float(|p|!/p!) is an ulp off for some rows past 2^53."""
    totals = parts.sum(axis=1)
    with np.errstate(over="ignore"):  # an overflow is in a row redone below
        out = _FACTORIALS[np.minimum(parts, 22)].prod(axis=1) / _FACTORIALS[np.minimum(totals, 22)]
    single = parts.max(axis=1, initial=0) == totals
    out[single] = 1.0
    for i in np.flatnonzero((totals > 22) & ~single).tolist():
        row = parts[i].tolist()
        out[i] = math.prod(map(math.factorial, row)) / math.factorial(sum(row))
    return out


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
    return float(_reciprocal_multinomials(np.array([(d - 1, *key)]))[0])


def sphere_sample(rng: np.random.Generator, count: int, d: int) -> np.ndarray:
    """`count` uniform points on the unit sphere of C^d, shape (count, d):
    normalized complex Gaussians, real parts drawn before imaginary parts."""
    raw = rng.standard_normal((count, d)) + 1j * rng.standard_normal((count, d))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


class DiagonalSpace:
    """The weighted l2 geometry of `SpaceSpec` and `freespace.FreeSpaceSpec`.
    A subclass names the series class of its algebra in `series`, whose
    `_key_array` forms an array of keys, and evaluates its weight rule on
    that array in `weights`, which refuses a key past its degree range."""

    __slots__ = ()

    def check_algebra(self, *operands) -> None:
        """Refuse a series of the other algebra or of another dimension."""
        for s in operands:
            if not isinstance(s, self.series):
                kinds = f"{self.series.__name__}s, not {type(s).__name__}"
                raise DimensionMismatchError(f"{type(self).__name__} takes {kinds}")
            if s.d != self.d:
                raise DimensionMismatchError(f"series in {s.d} variables, space d={self.d}")

    def _weigh(self, keys: list) -> list[float]:
        """The weights of a list of series keys, as floats."""
        return self.weights(self.series._key_array(keys, self.d)).tolist()

    def inner_product(self, f, g) -> complex:
        """<f, g> = sum_k w_k fhat(k) conj(ghat(k)) over the keys k of both,
        walking the sparser operand."""
        self.check_algebra(f, g)
        small, large = sorted((f.coeffs, g.coeffs), key=len)
        common, acc = [k for k in small if k in large], 0j
        # the key of top degree of each operand is weighed too, so that it is
        # in range, or none is
        tops = [max(s.coeffs, key=s._length) for s in (f, g) if s.coeffs]
        for k, w in zip(common, self._weigh(common + tops)):
            acc += w * f.coeffs[k] * g.coeffs[k].conjugate()
        return acc

    def norm(self, f) -> float:
        return math.sqrt(max(self.inner_product(f, f).real, 0.0))

    def truncation_norms(self, f, top: int) -> list[float]:
        """The norm of f truncated to each degree 0..top, from one running
        sum over its terms. The sums are `norm`'s own, bit for bit, when the
        terms are stored in degree order, as `invert_power_series` stores
        them; every key's weight is range-checked."""
        self.check_algebra(f)
        through, total = {}, 0j
        for (k, c), w in zip(f.coeffs.items(), self._weigh(list(f.coeffs))):
            total += w * c * c.conjugate()
            through[f._length(k)] = total
        norms, total = [], 0j
        for length in range(top + 1):
            total = through.get(length, total)
            norms.append(math.sqrt(max(total.real, 0.0)))
        return norms


class SpaceSpec(DiagonalSpace):
    """Immutable diagonal description of a function space. All operations
    are pure; `weights` computes each weight from its closed form."""

    # perfbench/tracing.py reads len(_weights) when it traces a build: the
    # user's table of a custom space, and empty for the formula kinds
    __slots__ = ("kind", "d", "N", "max_degree", "moments", "_radial", "_weights")
    series = Polynomial

    def __init__(self, kind: str, d: int, N: int = 0, max_degree: int | None = None,
                 moments: MomentSequence | None = None,
                 custom_weights: Mapping[tuple[int, ...], float] | None = None):
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
        _check_size(self.d, self.max_degree, kind == KIND_DIAGONAL_BESOV)
        self.moments = moments
        self._radial = self._radial_factor() if kind == KIND_DIAGONAL_BESOV else None
        self._weights = self._custom_table(custom_weights) if kind == KIND_CUSTOM_DIAGONAL else {}

    def _radial_factor(self) -> tuple[float, ...]:
        """r_0 = m[0] and r_k = k^(2N) m[2k] for k = 1..max_degree, finite."""
        if self.moments is None:
            raise ArgumentError("diagonal Besov spaces require a moment sequence")
        needed = 2 * self.max_degree + 1
        if len(self.moments) < needed:
            raise ArgumentError(f"moment sequence has {len(self.moments)} entries, "
                                f"needs {needed} for max_degree={self.max_degree}")
        radial = [self.moments[0]]
        for k in range(1, self.max_degree + 1):
            try:
                radial.append(float(k) ** (2 * self.N) * self.moments[2 * k])
            except OverflowError:  # k^(2N) past the largest float
                radial.append(math.inf)
            if radial[-1] == math.inf:
                raise ArgumentError(f"derivative order N = {self.N} overflows the weight "
                                    f"factor |alpha|^(2N) m[2|alpha|] at degree {k}")
        return tuple(radial)

    def _custom_table(self, custom) -> dict[tuple[int, ...], float]:
        """The user's weight of every key up to max_degree, in graded order;
        the walk stops at a missing key, so it is no longer than the table."""
        if custom is None:
            raise ArgumentError("custom diagonal spaces require a weight table")
        table = {}
        for key in (key for k in range(self.max_degree + 1) for key in compositions(k, self.d)):
            if key not in custom:
                raise ArgumentError(f"custom weights missing entry for {key}")
            table[key] = float(custom[key])
            if not (table[key] > 0 and math.isfinite(table[key])):
                raise ArgumentError(f"weight for {key} must be positive finite")
        return table

    def weights(self, keys: np.ndarray) -> np.ndarray:
        """c_alpha for each row alpha of an integer array of exponents, bit
        for bit the correctly rounded closed form: alpha!/|alpha|! for
        Drury-Arveson, r_|alpha| times the sphere moment (d-1)! alpha! /
        (d-1+|alpha|)!, the reciprocal multinomial of (d-1, alpha), for the
        moment kinds, the user's table for a custom space. A degree past
        max_degree is a `DegreeRangeError`, a weight that rounds to 0 an
        `ArgumentError` naming its key."""
        degrees = keys.sum(axis=1)
        top = int(degrees.max(initial=0))
        if top > self.max_degree:
            raise DegreeRangeError(f"degree {brief(top)} beyond max_degree={self.max_degree}")
        if self.kind == KIND_CUSTOM_DIAGONAL:
            return np.array([self._weights[k] for k in map(tuple, keys.tolist())])
        if self.kind == KIND_DRURY_ARVESON:
            out = _reciprocal_multinomials(keys)
        else:
            heads = np.full((len(keys), 1), self.d - 1)
            out = (np.array(self._radial[: top + 1])[degrees]
                   * _reciprocal_multinomials(np.concatenate((heads, keys), axis=1)))
        if not out.all():
            raise ArgumentError(f"the weight of z^{brief(tuple(keys[np.argmin(out)].tolist()))}"
                                " rounds to 0")
        return out

    def monomial_norm_sq(self, alpha: Sequence[int]) -> float:
        """c_alpha = ||z^alpha||^2 for |alpha| <= max_degree."""
        key = tuple(int(a) for a in alpha)
        if len(key) != self.d:
            raise DimensionMismatchError(f"alpha has {len(key)} entries, expected {self.d}")
        return self._weigh([key])[0]

    def to_json(self) -> dict:
        out = {
            "kind": self.kind,
            "d": self.d,
            "N": self.N,
            "maxDegree": self.max_degree,
        }
        if self.kind == KIND_DIAGONAL_BESOV:
            out["moments"] = list(self.moments.values)
        elif self.kind == KIND_CUSTOM_DIAGONAL:  # the table is in graded order
            out["weights"] = [{"exponents": list(a), "value": w} for a, w in self._weights.items()]
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
        return (f"SpaceSpec(kind={self.kind!r}, d={self.d}, N={self.N}, "
                f"max_degree={self.max_degree})")


def _moment_space(d: int, max_degree: int | None, N: int, moment) -> SpaceSpec:
    """Diagonal Besov space of derivative order N whose j-th radial moment is
    moment(j), tabulated for j <= 2 * max_degree."""
    md = max_degree if max_degree is not None else default_max_degree(d)
    _check_size(d, md, True)
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
