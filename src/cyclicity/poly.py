"""Sparse series algebra, and commutative polynomials over multi-indices.

The series algebra of `SparseSeries` (sums, products, JSON term arrays) and
the truncated inverse `invert_power_series` serve both commutative
polynomials and free (word-indexed) series.

Exponent tuples ("multi-indices") index monomials z^alpha. The canonical
basis order used by every matrix-producing routine in this package is
graded lexicographic: total degree first, ties broken by plain tuple
comparison. Coefficients are double-precision complex; exact zeros are
never stored. `JsonRecord` is the JSON encoding every result shares.
"""

from __future__ import annotations

import cmath
import dataclasses
import inspect
import math
import operator
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

import numpy as np

from .errors import ArgumentError, DegreeRangeError, DimensionMismatchError, SingularInversionError
from .solver import dense_route

if TYPE_CHECKING:
    from .spaces import SpaceSpec

# the most keys up to its top degree that a design counts (`shifted_columns`),
# and the most radial moments, or exponents of the monomials of degree <= 1,
# that a space has
MAX_KEYS = 1 << 22


def compositions(total: int, d: int) -> Iterator[tuple[int, ...]]:
    """Exponent tuples of length d summing to total, lexicographically ascending:
    each takes the last nonzero entry a_k of the one before, adds 1 at k - 1
    and puts a_k - 1 last, in one list, so no recursion grows with d."""
    parts = [0] * (d - 1) + [total]
    while True:
        yield tuple(parts)
        k = d - 1
        while k and not parts[k]:
            k -= 1
        if not k:
            return
        parts[k], parts[-1] = 0, parts[k] - 1
        parts[k - 1] += 1


def multi_indices(d: int, max_degree: int) -> list[tuple[int, ...]]:
    """All multi-indices with |alpha| <= max_degree, in graded-lex order."""
    if d < 1:
        raise ArgumentError("d must be >= 1")
    if max_degree < 0:
        raise ArgumentError("max_degree must be >= 0")
    out: list[tuple[int, ...]] = []
    for k in range(max_degree + 1):
        out.extend(compositions(k, d))
    return out


def graded_rank(alphas) -> np.ndarray:
    """Positions of multi-indices (along the last axis) in `multi_indices` order.

    The C(k-1+d, d) indices of degree below k come first. Within degree k a
    head a_i leaves C(r+m-1, m-1) compositions of the remainder r into the
    m = d-1-i later parts, and the hockey-stick identity sums those over
    heads below a_i; a head of 0 adds nothing, so only the variables that
    some index uses are visited, each with one column of binomials.
    """
    alphas = np.asarray(alphas, dtype=np.int64)
    d = alphas.shape[-1]
    rest = alphas.sum(axis=-1)
    degrees = range(int(rest.max(initial=0)) + 1)
    rank = np.array([math.comb(r + d - 1, d) for r in degrees])[rest]
    for i in np.flatnonzero(alphas.reshape(-1, d)[:, :-1].any(axis=0)).tolist():
        m = d - 1 - i
        binom = np.array([math.comb(r + m, m) for r in degrees])
        rank = rank + binom[rest] - binom[rest - alphas[..., i]]
        rest = rest - alphas[..., i]
    return rank


def shifted_columns(g: SparseSeries, f: SparseSeries, n: int, scale, dense=False, solves=1):
    """Design whose column u holds the coefficients of u f, for the basis keys
    u of degree <= n (z^gamma, or words Z^w), with the dense target g, the
    column keys and the keys of the kept rows. Only the products that a
    column or g reaches are kept, in f's canonical order (`f._shifted_ranks`),
    each row scaled by scale(keys) of its key; the others are zero in both
    and change no solution. Before anything is formed, more than MAX_KEYS
    keys up to degree max(n + deg f, deg g) are refused (`f._key_count`). The
    storage is the route of `solver.solve_nested`: a column-major ndarray
    when `dense` is set or `solver.dense_route` picks it for `solves` nested
    solves, a CSC matrix otherwise."""
    count, named = f._key_count(max(n + f.degree, g.degree))
    if count > MAX_KEYS:
        raise DegreeRangeError(f"{named} number more than {MAX_KEYS}")
    cols, rows, keys = f._shifted_ranks(n, list(f.coeffs))
    _, target_rows, target_keys = f._shifted_ranks(0, list(g.coeffs))
    ncols, nterms = rows.shape
    ranks = np.concatenate((rows.ravel(), target_rows.ravel()))
    _, first, renumber = np.unique(ranks, return_index=True, return_inverse=True)
    keys = np.concatenate((keys, target_keys), axis=None).reshape(len(ranks), keys.shape[-1])
    keys = keys[first]
    rows, target_rows = renumber[: rows.size].reshape(rows.shape), renumber[rows.size:]
    row_scale = scale(keys)
    values = np.asarray(list(f.coeffs.values()), dtype=complex) * row_scale[rows]
    if dense or dense_route(ncols, solves):
        design = np.zeros((len(keys), ncols), dtype=complex, order="F")
        design[rows, np.arange(ncols)[:, None]] = values
    else:
        # loaded on first use: scipy.sparse adds about 0.15 s to a fresh process
        import scipy.sparse

        design = scipy.sparse.csc_matrix(
            (values.ravel(), rows.ravel(), np.arange(0, ncols * nterms + 1, nterms)),
            shape=(len(keys), ncols),
        )
    target = np.zeros(len(keys), dtype=complex)
    target[target_rows] = (np.asarray(list(g.coeffs.values()), dtype=complex)
                           * row_scale[target_rows])
    return design, target, cols, keys


class TermArray(list):
    """The term array of `SparseSeries.to_json`: {"exponents" | "letters":
    [int, ...], "re": float, "im": float} objects, JSON-safe as built."""

    def layout(self, pad: str) -> str:
        """The text `json.dumps(self, sort_keys=True, indent=2)` writes for this
        array at indentation pad; floats by `repr`, as json writes them."""
        if not self:
            return "[]"
        p2, p4, p6 = pad + "  ", pad + "    ", pad + "      "
        sep = ",\n" + p6

        def word(key):
            return f"[\n{p6}{sep.join(map(repr, key))}\n{p4}]" if key else "[]"

        if "exponents" in self[0]:  # keys in sorted order: exponents < im < letters < re
            entries = [f'{p2}{{\n{p4}"exponents": {word(t["exponents"])},\n{p4}"im": '
                       f'{t["im"]!r},\n{p4}"re": {t["re"]!r}\n{p2}}}' for t in self]
        else:
            entries = [f'{p2}{{\n{p4}"im": {t["im"]!r},\n{p4}"letters": '
                       f'{word(t["letters"])},\n{p4}"re": {t["re"]!r}\n{p2}}}' for t in self]
        return "[\n" + ",\n".join(entries) + f"\n{pad}]"


class SparseSeries:
    """Sparse map from basis keys to nonzero, finite complex coefficients.

    Shared by commutative polynomials (multi-index keys) and free ones (word
    keys). A subclass normalizes and validates keys in `_key`, measures a
    key's degree in `_length`, names the constant term's key in `_unit`,
    prints a key in `_label` and names its JSON field in `_json_field`. The
    product and the inversion use `_concat(a, b)`, the key of the product of
    the basis elements a and b. `_key_array(keys, d)` forms keys as a
    space's `weights` reads them, one a row: exponents, or word lengths. The
    designs use `_shifted_ranks(n, keys)`: the keys u of degree <= n in
    canonical order, the canonical rank of u*k for each k in keys, and
    those products as `_key_array` forms them (last axis); `_key_count(top)`
    counts and names the keys of degree <= top. Keys sort by degree, then
    as tuples.
    """

    __slots__ = ("d", "coeffs")
    _json_field = ""

    def __init__(self, d: int, coeffs: Mapping[tuple[int, ...], complex] | None = None):
        if d < 1:
            raise ArgumentError("d must be >= 1")
        self.d = int(d)
        cleaned: dict[tuple[int, ...], complex] = {}
        for raw, value in (coeffs or {}).items():
            key = self._key(raw)
            c = complex(value)
            if not cmath.isfinite(c):
                raise ArgumentError(f"coefficient of {key} is not finite")
            if c != 0:
                cleaned[key] = cleaned.get(key, 0j) + c
        self.coeffs = {k: v for k, v in cleaned.items() if v != 0}

    @classmethod
    def zero(cls, d: int):
        return cls(d, {})

    @classmethod
    def from_solution(cls, d: int, keys: Sequence, values: np.ndarray):
        """Series with coefficient values[i] at keys[i], as the constructor
        builds it (same order, zeros dropped, -0.0 parts made +0.0), minus its
        checks: the keys must be distinct and normalized, as the solvers
        generate them, and the values finite, as the solver guarantees."""
        series = cls.__new__(cls)
        series.d = int(d)
        # 0j + c is the constructor's running sum, which turns -0.0 into +0.0
        series.coeffs = {k: c for k, c in zip(keys, (np.asarray(values) + 0j).tolist()) if c}
        return series

    @property
    def degree(self) -> int:
        """Largest total degree, or word length, carrying a coefficient."""
        return max((self._length(k) for k in self.coeffs), default=0)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def constant_term(self) -> complex:
        return self.coeffs.get(self._unit(), 0j)

    def coefficient(self, key: Sequence[int]) -> complex:
        return self.coeffs.get(tuple(key), 0j)

    def _coerce(self, other):
        if isinstance(other, type(self)):
            return other
        return type(self)(self.d, {self._unit(): complex(other)})

    def _sorted_keys(self) -> list[tuple[int, ...]]:
        return sorted(self.coeffs, key=lambda k: (self._length(k), k))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.d == other.d and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.d, frozenset(self.coeffs.items())))

    def __add__(self, other):
        other = self._coerce(other)
        merged = dict(self.coeffs)
        for k, c in other.coeffs.items():
            merged[k] = merged.get(k, 0j) + c
        return type(self)(self.d, merged)

    def __radd__(self, other: complex):
        return self + other

    def __neg__(self):
        return type(self)(self.d, {k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other: complex):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, type(self)):
            return type(self)(self.d, {k: c * other for k, c in self.coeffs.items()})
        if other.d != self.d:
            raise DimensionMismatchError(
                f"cannot multiply series with d={self.d} and d={other.d}"
            )
        concat = self._concat
        prod: dict[tuple[int, ...], complex] = {}
        for a, ca in self.coeffs.items():
            for b, cb in other.coeffs.items():
                key = concat(a, b)
                prod[key] = prod.get(key, 0j) + ca * cb
        return type(self)(self.d, prod)

    def __rmul__(self, other: complex):
        # scalars only: a series on the left goes through its own __mul__,
        # which keeps free products in their order
        return self * other

    def truncated(self, length: int):
        """The terms of degree <= length, in their stored order; built as
        `from_solution` builds a series, since they are already normalized."""
        series = type(self).__new__(type(self))
        series.d = self.d
        series.coeffs = {k: c for k, c in self.coeffs.items() if self._length(k) <= length}
        return series

    @classmethod
    def _read_term(cls, term) -> tuple[tuple[int, ...], complex]:
        """The key and coefficient of one JSON term, read by `bind`'s rules:
        the key an array of JSON integers, re and im numbers, 0 by default."""
        field = cls._json_field
        read_keys(term, (field, "re", "im"), "term")
        if field not in term:
            raise ArgumentError(f"term is missing required key {field!r}")
        key = json_value(term[field], "list[int]", f"term key {field!r}")
        re, im = (json_value(term.get(k, 0.0), "float", f"term key {k!r}") for k in ("re", "im"))
        return key, complex(re, im)

    @classmethod
    def from_json(cls, terms: list[Mapping], d: int):
        """Series from a JSON term array; each key may appear in one term only."""
        if not isinstance(terms, list):
            raise ArgumentError(
                f"terms must be a JSON array of {{{cls._json_field}, re, im}}"
            )
        coeffs = {}
        for t in terms:
            key, c = cls._read_term(t)
            if key in coeffs:
                raise ArgumentError(f"repeated term: {cls._json_field} {list(key)}")
            coeffs[key] = c
        return cls(d, coeffs)

    def to_json(self) -> TermArray:
        """The JSON term array, in key order."""
        field, coeffs = self._json_field, self.coeffs
        return TermArray({field: list(k), "re": coeffs[k].real, "im": coeffs[k].imag}
                         for k in self._sorted_keys())

    def __repr__(self) -> str:
        name = type(self).__name__
        if self.is_zero:
            return f"{name}(d={self.d}, 0)"
        keys = self._sorted_keys()
        parts = [f"{self.coeffs[k]:.4g}*{self._label(k)}" for k in keys[:6]]
        tail = " + ..." if len(keys) > 6 else ""
        return f"{name}(d={self.d}, {' + '.join(parts)}{tail})"


class Polynomial(SparseSeries):
    """Polynomial in d complex variables with sparse coefficient storage.

    Instances are treated as immutable: arithmetic returns new objects.
    """

    __slots__ = ()
    _json_field = "exponents"

    def _key(self, alpha) -> tuple[int, ...]:
        key = tuple(int(a) for a in alpha)
        if len(key) != self.d:
            raise DimensionMismatchError(
                f"exponent tuple {key} does not have {self.d} entries"
            )
        if any(a < 0 for a in key):
            raise ArgumentError(f"negative exponent in {key}")
        return key

    _length = staticmethod(sum)

    def _unit(self) -> tuple[int, ...]:
        return (0,) * self.d

    @staticmethod
    def _concat(alpha, beta) -> tuple[int, ...]:
        return tuple(map(operator.add, alpha, beta))

    @staticmethod
    def _key_array(keys: list, d: int) -> np.ndarray:
        return np.array(keys, dtype=np.int64).reshape(-1, d)

    def _shifted_ranks(self, n: int, keys: list) -> tuple[list, np.ndarray, np.ndarray]:
        cols = multi_indices(self.d, n)
        products = self._key_array(cols, self.d)[:, None, :] + self._key_array(keys, self.d)
        return cols, graded_rank(products), products

    def _key_count(self, top: int) -> tuple[int, str]:
        # C(top + d, k) grows with k up to min(top, d) and passes 2^22 at
        # k = 13, so the cap keeps comb() fast and the test exact
        count = math.comb(top + self.d, min(self.d, top, 13))
        return count, f"monomials of degree <= {brief(top)} in {self.d} variables"

    @staticmethod
    def _label(alpha) -> str:
        return f"z^{alpha}"

    @classmethod
    def one(cls, d: int) -> "Polynomial":
        return cls(d, {(0,) * d: 1.0})

    @classmethod
    def monomial(cls, alpha: Sequence[int], coefficient: complex = 1.0) -> "Polynomial":
        alpha = tuple(alpha)
        return cls(len(alpha), {alpha: coefficient})

    @classmethod
    def variable(cls, j: int, d: int) -> "Polynomial":
        """The coordinate function z_{j+1} (0-based j)."""
        if not 0 <= j < d:
            raise ArgumentError(f"variable index {j} out of range for d={d}")
        e = [0] * d
        e[j] = 1
        return cls(d, {tuple(e): 1.0})

    @classmethod
    def from_coeffs1d(cls, coefficients: Sequence[complex]) -> "Polynomial":
        """Univariate polynomial from an ascending coefficient list."""
        return cls(1, {(k,): c for k, c in enumerate(coefficients)})

    def __truediv__(self, scalar: complex) -> "Polynomial":
        return self * (1.0 / scalar)

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ArgumentError("polynomial powers must be nonnegative integers")
        result = Polynomial.one(self.d)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def evaluate(self, z: Sequence[complex]) -> complex:
        """Value at a single point z in C^d."""
        if len(z) != self.d:
            raise DimensionMismatchError(f"point has {len(z)} entries, expected {self.d}")
        total = 0j
        for alpha, c in self.coeffs.items():
            term = c
            for zi, ai in zip(z, alpha):
                if ai:
                    term *= zi**ai
            total += term
        return total

    def __call__(self, z: Sequence[complex]) -> complex:
        return self.evaluate(z)

    def evaluate_grid(self, points: np.ndarray) -> np.ndarray:
        """Vectorized evaluation; points has shape (..., d)."""
        pts = np.asarray(points, dtype=complex)
        if pts.shape[-1] != self.d:
            raise DimensionMismatchError(
                f"grid has last axis {pts.shape[-1]}, expected {self.d}"
            )
        out = np.zeros(pts.shape[:-1], dtype=complex)
        for alpha, c in self.coeffs.items():
            term = np.full(pts.shape[:-1], c, dtype=complex)
            for i, ai in enumerate(alpha):
                if ai:
                    term = term * pts[..., i] ** ai
            out += term
        return out

    def radial_derivative(self, order: int = 1) -> "Polynomial":
        """Apply (sum_j z_j d/dz_j)^order; scales each term by |alpha|^order."""
        if order < 0:
            raise ArgumentError("derivative order must be >= 0")
        if order == 0:
            return self
        try:
            scaled = {a: c * (sum(a) ** order) for a, c in self.coeffs.items()}
        except OverflowError:  # an integer |alpha|^N past the largest float
            raise ArgumentError(f"derivative order N = {order} overflows the factor "
                                f"|alpha|^N at degree {self.degree}") from None
        return Polynomial(self.d, scaled)

    def partial_derivative(self, j: int) -> "Polynomial":
        """d/dz_{j+1} (0-based j)."""
        if not 0 <= j < self.d:
            raise ArgumentError(f"variable index {j} out of range for d={self.d}")
        out: dict[tuple[int, ...], complex] = {}
        for alpha, c in self.coeffs.items():
            if alpha[j] == 0:
                continue
            key = tuple(a - (1 if i == j else 0) for i, a in enumerate(alpha))
            out[key] = out.get(key, 0j) + c * alpha[j]
        return Polynomial(self.d, out)

    @classmethod
    def from_json(cls, terms: list[Mapping], d: int | None = None) -> "Polynomial":
        """`SparseSeries.from_json`; d defaults to the first term's length."""
        if d is None and isinstance(terms, list):
            if not terms:
                raise ArgumentError("zero polynomial needs an explicit dimension d")
            d = len(cls._read_term(terms[0])[0])
        return super().from_json(terms, d)


def invert_power_series(p: SparseSeries, length: int) -> SparseSeries:
    """Truncated multiplicative inverse of p, a `Polynomial` or a `FreePolynomial`.

    The result q has degree <= length and p*q - 1 carries no term of degree
    <= length. Degree by degree, q[key] = -q[unit] * sum of p[u] q[v] over
    terms u != unit of p and terms v of q with u*v = key, in the order of
    p's terms; the keys of a degree go in sorted as tuples, their canonical
    order. Only products of terms are formed, so the cost follows the terms
    of p and q, not the number of keys of each degree. Degree k uses only
    terms of degree <= k, so truncating the inverse at length L to degree k
    gives the inverse at length k. Requires p(0) != 0.
    """
    if length < 0:
        raise ArgumentError("truncation length must be >= 0")
    c0 = p.constant_term
    if c0 == 0:
        raise SingularInversionError("cannot invert a series with vanishing constant term")
    inv0 = 1.0 / c0
    levels = [{p._unit(): inv0}]  # the terms of q by degree
    lower = [(u, p._length(u), c) for u, c in p.coeffs.items() if 0 < p._length(u) <= length]
    concat = p._concat
    for k in range(1, length + 1):
        acc: dict[tuple[int, ...], complex] = {}
        for u, m, pu in lower:
            if m <= k:
                for v, qv in levels[k - m].items():
                    key = concat(u, v)
                    acc[key] = acc.get(key, 0j) + pu * qv
        levels.append({key: -inv0 * acc[key] for key in sorted(acc) if acc[key] != 0})
    return type(p)(p.d, {key: c for level in levels for key, c in level.items()})


def mult_operator_section(spec: "SpaceSpec", phi: Polynomial, n_in: int) -> np.ndarray:
    """Finite section of multiplication by phi in the orthonormalized monomial basis.

    Columns run over |beta| <= n_in and rows over the z^alpha that some
    phi z^beta reaches, both in graded-lex order; the entry at (alpha, beta)
    is <phi z^beta, z^alpha> / (||z^alpha|| ||z^beta||). The rows hold every
    coefficient of each phi z^beta, so the section represents multiplication
    exactly on its column space, its top singular value is a certified lower
    bound for the multiplier norm of phi and is nondecreasing in n_in. It is
    the shifted design of phi in the space norm with each column divided by
    its norm.
    """
    spec.check_algebra(phi)
    if n_in < 0:
        raise ArgumentError("n_in must be >= 0")
    design, _, cols, _ = shifted_columns(Polynomial.zero(spec.d), phi, n_in,
                                         lambda keys: np.sqrt(spec.weights(keys)), dense=True)
    return design / np.sqrt(spec.weights(Polynomial._key_array(cols, spec.d)))


def jsonsafe(value):
    """Recursively coerce to JSON-serializable values; non-finite floats to None."""
    kind = type(value)  # exact types of the common leaves first, for speed
    if kind in (str, int, bool, type(None)):
        return value
    if kind is float:
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {str(k): jsonsafe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonsafe(v) for v in value]
    if isinstance(value, np.ndarray):
        return [jsonsafe(v) for v in value.tolist()]
    if isinstance(value, (np.floating, float)):
        v = float(value)
        return v if math.isfinite(v) else None
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, complex):
        return jsonsafe({"re": value.real, "im": value.imag})
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


def camel(name: str) -> str:
    """The JSON key of a Python name: kkt_gap -> kktGap."""
    head, *rest = name.split("_")
    return head + "".join(w.capitalize() for w in rest)


def read_keys(obj, allowed, what: str) -> Mapping:
    """obj, once it is known to be a JSON object whose keys all lie in allowed."""
    if not isinstance(obj, Mapping):
        raise ArgumentError(f"{what} must be an object")
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ArgumentError(f"unknown {what} key(s) {brief(unknown)}; allowed: {sorted(allowed)}")
    return obj


_JSON_TYPES = {"int": (int,), "float": (int, float), "bool": (bool,), "str": (str,),
               "dict": (dict,)}
SHOWN_CHARS = 40  # a message echoes at most this much of an input value


def brief(value) -> str:
    """repr(value), cut to SHOWN_CHARS characters for an error message."""
    text = repr(value)
    return text if len(text) <= SHOWN_CHARS else text[: SHOWN_CHARS - 3] + "..."


def json_value(value, kind: str, what: str):
    """value, once it is of the JSON type kind names: "int" a JSON integer,
    "float" an integer or float that a finite float holds (returned as that
    float), "bool" true or false, "str" a string, "dict" an object, and
    "list[k]" an array whose entries are of kind k (returned as a tuple, so
    "list[list[float]]" nests). A bool is never a number. A refused entry
    is named by its index: `what[3][1]`."""
    if kind.startswith("list["):
        if type(value) in (list, tuple):
            return tuple(json_value(v, kind[5:-1], f"{what}[{i}]") for i, v in enumerate(value))
    elif type(value) in _JSON_TYPES[kind]:
        if kind != "float":
            return value
        try:
            if math.isfinite(number := float(value)):
                return number
        except OverflowError:
            pass
        raise ArgumentError(f"{what} must be a finite float, not {brief(value)}")
    raise ArgumentError(f"{what} must be {kind}, not {brief(value)}")


def bind(fn, obj, what: str = "config"):
    """fn called with the keys of the JSON object obj as its arguments.

    A key is the `camel` name of a parameter (n_max <- nMax); a parameter
    without a default is required, and null is admitted only under `| None`.
    An annotation that `json_value` knows (int, float, bool, str, dict or
    list[...]) admits that JSON type only, read as `json_value` reads it.
    Any other key is an error.
    """
    params = {camel(name): p for name, p in inspect.signature(fn).parameters.items()}
    kwargs = {}
    for key, value in read_keys(obj, params, what).items():
        annotation = str(params[key].annotation)  # a string, under postponed evaluation
        kind = annotation.removesuffix(" | None")
        if value is None and kind == annotation:
            raise ArgumentError(f"{what} key {key!r} may not be null")
        if value is not None and (kind in _JSON_TYPES or kind.startswith("list[")):
            value = json_value(value, kind, f"{what} key {key!r}")
        kwargs[params[key].name] = value
    missing = [k for k, p in params.items() if p.default is p.empty and p.name not in kwargs]
    if missing:
        raise ArgumentError(f"{what} is missing required key(s) {missing}")
    return fn(**kwargs)


def choose(key: str, table: dict, default: str | None = None, what: str = "config"):
    """A function that binds a JSON object, less `key`, to table[obj[key]]:
    each mode or kind is a function, and its signature is its schema."""

    def run(obj):
        choice = obj.get(key, default) if isinstance(obj, dict) else None
        if type(choice) is not str or choice not in table:
            raise ArgumentError(f"{what} must be an object with a {key} in {sorted(table)}")
        return bind(table[choice], {k: v for k, v in obj.items() if k != key}, what)

    return run


class JsonRecord:
    """Dataclass mixin: `to_json` maps each field, in order, to its `camel`
    key. A value with its own `to_json` is replaced by that method's output,
    which is JSON-safe by contract and is not walked again; every other value
    goes through `jsonsafe`."""

    def to_json(self) -> dict:
        out = {}
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            out[camel(f.name)] = v.to_json() if hasattr(v, "to_json") else jsonsafe(v)
        return out
