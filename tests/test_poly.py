import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclicity.errors import (
    ArgumentError,
    DegreeRangeError,
    DimensionMismatchError,
    SingularInversionError,
)
from cyclicity.freespace import FreePolynomial, words
from cyclicity.poly import (
    Polynomial,
    invert_power_series,
    mult_operator_section,
    multi_indices,
)
from cyclicity.spaces import hardy
from helpers import (
    coeff_distance,
    invert_by_key_walk,
    random_free_polynomial,
    random_polynomial,
)


def p1d(*coeffs):
    return Polynomial.from_coeffs1d(coeffs)


class TestMultiIndices:
    def test_graded_lex_order_d2(self):
        idx = multi_indices(2, 2)
        assert idx == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]

    def test_degrees_nondecreasing(self):
        idx = multi_indices(3, 5)
        degs = [sum(a) for a in idx]
        assert degs == sorted(degs)
        assert len(idx) == len(set(idx))


class TestArithmetic:
    def test_difference_of_squares(self):
        assert p1d(1, -1) * p1d(1, 1) == p1d(1, 0, -1)

    def test_multiplicative_identity(self):
        rng = np.random.default_rng(1)
        p = random_polynomial(rng, 2, 4)
        assert p * Polynomial.one(2) == p

    def test_square_of_sum(self):
        z1 = Polynomial.variable(0, 2)
        z2 = Polynomial.variable(1, 2)
        expanded = (z1 + z2) ** 2
        assert expanded == z1 * z1 + 2 * z1 * z2 + z2 * z2

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            p1d(1, 1) * Polynomial.one(2)

    def test_ring_axioms_random(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = random_polynomial(rng, 2, 3)
            q = random_polynomial(rng, 2, 3)
            r = random_polynomial(rng, 2, 3)
            assert coeff_distance((p * q) * r, p * (q * r)) < 1e-12
            assert coeff_distance(p * (q + r), p * q + p * r) < 1e-12

    def test_zero_coefficients_dropped(self):
        p = p1d(1, -1) + p1d(-1, 1)
        assert p.is_zero
        assert p.coeffs == {}


class TestEvaluation:
    def test_root(self):
        assert p1d(1, -1).evaluate([1.0]) == 0

    def test_constant_at_origin(self):
        assert p1d(2, -1).evaluate([0.0]) == 2

    def test_mixed_term_at_imaginary_point(self):
        z1z2 = Polynomial.monomial((1, 1))
        assert z1z2.evaluate([1j, 1j]) == pytest.approx(-1)

    def test_evaluate_respects_products(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            p = random_polynomial(rng, 2, 4)
            q = random_polynomial(rng, 2, 4)
            z = rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)
            z /= max(1.0, np.max(np.abs(z)))  # closed unit polydisk
            lhs = (p * q).evaluate(z)
            rhs = p.evaluate(z) * q.evaluate(z)
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))

    def test_grid_matches_pointwise(self):
        rng = np.random.default_rng(3)
        p = random_polynomial(rng, 2, 3)
        pts = rng.standard_normal((5, 4, 2)) + 1j * rng.standard_normal((5, 4, 2))
        grid = p.evaluate_grid(pts)
        assert grid.shape == (5, 4)
        assert grid[2, 1] == pytest.approx(p.evaluate(pts[2, 1]))


class TestRadialDerivative:
    def test_degree_two_eigenvector(self):
        z1z2 = Polynomial.monomial((1, 1))
        assert z1z2.radial_derivative() == 2 * z1z2

    def test_kills_constants(self):
        assert Polynomial.one(3).radial_derivative().is_zero

    def test_second_order(self):
        z3 = p1d(0, 0, 0, 1)
        assert z3.radial_derivative(2) == 9 * z3


class TestSeriesInversion:
    def test_identity(self):
        assert invert_power_series(Polynomial.one(1), 5) == Polynomial.one(1)

    def test_geometric_series(self):
        q = invert_power_series(p1d(2, -1), 3)
        assert q == p1d(0.5, 0.25, 0.125, 0.0625)

    def test_vanishing_constant_term(self):
        with pytest.raises(SingularInversionError):
            invert_power_series(p1d(0, 1), 3)

    def test_truncated_product_vanishes_exactly_for_dyadic_input(self):
        # dyadic coefficients make 1/p0 and the recursion exact in binary
        p = p1d(2, -1, 0.5)
        q = invert_power_series(p, 8)
        defect = p * q - Polynomial.one(1)
        assert all(sum(a) > 8 for a in defect.coeffs)

    def test_truncated_product_vanishes_to_roundoff(self):
        rng = np.random.default_rng(5)
        for d in (1, 2):
            p = random_polynomial(rng, d, 3) + 2.0  # keep p(0) well away from 0
            q = invert_power_series(p, 6)
            defect = p * q - Polynomial.one(d)
            low = [c for a, c in defect.coeffs.items() if sum(a) <= 6]
            assert max((abs(c) for c in low), default=0.0) < 1e-13


class TestMultOperatorSection:
    def test_identity_symbol(self):
        spec = hardy(1)
        section = mult_operator_section(spec, Polynomial.one(1), 5)
        assert np.allclose(section, np.eye(6))
        assert np.linalg.svd(section, compute_uv=False)[0] == pytest.approx(1.0)

    def test_shift_is_subdiagonal_isometry(self):
        spec = hardy(1)
        section = mult_operator_section(spec, p1d(0, 1), 10)
        expected = np.zeros((12, 11))
        for k in range(11):
            expected[k + 1, k] = 1.0
        # z z^beta never reaches the row of 1, so the section leaves it out
        assert not expected[0].any()
        assert np.allclose(section, expected[1:])
        assert np.linalg.svd(section, compute_uv=False)[0] == pytest.approx(1.0)

    def test_sup_norm_symbol_approached_from_below(self):
        # sup of |2 - z| on the circle is 3; sections converge from below
        spec = hardy(1)
        section = mult_operator_section(spec, p1d(2, -1), 40)
        top = np.linalg.svd(section, compute_uv=False)[0]
        assert 2.9 <= top <= 3.0

    def test_top_singular_value_monotone_in_n_in(self):
        spec = hardy(1)
        phi = p1d(1, 0.5, -0.25)
        values = []
        for n_in in range(2, 20, 3):
            section = mult_operator_section(spec, phi, n_in)
            values.append(np.linalg.svd(section, compute_uv=False)[0])
        for lo, hi in zip(values, values[1:]):
            assert hi >= lo - 1e-10

    def test_range_validation(self):
        spec = hardy(1, max_degree=10)
        # n_in + deg(phi) = 10 fits the weight table; 11 does not
        assert mult_operator_section(spec, p1d(2, -1), 9).shape == (11, 10)
        with pytest.raises(DegreeRangeError):
            mult_operator_section(spec, p1d(2, -1), 10)
        with pytest.raises(ArgumentError):
            mult_operator_section(spec, p1d(2, -1), -1)


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(9)
        p = random_polynomial(rng, 3, 4, density=0.4)
        assert Polynomial.from_json(p.to_json(), 3) == p

    def test_zero_needs_dimension(self):
        assert Polynomial.from_json([], 2).is_zero

    def test_repeated_term_rejected(self):
        # 1 - z - z would otherwise be read as 1 - z
        terms = [
            {"exponents": [0], "re": 1},
            {"exponents": [1], "re": -1},
            {"exponents": [1], "re": -1},
        ]
        with pytest.raises(ArgumentError, match="repeated"):
            Polynomial.from_json(terms)

    def test_terms_must_be_a_list(self):
        with pytest.raises(ArgumentError):
            Polynomial.from_json({"exponents": [1], "re": 1.0}, 1)


def _bits(series):
    """Keys in stored order, with the value and the sign bit of each part."""
    return [(k, c, np.signbit(c.real), np.signbit(c.imag)) for k, c in series.coeffs.items()]


class TestSharedSeriesAlgebra:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), free=st.booleans(), d=st.integers(1, 3), dyadic=st.booleans())
    def test_inversion_matches_the_key_walk_bit_for_bit(self, data, free, d, dyadic):
        # dyadic coefficients cancel exactly, so some sums vanish or end in
        # signed zeros; the walk over every key of each degree is the reference
        part = (st.integers(-8, 8).map(lambda k: k / 4) if dyadic
                else st.floats(-4, 4, allow_subnormal=False))
        cls, keys = (FreePolynomial, words(d, 2)) if free else (Polynomial, multi_indices(d, 3))
        terms = data.draw(st.dictionaries(st.sampled_from(keys[1:]), st.tuples(part, part),
                                          max_size=6))
        c0 = complex(data.draw(st.sampled_from([1, -1, 2, -0.5, 4])), data.draw(part))
        p = cls(d, {keys[0]: c0, **{k: complex(*c) for k, c in terms.items()}})
        length = data.draw(st.integers(0, {1: 10, 2: 8, 3: 6}[d] if free else 10))
        q, reference = invert_power_series(p, length), invert_by_key_walk(p, length)
        assert type(q) is cls and q.d == d
        assert _bits(q) == _bits(reference)

    @pytest.mark.parametrize(
        "random_series, d",
        [
            (random_polynomial, 1),
            (random_polynomial, 2),
            (random_free_polynomial, 2),
            (random_free_polynomial, 3),
        ],
    )
    def test_inverse_truncations_are_shorter_inverses(self, random_series, d):
        rng = np.random.default_rng(41 + d)
        l_max = 5
        p = random_series(rng, d, 2, density=0.7) + 3.0  # keep p(0) away from 0
        q = invert_power_series(p, l_max)
        for length in range(l_max + 1):
            shorter = invert_power_series(p, length)
            truncated = q.truncated(length)
            assert truncated == shorter
            assert list(truncated.coeffs) == list(shorter.coeffs)

    @pytest.mark.parametrize("free", [False, True])
    def test_from_solution_matches_validating_constructor(self, free):
        from cyclicity.freespace import FreePolynomial, words

        cls, keys = (FreePolynomial, words(2, 3)) if free else (Polynomial, multi_indices(2, 3))
        rng = np.random.default_rng(7)
        values = rng.standard_normal(len(keys)) + 1j * rng.standard_normal(len(keys))
        # exact zeros are dropped; parts of -0.0 come out as +0.0
        values[[1, 4, 9]] = [0j, complex(-0.0, -0.0), complex(0.0, -0.0)]
        values[[2, 5]] = [complex(-0.0, 1.5), complex(-2.5, -0.0)]
        trusted = cls.from_solution(2, keys, values)
        checked = cls(2, dict(zip(keys, values)))
        assert type(trusted) is cls and trusted.d == checked.d
        assert list(trusted.coeffs.items()) == list(checked.coeffs.items())
        signs = [(np.signbit(c.real), np.signbit(c.imag)) for c in checked.coeffs.values()]
        assert [(np.signbit(c.real), np.signbit(c.imag))
                for c in trusted.coeffs.values()] == signs
        assert all(type(c) is complex for c in trusted.coeffs.values())
