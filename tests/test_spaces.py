import math
from fractions import Fraction

import numpy as np
import pytest

from cyclicity.errors import ArgumentError, DegreeRangeError, DimensionMismatchError
from cyclicity.indices import subspace_distance
from cyclicity.poly import Polynomial, multi_indices
from cyclicity.spaces import (
    MomentSequence,
    SpaceSpec,
    bergman,
    dirichlet_type,
    drury_arveson,
    hardy,
    preset,
    sphere_moment,
)
from helpers import random_polynomial


def p1d(*coeffs):
    return Polynomial.from_coeffs1d(coeffs)


def monte_carlo_sphere_moment(d, alpha, samples, seed):
    """Quadrature oracle: average of |w^alpha|^2 over uniform sphere points."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((samples, d)) + 1j * rng.standard_normal((samples, d))
    w = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    vals = np.ones(samples)
    for i, a in enumerate(alpha):
        if a:
            vals = vals * np.abs(w[:, i]) ** (2 * a)
    return float(vals.mean())


class TestSphereMoment:
    def test_circle_is_trivial(self):
        for k in (0, 1, 5, 30):
            assert sphere_moment(1, (k,)) == 1.0

    @pytest.mark.parametrize(
        "alpha,expected", [((1, 0), 0.5), ((1, 1), 1.0 / 6.0)]
    )
    def test_d2_values_against_monte_carlo(self, alpha, expected):
        assert sphere_moment(2, alpha) == pytest.approx(expected, abs=1e-15)
        mc = monte_carlo_sphere_moment(2, alpha, 2_000_000, seed=42)
        assert abs(mc - expected) < 2e-3

    def test_permutation_symmetry(self):
        assert sphere_moment(3, (2, 1, 0)) == sphere_moment(3, (0, 2, 1))

    def test_component_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            sphere_moment(2, (1, 0, 0))


class TestMonomialNorms:
    def test_drury_arveson_mixed_term(self):
        assert drury_arveson(2).monomial_norm_sq((1, 1)) == pytest.approx(0.5)

    def test_constant_weight_is_one(self):
        for d in (1, 2, 3):
            assert drury_arveson(d).monomial_norm_sq((0,) * d) == 1.0

    def test_hardy_weights_are_one(self):
        assert hardy(1).monomial_norm_sq((5,)) == pytest.approx(1.0)

    def test_drury_arveson_factorial_identity(self):
        for d in (2, 3, 4):
            spec = drury_arveson(d, max_degree=10)
            for alpha in multi_indices(d, 10):
                expected = math.prod(math.factorial(a) for a in alpha) / math.factorial(
                    sum(alpha)
                )
                assert abs(spec.monomial_norm_sq(alpha) - expected) <= 1e-14

    def test_range_error(self):
        spec = hardy(1, max_degree=4)
        with pytest.raises(DegreeRangeError):
            spec.monomial_norm_sq((5,))


class TestInnerProductAndNorm:
    def test_monomial_orthogonality(self):
        spec = hardy(1)
        assert spec.inner_product(p1d(0, 1), p1d(1)) == 0

    def test_one_minus_z_hardy(self):
        spec = hardy(1)
        f = p1d(1, -1)
        assert spec.inner_product(f, f) == pytest.approx(2.0)
        assert spec.norm(f) == pytest.approx(math.sqrt(2.0))

    def test_drury_arveson_matches_weight(self):
        spec = drury_arveson(2)
        m = Polynomial.monomial((1, 1))
        assert spec.inner_product(m, m) == pytest.approx(0.5)

    def test_zero_norm(self):
        assert hardy(2).norm(Polynomial.zero(2)) == 0.0

    def test_bergman_coordinate(self):
        assert bergman(1).norm(p1d(0, 1)) == pytest.approx(math.sqrt(0.5))

    def test_diagonality_exact(self):
        spec = bergman(2, max_degree=5)
        idx = multi_indices(2, 5)
        for i, a in enumerate(idx):
            for b in idx[i + 1 :]:
                assert (
                    spec.inner_product(Polynomial.monomial(a), Polynomial.monomial(b))
                    == 0
                )

    def test_parallelogram_law(self):
        rng = np.random.default_rng(17)
        for spec in (hardy(1), bergman(1), dirichlet_type(1), drury_arveson(2)):
            for _ in range(10):
                f = random_polynomial(rng, spec.d, 6)
                g = random_polynomial(rng, spec.d, 6)
                lhs = spec.norm(f + g) ** 2 + spec.norm(f - g) ** 2
                rhs = 2 * spec.norm(f) ** 2 + 2 * spec.norm(g) ** 2
                assert abs(lhs - rhs) < 1e-12 * max(1.0, rhs)

    def test_hardy_is_coefficient_l2(self):
        rng = np.random.default_rng(23)
        spec = hardy(1)
        for _ in range(10):
            f = random_polynomial(rng, 1, 12)
            l2 = math.sqrt(sum(abs(c) ** 2 for c in f.coeffs.values()))
            assert abs(spec.norm(f) - l2) <= 1e-14 * max(1.0, l2)

    @pytest.mark.parametrize("spec", [hardy(1), dirichlet_type(1), drury_arveson(2)],
                             ids=["hardy", "dirichlet", "drury-arveson"])
    def test_truncation_norms_are_the_norms_of_truncations(self, spec):
        # bit for bit, since random_polynomial stores its terms in degree order
        f = random_polynomial(np.random.default_rng(31), spec.d, 6, density=0.7)
        assert spec.truncation_norms(f, 8) == [spec.norm(f.truncated(k)) for k in range(9)]

    def test_truncation_norms_check_the_degree_range(self):
        with pytest.raises(DegreeRangeError):
            hardy(1, max_degree=3).truncation_norms(p1d(1, 0, 0, 0, 1), 2)

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(29)
        spec = drury_arveson(2)
        f = random_polynomial(rng, 2, 4)
        g = random_polynomial(rng, 2, 4)
        assert spec.inner_product(f, g) == pytest.approx(
            spec.inner_product(g, f).conjugate()
        )


class TestMoments:
    def test_presets_have_valid_moments(self):
        for build in (hardy, bergman, dirichlet_type):
            spec = build(1)
            vals = spec.moments.values
            assert vals[0] > 0
            assert all(v > 0 for v in vals)
            assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_rejects_increasing_moments(self):
        with pytest.raises(ArgumentError):
            MomentSequence((1.0, 2.0))

    def test_rejects_nonpositive(self):
        with pytest.raises(ArgumentError):
            MomentSequence((1.0, 0.0))

    def test_dirichlet_weights_grow_linearly(self):
        spec = dirichlet_type(1)
        # k^2 * m[2k] = k^2/(k+1), roughly k for large k
        assert spec.monomial_norm_sq((10,)) == pytest.approx(100.0 * 2.0 / 22.0)
        assert spec.monomial_norm_sq((0,)) == pytest.approx(1.0)


class TestSerializationAndPresets:
    def test_round_trip_besov(self):
        spec = bergman(1, max_degree=8)
        clone = SpaceSpec.from_json(spec.to_json())
        f = p1d(1, -0.5, 0.25)
        assert clone.norm(f) == spec.norm(f)

    def test_round_trip_drury_arveson(self):
        spec = drury_arveson(3, max_degree=6)
        clone = SpaceSpec.from_json(spec.to_json())
        assert clone.monomial_norm_sq((1, 2, 0)) == spec.monomial_norm_sq((1, 2, 0))

    def test_custom_diagonal_round_trip(self):
        table = {(0,): 1.0, (1,): 2.0, (2,): 5.0}
        spec = SpaceSpec("custom_diagonal", 1, 0, 2, custom_weights=table)
        clone = SpaceSpec.from_json(spec.to_json())
        assert clone.monomial_norm_sq((2,)) == 5.0

    def test_derivative_order_only_for_moment_spaces(self):
        with pytest.raises(ArgumentError, match="N must be 0"):
            SpaceSpec("drury_arveson", 2, N=3)
        with pytest.raises(ArgumentError, match="N must be 0"):
            SpaceSpec("custom_diagonal", 1, 1, 2, custom_weights={(0,): 1.0, (1,): 2.0, (2,): 5.0})
        with pytest.raises(ArgumentError, match="N must be 0"):
            SpaceSpec.from_json({"kind": "drury_arveson", "d": 1, "N": 1})
        assert SpaceSpec.from_json({"kind": "drury_arveson", "d": 1, "N": 0}).N == 0
        assert SpaceSpec("diagonal_besov", 1, 2, 3, moments=MomentSequence((1.0,) * 7)).N == 2

    def test_preset_by_name(self):
        assert preset("hardy", 2).monomial_norm_sq((1, 0)) == pytest.approx(0.5)
        with pytest.raises(ArgumentError):
            preset("unknown", 1)

    def test_default_degrees(self):
        assert hardy(1).max_degree == 64
        assert hardy(3).max_degree == 20


def closed_form_weight(spec, alpha):
    """The weight of z^alpha from its closed form: Python's exact rational
    alpha!/|alpha|! for Drury-Arveson, and r_k times the exact rational
    (d-1)! alpha!/(d-1+k)! for the moment kinds, each rounded once."""
    k, num = sum(alpha), math.prod(map(math.factorial, alpha))
    if spec.kind == "drury_arveson":
        return float(Fraction(num, math.factorial(k)))
    radial = spec.moments[0] if k == 0 else float(k) ** (2 * spec.N) * spec.moments[2 * k]
    d = spec.d
    return radial * float(Fraction(math.factorial(d - 1) * num, math.factorial(d - 1 + k)))


class TestClosedFormWeights:
    @pytest.mark.parametrize("build, d, top, off", [
        (drury_arveson, 2, 70, 83), (drury_arveson, 3, 45, 309),
        (bergman, 2, 60, None), (bergman, 3, 40, None),
        (dirichlet_type, 2, 60, None), (dirichlet_type, 3, 40, None),
    ])
    def test_every_weight_is_the_rounded_closed_form(self, build, d, top, off):
        spec = build(d, top)
        keys = multi_indices(d, top)
        assert spec.weights(np.array(keys)).tolist() == [closed_form_weight(spec, a) for a in keys]
        if off is not None:
            # the keys whose multinomial passes 2^53, where the float
            # reciprocal is one ulp off and only integers round correctly
            floats = [1 / float(math.factorial(sum(a)) // math.prod(map(math.factorial, a)))
                      for a in keys]
            misses = [a for a, w in zip(keys, floats) if w != closed_form_weight(spec, a)]
            assert len(misses) == off

    def test_drury_arveson_12_holds_no_table(self):
        spec = drury_arveson(12)
        assert spec.max_degree == 20
        assert len(spec._weights) == 0 and spec._radial is None

    def test_drury_arveson_12_meets_arveson_oracle(self):
        # the distance from 1 to the degree-n multiples of 1 - <z, u>, u a
        # unit vector, is 1/sqrt(n + 2) in Drury-Arveson space
        rng = np.random.default_rng(12)
        u = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        u /= np.linalg.norm(u)
        coeffs = {(0,) * 12: 1.0}
        for i, ui in enumerate(u):
            coeffs[tuple(int(j == i) for j in range(12))] = -np.conj(ui)
        f = Polynomial(12, coeffs)
        residual = subspace_distance(drury_arveson(12), Polynomial.one(12), f, 3).residual
        assert residual**2 == pytest.approx(1 / 5, rel=1e-13)

    def test_drury_arveson_8_runs_a_design_of_top_degree_20(self):
        # its 3,108,105 monomials of degree <= 20 are within a design's 2^22;
        # of the 9 columns of f = 1 - z1^19 only f meets 1, and ||f||^2 = 2
        f = Polynomial(8, {(0,) * 8: 1.0, (19,) + (0,) * 7: -1.0})
        result = subspace_distance(drury_arveson(8), Polynomial.one(8), f, 1)
        assert result.residual**2 == pytest.approx(1 / 2, rel=1e-13)

    def test_bergman_8_matches_a_custom_copy(self):
        spec = bergman(8)
        keys = multi_indices(8, 5)
        copy = SpaceSpec("custom_diagonal", 8, max_degree=5,
                         custom_weights=dict(zip(keys, spec.weights(np.array(keys)).tolist())))
        f = random_polynomial(np.random.default_rng(8), 8, 1)
        one = Polynomial.one(8)
        a, b = subspace_distance(spec, one, f, 4), subspace_distance(copy, one, f, 4)
        assert (a.residual, a.phi) == (b.residual, b.phi)
