import math

import numpy as np
import pytest

from cyclicity.errors import ArgumentError, DegreeRangeError, DimensionMismatchError
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
