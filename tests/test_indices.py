import math

import numpy as np
import pytest

from cyclicity.errors import ArgumentError, DegenerateInputError, DegreeRangeError
from cyclicity.indices import (
    VERDICT_CYCLIC,
    VERDICT_PLATEAU,
    check_perturbation_bound,
    check_weight_stability,
    index_sweep,
    inverse_truncation_multiplier_norms,
    multiplier_norm_lower,
    perturb_weights,
    power_membership_residual,
    realized_weight_deviation,
    subspace_distance,
)
from cyclicity.poly import Polynomial
from cyclicity.spaces import bergman, dirichlet_type, drury_arveson, hardy
from helpers import brute_force_residual, random_polynomial


def p1d(*coeffs):
    return Polynomial.from_coeffs1d(coeffs)


ONE = Polynomial.one(1)


class TestSubspaceDistance:
    def test_orthogonal_target(self):
        # 1 is orthogonal to every multiple of z
        spec = hardy(1)
        for n in (0, 3, 10):
            res = subspace_distance(spec, ONE, p1d(0, 1), n)
            assert res.residual == pytest.approx(1.0, abs=1e-14)

    def test_degree_zero_hand_minimization(self):
        # min over c of |1-c|^2 + |c|^2 is 1/2 at c = 1/2
        res = subspace_distance(hardy(1), ONE, p1d(1, -1), 0)
        assert res.residual == pytest.approx(math.sqrt(0.5), abs=1e-12)
        assert res.phi.coefficient((0,)) == pytest.approx(0.5)

    def test_degree_five_closed_form(self):
        res = subspace_distance(hardy(1), ONE, p1d(1, -1), 5)
        assert res.residual == pytest.approx(math.sqrt(1.0 / 7.0), abs=1e-12)

    def test_invertible_f_gives_zero(self):
        res = subspace_distance(drury_arveson(2), Polynomial.one(2), Polynomial.one(2), 0)
        assert res.residual == pytest.approx(0.0, abs=1e-14)

    def test_zero_f_rejected(self):
        with pytest.raises(DegenerateInputError):
            subspace_distance(hardy(1), ONE, Polynomial.zero(1), 2)

    def test_budget_validation(self):
        spec = hardy(1, max_degree=6)
        with pytest.raises(DegreeRangeError):
            subspace_distance(spec, ONE, p1d(1, -1), 6)

    def test_brute_force_oracle_agreement(self):
        # independent oracle: grid search plus one exact Newton step on the
        # real coefficient space, objective evaluated by polynomial algebra
        rng = np.random.default_rng(31)
        cases = []
        for spec in (hardy(1), bergman(1), dirichlet_type(1)):
            for n in (0, 1, 2, 3):
                f = random_polynomial(rng, 1, 2, real=True)
                g = random_polynomial(rng, 1, 1, real=True)
                cases.append((spec, g, f, n))
        for spec, g, f, n in cases:
            got = subspace_distance(spec, g, f, n).residual
            want = brute_force_residual(spec, g, f, n)
            assert abs(got - want) < 1e-10 * max(1.0, want)

    def test_normal_equations_identity(self):
        # residual^2 = ||g||^2 - Re<g, phi f> at the optimum
        rng = np.random.default_rng(37)
        for spec in (hardy(1), dirichlet_type(1), drury_arveson(2)):
            for _ in range(5):
                f = random_polynomial(rng, spec.d, 3)
                g = random_polynomial(rng, spec.d, 2)
                res = subspace_distance(spec, g, f, 4)
                identity = spec.inner_product(g, g).real - spec.inner_product(
                    g, res.phi * f
                ).real
                assert abs(res.residual**2 - identity) < 1e-8 * max(
                    1.0, spec.norm(g) ** 2
                )

    def test_residual_bounded_by_target_norm(self):
        rng = np.random.default_rng(41)
        spec = hardy(1)
        for _ in range(10):
            f = random_polynomial(rng, 1, 3)
            g = random_polynomial(rng, 1, 4)
            res = subspace_distance(spec, g, f, 3)
            assert res.residual <= spec.norm(g) + 1e-12

    def test_ill_conditioned_gram_uses_fallback(self):
        # the shifts of (1 - z)^6 are nearly dependent, not merely of unequal
        # norms, so even the equilibrated Gram's condition lies far past the
        # 1e10 switch (about 1.2e13 at n = 58); the solve must flag the
        # orthogonal route and still return a sane residual
        spec = hardy(1)
        res = subspace_distance(spec, ONE, p1d(1, -6, 15, -20, 15, -6, 1), 58)
        assert res.solve_method == "qr_fallback"
        assert res.gram_condition > 1e10
        assert 0.0 <= res.residual <= spec.norm(ONE) + 1e-12

    def test_monotone_in_degree(self):
        rng = np.random.default_rng(43)
        for spec in (hardy(1), bergman(1), dirichlet_type(1), drury_arveson(2)):
            f = random_polynomial(rng, spec.d, 3)
            target = Polynomial.one(spec.d)
            values = [
                subspace_distance(spec, target, f, n).residual for n in range(10)
            ]
            for lo, hi in zip(values[1:], values):
                assert lo <= hi + 1e-12


class TestIndexSweep:
    def test_cyclic_unit(self):
        report = index_sweep(hardy(1), ONE, 5)
        assert report.residuals == pytest.approx([0.0] * 6, abs=1e-14)
        assert report.verdict == VERDICT_CYCLIC

    def test_plateau_for_coordinate(self):
        report = index_sweep(hardy(1), p1d(0, 1), 10)
        assert report.residuals == pytest.approx([1.0] * 11, abs=1e-12)
        assert report.verdict == VERDICT_PLATEAU

    def test_slow_decay_in_dirichlet_type(self):
        report = index_sweep(dirichlet_type(1), p1d(1, -1), 40)
        for lo, hi in zip(report.residuals[1:], report.residuals):
            assert lo < hi
        assert report.fit_diagnostics["inverse_log"]["b"] > 0
        assert report.fitted_limit is not None and report.fitted_limit >= 0

    def test_two_resolution_consistency(self):
        # the sweep oracle cross-checked at two budgets: shared degrees agree
        short = index_sweep(dirichlet_type(1), p1d(1, -1), 12)
        long = index_sweep(dirichlet_type(1), p1d(1, -1), 24)
        assert short.residuals == pytest.approx(long.residuals[:13], abs=1e-12)

    def test_csv_rows_shape(self):
        report = index_sweep(hardy(1), p1d(1, -1), 4)
        rows = report.csv_rows()
        assert rows[0] == ("degree", "residual", "gramCondition", "solveMethod")
        assert len(rows) == 6


class TestMultiplierNorms:
    def test_identity_multiplier(self):
        assert multiplier_norm_lower(hardy(1), ONE, 10) == pytest.approx(1.0)

    def test_isometric_shift(self):
        assert multiplier_norm_lower(hardy(1), p1d(0, 1), 20) == pytest.approx(1.0)

    def test_two_minus_z(self):
        assert multiplier_norm_lower(hardy(1), p1d(2, -1), 40) >= 2.9

    def test_scaling_inequality_via_sup_norm_bound(self):
        # residuals scale by at most a multiplier-norm bound when a
        # nonvanishing factor is divided out: C_n(psi q) <= U C_n(q) with U
        # a sup-norm upper bound for psi on the circle (boundary L2 case).
        # Quotients whose own residual vanishes at finite degree (such as
        # q = 1) are excluded: converting their approximants costs extra
        # degrees, which the degree-shifted form below covers instead.
        spec = hardy(1)
        psi = p1d(2, -1)
        theta = 2 * np.pi * np.arange(4096) / 4096
        sup = float(np.max(np.abs(psi.evaluate_grid(np.exp(1j * theta)[:, None]))))
        bound = sup * (1 + 1e-6)
        for q in (p1d(1, -1), p1d(1, 1), p1d(1, 0, -1), p1d(1, -1) ** 2, p1d(1, 0.5)):
            f = psi * q
            for n in (0, 2, 5, 9):
                cn_f = subspace_distance(spec, ONE, f, n).residual
                cn_q = subspace_distance(spec, ONE, q, n).residual
                assert cn_f <= bound * cn_q + 1e-10

    def test_scaling_inequality_distance_form(self):
        # the budget-exact form: multiplying the optimal approximant of q by
        # psi shows dist_n(psi, [psi q]) <= U C_n(q), valid for every q
        spec = hardy(1)
        psi = p1d(2, -1)
        bound = 3.0 * (1 + 1e-6)
        for q in (ONE, p1d(1, -1), p1d(1, 0.5), p1d(1, 0, 0.25)):
            f = psi * q
            for n in (0, 2, 5, 9):
                dist = subspace_distance(spec, psi, f, n).residual
                cn_q = subspace_distance(spec, ONE, q, n).residual
                assert dist <= bound * cn_q + 1e-10

    def test_contractive_inclusion_soft_check(self):
        # raising the derivative order cannot shrink multiplier norms; the
        # finite sections reflect that on plain symbols
        n_in = 24
        for phi in (p1d(0, 1), p1d(2, -1), p1d(1, 0.5, 0.25)):
            low_order = multiplier_norm_lower(bergman(1), phi, n_in)
            high_order = multiplier_norm_lower(dirichlet_type(1), phi, n_in)
            assert low_order <= high_order + 1e-6


class TestPerturbationBound:
    def test_equal_functions(self):
        f = p1d(1, -1)
        report = check_perturbation_bound(hardy(1), f, f, 4)
        assert report.delta == 0.0
        assert report.lhs == pytest.approx(report.epsilon, abs=1e-12)
        assert report.holds

    def test_small_quadratic_bump(self):
        f = p1d(1, -1)
        g = f + p1d(0, 0, 0.01)
        report = check_perturbation_bound(hardy(1), f, g, 5)
        assert report.holds
        assert report.slack >= -1e-12
        assert report.delta == pytest.approx(0.01)

    def test_scalar_rescaling(self):
        f = p1d(1, -1)
        report = check_perturbation_bound(hardy(1), f, 1.01 * f, 5)
        assert report.holds

    def test_seeded_pairs(self):
        rng = np.random.default_rng(47)
        spec = hardy(1)
        for _ in range(20):
            f = random_polynomial(rng, 1, 3)
            bump = random_polynomial(rng, 1, 4)
            bump = bump * (0.01 / spec.norm(bump) * rng.random())
            report = check_perturbation_bound(spec, f, f + bump, 4)
            assert report.holds
            assert report.slack >= -1e-10


class TestWeightPerturbation:
    def test_ratios_within_band(self):
        spec = hardy(1)
        for seed in range(5):
            pert = perturb_weights(spec, 0.05, seed)
            base = np.asarray(spec.moments.values)
            new = np.asarray(pert.moments.values)
            ratios = new / base
            assert np.all(ratios >= 0.95 - 1e-12)
            assert np.all(ratios <= 1.05 + 1e-12)

    def test_reproducible(self):
        spec = bergman(1)
        a = perturb_weights(spec, 0.1, 123)
        b = perturb_weights(spec, 0.1, 123)
        assert a.moments.values == b.moments.values

    def test_realized_deviation_below_requested(self):
        spec = bergman(1)
        pert = perturb_weights(spec, 0.07, 5)
        assert realized_weight_deviation(spec, pert) <= 0.07 + 1e-12

    def test_vanishing_epsilon_recovers_base_space(self):
        spec = bergman(1)
        pert = perturb_weights(spec, 1e-9, 3)
        assert realized_weight_deviation(spec, pert) <= 1e-9

    def test_norm_squeeze(self):
        rng = np.random.default_rng(53)
        spec = hardy(1)
        eps = 0.05
        pert = perturb_weights(spec, eps, 11)
        for _ in range(10):
            h = random_polynomial(rng, 1, 8)
            base_sq = spec.norm(h) ** 2
            pert_sq = pert.norm(h) ** 2
            assert (1 - eps) * base_sq - 1e-12 <= pert_sq <= (1 + eps) * base_sq + 1e-12

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ArgumentError):
            perturb_weights(hardy(1), 1.0, 0)

    def test_rejects_non_moment_space(self):
        with pytest.raises(ArgumentError):
            perturb_weights(drury_arveson(2), 0.1, 0)


class TestWeightStability:
    def test_zero_perturbation_equality(self):
        spec = hardy(1)
        f = p1d(1, -1)
        report = check_weight_stability(spec, spec, f, 6, epsilon=0.0)
        assert report.base_residual == pytest.approx(report.perturbed_residual)
        assert report.holds

    def test_hardy_example(self):
        spec = hardy(1)
        pert = perturb_weights(spec, 0.05, 7)
        report = check_weight_stability(spec, pert, p1d(1, -1), 10)
        assert report.holds

    def test_unit_function(self):
        spec = bergman(1)
        pert = perturb_weights(spec, 0.05, 9)
        report = check_weight_stability(spec, pert, ONE, 5)
        assert report.base_residual == pytest.approx(0.0, abs=1e-12)
        assert report.perturbed_residual == pytest.approx(0.0, abs=1e-12)


class TestPowerMembership:
    def test_unit_multiplier(self):
        assert power_membership_residual(hardy(1), ONE, 3, 2) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_coordinate_orthogonality(self):
        # z is orthogonal to every multiple of z^2, so the distance is ||z||
        for n in (0, 2, 5):
            assert power_membership_residual(hardy(1), p1d(0, 1), 1, n) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_outer_function_decreasing(self):
        values = [
            power_membership_residual(hardy(1), p1d(1, -1), 1, n) for n in (2, 6, 12)
        ]
        assert values[0] > values[1] > values[2]

    def test_budget_validation(self):
        spec = hardy(1, max_degree=6)
        with pytest.raises(DegreeRangeError):
            power_membership_residual(spec, p1d(1, -1, 1), 2, 2)

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateInputError):
            power_membership_residual(hardy(1), Polynomial.zero(1), 1, 2)
        with pytest.raises(ArgumentError):
            power_membership_residual(hardy(1), p1d(1, -1), -1, 2)


class TestIndexContinuity:
    def test_residual_continuous_under_function_limits(self):
        # finite-degree residuals vary continuously along f_m -> f, the
        # testable face of lower semicontinuity of the limiting index
        spec = hardy(1)
        f = p1d(1, -1)
        base = subspace_distance(spec, ONE, f, 6).residual
        deviations = []
        for m in (10, 100, 1000, 10000):
            fm = f + p1d(0, 0, 1.0 / m)
            deviations.append(abs(subspace_distance(spec, ONE, fm, 6).residual - base))
        assert deviations[0] > deviations[-1]
        assert deviations[-1] < 1e-3


class TestInverseTruncations:
    def test_norms_increase_and_stay_below_one(self):
        # 1/(2 - z) has sup norm 1 on the disk; truncations stay strictly
        # inside and their section norms climb toward 1
        spec = hardy(1)
        values = inverse_truncation_multiplier_norms(spec, p1d(2, -1), 10, 30)
        assert all(v <= 1 + 1e-6 for v in values)
        for lo, hi in zip(values, values[1:]):
            assert hi >= lo - 1e-10
        assert values[-1] > 0.98
