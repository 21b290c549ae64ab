import json
import math
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest

from cyclicity import mixednorm, poly, solver
from cyclicity.errors import ArgumentError, DegenerateInputError
from cyclicity.indices import subspace_distance
from cyclicity.mixednorm import (
    MixedSpec,
    VarExpSpec,
    luxemburg_norm,
    mixed_index,
    mixed_norm,
    modular,
)
from cyclicity.poly import Polynomial
from cyclicity.spaces import bergman, dirichlet_type, hardy
from helpers import normal_solves_of, random_polynomial


def p1d(*coeffs):
    return Polynomial.from_coeffs1d(coeffs)


ONE = Polynomial.one(1)


def hardy_type(p=2.0, q=2.0, **kwargs):
    return MixedSpec.with_measure("point_mass", 1, 0, p, q, **kwargs)


def area_type(p=2.0, q=2.0, N=0, **kwargs):
    return MixedSpec.with_measure("area", 1, N, p, q, **kwargs)


def varexp(a=2.0, b=0.0, c=1.0, N=0, **kwargs):
    return VarExpSpec.with_measure("area", 1, N, a, b, c, **kwargs)


MEAN_SHIFT_D2 = Polynomial(2, {(0, 0): 1.0, (1, 0): -0.5, (0, 1): -0.5})
ROUTES = (True, False)  # an IRLS step's Gram from radial moments, or from the design


def take_route(monkeypatch, by_moments):
    monkeypatch.setattr(mixednorm, "_moment_route", lambda spec, tables: by_moments)


class TestMixedNorm:
    def test_zero(self):
        assert mixed_norm(area_type(), Polynomial.zero(1)) == 0.0

    def test_boundary_monomials(self):
        spec = hardy_type()
        for k in (0, 1, 5, 9):
            zk = Polynomial.monomial((k,))
            assert mixed_norm(spec, zk) == pytest.approx(1.0, abs=1e-12)

    def test_hilbert_consistency_bergman(self):
        spec = area_type()
        ref = bergman(1)
        f = p1d(1, -1)
        assert mixed_norm(spec, f) == pytest.approx(ref.norm(f), abs=1e-8)

    def test_hilbert_consistency_with_derivative(self):
        spec = area_type(N=1)
        ref = dirichlet_type(1)
        for coeffs in [(1, -1), (0.5, 0, 1), (2, 1, -1, 0.25)]:
            f = p1d(*coeffs)
            assert mixed_norm(spec, f) == pytest.approx(ref.norm(f), abs=1e-8)

    def test_triangle_inequality_and_homogeneity(self):
        rng = np.random.default_rng(61)
        for p, q in [(2, 2), (1.5, 3.0), (3.0, 1.5), (1.0, 1.0)]:
            spec = area_type(p=p, q=q, radial_count=24, angular_count=128)
            for _ in range(5):
                f = random_polynomial(rng, 1, 5)
                g = random_polynomial(rng, 1, 5)
                nf, ng = mixed_norm(spec, f), mixed_norm(spec, g)
                assert mixed_norm(spec, f + g) <= nf + ng + 1e-8
                assert mixed_norm(spec, 3.5 * f) == pytest.approx(3.5 * nf, abs=1e-8)

    @pytest.mark.parametrize("scale", [1e-200, 1e-120, 1e120, 1e200])
    @pytest.mark.parametrize("N", [0, 1])
    def test_homogeneous_at_extreme_scales(self, N, scale):
        # unscaled |v|^p underflows to 0 or overflows to inf at these scales
        spec = area_type(p=3.0, q=2.0, N=N)
        f = p1d(1, -0.5, 0.3)
        base = mixed_norm(spec, f)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            scaled = mixed_norm(spec, scale * f)
        assert scaled / scale == pytest.approx(base, rel=1e-14)

    def test_resolution_warning(self):
        spec = hardy_type(angular_count=8)
        with pytest.warns(UserWarning):
            mixed_norm(spec, p1d(*([1] * 12)))


class TestModular:
    def test_zero_function(self):
        spec = varexp(a=3.0)
        assert modular(spec, Polynomial.zero(1), 1.0) == 0.0
        assert modular(spec, Polynomial.zero(1), 7.0) == 0.0

    def test_constant_exponent_identity(self):
        # at lam = the L^p norm of f the modular equals 1 by definition
        spec = varexp(a=3.0)
        f = p1d(1, -1, 0.5)
        lam = luxemburg_norm(spec, f)
        assert modular(spec, f, lam) == pytest.approx(1.0, abs=1e-8)

    def test_strictly_decreasing_in_lambda(self):
        spec = varexp(a=2.0, b=1.0, c=2.0)
        f = p1d(1, -1)
        assert modular(spec, f, 2.0) < modular(spec, f, 1.0)

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(ArgumentError):
            modular(varexp(), p1d(1), 0.0)


class TestLuxemburgNorm:
    def test_zero(self):
        assert luxemburg_norm(varexp(a=2.5), Polynomial.zero(1)) == 0.0

    def test_constant_exponent_two_matches_hilbert(self):
        spec = varexp(a=2.0)
        ref = bergman(1)
        f = p1d(1, -1, 0.25)
        assert luxemburg_norm(spec, f) == pytest.approx(ref.norm(f), abs=1e-8)

    def test_homogeneity(self):
        spec = varexp(a=2.0, b=1.5, c=2.0)
        f = p1d(1, -0.5, 0.3)
        assert luxemburg_norm(spec, 4.0 * f) == pytest.approx(
            4.0 * luxemburg_norm(spec, f), abs=1e-8
        )

    @pytest.mark.parametrize("N", [0, 1])
    @pytest.mark.parametrize("scale", [1e-200, 1e70, 1e200])
    def test_homogeneity_at_extreme_scales(self, N, scale):
        spec = varexp(a=1.5, b=2.0, c=1.0, N=N)
        f = p1d(1, -0.5, 0.3)
        assert luxemburg_norm(spec, scale * f) == pytest.approx(
            scale * luxemburg_norm(spec, f), rel=1e-9
        )

    def test_matches_root_of_direct_modular(self):
        # independent oracle: brentq on the modular summed over the whole grid
        import scipy.optimize

        rng = np.random.default_rng(71)
        spec = varexp(a=1.2, b=2.5, c=0.7, radial_count=16, angular_count=64)
        weights, pexp = spec.radial_weights, spec.a + spec.b * spec.radial_nodes**spec.c
        for _ in range(5):
            f = random_polynomial(rng, 1, 4)
            mags = np.abs(spec.grid_values(f))

            def excess(lam):
                return weights @ np.mean((mags / lam) ** pexp[:, None], axis=1) - 1.0

            root = scipy.optimize.brentq(excess, 1e-3, 1e3, xtol=1e-15, rtol=1e-14)
            assert luxemburg_norm(spec, f) == pytest.approx(root, rel=1e-10)

    def test_bisection_certificate(self):
        rng = np.random.default_rng(67)
        spec = varexp(a=1.5, b=1.0, c=1.0)
        for _ in range(5):
            f = random_polynomial(rng, 1, 4)
            lam = luxemburg_norm(spec, f)
            assert abs(modular(spec, f, lam) - 1.0) <= 1e-6

    @pytest.mark.parametrize("tol", [1e-6, 1e-12, 1e-300])
    @pytest.mark.parametrize("b", [0.0, 0.5, 2.5])
    def test_newton_certificate(self, b, tol):
        # lam is the upper end of a bracket of relative width tol, or four
        # ulps at the floor, across which the modular crosses 1
        rng = np.random.default_rng(int(100 * b) + 3)
        spec = varexp(a=1.5, b=b, c=1.3, radial_count=12, angular_count=64, bisection_tol=tol)
        width = max(tol, 4.0 * np.finfo(float).eps)
        for _ in range(20):
            f = random_polynomial(rng, 1, 4) * float(10.0 ** rng.uniform(-3, 3))
            lam = luxemburg_norm(spec, f)
            assert modular(spec, f, lam) <= 1.0 < modular(spec, f, lam * (1.0 - width))

    @pytest.mark.parametrize("b", [0.0, 0.5, 2.5])
    def test_few_modular_evaluations(self, b, monkeypatch):
        # safeguarded Newton takes a handful of evaluations where bisection
        # of the closed-form bracket to 1e-12 took about 40; with a constant
        # exponent the first probe, just above the closed form, is the root
        rng = np.random.default_rng(29)
        spec = varexp(a=1.5, b=b, c=1.3, radial_count=12, angular_count=64)
        counts = []
        real = VarExpSpec._modular_terms

        def counted(self, *args):
            counts[-1] += 1
            return real(self, *args)

        monkeypatch.setattr(VarExpSpec, "_modular_terms", counted)
        for _ in range(20):
            counts.append(0)
            luxemburg_norm(spec, random_polynomial(rng, 1, 4))
        assert max(counts) <= 12
        if b == 0.0:
            assert set(counts) == {1}

    def test_midpoint_fallback_keeps_the_certificate(self, monkeypatch):
        # p from 2.44 to 42.44 on three nodes and heavy-tailed magnitudes send
        # Newton points out of the bracket, where the root takes its midpoint
        spec = varexp(a=2.44, b=40.0, c=1.0, radial_count=3, angular_count=8)
        mags = np.random.default_rng(1).pareto(0.5, (3, 8))
        probes = []
        real = VarExpSpec._modular_terms

        def recorded(self, sums, mu):
            probes.append((sums, mu))
            return real(self, sums, mu)

        monkeypatch.setattr(VarExpSpec, "_modular_terms", recorded)
        lam = spec._measure(mags, 0.0)[0]
        # replay the bracket: lo from the closed form or a probe above 1, hi
        # from a probe at or below 1
        sums = probes[0][0]
        lo = min(sums.sum() ** (1.0 / spec._exponents.max()),
                 sums.sum() ** (1.0 / spec._exponents.min()))
        hi, midpoints = math.inf, 0
        for _, mu in probes:
            midpoints += mu == (lo + hi) / 2.0
            if float(real(spec, sums, mu).sum()) <= 1.0:
                hi = mu
            else:
                lo = mu
        assert midpoints > 0
        exponent = spec._node_sums(mags)[0]

        def modular_at(value):
            return float(real(spec, sums, math.ldexp(value, -exponent)).sum())

        assert modular_at(lam) <= 1.0 < modular_at(lam * (1.0 - spec.bisection_tol))

    def test_derivative_constant_term_convention(self):
        spec = varexp(a=2.0, N=1)
        ref = dirichlet_type(1)
        f = p1d(1, -1)
        assert luxemburg_norm(spec, f) == pytest.approx(ref.norm(f), abs=1e-8)

    def test_constant_function_with_derivative(self):
        spec = varexp(a=2.0, N=1)
        assert luxemburg_norm(spec, p1d(3.0)) == pytest.approx(3.0, abs=1e-8)


class TestMixedIndex:
    def test_unit_function(self):
        res = mixed_index(hardy_type(), ONE, 3)
        assert res.value == pytest.approx(0.0, abs=1e-10)
        assert res.converged

    def test_hilbert_case_matches_solver(self):
        spec = hardy_type()
        f = p1d(1, -1)
        ref = hardy(1)
        for n in (0, 2, 5):
            res = mixed_index(spec, f, n)
            want = subspace_distance(ref, ONE, f, n).residual
            assert res.value == pytest.approx(want, abs=1e-7)
            assert res.converged

    def test_orthogonal_function(self):
        res = mixed_index(hardy_type(), p1d(0, 1), 4)
        assert res.value == pytest.approx(1.0, abs=1e-7)

    def test_monotone_in_degree(self):
        spec = area_type(p=3.0, q=1.5, radial_count=24, angular_count=128)
        f = p1d(1, -1)
        values = [mixed_index(spec, f, n).value for n in range(5)]
        for lo, hi in zip(values[1:], values):
            assert lo <= hi + 1e-8

    def test_non_hilbert_improves_on_warm_start(self):
        # the warm start is feasible, so IRLS can only lower the objective
        spec = area_type(p=4.0, q=2.0, radial_count=24, angular_count=128)
        f = p1d(1, -1)
        ref_phi = subspace_distance(bergman(1), ONE, f, 3).phi
        start_value = mixed_norm(spec, ONE - ref_phi * f)
        res = mixed_index(spec, f, 3)
        assert res.value <= start_value + 1e-12
        assert res.converged

    def test_varexp_index_runs(self):
        spec = varexp(a=3.0, radial_count=24, angular_count=128)
        res = mixed_index(spec, p1d(1, -1), 3)
        assert 0.0 < res.value < 1.0
        assert res.converged

    def test_against_derivative_free_optimizer(self):
        # independent oracle: a general-purpose minimizer on the same sampled
        # objective should not beat IRLS by more than its own tolerance
        import scipy.optimize

        spec = area_type(p=3.0, q=1.5, radial_count=16, angular_count=64)
        f = p1d(1, -1)
        n = 2
        res = mixed_index(spec, f, n)

        def objective(x):
            phi = Polynomial.from_coeffs1d(
                [complex(x[2 * k], x[2 * k + 1]) for k in range(n + 1)]
            )
            return mixed_norm(spec, ONE - phi * f)

        start = np.zeros(2 * (n + 1))
        for k in range(n + 1):
            c = res.phi.coefficient((k,))
            start[2 * k], start[2 * k + 1] = c.real, c.imag
        out = scipy.optimize.minimize(
            objective, start, method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 4000},
        )
        assert res.value <= out.fun + 1e-6
        # and from a cold start the free optimizer lands on the same value
        cold = scipy.optimize.minimize(
            objective, np.zeros(2 * (n + 1)), method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 4000},
        )
        assert abs(res.value - cold.fun) < 1e-5

    def test_rejects_zero_function(self):
        with pytest.raises(DegenerateInputError):
            mixed_index(hardy_type(), Polynomial.zero(1), 2)

    @pytest.mark.parametrize("N", [0, 1])
    @pytest.mark.parametrize("d", [1, 2])
    def test_design_matches_shifted_products(self, d, N):
        # oracle: grid values and constant terms of each product z^gamma f
        rng = np.random.default_rng(73 + d)
        spec = MixedSpec.with_measure("area", d, N, 3.0, 2.0, radial_count=6,
                                      angular_count=64, seed=5)
        f = random_polynomial(rng, d, 2)
        n = 3
        tables = mixednorm._grid_tables(spec, f, n)
        design, rhs = mixednorm._grid_design(spec, f, tables)
        cols = tables.cols
        for j, gamma in enumerate(cols):
            product = Polynomial.monomial(gamma) * f
            want = spec.grid_values(product.radial_derivative(N)).ravel()
            np.testing.assert_allclose(design[:-1, j], want, rtol=1e-13, atol=1e-13)
            assert design[-1, j] == product.constant_term
        assert np.all(rhs[:-1] == (1.0 if N == 0 else 0.0)) and rhs[-1] == 1.0

    def test_resolution_warning_on_index(self):
        # n + deg f = 4 needs 8 * 4 = 32 angular points on the circle
        with pytest.warns(UserWarning, match="angular resolution"):
            mixed_index(hardy_type(angular_count=16), p1d(1, -1), 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mixed_index(hardy_type(angular_count=32), p1d(1, -1), 3)

    def test_hilbert_warm_start_solved_once(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return subspace_distance(*args)

        monkeypatch.setattr(mixednorm, "subspace_distance", counting)
        mixed_index(area_type(p=3.0, q=1.5, radial_count=12, angular_count=64), p1d(1, -1), 4)
        assert len(calls) == 1


class TestIrlsStep:
    """Each IRLS step solves normal equations built from radial moments or,
    when that is cheaper, from the design, through the dense route's factor
    and gate."""

    @pytest.mark.parametrize("spec, f", [
        (area_type(p=3.0, q=2.0, radial_count=12, angular_count=64), p1d(1, -1)),
        (area_type(p=1.5, q=2.0, N=1, radial_count=12, angular_count=64), p1d(1, -0.5, 0.3)),
        (MixedSpec.with_measure("area", 2, 0, 3.0, 2.0, radial_count=8, angular_count=256,
                                seed=4), Polynomial(2, {(0, 0): 1.0, (1, 0): -0.5, (0, 1): -0.5})),
        (MixedSpec.with_measure("area", 2, 1, 1.5, 2.0, radial_count=8, angular_count=256,
                                seed=4), Polynomial(2, {(0, 0): 1.0, (1, 0): -0.5, (0, 1): -0.5})),
        (varexp(a=1.5, b=1.0, c=2.0, radial_count=12, angular_count=64), p1d(1, -0.5, 0.3)),
        (varexp(a=2.0, b=1.0, c=2.0, N=1, radial_count=12, angular_count=64), p1d(1, -1)),
    ], ids=["mixed-d1", "mixed-d1-p<2", "mixed-d2", "mixed-d2-p<2", "varexp-N0", "varexp-N1"])
    def test_proposal_matches_dense_lstsq(self, spec, f, monkeypatch):
        for by_moments in ROUTES:
            take_route(monkeypatch, by_moments)
            _, seen = normal_solves_of(mixednorm, lambda: mixed_index(spec, f, 3))
            assert seen
            for design, target, out in seen:
                assert isinstance(design, np.ndarray) and design.flags.f_contiguous
                want = np.linalg.lstsq(design, target, rcond=None)[0]
                assert np.linalg.norm(out.coefficients - want) <= 1e-10 * np.linalg.norm(want)

    def test_well_conditioned_index_skips_dense_lstsq(self, monkeypatch):
        calls = []
        real = np.linalg.lstsq

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", counting)
        spec = area_type(p=3.0, q=2.0, radial_count=12, angular_count=64)
        for by_moments in ROUTES:
            take_route(monkeypatch, by_moments)
            result, seen = normal_solves_of(mixednorm, lambda: mixed_index(spec, p1d(1, -1), 3))
            assert result.converged and len(seen) == result.iterations
            assert {out.method for _, _, out in seen} == {solver.CHOLESKY}
            assert calls == []

    @pytest.mark.parametrize("by_moments", ROUTES, ids=["moments", "design"])
    def test_gate_falls_back_to_the_weighted_design(self, by_moments, monkeypatch):
        # past the threshold each step solves sqrt(u) * design by lstsq
        spec = area_type(p=3.0, q=2.0, radial_count=12, angular_count=64)
        f = p1d(1, -1)
        take_route(monkeypatch, by_moments)
        gram_route = mixed_index(spec, f, 3)
        calls = []
        real = np.linalg.lstsq

        def counting(design, target, **kwargs):
            calls.append((design, target))
            return real(design, target, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", counting)
        monkeypatch.setattr(solver, "DEFAULT_COND_THRESHOLD", 0.0)
        result, seen = normal_solves_of(mixednorm, lambda: mixed_index(spec, f, 3))
        # the first lstsq call is the fallback of the Hilbert warm start
        assert result.converged and len(seen) == result.iterations == len(calls) - 1
        assert {out.method for _, _, out in seen} == {solver.QR_FALLBACK}
        for (design, target, out), (used, used_target) in zip(seen, calls[1:]):
            np.testing.assert_array_equal(used, design)
            np.testing.assert_array_equal(used_target, target)
            assert np.all(out.coefficients == real(design, target, rcond=None)[0])
        assert result.value == pytest.approx(gram_route.value, rel=1e-12)

    @pytest.mark.parametrize("spec, f, n, K, by_moments", [
        # deg f small beside n, many radial nodes: 2 K^2 well below R k^2
        (MixedSpec.with_measure("area", 2, 0, 3.0, 2.0, radial_count=24, angular_count=256),
         MEAN_SHIFT_D2, 6, 36, True),
        # 2 K^2 <= R k^2 at R = 8 (2592 against 6272) and just so at R = 4
        # (882 against 900), and just not at R = 3 (882 against 675)
        (MixedSpec.with_measure("area", 2, 0, 3.0, 2.0, radial_count=8, angular_count=256),
         MEAN_SHIFT_D2, 6, 36, True),
        (MixedSpec.with_measure("area", 2, 0, 3.0, 2.0, radial_count=4, angular_count=256),
         MEAN_SHIFT_D2, 4, 21, True),
        (MixedSpec.with_measure("area", 2, 0, 3.0, 2.0, radial_count=3, angular_count=256),
         MEAN_SHIFT_D2, 4, 21, False),
        # one radial node: K > k, so the design's Gram at any d >= 2
        (MixedSpec.with_measure("point_mass", 2, 0, 3.0, 2.0, angular_count=256),
         MEAN_SHIFT_D2, 3, 15, False),
        (varexp(a=2.0, b=1.0, c=2.0, N=1, radial_count=24), p1d(1, -1), 2, 4, True),
        # d = 1 takes the moments' one product, one radial node or many
        (hardy_type(p=3.0, angular_count=128), p1d(1, -1), 4, 6, True),
        # deg f large beside n: the one column reaches only 1 and z_1^60 of
        # the C(62, 2) = 1891 monomials of degree <= 60
        (MixedSpec.with_measure("area", 2, 0, 3.0, 2.0),
         Polynomial(2, {(0, 0): 1.0, (60, 0): -1.0}), 0, 2, True),
    ], ids=["d2-area", "d2-area-8", "d2-area-4", "d2-area-3", "d2-point-mass", "varexp",
            "point-mass", "high-degree-f"])
    def test_route_follows_the_size_rule(self, spec, f, n, K, by_moments):
        tables = mixednorm._grid_tables(spec, f, n)
        assert len(tables.degrees) == K
        assert mixednorm._moment_route(spec, tables) is by_moments

    def test_design_route_matches_the_moment_route(self, monkeypatch):
        # the design route's proposals are the dense lstsq ones, and its
        # index the moment route's
        sparse_spec = MixedSpec.with_measure("area", 2, 0, 3.0, 2.0)
        sparse_f = Polynomial(2, {(0, 0): 1.0, (40, 0): -1.0})
        cases = [
            # one radial node, at d = 1, where the moments' one product is taken
            (hardy_type(p=3.0, q=1.5, angular_count=128), p1d(1, -0.5, 0.3), 3, True),
            # a sparse f, whose columns reach 2 (n = 0) or 12 (n = 2) monomials
            (sparse_spec, sparse_f, 0, True),
            (sparse_spec, sparse_f, 2, True),
            # the d = 2 area R = 8 shape that 2 K^2 <= R k^2 sends to the moments
            (MixedSpec.with_measure("area", 2, 0, 3.0, 2.0, radial_count=8, angular_count=256,
                                    seed=1), MEAN_SHIFT_D2, 6, True),
        ]
        for spec, f, n, by_size in cases:
            assert mixednorm._moment_route(spec, mixednorm._grid_tables(spec, f, n)) is by_size
            take_route(monkeypatch, False)
            monkeypatch.setattr(mixednorm, "_normal_equations", None)  # never called
            result, seen = normal_solves_of(mixednorm, lambda: mixed_index(spec, f, n))
            assert result.converged and len(seen) == result.iterations
            for design, target, out in seen:
                assert out.method == solver.CHOLESKY
                want = np.linalg.lstsq(design, target, rcond=None)[0]
                assert np.linalg.norm(out.coefficients - want) <= 1e-10 * np.linalg.norm(want)
            monkeypatch.undo()
            take_route(monkeypatch, True)
            by_moments = mixed_index(spec, f, n)
            monkeypatch.undo()
            assert by_moments.iterations == result.iterations
            assert by_moments.value == pytest.approx(result.value, rel=1e-12)

    def test_high_degree_f_builds_no_monomial_table(self):
        # the one column reaches 2 of the 1891 monomials of degree <= 60: a
        # moment table over all of them would alone hold 57 MB, more than the
        # whole index allocates
        spec = MixedSpec.with_measure("area", 2, 0, 3.0, 2.0)
        f = Polynomial(2, {(0, 0): 1.0, (60, 0): -1.0})
        tracemalloc.start()
        try:
            result = mixed_index(spec, f, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.converged
        assert peak < 16 * 1891**2

    @pytest.mark.parametrize("constant_term", [True, False], ids=["constant", "bare"])
    @pytest.mark.parametrize("N", [0, 1])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["mixed", "varexp"])
    def test_both_routes_match_the_weighted_design(self, kind, d, N, constant_term):
        # oracle: A^H U A and A^H U b of the materialized grid design
        rng = np.random.default_rng(11 * d + N)
        grid = {"radial_count": 5, "angular_count": 64, "seed": 3,
                "include_constant_term": constant_term}
        if kind == "mixed":
            spec = MixedSpec.with_measure("area", d, N, 1.5, 3.0, **grid)
        else:
            spec = VarExpSpec.with_measure("area", d, N, 1.5, 1.0, 2.0, **grid)
        f = random_polynomial(rng, d, 2)
        n = 2
        tables = mixednorm._grid_tables(spec, f, n)
        design, rhs = mixednorm._grid_design(spec, f, tables)
        x = rng.standard_normal(len(tables.cols)) + 1j * rng.standard_normal(len(tables.cols))
        r = rhs - design @ x
        weights, constant = spec._measure(np.abs(r[:-1]).reshape(-1, spec.angular_count),
                                          abs(r[-1]))[1]()
        u = np.append(weights, constant)
        want = design.conj().T @ (u[:, None] * design)
        want_rhs = design.conj().T @ (u * rhs)
        for route in (mixednorm._normal_equations(spec, f, tables, weights, constant),
                      mixednorm._design_normal_equations(design, rhs, weights, constant)):
            gram, got_rhs = route
            assert np.linalg.norm(gram - want) <= 1e-13 * np.linalg.norm(want)
            assert np.linalg.norm(got_rhs - want_rhs) <= 1e-13 * np.linalg.norm(want_rhs)

    @pytest.mark.parametrize("m", [16, 64, 256])
    @pytest.mark.parametrize("radial", [("point_mass", None), ("area", 4), ("area", 24)],
                             ids=["point-mass", "area-4", "area-24"])
    def test_one_product_table_matches_the_design(self, radial, m):
        # oracle at d = 1: A^H U A and A^H U b of the grid design, for gapped
        # f and the constant-term row on, against the moments' one product
        measure, count = radial
        rng = np.random.default_rng(m + (count or 0))
        for N in (0, 2):
            spec = MixedSpec.with_measure(measure, 1, N, 3.0, 2.0, radial_count=count,
                                          angular_count=m)
            for f in (p1d(1, -1, 0.3), p1d(1, 0, 0, -0.5), p1d(1, *[0] * 39, -1)):
                n = int(rng.integers(0, 7))
                with warnings.catch_warnings():  # 16 points alias z^40: both sides alike
                    warnings.simplefilter("ignore")
                    tables = mixednorm._grid_tables(spec, f, n)
                design, rhs = mixednorm._grid_design(spec, f, tables)
                weights = rng.uniform(0.1, 2.0, (spec.radial_nodes.size, m))
                constant = float(rng.uniform(0.1, 2.0))
                assert mixednorm._moment_route(spec, tables)
                gram, got = mixednorm._normal_equations(spec, f, tables, weights, constant)
                want, want_rhs = mixednorm._design_normal_equations(design, rhs, weights, constant)
                assert np.linalg.norm(gram - want) <= 1e-13 * np.linalg.norm(want)
                assert np.linalg.norm(got - want_rhs) <= 1e-13 * np.linalg.norm(want_rhs)

    @pytest.mark.parametrize("d", [2, 3])
    def test_tables_list_only_the_kept_monomials(self, d, monkeypatch):
        # the exponents of the kept monomials come from the columns and f's
        # terms: no multi-index list reaches past the columns' degree n,
        # where one up to n + deg f would hold C(40 + d, d) tuples
        listed = []
        real = poly.multi_indices

        def counted(dim, degree):
            listed.append(degree)
            return real(dim, degree)

        monkeypatch.setattr(poly, "multi_indices", counted)
        monkeypatch.setattr(mixednorm, "multi_indices", counted, raising=False)
        spec = MixedSpec.with_measure("area", d, 1, 3.0, 2.0, radial_count=4, seed=2)
        f = Polynomial(d, {(0,) * d: 1.0, (40,) + (0,) * (d - 1): -1.0, (1,) * d: 0.5})
        for n in (0, 2):
            listed.clear()
            tables = mixednorm._grid_tables(spec, f, n)
            assert max(listed) <= n
            # oracle: the kept rows of the full list, and u^alpha on the grid
            every = real(d, n + f.degree)
            kept = sorted({every.index(tuple(np.add(g, a))) for g in tables.cols for a in f.coeffs}
                          | {0})
            alphas = np.array([every[r] for r in kept])
            assert np.array_equal(tables.degrees, alphas.sum(axis=1))
            want = np.prod(spec._angular ** alphas[:, None, :], axis=2)
            rows = 2 * tables.slots
            assert np.array_equal(tables.angular[rows] + 1j * tables.angular[rows + 1], want)

    @pytest.mark.parametrize("constant_term", [True, False], ids=["constant", "bare"])
    @pytest.mark.parametrize("N", [0, 1])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_table_residual_matches_the_design(self, d, N, constant_term):
        # oracle: b - A x of the materialized grid design, for an f with a
        # constant term and for the same f with it removed
        rng = np.random.default_rng(11 * d + N)
        spec = MixedSpec.with_measure("area", d, N, 1.5, 3.0, radial_count=5, angular_count=64,
                                      seed=3, include_constant_term=constant_term)
        f = random_polynomial(rng, d, 2)
        assert f.constant_term != 0
        n = 2
        for g in (f, f - f.constant_term):
            tables = mixednorm._grid_tables(spec, g, n)
            design, rhs = mixednorm._grid_design(spec, g, tables)
            x = rng.standard_normal(len(tables.cols)) + 1j * rng.standard_normal(len(tables.cols))
            want = rhs - design @ x
            values, constant = mixednorm._table_residual(g, tables)(x)
            assert values.shape == (spec.radial_nodes.size, spec.angular_count)
            assert np.linalg.norm(values.ravel() - want[:-1]) <= 1e-13 * np.linalg.norm(want[:-1])
            assert abs(constant - want[-1]) <= 1e-13 * abs(want[-1])

    @pytest.mark.parametrize("by_moments", ROUTES, ids=["moments", "design"])
    def test_design_is_built_only_to_be_read(self, by_moments, monkeypatch):
        # the moment route builds the design for a fallback step only, once
        # per such step; the design route builds it once for its Gram
        spec = area_type(p=3.0, q=2.0, radial_count=12, angular_count=64)
        f = p1d(1, -1)
        take_route(monkeypatch, by_moments)
        builds = []
        real = mixednorm._grid_design

        def counting(*args):
            builds.append(args)
            return real(*args)

        monkeypatch.setattr(mixednorm, "_grid_design", counting)
        result = mixed_index(spec, f, 3)
        assert result.converged and len(builds) == (0 if by_moments else 1)
        builds.clear()
        monkeypatch.setattr(solver, "DEFAULT_COND_THRESHOLD", 0.0)
        fallback = mixed_index(spec, f, 3)
        assert fallback.converged
        assert len(builds) == (fallback.iterations if by_moments else 1)

    def test_moment_route_holds_no_grid_design(self):
        # the lsq-scaled d = 2 index: its design would hold 49,153 rows x
        # C(8, 2) = 28 columns of 16 B, 22 MB, more than the whole index
        # allocates on the moment route
        spec = MixedSpec.with_measure("area", 2, 0, 3.0, 2.0, radial_count=24,
                                      angular_count=2048)
        f = Polynomial(2, {(0, 0): 1.0, (1, 0): -0.5, (0, 1): -0.5})
        assert mixednorm._moment_route(spec, mixednorm._grid_tables(spec, f, 6))
        tracemalloc.start()
        try:
            result = mixed_index(spec, f, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.converged
        assert peak < 49_153 * 28 * 16


class TestVarExpIndex:
    """Variable-exponent indices with N > 0, where the constant term joins."""

    def test_constant_exponent_two_is_dirichlet_index(self):
        # p = 2 is the Dirichlet-type space, where the warm start is optimal
        spec = varexp(a=2.0, N=1)
        f = p1d(1, -1)
        for n in (0, 2, 5):
            res = mixed_index(spec, f, n)
            want = subspace_distance(dirichlet_type(1), ONE, f, n).residual
            assert res.converged
            assert res.value == pytest.approx(want, abs=1e-8)

    def test_sweep_converges_and_is_nonincreasing(self):
        # the budgets are nested, so a larger budget cannot do worse
        spec = varexp(a=2.0, b=1.0, c=2.0, N=1, radial_count=24, angular_count=256)
        results = [mixed_index(spec, p1d(1, -1), n) for n in range(17)]
        assert all(r.converged for r in results), [r.n for r in results if not r.converged]
        values = [r.value for r in results]
        for lo, hi in zip(values[1:], values):
            assert lo <= hi * (1 + 1e-12)


    def test_stalled_index_reports_a_bool(self):
        # the line search of this spec stalls at n = 0 on its second step
        spec = varexp(a=2.0, b=1.0, c=2.0, N=1, radial_count=24, angular_count=256)
        res = mixed_index(spec, p1d(1, -1), 0)
        assert res.iterations == 2
        assert type(res.converged) is bool
        assert json.dumps({"converged": res.converged}) == '{"converged": true}'

    def test_one_bisection_per_measured_residual(self, monkeypatch):
        # the weights of a step reuse the lam that `_measure` found for the
        # residual it accepted: no second root of the same residual, and no
        # weights for the trials the line search rejects
        spec = varexp(a=2.0, b=1.0, c=2.0, N=1, radial_count=24, angular_count=256)
        calls = {"_measure": 0, "_luxemburg": 0, "weights": 0}
        real_measure, real_root = VarExpSpec._measure, VarExpSpec._luxemburg

        def measure(self, *args):
            calls["_measure"] += 1
            value, weights = real_measure(self, *args)

            def counted_weights():
                calls["weights"] += 1
                return weights()

            return value, counted_weights

        def root(self, *args):
            calls["_luxemburg"] += 1
            return real_root(self, *args)

        monkeypatch.setattr(VarExpSpec, "_measure", measure)
        monkeypatch.setattr(VarExpSpec, "_luxemburg", root)
        res = mixed_index(spec, p1d(1, -1), 4)
        assert res.iterations > 2 and calls["weights"] == res.iterations
        assert calls["_luxemburg"] == calls["_measure"] > res.iterations


@pytest.mark.parametrize("spec", [
    MixedSpec.with_measure("area", 1, 1, 3.0, 2.0, radial_count=12, angular_count=64),
    VarExpSpec.with_measure("area", 1, 1, 2.0, 1.0, 2.0, radial_count=12, angular_count=64),
], ids=["mixed", "varexp"])
def test_measuring_leaves_the_spec_unchanged(spec):
    # a norm or an index keeps nothing on the spec: each IRLS step's weights
    # come with the measurement of the residual it accepted
    before = pickle.dumps(vars(spec))
    attributes = dict(vars(spec))
    mixed_norm(spec, p1d(1, -0.5, 0.25))
    assert mixed_index(spec, p1d(1, -1), 3).iterations > 1
    assert pickle.dumps(vars(spec)) == before
    assert all(vars(spec)[name] is value for name, value in attributes.items())


class TestSerialization:
    def test_mixed_round_trip(self):
        spec = area_type(p=2.5, q=1.5, radial_count=16, angular_count=64)
        clone = MixedSpec.from_json(spec.to_json())
        f = p1d(1, -0.5)
        assert mixed_norm(clone, f) == mixed_norm(spec, f)

    def test_varexp_round_trip(self):
        spec = varexp(a=2.0, b=0.5, c=2.0, radial_count=16, angular_count=64)
        clone = VarExpSpec.from_json(spec.to_json())
        f = p1d(1, -0.5)
        assert luxemburg_norm(clone, f) == luxemburg_norm(spec, f)

    def test_tabulated_radial_rule(self):
        # a rule given by its nodes and weights is written back as them
        rule = {"nodes": [0.25, 0.75], "weights": [0.125, 0.375]}
        for spec in (MixedSpec(1, 0, 3.0, 2.0, *rule.values(), angular_count=64),
                     VarExpSpec(1, 0, 2.0, 0.5, 2.0, *rule.values(), angular_count=64)):
            obj = spec.to_json()
            assert obj["radial"] == rule
            assert type(spec).from_json(obj).to_json() == obj
        # one unit node at r = 1 is the point-mass rule, to the bit
        spec = {"d": 1, "N": 0, "p": 3.0, "q": 2.0, "angular": {"count": 64}}
        tabulated = MixedSpec.from_json({**spec, "radial": {"nodes": [1.0], "weights": [1.0]}})
        point_mass = MixedSpec.from_json({**spec, "radial": {"measure": "point_mass"}})
        f = p1d(1, -1)
        norm = mixed_norm(point_mass, f)
        assert mixed_norm(tabulated, f) == norm == pytest.approx(1.5030022387636492, rel=1e-12)
        value = mixed_index(point_mass, f, 3).value
        assert mixed_index(tabulated, f, 3).value == value
        assert value == pytest.approx(0.5353823259108694, rel=1e-12)
