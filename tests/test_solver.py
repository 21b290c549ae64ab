"""Sparse least-squares core: assembly against dense polynomial products, the
equilibrated normal-equation solves against a dense oracle, the dense-design
route, nested solves against per-width ones, the condition estimate,
residual invariants of index, sweep and free index, and non-finite input."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclicity import indices, solver
from cyclicity.capacity import BoundaryCloud
from cyclicity.cli import main
from cyclicity.errors import ArgumentError, NumericFailureError
from cyclicity.freespace import (
    FreePolynomial,
    FreeSpaceSpec,
    abelianize,
    free_besov,
    free_hardy,
    free_subspace_distance,
    words,
)
from cyclicity.indices import index_sweep, subspace_distance
from cyclicity.poly import Polynomial, graded_rank, mult_operator_section, multi_indices
from cyclicity.spaces import (
    MomentSequence,
    SpaceSpec,
    bergman,
    dirichlet_type,
    drury_arveson,
    hardy,
)
from helpers import (design_entries, equilibrated, per_width_solves, solves_of,
                     subprocess_env)

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)

SPACES = {
    "hardy": hardy(1, 16),
    "bergman": bergman(1, 16),
    "dirichlet": dirichlet_type(1, 16),
    "drury_arveson_2": drury_arveson(2, 12),
}
FREE_SPACES = {"free_hardy": free_hardy(2, 8), "free_besov": free_besov(2, 0.75, 8)}

# quarter-integer parts keep coefficients away from subnormal magnitudes
coefficient = st.builds(complex, st.integers(-8, 8), st.integers(-8, 8)).map(lambda c: c / 4)


@st.composite
def polynomials(draw, d, max_degree=3):
    keys = multi_indices(d, draw(st.integers(0, max_degree)))
    p = Polynomial(d, dict(zip(keys, draw(st.lists(coefficient, min_size=len(keys),
                                                   max_size=len(keys))))))
    return p + 1.0 if p.is_zero else p


@st.composite
def free_polynomials(draw, d=2, max_length=2):
    keys = words(d, draw(st.integers(0, max_length)))
    p = FreePolynomial(d, dict(zip(keys, draw(st.lists(coefficient, min_size=len(keys),
                                                       max_size=len(keys))))))
    return p + 1.0 if p.is_zero else p


def assert_matches_dense_oracle(design, target, out):
    dense = design if isinstance(design, np.ndarray) else design.toarray()
    x_ref = np.linalg.lstsq(dense, target, rcond=None)[0]
    residual_ref = float(np.linalg.norm(target - dense @ x_ref))
    # g in the span gives a zero residual, which each side hits only to roundoff
    slack = 1e-12 * np.linalg.norm(target)
    assert abs(out.residual - residual_ref) <= 1e-10 * residual_ref + slack
    assert np.linalg.norm(out.coefficients - x_ref) <= 1e-8 * max(1.0, np.linalg.norm(x_ref))


def scaled_gram(design, exact=False):
    """The equilibrated Gram D G D of a dense or CSC design as a dense array,
    D its inverse column norms, rounded down to powers of two unless
    `exact`: the dense route's and the CG route's D."""
    scaled, _ = equilibrated(design_entries(design)[0].astype(complex), exact)
    return scaled.conj().T @ scaled


def _mean_shift(d):
    """f = 1 - (z_1 + ... + z_d)/d, whose Gram stays well conditioned."""
    return Polynomial(d, {(0,) * d: 1.0, **{
        tuple(int(i == j) for i in range(d)): -1.0 / d for j in range(d)}})


class TestAssembly:
    @pytest.mark.parametrize("d, degree", [(1, 12), (2, 9), (3, 7), (4, 5)])
    def test_graded_rank_matches_multi_indices(self, d, degree):
        keys = multi_indices(d, degree)
        assert np.array_equal(graded_rank(keys), np.arange(len(keys)))

    # n = 10 on Drury-Arveson d=2 gives 66 columns, past the dense limit
    @pytest.mark.parametrize(
        "name, n",
        [pytest.param(name, 4, id=name) for name in sorted(SPACES)]
        + [pytest.param("drury_arveson_2", 10, id="drury_arveson_2-csc")],
    )
    def test_design_matches_polynomial_products(self, name, n):
        spec = SPACES[name]
        rng = np.random.default_rng(3)
        f = Polynomial(spec.d, {a: complex(*rng.standard_normal(2))
                                for a in multi_indices(spec.d, 2)})
        design, target, cols = indices._design_matrix(spec, Polynomial.one(spec.d), f, n)
        assert isinstance(design, np.ndarray) == solver.dense_route(len(cols), 1)
        rows = multi_indices(spec.d, n + f.degree)
        dense = np.zeros((len(rows), len(cols)), dtype=complex)
        reached = {0}  # the target's unit
        for j, gamma in enumerate(cols):
            for alpha, c in (Polynomial.monomial(gamma) * f).coeffs.items():
                dense[rows.index(alpha), j] = c * math.sqrt(spec.monomial_norm_sq(alpha))
                reached.add(rows.index(alpha))
        kept = sorted(reached)
        # the design holds the reached rows in their order; the others are zero
        assert not np.delete(dense, kept, axis=0).any()
        array, stored = design_entries(design)
        assert stored == len(cols) * len(f.coeffs)
        np.testing.assert_allclose(array, dense[kept], rtol=1e-15, atol=0)
        assert target[0] == math.sqrt(spec.monomial_norm_sq((0,) * spec.d))
        assert np.count_nonzero(target) == 1

    # d = 3 makes the base-d digits differ from binary ones, and at d = 1
    # every length holds one word; d = 3 also takes the CSC route
    @pytest.mark.parametrize(
        "name, d",
        [pytest.param(name, d, id=name if d == 2 else f"{name}-d{d}")
         for name in sorted(FREE_SPACES) for d in (1, 2, 3)],
    )
    def test_free_design_matches_word_products(self, name, d):
        two = FREE_SPACES[name]
        spec = FreeSpaceSpec(two.kind, d, two.max_length, two.smoothness)
        G = FreePolynomial(d, {(): 1.0, (d,): -0.5j, (1, d): 0.25, (d, 1, 1): 2.0})
        g = FreePolynomial(d, {(): 1.0, (d, 1): 3.0})
        n = 3
        _, seen = solves_of(indices, lambda: free_subspace_distance(spec, g, G, n))
        ((design, target, _),) = seen
        rows = words(d, n + G.degree)
        cols = words(d, n)
        dense = np.zeros((len(rows), len(cols)), dtype=complex)
        reached = set()
        for j, u in enumerate(cols):
            for w, c in (FreePolynomial(d, {u: 1.0}) * G).coeffs.items():
                dense[rows.index(w), j] = c * math.sqrt(spec.weight(len(w)))
                reached.add(rows.index(w))
        expected_target = np.zeros(len(rows), dtype=complex)
        for w, c in g.coeffs.items():
            expected_target[rows.index(w)] = c * math.sqrt(spec.weight(len(w)))
            reached.add(rows.index(w))
        kept = sorted(reached)
        # at d >= 2 G's words leave some rows unreached, and the design drops
        # exactly those; at d = 1 they reach every length
        assert (len(kept) < len(rows)) == (d > 1)
        assert not np.delete(dense, kept, axis=0).any()
        assert not np.delete(expected_target, kept).any()
        array, stored = design_entries(design)
        assert stored == len(cols) * len(G.coeffs)
        np.testing.assert_allclose(array, dense[kept], rtol=1e-15, atol=0)
        np.testing.assert_allclose(target, expected_target[kept], rtol=1e-15, atol=0)

    def test_tall_free_design_stays_sparse(self):
        # 40 columns over the words of length <= 12 in 3 letters: of the
        # 797,161 rows only the 67 words u and u Z1 (|u| <= 3) and the
        # target's Z2^12 are reached, so the design keeps 68 rows
        spec = free_hardy(3, 12)
        G = FreePolynomial(3, {(): 1.0, (1,): -1.0})
        g = FreePolynomial(3, {(): 1.0, (2,) * 12: 1.0})
        out, seen = solves_of(indices, lambda: free_subspace_distance(spec, g, G, 3))
        ((design, _, _),) = seen
        assert isinstance(design, np.ndarray)
        assert design.shape == (68, 40)
        assert np.count_nonzero(design) == 80
        # only the columns Z1^k G touch the powers of Z1, so 1 sits at the
        # d=1 distance 1/(n+2) and Z2^12 is orthogonal to every column
        assert out.residual**2 == pytest.approx(1.0 + 1.0 / 5.0, rel=1e-12)

    @pytest.mark.parametrize("name", sorted(SPACES))
    def test_multiplication_section_matches_loop(self, name):
        spec = SPACES[name]
        phi = Polynomial(spec.d, {a: 1.5 - 0.5j * sum(a) for a in multi_indices(spec.d, 2)})
        n_in = 3
        rows, cols = multi_indices(spec.d, n_in + 2), multi_indices(spec.d, n_in)
        loop = np.zeros((len(rows), len(cols)), dtype=complex)
        for j, beta in enumerate(cols):
            nb = math.sqrt(spec.monomial_norm_sq(beta))
            for tau, c in phi.coeffs.items():
                alpha = tuple(b + t for b, t in zip(beta, tau))
                loop[rows.index(alpha), j] += c * math.sqrt(spec.monomial_norm_sq(alpha)) / nb
        # phi's terms of degree <= 2 reach every row of degree <= n_in + 2
        assert loop.any(axis=1).all()
        # complex-by-real division may round differently in numpy, one ulp at most
        section = mult_operator_section(spec, phi, n_in)
        np.testing.assert_allclose(section, loop, rtol=4e-16, atol=0)


class TestDenseOracle:
    @pytest.mark.parametrize("name", sorted(SPACES))
    @PROPERTY
    @given(data=st.data(), n=st.integers(0, 6))
    def test_commutative(self, name, data, n):
        spec = SPACES[name]
        f = data.draw(polynomials(spec.d))
        g = data.draw(polynomials(spec.d))
        _, seen = solves_of(indices, lambda: subspace_distance(spec, g, f, n))
        ((design, target, out),) = seen
        assert design_entries(design)[1] == design.shape[1] * len(f.coeffs)
        assert_matches_dense_oracle(design, target, out)

    @pytest.mark.parametrize("name", sorted(FREE_SPACES))
    @PROPERTY
    @given(G=free_polynomials(), g=free_polynomials(), n=st.integers(0, 4))
    def test_free(self, name, G, g, n):
        spec = FREE_SPACES[name]
        _, seen = solves_of(indices, lambda: free_subspace_distance(spec, g, G, n))
        ((design, target, out),) = seen
        assert_matches_dense_oracle(design, target, out)


class TestResidualInvariants:
    @pytest.mark.parametrize("name", sorted(SPACES))
    @PROPERTY
    @given(data=st.data(), n_max=st.integers(0, 8))
    def test_sweep_matches_index_and_is_monotone(self, name, data, n_max):
        spec = SPACES[name]
        f = data.draw(polynomials(spec.d))
        one = Polynomial.one(spec.d)
        report = index_sweep(spec, f, n_max)
        singles = [subspace_distance(spec, one, f, n).residual for n in range(n_max + 1)]
        np.testing.assert_allclose(report.residuals, singles, rtol=1e-12, atol=1e-15)
        ceiling = spec.norm(one)
        for r in report.residuals:
            assert 0.0 <= r <= ceiling * (1 + 1e-12)
        for lo, hi in zip(report.residuals[1:], report.residuals):
            assert lo <= hi * (1 + 1e-12) + 1e-15

    @pytest.mark.parametrize("name", sorted(SPACES))
    @PROPERTY
    @given(data=st.data(), scale=coefficient.filter(lambda c: c != 0),
           theta=st.floats(0.0, 2.0 * math.pi), n=st.integers(0, 6))
    def test_scaling_and_rotation(self, name, data, scale, theta, n):
        spec = SPACES[name]
        f = data.draw(polynomials(spec.d))
        one = Polynomial.one(spec.d)
        base = subspace_distance(spec, one, f, n).residual
        scaled = subspace_distance(spec, one, scale * f, n).residual
        # f(e^(i theta) z): every degree-k coefficient turns by e^(i k theta)
        turned = Polynomial(
            spec.d, {a: c * np.exp(1j * theta * sum(a)) for a, c in f.coeffs.items()}
        )
        rotated = subspace_distance(spec, one, turned, n).residual
        assert scaled == pytest.approx(base, rel=1e-9, abs=1e-13)
        assert rotated == pytest.approx(base, rel=1e-9, abs=1e-13)

    def test_sweep_and_index_agree_across_dense_limit(self):
        # the n_max = 70 sweep is one nested solve on one Cholesky factor,
        # while single indices are dense up to n = 63 and sparse from n = 64
        spec = hardy(1, 71)
        f = Polynomial.from_coeffs1d([1.0, -1.0])
        one = Polynomial.one(1)
        nested, factored = [], []
        real_nested, real_cholesky = solver.solve_nested, np.linalg.cholesky

        def spy_nested(design, target, widths):
            nested.append(list(widths))
            return real_nested(design, target, widths)

        def spy_cholesky(gram):
            factored.append(gram.shape)
            return real_cholesky(gram)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(indices, "solve_nested", spy_nested)
            mp.setattr(np.linalg, "cholesky", spy_cholesky)
            report = index_sweep(spec, f, 70)
        assert nested == [list(range(1, 72))]
        assert factored == [(71, 71)]
        singles = []
        for n in range(71):
            out, ((design, _, _),) = solves_of(
                indices, lambda: subspace_distance(spec, one, f, n))
            assert isinstance(design, np.ndarray) == (n < solver.DENSE_MAX_COLUMNS)
            singles.append(out.residual)
        np.testing.assert_allclose(report.residuals, singles, rtol=1e-12, atol=0)
        for n, (swept, single) in enumerate(zip(report.residuals, singles)):
            assert swept**2 == pytest.approx(1.0 / (n + 2), rel=1e-9)
            assert single**2 == pytest.approx(1.0 / (n + 2), rel=1e-9)

    @PROPERTY
    @given(G=free_polynomials(), n=st.integers(0, 4))
    def test_free_residual_dominates_abelianization(self, G, n):
        free = free_subspace_distance(free_hardy(2, 8), FreePolynomial.identity(2), G, n)
        comm = subspace_distance(
            drury_arveson(2, n + G.degree), Polynomial.one(2), abelianize(G), n
        )
        assert free.residual >= comm.residual - 1e-10


class TestConditionEstimate:
    def test_estimate_is_deterministic_and_bounded_by_kappa1(self):
        spec = drury_arveson(3, 18)
        third = -1.0 / 3.0
        f = Polynomial(3, {(0, 0, 0): 1.0, (1, 0, 0): third, (0, 1, 0): third,
                           (0, 0, 1): third})
        design, target, _ = indices._design_matrix(spec, Polynomial.one(3), f, 15)
        np.random.seed(0)
        first = solver.solve_least_squares(design, target)
        # the estimate must not draw from numpy's global generator
        assert np.random.randint(2**31) == np.random.RandomState(0).randint(2**31)
        np.random.seed(1)
        second = solver.solve_least_squares(design, target)
        assert first.gram_condition == second.gram_condition
        # 816 columns take the CG route, whose Lanczos estimate of kappa_2 of
        # the equilibrated Gram D G D lies below its kappa_2, so below kappa_1
        gram = scaled_gram(design, exact=True)
        kappa1 = np.linalg.norm(gram, 1) * np.linalg.norm(np.linalg.inv(gram), 1)
        assert kappa1 / 10 <= first.gram_condition <= kappa1 * (1 + 1e-9)
        assert first.method == solver.CG

    def test_small_gram_is_exact(self):
        design = np.array([[2.0, 0.0], [1.0, 1.0], [0.0, 3.0]])
        out = solver.solve_least_squares(design, np.ones(3))
        gram = scaled_gram(design)
        kappa1 = np.linalg.norm(gram, 1) * np.linalg.norm(np.linalg.inv(gram), 1)
        assert out.gram_condition == pytest.approx(kappa1, rel=1e-12)


class TestDenseRoute:
    """A design's storage is its route: an ndarray takes the dense route (a
    dense equilibrated Gram, one Cholesky factor and its exact kappa_1), a
    CSC matrix of any width takes conjugate gradients and a Lanczos
    estimate of kappa_2. Both share the threshold, the fallback and the
    residual."""

    @pytest.mark.parametrize("name", sorted(SPACES))
    def test_matches_sparse_form(self, name):
        spec = SPACES[name]
        f = Polynomial(spec.d, {a: 1.0 - 0.5j * sum(a) for a in multi_indices(spec.d, 2)})
        design, target, _ = indices._design_matrix(spec, Polynomial.one(spec.d), f, 5)
        assert isinstance(design, np.ndarray)
        dense = solver.solve_least_squares(design, target)
        sparse = solver.solve_least_squares(scipy.sparse.csc_matrix(design), target)
        assert (dense.method, sparse.method) == (solver.CHOLESKY, solver.CG)
        assert dense.residual == pytest.approx(sparse.residual, rel=1e-12, abs=1e-15)
        np.testing.assert_allclose(dense.coefficients, sparse.coefficients, rtol=1e-12,
                                   atol=1e-14)
        gram = scaled_gram(design)
        kappa1 = np.linalg.norm(gram, 1) * np.linalg.norm(np.linalg.inv(gram), 1)
        assert dense.gram_condition == pytest.approx(kappa1, rel=1e-12)
        assert kappa1 / 10 <= sparse.gram_condition <= kappa1 * (1 + 1e-9)

    @pytest.mark.parametrize("spec, f, n", [
        pytest.param(drury_arveson(2, 11), _mean_shift(2), 10, id="drury_arveson"),
        # moments falling 1e-3 per degree spread the column norms by 1e18
        pytest.param(SpaceSpec("diagonal_besov", 1, 0, 8, moments=MomentSequence(
            tuple(10.0 ** (-3 * j) for j in range(17)))), _mean_shift(1), 6, id="moments"),
    ])
    def test_power_of_two_scaling_keeps_the_unscaled_solution(self, spec, f, n):
        # scaling by powers of two rounds nothing, so every width's solution
        # is the one the unscaled Gram's factor gives, to the bit
        design, target, _ = indices._design_matrix(spec, Polynomial.one(spec.d), f, n,
                                                   solves=n + 1)
        assert isinstance(design, np.ndarray)
        norms = np.linalg.norm(design, axis=0)
        assert norms.max() / norms.min() > 10
        widths = [math.comb(k + spec.d, spec.d) for k in range(n + 1)]
        outs = solver.solve_nested(design, target, widths)
        unscaled = solver._dense_factor(design.conj().T @ design,
                                        (target.conj() @ design).conj(), widths)
        for out, (_, x) in zip(outs, unscaled):
            assert out.method == solver.CHOLESKY
            assert np.array_equal(out.coefficients, x)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_real_design_is_accepted(self, order):
        rng = np.random.default_rng(11)
        design = np.asarray(rng.standard_normal((40, 6)), order=order)
        target = rng.standard_normal(40)
        out = solver.solve_least_squares(design, target)
        assert out.method == solver.CHOLESKY
        assert_matches_dense_oracle(design, target, out)

    def test_ill_conditioned_vandermonde_falls_back(self):
        t = np.linspace(0.0, 1.0, 60)
        design = np.vander(t, 14, increasing=True)
        # an alternating part keeps the target off the span by far more than roundoff
        target = np.cos(3.0 * t) + 1e-3 * (-1.0) ** np.arange(60)
        out = solver.solve_least_squares(design, target)
        assert out.method == solver.QR_FALLBACK
        assert out.gram_condition > solver.DEFAULT_COND_THRESHOLD
        # at kappa(A) near 1e9 real and complex LAPACK drivers part at 1e-9, so the
        # oracle takes the complex one that the solver takes
        want = np.linalg.lstsq(design.astype(complex), target.astype(complex), rcond=None)[0]
        np.testing.assert_allclose(out.coefficients, want, rtol=1e-12, atol=0)
        # the residual cancels coefficients near 1e5 down to 1e-2
        assert out.residual == pytest.approx(np.linalg.norm(target - design @ want), rel=1e-8)


class TestNestedSolve:
    """`solve_nested` against each width solved on its own (`per_width_solves`),
    on sweep designs on both sides of the route rule."""

    @pytest.mark.parametrize("spec, n_max, dense", [
        pytest.param(dirichlet_type(1, 41), 40, True, id="d1-dense"),
        pytest.param(hardy(1, 513), 512, False, id="d1-cg"),
        pytest.param(drury_arveson(2, 17), 16, True, id="d2-dense"),
        pytest.param(drury_arveson(2, 23), 22, False, id="d2-cg"),
        pytest.param(drury_arveson(3, 8), 7, True, id="d3-dense"),
        pytest.param(drury_arveson(3, 10), 9, False, id="d3-cg"),
    ])
    def test_matches_per_width_solves(self, spec, n_max, dense):
        d = spec.d
        design, target, _ = indices._design_matrix(
            spec, Polynomial.one(d), _mean_shift(d), n_max, solves=n_max + 1)
        widths = [math.comb(n + d, d) for n in range(n_max + 1)]
        assert solver.dense_route(widths[-1], len(widths)) == dense
        outs = solver.solve_nested(design, target, widths)
        # the per-width reference at every width would take seconds at d = 1
        picked = range(0, len(widths), 1 if dense or d > 1 else 64)
        want = per_width_solves(design, target, [widths[i] for i in picked])
        got = [outs[i] for i in picked]
        np.testing.assert_allclose([out.residual for out in got], [w[0] for w in want],
                                   rtol=1e-12, atol=0)
        # the CG route solves the normal equations that the reference factors
        route = solver.CHOLESKY if dense else solver.CG
        assert [out.method for out in got] == [
            route if w[1] == solver.CHOLESKY else w[1] for w in want]
        gram = scaled_gram(design, exact=not dense)
        for i, out in zip(picked, got):
            block = gram[:widths[i], :widths[i]]
            if dense:
                kappa1 = np.linalg.cond(block, 1)
                assert out.gram_condition == pytest.approx(kappa1, rel=1e-10)
            else:
                spectrum = np.linalg.eigvalsh(block)
                kappa2 = spectrum[-1] / spectrum[0]
                assert kappa2 / 10 <= out.gram_condition <= kappa2 * (1 + 1e-9)

    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("last", ["duplicate", "zero"])
    def test_singular_last_width_falls_back_alone(self, last, sparse):
        # a duplicate column leaves the widest Gram a pivot at roundoff level,
        # which Cholesky may pass; a zero column leaves a zero pivot, which
        # it refuses, and then each width is factored on its own. The CSC
        # copy takes CG, which refuses a zero column before it iterates
        rng = np.random.default_rng(5)
        dense = rng.standard_normal((12, 6)) + 1j * rng.standard_normal((12, 6))
        dense[:, 5] = dense[:, 2] if last == "duplicate" else 0
        target = rng.standard_normal(12) + 0j
        design = scipy.sparse.csc_matrix(dense) if sparse else np.asfortranarray(dense)
        factored, real_cholesky = [], np.linalg.cholesky

        def spy_cholesky(gram):
            factored.append(len(gram))
            return real_cholesky(gram)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.linalg, "cholesky", spy_cholesky)
            outs = solver.solve_nested(design, target, range(1, 7))
        route = solver.CG if sparse else solver.CHOLESKY
        if last == "zero":
            assert factored == ([] if sparse else [6, 1, 2, 3, 4, 5, 6])
            assert outs[5].gram_condition == math.inf
        if last == "duplicate" and sparse:
            # the Lanczos estimate sees only the Krylov space CG spans, so it
            # misses the repeated column (kappa_2 about 5.3); the residual is
            # still the optimum
            assert [out.method for out in outs] == [route] * 6
            assert outs[5].gram_condition < 10
        else:
            assert [out.method for out in outs] == [route] * 5 + [solver.QR_FALLBACK]
        want = per_width_solves(dense, target, range(1, 7))
        np.testing.assert_allclose([out.residual for out in outs], [w[0] for w in want],
                                   rtol=1e-12, atol=0)
        # the sixth column adds nothing to the span of the first five
        assert outs[5].residual == pytest.approx(outs[4].residual, rel=1e-12)


class TestSingularGram:
    """A zero column makes the Gram exactly singular: Cholesky refuses its zero
    pivot on the dense route, and the CG route refuses the column before it
    iterates. Either way the condition is infinite and the dense
    least-squares fallback answers."""

    @pytest.mark.parametrize("cols, sparse", [(6, False), (80, True)])
    def test_zero_column_falls_back(self, cols, sparse):
        rng = np.random.default_rng(3)
        dense = rng.standard_normal((2 * cols, cols)) + 1j * rng.standard_normal((2 * cols, cols))
        dense[:, cols // 2] = 0
        target = rng.standard_normal(2 * cols) + 0j
        design = scipy.sparse.csc_matrix(dense) if sparse else np.asfortranarray(dense)
        out = solver.solve_least_squares(design, target)
        assert out.method == solver.QR_FALLBACK
        assert out.gram_condition == math.inf
        want = np.linalg.lstsq(dense, target, rcond=None)[0]
        assert out.residual == pytest.approx(np.linalg.norm(target - dense @ want), rel=1e-12)


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
    def test_constructors_reject(self, bad):
        with pytest.raises(ArgumentError):
            Polynomial(1, {(0,): 1.0, (1,): bad})
        with pytest.raises(ArgumentError):
            FreePolynomial(2, {(): 1.0, (1, 2): bad})
        with pytest.raises(ArgumentError):
            Polynomial.from_json([{"exponents": [1], "re": bad.real, "im": bad.imag}])
        if bad.imag == 0:
            with pytest.raises(ArgumentError):
                MomentSequence((1.0, bad, 0.5))
        with pytest.raises(ArgumentError):
            BoundaryCloud(np.array([[1.0 + 0j], [bad]]))

    def test_solver_wraps_fallback_failure(self):
        design = np.array([[math.nan, 1.0], [1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(NumericFailureError):
            solver.solve_least_squares(design, np.ones(3))

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_cli_rejects_non_finite_config(self, tmp_path, capsys, literal):
        cfg = tmp_path / "index.json"
        cfg.write_text(
            '{"space": "hardy(1)", "function": {"coeffs1d": [1, %s]}, "n": 3}' % literal
        )
        assert main(["index", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "non-finite" in capsys.readouterr().err

    def test_cli_numeric_failure_exits_3(self, tmp_path, monkeypatch, capsys):
        # the nearly dependent shifts of (1 - z)^6 push even the equilibrated
        # Gram past the fallback switch
        cfg = tmp_path / "index.json"
        cfg.write_text(json.dumps({"space": "hardy(1)",
                                   "function": {"coeffs1d": [1, -6, 15, -20, 15, -6, 1]},
                                   "n": 58}))

        def failing_lstsq(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "lstsq", failing_lstsq)
        assert main(["index", "--config", str(cfg), "--out", str(tmp_path)]) == 3
        assert "numeric failure" in capsys.readouterr().err

    def test_threads_flag_is_gone(self, tmp_path):
        cfg = tmp_path / "index.json"
        cfg.write_text(json.dumps({"space": "hardy(1)", "function": {"coeffs1d": [1, -1]},
                                   "n": 2}))
        with pytest.raises(SystemExit) as exc:
            main(["index", "--config", str(cfg), "--threads", "2"])
        assert exc.value.code == 2


def test_cg_route_loads_no_scipy_linalg():
    # a CSC sweep needs scipy.sparse's products alone, while importing
    # scipy.sparse.linalg costs a fresh process about 0.14 s; only what
    # cyclicity adds to the baseline counts
    script = (
        "import sys, numpy, scipy.sparse\n"
        "before = set(sys.modules)\n"
        "from cyclicity import indices, solver, spaces\n"
        "from cyclicity.poly import Polynomial\n"
        "f = Polynomial(3, {(0, 0, 0): 1.0, (1, 0, 0): -0.5, (0, 0, 1): -0.5})\n"
        "report = indices.index_sweep(spaces.drury_arveson(3, 10), f, 9)\n"
        "assert set(report.solve_methods) == {solver.CG}, report.solve_methods\n"
        "heavy = ('scipy.sparse.linalg', 'scipy.linalg')\n"
        "print([m for m in heavy if m in sys.modules and m not in before])\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=subprocess_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_spec_weight_vector_follows_graded_order():
    spec = SpaceSpec("drury_arveson", 3, max_degree=6)
    vector = spec.weight_vector(5)
    keys = multi_indices(3, 5)
    assert vector.tolist() == [spec.monomial_norm_sq(a) for a in keys]
