"""Sparse least-squares core: assembly against dense polynomial products, the
sparse Gram solve against a dense oracle, the dense-design route, the
condition estimate, residual invariants of index, sweep and free index, and
non-finite input."""

import json
import math

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
from helpers import design_entries, solves_of

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
        assert isinstance(design, np.ndarray) == (
            len(cols) <= solver.DENSE_MAX_COLUMNS
            and design.shape[0] * len(cols) <= solver.DENSE_MAX_ENTRIES)
        rows = multi_indices(spec.d, n + f.degree)
        dense = np.zeros((len(rows), len(cols)), dtype=complex)
        for j, gamma in enumerate(cols):
            for alpha, c in (Polynomial.monomial(gamma) * f).coeffs.items():
                dense[rows.index(alpha), j] = c * math.sqrt(spec.monomial_norm_sq(alpha))
        array, stored = design_entries(design)
        assert stored == len(cols) * len(f.coeffs)
        np.testing.assert_allclose(array, dense, rtol=1e-15, atol=0)
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
        for j, u in enumerate(cols):
            for w, c in (FreePolynomial(d, {u: 1.0}) * G).coeffs.items():
                dense[rows.index(w), j] = c * math.sqrt(spec.weight(len(w)))
        expected_target = np.zeros(len(rows), dtype=complex)
        for w, c in g.coeffs.items():
            expected_target[rows.index(w)] = c * math.sqrt(spec.weight(len(w)))
        array, stored = design_entries(design)
        assert stored == len(cols) * len(G.coeffs)
        np.testing.assert_allclose(array, dense, rtol=1e-15, atol=0)
        np.testing.assert_allclose(target, expected_target, rtol=1e-15, atol=0)

    def test_tall_free_design_stays_sparse(self):
        # 40 columns over every word of length <= 12 in 3 letters: a dense
        # array would hold 797,161 x 40 entries for the 80 that are stored
        spec = free_hardy(3, 12)
        G = FreePolynomial(3, {(): 1.0, (1,): -1.0})
        g = FreePolynomial(3, {(): 1.0, (2,) * 12: 1.0})
        out, seen = solves_of(indices, lambda: free_subspace_distance(spec, g, G, 3))
        ((design, _, _),) = seen
        assert not isinstance(design, np.ndarray)
        assert design.shape == ((3**13 - 1) // 2, 40)
        assert design.nnz == 80
        # only the columns Z1^k G touch the powers of Z1, so 1 sits at the
        # d=1 distance 1/(n+2) and Z2^12 is orthogonal to every column
        assert out.residual**2 == pytest.approx(1.0 + 1.0 / 5.0, rel=1e-12)

    @pytest.mark.parametrize("name", sorted(SPACES))
    def test_multiplication_section_matches_loop(self, name):
        spec = SPACES[name]
        phi = Polynomial(spec.d, {a: 1.5 - 0.5j * sum(a) for a in multi_indices(spec.d, 2)})
        n_in, n_out = 3, 5
        rows, cols = multi_indices(spec.d, n_out), multi_indices(spec.d, n_in)
        loop = np.zeros((len(rows), len(cols)), dtype=complex)
        for j, beta in enumerate(cols):
            nb = math.sqrt(spec.monomial_norm_sq(beta))
            for tau, c in phi.coeffs.items():
                alpha = tuple(b + t for b, t in zip(beta, tau))
                loop[rows.index(alpha), j] += c * math.sqrt(spec.monomial_norm_sq(alpha)) / nb
        # complex-by-real division may round differently in numpy, one ulp at most
        section = mult_operator_section(spec, phi, n_in, n_out)
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
        # the n_max = 70 sweep solves column slices of one CSC design, while
        # single indices are dense up to n = 63 and sparse from n = 64
        spec = hardy(1, 71)
        f = Polynomial.from_coeffs1d([1.0, -1.0])
        one = Polynomial.one(1)
        report, seen = solves_of(indices, lambda: index_sweep(spec, f, 70))
        assert not any(isinstance(design, np.ndarray) for design, _, _ in seen)
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
        gram = (design.conj().T @ design).toarray()
        kappa1 = np.linalg.norm(gram, 1) * np.linalg.norm(np.linalg.inv(gram), 1)
        assert kappa1 / 10 <= first.gram_condition <= kappa1 * (1 + 1e-9)
        assert first.method == solver.CHOLESKY

    def test_small_gram_is_exact(self):
        design = np.array([[2.0, 0.0], [1.0, 1.0], [0.0, 3.0]])
        out = solver.solve_least_squares(design, np.ones(3))
        gram = design.T @ design
        kappa1 = np.linalg.norm(gram, 1) * np.linalg.norm(np.linalg.inv(gram), 1)
        assert out.gram_condition == pytest.approx(kappa1, rel=1e-12)


class TestDenseRoute:
    """An ndarray design takes the numpy route (a dense Gram, its exact kappa_1 and
    an LU solve), a sparse one SuperLU and Hager's estimate; both share the
    threshold, the fallback and the residual."""

    @pytest.mark.parametrize("name", sorted(SPACES))
    def test_matches_sparse_form(self, name):
        spec = SPACES[name]
        f = Polynomial(spec.d, {a: 1.0 - 0.5j * sum(a) for a in multi_indices(spec.d, 2)})
        design, target, _ = indices._design_matrix(spec, Polynomial.one(spec.d), f, 5)
        assert isinstance(design, np.ndarray)
        dense = solver.solve_least_squares(design, target)
        sparse = solver.solve_least_squares(scipy.sparse.csc_matrix(design), target)
        assert dense.method == sparse.method
        assert dense.residual == pytest.approx(sparse.residual, rel=1e-12, abs=1e-15)
        np.testing.assert_allclose(dense.coefficients, sparse.coefficients, rtol=1e-12,
                                   atol=1e-14)
        gram = design.conj().T @ design
        kappa1 = np.linalg.norm(gram, 1) * np.linalg.norm(np.linalg.inv(gram), 1)
        assert dense.gram_condition == pytest.approx(kappa1, rel=1e-12)
        assert kappa1 / 10 <= sparse.gram_condition <= kappa1 * (1 + 1e-9)

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


class TestSingularGram:
    """A zero column makes the Gram exactly singular: numpy's LU raises on the
    dense route, SuperLU finds a zero pivot on the sparse one. Either way the
    condition is infinite and the dense least-squares fallback answers."""

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
        # moments falling 1e-3 per step push the Gram past the fallback switch
        moments = [10.0 ** (-3 * j) for j in range(17)]
        space = {"kind": "diagonal_besov", "d": 1, "N": 0, "maxDegree": 8, "moments": moments}
        cfg = tmp_path / "index.json"
        cfg.write_text(json.dumps({"space": space, "function": {"coeffs1d": [1, -1]}, "n": 6}))

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


def test_spec_weight_vector_follows_graded_order():
    spec = SpaceSpec("drury_arveson", 3, max_degree=6)
    vector = spec.weight_vector(5)
    keys = multi_indices(3, 5)
    assert vector.tolist() == [spec.monomial_norm_sq(a) for a in keys]
