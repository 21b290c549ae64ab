import math

import numpy as np
import pytest

from cyclicity.errors import (
    ArgumentError,
    DegenerateInputError,
    DegreeRangeError,
    DimensionMismatchError,
    SingularInversionError,
)
from cyclicity.freespace import (
    FreePolynomial,
    FreeSpaceSpec,
    abelianize,
    compression_check,
    evaluate_on_tuple,
    free_besov,
    free_hardy,
    free_subspace_distance,
    row_contraction_inversion_report,
    sample_row_contraction,
    words,
)
from cyclicity.indices import subspace_distance
from cyclicity.poly import invert_power_series
from cyclicity.spaces import SpaceSpec, drury_arveson, hardy
from helpers import (coeff_distance, random_free_polynomial, random_polynomial,
                     sample_row_contraction_by_letter)

I2 = FreePolynomial.identity(2)
Z1 = FreePolynomial.letter(1, 2)
Z2 = FreePolynomial.letter(2, 2)


class TestWordsAndArithmetic:
    def test_word_enumeration_order(self):
        assert words(2, 2) == [
            (),
            (1,),
            (2,),
            (1, 1),
            (1, 2),
            (2, 1),
            (2, 2),
        ]

    def test_noncommutativity_witness(self):
        assert (Z1 * Z2).coeffs == {(1, 2): 1.0}
        assert (Z2 * Z1).coeffs == {(2, 1): 1.0}
        assert Z1 * Z2 != Z2 * Z1
        assert 2 * (Z1 * Z2) == (Z1 * Z2) * 2 == 2 * Z1 * Z2

    def test_identity(self):
        rng = np.random.default_rng(2)
        F = random_free_polynomial(rng, 2, 3, density=0.5)
        assert I2 * F == F
        assert F * I2 == F

    def test_difference_expansion(self):
        assert (I2 - Z1) * (I2 + Z1) == I2 - Z1 * Z1

    def test_associativity_random(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = random_free_polynomial(rng, 2, 2, density=0.6)
            b = random_free_polynomial(rng, 2, 2, density=0.6)
            c = random_free_polynomial(rng, 2, 2, density=0.6)
            assert coeff_distance((a * b) * c, a * (b * c)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            Z1 * FreePolynomial.letter(1, 3)

    def test_repeated_word_rejected(self):
        terms = [{"letters": [], "re": 1}, {"letters": [1], "re": -1}, {"letters": [1], "re": -1}]
        with pytest.raises(ArgumentError, match="repeated"):
            FreePolynomial.from_json(terms, 2)

    def test_terms_must_be_a_list(self):
        with pytest.raises(ArgumentError):
            FreePolynomial.from_json({"letters": [1], "re": 1.0}, 2)


class TestFreeNorms:
    def test_identity_norm(self):
        assert free_hardy(2).norm(I2) == 1.0

    def test_two_letters(self):
        assert free_hardy(2).norm(Z1 + Z2) == pytest.approx(math.sqrt(2.0))

    def test_besov_letter_weight(self):
        assert free_besov(1, s=1.0).norm(FreePolynomial.letter(1, 1)) == pytest.approx(
            2.0
        )

    def test_length_overflow(self):
        spec = free_hardy(2, max_length=2)
        with pytest.raises(Exception):
            spec.norm(Z1 * Z1 * Z1)

    @pytest.mark.parametrize("d, length, count", [(2, 21, 2**22 - 1), (3, 13, (3**14 - 1) // 2)])
    def test_weight_table_stops_at_the_monomial_bound(self, d, length, count):
        # free Hardy indices at d = 2, n = 20 and d = 3, n = 12 of a linear G
        # tabulate words up to these lengths, within 2^22; one length more
        # passes the bound, and the space itself stays constructible
        spec = free_hardy(d, length + 1)
        assert len(spec.weight_vector(length)) == count
        with pytest.raises(DegreeRangeError, match=f"length <= {length + 1} .* 4194304"):
            spec.weight_vector(length + 1)

    def test_spec_json(self):
        assert free_hardy(2, 5).to_json() == {"kind": "free_hardy", "d": 2, "maxLength": 5}
        besov = free_besov(3, 0.5, 4)
        obj = besov.to_json()
        assert obj == {"kind": "free_besov", "d": 3, "maxLength": 4, "s": 0.5}
        clone = FreeSpaceSpec.from_json(obj)
        assert (clone.kind, clone.d, clone.max_length) == ("free_besov", 3, 4)
        assert [clone.weight(k) for k in range(5)] == [besov.weight(k) for k in range(5)]

    def test_free_hardy_rejects_a_smoothness(self):
        with pytest.raises(ArgumentError):
            FreeSpaceSpec.from_json({"kind": "free_hardy", "d": 2, "s": 2.0})
        with pytest.raises(ArgumentError):
            FreeSpaceSpec("free_hardy", 2, 4, smoothness=1.0)
        assert FreeSpaceSpec.from_json({"kind": "free_hardy", "d": 2, "s": 0}).max_length == 12


class TestFreeSubspaceDistance:
    def test_identity_target(self):
        res = free_subspace_distance(free_hardy(2, 8), I2, I2, 0)
        assert res.residual == pytest.approx(0.0, abs=1e-14)

    def test_orthogonal_generator(self):
        res = free_subspace_distance(free_hardy(2, 8), I2, Z1, 4)
        assert res.residual == pytest.approx(1.0, abs=1e-12)

    def test_scalar_minimization(self):
        res = free_subspace_distance(free_hardy(2, 8), I2, I2 - Z1, 0)
        assert res.residual == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_monotone_in_length(self):
        rng = np.random.default_rng(13)
        G = random_free_polynomial(rng, 2, 2, density=0.7)
        spec = free_hardy(2, 9)
        values = [
            free_subspace_distance(spec, I2, G, n).residual for n in range(7)
        ]
        for lo, hi in zip(values[1:], values):
            assert lo <= hi + 1e-12

    def test_zero_generator_rejected(self):
        with pytest.raises(DegenerateInputError):
            free_subspace_distance(free_hardy(2, 8), I2, FreePolynomial.zero(2), 1)

    @pytest.mark.parametrize("family", ["hardy", "besov"])
    def test_one_letter_is_the_commutative_problem(self, family):
        # at d = 1 the word Z1^k is z^k, so both indices solve the same
        # least-squares problem and must agree bit for bit; n runs past the
        # 64 columns of the dense route into the sparse one
        def word(p):
            return FreePolynomial(1, {(1,) * k: c for (k,), c in p.coeffs.items()})

        rng = np.random.default_rng(21)
        for _ in range(40):
            f = random_polynomial(rng, 1, int(rng.integers(0, 4)), density=0.8)
            g = random_polynomial(rng, 1, int(rng.integers(0, 6)), density=0.6)
            n = int(rng.integers(0, 81))
            top = max(n + f.degree, g.degree)
            if family == "hardy":
                free_spec, spec = free_hardy(1, top), hardy(1, top)
            else:
                s = float(rng.uniform(0.0, 1.5))
                weights = {(k,): float(k + 1) ** (2.0 * s) for k in range(top + 1)}
                free_spec = free_besov(1, s, top)
                spec = SpaceSpec("custom_diagonal", 1, 0, top, custom_weights=weights)
            free = free_subspace_distance(free_spec, word(g), word(f), n)
            comm = subspace_distance(spec, g, f, n)
            assert (free.residual, free.gram_condition, free.solve_method) == (
                comm.residual, comm.gram_condition, comm.solve_method)
            assert free.phi == word(comm.phi)


class TestAbelianize:
    def test_symmetric_pair(self):
        p = abelianize(Z1 * Z2 + Z2 * Z1)
        assert p.coeffs == {(1, 1): 2.0}

    def test_unital(self):
        assert abelianize(I2).coeffs == {(0, 0): 1.0}

    def test_repeated_letters(self):
        p = abelianize(Z1 * Z1 * Z2)
        assert p.coeffs == {(2, 1): 1.0}

    def test_multiplicative_random(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            F = random_free_polynomial(rng, 2, 2, density=0.7)
            G = random_free_polynomial(rng, 2, 2, density=0.7)
            assert (
                coeff_distance(abelianize(F * G), abelianize(F) * abelianize(G))
                < 1e-12
            )

    def test_norm_contraction_into_drury_arveson(self):
        rng = np.random.default_rng(23)
        spec_free = free_hardy(2, 6)
        spec_da = drury_arveson(2, 8)
        for _ in range(10):
            F = random_free_polynomial(rng, 2, 3, density=0.6)
            assert spec_da.norm(abelianize(F)) <= spec_free.norm(F) + 1e-12


class TestFreeInversion:
    def test_identity(self):
        assert invert_power_series(I2, 4) == I2

    def test_free_geometric_series(self):
        theta = invert_power_series(2 * I2 - Z1, 2)
        assert theta.coeffs == {
            (): 0.5,
            (1,): 0.25,
            (1, 1): 0.125,
        }

    def test_inverse_over_many_letters_holds_only_its_terms(self):
        # a walk over every word would visit 64^5 of them at length 5
        psi = 2.0 * FreePolynomial.identity(64) - FreePolynomial.letter(1, 64)
        theta = invert_power_series(psi, 5)
        assert list(theta.coeffs.items()) == [((1,) * k, 2.0 ** -(k + 1)) for k in range(6)]

    def test_vanishing_identity_coefficient(self):
        with pytest.raises(SingularInversionError):
            invert_power_series(Z1, 2)

    def test_truncated_defect_vanishes(self):
        rng = np.random.default_rng(29)
        Psi = random_free_polynomial(rng, 2, 2, density=0.7) + 4.0
        theta = invert_power_series(Psi, 4)
        defect = Psi * theta - I2
        low = [c for w, c in defect.coeffs.items() if len(w) <= 4]
        assert max((abs(c) for c in low), default=0.0) < 1e-13


class TestTupleEvaluation:
    def test_identity_element(self):
        mats = [np.zeros((3, 3)), np.zeros((3, 3))]
        assert np.allclose(evaluate_on_tuple(I2, mats), np.eye(3))

    def test_scalar_tuple(self):
        half = 0.5 * np.eye(2)
        out = evaluate_on_tuple(Z1 * Z2, [half, half])
        assert np.allclose(out, 0.25 * np.eye(2))

    def test_commutator_vanishes_on_commuting_tuple(self):
        m = np.diag([0.3, 0.7])
        out = evaluate_on_tuple(Z1 * Z2 - Z2 * Z1, [m, 0.5 * m])
        assert np.allclose(out, 0.0)

    def test_multiplicative_random(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            F = random_free_polynomial(rng, 2, 2, density=0.7)
            G = random_free_polynomial(rng, 2, 2, density=0.7)
            mats = sample_row_contraction(2, 4, 0.8, seed=rng.integers(1 << 30))
            lhs = evaluate_on_tuple(F * G, mats)
            rhs = evaluate_on_tuple(F, mats) @ evaluate_on_tuple(G, mats)
            assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_size_mismatch(self):
        with pytest.raises(ArgumentError):
            evaluate_on_tuple(Z1, [np.zeros((2, 3)), np.zeros((3, 3))])


class TestRowContractions:
    def test_scalar_case(self):
        (z,) = sample_row_contraction(1, 1, 0.6, seed=4)
        assert abs(abs(z[0, 0]) - 0.6) < 1e-12

    def test_row_norm_exact(self):
        mats = sample_row_contraction(3, 6, 0.9, seed=11)
        row = np.hstack(mats)
        top = np.linalg.svd(row, compute_uv=False)[0]
        assert abs(top - 0.9) < 1e-12

    def test_zero_radius(self):
        mats = sample_row_contraction(2, 4, 0.0, seed=1)
        assert all(np.all(m == 0) for m in mats)

    def test_reproducible(self):
        a = sample_row_contraction(2, 5, 0.7, seed=99)
        b = sample_row_contraction(2, 5, 0.7, seed=99)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_generator_seed_is_drawn_in_place(self):
        rng = np.random.default_rng(99)
        first = sample_row_contraction(2, 5, 0.7, rng)
        second = sample_row_contraction(2, 5, 0.7, rng)
        fresh = sample_row_contraction(2, 5, 0.7, seed=99)
        assert all(np.array_equal(x, y) for x, y in zip(first, fresh))
        assert not np.array_equal(first[0], second[0])

    @pytest.mark.parametrize("d, size, rho", [(1, 1, 0.6), (3, 4, 0.9), (5, 2, 0.0), (2, 7, 0.3)])
    def test_one_draw_matches_the_per_letter_loop(self, d, size, rho):
        for seed in (0, 17):
            got = sample_row_contraction(d, size, rho, seed)
            want = sample_row_contraction_by_letter(d, size, rho, seed)
            assert len(got) == d
            assert all(np.array_equal(x, y) for x, y in zip(got, want))
        # a Generator is left at the same place in its stream, rho = 0 included
        rng, reference = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(2):
            got = sample_row_contraction(d, size, rho, rng)
            want = sample_row_contraction_by_letter(d, size, rho, reference)
            assert all(np.array_equal(x, y) for x, y in zip(got, want))
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_tuple_replay_round_trip(self):
        from cyclicity.freespace import tuple_from_json, tuple_to_json

        mats = sample_row_contraction(2, 3, 0.5, seed=21)
        replayed = tuple_from_json(tuple_to_json(mats))
        assert all(np.allclose(x, y) for x, y in zip(mats, replayed))


class TestCompression:
    def test_identity_generator(self):
        rep = compression_check(free_hardy(2, 8), drury_arveson(2, 8), I2, 3)
        assert rep.free_residual == pytest.approx(0.0, abs=1e-12)
        assert rep.commutative_residual == pytest.approx(0.0, abs=1e-12)
        assert rep.holds

    def test_letter_generator(self):
        rep = compression_check(free_hardy(2, 8), drury_arveson(2, 8), Z1, 3)
        assert rep.free_residual == pytest.approx(1.0, abs=1e-12)
        assert rep.commutative_residual == pytest.approx(1.0, abs=1e-12)
        assert rep.holds

    def test_symmetric_affine_generator(self):
        G = I2 - 0.5 * (Z1 + Z2)
        # scalar budget: both sides minimize |1-c|^2 + |c|^2/2 at c = 2/3
        rep0 = compression_check(free_hardy(2, 10), drury_arveson(2, 8), G, 0)
        assert rep0.free_residual == pytest.approx(math.sqrt(1.0 / 3.0), abs=1e-12)
        assert rep0.commutative_residual == pytest.approx(
            math.sqrt(1.0 / 3.0), abs=1e-12
        )
        rep6 = compression_check(free_hardy(2, 10), drury_arveson(2, 8), G, 6)
        assert rep6.holds

    def test_seeded_generators(self):
        rng = np.random.default_rng(37)
        spec_free = free_hardy(2, 9)
        spec_da = drury_arveson(2, 10)
        for _ in range(10):
            G = random_free_polynomial(rng, 2, 2, density=0.7)
            rep = compression_check(spec_free, spec_da, G, 4)
            assert rep.holds

    def test_pairing_validation(self):
        with pytest.raises(ArgumentError):
            compression_check(free_besov(2, 1.0, 8), drury_arveson(2, 8), I2, 1)


class TestCoronaWitness:
    def test_spectral_floor_and_stabilization(self):
        rep = row_contraction_inversion_report(
            d=2, rho=0.9, samples=25, size=6, seed=5, l_max=10
        )
        # |2I - Z1| is bounded below by 2 - rho on every sampled tuple
        assert rep.min_over_samples >= 2.0 - 0.9 - 1e-9
        assert rep.theta_stabilized
        assert rep.tuple_norm_envelope is not None
        assert rep.max_tuple_norm <= rep.tuple_norm_envelope + 1e-9
        for lo, hi in zip(rep.theta_norms, rep.theta_norms[1:]):
            assert hi >= lo - 1e-12

    @pytest.mark.parametrize("d, l_max", [(1, 1), (1, 200), (2, 10), (3, 30)])
    def test_theta_norms_are_the_truncation_norms(self, d, l_max):
        # bit for bit the norm of each truncation of the inverse series
        rep = row_contraction_inversion_report(d=d, rho=0.5, samples=1, size=2, seed=1,
                                               l_max=l_max)
        psi = 2.0 * FreePolynomial.identity(d) - FreePolynomial.letter(1, d)
        theta = invert_power_series(psi, l_max)
        space = free_hardy(d, max_length=l_max)
        assert rep.theta_norms == [space.norm(theta.truncated(k)) for k in range(l_max + 1)]

    @pytest.mark.parametrize("rho, size", [(1.5, 3), (-0.1, 3), (0.5, 0)])
    def test_rejects_non_contractions_and_empty_tuples(self, rho, size):
        with pytest.raises(ArgumentError):
            row_contraction_inversion_report(d=2, rho=rho, samples=2, size=size, seed=1)
