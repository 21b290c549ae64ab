"""One distance solve for both algebras: closed-form residuals in commutative
and free spaces, and refusal of a series from the other algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclicity.errors import DimensionMismatchError
from cyclicity.freespace import (
    FreePolynomial,
    free_besov,
    free_hardy,
    free_subspace_distance,
)
from cyclicity.indices import subspace_distance
from cyclicity.poly import Polynomial
from cyclicity.spaces import SpaceSpec, bergman, dirichlet_type, drury_arveson

ORACLE = settings(max_examples=20, deadline=None, derandomize=True, database=None)
# in 150 seeded draws per family the largest relative errors were 2.2e-15
# (Drury-Arveson), 6.9e-16 (d = 1) and 2.4e-14 (free Besov at s = 1)
RTOL = 1e-13


@st.composite
def unit_vectors(draw, d):
    """A unit vector of C^d from a direction drawn away from the origin."""
    parts = draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * d, max_size=2 * d)
                 .filter(lambda v: np.linalg.norm(v) > 0.1))
    u = np.array(parts[:d]) + 1j * np.array(parts[d:])
    return u / np.linalg.norm(u)


def boundary_zero(u) -> Polynomial:
    """1 - <z, u>, whose zero u lies on the unit sphere."""
    d = len(u)
    terms = {tuple(int(i == j) for i in range(d)): -u[j].conjugate() for j in range(d)}
    return Polynomial(d, {(0,) * d: 1.0, **terms})


def free_boundary_zero(u) -> FreePolynomial:
    """1 - sum conj(u_j) Z_j, the free analogue of 1 - <z, u>."""
    return FreePolynomial(len(u), {(): 1.0, **{(j + 1,): -c.conjugate() for j, c in enumerate(u)}})


def one_minus_z_residual_sq(weights) -> float:
    """residual^2 of 1 - z at budget n in a d = 1 space of weights w_0..w_(n+1)."""
    return 1.0 / sum(1.0 / w for w in weights)


class TestClosedForms:
    # a unitary change of variables keeps the Drury-Arveson norm and maps
    # 1 - <z, u> to 1 - z_1, whose distance is the Hardy one, 1/(n+2)
    @pytest.mark.parametrize("d, n_max", [(2, 12), (3, 10)])
    @ORACLE
    @given(data=st.data())
    def test_drury_arveson_boundary_zero(self, d, n_max, data):
        u = data.draw(unit_vectors(d))
        n = data.draw(st.integers(0, n_max))
        out = subspace_distance(drury_arveson(d, n + 1), Polynomial.one(d), boundary_zero(u), n)
        assert out.residual**2 == pytest.approx(1.0 / (n + 2), rel=RTOL, abs=0)

    # with weights w_k the distance from 1 to the multiples of 1 - z of
    # degree <= n + 1 is 1 / sum_(k <= n+1) 1/w_k
    @pytest.mark.parametrize("name", ["bergman", "dirichlet_type", "custom_diagonal"])
    @ORACLE
    @given(n=st.integers(0, 40), alpha=st.floats(0.0, 3.0))
    def test_one_minus_z_in_one_variable(self, name, n, alpha):
        top = n + 1
        if name == "bergman":  # moments 2/(2k + 2) of 2r dr
            spec, weights = bergman(1, top), [1.0 / (k + 1) for k in range(top + 1)]
        elif name == "dirichlet_type":  # k^2 times those moments, and m[0] at k = 0
            spec = dirichlet_type(1, top)
            weights = [1.0] + [k * k / (k + 1) for k in range(1, top + 1)]
        else:
            weights = [(k + 1.0) ** alpha for k in range(top + 1)]
            spec = SpaceSpec("custom_diagonal", 1, max_degree=top,
                             custom_weights={(k,): w for k, w in enumerate(weights)})
        f = Polynomial.from_coeffs1d([1.0, -1.0])
        out = subspace_distance(spec, Polynomial.one(1), f, n)
        assert out.residual**2 == pytest.approx(one_minus_z_residual_sq(weights), rel=RTOL, abs=0)

    # a unitary mixing of the letters keeps the Fock space norm, and after
    # it only the words in Z_1 meet G, with weights (k+1)^(2s) by length
    @pytest.mark.parametrize("d, n_max", [(2, 10), (3, 6)])
    @ORACLE
    @given(data=st.data())
    def test_free_boundary_zero(self, d, n_max, data):
        u = data.draw(unit_vectors(d))
        n = data.draw(st.integers(0, n_max))
        s = data.draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]))
        spec = free_hardy(d, n + 1) if s == 0.0 else free_besov(d, s, n + 1)
        one = FreePolynomial.identity(d)
        out = free_subspace_distance(spec, one, free_boundary_zero(u), n)
        weights = [(k + 1.0) ** (2.0 * s) for k in range(n + 2)]
        assert out.residual**2 == pytest.approx(one_minus_z_residual_sq(weights), rel=RTOL, abs=0)


class TestOtherAlgebraRefused:
    def test_free_space_refuses_polynomials(self):
        z1 = Polynomial.variable(0, 2)
        with pytest.raises(DimensionMismatchError, match="FreeSpaceSpec takes FreePolynomials"):
            free_subspace_distance(free_hardy(2, 6), Polynomial.one(2), 1 - z1 / 2, 2)
        with pytest.raises(DimensionMismatchError, match="not Polynomial"):
            subspace_distance(free_hardy(2, 6), FreePolynomial.identity(2), 1 - z1 / 2, 2)

    def test_commutative_space_refuses_free_polynomials(self):
        one, z1 = FreePolynomial.identity(2), FreePolynomial.letter(1, 2)
        with pytest.raises(DimensionMismatchError, match="SpaceSpec takes Polynomials"):
            subspace_distance(drury_arveson(2, 8), one, one - 0.5 * z1, 2)
        with pytest.raises(DimensionMismatchError, match="not FreePolynomial"):
            free_subspace_distance(drury_arveson(2, 8), Polynomial.one(2), one - 0.5 * z1, 2)

    def test_norms_refuse_the_other_algebra(self):
        with pytest.raises(DimensionMismatchError):
            drury_arveson(2).norm(FreePolynomial.letter(1, 2))
        with pytest.raises(DimensionMismatchError):
            free_hardy(2).inner_product(FreePolynomial.identity(2), Polynomial.one(2))
