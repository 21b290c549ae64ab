"""Active-set equilibrium solver: KKT conditions, solve paths, convergence
reporting, and the quasi-uniform sphere sampler behind the neighborhood
measure."""

import copy
import json
import logging
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclicity import capacity as cap
from cyclicity.capacity import (
    BoundaryCloud,
    arc_cloud,
    circle_cloud,
    riesz_equilibrium,
    sphere_cap_cloud,
)
from cyclicity.cli import main
from cyclicity.errors import ArgumentError, NumericFailureError
from cyclicity.spaces import sphere_sample
from helpers import (copying_face_minimizer, float64_face_minimizer, numpy_face_minimizer,
                     numpy_products_equilibrium, subprocess_env, two_array_kernel)


def reference_kernel(cloud, alpha):
    """The regularized kernel, built from the full difference tensor."""
    pts = cloud.as_real()
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff**2).sum(-1))
    np.fill_diagonal(dist, np.inf)
    scale = dist.min(axis=1) / 2.0
    safe = np.where(np.isinf(dist), 1.0, dist)
    kernel = safe ** (-alpha) if alpha > 0 else -np.log(safe)
    np.fill_diagonal(kernel, scale ** (-alpha) if alpha > 0 else -np.log(scale))
    return kernel


def layout_free(cloud):
    """The same points without the equal step that `arc_cloud` and
    `circle_cloud` record: past NUMPY_MAX_FACE points they take the packed
    route, not the FFT one. A copy, since BoundaryCloud(cloud.points) would
    normalize the points again, and move some by an ulp."""
    free = copy.copy(cloud)
    free.step = None
    return free


def uneven_arc(seed):
    """700 points placed around the circle at random steps of 0.005 to
    0.015: the steps add up to about 7, so the cloud wraps past its start
    and some of its points lie much closer together."""
    gaps = 0.01 * (0.5 + np.random.default_rng(seed).random(700))
    return BoundaryCloud(np.exp(1j * np.cumsum(gaps))[:, None])


class TestActiveSet:
    def test_removal_path_satisfies_kkt(self):
        cloud = sphere_cap_cloud(300, 1.0)
        res = riesz_equilibrium(cloud, alpha=0.0)
        assert res.converged
        assert int(np.count_nonzero(res.weights == 0.0)) == 97
        grad = 2.0 * reference_kernel(cloud, 0.0) @ res.weights
        mu = float(grad @ res.weights)
        support = res.weights > 0
        assert np.all(grad >= mu - 1e-10)
        assert np.max(np.abs(grad[support] - mu)) <= 1e-10

    def test_solve_paths(self, monkeypatch):
        bordered_solves = spy_bordered_solves(monkeypatch)
        # an arc's log kernel is positive definite: past NUMPY_MAX_FACE
        # points the refined float32 Cholesky answers, and its weights are
        # those of the bordered system [K 1; 1^T 0]
        m = cap.NUMPY_MAX_FACE + 1
        arc = layout_free(arc_cloud(math.pi / 2, m))
        res = riesz_equilibrium(arc, alpha=0.0)
        assert res.converged and bordered_solves == []
        system = np.ones((m + 1, m + 1))
        system[:m, :m] = reference_kernel(arc, 0.0)
        system[m, m] = 0.0
        exact = np.linalg.solve(system, np.eye(m + 1)[m])[:m]
        assert np.max(np.abs(res.weights - exact)) <= 1e-12
        # the log kernel of the full circle is not positive definite: up to
        # NUMPY_MAX_FACE points numpy's bordered LU answers, past it spotrf
        # fails and LAPACK's dsysv solves the bordered system
        for n, route in [(511, "numpy"), (512, "dsysv")]:
            bordered_solves.clear()
            res = riesz_equilibrium(layout_free(circle_cloud(n)), alpha=0.0)
            assert bordered_solves == [(route, (n + 1, n + 1))]
            assert res.converged
            assert np.max(np.abs(res.weights - 1.0 / n)) <= 1e-12
            assert abs(res.capacity - (n * math.sin(math.pi / n)) ** (1.0 / n)) <= 1e-12
        # a kernel entry past the float32 range: the bordered solve answers
        bordered_solves.clear()
        res = riesz_equilibrium(uneven_arc(5), alpha=11.0)
        assert bordered_solves == [("dsysv", (701, 701))]
        assert res.converged and res.kkt_gap <= 1e-13 * res.energy

    def test_roundoff_add_cannot_cycle(self, monkeypatch):
        # a face solve that always gives point 0 a roundoff-negative weight,
        # although its gradient lies below the multiplier once it is out:
        # the point is added, dropped again, and the same face comes back
        real = cap._face_minimizer

        def refuse_first(kernel, free):
            z = real(kernel, free & (np.arange(len(free)) > 0))
            if free[0]:
                z[0] = -1e-17
            return z

        monkeypatch.setattr(cap, "_face_minimizer", refuse_first)
        res = riesz_equilibrium(arc_cloud(math.pi / 2, 64), alpha=0.0, max_iter=1000)
        assert res.iterations == 4
        assert not res.converged and res.kkt_gap > 1e-7
        assert res.weights[0] == 0.0 and res.weights.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("n", [512, 1000])
    def test_rounding_gain_keeps_the_start(self, n):
        # a regular polygon's uniform weights are its equilibrium, and its
        # face solution differs from them by rounding, as does its computed
        # energy, which can come out the lower; past NUMPY_MAX_FACE points
        # such a face is turned away and the start is returned unchanged
        res = riesz_equilibrium(layout_free(circle_cloud(n)), alpha=0.0)
        assert res.iterations == 1 and res.converged
        assert np.ptp(res.weights) == 0.0

    def test_bulk_drop_needs_few_solves(self):
        res = riesz_equilibrium(sphere_cap_cloud(768, 1.0), alpha=0.0)
        assert res.converged
        assert int(np.count_nonzero(res.weights == 0.0)) == 204
        assert res.iterations <= 20

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(
        slots=st.lists(st.integers(0, 719), min_size=3, max_size=60, unique=True),
        theta=st.floats(0.0, 2.0 * math.pi),
        alpha=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
    )
    def test_properties_on_circle_clouds(self, slots, theta, alpha):
        angles = 2.0 * math.pi * np.array(sorted(slots)) / 720.0
        cloud = BoundaryCloud(np.exp(1j * angles)[:, None])
        rotated = BoundaryCloud(np.exp(1j * (angles + theta))[:, None])
        res = riesz_equilibrium(cloud, alpha)
        turned = riesz_equilibrium(rotated, alpha)
        assert res.kkt_gap <= 1e-7 and res.converged
        assert abs(turned.energy - res.energy) <= 1e-12 * max(1.0, abs(res.energy))
        kernel = reference_kernel(cloud, alpha)
        uniform = np.full(len(angles), 1.0 / len(angles))
        assert res.energy <= float(uniform @ kernel @ uniform) + 1e-12


class TestOneKernel:
    """Past NUMPY_MAX_FACE points the kernel is held packed, n(n+1)/2
    float64 built by row blocks, beside one float32 array for a face's
    factor; up to it the same packed rows are unpacked into one n x n
    array. The face solves read the packed kernel and write nothing in it."""

    CLOUDS = {
        "arc512": lambda: (layout_free(arc_cloud(math.pi / 2, 512)), 0.0),
        "arc1024": lambda: (layout_free(arc_cloud(math.pi / 2, 1024)), 0.0),
        # not positive definite: the float32 Cholesky fails, then dsysv answers
        "circle1024": lambda: (layout_free(circle_cloud(1024)), 0.0),
        # points drop, so the later faces are partial
        "cap768-log": lambda: (sphere_cap_cloud(768, 1.0), 0.0),
        "cap768-riesz": lambda: (sphere_cap_cloud(768, 1.0), 1.0),
        "sphere-d3": lambda: (BoundaryCloud(sphere_sample(np.random.default_rng(3), 600, 3)), 3.0),
        # entries up to 2.1e41, past the float32 range: the bordered solve
        "uneven-riesz11": lambda: (uneven_arc(5), 11.0),
    }

    @pytest.mark.parametrize("name", list(CLOUDS))
    def test_packed_rows_match_reference(self, name):
        cloud, alpha = self.CLOUDS[name]()
        kernel = cap._riesz_kernel(cloud.as_real(), alpha)
        want = reference_kernel(cloud, alpha)
        n = len(want)
        assert kernel.rows.tobytes() == want[np.triu_indices(n)].tobytes()
        assert kernel.starts == [i * n - i * (i - 1) // 2 for i in range(n + 1)]
        assert cap._unpacked(kernel).tobytes() == want.tobytes()
        assert kernel.largest == np.abs(want).max()
        assert kernel.least == min(0.0, want.min())

    @pytest.mark.parametrize("name", list(CLOUDS))
    def test_matches_two_array_reference(self, name, monkeypatch):
        cloud, alpha = self.CLOUDS[name]()
        got = riesz_equilibrium(cloud, alpha)
        with monkeypatch.context() as mp:
            mp.setattr(cap, "_riesz_kernel", two_array_kernel)
            mp.setattr(cap, "_face_minimizer", copying_face_minimizer)
            want = riesz_equilibrium(cloud, alpha)
        assert got.weights.tobytes() == want.weights.tobytes()
        fields = ("energy", "capacity", "alpha", "iterations", "kkt_gap", "converged", "note")
        assert [getattr(got, k) for k in fields] == [getattr(want, k) for k in fields]
        if name == "cap768-log":
            assert got.iterations > 1 and np.any(got.weights == 0.0)

    @pytest.mark.parametrize("name", ["arc1024", "circle1024"])
    def test_whole_face_solve_leaves_the_kernel(self, name, monkeypatch):
        cloud, alpha = self.CLOUDS[name]()
        kernel = cap._riesz_kernel(cloud.as_real(), alpha)
        before = kernel.rows.copy()
        free = np.ones(len(kernel.starts) - 1, dtype=bool)
        bordered = spy_bordered_solves(monkeypatch)
        w = cap._face_minimizer(kernel, free)
        assert kernel.rows.tobytes() == before.tobytes()
        # only the circle's Cholesky fails; dsysv reads the untouched kernel
        # and gives numpy's LU weights
        if name == "circle1024":
            assert bordered == [("dsysv", (1025, 1025))]
            lu = numpy_face_minimizer(cap._unpacked(kernel), free)
            assert np.max(np.abs(w - lu)) <= 1e-14
        else:
            assert bordered == []
        assert w.tobytes() == copying_face_minimizer(kernel, free).tobytes()

    CHOLESKY_CLOUDS = {
        "arc2048": lambda: (layout_free(arc_cloud(math.pi / 2, 2048)), 0.0),
        "cap768-log": CLOUDS["cap768-log"],
        "cap768-riesz": CLOUDS["cap768-riesz"],
        "sphere-d3": CLOUDS["sphere-d3"],
        # at alpha = 8 the diagonal spans 13 orders of magnitude, from
        # 1.3e17 to 1.1e30, so the stopping rule must be read on the
        # equilibrated face; read on K_S it stops at the float32 solve's
        # accuracy, and the kkt_gap reaches 2e9
        "uneven-riesz8": lambda: (uneven_arc(5), 8.0),
        # entries up to 3.7e37: a correction, about r / K, falls among
        # float32's subnormals unless each step's right side is scaled to
        # a largest entry of 1; unscaled, the solve stopped after 3 float32
        # solves with a kkt_gap of 1.7e12 at an energy of 1.1e20
        "uneven-riesz10": lambda: (uneven_arc(5), 10.0),
    }

    @pytest.mark.parametrize("name", list(CHOLESKY_CLOUDS))
    def test_refined_solve_matches_float64_cholesky(self, name, monkeypatch):
        cloud, alpha = self.CHOLESKY_CLOUDS[name]()
        got = riesz_equilibrium(cloud, alpha)
        with monkeypatch.context() as mp:
            mp.setattr(cap, "_face_minimizer", float64_face_minimizer)
            want = riesz_equilibrium(cloud, alpha)
        assert (got.iterations, got.converged) == (want.iterations, want.converged)
        assert np.array_equal(got.weights == 0.0, want.weights == 0.0)
        np.testing.assert_allclose(got.weights, want.weights, rtol=1e-9, atol=0.0)
        assert got.energy == pytest.approx(want.energy, rel=1e-14, abs=0.0)
        assert got.kkt_gap <= 1e-13 * max(1.0, abs(got.energy))

    def test_step_cap_hands_the_face_to_the_bordered_solve(self, monkeypatch):
        cloud = layout_free(arc_cloud(math.pi / 2, 1024))
        refined = riesz_equilibrium(cloud, alpha=0.0)
        bordered = spy_bordered_solves(monkeypatch)
        monkeypatch.setattr(cap, "REFINE_MAX_STEPS", 0)
        res = riesz_equilibrium(cloud, alpha=0.0)
        assert bordered == [("dsysv", (1025, 1025))]
        assert res.converged and res.iterations == refined.iterations
        assert np.max(np.abs(res.weights - refined.weights)) <= 1e-12

    def test_kernel_is_the_one_square_array(self):
        # the packed kernel and the float32 factor take 8 n^2 bytes; a
        # float64 copy of the face, or a copy of the factor, would take the
        # peak past 1.25 x 8 n^2 bytes
        import scipy.linalg  # noqa: F401  (its import allocates too)

        n = 1024
        cloud = layout_free(arc_cloud(math.pi / 2, n))
        tracemalloc.start()
        try:
            res = riesz_equilibrium(cloud, alpha=0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.converged and res.iterations == 1
        assert peak < 1.25 * 8 * n * n

    def test_bordered_solve_holds_one_system_beside_the_kernel(self):
        # the circle's float32 Cholesky fails: its factor is released, and
        # the (n + 1)^2 bordered system is filled from the packed rows and
        # solved in place, with no float64 copy of the face beside it
        import scipy.linalg  # noqa: F401  (its import allocates too)

        n = 1024
        tracemalloc.start()
        try:
            res = riesz_equilibrium(layout_free(circle_cloud(n)), alpha=0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * (4 * n * n + 8 * (n + 1) ** 2)
        assert res.converged
        assert np.max(np.abs(res.weights - 1.0 / n)) <= 1e-12
        assert abs(res.capacity - (n * math.sin(math.pi / n)) ** (1.0 / n)) <= 1e-12


def spy_bordered_solves(monkeypatch):
    """Record (route, shape) of each bordered system solved: numpy's LU or
    LAPACK's dsysv."""
    import scipy.linalg.lapack

    solves = []

    def spy(route, real):
        def solve(a, *args, **kwargs):
            solves.append((route, a.shape))
            return real(a, *args, **kwargs)
        return solve

    monkeypatch.setattr(np.linalg, "solve", spy("numpy", np.linalg.solve))
    monkeypatch.setattr(scipy.linalg.lapack, "dsysv", spy("dsysv", scipy.linalg.lapack.dsysv))
    return solves


class RecordedKernel(np.ndarray):
    """A kernel that counts the numpy matrix products it enters."""

    products = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            RecordedKernel.products += 1
        inputs = tuple(np.asarray(x) for x in inputs)
        if "out" in kwargs:
            kwargs["out"] = tuple(np.asarray(x) for x in kwargs["out"])
        return getattr(ufunc, method)(*inputs, **kwargs)


class TestKernelProducts:
    """Past NUMPY_MAX_FACE points scipy factors the faces, scipy's dspmv
    makes the loop's kernel products on the packed rows, and the returned
    energy is summed exactly from them; up to it numpy makes every product
    on the unpacked kernel."""

    CLOUDS = {
        "arc512": lambda: (layout_free(arc_cloud(math.pi / 2, 512)), 0.0),
        "arc1024": lambda: (layout_free(arc_cloud(math.pi / 2, 1024)), 0.0),
        "arc4096": lambda: (layout_free(arc_cloud(math.pi / 2, 4096)), 0.0),
        # the float32 Cholesky fails, then the bordered solve answers
        "circle512": lambda: (layout_free(circle_cloud(512)), 0.0),
        "circle1024": lambda: (layout_free(circle_cloud(1024)), 0.0),
        # points drop, so five faces are solved
        "cap768-log": lambda: (sphere_cap_cloud(768, 1.0), 0.0),
        "cap768-riesz": lambda: (sphere_cap_cloud(768, 1.0), 1.0),
    }

    @pytest.mark.parametrize("name", list(CLOUDS))
    def test_matches_numpy_products(self, name):
        # numpy and scipy carry OpenBLAS builds of their own, and dspmv sums
        # a packed triangle in another order, so the two products may round
        # apart; the gap is compared on the energy's scale, the scale that
        # its convergence test reads it on. Past NUMPY_MAX_FACE points the
        # returned energy is summed exactly, and it stays within 1e-14 of
        # numpy's even on a circle, whose log energy of 1e-3 sums terms near
        # 1 and which dspmv's products miss by 8e-14 of it
        cloud, alpha = self.CLOUDS[name]()
        got = riesz_equilibrium(cloud, alpha)
        weights, energy, iterations, gap, converged, ties = numpy_products_equilibrium(
            cloud, alpha)
        assert (got.iterations, got.converged) == (iterations, converged)
        assert np.array_equal(got.weights > 0, weights > 0)
        np.testing.assert_allclose(got.weights, weights, rtol=1e-14, atol=0.0)
        assert got.energy == pytest.approx(energy, rel=1e-14, abs=0.0)
        assert abs(got.kkt_gap - gap) <= 1e-14 * max(1.0, abs(energy))
        # the rounding slack decides no face but a regular polygon's tie
        # between its uniform start and the face solution
        assert ties == 0 or name.startswith("circle")

    @pytest.mark.parametrize("alpha", [0.0, 2.0])
    def test_returned_energy_is_summed_exactly(self, alpha):
        # the terms w_i K_ij w_j, j >= i, formed in the same order and
        # summed by math.fsum: a circle's log energy is 1e-3 from terms near
        # 1, and the exact sum is within one rounding of it
        n = 600
        kernel = cap._riesz_kernel(circle_cloud(n).as_real(), alpha)
        w = np.random.default_rng(1).random(n)
        w /= w.sum()
        terms = cap._unpacked(kernel) * w * (2.0 * w)[:, None]
        np.fill_diagonal(terms, terms.diagonal() * 0.5)
        want = math.fsum(terms[np.triu_indices(n)].tolist())
        assert abs(cap._packed_energy(kernel, w) - want) <= 2 * cap.UNIT_ROUNDOFF * abs(want)

    def products(self, cloud, alpha, monkeypatch):
        """(numpy products with the unpacked kernel, products with the
        packed kernel outside the face solves) of one solve. A packed
        product is a dspmv call or the exactly summed final energy; each,
        the face solves' own dspmv residuals included, must read the packed
        rows in place."""
        import scipy.linalg.blas

        real_kernel, real_unpacked = cap._riesz_kernel, cap._unpacked
        real_dspmv, real_face = scipy.linalg.blas.dspmv, cap._face_minimizer
        real_energy = cap._packed_energy
        kernels, calls, solving = [], [], []

        def recorded_kernel(pts, alpha):
            kernels.append(real_kernel(pts, alpha))
            return kernels[-1]

        def dspmv(n, alpha, ap, x, **kwargs):
            calls.append((ap is kernels[-1].rows, bool(solving)))
            return real_dspmv(n, alpha, ap, x, **kwargs)

        def packed_energy(kernel, w):
            calls.append((kernel.rows is kernels[-1].rows, bool(solving)))
            return real_energy(kernel, w)

        def face_minimizer(kernel, free):
            solving.append(True)
            try:
                return real_face(kernel, free)
            finally:
                solving.pop()

        RecordedKernel.products = 0
        with monkeypatch.context() as mp:
            mp.setattr(cap, "_riesz_kernel", recorded_kernel)
            mp.setattr(cap, "_unpacked", lambda kernel: real_unpacked(kernel).view(RecordedKernel))
            mp.setattr(cap, "_face_minimizer", face_minimizer)
            mp.setattr(cap, "_packed_energy", packed_energy)
            mp.setattr(scipy.linalg.blas, "dspmv", dspmv)
            riesz_equilibrium(cloud, alpha)
        assert all(in_place for in_place, _ in calls)
        return RecordedKernel.products, sum(not in_face for _, in_face in calls)

    def test_products_follow_the_factor(self, monkeypatch):
        # one face: the starting energy, the face's energy and gradient, and
        # the final gradient and energy
        m = cap.NUMPY_MAX_FACE
        assert self.products(arc_cloud(math.pi / 2, m), 0.0, monkeypatch) == (5, 0)
        arc = layout_free(arc_cloud(math.pi / 2, m + 1))
        assert self.products(arc, 0.0, monkeypatch) == (0, 5)
        # five faces, four of which drop points: every product that the
        # numpy route makes moves to the packed kernel
        cloud = sphere_cap_cloud(768, 1.0)
        with monkeypatch.context() as mp:
            mp.setattr(cap, "NUMPY_MAX_FACE", 768)
            on_numpy, _ = self.products(cloud, 0.0, monkeypatch)
        assert self.products(cloud, 0.0, monkeypatch) == (0, on_numpy)


def refuse_packed_kernel(monkeypatch):
    """Make any build of the packed kernel fail the test."""
    def build(pts, alpha):
        raise AssertionError("the packed kernel was built")

    monkeypatch.setattr(cap, "_riesz_kernel", build)


def same_result(got, want):
    fields = ("energy", "capacity", "alpha", "iterations", "kkt_gap", "converged", "note")
    return (got.weights.tobytes() == want.weights.tobytes()
            and [getattr(got, k) for k in fields] == [getattr(want, k) for k in fields])


class TestToeplitzRoute:
    """Past NUMPY_MAX_FACE points the arcs and circles of arc_cloud and
    circle_cloud are solved on the Toeplitz column of their sine-formula
    kernel, by FFT products, in O(n) memory."""

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("angle", [math.pi / 2, math.pi, 1.5 * math.pi],
                             ids=["quarter", "half", "three-quarter"])
    @pytest.mark.parametrize("n", [512, 1024, 4096])
    def test_matches_the_packed_route(self, n, angle, alpha, monkeypatch):
        cloud = arc_cloud(angle, n)
        want = riesz_equilibrium(layout_free(cloud), alpha)
        with monkeypatch.context() as mp:
            refuse_packed_kernel(mp)
            got = riesz_equilibrium(cloud, alpha)
        assert (got.iterations, got.converged) == (want.iterations, want.converged) == (1, True)
        assert got.weights.min() > 0 and got.weights.sum() == pytest.approx(1.0, abs=1e-14)
        # the coordinate kernel's entries near the diagonal are the power of
        # a chord of about 1e-3 formed from coordinates near 1, so at
        # alpha = 2 they are off by up to 1.6e-12 relative at 4096 points,
        # and the two routes' weights by 1.2e-12 (test_follows_its_own_kernel)
        bound = 2e-12 if alpha == 2.0 and n == 4096 else 1e-12
        assert np.max(np.abs(got.weights - want.weights)) <= bound * want.weights.max()
        rel = 1e-14 if alpha <= 1.0 else 1e-13
        assert got.energy == pytest.approx(want.energy, rel=rel, abs=0.0)
        assert got.kkt_gap <= 1e-13 * max(1.0, abs(got.energy))

    def test_follows_its_own_kernel(self):
        # at alpha = 2 the route's weights are those of float64 LU on the
        # sine-formula Toeplitz matrix; the packed route's differ from both
        # as its coordinate kernel differs from that matrix
        n, alpha = 4096, 2.0
        cloud = arc_cloud(math.pi / 2, n)
        column = cap._toeplitz_column(cloud.step, n, alpha)
        # packed row i holds K[i, j], j >= i, whose Toeplitz entries are column[:n - i]
        coordinate = cap._riesz_kernel(cloud.as_real(), alpha).rows
        upper = np.concatenate([column[:n - i] for i in range(n)])
        assert np.max(np.abs(coordinate - upper) / upper) > 1e-12
        del coordinate, upper
        toeplitz = column[np.abs(np.subtract.outer(np.arange(n), np.arange(n)))]
        v = np.linalg.solve(toeplitz, np.ones(n))
        exact = v / v.sum()
        got = riesz_equilibrium(cloud, alpha).weights
        assert np.max(np.abs(got - exact)) <= 1e-13 * exact.max()

    @pytest.mark.parametrize("n", [512, 1000, 4096, 1 << 16])
    def test_circle_keeps_its_uniform_start(self, n, monkeypatch):
        refuse_packed_kernel(monkeypatch)
        res = riesz_equilibrium(circle_cloud(n), alpha=0.0)
        assert np.ptp(res.weights) == 0.0 and res.weights[0] == 1.0 / n
        assert abs(res.capacity - (n * math.sin(math.pi / n)) ** (1.0 / n)) <= 1e-12
        assert res.iterations == 1 and res.converged
        assert res.kkt_gap <= 1e-13

    def test_negative_weight_hands_the_cloud_to_the_packed_route(self, monkeypatch):
        cloud = arc_cloud(math.pi / 2, 1024)
        real = cap._toeplitz_solve

        def one_negative(column, times):
            v = real(column, times)
            v[7] = -v[7]
            return v

        monkeypatch.setattr(cap, "_toeplitz_solve", one_negative)
        assert same_result(riesz_equilibrium(cloud, 0.0),
                           riesz_equilibrium(layout_free(cloud), 0.0))

    def test_merged_points_take_the_packed_route(self, monkeypatch):
        # steps of 1e-13 on a 1e-12 grid: 1024 points merge into 101
        cloud = arc_cloud(1e-10, 1024)
        assert cloud.step is not None
        assert len(cap._dedup_rows(cloud.as_real())) == 101
        calls = []
        monkeypatch.setattr(cap, "_toeplitz_equilibrium", lambda *args: calls.append(args))
        got = riesz_equilibrium(cloud, 0.0)
        assert calls == [] and got.converged
        assert same_result(got, riesz_equilibrium(layout_free(cloud), 0.0))

    def test_no_stop_hands_the_cloud_to_the_packed_route(self, monkeypatch):
        # the log kernel's solve takes about 10 steps to its stop
        cloud = arc_cloud(math.pi, 600)
        real, solves = cap._toeplitz_solve, []
        monkeypatch.setattr(cap, "_toeplitz_solve", lambda *args: solves.append(real(*args)))
        monkeypatch.setattr(cap, "TOEPLITZ_MAX_STEPS", 3)
        got = riesz_equilibrium(cloud, 0.0)
        assert solves == [None]
        assert same_result(got, riesz_equilibrium(layout_free(cloud), 0.0))

    def test_large_arc_memory_is_linear(self):
        # the packed route would take 8 n^2 bytes, 550 GB here
        n = 1 << 18
        cloud = arc_cloud(math.pi / 2, n)
        tracemalloc.start()
        try:
            res = riesz_equilibrium(cloud, alpha=0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.converged and res.iterations == 1
        assert peak < 32 * 8 * n

    def test_loads_no_scipy_linalg(self):
        script = (
            "import math, sys\n"
            "from cyclicity.capacity import arc_cloud, circle_cloud, riesz_equilibrium\n"
            "arc = riesz_equilibrium(arc_cloud(math.pi / 2, 4096), 0.0)\n"
            "circle = riesz_equilibrium(circle_cloud(4096), 1.0)\n"
            "print(arc.converged, circle.converged, 'scipy.linalg' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=subprocess_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["True", "True", "False"]

    def test_extrapolated_arc_capacity(self):
        # the pi/2 arc's log capacity is sin(pi/8); fitted by
        # c + b/n + e log(n)/n over three sizes, the discrete capacities land
        # within 1.2e-9 of it, against 2.4e-5 for the largest alone
        sizes = [1 << 14, 1 << 15, 1 << 16]
        caps = [riesz_equilibrium(arc_cloud(math.pi / 2, n), 0.0).capacity for n in sizes]
        fit = np.linalg.solve([[1.0, 1.0 / n, math.log(n) / n] for n in sizes], caps)
        assert abs(fit[0] - math.sin(math.pi / 8)) <= 2e-9
        assert abs(caps[-1] - math.sin(math.pi / 8)) > 1e-5

    def test_large_packed_cloud_is_refused_before_its_kernel(self, monkeypatch):
        refuse_packed_kernel(monkeypatch)
        cloud = sphere_cap_cloud(cap.PACKED_MAX_POINTS + 1, 1.0)
        with pytest.raises(ArgumentError, match="at most 32768 points"):
            riesz_equilibrium(cloud, alpha=1.0)


class TestConvergenceReporting:
    def test_iteration_cap_is_reported(self):
        res = riesz_equilibrium(sphere_cap_cloud(300, 1.0), alpha=0.0, max_iter=1)
        assert res.iterations == 1
        assert res.kkt_gap > 1e-7
        assert not res.converged
        assert res.weights.min() >= 0 and res.weights.sum() == pytest.approx(1.0)
        keys = list(res.to_json())
        assert res.to_json()["converged"] is False
        assert keys.index("converged") == keys.index("kktGap") + 1

    def test_tolerance_is_relative_to_energy(self):
        # alpha = 4 on points 1e-3 rad apart puts energies near 1e12, where one
        # rounding step of the energy exceeds the default tol of 1e-7; the gap
        # is the gradient's weighted mean less its minimum, and a face of a few
        # dozen points can round every gradient entry alike (gap exactly 0),
        # so the clouds hold 40-80 points, whose gradients spread by roundoff
        rng = np.random.default_rng(5)
        for _ in range(10):
            theta = np.cumsum(1e-3 * (0.5 + rng.random(int(rng.integers(40, 80)))))
            res = riesz_equilibrium(BoundaryCloud(np.exp(1j * theta)[:, None]), alpha=4.0)
            assert res.energy > 1e11
            assert res.kkt_gap > 1e-7
            assert res.converged
            assert res.kkt_gap <= 1e-7 * res.energy
            assert res.iterations <= 5

    def test_gap_is_never_negative(self):
        # three tight clusters at alpha = 6 put the energy near 1.4e10, where
        # the weighted mean of the gradient rounds below its minimum: the
        # unclamped gap read -3.8e-6, which no minimizer can certify
        rng = np.random.default_rng(4)
        centers = rng.uniform(0.0, 2.0 * math.pi, 3)
        theta = (centers[:, None] + 0.05 * rng.standard_normal((3, 15))).ravel()
        res = riesz_equilibrium(BoundaryCloud(np.exp(1j * theta)[:, None]), alpha=6.0)
        assert res.energy > 1e10
        assert res.kkt_gap == 0.0
        assert res.converged

    def test_tolerance_stays_absolute_below_unit_energy(self):
        # the cap energy is below 1, so the relative test falls back to tol itself
        res = riesz_equilibrium(sphere_cap_cloud(300, 1.0), alpha=0.0, max_iter=1)
        assert abs(res.energy) < 1.0
        assert res.kkt_gap > 1e-7 and not res.converged

    def test_conventions_count_as_converged(self):
        assert riesz_equilibrium(circle_cloud(1), alpha=0.0).converged
        empty = BoundaryCloud(np.zeros((0, 1), dtype=complex))
        assert riesz_equilibrium(empty, alpha=1.0).converged

    def test_overflowed_kernel_is_a_numeric_failure(self):
        # ||x - y||^-200 on a 64-point arc of opening 1 exceeds the float range
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericFailureError, match="not finite"):
                riesz_equilibrium(arc_cloud(1.0, 64), alpha=200.0)

    def test_capacity_command_warns_once(self, tmp_path):
        cloud = {"kind": "sphere_cap", "count": 300, "polarAngle": 1.0}
        stderr = {}
        for max_iter in (1, 20000):
            cfg = tmp_path / f"capacity-{max_iter}.json"
            cfg.write_text(json.dumps({"cloud": cloud, "alpha": 0.0, "maxIter": max_iter}))
            out = tmp_path / str(max_iter)
            proc = subprocess.run(
                [sys.executable, "-m", "cyclicity", "capacity", "--config", str(cfg),
                 "--out", str(out)],
                capture_output=True, text=True, env=subprocess_env(),
            )
            assert proc.returncode == 0
            result = json.loads((out / "capacity.json").read_text())["result"]
            assert result["converged"] is (max_iter > 1)
            stderr[max_iter] = proc.stderr.splitlines()
        assert len(stderr[1]) == 1 and "not converged" in stderr[1][0]
        assert stderr[20000] == []

    def test_report_command_warns(self, tmp_path, monkeypatch, caplog):
        real = cap.riesz_equilibrium
        monkeypatch.setattr(
            cap, "riesz_equilibrium",
            lambda cloud, alpha: real(sphere_cap_cloud(300, 1.0), 0.0, max_iter=1),
        )
        cfg = tmp_path / "report.json"
        cfg.write_text(json.dumps({
            "space": "hardy(1)", "function": {"coeffs1d": [1, -1]}, "nMax": 4,
            "alpha": 0.0, "seed": 1,
        }))
        with caplog.at_level(logging.WARNING, logger="cyclicity"):
            rc = main(["report", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 0
        warnings = [r for r in caplog.records if "not converged" in r.getMessage()]
        assert len(warnings) == 1


class TestQuasiUniformSphere:
    @pytest.mark.parametrize("real_dim", [3, 4, 6])
    @pytest.mark.parametrize("count", [1000, 8192])
    def test_matches_unscrambled_halton(self, real_dim, count):
        import scipy.stats
        import scipy.stats.qmc

        u = scipy.stats.qmc.Halton(d=real_dim, scramble=False, seed=0).random(count + 1)[1:]
        g = scipy.stats.norm.ppf(np.clip(u, 1e-12, 1 - 1e-12))
        expected = g / np.linalg.norm(g, axis=1, keepdims=True)
        assert np.array_equal(cap._quasi_uniform_sphere(real_dim, count), expected)

    @pytest.mark.parametrize("real_dim", [2, 4])
    def test_sample_is_memoized_and_read_only(self, real_dim):
        first = cap._quasi_uniform_sphere(real_dim, 768)
        again = cap._quasi_uniform_sphere(real_dim, 768)
        assert again is first
        assert np.array_equal(again, first)
        with pytest.raises(ValueError):
            again[0, 0] = 0.0

    def test_import_leaves_scipy_stats_unloaded(self):
        # scipy.special, scipy.sparse and scipy.linalg load on first use,
        # inside the sphere sampler, the least-squares solver and the
        # equilibrium face solve; older scipy.linalg releases load some of
        # the others itself, so only what cyclicity adds to the baseline counts
        cases = [
            ("scipy.linalg", "cyclicity", ("scipy.stats", "scipy.special", "scipy.sparse")),
            ("numpy, scipy", "cyclicity.cli", ("scipy.linalg",)),
        ]
        for baseline, module, heavy in cases:
            script = (
                f"import sys, {baseline}; before = set(sys.modules); import {module}; "
                f"print([m for m in {heavy!r} if m in sys.modules and m not in before])"
            )
            proc = subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True,
                env=subprocess_env(),
            )
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.strip() == "[]", module
