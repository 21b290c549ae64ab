"""Active-set equilibrium solver: KKT conditions, solve paths, convergence
reporting, and the quasi-uniform sphere sampler behind the neighborhood
measure."""

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
from cyclicity.errors import NumericFailureError
from cyclicity.spaces import sphere_sample
from helpers import (copying_face_minimizer, numpy_products_equilibrium, subprocess_env,
                     two_array_kernel)


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
        bordered_solves = []
        real_solve = np.linalg.solve

        def spy(*args, **kwargs):
            bordered_solves.append(args[0].shape)
            return real_solve(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "solve", spy)
        # an arc's log kernel is positive definite: past NUMPY_MAX_FACE
        # points Cholesky answers, and its weights are those of the
        # bordered system [K 1; 1^T 0]
        m = cap.NUMPY_MAX_FACE + 1
        arc = arc_cloud(math.pi / 2, m)
        res = riesz_equilibrium(arc, alpha=0.0)
        assert res.converged and bordered_solves == []
        system = np.ones((m + 1, m + 1))
        system[:m, :m] = reference_kernel(arc, 0.0)
        system[m, m] = 0.0
        exact = real_solve(system, np.eye(m + 1)[m])[:m]
        assert np.max(np.abs(res.weights - exact)) <= 1e-12
        # the log kernel of the full circle is not positive definite, so
        # Cholesky fails and numpy's bordered LU solve is what answers
        n = 512
        res = riesz_equilibrium(circle_cloud(n), alpha=0.0)
        assert bordered_solves == [(n + 1, n + 1)]
        assert res.converged
        assert np.max(np.abs(res.weights - 1.0 / n)) <= 1e-12
        assert abs(res.capacity - (n * math.sin(math.pi / n)) ** (1.0 / n)) <= 1e-12

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
    """The kernel is the one n x n array: built by row blocks, and the face
    of the whole cloud factored in place and restored."""

    CLOUDS = {
        "arc512": lambda: (arc_cloud(math.pi / 2, 512), 0.0),
        "arc1024": lambda: (arc_cloud(math.pi / 2, 1024), 0.0),
        # not positive definite: Cholesky fails, then the bordered LU answers
        "circle1024": lambda: (circle_cloud(1024), 0.0),
        # points drop, so the later faces are partial
        "cap768-log": lambda: (sphere_cap_cloud(768, 1.0), 0.0),
        "cap768-riesz": lambda: (sphere_cap_cloud(768, 1.0), 1.0),
        "sphere-d3": lambda: (BoundaryCloud(sphere_sample(np.random.default_rng(3), 600, 3)), 3.0),
    }

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
        before = kernel.copy()
        free = np.ones(len(kernel), dtype=bool)
        bordered = []
        real_solve = np.linalg.solve

        def spy(*args, **kwargs):
            bordered.append(args[0].shape)
            return real_solve(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "solve", spy)
        w = cap._face_minimizer(kernel, free)
        assert kernel.tobytes() == before.tobytes()
        # only the circle's Cholesky fails; its bordered LU reads the restored kernel
        assert bordered == ([] if name == "arc1024" else [(1025, 1025)])
        assert w.tobytes() == copying_face_minimizer(before, free).tobytes()

    def test_kernel_is_the_one_square_array(self):
        # a second n x n array, a difference array or a copy of the face,
        # would take the peak past 2 x 8 n^2 bytes
        import scipy.linalg  # noqa: F401  (its import allocates too)

        n = 1024
        cloud = arc_cloud(math.pi / 2, n)
        tracemalloc.start()
        try:
            res = riesz_equilibrium(cloud, alpha=0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.converged and res.iterations == 1
        assert peak < 1.25 * 8 * n * n


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
    """Past NUMPY_MAX_FACE points scipy factors the kernel, and scipy's BLAS
    makes the kernel products too; up to it numpy makes them."""

    CLOUDS = {
        "arc512": lambda: (arc_cloud(math.pi / 2, 512), 0.0),
        "arc1024": lambda: (arc_cloud(math.pi / 2, 1024), 0.0),
        "arc4096": lambda: (arc_cloud(math.pi / 2, 4096), 0.0),
        # Cholesky fails, then the bordered LU answers
        "circle512": lambda: (circle_cloud(512), 0.0),
        "circle1024": lambda: (circle_cloud(1024), 0.0),
        # points drop, so five faces are solved
        "cap768-log": lambda: (sphere_cap_cloud(768, 1.0), 0.0),
        "cap768-riesz": lambda: (sphere_cap_cloud(768, 1.0), 1.0),
    }

    @pytest.mark.parametrize("name", list(CLOUDS))
    def test_matches_numpy_products(self, name):
        # numpy and scipy carry OpenBLAS builds of their own, so the two
        # products may round apart; the gap is compared on the energy's scale,
        # the scale that its convergence test reads it on
        cloud, alpha = self.CLOUDS[name]()
        got = riesz_equilibrium(cloud, alpha)
        weights, energy, iterations, gap, converged = numpy_products_equilibrium(cloud, alpha)
        assert (got.iterations, got.converged) == (iterations, converged)
        assert np.array_equal(got.weights > 0, weights > 0)
        np.testing.assert_allclose(got.weights, weights, rtol=1e-14, atol=0.0)
        assert got.energy == pytest.approx(energy, rel=1e-14, abs=0.0)
        assert abs(got.kkt_gap - gap) <= 1e-14 * max(1.0, abs(energy))

    def products(self, cloud, alpha, monkeypatch):
        """(numpy products with the kernel, dgemv calls) of one solve; each
        dgemv call must read the kernel in place, through its transpose."""
        import scipy.linalg.blas

        real_kernel, real_dgemv = cap._riesz_kernel, scipy.linalg.blas.dgemv
        kernels, calls = [], []

        def recorded_kernel(pts, alpha):
            kernels.append(real_kernel(pts, alpha).view(RecordedKernel))
            return kernels[-1]

        def dgemv(alpha, a, x, **kwargs):
            calls.append(a.flags.f_contiguous and np.shares_memory(a, kernels[-1]))
            return real_dgemv(alpha, a, x, **kwargs)

        RecordedKernel.products = 0
        with monkeypatch.context() as mp:
            mp.setattr(cap, "_riesz_kernel", recorded_kernel)
            mp.setattr(scipy.linalg.blas, "dgemv", dgemv)
            riesz_equilibrium(cloud, alpha)
        assert all(calls)
        return RecordedKernel.products, len(calls)

    def test_products_follow_the_factor(self, monkeypatch):
        # one face: the starting energy, the face's energy and gradient, and
        # the final gradient and energy
        m = cap.NUMPY_MAX_FACE
        assert self.products(arc_cloud(math.pi / 2, m), 0.0, monkeypatch) == (5, 0)
        assert self.products(arc_cloud(math.pi / 2, m + 1), 0.0, monkeypatch) == (0, 5)
        # five faces, four of which drop points: every product that the
        # numpy route makes moves to dgemv
        cloud = sphere_cap_cloud(768, 1.0)
        with monkeypatch.context() as mp:
            mp.setattr(cap, "NUMPY_MAX_FACE", 768)
            on_numpy, _ = self.products(cloud, 0.0, monkeypatch)
        assert self.products(cloud, 0.0, monkeypatch) == (0, on_numpy)


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
