import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclicity import capacity
from cyclicity.capacity import (
    CONSISTENT,
    OBSTRUCTION,
    BoundaryCloud,
    _dedup_rows,
    arc_cloud,
    box_dimension,
    circle_cloud,
    interior_zero_probe,
    neighborhood_capacity,
    obstruction_report,
    riesz_equilibrium,
    sample_zero_set,
    sphere_cap_cloud,
)
from cyclicity.errors import ArgumentError, DegenerateInputError
from cyclicity.poly import Polynomial
from cyclicity.spaces import hardy, sphere_sample
from helpers import whole_block_neighborhood


def p1d(*coeffs):
    return Polynomial.from_coeffs1d(coeffs)


class TestZeroSetSampling:
    def test_single_boundary_zero(self):
        cloud = sample_zero_set(p1d(1, -1), resolution=512)
        assert cloud.size == 1
        assert abs(cloud.points[0, 0] - 1.0) < 1e-9

    def test_zero_free_symbol(self):
        cloud = sample_zero_set(p1d(2, -1), resolution=512)
        assert cloud.size == 0

    def test_conjugate_pair(self):
        cloud = sample_zero_set(p1d(1, 0, 1), resolution=512)
        assert cloud.size == 2
        found = sorted(cloud.points[:, 0], key=lambda z: z.imag)
        assert abs(found[0] + 1j) < 1e-9
        assert abs(found[1] - 1j) < 1e-9

    @pytest.mark.parametrize("tol", [0.0, -1.0])
    def test_rejects_nonpositive_tol(self, tol):
        with pytest.raises(ArgumentError, match="tol"):
            sample_zero_set(p1d(1, -1), tol=tol)
        with pytest.raises(ArgumentError, match="tol"):
            sample_zero_set(Polynomial.variable(0, 2), resolution=64, tol=tol)

    def test_rejects_zero_polynomial(self):
        with pytest.raises(DegenerateInputError):
            sample_zero_set(Polynomial.zero(1), resolution=64)

    def test_multiple_zero_gives_one_point_at_any_resolution(self):
        f = p1d(1, -1) ** 6
        cloud = sample_zero_set(f, resolution=65536)
        assert cloud.size == 1
        assert abs(f.evaluate(cloud.points[0])) <= cloud.source_tol

    def test_zeros_wider_apart_than_their_tol_arc_stay_distinct(self):
        # |f| at the midpoint of the two zeros is about 2.5e-9 > tol = 1e-9
        f = p1d(1, -1) * p1d(1, -np.exp(1e-4j))
        cloud = sample_zero_set(f)
        assert cloud.size == 2
        assert np.max(np.abs(f.evaluate_grid(cloud.points))) <= cloud.source_tol

    def test_flat_arc_of_multiple_zero_keeps_nearby_simple_zero(self):
        # |f| <= tol at the midpoint to the 10-fold zero, but about 2.8e-8 near
        # angle 0.25: the simple zero lies in an arc of its own
        f = p1d(-1, 1) ** 10 * p1d(-np.exp(0.28j), 1)
        cloud = sample_zero_set(f)
        assert cloud.size == 2
        assert np.min(np.abs(cloud.points[:, 0] - np.exp(0.28j))) < 1e-6

    def test_clustered_high_order_zeros(self):
        eighth = p1d(-1, *[0] * 7, 1)
        f = eighth**5
        cloud = sample_zero_set(f)
        assert cloud.size == 8
        roots = np.exp(2j * np.pi * np.arange(8) / 8)
        dist = np.abs(cloud.points[:, 0][:, None] - roots[None, :]).min(axis=1)
        assert np.max(dist) <= 1e-3
        assert np.max(np.abs(f.evaluate_grid(cloud.points))) <= cloud.source_tol

    @pytest.mark.parametrize("resolution", [64, 65536])
    def test_roots_of_unity_exact_at_any_resolution(self, resolution):
        cloud = sample_zero_set(p1d(-1, *[0] * 63, 1), resolution=resolution)
        angles = np.sort(np.angle(cloud.points[:, 0]) % (2 * np.pi))
        # the zero at angle 0 may come out just below 2 pi
        angles = np.where(angles > 2 * np.pi - 1e-9, angles - 2 * np.pi, angles)
        np.testing.assert_allclose(
            np.sort(angles), 2 * np.pi * np.arange(64) / 64, rtol=0, atol=1e-12
        )

    def test_resolution_ignored_at_d1_and_checked_at_higher_d(self):
        assert sample_zero_set(p1d(1, -1), resolution=1).size == 1
        with pytest.raises(ArgumentError):
            sample_zero_set(Polynomial.variable(0, 2), resolution=4)

    def test_rejects_degree_beyond_root_solve(self):
        f = Polynomial(1, {(0,): -1.0, (20000,): 1.0})
        with pytest.raises(ArgumentError):
            sample_zero_set(f)

    def test_zero_only_at_origin_gives_empty_cloud(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cloud = sample_zero_set(p1d(0, 1))
        assert cloud.size == 0
        assert cloud.dimension == 1

    def test_higher_dimensional_smoke(self):
        # zero set of z1 - z2 meets the sphere in a circle; rejection plus
        # polish should land points on it
        z1 = Polynomial.variable(0, 2)
        z2 = Polynomial.variable(1, 2)
        f = z1 - z2
        cloud = sample_zero_set(f, resolution=20000, tol=0.05, seed=3)
        assert cloud.size > 1
        vals = np.abs(f.evaluate_grid(cloud.points))
        assert np.max(vals) < 1e-6
        assert np.allclose(np.linalg.norm(cloud.points, axis=1), 1.0, atol=1e-9)

    def test_higher_dimensional_duplicates_merge(self):
        # every polished point sampled twice must come out once, in order
        f = Polynomial.variable(0, 2) - Polynomial.variable(1, 2)
        pts = sample_zero_set(f, resolution=20000, tol=0.05, seed=3).points
        np.testing.assert_array_equal(_dedup_rows(np.vstack([pts, pts]), 1e-8), pts)


class TestCloudJson:
    def test_round_trip(self):
        cloud = sphere_cap_cloud(7, 1.0)
        rows = cloud.to_json()
        assert len(rows) == 7 and all(len(row) == 4 for row in rows)
        back = BoundaryCloud.from_json(rows, 2)
        np.testing.assert_allclose(back.points, cloud.points, rtol=0, atol=1e-15)

    def test_entries_are_python_floats(self):
        # JSON-safe as built, so the writer takes its float fast path
        rows = arc_cloud(1.0, 4).to_json()
        assert len(rows) == 4 and all(type(v) is float for row in rows for v in row)

    def test_empty_rows_keep_the_dimension(self):
        cloud = BoundaryCloud.from_json([], 3)
        assert cloud.size == 0 and cloud.dimension == 3

    @pytest.mark.parametrize("rows", [[[1.0, 0.0, 0.0]], [[1.0, 0.0], [0.0]]])
    def test_rejects_rows_of_the_wrong_length(self, rows):
        with pytest.raises(ArgumentError, match="2 real coordinates"):
            BoundaryCloud.from_json(rows, 1)


class TestRieszEquilibrium:
    def test_full_circle_log_capacity(self):
        res = riesz_equilibrium(circle_cloud(512), alpha=0.0)
        assert abs(res.energy) < 0.02
        assert abs(res.capacity - 1.0) < 0.02

    def test_singleton_convention(self):
        res = riesz_equilibrium(circle_cloud(1), alpha=0.0)
        assert res.capacity == 0.0
        assert math.isinf(res.energy)
        assert "singleton" in res.note

    def test_empty_cloud(self):
        cloud = BoundaryCloud(np.zeros((0, 1), dtype=complex))
        res = riesz_equilibrium(cloud, alpha=0.0)
        assert res.capacity == 0.0

    def test_half_circle_arc(self):
        res = riesz_equilibrium(arc_cloud(math.pi, 512), alpha=0.0)
        expected = math.sin(math.pi / 4.0)
        assert abs(res.capacity - expected) / expected < 0.05

    def test_quarter_circle_arc(self):
        res = riesz_equilibrium(arc_cloud(math.pi / 2.0, 512), alpha=0.0)
        expected = math.sin(math.pi / 8.0)
        assert abs(res.capacity - expected) / expected < 0.05

    @pytest.mark.parametrize("tol", [0.0, -1.0])
    def test_rejects_nonpositive_tol(self, tol):
        with pytest.raises(ArgumentError, match="tol"):
            riesz_equilibrium(arc_cloud(math.pi / 2.0, 64), alpha=0.0, tol=tol)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -1.0])
    def test_rejects_alpha_outside_finite_nonnegatives(self, alpha):
        # nan would run the log kernel and inf overflow it: both are input errors
        with pytest.raises(ArgumentError, match="alpha must be finite and >= 0"):
            riesz_equilibrium(circle_cloud(8), alpha)

    def test_kkt_certificate(self):
        res = riesz_equilibrium(arc_cloud(math.pi, 256), alpha=0.0, tol=1e-6)
        assert res.kkt_gap <= 1e-5

    def test_weights_form_probability_vector(self):
        res = riesz_equilibrium(arc_cloud(2.0, 128), alpha=0.0)
        assert np.all(res.weights >= 0)
        assert res.weights.sum() == pytest.approx(1.0, abs=1e-10)

    def test_minimization_certificate_vs_uniform(self):
        cloud = arc_cloud(math.pi, 256)
        res = riesz_equilibrium(cloud, alpha=0.0)
        pts = cloud.as_real()
        diff = pts[:, None, :] - pts[None, :, :]
        dist = np.sqrt((diff**2).sum(-1))
        np.fill_diagonal(dist, np.inf)
        scale = dist.min(axis=1) / 2.0
        kernel = -np.log(np.where(np.isinf(dist), 1.0, dist))
        np.fill_diagonal(kernel, -np.log(scale))
        w = np.full(len(pts), 1.0 / len(pts))
        uniform_energy = float(w @ kernel @ w)
        assert res.energy <= uniform_energy + 1e-12

    def test_refinement_toward_continuum(self):
        results = [riesz_equilibrium(circle_cloud(k), 0.0) for k in (256, 512, 1024)]
        caps = [r.capacity for r in results]
        energies = [r.energy for r in results]
        # capacities decrease toward the continuum value 1, energies rise
        assert caps[0] >= caps[1] >= caps[2]
        assert energies[0] <= energies[1] <= energies[2]
        for a, b in zip(caps, caps[1:]):
            assert abs(a - b) / b < 0.02

    def test_riesz_alpha_positive(self):
        res = riesz_equilibrium(circle_cloud(128), alpha=1.0)
        assert res.energy > 0
        assert res.capacity == pytest.approx(1.0 / res.energy)

    def test_duplicate_points_merged(self):
        pts = np.concatenate([circle_cloud(64).points, circle_cloud(64).points])
        res = riesz_equilibrium(BoundaryCloud(pts), alpha=0.0)
        assert len(res.weights) == 64

    def test_against_general_purpose_optimizer(self):
        # independent oracle: the same regularized energy handed to SLSQP on
        # the simplex must land on the same minimum
        import scipy.optimize

        cloud = arc_cloud(2.0, 40)
        for alpha in (0.0, 1.0):
            res = riesz_equilibrium(cloud, alpha=alpha, tol=1e-10)
            pts = cloud.as_real()
            diff = pts[:, None, :] - pts[None, :, :]
            dist = np.sqrt((diff**2).sum(-1))
            np.fill_diagonal(dist, np.inf)
            scale = dist.min(axis=1) / 2.0
            safe = np.where(np.isinf(dist), 1.0, dist)
            kernel = safe ** (-alpha) if alpha > 0 else -np.log(safe)
            np.fill_diagonal(kernel, scale ** (-alpha) if alpha > 0 else -np.log(scale))
            n = len(pts)
            out = scipy.optimize.minimize(
                lambda w: w @ kernel @ w,
                np.full(n, 1.0 / n),
                jac=lambda w: 2.0 * kernel @ w,
                method="SLSQP",
                bounds=[(0.0, 1.0)] * n,
                constraints=[{"type": "eq", "fun": lambda w: w.sum() - 1.0}],
                options={"maxiter": 500, "ftol": 1e-14},
            )
            assert out.success
            assert abs(res.energy - out.fun) < 1e-6 * max(1.0, abs(out.fun))


class TestNeighborhoodCapacity:
    def test_empty_cloud(self):
        cloud = BoundaryCloud(np.zeros((0, 1), dtype=complex))
        assert neighborhood_capacity(cloud, 1.0, 0.05) == 0.0

    def test_full_circle_saturates(self):
        assert neighborhood_capacity(circle_cloud(512), 1.0, 0.05) == 1.0

    def test_arc_measures_its_angle(self):
        for angle in (math.pi / 2.0, math.pi):
            value = neighborhood_capacity(arc_cloud(angle, 2048), 1.0, 0.005)
            assert abs(value - angle / (2 * math.pi)) < 0.02

    def test_monotone_in_radius(self):
        cloud = arc_cloud(1.0, 256)
        small = neighborhood_capacity(cloud, 1.0, 0.01)
        large = neighborhood_capacity(cloud, 1.0, 0.1)
        assert small <= large + 1e-12

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([1, 2]),
           size=st.integers(1, 64), eps=st.floats(1e-3, 0.5))
    def test_monotone_in_cloud_inclusion(self, seed, d, size, eps):
        # the docstring's claim, exactly: a superset's neighborhood holds
        # every sample point that the subset's does
        rng = np.random.default_rng(seed)
        sup = BoundaryCloud(sphere_sample(rng, size, d))
        sub = BoundaryCloud(sup.points[rng.random(size) < 0.5])
        assert neighborhood_capacity(sup, 1.0, eps) >= neighborhood_capacity(sub, 1.0, eps)

    def test_sphere_neighborhood(self):
        cap = sphere_cap_cloud(2048, 0.8)
        value = neighborhood_capacity(cap, 1.0, 0.15, samples=8192)
        assert 0.0 < value < 1.0

    CLOUDS = {
        "cap768": lambda: sphere_cap_cloud(768, 1.0),
        "arc4096": lambda: arc_cloud(math.pi / 2, 4096),
        "arc16384": lambda: arc_cloud(math.pi / 2, 2**14),
        "one-point": lambda: circle_cloud(1),
    }

    # None keeps the module's block; 1 gives blocks of one sample row; 3000
    # gives the cap blocks of 3 rows and the one-point cloud blocks of 3000
    # rows, so that the last block of 8192 rows is partial
    @pytest.mark.parametrize("block", [None, 1, 3000])
    @pytest.mark.parametrize("name, eps", [
        ("cap768", 0.01), ("cap768", 0.05), ("cap768", 0.2), ("arc4096", 0.01), ("one-point", 0.05),
        ("arc16384", 0.005), ("arc16384", 0.05),
    ])
    def test_matches_whole_block_formula(self, name, eps, block, monkeypatch):
        cloud = self.CLOUDS[name]()
        if block is not None:
            monkeypatch.setattr(capacity, "BLOCK_ENTRIES", block)
        assert neighborhood_capacity(cloud, 1.0, eps) == whole_block_neighborhood(cloud, eps)

    # the sweep's windows are exact: caps turned by a random unitary, so
    # that any real coordinate can be the widest and the sort axis; two
    # opposite caps, which leave the samples between them an empty window;
    # exact repeats and conjugates, which repeat keys along a real-part
    # axis; and eps up to 2.5, where every window is the whole cloud
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([1, 2, 3]),
           shape=st.sampled_from(["cap", "two caps", "repeated keys"]),
           size=st.integers(1, 48), eps=st.floats(1e-3, 2.5),
           samples=st.integers(1, 3000), block=st.sampled_from([None, 1, 3000]))
    def test_sweep_matches_whole_block(self, seed, d, shape, size, eps, samples, block):
        rng = np.random.default_rng(seed)
        gauss = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        q, r = np.linalg.qr(gauss)
        unitary = q * (np.diag(r) / np.abs(np.diag(r)))
        center = np.zeros(d, dtype=complex)
        center[0] = 1.0
        points = center + 0.3 * sphere_sample(rng, size, d)
        if shape == "two caps":
            points[: size // 2] -= 2.0 * center
        points = points / np.linalg.norm(points, axis=1, keepdims=True) @ unitary.T
        if shape == "repeated keys":
            points = np.vstack([points, points[: size // 2 + 1], points[::2].conj()])
        cloud = BoundaryCloud(points)
        with pytest.MonkeyPatch.context() as patch:
            if block is not None:
                patch.setattr(capacity, "BLOCK_ENTRIES", block)
            got = neighborhood_capacity(cloud, 1.0, eps, samples=samples)
        assert got == whole_block_neighborhood(cloud, eps, samples)

    # with 2-entry blocks each pair of samples has a window of its own;
    # one-row blocks are left out, since numpy forms a 1 x 1 product by a
    # dot product, which can round otherwise than the whole-grid formula's
    # matrix-vector product
    @pytest.mark.parametrize("block", [None, 2])
    def test_ties_at_the_radius(self, block, monkeypatch):
        # a cloud point whose computed d2 to a sample is eps^2 itself, and
        # mirror images of samples, whose sort coordinate lies exactly eps =
        # 2|y_0| from the sample's, are counted as the whole-grid formula
        # counts them, at eps and at the floats either side of it
        if block is not None:
            monkeypatch.setattr(capacity, "BLOCK_ENTRIES", block)
        grid = capacity._quasi_uniform_sphere(2, 8192)
        cloud = BoundaryCloud(np.array([[np.exp(0.3j)]]))
        pts = cloud.as_real()
        d2 = np.sum(grid**2, axis=1) - 2.0 * grid @ pts[0] + np.sum(pts**2)
        tied = [math.sqrt(v) for v in np.sort(d2[d2 < 0.01]) if math.sqrt(v) ** 2 == v]
        cases = [(cloud, tied[-1])]
        for y0, y1 in grid[2000:2040]:
            mirror = BoundaryCloud(np.array([[complex(-y0, y1)]]))
            if np.array_equal(mirror.as_real()[0], [-y0, y1]):
                cases.append((mirror, 2.0 * y0))
        assert len(cases) > 10
        for case, eps in cases:
            for radius in (np.nextafter(eps, 0.0), eps, np.nextafter(eps, 1.0)):
                assert (neighborhood_capacity(case, 1.0, float(radius))
                        == whole_block_neighborhood(case, float(radius)))

    def test_scratch_stays_bounded_when_every_window_is_the_cloud(self):
        # at eps = 2 each window holds all 2^16 points, and blocks of
        # BLOCK_ENTRIES // n = 2 sample rows keep each d2 block at 1 MB
        cloud = arc_cloud(math.pi / 2, 2**16)
        neighborhood_capacity(circle_cloud(1), 1.0, 2.0)  # fills the sample cache
        tracemalloc.start()
        try:
            value = neighborhood_capacity(cloud, 1.0, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == 1.0
        assert peak < 8e6

    # a float once built a grid at angles 2 pi k / 2.5, True ran as 1 and
    # 10**13 reached numpy's allocator
    @pytest.mark.parametrize("samples", [0, -1, 2.5, True, 10**13, capacity.MAX_CLOUD_POINTS + 1])
    def test_sample_count_validation(self, samples):
        with pytest.raises(ArgumentError, match="samples must be >= 1"):
            neighborhood_capacity(circle_cloud(8), 1.0, 0.05, samples=samples)

    @pytest.mark.parametrize("alpha, eps", [
        (math.nan, 0.05), (math.inf, 0.05), (-1.0, 0.05), (1.0, math.nan), (1.0, math.inf),
    ])
    def test_alpha_and_radius_validation(self, alpha, eps):
        with pytest.raises(ArgumentError, match="alpha|eps_nbhd"):
            neighborhood_capacity(circle_cloud(8), alpha, eps)


class TestBoxDimension:
    def test_singleton(self):
        cloud = BoundaryCloud(np.array([[1.0 + 0j]]))
        est = box_dimension(cloud, 2, 6)
        assert est.dimension == 0.0
        assert est.r_squared == 1.0

    def test_arc_is_one_dimensional(self):
        est = box_dimension(arc_cloud(math.pi, 4096), 2, 7)
        assert abs(est.dimension - 1.0) <= 0.15

    def test_sphere_cap_is_two_dimensional(self):
        est = box_dimension(sphere_cap_cloud(4096, 1.0), 1, 4)
        assert abs(est.dimension - 2.0) <= 0.2

    def test_union_superadditivity(self):
        arc = arc_cloud(math.pi, 2048)
        single = BoundaryCloud(np.array([[-1.0 + 0j]]))
        d_arc = box_dimension(arc, 2, 6).dimension
        d_single = box_dimension(single, 2, 6).dimension
        d_union = box_dimension(arc.union(single), 2, 6).dimension
        assert d_union >= max(d_arc, d_single) - 0.1

    def test_empty_cloud_rejected(self):
        with pytest.raises(DegenerateInputError):
            box_dimension(BoundaryCloud(np.zeros((0, 1), dtype=complex)), 2, 5)

    def test_scale_validation(self):
        with pytest.raises(ArgumentError):
            box_dimension(circle_cloud(16), 5, 5)

    @pytest.mark.parametrize("name", ["arc", "cap", "sphere-d3", "duplicates"])
    def test_counts_match_unique_rows(self, name):
        arc = arc_cloud(math.pi, 4096)
        cloud = {
            "arc": lambda: arc,
            "cap": lambda: sphere_cap_cloud(4096, 1.0),
            "sphere-d3": lambda: BoundaryCloud(sphere_sample(np.random.default_rng(3), 2000, 3)),
            "duplicates": lambda: BoundaryCloud(np.vstack([arc.points[:500], arc.points[:300]])),
        }[name]()
        est = box_dimension(cloud, 1, 9)
        pts = cloud.as_real()
        want = [len(np.unique(np.floor(pts * 2.0**j).astype(np.int64), axis=0)) for j in est.scales]
        assert est.counts == want


class TestInteriorProbe:
    def test_finds_origin_zero(self):
        hit = interior_zero_probe(p1d(0, 1))
        assert hit is not None
        assert hit["value"] < 1e-10
        assert abs(complex(hit["point"][0], hit["point"][1])) < 1e-6

    def test_boundary_zero_not_reported(self):
        assert interior_zero_probe(p1d(1, -1)) is None

    def test_zero_free_function(self):
        assert interior_zero_probe(p1d(2, -1)) is None

    def test_two_variable_zero(self):
        z1 = Polynomial.variable(0, 2)
        hit = interior_zero_probe(z1, seed=7)
        assert hit is not None
        assert len(hit["point"]) == 4 and all(type(v) is float for v in hit["point"])


class TestObstructionReport:
    def test_coordinate_function_obstructed(self):
        report = obstruction_report(hardy(1), p1d(0, 1), n_max=8, alpha=0.0, seed=1)
        assert report.verdict == OBSTRUCTION
        assert report.interior_zero is not None
        assert report.sweep.verdict == "plateau"

    @pytest.mark.parametrize(
        "coeffs", [(1.0,), (2.0, -1.0), (1.0, -1.0)]
    )
    def test_consistent_examples(self, coeffs):
        report = obstruction_report(hardy(1), p1d(*coeffs), n_max=12, alpha=0.0, seed=1)
        assert report.verdict == CONSISTENT

    def test_capacity_threshold_range(self):
        with pytest.raises(ArgumentError, match="capacity threshold must be >= 0"):
            obstruction_report(hardy(1), p1d(1, -1), n_max=4, alpha=0.0, capacity_threshold=-1.0)
        # zero is valid: any positive capacity counts as large, and a point has none
        report = obstruction_report(hardy(1), p1d(1, -1), n_max=12, alpha=0.0,
                                    capacity_threshold=0.0)
        assert report.verdict == CONSISTENT

    def test_report_serializes(self):
        report = obstruction_report(hardy(1), p1d(1, -1), n_max=6, alpha=0.0, seed=1)
        payload = report.to_json()
        assert payload["verdict"] == CONSISTENT
        assert payload["cloudSize"] == 1
        assert payload["riesz"]["capacity"] == 0.0

    def test_two_variable_coordinate_obstructed(self):
        from cyclicity.spaces import drury_arveson

        z1 = Polynomial.variable(0, 2)
        report = obstruction_report(
            drury_arveson(2, 12),
            z1,
            n_max=6,
            alpha=1.0,
            resolution=20000,
            zero_tol=0.05,
            seed=5,
        )
        assert report.verdict == OBSTRUCTION
        assert report.interior_zero is not None
        assert report.cloud_size > 0
