import numpy as np
import pytest

from hullkit import (
    LambdaOutOfRange,
    OriginNotInterior,
    brightness,
    convex_hull_function,
    homothetic_hull_function,
    hull,
    lambda_reduce,
    point_hull_values,
    point_hull_volume,
)
from hullkit.sampling import random_polygon, random_polytope3

from conftest import unit_vector


class TestConvexHullFunction:
    def test_square_axis_translate(self, square):
        assert convex_hull_function(square, [3.0, 0.0]) == pytest.approx(10.0, abs=0)

    def test_square_diagonal_translate(self, square):
        # equals the hull-oracle shoelace and the translate identity with
        # alpha = sqrt(2), brightness 2*sqrt(2)
        g = convex_hull_function(square, [1.0, 1.0])
        assert g == pytest.approx(8.0, rel=1e-14)
        u = np.array([1.0, 1.0]) / np.sqrt(2)
        assert g == pytest.approx(4.0 + np.sqrt(2) * brightness(square, u), rel=1e-12)

    def test_zero_translate(self):
        rng = np.random.default_rng(10)
        for body in (random_polygon(rng, 6), random_polytope3(rng, 8)):
            assert convex_hull_function(body, np.zeros(body.dim)) == pytest.approx(body.volume, rel=1e-13)

    def test_translate_identity_property(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            body = random_polygon(rng, 7) if rng.random() < 0.5 else random_polytope3(rng, 9)
            for _ in range(20):
                u = unit_vector(rng, body.dim)
                alpha = rng.uniform(-3, 3)
                g = convex_hull_function(body, alpha * u)
                assert g == pytest.approx(body.volume + abs(alpha) * brightness(body, u), rel=1e-9)

    def test_reflection_invariance(self):
        rng = np.random.default_rng(12)
        body = random_polygon(rng, 8)
        flipped = body.negate()
        for _ in range(20):
            t = rng.normal(size=2)
            g = convex_hull_function(body, t)
            assert convex_hull_function(flipped, t) == pytest.approx(g, rel=1e-12)
            assert convex_hull_function(body, -t) == pytest.approx(g, rel=1e-12)

    def test_convex_along_lines(self):
        rng = np.random.default_rng(13)
        for body in (random_polygon(rng, 7), random_polytope3(rng, 8)):
            for _ in range(10):
                a = rng.normal(size=body.dim)
                b = rng.normal(size=body.dim)
                mid = convex_hull_function(body, a + 0.5 * b)
                ends = convex_hull_function(body, a) + convex_hull_function(body, a + b)
                assert mid <= 0.5 * ends + 1e-9 * mid


class TestHomotheticHullFunction:
    def test_boundary_of_minimal_set(self, square):
        assert homothetic_hull_function(square, 0.5, [0.5, 0.0]) == pytest.approx(4.0, rel=1e-14)

    def test_worked_square_value(self, square):
        assert homothetic_hull_function(square, 0.5, [2.0, 0.0]) == pytest.approx(6.25, abs=0)

    def test_lambda_zero_is_point_case(self, square):
        rng = np.random.default_rng(14)
        for _ in range(10):
            t = rng.normal(size=2) * 2
            assert homothetic_hull_function(square, 0.0, t) == pytest.approx(
                point_hull_volume(square, t).value, rel=1e-12
            )

    def test_lambda_range(self, square):
        with pytest.raises(LambdaOutOfRange):
            homothetic_hull_function(square, 1.0, [0, 0])
        with pytest.raises(LambdaOutOfRange):
            homothetic_hull_function(square, -0.1, [0, 0])

    def test_needs_origin_for_positive_lambda(self, square):
        with pytest.raises(OriginNotInterior):
            homothetic_hull_function(square.translate([5, 0]), 0.5, [0, 0])

    def test_minimal_set_characterization(self):
        rng = np.random.default_rng(15)
        for body in (random_polygon(rng, 7), random_polytope3(rng, 8)):
            lam = rng.uniform(0.2, 0.8)
            shrunk = body.scale(1 - lam)
            for _ in range(50):
                u = unit_vector(rng, body.dim)
                scale = rng.choice([rng.uniform(0.3, 0.9), rng.uniform(1.1, 1.6)])
                t = scale * shrunk.gauge(u) * u
                minimal = homothetic_hull_function(body, lam, t) <= body.volume * (1 + 1e-12)
                assert minimal == shrunk.contains(t)

    def test_uniqueness_vertex_recovery(self):
        # the minimal sublevel set is (1 - lam) K: bisect its boundary along
        # each edge-midpoint direction (where the membership transition is
        # first order), take the supporting line there, and intersect
        # consecutive lines; rescaling reproduces K's vertex set.  Raw qhull
        # volumes serve as the membership oracle.
        from scipy.spatial import ConvexHull

        rng = np.random.default_rng(16)
        body = random_polygon(rng, 6)
        lam = 0.4
        m = len(body)

        def minimal(t):
            pts = np.vstack((body.vertices, lam * body.vertices + t))
            return ConvexHull(pts).volume <= body.volume * (1 + 1e-13)

        mids = 0.5 * (body.vertices + np.roll(body.vertices, -1, axis=0))
        offsets = []
        for mid in mids:
            u = mid / np.linalg.norm(mid)
            lo, hi = 0.0, 2.0 * body.diameter
            for _ in range(80):
                probe = 0.5 * (lo + hi)
                if minimal(probe * u):
                    lo = probe
                else:
                    hi = probe
            offsets.append(float(body.facet_normals[len(offsets)] @ (lo * u)))
        for i in range(m):
            j = (i + 1) % m
            mat = np.vstack((body.facet_normals[i], body.facet_normals[j]))
            corner = np.linalg.solve(mat, np.array([offsets[i], offsets[j]]))
            recovered = corner / (1 - lam)
            assert np.linalg.norm(recovered - body.vertices[j]) <= 1e-9 * body.diameter


class TestPointHullVolume:
    def test_square_far_point(self, square):
        out = point_hull_volume(square, [4.0, 0.0])
        assert out.value == pytest.approx(7.0, abs=0)
        assert len(out.active_facets) == 1

    def test_square_two_visible_facets(self, square):
        out = point_hull_volume(square, [2.0, 2.0])
        assert out.value == pytest.approx(6.0, abs=0)
        assert len(out.active_facets) == 2

    def test_interior_point(self, square):
        out = point_hull_volume(square, [0.3, -0.4])
        assert out.value == square.volume
        assert out.active_facets == ()

    def test_against_hull_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            body = random_polygon(rng, 7) if rng.random() < 0.5 else random_polytope3(rng, 9)
            t = rng.normal(size=body.dim) * rng.uniform(0.1, 3)
            oracle = hull(np.vstack((body.vertices, t[None, :]))).volume
            assert point_hull_volume(body, t).value == pytest.approx(oracle, rel=1e-9)

    def test_value_is_the_batched_value(self):
        # the value is point_hull_values' on the one point, bit for bit equal
        # to the one-point closed form on a (dim,) vector that it replaced
        rng = np.random.default_rng(18)
        for _ in range(300):
            body = random_polygon(rng, 7) if rng.random() < 0.5 else random_polytope3(rng, 9)
            t = rng.normal(size=body.dim) * rng.uniform(0.1, 3)
            slack = t @ body.facet_normals.T - body.facet_offsets
            closed = body.volume + float(np.maximum(slack, 0.0) @ body.facet_areas) / body.dim
            value = point_hull_volume(body, t).value
            assert type(value) is float
            assert value == float(point_hull_values(body, t)[0]) == closed


class TestLambdaReduce:
    def test_worked_square_instance(self, square):
        out = lambda_reduce(square, 0.5, [2.0, 0.0])
        assert out == pytest.approx(7.0, abs=1e-12)
        assert out == pytest.approx(point_hull_volume(square, [4.0, 0.0]).value, abs=1e-12)

    def test_lambda_zero_identity(self, square):
        rng = np.random.default_rng(18)
        for _ in range(5):
            t = rng.normal(size=2) * 2
            assert lambda_reduce(square, 0.0, t) == pytest.approx(
                point_hull_volume(square, t).value, rel=1e-12
            )

    def test_minimal_set_maps_into_body(self, square):
        # t in (1 - lam) K reduces to a point inside K, so both sides give vol
        assert lambda_reduce(square, 0.5, [0.4, -0.3]) == pytest.approx(4.0, rel=1e-12)

    def test_identity_random(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            body = random_polygon(rng, 6) if rng.random() < 0.5 else random_polytope3(rng, 8)
            lam = rng.uniform(0, 0.9)
            t = rng.normal(size=body.dim) * rng.uniform(0.2, 2)
            rhs = point_hull_volume(body, t / (1 - lam)).value
            assert lambda_reduce(body, lam, t) == pytest.approx(rhs, rel=1e-9)

    def test_lambda_range(self, square):
        with pytest.raises(LambdaOutOfRange):
            lambda_reduce(square, 1.0, [1.0, 0.0])
