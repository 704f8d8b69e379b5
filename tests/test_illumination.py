import itertools

import numpy as np
import pytest

from hullkit import (
    GeometryError,
    LevelBelowVolume,
    NonPositiveDelta,
    hausdorff_distance,
    homothetic_hull_function,
    homothety_fit,
    hull,
    illumination_body,
    illumination_body_2d,
    illumination_body_3d,
    point_body_distance,
    point_hull_values,
    ray_level_solve,
)
from hullkit.sampling import direction_set, random_polygon, random_polytope3

from conftest import unit_vector


class TestRayLevelSolve:
    def test_square_axis(self, square):
        assert ray_level_solve(square, [1.0, 0.0], 7.0) == pytest.approx(4.0, rel=1e-13)

    def test_square_boundary_limit(self, square):
        eps = 1e-9
        tau = ray_level_solve(square, [1.0, 0.0], 4.0 + eps)
        # one visible facet of length 2: excess = (tau - 1), so tau -> 1+
        assert tau == pytest.approx(1.0 + eps, abs=1e-13)

    def test_cube_single_facet(self, cube):
        assert ray_level_solve(cube, [0.0, 0.0, 1.0], 8.0 + 4.0 / 3.0) == pytest.approx(2.0, rel=1e-12)

    def test_residual_is_tiny(self):
        rng = np.random.default_rng(21)
        for body in (random_polygon(rng, 7), random_polytope3(rng, 9)):
            for _ in range(25):
                level = body.volume * rng.uniform(1.01, 3.0)
                u = unit_vector(rng, body.dim)
                tau = ray_level_solve(body, u, level)
                got = point_hull_values(body, (tau * u)[None, :])[0]
                assert abs(got - level) <= 1e-12 * level

    def test_level_below_volume(self, square):
        with pytest.raises(LevelBelowVolume):
            ray_level_solve(square, [1.0, 0.0], 3.9)

    def test_ray_base_outside_level(self, square):
        shifted = square.translate([100.0, 0.0])
        with pytest.raises(GeometryError):
            ray_level_solve(shifted, np.array([1.0, 0.0]), shifted.volume + 1e-9)


class TestIlluminationBody2D:
    def test_square_octagon(self, square):
        level_set = illumination_body_2d(square, 1.0)
        expected = hull([[1, 2], [-1, 2], [1, -2], [-1, -2], [2, 1], [-2, 1], [2, -1], [-2, -1]])
        assert hausdorff_distance(level_set.body, expected) <= 1e-9
        assert level_set.level == pytest.approx(5.0)
        # edge midpoint of the octagon sits on the level too
        assert point_hull_values(square, np.array([[1.5, 1.5]]))[0] == pytest.approx(5.0, abs=0)

    def test_shrinks_to_body_as_delta_vanishes(self, unit_triangle):
        level_set = illumination_body_2d(unit_triangle, 1e-6)
        assert hausdorff_distance(level_set.body, unit_triangle) <= 1e-4

    def test_random_pentagon_level_residual_and_ray_oracle(self):
        rng = np.random.default_rng(22)
        body = random_polygon(rng, 5)
        level_set = illumination_body_2d(body, 0.5)
        values = point_hull_values(body, level_set.body.vertices)
        assert np.max(np.abs(values - level_set.level)) <= 1e-9 * level_set.level
        for v in body.vertices:
            assert level_set.body.contains(v)
        for u in direction_set(2, 720):
            tau = ray_level_solve(body, u, level_set.level)
            assert point_body_distance(tau * u, level_set.body) <= 1e-7 * level_set.body.diameter

    def test_nonpositive_delta(self, square, cube):
        with pytest.raises(NonPositiveDelta):
            illumination_body_2d(square, 0.0)
        with pytest.raises(NonPositiveDelta):
            illumination_body_3d(cube, -1.0)

    @pytest.mark.parametrize("delta", [np.nan, np.inf, -np.inf])
    def test_non_finite_delta(self, square, cube, delta):
        for body in (square, cube):
            with pytest.raises(NonPositiveDelta):
                illumination_body(body, delta)

    def test_sideline_crossings_are_exactly_the_vertices(self):
        # every solution of the level equation on a sideline is a corner of
        # the level curve, and every corner arises this way
        from hullkit.illumination import _line_crossings

        rng = np.random.default_rng(26)
        body = random_polygon(rng, 6)
        level_set = illumination_body_2d(body, 0.4)
        v = body.vertices
        crossings = []
        for i in range(len(v)):
            d = v[(i + 1) % len(v)] - v[i]
            crossings.extend(v[i] + s * d for s in _line_crossings(body, v[i], d, level_set.level))
        crossings = np.array(crossings)
        tol = 1e-9 * level_set.body.diameter
        for point in crossings:
            assert np.min(np.linalg.norm(level_set.body.vertices - point, axis=1)) <= tol
        for corner in level_set.body.vertices:
            assert np.min(np.linalg.norm(crossings - corner, axis=1)) <= tol


class TestIlluminationBody3D:
    def test_cube_24_points(self, cube):
        level_set = illumination_body_3d(cube, 4.0 / 3.0)
        pts = set()
        for perm in set(itertools.permutations((1, 1, 2))):
            for signs in itertools.product((1, -1), repeat=3):
                pts.add(tuple(s * c for s, c in zip(signs, perm)))
        expected = hull(np.array(sorted(pts), dtype=float))
        assert hausdorff_distance(level_set.body, expected) <= 1e-9
        # edge midpoint of the level polytope lies on the level
        assert point_hull_values(cube, np.array([[1.0, 1.5, 1.5]]))[0] == pytest.approx(
            8 + 4 / 3, rel=1e-14
        )

    def test_tetrahedron_invariants_and_ray_oracle(self, tetrahedron):
        level_set = illumination_body_3d(tetrahedron, 0.1)
        values = point_hull_values(tetrahedron, level_set.body.vertices)
        assert np.max(np.abs(values - level_set.level)) <= 1e-9 * level_set.level
        for v in tetrahedron.vertices:
            assert level_set.body.contains(v)
        for u in direction_set(3, 500):
            tau = ray_level_solve(tetrahedron, u, level_set.level)
            assert point_body_distance(tau * u, level_set.body) <= 1e-7 * level_set.body.diameter

    def test_monotone_in_delta(self):
        rng = np.random.default_rng(23)
        body = random_polytope3(rng, 8)
        small = illumination_body(body, 0.3 * body.volume)
        large = illumination_body(body, 0.9 * body.volume)
        tol = 1e-9 * large.body.diameter
        for v in small.body.vertices:
            assert large.body.contains(v, tol=tol)


class TestLambdaSublevelCorrespondence:
    def test_scaled_sublevel_matches_illumination_body(self):
        # boundary points of {G_lam <= level}, found by bisecting the
        # hull-based evaluator, scaled by 1/(1-lam), must land on the
        # boundary of the illumination body at the reduced delta
        rng = np.random.default_rng(24)
        for body in (random_polygon(rng, 6), random_polytope3(rng, 7)):
            lam = 0.35
            n = body.dim
            level = body.volume * 1.4
            delta = (level - lam**n * body.volume) / (1 - lam**n) - body.volume
            level_set = illumination_body(body, delta)
            for u in direction_set(body.dim, 40):
                lo, hi = 0.0, 4.0 * body.diameter
                for _ in range(70):
                    mid = 0.5 * (lo + hi)
                    if homothetic_hull_function(body, lam, mid * u) <= level:
                        lo = mid
                    else:
                        hi = mid
                scaled = lo / (1 - lam) * u
                assert point_body_distance(scaled, level_set.body) <= 1e-7 * level_set.body.diameter
            # reverse direction: level-set vertices map to G_lam == level
            for v in level_set.body.vertices:
                back = (1 - lam) * v
                assert homothetic_hull_function(body, lam, back) == pytest.approx(level, rel=1e-9)


class TestHomothetyFit:
    def test_exact_homothety(self, square):
        target = hull(2.0 * square.vertices + np.array([1.0, 0.0]))
        report = homothety_fit(square, target)
        assert report.is_homothet
        assert report.ratio == pytest.approx(2.0, rel=1e-12)
        assert report.center == pytest.approx([-1.0, 0.0], abs=1e-12)
        assert report.defect < 1e-12

    def test_identity(self, square):
        report = homothety_fit(square, square)
        assert report.ratio == pytest.approx(1.0, rel=1e-12)
        assert report.defect < 1e-12

    def test_square_vs_octagon_defect(self, square):
        octagon = illumination_body_2d(square, 1.0).body
        report = homothety_fit(square, octagon)
        assert not report.is_homothet
        assert report.defect > 0.05

    def test_3d_exact_homothety(self, tetrahedron):
        target = hull(0.7 * tetrahedron.vertices + np.array([0.2, -0.1, 0.4]))
        report = homothety_fit(tetrahedron, target)
        assert report.is_homothet
        assert report.ratio == pytest.approx(0.7, rel=1e-10)


class TestNoHomotheticIlluminationBody3D:
    def test_small_sample(self, tetrahedron, cube):
        rng = np.random.default_rng(25)
        bodies = [tetrahedron, cube] + [random_polytope3(rng, int(rng.integers(6, 13))) for _ in range(5)]
        for body in bodies:
            for factor in (0.05, 0.5, 2.0):
                level_set = illumination_body(body, factor * body.volume)
                assert homothety_fit(body, level_set.body).defect > 1e-3
