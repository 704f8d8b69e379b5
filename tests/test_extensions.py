import numpy as np
import pytest

from hullkit import (
    ConditionViolated,
    MissingIntersection,
    Polygon,
    SingularMatrix,
    affine_image,
    affinely_regular_polygon,
    extension_homothety_check,
    hausdorff_distance,
    hull,
    illumination_body,
    is_affinely_regular,
    kl_extension,
    point_hull_values,
    sideline_intersections,
)
from hullkit.extensions import admissible_extension_pairs
from hullkit.sampling import random_polygon, regular_polygon


class TestSidelineIntersections:
    def test_square_adjacent_and_parallel(self, square):
        table = sideline_intersections(square)
        for i in range(4):
            shared = table.point(i, i + 1)
            assert np.allclose(shared, square.vertices[(i + 1) % 4], atol=0)
        assert np.isnan(table.points[0, 2]).all()
        assert np.isnan(table.points[1, 3]).all()

    def test_triangle_all_defined(self, unit_triangle):
        table = sideline_intersections(unit_triangle)
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert np.isfinite(table.points[i, j]).all()

    def test_pentagon_pentagram_points(self):
        pentagon = regular_polygon(5)
        table = sideline_intersections(pentagon)
        apothem = np.cos(np.pi / 5)
        expected = apothem / abs(np.cos(3 * np.pi / 5))
        for j in range(5):
            p = table.point(j - 2, j + 1)
            assert np.linalg.norm(p) == pytest.approx(expected, rel=1e-12)

    def test_missing_intersection_raises(self, square):
        table = sideline_intersections(square)
        with pytest.raises(MissingIntersection):
            table.point(0, 2)


class TestKlExtension:
    def test_zero_zero_is_boundary(self):
        pentagon = regular_polygon(5)
        curve = kl_extension(pentagon, 0, 0)
        # vertices p[j-1, j] are the polygon vertices, one step rotated
        assert np.allclose(curve.vertices, np.roll(pentagon.vertices, 0, axis=0)[np.arange(5)], atol=1e-12) or sorted(
            map(tuple, np.round(curve.vertices, 12).tolist())
        ) == sorted(map(tuple, np.round(pentagon.vertices, 12).tolist()))
        ends = np.roll(curve.vertices, -1, axis=0)
        sides = {tuple(np.round(np.vstack(s), 12).ravel()) for s in zip(curve.vertices, ends)}
        expected = {
            tuple(np.round(np.vstack((pentagon.vertices[j], pentagon.vertices[(j + 1) % 5])), 12).ravel())
            for j in range(5)
        }
        assert sides == expected

    def test_regular_heptagon_ratio_and_directions(self):
        heptagon = regular_polygon(7)
        curve = kl_extension(heptagon, 1, 1)
        ratio = np.cos(np.pi / 7) / np.cos(3 * np.pi / 7)
        assert ratio == pytest.approx(4.0489, abs=1e-4)
        radii = np.linalg.norm(curve.vertices, axis=1)
        assert np.max(np.abs(radii - ratio)) <= 1e-9
        # extension vertices point in the directions of the polygon vertices
        hits = 0
        for q in curve.vertices:
            angles = np.arctan2(heptagon.vertices[:, 1], heptagon.vertices[:, 0])
            qa = np.arctan2(q[1], q[0])
            hits += np.min(np.abs(np.angle(np.exp(1j * (angles - qa))))) < 1e-9
        assert hits == 7

    def test_pentagon_pentagram_not_homothet(self):
        pentagon = regular_polygon(5)
        curve = kl_extension(pentagon, 1, 1)
        # pentagram points lie opposite the vertex directions (offset pi/5)
        for q in curve.vertices:
            qa = np.arctan2(q[1], q[0]) % (2 * np.pi / 5)
            assert qa == pytest.approx(np.pi / 5, abs=1e-9)

    def test_missing_intersection(self, square):
        with pytest.raises(MissingIntersection):
            kl_extension(square, 0, 1)  # needs p[j-1, j+1]: opposite sidelines

    def test_affine_equivariance(self):
        rng = np.random.default_rng(40)
        body = random_polygon(rng, 9)
        mat = np.array([[1.4, 0.3], [-0.2, 0.8]])
        shift = np.array([0.3, -0.7])
        mapped = affine_image(body, mat, shift)
        curve = kl_extension(body, 1, 1)
        mapped_curve = kl_extension(mapped, 1, 1)
        expected = curve.vertices @ mat.T + shift
        # the mapped polygon's vertex order may start elsewhere; match setwise
        worst = max(np.min(np.linalg.norm(mapped_curve.vertices - e, axis=1)) for e in expected)
        assert worst <= 1e-9 * mapped.diameter


class TestExtensionHomothetyCheck:
    def test_affinely_regular_heptagon(self):
        rng = np.random.default_rng(41)
        mat = np.array([[1.2, 0.5], [0.1, 0.9]])
        body = affinely_regular_polygon(7, mat, rng.normal(size=2))
        report, level_residual = extension_homothety_check(body, 1, 1)
        assert report.is_homothet
        assert report.defect < 1e-9
        assert level_residual < 1e-9
        assert report.ratio == pytest.approx(np.cos(np.pi / 7) / np.cos(3 * np.pi / 7), rel=1e-9)

    def test_perturbed_heptagon_fails(self):
        rng = np.random.default_rng(42)
        base = regular_polygon(7)
        noisy = Polygon(base.vertices + 0.01 * base.diameter * rng.normal(size=(7, 2)))
        report, _ = extension_homothety_check(noisy, 1, 1)
        assert report.defect > 1e-3

    def test_condition_violations(self):
        nine = regular_polygon(9)
        with pytest.raises(ConditionViolated):
            extension_homothety_check(nine, 1, 3)  # k+l+1 = 5 > 9/2
        with pytest.raises(ConditionViolated):
            extension_homothety_check(nine, 1, 2)  # odd k+l
        with pytest.raises(ConditionViolated):
            extension_homothety_check(regular_polygon(3), 1, 1)

    def test_admissible_pairs(self):
        assert admissible_extension_pairs(9) == [(1, 1)]
        assert admissible_extension_pairs(12) == [(1, 1), (1, 3), (2, 2), (3, 1)]
        assert admissible_extension_pairs(6) == []

    def test_higher_extension_on_regular_polygon(self):
        # (2, 2)-extension of a regular 12-gon: same cycle as (1, 3) and a
        # homothet with ratio cos(pi/12)/cos(5 pi/12)
        body = regular_polygon(12)
        report, level_residual = extension_homothety_check(body, 2, 2)
        assert report.is_homothet
        assert level_residual < 1e-9
        assert report.ratio == pytest.approx(np.cos(np.pi / 12) / np.cos(5 * np.pi / 12), rel=1e-9)
        same_cycle = kl_extension(body, 1, 3)
        balanced = kl_extension(body, 2, 2)
        worst = max(
            np.min(np.linalg.norm(balanced.vertices - q, axis=1)) for q in same_cycle.vertices
        )
        assert worst <= 1e-9

    def test_matches_illumination_body(self):
        rng = np.random.default_rng(43)
        for m in (7, 9, 11):
            body = affinely_regular_polygon(m, _well_conditioned(rng), rng.normal(size=2))
            curve = kl_extension(body, 1, 1)
            level = float(np.mean(point_hull_values(body, curve.vertices)))
            level_set = illumination_body(body, level - body.volume)
            assert hausdorff_distance(hull(curve.vertices), level_set.body) <= 1e-7


def _well_conditioned(rng):
    theta, phi = rng.uniform(0, 2 * np.pi, size=2)
    rot = lambda a: np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
    return rot(theta) @ np.diag(rng.uniform(0.5, 2.0, size=2)) @ rot(phi)


class TestAffineRegularity:
    def test_regular_pentagon_golden_ratio(self):
        report = is_affinely_regular(regular_polygon(5))
        assert report.is_affinely_regular
        assert report.tau == pytest.approx((1 + np.sqrt(5)) / 2, rel=1e-12)

    def test_sheared_hexagon(self):
        sheared = affinely_regular_polygon(6, np.array([[1.0, 1.0], [0.0, 1.0]]))
        report = is_affinely_regular(sheared)
        assert report.is_affinely_regular
        assert report.tau == pytest.approx(2.0, rel=1e-12)

    def test_moved_vertex_fails(self):
        v = regular_polygon(5).vertices.copy()
        v[0] *= 1.05
        report = is_affinely_regular(Polygon(v))
        assert not report.is_affinely_regular
        assert report.max_residual > 1e-2

    def test_singular_matrix(self):
        with pytest.raises(SingularMatrix):
            affinely_regular_polygon(5, np.array([[1.0, 1.0], [1.0, 1.0]]))
