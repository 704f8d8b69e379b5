import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from hullkit.bodies import _diameter
from hullkit.cli import main
from hullkit.extensions import PARALLEL_TOL, SidelineTable, admissible_extension_pairs
from hullkit.fileio import serialize_body
from hullkit.illumination import homothety_from_pairs
from hullkit.sampling import random_polygon, regular_polygon

from conftest import outcome


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

    def test_matches_pairwise_loop(self):
        rng = np.random.default_rng(21)
        polygons = [regular_polygon(m) for m in range(3, 65)]
        for _ in range(60):
            m = int(rng.integers(3, 13))
            polygons.append(random_polygon(rng, m))
            polygons.append(affinely_regular_polygon(m, rng.normal(size=(2, 2)), rng.normal(size=2)))
        for polygon in polygons:
            table = sideline_intersections(polygon)
            assert table.points.tobytes() == _loop_sideline_points(polygon.vertices).tobytes(), len(polygon)


def _loop_sideline_points(v):
    """Per-pair reference for SidelineTable: the scalar double loop."""
    m = len(v)
    pts = np.full((m, m, 2), np.nan)
    dirs = np.roll(v, -1, axis=0) - v
    lengths = np.linalg.norm(dirs, axis=1)
    for i in range(m):
        pts[i, (i + 1) % m] = v[(i + 1) % m]
        pts[(i + 1) % m, i] = v[(i + 1) % m]
    for i in range(m):
        for j in range(i + 2, m):
            if i == 0 and j == m - 1:
                continue
            cross = dirs[i, 0] * dirs[j, 1] - dirs[i, 1] * dirs[j, 0]
            if abs(cross) <= PARALLEL_TOL * lengths[i] * lengths[j]:
                continue
            rhs = v[j] - v[i]
            s = (rhs[0] * dirs[j, 1] - rhs[1] * dirs[j, 0]) / cross
            pts[i, j] = pts[j, i] = v[i] + s * dirs[i]
    return pts


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


# ---------------------------------------------------------------------------
# SidelineTable.gather against the per-point reading it replaced, and
# sidelines within a few PARALLEL_TOL of parallel


def _loop_points(table, pairs):
    """The table entries of the pairs read one at a time, raising at the
    first pair without a point."""
    m = table.m
    rows = []
    for i, j in pairs:
        p = table.points[i % m, j % m]
        if not np.all(np.isfinite(p)):
            raise MissingIntersection(f"sidelines {i % m} and {j % m} do not meet in a point")
        rows.append(p)
    return np.array(rows)


def _loop_kl_vertices(polygon, k, l):
    m = len(polygon)
    return _loop_points(SidelineTable(polygon), [(j - k - 1, j + l) for j in range(m)])


def _loop_extension_check(polygon, k, l):
    """extension_homothety_check's numbers from the per-point images."""
    m, s = len(polygon), (k + l) // 2
    images = _loop_points(SidelineTable(polygon), [(t - 1 - s, t + s) for t in range(m)])
    report = homothety_from_pairs(polygon.vertices, images, _diameter(images))
    g = point_hull_values(polygon, images)
    gmean = float(np.mean(g))
    return report.ratio, report.translation, report.defect, float(np.max(np.abs(g - gmean))) / gmean


def _extension_check(polygon, k, l):
    report, level_residual = extension_homothety_check(polygon, k, l)
    return report.ratio, report.translation, report.defect, level_residual


def _assert_gather_matches_loop(polygon, kl_pairs):
    for k, l in kl_pairs:
        got = outcome(lambda: kl_extension(polygon, k, l).vertices)
        assert got == outcome(_loop_kl_vertices, polygon, k, l), (len(polygon), k, l)
    for k, l in admissible_extension_pairs(len(polygon)):
        assert outcome(_extension_check, polygon, k, l) == outcome(_loop_extension_check, polygon, k, l)


class TestGather:
    def test_matches_the_per_point_loop(self):
        rng = np.random.default_rng(22)
        polygons = [regular_polygon(m) for m in range(3, 25)]  # even m: parallel sidelines
        polygons.append(hull([[1, 1], [-1, 1], [-1, -1], [1, -1]]))
        for _ in range(20):
            m = int(rng.integers(3, 13))
            polygons.append(random_polygon(rng, m))
            polygons.append(affinely_regular_polygon(m, rng.normal(size=(2, 2)), rng.normal(size=2)))
        kl_pairs = [(k, l) for k in range(4) for l in range(4)]
        for polygon in polygons:
            _assert_gather_matches_loop(polygon, kl_pairs)

    def test_names_the_first_missing_pair(self):
        # the regular hexagon's (1, 1)-extension needs p[j - 2, j + 1]: j = 0
        # asks for sidelines 4 and 1, parallel, and so do j = 1, 2, ...
        hexagon = regular_polygon(6)
        with pytest.raises(MissingIntersection, match="^sidelines 4 and 1 do not meet in a point$"):
            kl_extension(hexagon, 1, 1)
        table = SidelineTable(hexagon)
        with pytest.raises(MissingIntersection, match="^sidelines 2 and 5 do not meet in a point$"):
            table.gather([0, 2, 3, 0], [1, 5, 0, 3])
        assert table.gather([0, -1], [7, 3]).tobytes() == table.points[[0, 5], [1, 3]].tobytes()

    def test_extension_check_names_the_first_missing_pair(self):
        # an octagon whose sides 0 and 3 are parallel: the (1, 1) check maps
        # v_2 to p[0, 3], and reads only its own m sideline pairs
        ang = np.concatenate((np.pi * np.arange(4) / 3, np.pi + np.pi * np.arange(1, 5) / 5))
        lengths = np.array([1.0, 1.0, 1.0, 1.0] + [np.sqrt(3) / np.sum(np.sin(np.pi * np.arange(1, 5) / 5))] * 4)
        edges = lengths[:, None] * np.column_stack((np.cos(ang), np.sin(ang)))
        octagon = Polygon(np.cumsum(edges, axis=0) - edges)
        with pytest.raises(MissingIntersection, match="^sidelines 0 and 3 do not meet in a point$"):
            extension_homothety_check(octagon, 1, 1)
        _assert_gather_matches_loop(octagon, [(1, 1)])


@st.composite
def _nearly_parallel_polygon(draw):
    """A rotated, scaled regular 2n-gon (n = 2..6, so side i is parallel to
    side i + n) whose side i + n is turned by c * PARALLEL_TOL radians,
    |c| <= 4, by moving its end vertex; that turns side i + n + 1 by about as
    much against side i + 1."""
    n = draw(st.integers(2, 6))
    m = 2 * n
    ang = draw(st.floats(0.0, 2.0 * np.pi)) + 2.0 * np.pi * np.arange(m) / m
    v = draw(st.floats(0.1, 10.0)) * np.column_stack((np.cos(ang), np.sin(ang)))
    j = (draw(st.integers(0, m - 1)) + n) % m
    t = draw(st.floats(-4.0, 4.0)) * PARALLEL_TOL
    d = v[(j + 1) % m] - v[j]
    v[(j + 1) % m] = v[j] + np.array([d[0] * np.cos(t) - d[1] * np.sin(t), d[0] * np.sin(t) + d[1] * np.cos(t)])
    return Polygon(v)


@settings(database=None, max_examples=100, deadline=None, derandomize=True)
@given(polygon=_nearly_parallel_polygon(), k=st.integers(0, 3), l=st.integers(0, 3))
def test_nearly_parallel_sidelines(polygon, k, l):
    """The table has NaN exactly at the non-adjacent pairs with
    |cross| <= PARALLEL_TOL |d_i| |d_j|; the gather names the pair the loop
    names; `hullkit extend` keeps the CLI contract."""
    v = polygon.vertices
    m = len(v)
    table = SidelineTable(polygon)
    dirs = np.roll(v, -1, axis=0) - v
    lengths = np.linalg.norm(dirs, axis=1)
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            cross = dirs[i, 0] * dirs[j, 1] - dirs[i, 1] * dirs[j, 0]
            adjacent = (j - i) % m in (1, m - 1)
            if not adjacent and abs(cross) <= PARALLEL_TOL * lengths[i] * lengths[j]:
                assert np.isnan(table.points[i, j]).all()
            else:
                assert np.isfinite(table.points[i, j]).all()
    _assert_gather_matches_loop(polygon, [(k, l)])

    pairs = admissible_extension_pairs(m) or [(1, 1)]
    k, l = pairs[min(k, len(pairs) - 1)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "body.json"
        path.write_text(serialize_body(polygon))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["extend", str(path), "--k", str(k), "--l", str(l)])
    assert code in (0, 1)
    if code == 1:
        assert out.getvalue() == ""
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
