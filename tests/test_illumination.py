import itertools

import numpy as np
import pytest

from hullkit import (
    DegenerateInput,
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
from hullkit.bodies import EPS
from hullkit.illumination import _facet_lines, _level_crossings, _ray_level_solves
from hullkit.sampling import direction_set, random_polygon, random_polytope3, regular_polygon

from conftest import unit_vector


# Per-line reference: the level solve of one line at a time, walking the
# breakpoints out from the minimum.  ``seen`` collects which branches ran.


def _breakpoints(body, x0, d, seen=None):
    """Where the line crosses facet planes, ascending, and the values there.
    Marks "repeat" in seen where np.unique drops a breakpoint that has a
    larger, kept one after it (so the batched kernel compacts its row)."""
    den = body.facet_normals @ d
    num = body.facet_offsets - body.facet_normals @ x0
    mask = np.abs(den) > 1e-14 * np.max(np.abs(den))
    raw = np.sort(num[mask] / den[mask])
    kept = np.concatenate(([True], raw[1:] != raw[:-1]))
    if seen is not None and np.any(kept[1:] > kept[:-1]):
        seen.add("repeat")
    breaks = np.unique(raw)
    return breaks, point_hull_values(body, x0 + breaks[:, None] * d)


def _loop_line_crossings(body, x0, d, level, seen):
    breaks, vals = _breakpoints(body, x0, d, seen)
    if len(breaks) == 0:
        return []
    imin = int(np.argmin(vals))
    if vals[imin] >= level:
        if vals[imin] <= level * (1 + 1e-12):
            seen.add("touch")
            return [float(breaks[imin])]
        seen.add("tangent")
        return []

    span = float(breaks[-1] - breaks[0]) or 1.0

    def solve(idx, step):
        i = idx
        while 0 <= i + step < len(breaks):
            j = i + step
            if vals[j] >= level:
                ga, gb = vals[i], vals[j]
                return float(breaks[i] + (level - ga) * (breaks[j] - breaks[i]) / (gb - ga))
            i = j
        seen.add("probe")
        s_end = float(breaks[i])
        probe = s_end + step * span
        g_end = float(vals[i])
        g_probe = float(point_hull_values(body, (x0 + probe * d)[None, :])[0])
        slope = (g_probe - g_end) / (probe - s_end)
        if slope * step <= 0:
            raise GeometryError("level crossing not found; body may be unbounded along the line")
        return s_end + (level - g_end) / slope

    return [solve(imin, -1), solve(imin, +1)]


def _loop_lines(body):
    """(x0, d) of each sideline (2D) or facet-pair line (3D), one at a time."""
    if body.dim == 2:
        v = body.vertices
        return [(v[i], v[(i + 1) % len(v)] - v[i]) for i in range(len(v))]
    normals, offsets = body.facet_normals, body.facet_offsets
    lines = []
    for i in range(len(normals)):
        for j in range(i + 1, len(normals)):
            d = np.cross(normals[i], normals[j])
            nrm = np.linalg.norm(d)
            if nrm <= EPS:
                continue
            d /= nrm
            mat = np.vstack((normals[i], normals[j], d))
            lines.append((np.linalg.solve(mat, np.array([offsets[i], offsets[j], 0.0])), d))
    return lines


def _loop_candidates(body, level, seen):
    candidates = []
    for x0, d in _loop_lines(body):
        candidates.extend(x0 + s * d for s in _loop_line_crossings(body, x0, d, level, seen))
    return np.array(candidates)


def _batched_candidates(body, level):
    x0, d = _facet_lines(body)
    lines, s = _level_crossings(body, x0, d, level)
    return x0[lines] + s[:, None] * d[lines]


def _kernel_cases():
    rng = np.random.default_rng(27)
    prism = regular_polygon(5).vertices
    return {
        "square": hull([[1, 1], [-1, 1], [-1, -1], [1, -1]]),
        "triangle": hull([[0, 0], [1, 0], [0, 1]]),
        "polygon7": random_polygon(rng, 7),
        "polygon12": random_polygon(rng, 12),
        "cube": hull([[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]),
        "tetrahedron": hull([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]),
        "prism5": hull(np.vstack([np.column_stack((prism, np.full(5, z))) for z in (-1.0, 1.0)])),
        "polytope9": random_polytope3(rng, 9),
        "polytope12": random_polytope3(rng, 12),
        # degree-4 vertices: lines through them meet two facet planes there
        "octahedron": hull(np.vstack((np.eye(3), -np.eye(3)))),
        "pyramid4": hull([[1, 1, 0], [-1, 1, 0], [-1, -1, 0], [1, -1, 0], [0, 0, 1.5]]),
    }


KERNEL_CASES = _kernel_cases()


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

    def test_many_rays_match_per_ray_loop(self):
        # one kernel call over all rays gives each ray's per-line solution
        for body in KERNEL_CASES.values():
            level = 1.5 * body.volume
            dirs = direction_set(body.dim, 60 if body.dim == 2 else 100)
            origin = np.zeros(body.dim)
            ref = [max(s for s in _loop_line_crossings(body, origin, u, level, set()) if s > 0) for u in dirs]
            assert _ray_level_solves(body, dirs, level).tolist() == ref
            assert [ray_level_solve(body, u, level) for u in dirs[:5]] == ref[:5]

    def test_many_rays_raise_as_one_ray(self, square):
        dirs = direction_set(2, 16)
        with pytest.raises(LevelBelowVolume):
            _ray_level_solves(square, dirs, 3.9)
        shifted = square.translate([100.0, 0.0])
        with pytest.raises(GeometryError):
            _ray_level_solves(shifted, dirs, shifted.volume + 1e-9)

    def test_level_below_volume(self, square):
        with pytest.raises(LevelBelowVolume):
            ray_level_solve(square, [1.0, 0.0], 3.9)

    def test_ray_base_outside_level(self, square):
        shifted = square.translate([100.0, 0.0])
        with pytest.raises(GeometryError):
            ray_level_solve(shifted, np.array([1.0, 0.0]), shifted.volume + 1e-9)


class TestBatchedLineSolves:
    @pytest.mark.parametrize("factor", [0.05, 0.5, 2.0])
    @pytest.mark.parametrize("name", sorted(KERNEL_CASES))
    def test_candidates_match_per_line_loops(self, name, factor):
        body = KERNEL_CASES[name]
        level = body.volume + factor * body.volume
        ref = _loop_candidates(body, level, set())
        got = _batched_candidates(body, level)
        assert got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()

    def test_every_branch_is_compared(self):
        # probes beyond the outermost breakpoint (every sideline of the square),
        # lines that miss the level (far facet pairs at a small delta),
        # lines that touch it in one point and repeated breakpoints inside a
        # line (through the octahedron's vertices) all occur among the cases
        # above
        seen = set()
        for body in KERNEL_CASES.values():
            for factor in (0.05, 0.5, 2.0):
                _loop_candidates(body, body.volume + factor * body.volume, seen)
        assert {"probe", "tangent", "repeat"} <= seen
        # at the minimum of the line that lies highest, that line touches
        body = KERNEL_CASES["polytope12"]
        level = max(np.min(_breakpoints(body, x0, d)[1]) for x0, d in _loop_lines(body))
        seen = set()
        ref = _loop_candidates(body, level, seen)
        assert "touch" in seen
        assert _batched_candidates(body, level).tobytes() == ref.tobytes()


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

    def test_level_set_whose_squared_distances_overflow(self, square, cube):
        for body in (square, cube):
            with pytest.raises(DegenerateInput):
                illumination_body(body, 1e300)

    def test_sideline_crossings_are_exactly_the_vertices(self):
        # every solution of the level equation on a sideline is a corner of
        # the level curve, and every corner arises this way
        rng = np.random.default_rng(26)
        body = random_polygon(rng, 6)
        level_set = illumination_body_2d(body, 0.4)
        v = body.vertices
        d = np.roll(v, -1, axis=0) - v
        lines, s = _level_crossings(body, v, d, level_set.level)
        crossings = v[lines] + s[:, None] * d[lines]
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
