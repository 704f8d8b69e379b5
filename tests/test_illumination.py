import io
import itertools
import json
from contextlib import redirect_stderr, redirect_stdout

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
from hullkit import illumination
from hullkit.bodies import EPS
from hullkit.cli import main
from hullkit.illumination import _facet_lines, _level_crossings, _ray_level_solves
from hullkit.sampling import direction_set, random_polygon, random_polytope3, regular_polygon

from conftest import unit_vector


# Per-line reference: the level solve of one line at a time, walking the
# breakpoints out from the minimum.  ``seen`` collects which branches ran.


def _breakpoints(body, x0, d, seen=None):
    """Where the line crosses facet planes, ascending with repeats kept, and
    the values there.  Marks "repeat" in seen where two coincide."""
    den = body.facet_normals @ d
    num = body.facet_offsets - body.facet_normals @ x0
    mask = np.abs(den) > 1e-14 * np.max(np.abs(den))
    breaks = np.sort(num[mask] / den[mask])
    if seen is not None and np.any(breaks[1:] == breaks[:-1]):
        seen.add("repeat")
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

    den = body.facet_normals @ d

    def solve(idx, step):
        i = idx
        while 0 <= i + step < len(breaks):
            j = i + step
            if vals[j] >= level:
                ga, gb = vals[i], vals[j]
                return float(breaks[i] + (level - ga) * (breaks[j] - breaks[i]) / (gb - ga))
            i = j
        # beyond the outermost breakpoint: the facets facing along the step are visible
        seen.add("beyond")
        s_end = float(breaks[i])
        g_end = float(vals[i])
        slope = step * np.vecdot(np.maximum(step * den, 0.0), body.facet_areas) / body.dim
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
    x0, d, _ = _facet_lines(body)
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
        # crossings beyond the outermost breakpoint (every sideline of the square),
        # lines that miss the level (far facet pairs at a small delta),
        # lines that touch it in one point and repeated breakpoints inside a
        # line (through the octahedron's vertices) all occur among the cases
        # above
        seen = set()
        for body in KERNEL_CASES.values():
            for factor in (0.05, 0.5, 2.0):
                _loop_candidates(body, body.volume + factor * body.volume, seen)
        assert {"beyond", "tangent", "repeat"} <= seen
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


#: delta / vol of the face-lattice oracle: the band where hull() fails
#: today, the levels of criterion 8 and the digest ops, and one far level.
LATTICE_FACTORS = (1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-4, 1e-2, 0.5, 2.0, 50.0)


def _lattice_oracle_bodies():
    # the failure band's 30 bodies, drawn in turn from default_rng(3), 12
    # seeded bodies of 4 to 20 vertices, and the regular and symmetric
    # bodies of the kernel cases
    rng = np.random.default_rng(3)
    band = [random_polytope3(rng, int(rng.integers(6, 13))) for _ in range(30)]
    rng = np.random.default_rng(29)
    seeded = [random_polytope3(rng, n) for n in (4, 5, 6, 7, 8, 9, 10, 11, 12, 14, 16, 20)]
    return band + seeded + [KERNEL_CASES[name] for name in ("cube", "tetrahedron", "prism5", "octahedron", "pyramid4")]


def _level_set_or_error(body, delta):
    try:
        return illumination_body(body, delta).body
    except GeometryError as exc:
        return exc


class TestFaceLattice:
    def test_lattice_builds_what_hull_builds(self, monkeypatch):
        # each level set is built once as it is and once with the face
        # lattice switched off, so by hull(merged) alone: where the lattice
        # builds, it has the hull's vertices bit for bit, its facets' loops
        # (start and direction too), and planes and volume within rounding;
        # where it does not, the two are the same body or the same error
        real = illumination._lattice_body
        built = {factor: 0 for factor in LATTICE_FACTORS}
        started_apart = []
        for body in _lattice_oracle_bodies():
            for factor in LATTICE_FACTORS:
                delta = factor * body.volume
                made = []
                monkeypatch.setattr(illumination, "_lattice_body", lambda *args: made.append(real(*args)) or made[-1])
                got = _level_set_or_error(body, delta)
                monkeypatch.setattr(illumination, "_lattice_body", lambda *args: None)
                want = _level_set_or_error(body, delta)
                if isinstance(want, GeometryError):
                    assert (type(got), str(got)) == (type(want), str(want)), factor
                    continue
                assert not isinstance(got, GeometryError), (factor, got)
                assert got.vertices.tobytes() == want.vertices.tobytes()
                if not any(b is not None for b in made):
                    for field in ("facet_normals", "facet_offsets", "facet_areas"):
                        assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
                    continue
                built[factor] += 1
                assert set(map(frozenset, got.facet_loops)) == set(map(frozenset, want.facet_loops))
                at = {frozenset(loop): f for f, loop in enumerate(want.facet_loops)}
                order = [at[frozenset(loop)] for loop in got.facet_loops]
                for loop, f in zip(got.facet_loops, order):
                    if loop != want.facet_loops[f]:
                        # the same cycle, from another start
                        assert loop in [want.facet_loops[f][k:] + want.facet_loops[f][:k] for k in range(len(loop))]
                        started_apart.append((body, factor))
                assert np.abs(got.facet_normals - want.facet_normals[order]).max() <= 1e-12
                assert np.abs(got.facet_offsets - want.facet_offsets[order]).max() <= 1e-12 * want.diameter
                assert abs(got.volume - want.volume) <= 1e-15 * want.volume
        # of the 47 bodies, the lattice builds all but a few level sets from
        # delta / vol = 1e-2 on (44 to 47 at each), and none inside the band
        # (1e-12 to 1e-7), which hull() decides as before
        assert min(built[f] for f in (1e-2, 0.5, 2.0, 50.0)) >= 42
        assert sum(built[f] for f in LATTICE_FACTORS[:6]) == 0
        # the loops start apart only where the lowest point is tied: on two
        # facets of the octahedron at delta = 1e-2 vol, whose lattice and
        # qhull normals differ in the last bits
        assert started_apart == [(KERNEL_CASES["octahedron"], 1e-2)] * 2

    def test_level_sets_left_to_hull_name_their_guard(self, caplog):
        # inside the band every level set is left to hull(), with one debug
        # line that names why: a merge, or a guard of the face lattice
        caplog.set_level("DEBUG", logger="hullkit.illumination")
        guards = (
            "a line meets the level set once",
            "two candidates lie within the merge tolerance",
            "a candidate lies near a third facet plane",
            "two facets are nearly one plane",
            "a loop turn is nearly flat",
            "a facet's triangles may not merge",
        )
        named = set()
        for body, factor in itertools.product(_lattice_oracle_bodies()[:10], LATTICE_FACTORS[:6]):
            caplog.clear()
            _level_set_or_error(body, factor * body.volume)
            (line,) = [record.getMessage() for record in caplog.records]
            if line.startswith("merged "):
                assert line.endswith(" coincident level-set candidates")
            else:
                named.add(line.removeprefix("level set left to hull(): "))
        assert named and named <= set(guards)


def _scale_cases():
    rng = np.random.default_rng(51)
    return {
        # the lines through the apex cross two facet planes, both at s = 0
        "pyramid4": KERNEL_CASES["pyramid4"].vertices,
        "cube": KERNEL_CASES["cube"].vertices,
        "polytope9": random_polytope3(rng, 9).vertices,
        "polytope12": random_polytope3(rng, 12).vertices,
    }


SCALE_CASES = _scale_cases()


class TestIlluminationAtScale:
    @pytest.mark.parametrize("k", [51, 60, 100, 150])
    @pytest.mark.parametrize("name", sorted(SCALE_CASES))
    def test_builds_at_any_scale(self, name, k, tmp_path):
        # the crossings beyond the last breakpoint take the slope the facets
        # give, which scales as the body does: the level set of 2^k K is 2^k
        # times that of K, bit for bit, and the CLI builds it too
        base = hull(SCALE_CASES[name])
        body = hull(2.0**k * SCALE_CASES[name])
        path = tmp_path / "body.json"
        path.write_text(json.dumps({"dim": 3, "vertices": body.vertices.tolist()}))
        for factor in (0.05, 0.5, 2.0):
            level_set = illumination_body(body, factor * body.volume)
            values = point_hull_values(body, level_set.body.vertices)
            assert np.max(np.abs(values - level_set.level)) <= 1e-12 * level_set.level
            small = illumination_body(base, factor * base.volume).body
            assert level_set.body.vertices.tobytes() == np.ldexp(small.vertices, k).tobytes()
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(["illum", str(path), "--delta", repr(factor * body.volume)])
            assert (code, err.getvalue()) == (0, "")


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
