import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import cKDTree

from hullkit import (
    DegenerateInput,
    GeometryError,
    TooFewDirections,
    brightness_many,
    constancy_check,
    convex_hull_function,
    delta_values,
    difference_body,
    gauge,
    hausdorff_distance,
    homothety_fit,
    hull,
    polar_projection_body,
    projection_body,
    tcvp_check,
    translative_volume_constant,
)
from hullkit import bodies as bodies_module
from hullkit import projection
from hullkit.bodies import EPS, _cross, _diameter, _polar_points
from hullkit.fileio import parse_body
from hullkit.projection import (
    _facet_generators,
    _zonotope,
    _zonotope_duals,
    _zonotope_points,
    _zonotope_signs,
)
from hullkit.sampling import (
    direction_set,
    random_polygon,
    random_polytope3,
    regular_polygon,
    reuleaux_polygon,
)

from conftest import calls_in

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _iterated_zonotope(generators):
    """Reference for ``_zonotope``: the seed parallelepiped, then one hull of
    the translates v +- g per further generator (iterated Minkowski sums)."""
    gens = [g for g in np.asarray(generators, dtype=float) if np.linalg.norm(g) > 1e-14]
    merged = []
    for g in gens:
        for i, h in enumerate(merged):
            if np.linalg.norm(np.cross(g, h)) <= 1e-12 * np.linalg.norm(g) * np.linalg.norm(h):
                merged[i] = h + (1.0 if g @ h > 0 else -1.0) * g
                break
        else:
            merged.append(g.copy())
    seed = [merged[0]]
    for g in merged[1:]:
        if len(seed) == 1 and np.linalg.norm(np.cross(seed[0], g)) > 1e-12:
            seed.append(g)
        elif len(seed) == 2 and abs(np.cross(seed[0], seed[1]) @ g) > 1e-12:
            seed.append(g)
        if len(seed) == 3:
            break
    rest = [g for g in merged if not any(g is s for s in seed)]
    corners = np.array([s1 * seed[0] + s2 * seed[1] + s3 * seed[2]
                        for s1 in (-1, 1) for s2 in (-1, 1) for s3 in (-1, 1)])
    zono = hull(corners)
    for g in rest:
        zono = hull(np.vstack((zono.vertices + g, zono.vertices - g)))
    return zono


def _stacked_norms(a):
    return np.sqrt((a[:, None, :] @ a[:, :, None])[:, 0, 0])


def _reference_zonotope_points(generators):
    """Reference for ``_zonotope_points``, as it first computed the
    candidates: every generator through the merge loop, the sign rows in
    ``np.lexsort`` order (`_reference_zonotope_signs`), and each point
    summed one generator at a time."""
    gens = np.asarray(generators, dtype=float)
    norms = _stacked_norms(gens)
    kept = norms > 1e-14 * np.max(norms, initial=0.0)
    gens, norms = gens[kept], norms[kept]
    merged = np.empty_like(gens)
    m = 0
    for g, norm in zip(gens, norms.tolist()):
        parallel = np.nonzero(_stacked_norms(_cross(g, merged[:m])) <= 1e-12 * norm * _stacked_norms(merged[:m]))[0]
        if len(parallel):
            h = merged[parallel[0]]
            h += (1.0 if g @ h > 0 else -1.0) * g
        else:
            merged[m] = g
            m += 1
    merged = list(merged[:m])
    seed = [merged[0]]
    for g in merged[1:]:
        if len(seed) == 1:
            independent = np.linalg.norm(_cross(seed[0], g)) > 1e-12 * np.linalg.norm(seed[0]) * np.linalg.norm(g)
        else:
            n = _cross(seed[0], seed[1])
            independent = abs(n @ g) > 1e-12 * np.linalg.norm(n) * np.linalg.norm(g)
        if independent:
            seed.append(g)
        if len(seed) == 3:
            break
    rest = [g for g in merged if not any(g is s for s in seed)]
    gens = np.array(seed + rest)
    signs = _reference_zonotope_signs(gens)
    pts = signs[:, 0, None] * gens[0]
    for c in range(1, len(gens)):
        pts = pts + signs[:, c, None] * gens[c]
    return pts


def _reference_zonotope_signs(gens):
    """Reference for ``_zonotope_signs``: every candidate row of every pair,
    negated too, put in order by ``np.lexsort`` and compared row by row."""
    k = len(gens)
    tie_tol = 1e-12 * np.linalg.norm(gens, axis=1)
    i, j = np.triu_indices(k, 1)
    n = _cross(gens[i], gens[j])
    n /= np.linalg.norm(n, axis=1)[:, None]
    ti = _cross(gens[j], n)
    tj = _cross(n, gens[i])
    ab = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    w = ab[:, 0, None, None] * ti + ab[:, 1, None, None] * tj
    heights = n @ gens.T
    s = np.where(np.abs(heights) > tie_tol, np.sign(heights), np.sign(w @ gens.T))
    signs = s.reshape(-1, k).astype(np.int8)
    signs = signs[np.all(signs != 0, axis=1)]
    signs = np.concatenate((signs, -signs))
    signs = signs[np.lexsort(np.vstack((signs[:, 2::-1].T, -signs[:, 3:].T)))]
    return signs[np.r_[True, np.any(signs[1:] != signs[:-1], axis=1)]]


def _prism(m):
    base = regular_polygon(m).vertices
    return hull(np.vstack([np.column_stack((base, np.full(m, z))) for z in (-1.0, 1.0)]))


# three coplanar generators on each coordinate plane: facets whose vertices
# plain corners +-c +- g_i +- g_j miss
TRIPLE_POINT_GENERATORS = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 1, 1], [1, 0, 1], [1, 1, 0]]


def _zonotope_cases():
    rng = np.random.default_rng(34)
    cases = [(f"random_{n}", _facet_generators(random_polytope3(rng, n))) for n in (7, 10, 12)]
    cases += [
        ("tetrahedron", _facet_generators(hull([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]))),
        ("cube", _facet_generators(hull([[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]))),
        ("octahedron", _facet_generators(hull(np.vstack((np.eye(3), -np.eye(3)))))),
    ]
    cases += [(f"prism_{m}", _facet_generators(_prism(m))) for m in (3, 5, 6, 11)]
    cases.append(("triple_point", np.array(TRIPLE_POINT_GENERATORS, dtype=float)))
    return cases


def brute_force_delta(body, angles):
    """Independent oracle: hull volume of an actual touching pair of
    translates, minus the volume, per direction."""
    diff = difference_body(body)
    out = []
    for theta in angles:
        u = np.array([np.cos(theta), np.sin(theta)])
        tau = gauge(diff, u)
        out.append(convex_hull_function(body, tau * u) - body.volume)
    return np.array(out)


class TestProjectionBody:
    def test_cube(self, cube):
        out = projection_body(cube)
        assert sorted(map(tuple, np.round(out.vertices, 9).tolist())) == sorted(
            (x, y, z) for x in (-4.0, 4.0) for y in (-4.0, 4.0) for z in (-4.0, 4.0)
        )

    def test_square_rotation_invariant_case(self, square):
        out = projection_body(square)
        assert sorted(map(tuple, np.round(out.vertices, 12).tolist())) == [
            (-2.0, -2.0),
            (-2.0, 2.0),
            (2.0, -2.0),
            (2.0, 2.0),
        ]

    def test_tetrahedron_zonotope(self, tetrahedron):
        zono = projection_body(tetrahedron)
        # rhombic dodecahedron: 14 vertices, 12 rhombic facets
        assert len(zono.vertices) == 14
        assert len(zono.facet_loops) == 12
        dirs = direction_set(3, 200)
        support = zono.support_many(dirs)
        bright = brightness_many(tetrahedron, dirs)
        assert np.max(np.abs(support - bright) / bright) <= 1e-9

    def test_zonotope_support_matches_brightness_random(self):
        rng = np.random.default_rng(30)
        for _ in range(3):
            body = random_polytope3(rng, int(rng.integers(6, 13)))
            zono = projection_body(body)
            dirs = np.array([u / np.linalg.norm(u) for u in rng.normal(size=(500, 3))])
            support = zono.support_many(dirs)
            bright = brightness_many(body, dirs)
            assert np.max(np.abs(support - bright) / bright) <= 1e-9

    def test_2d_support_matches_brightness(self):
        rng = np.random.default_rng(31)
        body = random_polygon(rng, 9)
        out = projection_body(body)
        dirs = direction_set(2, 200)
        assert np.max(np.abs(out.support_many(dirs) - brightness_many(body, dirs))) <= 1e-9

    def test_zonotope_volume_determinant_formula(self, tetrahedron):
        # volume of sum of segments [-g, g] is 8 * sum |det| over triples
        rng = np.random.default_rng(33)
        for body in (tetrahedron, random_polytope3(rng, 9)):
            gens = 0.5 * body.facet_areas[:, None] * body.facet_normals
            total = 0.0
            k = len(gens)
            for i in range(k):
                for j in range(i + 1, k):
                    for m in range(j + 1, k):
                        total += abs(np.linalg.det(np.vstack((gens[i], gens[j], gens[m]))))
            assert projection_body(body).volume == pytest.approx(8 * total, rel=1e-9)


class TestZonotope:
    @pytest.mark.parametrize("name,gens", _zonotope_cases(), ids=[c[0] for c in _zonotope_cases()])
    def test_matches_iterated_minkowski_sums(self, name, gens):
        ref = _iterated_zonotope(gens)
        zono = _zonotope(gens)
        # same coordinates bit for bit, listed in the same order
        assert np.array_equal(zono.vertices, ref.vertices)
        assert zono.volume == pytest.approx(ref.volume, rel=1e-14, abs=0)

    def test_large_coordinates(self, cube):
        # the generators' cross products have squared norms of order
        # coordinate^8: finite at 1e38, overflowing at 1e40
        gens = _facet_generators(cube.scale(1e38))
        assert np.array_equal(_zonotope(gens).vertices, _iterated_zonotope(gens).vertices)
        for build in (projection_body, tcvp_check):
            with pytest.raises(DegenerateInput, match="^projection body: generator cross products overflow"):
                build(cube.scale(1e40))

    def test_tiny_zonotope_errors_name_the_projection_body(self, cube):
        # the bodies build, but the zonotope's Newell squares are of order
        # coordinate^8 and underflow; the message names the projection body,
        # as `polar` names the polar body.  `tcvp_check` builds no zonotope,
        # and its fit is the unit-scale body's
        rng = np.random.default_rng(1)
        cases = [(random_polytope3(rng, 8), -126), (random_polytope3(rng, 9), -126), (cube, -130)]
        message = "^projection body: coordinates too small: squared facet normals underflow$"
        for body, k in cases:
            tiny = body.scale(2.0**k)
            for build in (projection_body, polar_projection_body):
                with pytest.raises(DegenerateInput, match=message):
                    build(tiny)
            want = tcvp_check(body).polar_projection_homothety
            fit = tcvp_check(tiny).polar_projection_homothety
            assert fit.defect == pytest.approx(want.defect, rel=1e-12, abs=0)
            assert fit.ratio == pytest.approx(want.ratio * 2.0 ** (-3 * k), rel=1e-12, abs=0)

    @pytest.mark.parametrize("scale", [5e-3, 1e-3, 1e-7])
    def test_small_bodies(self, cube, scale):
        # the generators are of order scale², so the seed's cross and triple
        # products (scale⁴, scale⁶) once fell below absolute thresholds
        want = scale**6 * projection_body(cube).volume
        assert projection_body(cube.scale(scale)).volume == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("k", [-60, -20, 20])
    def test_candidates_scale_with_the_generators(self, cube, k):
        # every threshold is relative, and scaling by 2^k is exact
        body = random_polytope3(np.random.default_rng(6), 9)
        for gens in (_facet_generators(cube), _facet_generators(body)):
            want = _zonotope_points(gens) * 2.0**k
            assert _zonotope_points(gens * 2.0**k).tobytes() == want.tobytes()

    def test_candidates_match_the_reference(self, monkeypatch):
        # random sets of 3 to 60 generators, with sort keys of one and of
        # two chunks, skip the merge loop; the bodies with parallel facets
        # and the sets with parallel rows take it; each at scales 2^k too
        rng = np.random.default_rng(37)
        sets = [(name, gens, None) for name, gens in _zonotope_cases()]
        sets += [(f"random_{k}", rng.normal(size=(k, 3)) * 2.0 ** rng.integers(-4, 5, size=(k, 1)), False)
                 for k in range(3, 61)]
        cube = hull([[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)])
        symmetric = random_polytope3(rng, 7).vertices
        parallel = [cube, _prism(4), _prism(8), hull(np.vstack((np.eye(3), -np.eye(3)))),
                    hull(np.vstack((symmetric, -symmetric)))]
        doubled = rng.normal(size=(9, 3))
        sets += [(f"parallel_{n}", _facet_generators(body), True) for n, body in enumerate(parallel)]
        sets.append(("doubled", np.vstack((doubled, -3.0 * doubled[[4, 1]], 0.5 * doubled[[7]])), True))
        # parallel by 1e-12 |g| |h|, though not by 1e-12 |h|^2
        sets.append(("near_parallel", np.vstack((np.eye(3), [[1e3, 1e-10, 0.0]])), True))
        real = projection._merge_parallel
        merges = []
        monkeypatch.setattr(projection, "_merge_parallel", lambda *a: merges.append(1) or real(*a))
        chunks = set()
        for name, gens, merging in sets:
            for k in (0, -40, 30):
                del merges[:]
                scaled = gens * 2.0**k
                got = _zonotope_points(scaled)
                assert got.tobytes() == _reference_zonotope_points(scaled).tobytes(), (name, k)
                assert got.flags.c_contiguous
                if merging is not None:
                    assert bool(merges) == merging, name
            chunks.add((len(gens) + 51) // 52)
        assert chunks == {1, 2}

    @pytest.mark.parametrize("k", [3, 52, 53, 104, 105])
    def test_sign_rows_match_the_reference(self, k):
        # one, two and three key chunks of 52 places, and the edges between
        gens = np.random.default_rng(k).normal(size=(k, 3))
        got = _zonotope_signs(gens)
        assert got.dtype == np.int8
        assert np.array_equal(got, _reference_zonotope_signs(gens))

    def test_sign_rows_memory_is_bounded(self):
        # 196 generators: the (8 * pairs, k) int8 copies around a lexsort of
        # every column peaked at 109 MB; keyed by chunks, 46 MB were measured
        gens = _facet_generators(random_polytope3(np.random.default_rng(1), 100))
        assert len(gens) == 196
        tracemalloc.start()
        try:
            _zonotope_signs(gens)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6

    def test_candidate_call_count(self):
        """A cost guard: `_zonotope_points` on 20 generators makes at most
        1.25 times the Python-level calls it makes on 8, so that work per
        generator cannot come back unseen (165 against 181 with numpy 2.4;
        701 against 413 when every generator went through the merge loop
        and each point was summed one generator at a time)."""
        rng = np.random.default_rng(36)
        few, many = rng.normal(size=(8, 3)), rng.normal(size=(20, 3))
        _zonotope_points(few), _zonotope_points(many)  # first-call set-up
        assert calls_in(_zonotope_points, many) <= 1.25 * calls_in(_zonotope_points, few)

    def test_triple_point_vertices(self):
        zono = _zonotope(TRIPLE_POINT_GENERATORS)
        assert len(zono) == 26
        assert zono.volume == pytest.approx(144.0, rel=1e-14, abs=0)


def _exact_duals(generators):
    """Oracle for `_zonotope_duals`, in integers: +-c / sum_k |<g_k, c>| for
    c = g_i x g_j over every pair of the generators whose c is not zero,
    each point the double nearest the exact quotient.  The generators are
    multiplied by a power of two that makes them integers, and the quotient
    is homogeneous of degree -1, so no step rounds but the last."""
    ratios = [x.as_integer_ratio() for x in np.asarray(generators, dtype=float).ravel().tolist()]
    den = max(d for _, d in ratios)
    ints = [n * (den // d) for n, d in ratios]
    gens = [ints[r:r + 3] for r in range(0, len(ints), 3)]
    out = []
    for a, (x1, y1, z1) in enumerate(gens):
        for x2, y2, z2 in gens[a + 1:]:
            c = (y1 * z2 - z1 * y2, z1 * x2 - x1 * z2, x1 * y2 - y1 * x2)
            if c != (0, 0, 0):
                h = sum(abs(x * c[0] + y * c[1] + z * c[2]) for x, y, z in gens)
                point = [float(Fraction(v * den, h)) for v in c]
                out += [point, [-v for v in point]]
    return np.array(out)


def _set_gap(a, b):
    """Hausdorff distance of two finite point sets."""
    return max(cKDTree(b).query(a)[0].max(), cKDTree(a).query(b)[0].max())


def _icosahedron():
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    return hull([p for s in (-1.0, 1.0) for t in (-phi, phi)
                 for p in ([0.0, s, t], [s, t, 0.0], [t, 0.0, s])])


def _oracle_bodies(cube, tetrahedron):
    rng = np.random.default_rng(41)
    bodies = [cube, hull(np.vstack((np.eye(3), -np.eye(3)))), tetrahedron, _prism(5), _icosahedron()]
    bodies += [random_polytope3(rng, n) for n in range(5, 25)]
    return bodies + _tcvp3d_bodies(1)


class TestZonotopeDuals:
    """`_zonotope_duals`, the vertices of the polar projection body that
    `tcvp_check` fits, read off the generators with no hull."""

    def test_match_the_exact_duals(self, cube, tetrahedron):
        # measured: the duals lie within 9.8e-15 of the dual diameter of the
        # exact ones, both ways, and the built projection body's points
        # n_F/b_F within 1.2e-11
        for n, body in enumerate(_oracle_bodies(cube, tetrahedron)):
            gens = _facet_generators(body)
            exact = _exact_duals(gens)
            diameter = _diameter(exact)
            assert _set_gap(_zonotope_duals(gens), exact) <= 1e-12 * diameter, n
            assert _set_gap(_polar_points(projection_body(body)), exact) <= EPS * diameter, n

    @pytest.mark.parametrize("n", range(11))
    def test_scale_sweep(self, cube, n):
        # 2^k K for k in [-140, 130]: each fit is the unit-scale body's,
        # with the ratio scaled by 2^-3k, or a typed error; every k in
        # [-128, 126] builds, as the built polar projection body did
        rng = np.random.default_rng(42)
        bodies = [cube] + [random_polytope3(rng, int(rng.integers(5, 13))) for _ in range(10)]
        body = bodies[n]
        want = tcvp_check(body).polar_projection_homothety
        built = set()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in range(-140, 131):
                try:
                    fit = tcvp_check(body.scale(2.0**k)).polar_projection_homothety
                except DegenerateInput:
                    continue
                assert fit.defect == pytest.approx(want.defect, rel=1e-12, abs=0), k
                assert fit.ratio == pytest.approx(want.ratio * 2.0 ** (-3 * k), rel=1e-12, abs=0), k
                built.add(k)
        assert set(range(-128, 127)) <= built

    def test_memory_is_bounded(self):
        # 300 generators: 44 850 pairs, whose (pairs, generators) heights
        # would be 108 MB in one product; 18 MB were measured in row blocks
        gens = np.random.default_rng(43).normal(size=(300, 3))
        tracemalloc.start()
        try:
            _zonotope_duals(gens)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6

    @pytest.mark.parametrize("gens", [np.empty((0, 3)), np.eye(3)[:2], [[1, 0, 0], [0, 1, 0], [1, 1, 0], [2, 0, 0]],
                                      [[1e-20, 0, 0], [0, 1e-20, 0], [0, 0, 1]]])
    def test_degenerate_generators(self, gens):
        # too few independent generators after dropping and merging: the
        # duals never reach `_diameter`
        with pytest.raises(DegenerateInput, match="^zonotope generators do not span 3-space$"):
            _zonotope_duals(np.asarray(gens, dtype=float))


class TestPolarProjectionBody:
    def test_cube(self, cube):
        out = polar_projection_body(cube)
        expected = {(0.25, 0, 0), (-0.25, 0, 0), (0, 0.25, 0), (0, -0.25, 0), (0, 0, 0.25), (0, 0, -0.25)}
        got = {tuple(np.round(v, 12)) for v in out.vertices}
        assert got == expected

    def test_square(self, square):
        out = polar_projection_body(square)
        expected = {(0.5, 0.0), (-0.5, 0.0), (0.0, 0.5), (0.0, -0.5)}
        got = {tuple(np.round(v, 12)) for v in out.vertices}
        assert got == expected

    def test_tetrahedron_is_scaled_difference_body(self, tetrahedron):
        out = polar_projection_body(tetrahedron)
        target = difference_body(tetrahedron).scale(1.0 / 8.0)
        assert hausdorff_distance(out, target) <= 1e-9 * target.diameter


class TestTcvp:
    def test_equilateral_triangle_passes(self):
        report = tcvp_check(regular_polygon(3), 360)
        assert report.passes
        assert report.relative_spread < 1e-9
        assert report.polar_projection_homothety.is_homothet

    def test_unit_leg_right_triangle_delta_is_one(self, unit_triangle):
        deltas = delta_values(unit_triangle, direction_set(2, 360))
        assert np.max(np.abs(deltas - 1.0)) <= 1e-12

    def test_regular_hexagon_passes(self):
        report = tcvp_check(regular_polygon(6), 360)
        assert report.passes
        assert report.polar_projection_homothety.defect < 1e-6

    def test_cube_fails(self, cube):
        report = tcvp_check(cube, 360)
        assert not report.passes
        assert report.relative_spread > 0.2
        # spot values: axis and main diagonal
        assert delta_values(cube, np.array([[1.0, 0.0, 0.0]]))[0] == pytest.approx(8.0, rel=1e-12)
        diag = np.ones(3) / np.sqrt(3)
        assert delta_values(cube, diag[None, :])[0] == pytest.approx(24.0, rel=1e-12)

    def test_regular_tetrahedron_passes(self, tetrahedron):
        report = tcvp_check(tetrahedron, 360)
        assert report.passes
        assert report.polar_projection_homothety.defect < 1e-6
        assert report.polar_projection_homothety.ratio == pytest.approx(1.0 / 8.0, rel=1e-9)
        assert np.linalg.norm(report.polar_projection_homothety.translation) <= 1e-9

    def test_overflowing_delta_mean_is_degenerate(self, square):
        # Delta(u) is near 1e307 and finite, but its mean overflows
        big = square.scale(1e153)
        assert np.all(np.isfinite(delta_values(big, direction_set(2, 360))))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateInput):
                tcvp_check(big, 360)

    def test_brute_force_delta_agreement(self):
        angles = 2 * np.pi * np.arange(3600) / 3600
        for body in (regular_polygon(3), regular_polygon(6)):
            oracle = brute_force_delta(body, angles[::30])
            fast = delta_values(body, np.column_stack((np.cos(angles[::30]), np.sin(angles[::30]))))
            assert np.max(np.abs(oracle - fast) / oracle) <= 1e-9
            assert (oracle.max() - oracle.min()) / oracle.mean() < 1e-9

    def test_report_reads_delta_values(self, cube):
        # one Delta(u) for both: the report's statistics are those of
        # delta_values, bit for bit
        rng = np.random.default_rng(33)
        for body in (random_polygon(rng, 7), random_polytope3(rng, 8), cube):
            deltas = delta_values(body, direction_set(body.dim, 360))
            report = tcvp_check(body, 360)
            stats = (report.delta_min, report.delta_max, report.delta_mean)
            assert stats == (float(deltas.min()), float(deltas.max()), float(np.mean(deltas)))

    def test_translation_invariance(self):
        rng = np.random.default_rng(32)
        for body in (random_polygon(rng, 7), random_polytope3(rng, 8)):
            t = rng.normal(size=body.dim)
            a = tcvp_check(body, 64)
            b = tcvp_check(body.translate(t), 64)
            assert b.delta_min == pytest.approx(a.delta_min, rel=1e-12)
            assert b.delta_max == pytest.approx(a.delta_max, rel=1e-12)
            assert b.delta_mean == pytest.approx(a.delta_mean, rel=1e-12)
            assert abs(b.relative_spread - a.relative_spread) <= 1e-12

    def test_spread_and_homothety_verdicts_agree(self):
        rng = np.random.default_rng(20)
        bodies = [
            regular_polygon(3),
            regular_polygon(6),
            hull([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]),
            hull([[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]),
            random_polygon(rng, 7),
        ]
        for body in bodies:
            report = tcvp_check(body, 360)
            assert (report.relative_spread < 1e-6) == (report.polar_projection_homothety.defect < 1e-6)

    def test_lambda_upper_bound(self):
        # for bodies with the constant-excess property, 2/Delta is at most
        # (v_n / v_{n-1}) / vol, with near equality only for the disk
        cases = [
            (regular_polygon(512), 2),
            (regular_polygon(3), 2),
            (regular_polygon(6), 2),
            (hull([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]), 3),
        ]
        vball = {1: 2.0, 2: np.pi, 3: 4 * np.pi / 3}
        gaps = []
        for body, n in cases:
            report = tcvp_check(body, 360)
            lam = 2.0 / report.delta_mean
            bound = vball[n] / vball[n - 1] / body.volume
            assert lam <= bound + 1e-3 * bound
            gaps.append((bound - lam) / bound)
        assert gaps[0] <= 1e-3  # the disk approximation is the equality case
        assert all(g > 1e-2 for g in gaps[1:])


def _tcvp3d_bodies(seed):
    """The benchmark's tcvp3d bodies of a seed (perfbench/inputs.py)."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import inputs
    finally:
        sys.path.remove(str(PERFBENCH))
    return [parse_body(text) for text in inputs.make_inputs("tcvp3d", seed).bodies]


class TestPolarProjectionFit:
    """`tcvp_check` reads the polar projection body's support and diameter
    off its vertices instead of building it: in 2D the points n_F/b_F of the
    projection body's facet planes, in 3D `_zonotope_duals`.  The planar
    fit is the one against the built polar body, bit for bit; the 3D duals
    are not the built body's bits (their planes are not the hull's Newell
    planes), and the fit agrees to the rounding level."""

    def test_fit_matches_the_built_polar_body(self, cube):
        rng = np.random.default_rng(19)
        bodies = [cube, *(regular_polygon(m) for m in range(3, 13))]
        bodies += [random_polygon(rng, int(rng.integers(3, 13))) for _ in range(10)]
        bodies += [random_polytope3(rng, int(rng.integers(4, 13))) for _ in range(10)]
        bodies += _tcvp3d_bodies(1)
        for body in bodies:
            fit = tcvp_check(body).polar_projection_homothety
            ref = homothety_fit(difference_body(body), polar_projection_body(body))
            assert fit.is_homothet == ref.is_homothet
            if body.dim == 2:
                for field in ("ratio", "defect", "translation", "center"):
                    assert np.asarray(getattr(fit, field)).tobytes() == np.asarray(getattr(ref, field)).tobytes()
                continue
            # measured maxima over the 3D bodies: ratio 4.4e-16 relative,
            # defect 1.9e-16, translation 2.6e-17 of diam Π°K and center
            # 3.3e-16 of diam K
            assert fit.ratio == pytest.approx(ref.ratio, rel=1e-14, abs=0)
            assert abs(fit.defect - ref.defect) <= 1e-14
            assert np.max(np.abs(fit.translation - ref.translation)) <= 1e-14 * polar_projection_body(body).diameter
            assert np.max(np.abs(fit.center - ref.center)) <= 1e-14 * body.diameter

    def test_hull_calls(self, cube, monkeypatch):
        # 3D: the difference body alone; 2D: none (the polygon difference
        # body is an edge merge), and one difference body, which the 2D
        # projection body rotates
        original = bodies_module.hull
        hulls, diffs = [], []

        def counting_hull(points):
            hulls.append(len(points))
            return original(points)

        def counting_difference_body(body):
            diffs.append(body.dim)
            return bodies_module.difference_body(body)

        for module in (bodies_module, projection):
            monkeypatch.setattr(module, "hull", counting_hull)
        monkeypatch.setattr(projection, "difference_body", counting_difference_body)
        tcvp_check(cube)
        assert (len(hulls), diffs) == (1, [3])
        hulls.clear()
        diffs.clear()
        tcvp_check(regular_polygon(7))
        assert (len(hulls), diffs) == (0, [2])

    def test_tiny_bodies_fit_where_the_polar_hull_failed(self, cube):
        # the projection body of the cube at 2^-129 is a cube of half-side
        # 2^-256, so its duals are ~2^256, where qhull refuses to build the
        # polar body (QH6154); the fit needs no hull of them
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = tcvp_check(cube.scale(2.0**-129)).polar_projection_homothety
        assert not fit.is_homothet
        with pytest.raises(DegenerateInput, match="QH6154"):
            polar_projection_body(cube.scale(2.0**-129))


class TestTranslativeVolumeConstant:
    def test_square(self, square):
        assert translative_volume_constant(square) == pytest.approx(3.0, rel=1e-9)

    def test_disk_is_extremal(self):
        value = translative_volume_constant(regular_polygon(512))
        assert value == pytest.approx(1 + 4 / np.pi, abs=1e-3)

    def test_unit_leg_right_triangle(self, unit_triangle):
        assert translative_volume_constant(unit_triangle) == pytest.approx(3.0, rel=1e-9)


class TestConstancyCheck:
    def test_cube(self, cube):
        assert constancy_check(cube) == (False, False)

    def test_disk_approximation(self):
        assert constancy_check(regular_polygon(256)) == (True, True)

    def test_reuleaux_triangle_constant_width(self):
        body = reuleaux_polygon()
        width_constant, _ = constancy_check(body)
        assert width_constant

    def test_plane_constant_width_implies_near_constant_excess(self):
        # in the plane, constant width forces the touching-translate excess to
        # be constant as well; the polygonal approximation limits the spread
        body = reuleaux_polygon()
        report = tcvp_check(body, 360)
        assert report.relative_spread < 1e-3
        assert report.polar_projection_homothety.defect < 1e-3

    def test_dirs_precondition(self, cube):
        with pytest.raises(ValueError):
            tcvp_check(cube, 8)
        with pytest.raises(ValueError):
            translative_volume_constant(cube, 8)

    def test_preconditions_raise_geometry_errors(self, cube):
        with pytest.raises(TooFewDirections):
            tcvp_check(cube, 8)
        with pytest.raises(TooFewDirections):
            translative_volume_constant(cube, 8)
        assert issubclass(TooFewDirections, GeometryError)
        with pytest.raises(DegenerateInput, match="span 3-space"):
            _zonotope([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [2.0, 0.0, 0.0]])
        with pytest.raises(DegenerateInput, match="span 3-space"):
            _zonotope([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0], [1.0, -1.0, 0.0]])
