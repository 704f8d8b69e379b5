import itertools
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull, cKDTree

from hullkit import (
    EPS,
    DegenerateInput,
    DimensionMismatch,
    GeometryError,
    NonUnitDirection,
    OriginNotInterior,
    Polygon,
    Polytope3,
    affinely_regular_polygon,
    brightness,
    brightness_many,
    central_symmetral,
    difference_body,
    gauge,
    hausdorff_distance,
    hull,
    illumination_body,
    illumination_body_3d,
    kl_extension,
    minkowski_sum,
    point_body_distance,
    point_body_distances,
    point_hull_values,
    polar,
    projection_body,
    shadow_area,
    support,
)
from hullkit import acceptance, bodies
from hullkit.illumination import _ray_level_solves
from hullkit.sampling import direction_set, random_polygon, random_polytope3, regular_polygon

from conftest import outcome, unit_vector


class TestHull:
    def test_interior_point_dropped(self):
        body = hull([[0, 0], [1, 0], [0, 1], [0.2, 0.2]])
        assert len(body) == 3
        assert sorted(map(tuple, body.vertices.tolist())) == [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0)]

    def test_square(self, square):
        assert len(square) == 4
        assert square.volume == pytest.approx(4.0, abs=0)

    def test_ccw_orientation(self):
        body = Polygon([[0, 0], [0, 1], [1, 0]])  # clockwise input
        edges = np.roll(body.vertices, -1, axis=0) - body.vertices
        nxt = np.roll(edges, -1, axis=0)
        cross = edges[:, 0] * nxt[:, 1] - edges[:, 1] * nxt[:, 0]
        assert np.all(cross > 0)

    def test_random_points_in_ball(self):
        rng = np.random.default_rng(1)
        for dim in (2, 3):
            pts = rng.normal(size=(100, dim))
            pts *= rng.uniform(0, 1, size=100)[:, None] ** (1 / dim) / np.linalg.norm(pts, axis=1)[:, None]
            body = hull(pts)
            for p in pts:
                assert body.contains(p)
            again = hull(body.vertices)
            assert sorted(map(tuple, again.vertices.tolist())) == sorted(map(tuple, body.vertices.tolist()))
            # brute-force extremality: no hull vertex is inside the hull of the others
            for i in range(len(body)):
                rest = hull(np.delete(body.vertices, i, axis=0))
                assert not rest.contains(body.vertices[i], tol=-EPS * body.diameter)

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateInput):
            hull([[0, 0], [1, 0]])
        with pytest.raises(DegenerateInput):
            hull([[0, 0], [1, 1], [2, 2], [3, 3]])
        with pytest.raises(DegenerateInput):
            hull([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]])

    @pytest.mark.parametrize("scale", [1e154, 1e200, 1e300])
    def test_coordinates_whose_squared_distances_overflow(self, square, cube, scale):
        for body in (square, cube):
            with pytest.raises(DegenerateInput):
                hull(scale * body.vertices)

    @pytest.mark.parametrize("k", [-276, -400, -528])
    def test_sliver_removal_that_leaves_too_few_points(self, k):
        # the sliver test's squared terms underflow, so every triangle reads
        # as flat and every point is dropped
        v = random_polytope3(np.random.default_rng(0), 9).vertices
        with pytest.raises(DegenerateInput, match="^hull construction failed: fewer than 4 points left"):
            hull(v * 2.0**k)

    def test_illumination_body_scaled_below_the_sliver_test(self):
        body = random_polytope3(np.random.default_rng(7), 9)
        v = illumination_body(body, 0.05 * body.volume).body.vertices
        assert len(v) == 144
        with pytest.raises(DegenerateInput, match="^hull construction failed: fewer than 4 points left"):
            hull(v * 1e-100)

    @pytest.mark.parametrize("scale", [1e-162, 1e-165, 1e-200, 1e-300])
    def test_coordinates_whose_squared_distances_underflow(self, scale):
        # cKDTree's squared distances underflow to 0, so every point but
        # the first looked like a duplicate and the set like a flat one
        heptagon = regular_polygon(7).vertices
        simplex_plus = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], dtype=float)
        for pts in (heptagon, simplex_plus):
            with pytest.raises(DegenerateInput, match="^coordinates too small: squared distances underflow$"):
                hull(scale * pts)

    def test_tiny_coordinates_that_resolve_still_build(self):
        # at 1e-160 the squared distances are subnormal but not 0: the
        # heptagon builds, with its input coordinates passed through
        pts = 1e-160 * regular_polygon(7).vertices
        body = hull(pts)
        ref = Polygon(pts[bodies._hull2_indices(pts)])
        assert sorted(map(tuple, body.vertices.tolist())) == sorted(map(tuple, pts.tolist()))
        for field in ("vertices", "facet_normals", "facet_offsets", "facet_areas"):
            assert getattr(body, field).tobytes() == getattr(ref, field).tobytes(), field

    def test_tiny_flat_points_stay_lower_dimensional(self):
        with pytest.raises(DegenerateInput, match="^points are lower-dimensional$"):
            hull(1e-200 * np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]))

    def test_qhull_failure_is_one_line(self, cube):
        # qhull's report runs to about 50 lines; the error keeps its first
        with pytest.raises(DegenerateInput) as info:
            hull(1e153 * cube.vertices)
        message = str(info.value)
        assert "\n" not in message
        assert message.startswith("hull construction failed: QH")

    def test_duplicate_vertices_rejected_by_polygon(self):
        with pytest.raises(DegenerateInput):
            Polygon([[0, 0], [1, 0], [1, 0], [0, 1]])

    def test_cube_facets_merged(self, cube):
        assert len(cube.facet_loops) == 6
        assert all(len(loop) == 4 for loop in cube.facet_loops)

    def test_unsupported_dimension(self):
        with pytest.raises(GeometryError):
            hull(np.zeros((5, 4)))

    def test_inconsistent_facet_loops_rejected(self, tetrahedron):
        with pytest.raises(DegenerateInput):
            Polytope3(tetrahedron.vertices, list(tetrahedron.facet_loops)[:3])

    def test_one_qhull_and_one_polytope3_per_hull(self, monkeypatch):
        # perfbench/spans.py times qhull and Polytope3 validation by wrapping
        # these two names; a 3D hull without slivers passes each once
        v = random_polytope3(np.random.default_rng(5), 9).vertices
        pts = np.vstack((v, 0.5 * v + [0.3, -0.2, 0.1]))
        calls = []
        qhull, init = bodies.ConvexHull, Polytope3.__init__

        def traced_qhull(*args, **kwargs):
            calls.append("qhull")
            return qhull(*args, **kwargs)

        def traced_init(self, *args, **kwargs):
            calls.append("Polytope3")
            return init(self, *args, **kwargs)

        monkeypatch.setattr(bodies, "ConvexHull", traced_qhull)
        monkeypatch.setattr(Polytope3, "__init__", traced_init)
        assert isinstance(hull(pts), Polytope3)
        assert calls == ["qhull", "Polytope3"]


CUBE = np.array([[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)], dtype=float)


def _loop_hull3(pts):
    """Per-simplex reference for ``_hull3``: sliver reruns, a seed-plane BFS
    per group and one 2D hull per group, written as plain loops.  Returns the
    kept points and the unvalidated, unremapped facet loops."""
    span = bodies._span(pts)
    while True:
        qh = ConvexHull(pts)
        flat = set()
        for simplex in qh.simplices:
            tri = pts[simplex]
            sides = tri[[1, 2, 0]] - tri
            lengths = np.linalg.norm(sides, axis=1)
            longest = int(np.argmax(lengths))
            if np.linalg.norm(np.cross(sides[0], -sides[2])) <= EPS * span * lengths[longest]:
                flat.add(int(simplex[(longest + 2) % 3]))
        if not flat:
            break
        pts = np.delete(pts, sorted(flat), axis=0)
    normals, offsets = qh.equations[:, :3], -qh.equations[:, 3]
    group = np.full(len(qh.simplices), -1)
    seeds = []
    for seed in range(len(group)):
        if group[seed] >= 0:
            continue
        group[seed], stack = len(seeds), [seed]
        while stack:
            for nb in qh.neighbors[stack.pop()]:
                if (
                    group[nb] < 0
                    and np.linalg.norm(normals[nb] - normals[seed]) <= bodies._MERGE_NORMAL_TOL
                    and abs(offsets[nb] - offsets[seed]) <= EPS * span
                ):
                    group[nb] = len(seeds)
                    stack.append(nb)
        seeds.append(seed)
    loops = []
    for gid, seed in enumerate(seeds):
        vids = np.unique(qh.simplices[group == gid])
        n = normals[seed]
        basis1 = np.cross(n, [1.0, 0.0, 0.0])
        if np.linalg.norm(basis1) < 0.5:
            basis1 = np.cross(n, [0.0, 1.0, 0.0])
        basis1 /= np.linalg.norm(basis1)
        local = np.column_stack((pts[vids] @ basis1, pts[vids] @ np.cross(n, basis1)))
        ring = bodies._hull2_indices(local, tol=EPS * span * max(bodies._span(local), EPS * span))
        loop = [int(vids[i]) for i in ring]
        loops.append(loop[::-1] if n @ pts.mean(axis=0) > offsets[seed] else loop)
    return pts, loops


def _loop_facet_planes(vertices, loops):
    """Per-facet reference for Polytope3's Newell normals, offsets and areas,
    with each loop turned to face outward."""
    centroid = vertices.mean(axis=0)
    out = []
    for loop in loops:
        ring = vertices[list(loop)]
        raw = np.sum(np.cross(ring, np.roll(ring, -1, axis=0)), axis=0)
        nrm = np.linalg.norm(raw)
        n = raw / nrm
        b = float(np.mean(ring @ n))
        if n @ centroid > b:
            loop, n, b = loop[::-1], -n, -b
        out.append((tuple(loop), n, b, 0.5 * nrm))
    return out


def _per_length_heights(pts, normals, starts, sizes):
    """Reference for `bodies._loop_heights`: heights and offsets as
    `Polytope3` took them before, one batch per loop length."""
    heights = np.empty(len(pts))
    offsets = np.empty(len(sizes))
    for size in np.unique(sizes):
        fs = np.nonzero(sizes == size)[0]
        at = starts[fs, None] + np.arange(size)
        heights[at] = (pts[at] @ normals[fs, :, None])[:, :, 0]
        offsets[fs] = np.mean(heights[at], axis=1)
    return heights, offsets


def _unique_isin_edge_error(nv, loops):
    """Reference for `Polytope3`'s edge checks, with `np.unique` and
    `np.isin` as before, on outward loops: the message, or None."""
    heads = np.concatenate(loops)
    tails = np.concatenate([np.roll(loop, -1) for loop in loops])
    keys = heads * nv + tails
    if len(np.unique(keys)) < len(keys):
        return "facet loops are not consistently oriented"
    if not np.all(np.isin(tails * nv + heads, keys)):
        return "facet loops are not edge-consistent"
    return None


class TestHullMerging:
    def test_cube_with_face_points_gives_six_quads(self):
        rng = np.random.default_rng(11)
        extra = []
        for axis in range(3):
            for side in (-1.0, 1.0):
                face = rng.uniform(-0.9, 0.9, size=(3, 3))
                face[:, axis] = side
                extra.append(face)
        body = hull(np.vstack([CUBE, *extra]))
        assert len(body) == 8
        assert len(body.facet_loops) == 6
        assert all(len(loop) == 4 for loop in body.facet_loops)
        assert body.volume == pytest.approx(8.0, rel=1e-14)

    def test_point_near_cube_edge_dropped_by_sliver_rule(self):
        # inside the y = -1 face by 0.3 EPS*span and below z = -1 by 0.1
        # EPS*span: qhull keeps it as a vertex of a sliver triangle
        span = 2.0
        p = [0.3, -1.0 + 0.3 * EPS * span, -1.0 - 0.1 * EPS * span]
        pts = np.vstack((CUBE, p))
        flat, _ = bodies._flat_sliver_vertices(pts, ConvexHull(pts), EPS * span)
        assert [int(i) for i in flat] == [8]
        body = hull(pts)
        assert len(body) == 8
        assert sorted(len(loop) for loop in body.facet_loops) == [4] * 6

    @pytest.mark.parametrize("lift, vertices, facets", [(0.1, 8, 6), (10.0, 9, 9)])
    def test_lifted_face_point_merge_threshold(self, lift, vertices, facets):
        p = [0.2, 0.3, 1.0 + lift * EPS * 2.0]
        body = hull(np.vstack((CUBE, p)))
        assert (len(body), len(body.facet_loops)) == (vertices, facets)

    def test_drifting_fan_split_by_seed_plane(self):
        # a 24-triangle cone of slope 1e-9 on a prism: neighbouring triangles
        # agree within the merge tolerance, opposite ones do not
        m = 24
        th = 2 * np.pi * np.arange(m) / m
        rim = np.column_stack((np.cos(th), np.sin(th), np.ones(m)))
        base = rim * [1.0, 1.0, -1.0]
        apex = [0.0, 0.0, 1.0 + 1e-9]
        pts = np.vstack(([apex], rim, base))
        tri = np.cross(rim - apex, np.roll(rim, -1, axis=0) - apex)
        tri /= np.linalg.norm(tri, axis=1)[:, None]
        step = np.linalg.norm(tri - np.roll(tri, -1, axis=0), axis=1)
        drift = np.linalg.norm(tri - tri[0], axis=1)
        assert np.max(step) < bodies._MERGE_NORMAL_TOL < np.max(drift)
        body = hull(pts)
        top = [loop for loop, n in zip(body.facet_loops, body.facet_normals) if n[2] > 0.5]
        assert sorted(len(loop) for loop in top) == [7, 8, 8, 9]
        assert all(0 in loop for loop in top)  # the apex stays a vertex of each
        assert len(body) == 2 * m + 1

    def _reference_inputs(self):
        rng = np.random.default_rng(12)
        for n in (10, 40, 200):
            yield rng.normal(size=(n, 3))
        yield np.vstack([CUBE, rng.uniform(-1, 1, size=(30, 3)) * [1, 1, 0] + [0, 0, 1]])
        body = random_polytope3(rng, 9)
        yield body.vertices
        yield illumination_body_3d(body, 0.5 * body.volume).body.vertices
        yield projection_body(body).vertices
        yield polar(body).vertices
        # an 8-vertex loop whose offset, a pairwise np.mean of its heights,
        # differs from their sequential mean
        body = random_polytope3(np.random.default_rng(2), 9)
        yield illumination_body_3d(body, 0.5 * body.volume).body.vertices
        # the hulls of the hull functions, K u (K + t) and K u (lam K + t),
        # with t at random, along an edge (facets merge with the
        # parallelograms beside that edge) and in a facet plane (the facet
        # merges with its image)
        v = random_polytope3(rng, 8).vertices
        loop = hull(v).facet_loops[0]
        edge = 0.7 * (v[loop[1]] - v[loop[0]])
        in_plane = 0.6 * (v[loop[2]] - v[loop[0]]) + 0.3 * edge
        lam = 0.4
        for t in (rng.normal(size=3), edge, in_plane):
            yield np.vstack((v, v + t))
            # lam K + (1 - lam) p + t is lam K about p, moved by t
            yield np.vstack((v, lam * v + (1 - lam) * v[loop[0]] + t))
        # 2K about a vertex p, moved by about 1e-12: its facets at p and
        # their images are nearly coplanar, and their loops drop runs of
        # neighbouring vertices
        for seed in (22, 23, 27):
            rng = np.random.default_rng(seed)
            body = random_polytope3(rng, int(rng.integers(5, 13)))
            v, p = body.vertices, body.vertices[body.facet_loops[0][0]]
            rng.normal(size=3)
            yield np.vstack((v, 2.0 * v - p + 1e-12 * rng.normal(size=3)))

    def test_matches_per_simplex_reference(self):
        for pts in self._reference_inputs():
            ref_pts, ref_loops = _loop_hull3(pts)
            used = sorted({i for loop in ref_loops for i in loop})
            remap = {old: new for new, old in enumerate(used)}
            ref_loops = [[remap[i] for i in loop] for loop in ref_loops]
            body = bodies._hull3(pts, bodies._span(pts))
            assert np.array_equal(body.vertices, ref_pts[used])
            planes = _loop_facet_planes(body.vertices, ref_loops)
            assert body.facet_loops == tuple(p[0] for p in planes)
            assert np.array_equal(body.facet_normals, np.array([p[1] for p in planes]))
            assert np.array_equal(body.facet_offsets, np.array([p[2] for p in planes]))
            assert np.array_equal(body.facet_areas, np.array([p[3] for p in planes]))

    def test_flat_heights_match_per_length_reference(self):
        for pts in self._reference_inputs():
            body = bodies._hull3(pts, bodies._span(pts))
            sizes = np.array([len(loop) for loop in body.facet_loops])
            starts = np.cumsum(sizes) - sizes
            owner = np.repeat(np.arange(len(sizes)), sizes)
            ring = body.vertices[np.concatenate(body.facet_loops)]
            got = bodies._loop_heights(ring, body.facet_normals, owner, starts, sizes)
            want = _per_length_heights(ring, body.facet_normals, starts, sizes)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    def test_sorted_edge_keys_match_unique_isin_reference(self):
        for pts in self._reference_inputs():
            body = bodies._hull3(pts, bodies._span(pts))
            loops = list(body.facet_loops)
            # intact, a facet missing, a facet twice, both
            for variant in (loops, loops[1:], loops + loops[:1], loops[1:] + loops[-1:]):
                try:
                    Polytope3(body.vertices, variant)
                    message = None
                except DegenerateInput as exc:
                    message = str(exc)
                assert message == _unique_isin_edge_error(len(body), variant)


class TestCross:
    """`bodies._cross` gives `np.cross`'s bits."""

    def _same(self, a, b):
        got, want = bodies._cross(a, b), np.cross(a, b)
        assert (got.shape, got.tobytes()) == (want.shape, want.tobytes())

    def test_rows(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(500, 3)) * 10.0 ** rng.integers(-100, 100, size=(500, 3))
        b = rng.normal(size=(500, 3)) * 10.0 ** rng.integers(-100, 100, size=(500, 3))
        self._same(a, b)
        self._same(a[0], b)
        self._same(a[0], b[0])

    def test_constant_axes(self):
        normals = np.random.default_rng(4).normal(size=(200, 3))
        normals /= np.linalg.norm(normals, axis=1)[:, None]
        self._same(normals, np.array([1.0, 0.0, 0.0]))
        self._same(normals, np.array([0.0, 1.0, 0.0]))

    def test_signed_zeros(self):
        values = np.array([0.0, -0.0, 1.0, -1.0])
        rows = np.stack(np.meshgrid(values, values, values), -1).reshape(-1, 3)
        a, b = np.repeat(rows, len(rows), axis=0), np.tile(rows, (len(rows), 1))
        self._same(a, b)


def _near_edge_points():
    """The cube plus one point near 0.65 a + 0.35 b of each edge [a, b],
    pushed in or out along each face normal at that edge by 0.01 to 2
    EPS*span: 12 edges x 2 normals x 2 sides x 25 offsets."""
    span = 2.0
    for i in range(8):
        for j in range(i + 1, 8):
            a, b = CUBE[i], CUBE[j]
            if np.sum(a != b) != 1:
                continue
            for axis in np.nonzero(a == b)[0]:
                for side in (-1.0, 1.0):
                    for offset in np.geomspace(0.01, 2.0, 25) * EPS * span:
                        p = 0.65 * a + 0.35 * b
                        p[axis] += side * offset * a[axis]
                        yield np.vstack((CUBE, p))


def _frustum(m, seed):
    ang = np.sort(np.random.default_rng(seed).uniform(0, 2 * np.pi, m))
    ring = np.column_stack((np.cos(ang), np.sin(ang)))
    return np.vstack((np.column_stack((ring, -np.ones(m))), np.column_stack((0.5 * ring, np.ones(m)))))


def _merging(monkeypatch, pick):
    """Make `_coplanar_groups` put the simplices that pick(normals) selects
    into one group, as a seed search never would."""
    groups = bodies._coplanar_groups

    def merged(neighbors, planes, offset_tol):
        seeds, group = groups(neighbors, planes, offset_tol)
        label = seeds[group]
        chosen = pick(planes[:, :3])
        label[chosen] = np.min(label[chosen])
        return np.unique(label, return_inverse=True)

    monkeypatch.setattr(bodies, "_coplanar_groups", merged)


class TestFacetBoundaries:
    """Facet loops are the boundary cycles of the coplanar groups, and a
    vertex is kept or dropped in all of its facets at once."""

    def test_points_near_cube_edges(self):
        for pts in _near_edge_points():
            body = hull(pts)
            assert all(body.contains(p) for p in pts)

    def test_point_below_cube_edge_keeps_the_corner(self):
        # on the plane y = -1 and 0.1 EPS*span below z = -1: flat in both
        # facets, so dropped from both; the corner (1, -1, -1) stays
        body = hull(np.vstack((CUBE, [0.3, -1.0, -1.0 - 2e-10])))
        assert len(body) == 8
        assert [len(loop) for loop in body.facet_loops] == [4] * 6
        assert body.volume == 8.0
        assert [1.0, -1.0, -1.0] in body.vertices.tolist()

    def test_vertex_flat_in_one_facet_stays_in_all(self):
        # 0.4 EPS*span outside the edge x = y = -1 along the x = -1 normal:
        # in the y = -1 facet it lies within tolerance of the edge, but it is
        # a corner of the two facets that the x = -1 face splits into
        p = [-1.0 - 0.4 * EPS * 2.0, -1.0, -0.3]
        body = hull(np.vstack((CUBE, p)))
        assert len(body) == 9
        index = body.vertices.tolist().index(p)
        facets = [f for f, loop in enumerate(body.facet_loops) if index in loop]
        assert np.round(body.facet_normals[facets]).tolist() == [[-1, 0, 0], [-1, 0, 0], [0, -1, 0]]
        loop = body.facet_loops[facets[2]]
        k = loop.index(index)
        before, after = body.vertices[[loop[k - 1], loop[(k + 1) % len(loop)]]].tolist()
        assert sorted([before, after]) == [[-1.0, -1.0, -1.0], [-1.0, -1.0, 1.0]]

    @pytest.mark.parametrize("m", [64, 130, 256])
    def test_random_angle_frustums(self, m):
        for seed in range(20):
            assert len(hull(_frustum(m, seed))) == 2 * m

    @pytest.mark.parametrize("delta", [1e-7, 1e-6, 1e-5])
    def test_illumination_body_at_small_levels(self, delta):
        body = hull([
            [0.6908476078846513, 8.12e-39, 0.7230004029598152],
            [-0.5928969090129301, -0.8052783712995856, 6.25e-301],
            [0.7688684707882564, -0.2098317740720527, -0.6039966069586015],
            [0.42242783359835023, 0.5907157277344542, -0.6874661114619096],
            [0.9606829636665073, 0.19120918610001694, 0.20131391027920809],
            [0.8460378910922249, 1.05e-97, -0.5331227690093722],
        ])
        assert len(illumination_body_3d(body, delta).body) > len(body)

    def test_group_pinched_at_a_vertex_is_rejected(self, monkeypatch):
        # two octahedron facets that share only the vertex (0, 0, 1)
        _merging(monkeypatch, lambda n: (n[:, 2] > 0) & (np.abs(n[:, 0] - n[:, 1]) < 0.1))
        with pytest.raises(DegenerateInput, match="not a simple cycle"):
            hull(np.vstack((np.eye(3), -np.eye(3))))

    def test_group_of_two_faces_is_rejected(self, monkeypatch):
        # the faces x = -1 and x = 1 as one group: two boundary cycles
        _merging(monkeypatch, lambda n: np.abs(n[:, 0]) > 0.5)
        with pytest.raises(DegenerateInput, match="not a simple cycle"):
            hull(CUBE)


@st.composite
def _near_tolerance_points(draw):
    """The vertices of a random 6-12-vertex polytope plus 1-4 points on its
    edges or faces, each pushed 0.01 to 2 EPS*span along the facet normal,
    to either side."""
    body = random_polytope3(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), draw(st.integers(6, 12)))
    span = bodies._span(body.vertices)
    pts = [body.vertices]
    for _ in range(draw(st.integers(1, 4))):
        f = draw(st.integers(0, len(body.facet_loops) - 1))
        ring = body.vertices[list(body.facet_loops[f])]
        if draw(st.booleans()):
            k = draw(st.integers(0, len(ring) - 1))
            t = draw(st.floats(0.05, 0.95))
            p = (1.0 - t) * ring[k] + t * ring[(k + 1) % len(ring)]
        else:
            w = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=len(ring), max_size=len(ring))))
            p = w / np.sum(w) @ ring
        push = draw(st.sampled_from([-1.0, 1.0])) * np.exp(draw(st.floats(np.log(0.01), np.log(2.0))))
        pts.append(p + push * EPS * span * body.facet_normals[f])
    return np.vstack(pts)


@settings(database=None, max_examples=200, deadline=None, derandomize=True)
@given(pts=_near_tolerance_points())
def test_hull_of_points_near_edges_and_faces(pts):
    """Loops stay consistent, and a returned body holds every point within
    the slack that Polytope3 allows its own vertices (10 EPS*span outside a
    merged facet's plane).  Other rejections are allowed: a facet may be
    non-planar within tolerance."""
    try:
        body = hull(pts)
    except DegenerateInput as exc:
        assert "not consistently oriented" not in str(exc)
        assert "not edge-consistent" not in str(exc)
        return
    tol = 10 * EPS * bodies._span(body.vertices)
    assert all(body.contains(p, tol=tol) for p in pts)


def _propagation_planes_agree(normals, offsets, i, j, normal_tol, offset_tol):
    return (bodies._row_norms(normals[i] - normals[j]) <= normal_tol) & (np.abs(offsets[i] - offsets[j]) <= offset_tol)


def _propagation_seed_search(comp, a, b, normals, offsets, offset_tol):
    adjacent = {s: [] for s in comp.tolist()}
    for x, y in zip(a.tolist(), b.tolist()):
        adjacent[x].append(y)
        adjacent[y].append(x)
    seed_of = {}
    for seed in adjacent:
        if seed in seed_of:
            continue
        agree = _propagation_planes_agree(normals, offsets, comp, seed, bodies._MERGE_NORMAL_TOL, offset_tol)
        near = set(comp[agree].tolist())
        seed_of[seed] = seed
        stack = [seed]
        while stack:
            for nb in adjacent[stack.pop()]:
                if nb not in seed_of and nb in near:
                    seed_of[nb] = seed
                    stack.append(nb)
    return [seed_of[s] for s in comp.tolist()]


def _propagation_groups(neighbors, normals, offsets, offset_tol):
    """Reference for `bodies._coplanar_groups`: the components of the
    loosely agreeing neighbour pairs found by min-label propagation over
    whole arrays, as `_hull3` grouped its simplices before the union-find."""
    index = np.arange(len(neighbors))
    a = index.repeat(neighbors.shape[1])
    b = neighbors.ravel()
    up = a < b
    a, b = a[up], b[up]
    loose = 2.000001
    pair = _propagation_planes_agree(normals, offsets, a, b, loose * bodies._MERGE_NORMAL_TOL, loose * offset_tol)
    a, b = a[pair], b[pair]
    label = index.copy()
    while True:
        low = np.minimum(label[a], label[b])
        new = label.copy()
        np.minimum.at(new, a, low)
        np.minimum.at(new, b, low)
        new = new[new]
        if (new == label).all():
            break
        label = new
    merged = (label != index).nonzero()[0]
    agree = _propagation_planes_agree(normals, offsets, merged, label[merged], bodies._MERGE_NORMAL_TOL, offset_tol)
    for root in sorted(set(label[merged[~agree]].tolist())):
        comp = (label == root).nonzero()[0]
        inside = np.isin(a, comp)
        label[comp] = _propagation_seed_search(comp, a[inside], b[inside], normals, offsets, offset_tol)
    seed = label == index
    return index[seed], (seed.cumsum() - 1)[label]


def _assert_groups_match(pts):
    """`_coplanar_groups` against the propagation reference on qhull's
    triangulation of pts, at the merge tolerance of `_hull3` and at 10^3
    and 10^6 times it (more and larger components, more seed searches)."""
    qh = ConvexHull(pts)
    eq = qh.equations
    for factor in (1.0, 1e3, 1e6):
        offset_tol = factor * EPS * bodies._span(pts)
        got = bodies._coplanar_groups(qh.neighbors, eq, offset_tol)
        want = _propagation_groups(qh.neighbors, eq[:, :3], -eq[:, 3], offset_tol)
        for g, w in zip(got, want):
            assert (g.dtype, g.tobytes()) == (w.dtype, w.tobytes())


def _hull_function_point_sets(seed):
    """The hulls of the hull functions, K u (K + t) and K u (lam K + t), of
    one random polytope, with t at random, along an edge and in a facet
    plane, at lam = 0.4 and 2."""
    rng = np.random.default_rng(seed)
    v = random_polytope3(rng, int(rng.integers(5, 13))).vertices
    loop = hull(v).facet_loops[0]
    edge = 0.7 * (v[loop[1]] - v[loop[0]])
    in_plane = 0.6 * (v[loop[2]] - v[loop[0]]) + 0.3 * edge
    for t in (rng.normal(size=3), edge, in_plane):
        yield np.vstack((v, v + t))
        for lam in (0.4, 2.0):
            yield np.vstack((v, lam * v + (1 - lam) * v[loop[0]] + t))


class TestCoplanarGroups:
    """The union-find of `_coplanar_groups` returns the same (seeds, group)
    arrays, dtype and bytes, as min-label propagation."""

    def test_reference_inputs(self):
        for pts in TestHullMerging()._reference_inputs():
            _assert_groups_match(pts)

    def test_hull_function_point_sets(self):
        for seed in range(12):
            for pts in _hull_function_point_sets(seed):
                _assert_groups_match(pts)

    def test_drifting_fan_and_cube_faces(self):
        # the fan's one component fails the seed test, so the seed search
        # splits it; the cube's face points make six many-triangle groups
        m = 24
        th = 2 * np.pi * np.arange(m) / m
        rim = np.column_stack((np.cos(th), np.sin(th), np.ones(m)))
        _assert_groups_match(np.vstack(([[0.0, 0.0, 1.0 + 1e-9]], rim, rim * [1.0, 1.0, -1.0])))
        rng = np.random.default_rng(11)
        faces = [np.insert(rng.uniform(-0.9, 0.9, size=(5, 2)), axis, side, axis=1)
                 for axis in range(3) for side in (-1.0, 1.0)]
        _assert_groups_match(np.vstack([CUBE, *faces]))

    def test_no_pair_returns_one_group_per_simplex(self):
        qh = ConvexHull(np.random.default_rng(3).normal(size=(12, 3)))
        seeds, group = bodies._coplanar_groups(qh.neighbors, qh.equations, EPS)
        assert seeds.tolist() == group.tolist() == list(range(len(qh.simplices)))


@settings(database=None, max_examples=200, deadline=None, derandomize=True)
@given(pts=_near_tolerance_points())
def test_coplanar_groups_match_propagation_near_edges_and_faces(pts):
    _assert_groups_match(pts)


def _kdtree_dedup(pts, tol):
    """Reference for `bodies._dedup_points` without its broadcast test:
    keep-first over the pairs of `cKDTree.query_pairs`."""
    pairs = cKDTree(pts).query_pairs(tol, output_type="ndarray")
    drop = np.zeros(len(pts), dtype=bool)
    for i, j in pairs[np.argsort(pairs[:, 1])]:
        if not drop[i]:
            drop[j] = True
    return pts[~drop]


class TestDedupPoints:
    """The broadcast test of `_dedup_points` only shows that cKDTree finds no
    pair; wherever it does not, cKDTree decides."""

    @pytest.mark.parametrize("scale", [1.0, 1e-3, 1e5])
    def test_pairs_near_the_tolerance(self, scale):
        v = CUBE * scale
        tol = EPS * bodies._span(v)
        shown = 0
        for f in (0.0, 0.5, 1.0, 2.0, 2.5):
            for step in (f * tol, np.nextafter(f * tol, np.inf), np.nextafter(f * tol, -np.inf)):
                for direction in ([1.0, 0.0, 0.0], np.full(3, 3**-0.5)):
                    p = v[:3] + step * np.array(direction)
                    for pts in (np.vstack((v, p)), np.vstack((p, v))):
                        want = _kdtree_dedup(pts, tol)
                        assert bodies._dedup_points(pts, tol).tobytes() == want.tobytes()
                        if bodies._far_apart(pts, tol):
                            assert len(want) == len(pts)
                            shown += 1
        # twice the tolerance and beyond is shown without cKDTree
        assert shown >= 6

    def test_random_sets_and_exact_duplicates(self):
        rng = np.random.default_rng(4)
        for n in (2, 3, 8, 18, bodies._FEW_POINTS, bodies._FEW_POINTS + 1):
            pts = rng.normal(size=(n, 3))
            tol = EPS * bodies._span(pts)
            assert bodies._far_apart(pts, tol)
            for dup in (pts, np.vstack((pts, pts[:1])), np.vstack((pts[-1:], pts))):
                assert bodies._dedup_points(dup, tol).tobytes() == _kdtree_dedup(dup, tol).tobytes()
        assert not bodies._far_apart(np.vstack((CUBE, CUBE[:1])), 2 * EPS)

    def test_range_messages_are_unchanged(self, cube):
        with pytest.raises(DegenerateInput, match="^coordinates too large: squared distances overflow$"):
            hull(1e155 * cube.vertices)
        simplex_plus = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], dtype=float)
        for scale in (1e-162, 1e-200):
            with pytest.raises(DegenerateInput, match="^coordinates too small: squared distances underflow$"):
                hull(scale * simplex_plus)
        # where squared distances near overflow, cKDTree raises although each
        # one is finite, and the broadcast test leaves it to cKDTree
        pts = 0.9e154 * np.vstack((np.eye(3), [[0.0, 0.0, 0.0]]))
        assert not bodies._far_apart(pts, EPS * bodies._span(pts))
        with pytest.raises(DegenerateInput, match="^coordinates too large"):
            bodies._dedup_points(pts, EPS * bodies._span(pts))


def _svd_rank(pts):
    c = pts - pts.sum(0) / len(pts)
    s = np.linalg.svd(c, compute_uv=False)
    return int((s > 1e-12 * max(s[0], 1e-300)).sum())


@pytest.mark.parametrize("dim", [2, 3])
def test_affine_rank_matches_the_svd(dim):
    """The Gram-determinant shortcut of `_affine_rank` returns the SVD's rank
    on sets from round to flat within 1e-15, at scales from 1e-60 to 1e60
    (outside (1e-40, 1e40) the SVD alone decides)."""
    rng = np.random.default_rng(dim)
    for flatness in (1.0, 1e-2, 1e-4, 1e-6, 1e-9, 1e-12, 1e-15, 0.0):
        for n in (dim + 1, 18, 60):
            pts = rng.normal(size=(n, dim))
            pts[:, -1] *= flatness
            pts = pts @ np.linalg.qr(rng.normal(size=(dim, dim)))[0]
            for scale in (1e-60, 1e-39, 1e-3, 1.0, 1e7, 1e39, 1e60):
                scaled = pts * scale
                assert bodies._affine_rank(scaled, bodies._span(scaled)) == _svd_rank(scaled)


def _calls_in(fn, *args):
    """Python-level function calls (``call`` and ``c_call`` profile events)
    that fn(*args) makes."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event in ("call", "c_call"):
            count += 1

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return count


#: 10% above the 398 calls counted with numpy 2.4 and scipy 1.17 (481 before
#: the small-hull path was cut)
HULL_CALLS = 437


def test_small_hull_call_count():
    """A cost guard on the fixed per-call work of a small 3D hull: one hull()
    of an 18-point K u (K + t) set makes at most HULL_CALLS Python-level
    calls, so that work added to this path fails here rather than going
    unseen."""
    v = random_polytope3(np.random.default_rng(1), 9).vertices
    pts = np.vstack((v, v + [0.4, -0.3, 0.2]))
    assert len(pts) == 18
    hull(pts)  # first-call set-up in numpy and scipy is not per-call work
    assert _calls_in(hull, pts) <= HULL_CALLS


def _row_by_row_diameter(v):
    """`_diameter` one row at a time: each pair's coordinate terms summed in
    the same order, in O(V) memory."""
    return float(np.sqrt(max(float(np.max(sum((c[i] - c) ** 2 for c in v.T))) for i in range(len(v)))))


def _prism(m):
    th = 2 * np.pi * np.arange(m) / m
    ring = np.column_stack((np.cos(th), np.sin(th)))
    return np.vstack((np.column_stack((ring, np.ones(m))), np.column_stack((ring, -np.ones(m)))))


class TestDiameter:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_matches_broadcast_sum(self, dim):
        rng = np.random.default_rng(30 + dim)
        for n in range(4, 401):
            v = rng.normal(size=(n, dim)) * 10.0 ** rng.integers(-3, 4) + rng.normal(size=dim)
            old = float(np.sqrt(np.max(np.sum((v[:, None, :] - v[None, :, :]) ** 2, axis=-1))))
            assert bodies._diameter(v) == old, n

    def test_many_row_blocks(self):
        rng = np.random.default_rng(33)
        v = rng.normal(size=(3000, 3)) * [1.0, 2.0, 3.0]
        assert bodies._diameter(v) == _row_by_row_diameter(v)
        prism = _prism(2048)
        assert bodies._diameter(prism) == _row_by_row_diameter(prism)

    def test_memory_is_bounded(self):
        v = np.random.default_rng(34).normal(size=(4096, 3))
        tracemalloc.start()
        try:
            bodies._diameter(v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one (V, V) float array is 134 MB
        assert peak < 32e6


class TestPolytope3Validation:
    """One test per DegenerateInput branch of Polytope3.__init__."""

    def test_degenerate_facet(self, cube):
        a, b = cube.facet_loops[0][:2]
        v = np.vstack((cube.vertices, 0.5 * (cube.vertices[a] + cube.vertices[b])))
        with pytest.raises(DegenerateInput, match="facet 0 is degenerate"):
            Polytope3(v, [(a, 8, b), *cube.facet_loops])

    def test_non_planar_facet(self, cube):
        v = cube.vertices.copy()
        v[0] *= 1.01
        with pytest.raises(DegenerateInput, match="is not planar"):
            Polytope3(v, cube.facet_loops)

    def test_vertex_outside_halfspace(self, cube):
        v = np.vstack((cube.vertices, [2.0, 0.0, 0.0]))
        with pytest.raises(DegenerateInput, match="outside a facet halfspace"):
            Polytope3(v, cube.facet_loops)

    def test_duplicate_directed_edge(self, cube):
        with pytest.raises(DegenerateInput, match="not consistently oriented"):
            Polytope3(cube.vertices, [*cube.facet_loops, cube.facet_loops[2]])

    def test_unmatched_edge(self, cube):
        with pytest.raises(DegenerateInput, match="not edge-consistent"):
            Polytope3(cube.vertices, cube.facet_loops[1:])

    def test_euler_violation(self, cube):
        v = np.vstack((cube.vertices, [0.0, 0.0, 0.0]))
        with pytest.raises(DegenerateInput, match="Euler relation"):
            Polytope3(v, cube.facet_loops)

    def test_underflowing_normals_are_degenerate_without_warnings(self):
        # every Newell normal's squared norm underflows, so each normal is
        # 0/0; the heights and defects of those NaN normals warn nowhere
        # (pytest turns warnings into errors) before the one typed error
        body = random_polytope3(np.random.default_rng(0), 9)
        with pytest.raises(DegenerateInput, match="^facet 0 is degenerate$"):
            body.scale(1e-100)

    def test_loops_face_outward_whatever_their_input_direction(self, cube):
        flipped = Polytope3(cube.vertices, [loop[::-1] for loop in cube.facet_loops])
        assert flipped.facet_loops == cube.facet_loops
        assert np.array_equal(flipped.facet_normals, cube.facet_normals)


class TestPolytopeInvariants:
    def test_euler_and_caches(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            body = random_polytope3(rng, int(rng.integers(6, 13)))
            edges = sum(len(loop) for loop in body.facet_loops) // 2
            assert len(body.vertices) - edges + len(body.facet_loops) == 2
            # cached volume agrees with an independent tetrahedra sum from the centroid
            c = body.vertices.mean(axis=0)
            total = 0.0
            for loop, n in zip(body.facet_loops, body.facet_normals):
                ring = body.vertices[list(loop)]
                for i in range(1, len(ring) - 1):
                    total += abs(np.linalg.det(np.vstack((ring[0] - c, ring[i] - c, ring[i + 1] - c)))) / 6
            assert total == pytest.approx(body.volume, rel=1e-12)
            assert np.allclose(np.linalg.norm(body.facet_normals, axis=1), 1.0, atol=1e-12)

    def test_vertices_within_halfspaces(self):
        rng = np.random.default_rng(3)
        body = random_polytope3(rng, 10)
        slack = body.vertices @ body.facet_normals.T - body.facet_offsets
        assert np.max(slack) <= EPS * body.diameter

    def test_halfspace_cache_agrees_with_vertices(self):
        # each cached offset is the support value in the facet normal direction
        rng = np.random.default_rng(72)
        for body in (random_polygon(rng, 8), random_polytope3(rng, 9)):
            recomputed = np.max(body.vertices @ body.facet_normals.T, axis=0)
            assert np.max(np.abs(recomputed - body.facet_offsets)) <= EPS * body.diameter

    def test_bodies_are_immutable(self, square, cube):
        for body in (square, cube):
            with pytest.raises(ValueError):
                body.vertices[0, 0] = 99.0
            with pytest.raises(ValueError):
                body.facet_offsets[0] = 99.0


class TestVolume:
    def test_square(self, square):
        assert square.volume == 4.0

    def test_cube(self, cube):
        assert cube.volume == pytest.approx(8.0, rel=1e-14)

    def test_tetrahedron_against_determinant(self, tetrahedron):
        v = tetrahedron.vertices
        oracle = abs(np.linalg.det(v[1:] - v[0])) / 6
        assert oracle == pytest.approx(8 / 3, rel=1e-14)
        assert tetrahedron.volume == pytest.approx(oracle, rel=1e-12)

    def test_translation_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            body = random_polytope3(rng, 8) if rng.random() < 0.5 else random_polygon(rng, 7)
            t = rng.normal(size=body.dim) * 10
            assert abs(body.translate(t).volume - body.volume) <= 1e-12 * body.volume


class TestSupportGauge:
    def test_square_axis(self, square):
        assert support(square, [1, 0]) == 1.0
        assert gauge(square, [1, 0]) == 1.0

    def test_square_corner_direction(self, square):
        u = np.array([1, 1]) / np.sqrt(2)
        assert support(square, u) == pytest.approx(np.sqrt(2), rel=1e-14)
        assert gauge(square, u) == pytest.approx(np.sqrt(2), rel=1e-14)

    def test_duality_with_polar(self):
        rng = np.random.default_rng(5)
        for body in (random_polygon(rng, 8), random_polytope3(rng, 9)):
            dual = polar(body)
            for _ in range(100):
                u = unit_vector(rng, body.dim)
                assert gauge(dual, u) * support(body, u) == pytest.approx(1.0, rel=1e-9)
                assert support(dual, u) * gauge(body, u) == pytest.approx(1.0, rel=1e-9)

    def test_row_maxima_match_np_max_bit_for_bit(self):
        # bodies with fewer and with more than bodies._SHORT_ROW vertices and
        # facets, so that both reduction layouts are compared
        rng = np.random.default_rng(13)
        sphere = direction_set(3, 150)
        cases = [random_polygon(rng, 7), regular_polygon(12), regular_polygon(100),
                 random_polytope3(rng, 9), hull(sphere), polar(hull(sphere))]
        sizes = [(len(body), len(body.facet_offsets)) for body in cases]
        assert min(map(min, sizes)) <= bodies._SHORT_ROW < max(map(min, sizes))
        for body in cases:
            dirs = direction_set(body.dim, {2: 720, 3: 1024}[body.dim])
            got = body.support_many(dirs)
            assert got.tobytes() == np.max(dirs @ body.vertices.T, axis=1).tobytes()
            ratios = (dirs @ body.facet_normals.T) / body.facet_offsets
            assert body.gauge_many(dirs).tobytes() == (1.0 / np.max(ratios, axis=1)).tobytes()
            if body.dim == 2:
                w = np.column_stack((-dirs[:, 1], dirs[:, 0]))
                want = np.max(w @ body.vertices.T, axis=1) + np.max(-w @ body.vertices.T, axis=1)
                assert brightness_many(body, dirs).tobytes() == want.tobytes()

    @staticmethod
    def _tied_zero_rows(cols):
        rng = np.random.default_rng(cols)
        m = np.where(rng.random((400, cols)) < 0.5, 0.0, -0.0)
        m[rng.random(m.shape) < 0.3] = -1.0
        m[7, 3] = np.nan
        m[8, :] = np.nan
        return m

    def test_transposed_layout_alone_changes_signed_zeros(self):
        # why `_row_max` takes zero maxima again: down the columns, tied
        # +0.0 and -0.0 rows of 9 columns come out with other signs
        m = self._tied_zero_rows(9)
        across = np.ascontiguousarray(m.T).max(axis=0)
        assert across.tobytes() != np.max(m, axis=1).tobytes()

    @pytest.mark.parametrize("cols", [9, 10, 16, 17, 25, 33])
    def test_tied_signed_zero_and_nan_maxima(self, cols):
        m = self._tied_zero_rows(cols)
        assert bodies._row_max(m).tobytes() == np.max(m, axis=1).tobytes()
        # the same through a body: zero directions tie +0.0 and -0.0 products
        body = regular_polygon(cols)
        dirs = np.array([[0.0, 0.0], [-0.0, 0.0], [0.0, -0.0], [np.nan, 0.0], [1.0, 0.0]])
        want = np.max(dirs @ body.vertices.T, axis=1)
        assert body.support_many(dirs).tobytes() == want.tobytes()

    def test_gauge_needs_interior_origin(self, square):
        with pytest.raises(OriginNotInterior):
            gauge(square.translate([5, 5]), np.array([1.0, 0.0]))


class TestPolar:
    def test_square_to_cross(self, square):
        cross = polar(square)
        assert sorted(map(tuple, np.round(cross.vertices, 12).tolist())) == [
            (-1.0, 0.0),
            (0.0, -1.0),
            (0.0, 1.0),
            (1.0, 0.0),
        ]

    def test_cube_to_octahedron(self, cube):
        octa = polar(cube)
        expected = {(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)}
        got = {tuple(int(round(c)) for c in v) for v in octa.vertices}
        assert got == expected

    def test_involution_on_random_bodies(self):
        rng = np.random.default_rng(6)
        for i in range(50):
            if i % 2 == 0:
                body = random_polygon(rng, int(rng.integers(5, 10)))
            else:
                body = random_polytope3(rng, int(rng.integers(6, 12)))
            back = polar(polar(body))
            worst = max(
                np.min(np.linalg.norm(back.vertices - v, axis=1)) for v in body.vertices
            )
            assert worst < 1e-9 * body.diameter

    def test_needs_interior_origin(self, square):
        with pytest.raises(OriginNotInterior):
            polar(square.translate([3, 0]))

    def test_polar_body_out_of_range_is_named(self):
        # the heptagon builds at 1e-160; its polar's vertices n/b are ~1e160
        with pytest.raises(DegenerateInput, match="^polar body: coordinates too large"):
            polar(regular_polygon(7).scale(1e-160))


class TestMinkowski:
    def test_square_plus_square(self, square):
        out = minkowski_sum(square, square)
        assert out.volume == pytest.approx(16.0, abs=0)
        assert np.max(np.abs(out.vertices)) == 2.0

    def test_triangle_difference_body_is_hexagon(self, unit_triangle):
        diff = difference_body(unit_triangle)
        expected = {(-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0)}
        assert {tuple(map(round, v)) for v in diff.vertices.tolist()} == expected

    def test_edge_merge_against_pairwise_hull_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = random_polygon(rng, int(rng.integers(3, 9)))
            b = random_polygon(rng, int(rng.integers(3, 9))).translate(rng.normal(size=2))
            fast = minkowski_sum(a, b)
            sums = (a.vertices[:, None, :] + b.vertices[None, :, :]).reshape(-1, 2)
            oracle = hull(sums)
            assert hausdorff_distance(fast, oracle) <= 1e-12 * oracle.diameter

    def test_difference_body_symmetry(self):
        rng = np.random.default_rng(8)
        for body in (random_polygon(rng, 6), random_polytope3(rng, 8)):
            diff = difference_body(body)
            assert hausdorff_distance(diff, diff.negate()) <= 1e-12 * diff.diameter

    def test_difference_body_3d_is_the_sum_with_the_negation(self):
        rng = np.random.default_rng(9)
        for n in (4, 6, 9, 12):
            body = random_polytope3(rng, n)
            diff, ref = difference_body(body), minkowski_sum(body, body.negate())
            for field in ("vertices", "facet_normals", "facet_offsets", "facet_areas"):
                assert np.array_equal(getattr(diff, field), getattr(ref, field)), field
            assert diff.facet_loops == ref.facet_loops
            assert (diff.volume, diff.diameter) == (ref.volume, ref.diameter)

    def test_dimension_mismatch(self, square, cube):
        with pytest.raises(DimensionMismatch):
            minkowski_sum(square, cube)

    def test_support_additivity(self):
        rng = np.random.default_rng(70)
        for dim in (2, 3):
            a = random_polygon(rng, 6) if dim == 2 else random_polytope3(rng, 7)
            b = random_polygon(rng, 8) if dim == 2 else random_polytope3(rng, 9)
            total = minkowski_sum(a, b)
            for _ in range(50):
                u = unit_vector(rng, dim)
                assert total.support(u) == pytest.approx(a.support(u) + b.support(u), rel=1e-12)

    def test_central_symmetral_support(self):
        rng = np.random.default_rng(71)
        body = random_polygon(rng, 7)
        half = central_symmetral(body)
        for _ in range(50):
            u = unit_vector(rng, 2)
            expected = 0.5 * (body.support(u) + body.support(-u))
            assert half.support(u) == pytest.approx(expected, rel=1e-12)


class TestBrightness:
    def test_cube_axis(self, cube):
        assert brightness(cube, [1.0, 0.0, 0.0]) == pytest.approx(4.0, rel=1e-14)

    def test_cube_diagonal_vs_shadow_oracle(self, cube):
        u = np.array([1.0, 1.0, 1.0]) / np.sqrt(3)
        cauchy = brightness(cube, u)
        assert cauchy == pytest.approx(4 * np.sqrt(3), rel=1e-12)
        assert cauchy == pytest.approx(shadow_area(cube, u), rel=1e-12)

    def test_square_diagonal(self, square):
        u = np.array([1.0, 1.0]) / np.sqrt(2)
        assert brightness(square, u) == pytest.approx(2 * np.sqrt(2), rel=1e-14)
        assert brightness(square, u) == pytest.approx(shadow_area(square, u), rel=1e-14)

    def test_cauchy_consistency_random(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            body = random_polytope3(rng, int(rng.integers(6, 13)))
            dirs = np.array([unit_vector(rng, 3) for _ in range(100)])
            formula = brightness_many(body, dirs)
            oracle = np.array([shadow_area(body, u) for u in dirs])
            assert np.max(np.abs(formula - oracle) / oracle) <= 1e-9

    def test_shadow_area_basis_is_unchanged(self):
        # the in-plane basis written out inline: n x e_x, or n x e_y where
        # that is shorter than 0.5, normalised; shadow_area must match it
        # bit for bit
        rng = np.random.default_rng(10)
        body = random_polytope3(rng, 10)
        dirs = [unit_vector(rng, 3) for _ in range(50)] + [np.array([1.0, 0.0, 0.0])]
        for u in dirs:
            b1 = np.cross(u, [1.0, 0.0, 0.0])
            if np.linalg.norm(b1) < 0.5:
                b1 = np.cross(u, [0.0, 1.0, 0.0])
            b1 /= np.linalg.norm(b1)
            flat = np.column_stack((body.vertices @ b1, body.vertices @ np.cross(u, b1)))
            ring = flat[bodies._hull2_indices(flat)]
            area2 = np.sum(ring[:, 0] * np.roll(ring[:, 1], -1) - np.roll(ring[:, 0], -1) * ring[:, 1])
            assert shadow_area(body, u) == 0.5 * abs(float(area2))

    def test_non_unit_direction(self, cube):
        with pytest.raises(NonUnitDirection):
            brightness(cube, [1.0, 1.0, 1.0])


def _segment_distances(x, starts, ends):
    d = ends - starts
    t = np.clip(np.sum((x - starts) * d, axis=1) / np.sum(d * d, axis=1), 0.0, 1.0)
    feet = starts + t[:, None] * d
    return np.linalg.norm(feet - x, axis=1)


def _loop_point_body_distance(x, body):
    """Reference for `point_body_distances`: one point, one facet at a
    time, with the facet's edges only where the foot of the perpendicular
    falls outside them."""
    x = np.asarray(x, dtype=float)
    if body.contains(x, tol=0.0):
        return 0.0
    if body.dim == 2:
        v = body.vertices
        return float(np.min(_segment_distances(x, v, np.roll(v, -1, axis=0))))
    best = np.inf
    for f, loop in enumerate(body.facet_loops):
        n = body.facet_normals[f]
        slack = float(x @ n - body.facet_offsets[f])
        foot = x - slack * n
        ring = body.vertices[list(loop)]
        edges = np.roll(ring, -1, axis=0) - ring
        inward = bodies._cross(n, edges)
        if np.all(np.sum((foot - ring) * inward, axis=1) >= -EPS * body.diameter):
            best = min(best, abs(slack))
        else:
            best = min(best, float(np.min(_segment_distances(x, ring, np.roll(ring, -1, axis=0)))))
    return best


def _loop_distances(points, body):
    return np.array([_loop_point_body_distance(x, body) for x in points])


def _loop_hausdorff_distance(a, b):
    return max(max(_loop_distances(a.vertices, b)), max(_loop_distances(b.vertices, a)))


def _probe_points(rng, body):
    """Points inside, outside, and on the body's faces, edges and vertices,
    and just off them (1e-12 of the size of the body)."""
    v = body.vertices
    centre = v.sum(0) / len(v)
    loops = [range(len(v))] if body.dim == 2 else body.facet_loops
    faces = np.array([v[list(loop)].sum(0) / len(loop) for loop in loops])
    ring = np.concatenate([list(loop) for loop in loops])
    ahead = np.concatenate([np.roll(list(loop), -1) for loop in loops])
    w = rng.uniform(size=(len(ring), 1))
    on_edges = w * v[ring] + (1 - w) * v[ahead]
    boundary = np.vstack((v, faces, on_edges))
    return np.vstack((
        boundary,
        centre + (boundary - centre) * (1 + 1e-12),
        centre + (boundary - centre) * (1 - 1e-12),
        centre + (boundary - centre) * rng.uniform(0.0, 1.0, size=(len(boundary), 1)),
        centre + (boundary - centre) * rng.uniform(1.0, 3.0, size=(len(boundary), 1)),
        centre + rng.normal(size=(40, body.dim)) * body.diameter,
    ))


def _criterion_9_pairs():
    """The (extension hull, illumination body) pairs whose Hausdorff
    distance acceptance criterion 9 takes, from its seeded draws."""
    rng = np.random.default_rng(109)
    pairs = []
    for m in range(7, 13):
        for _ in range(3):
            mat = acceptance._well_conditioned_matrix(rng)
            shift = rng.normal(size=2)
            body = affinely_regular_polygon(m, mat, shift)
            curve = kl_extension(body, 1, 1)
            level = float(np.mean(point_hull_values(body, curve.vertices)))
            pairs.append((hull(curve.vertices), illumination_body(body, level - body.volume).body))
            acceptance._perturbed_polygon(rng, body, 0.01)
    return pairs


class TestDistances:
    def test_point_distance_outside_corner(self, square):
        assert point_body_distance([2.0, 2.0], square) == pytest.approx(np.sqrt(2), rel=1e-12)

    def test_point_distance_inside(self, square):
        assert point_body_distance([0.3, -0.2], square) == 0.0

    def test_point_distance_3d_face_and_edge(self, cube):
        assert point_body_distance([0.0, 0.0, 2.0], cube) == pytest.approx(1.0, rel=1e-12)
        assert point_body_distance([2.0, 2.0, 0.0], cube) == pytest.approx(np.sqrt(2), rel=1e-12)

    def test_hausdorff_scaled_cube(self, cube):
        grown = cube.scale(1.25)
        # farthest point of the grown cube from the cube is its corner
        assert hausdorff_distance(cube, grown) == pytest.approx(0.25 * np.sqrt(3), rel=1e-12)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_matches_the_per_facet_loop(self, dim, square, cube):
        rng = np.random.default_rng(40 + dim)
        if dim == 2:
            shapes = [square, regular_polygon(7)] + [random_polygon(rng, m) for m in range(3, 13)]
        else:
            shapes = [cube, polar(cube)] + [random_polytope3(rng, n) for n in (5, 8, 11)]
        for body in shapes:
            points = _probe_points(rng, body)
            got = point_body_distances(points, body)
            assert got.tobytes() == _loop_distances(points, body).tobytes()
            assert (got == 0.0).any() and (got > 0.0).any()
            for x in points[::17]:
                assert point_body_distance(x, body) == _loop_point_body_distance(x, body)

    def test_matches_the_per_facet_loop_on_ray_oracle_points(self):
        # criterion 5's bodies and its ray-oracle boundary points: the gaps
        # near 0 are where a different rounding order would show
        rng = np.random.default_rng(105)
        polys, tops = acceptance._random_bodies(15, 10, 10)
        for body in polys[:3] + tops[:2]:
            delta = rng.uniform(0.2, 1.0) * body.volume
            level_set = illumination_body(body, delta)
            dirs = direction_set(body.dim, 60 if body.dim == 2 else 100)
            points = _ray_level_solves(body, dirs, level_set.level)[:, None] * dirs
            got = point_body_distances(points, level_set.body)
            assert got.tobytes() == _loop_distances(points, level_set.body).tobytes()

    def test_hausdorff_matches_the_loop_on_criterion_9_pairs(self):
        for a, b in _criterion_9_pairs():
            assert hausdorff_distance(a, b) == _loop_hausdorff_distance(a, b)

    def test_hausdorff_matches_the_loop_on_the_cube_24_point_body(self, cube):
        got = illumination_body(cube, 4.0 / 3.0).body
        corners = itertools.product((-2, -1, 1, 2), repeat=3)
        expected = hull([p for p in corners if sorted(map(abs, p)) == [1, 1, 2]])
        assert len(expected) == 24
        assert hausdorff_distance(got, expected) == _loop_hausdorff_distance(got, expected)

    def test_row_blocks_in_bounded_memory(self):
        prism = hull(_prism(400))
        assert sum(map(len, prism.facet_loops)) >= 2000
        points = np.random.default_rng(37).normal(size=(4096, 3)) * 2.0
        tracemalloc.start()
        try:
            got = point_body_distances(points, prism)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one (points, positions, 3) float array is 236 MB
        assert peak < 32e6
        # over a hundred row blocks: each value is the one that a call for
        # its point alone gives
        assert (got > 0).sum() > 2000
        for k in range(0, len(points), 97):
            assert got[k] == point_body_distance(points[k], prism)
        for k in range(0, len(points), 512):
            assert got[k] == _loop_point_body_distance(points[k], prism)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_points_of_the_wrong_dimension(self, dim, square, cube):
        body = square if dim == 2 else cube
        wrong = np.ones(5 - dim)
        with pytest.raises(DimensionMismatch):
            point_body_distance(wrong, body)
        with pytest.raises(DimensionMismatch):
            point_body_distances(np.ones((2, 5 - dim)), body)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points(self, dim, bad, square, cube):
        body = square if dim == 2 else cube
        x = np.full(dim, 2.0)
        x[-1] = bad
        with pytest.raises(DegenerateInput, match="finite"):
            point_body_distance(x, body)
        with pytest.raises(DegenerateInput, match="finite"):
            point_body_distances([np.zeros(dim), x], body)


# ---------------------------------------------------------------------------
# 2D kernels against the numpy forms they replace: the chain and the edge
# merge on numpy scalars, Polygon's arithmetic with np.roll, np.linalg.norm
# and np.column_stack.  Every value must match byte for byte, and every
# error message too.


def _scalar_hull2_indices(pts, tol=None):
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    if tol is None:
        tol = EPS * bodies._span(pts) ** 2

    def build(seq):
        chain = []
        for idx in seq:
            while len(chain) >= 2:
                o, a = pts[chain[-2]], pts[chain[-1]]
                b = pts[idx]
                cross = (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
                if cross <= tol:
                    chain.pop()
                else:
                    break
            chain.append(idx)
        return chain

    lower = build(order)
    upper = build(order[::-1])
    ring = lower[:-1] + upper[:-1]
    changed = True
    while changed and len(ring) > 2:
        changed = False
        kept = []
        m = len(ring)
        for k in range(m):
            o, a, b = pts[ring[k - 1]], pts[ring[k]], pts[ring[(k + 1) % m]]
            cross = (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
            if cross <= tol:
                changed = True
            else:
                kept.append(ring[k])
        ring = kept
    return np.array(ring, dtype=int)


def _rolled_polygon_fields(vertices):
    """(vertices, normals, offsets, lengths, area) as Polygon computed them
    with np.roll, np.linalg.norm, np.column_stack and np.sum."""
    v = bodies._as_points(vertices, dim=2).copy()
    if len(v) < 3:
        raise DegenerateInput("a polygon needs at least 3 vertices")
    area2 = np.sum(v[:, 0] * np.roll(v[:, 1], -1) - np.roll(v[:, 0], -1) * v[:, 1])
    if area2 < 0:
        v = v[::-1].copy()
        area2 = -area2
    span = bodies._span(v)
    edges = np.roll(v, -1, axis=0) - v
    cross = edges[:, 0] * np.roll(edges[:, 1], -1) - edges[:, 1] * np.roll(edges[:, 0], -1)
    if span <= 0 or np.any(cross <= 0.5 * EPS * span * span):
        raise DegenerateInput("vertices are not in strictly convex position")
    lengths = np.linalg.norm(edges, axis=1)
    normals = np.column_stack((edges[:, 1], -edges[:, 0])) / lengths[:, None]
    return v, normals, np.sum(normals * v, axis=1), lengths, 0.5 * float(area2)


def _scalar_minkowski_vertices_2d(a, b):
    def rolled(v):
        start = np.lexsort((v[:, 0], v[:, 1]))[0]
        return np.roll(v, -start, axis=0)

    va, vb = rolled(a), rolled(b)
    ea = np.roll(va, -1, axis=0) - va
    eb = np.roll(vb, -1, axis=0) - vb

    def unwrapped_angles(e):
        ang = np.arctan2(e[:, 1], e[:, 0])
        for i in range(1, len(ang)):
            while ang[i] <= ang[i - 1] - 1e-15:
                ang[i] += 2 * np.pi
        return ang

    aa, ab = unwrapped_angles(ea), unwrapped_angles(eb)
    out = [va[0] + vb[0]]
    i = j = 0
    while i < len(ea) or j < len(eb):
        if j >= len(eb) or (i < len(ea) and aa[i] <= ab[j]):
            step = ea[i]
            i += 1
        else:
            step = eb[j]
            j += 1
        out.append(out[-1] + step)
    pts = np.array(out[:-1])
    return pts[_scalar_hull2_indices(pts)]


def _polygon_fields(vertices):
    p = Polygon(vertices)
    return p.vertices, p.facet_normals, p.facet_offsets, p.facet_areas, p.volume


def _planar_vertex_lists():
    """Vertex lists: random 3-40-gons in both orientations, regular and
    affine-regular polygons (parallel sidelines), axis-aligned squares (their
    offsets include -0.0 products), repeated and collinear vertices, and
    turns just below, at and above Polygon's threshold."""
    rng = np.random.default_rng(31)
    out = []
    for m in range(3, 41):
        for _ in range(3):
            ang = np.sort(rng.uniform(0.0, 2.0 * np.pi, m))
            v = rng.uniform(0.1, 5.0) * np.column_stack((np.cos(ang), np.sin(ang))) + rng.normal(size=2)
            out += [v, v[::-1].copy()]
    for m in (3, 4, 6, 8, 12):
        v = regular_polygon(m).vertices
        out += [v, v @ rng.normal(size=(2, 2)) + rng.normal(size=2)]
    out += [
        np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]]),
        np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
        np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]]),
        np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.0, 1.0]]),
        np.array([[0.0, 0.0], [1.0, 0.0]]),
    ]
    for scale in (1.0, 1e-3, 1e5):
        for f in (0.5, 0.99, 1.0, 1.01, 2.0):
            dip = f * EPS * scale  # the turn at (1, 0) is f times the threshold
            out.append(scale * np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]])
                       - np.array([[0.0, 0.0], [0.0, dip], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]))
    return out


def _planar_point_sets():
    """Point sets for the chain: random, with repeated points, with edge
    midpoints (collinear triples), on a lattice, and regular polygons."""
    rng = np.random.default_rng(32)
    out = []
    for n in (3, 5, 12, 40):
        for _ in range(6):
            pts = rng.normal(size=(n, 2))
            out += [pts, np.vstack((pts, pts[: n // 2 + 1])), np.vstack((pts, 0.5 * (pts[:-1] + pts[1:]))),
                    np.round(3.0 * pts)]
    grid = np.array([[x, y] for x in range(5) for y in range(5)], dtype=float)
    return out + [grid, grid[::-1].copy(), regular_polygon(6).vertices, regular_polygon(40).vertices]


class TestPlanarKernels:
    def test_chain_matches_the_numpy_scalar_chain(self):
        rng = np.random.default_rng(33)
        cases = [(pts, None) for pts in _planar_point_sets()]
        cases += [(pts, tol) for pts in _planar_point_sets()[::3] for tol in (0.0, 1e-3, 0.1, np.float64(0.05))]
        # turns at exactly +-tol, and one ulp either side of it
        for _ in range(40):
            pts = rng.normal(size=(12, 2))
            o, a, b = pts[0], pts[1], pts[2]
            turn = float((a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0]))
            for tol in (turn, -turn, np.nextafter(abs(turn), np.inf), np.nextafter(abs(turn), -np.inf)):
                cases.append((pts, tol))
        for pts, tol in cases:
            assert bodies._hull2_indices(pts, tol).tobytes() == _scalar_hull2_indices(pts, tol).tobytes()

    def test_explicit_tolerance_callers_match(self):
        # the facet-loop reference passes its own tol; shadow_area projects
        # a 3-polytope and takes the default
        rng = np.random.default_rng(34)
        for _ in range(8):
            body = random_polytope3(rng, int(rng.integers(6, 14)))
            u = unit_vector(rng, 3)
            b1, b2 = (b[0] for b in bodies._plane_basis(u[None, :]))
            flat = np.column_stack((body.vertices @ b1, body.vertices @ b2))
            span = bodies._span(flat)
            for tol in (None, EPS * span * span, EPS * span * max(span, EPS * span)):
                assert bodies._hull2_indices(flat, tol).tobytes() == _scalar_hull2_indices(flat, tol).tobytes()
            ring = flat[_scalar_hull2_indices(flat)]
            area2 = np.sum(ring[:, 0] * np.roll(ring[:, 1], -1) - np.roll(ring[:, 0], -1) * ring[:, 1])
            assert shadow_area(body, u) == 0.5 * abs(float(area2))

    def test_polygon_matches_the_rolled_arithmetic(self):
        for v in _planar_vertex_lists():
            assert outcome(_polygon_fields, v) == outcome(_rolled_polygon_fields, v)

    def test_polygon_offsets_keep_numpys_signed_zeros(self):
        # the edge from (0, 1) to (0, 0) has normal (-1, -0.0); its offset,
        # -1 * 0 + -0.0 * 1, is +0.0 as np.sum gives it
        square = Polygon([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        assert np.signbit(square.facet_normals).any()
        assert not np.signbit(square.facet_offsets).any()

    def test_edge_merge_matches_the_numpy_scalar_merge(self):
        polys = []
        for v in _planar_vertex_lists():
            try:
                polys.append(Polygon(v))
            except DegenerateInput:
                pass
        for k, a in enumerate(polys):
            b = polys[(7 * k + 3) % len(polys)]
            for va, vb in ((a.vertices, b.vertices), (a.vertices, -a.vertices)):
                got = bodies._minkowski_vertices_2d(va, vb)
                assert got.tobytes() == _scalar_minkowski_vertices_2d(va, vb).tobytes()

    def test_difference_body_2d_is_the_sum_with_the_negation(self):
        rng = np.random.default_rng(35)
        polys = [random_polygon(rng, m) for m in range(3, 13)]
        polys += [regular_polygon(4), regular_polygon(6), Polygon([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])]
        for body in polys:
            diff, ref = difference_body(body), minkowski_sum(body, body.negate())
            for field in ("vertices", "facet_normals", "facet_offsets", "facet_areas"):
                assert getattr(diff, field).tobytes() == getattr(ref, field).tobytes(), field
            assert diff.volume == ref.volume
