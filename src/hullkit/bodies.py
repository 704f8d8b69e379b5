"""Convex-body representations and exact primitive operations.

Two concrete body types cover everything downstream: `Polygon` (ordered CCW
vertex list) and `Polytope3` (vertices plus merged planar facets).  All values
are immutable after construction and every operation is pure, so bodies are
safe to share between threads.

Predicates use a single global relative tolerance ``EPS``; all identities in
the test suite are checked relatively against it.
"""

from __future__ import annotations

import logging
from itertools import chain

import numpy as np
from scipy.spatial import ConvexHull, QhullError, cKDTree

from .errors import (
    DegenerateInput,
    DimensionMismatch,
    GeometryError,
    NonUnitDirection,
    OriginNotInterior,
    SingularMatrix,
)

log = logging.getLogger(__name__)

#: Global relative tolerance for geometric predicates.
EPS = 1e-9

# Facet-merge thresholds for 3D hulls: normals within EPS (as a chord length)
# and plane offsets within EPS relative to the body scale.
_MERGE_NORMAL_TOL = 1e-9


def _as_points(points, dim=None):
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise DegenerateInput("expected an (n, dim) array of points")
    if dim is not None and pts.shape[1] != dim:
        raise DimensionMismatch(f"expected {dim}-dimensional points, got {pts.shape[1]}")
    if pts.shape[1] not in (2, 3):
        raise GeometryError("only dimensions 2 and 3 are supported")
    if not np.all(np.isfinite(pts)):
        raise DegenerateInput("points must have finite coordinates")
    return pts


def _span(pts):
    return float(np.max(np.ptp(pts, axis=0))) if len(pts) else 0.0


def _dedup_points(pts, tol):
    """Drop points closer than tol to an earlier point (keep-first).

    Raises DegenerateInput when the points are too far apart for cKDTree:
    it works with squared distances, and refuses (ValueError) once the
    squared diagonal of their bounding box overflows.
    """
    if len(pts) < 2 or tol <= 0:
        return pts
    try:
        pairs = cKDTree(pts).query_pairs(tol, output_type="ndarray")
    except ValueError as exc:
        raise DegenerateInput("coordinates too large: squared distances overflow") from exc
    if len(pairs) == 0:
        return pts
    drop = np.zeros(len(pts), dtype=bool)
    for i, j in pairs[np.argsort(pairs[:, 1])]:
        if not drop[i]:
            drop[j] = True
    return pts[~drop]


def _affine_rank(pts, tol):
    centered = pts - pts.mean(axis=0)
    if len(pts) < 2:
        return 0
    s = np.linalg.svd(centered, compute_uv=False)
    return int(np.sum(s > tol * max(s[0], 1e-300)))


def rot90(u):
    """Rotate a 2D vector by +pi/2."""
    return np.array([-u[1], u[0]], dtype=float)


# Row-wise products as stacked (1, 3) @ (3, 1) matmuls: each row rounds
# exactly as a one-vector dot product (and so ``np.linalg.norm`` of one
# vector), which a reduction over axis 1 does not guarantee.


def _row_dots(a, b):
    """<a_i, b> for each row of a (b one vector) or <a_i, b_i> (b rows too)."""
    a = np.ascontiguousarray(a)
    b = np.ascontiguousarray(b)
    if b.ndim == 1:
        return (a[:, None, :] @ b)[:, 0]
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _row_norms(a):
    return np.sqrt(_row_dots(a, a))


def _cross(a, b):
    """a x b over the last axis, broadcasting, written out as `np.cross`
    computes it (the same bits) without its axis handling."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack((a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0), axis=-1)


def _plane_basis(normals):
    """Orthonormal in-plane bases (b1, b2) for unit normals, one per row:
    b1 = n x e_x normalised (n x e_y where that is too short), b2 = n x b1."""
    b1 = _cross(normals, np.array([1.0, 0.0, 0.0]))
    short = _row_norms(b1) < 0.5
    b1[short] = _cross(normals[short], np.array([0.0, 1.0, 0.0]))
    b1 /= _row_norms(b1)[:, None]
    return b1, _cross(normals, b1)


# ---------------------------------------------------------------------------
# body types


class _BodyBase:
    """What `Polygon` and `Polytope3` share: queries answered from the
    vertices and the facet planes (outward unit normals and offsets) that
    each constructor validates and caches."""

    def __len__(self):
        return len(self.vertices)

    @property
    def volume(self):
        """n-dimensional volume (area in 2D)."""
        return self._volume

    @property
    def diameter(self):
        return self._diameter

    def support(self, u):
        return float(np.max(self.vertices @ np.asarray(u, dtype=float)))

    def support_many(self, dirs):
        return np.max(np.asarray(dirs, dtype=float) @ self.vertices.T, axis=1)

    def gauge(self, u):
        return float(self.gauge_many(np.asarray(u, dtype=float)[None, :])[0])

    def gauge_many(self, dirs):
        dirs = np.asarray(dirs, dtype=float)
        if np.min(self.facet_offsets) <= EPS * self.diameter:
            raise OriginNotInterior("gauge requires the origin strictly inside the body")
        ratios = (dirs @ self.facet_normals.T) / self.facet_offsets
        return 1.0 / np.max(ratios, axis=1)

    def contains(self, x, tol=None):
        if tol is None:
            tol = EPS * self.diameter
        x = np.asarray(x, dtype=float)
        return bool(np.max(x @ self.facet_normals.T - self.facet_offsets) <= tol)


class Polygon(_BodyBase):
    """Convex polygon given by its vertices in counterclockwise order.

    The constructor validates the invariants: at least three vertices, no
    duplicates, and strictly convex position (every consecutive cross product
    positive beyond tolerance).  Clockwise input is reversed, so orientation
    is always CCW after construction.  Use :func:`hull` to build a Polygon
    from an unordered or redundant point set.
    """

    dim = 2

    def __init__(self, vertices):
        v = _as_points(vertices, dim=2).copy()
        if len(v) < 3:
            raise DegenerateInput("a polygon needs at least 3 vertices")
        area2 = np.sum(v[:, 0] * np.roll(v[:, 1], -1) - np.roll(v[:, 0], -1) * v[:, 1])
        if area2 < 0:
            v = v[::-1].copy()
            area2 = -area2
        span = _span(v)
        edges = np.roll(v, -1, axis=0) - v
        cross = edges[:, 0] * np.roll(edges[:, 1], -1) - edges[:, 1] * np.roll(edges[:, 0], -1)
        # validate at half the hull filter's tolerance so rings that passed
        # the strictness filter cannot straddle the threshold in re-check
        if span <= 0 or np.any(cross <= 0.5 * EPS * span * span):
            raise DegenerateInput("vertices are not in strictly convex position")

        self.vertices = v
        self.vertices.flags.writeable = False
        lengths = np.linalg.norm(edges, axis=1)
        # outward unit normal of the CCW edge [v_i, v_{i+1}]
        normals = np.column_stack((edges[:, 1], -edges[:, 0])) / lengths[:, None]
        self.facet_normals = normals
        self.facet_offsets = np.sum(normals * v, axis=1)
        self.facet_areas = lengths
        self._volume = 0.5 * float(area2)
        self._diameter = _diameter(v)
        for arr in (self.facet_normals, self.facet_offsets, self.facet_areas):
            arr.flags.writeable = False

    def __repr__(self):
        return f"Polygon({len(self)} vertices, area={self._volume:.6g})"

    def translate(self, t):
        return Polygon(self.vertices + np.asarray(t, dtype=float))

    def scale(self, s):
        if s == 0:
            raise DegenerateInput("scale factor must be nonzero")
        return Polygon(self.vertices * float(s))

    def negate(self):
        return Polygon(-self.vertices)


class Polytope3(_BodyBase):
    """Convex polytope in 3-space: vertices plus merged planar facets.

    Each facet is a CCW vertex-index loop (seen from outside) together with
    its outward unit normal and plane offset.  Construction validates
    planarity, containment of every vertex in every facet halfspace, loop
    consistency (each edge shared by exactly two facets) and Euler's relation
    V - E + F = 2.

    Validation is one pass over the flat table of loop positions, except
    for heights and offsets, taken per loop length: a loop's (k, 3) @ (3, 1)
    product and the pairwise sum in `np.mean` (8 or more terms) have no flat
    form with the same rounding.  Newell normals add each loop's terms in
    loop order from zero, as a sum over a loop axis does (``np.add.at``;
    ``np.add.reduceat`` rounds differently).  The edge checks work on
    integer keys ``head * V + tail`` of the directed loop edges.
    """

    dim = 3

    def __init__(self, vertices, facet_loops):
        v = _as_points(vertices, dim=3).copy()
        if len(v) < 4:
            raise DegenerateInput("a 3-polytope needs at least 4 vertices")
        loops = [tuple(map(int, loop)) for loop in facet_loops]
        sizes = np.array([len(loop) for loop in loops])
        if len(loops) < 4 or np.min(sizes) < 3:
            raise DegenerateInput("a 3-polytope needs at least 4 facets with 3+ vertices each")
        flat = np.fromiter(chain.from_iterable(loops), dtype=np.int64, count=int(np.sum(sizes)))
        if np.min(flat) < 0 or np.max(flat) >= len(v):
            raise DegenerateInput("a facet loop refers to a missing vertex")
        span = _span(v)
        tol = max(EPS * span, 1e-300)
        centroid = v.mean(axis=0)

        starts = np.cumsum(sizes) - sizes
        owner = np.repeat(np.arange(len(loops)), sizes)
        nxt = np.arange(1, len(flat) + 1)
        nxt[starts + sizes - 1] = starts
        pts = v[flat]
        raw = np.zeros((len(loops), 3))
        np.add.at(raw, owner, _cross(pts, pts[nxt]))
        nrm = _row_norms(raw)
        with np.errstate(invalid="ignore", divide="ignore"):
            normals = raw / nrm[:, None]
        heights = np.empty(len(flat))
        offsets = np.empty(len(loops))
        for size in np.unique(sizes):
            fs = np.nonzero(sizes == size)[0]
            at = starts[fs, None] + np.arange(size)
            heights[at] = (pts[at] @ normals[fs, :, None])[:, :, 0]
            offsets[fs] = np.mean(heights[at], axis=1)
        facet_spans = np.max(np.maximum.reduceat(pts, starts) - np.minimum.reduceat(pts, starts), axis=1)
        # |<p, n> - b| is unchanged, bit for bit, when n and b both flip
        defects = np.maximum.reduceat(np.abs(heights - offsets[owner]), starts)
        # degeneracy is relative to the facet's own extent: genuinely tiny
        # facets (near-concurrent crease lines) are legitimate
        degenerate = (facet_spans <= 0) | (nrm <= EPS * facet_spans * facet_spans)
        bad = degenerate | (defects > 10 * tol)
        if np.any(bad):
            f = int(np.argmax(bad))
            if degenerate[f]:
                raise DegenerateInput(f"facet {f} is degenerate")
            raise DegenerateInput(f"facet {f} is not planar within tolerance")
        flip = _row_dots(normals, centroid) > offsets
        normals[flip] *= -1.0
        offsets[flip] *= -1.0
        areas = 0.5 * nrm

        slack = v @ normals.T - offsets
        if np.max(slack) > 10 * tol:
            raise DegenerateInput("a vertex lies outside a facet halfspace")

        # consistent orientation: every edge appears in exactly two loops,
        # traversed in opposite directions (a flipped loop's edges reversed)
        heads = np.where(flip[owner], flat[nxt], flat)
        tails = np.where(flip[owner], flat, flat[nxt])
        keys = heads * len(v) + tails
        if len(np.unique(keys)) < len(keys):
            raise DegenerateInput("facet loops are not consistently oriented")
        if not np.all(np.isin(tails * len(v) + heads, keys)):
            raise DegenerateInput("facet loops are not edge-consistent")
        n_edges = len(keys) // 2
        if len(v) - n_edges + len(loops) != 2:
            raise DegenerateInput("facet structure violates the Euler relation")

        self.vertices = v
        self.facet_loops = tuple(loop[::-1] if turned else loop for loop, turned in zip(loops, flip.tolist()))
        self.facet_normals = normals
        self.facet_offsets = offsets
        self.facet_areas = areas
        self._volume = float(np.sum(offsets * areas)) / 3.0
        self._diameter = _diameter(v)
        for arr in (self.vertices, self.facet_normals, self.facet_offsets, self.facet_areas):
            arr.flags.writeable = False

    def __repr__(self):
        return f"Polytope3({len(self)} vertices, {len(self.facet_loops)} facets, volume={self._volume:.6g})"

    def translate(self, t):
        return Polytope3(self.vertices + np.asarray(t, dtype=float), self.facet_loops)

    def scale(self, s):
        s = float(s)
        if s == 0:
            raise DegenerateInput("scale factor must be nonzero")
        if s > 0:
            return Polytope3(self.vertices * s, self.facet_loops)
        return Polytope3(self.vertices * s, [loop[::-1] for loop in self.facet_loops])

    def negate(self):
        return Polytope3(-self.vertices, [loop[::-1] for loop in self.facet_loops])


#: A convex body is either a Polygon or a Polytope3.
Body = Polygon | Polytope3


def _diameter(v):
    """Largest distance between two rows of v.  The squared distances are
    summed one coordinate at a time over (V, V) arrays, in the order that a
    sum over a last axis of length 2 or 3 adds them, so without the (V, V,
    dim) temporary of that sum but with its rounding."""
    sq = np.zeros((len(v), len(v)))
    for c in v.T:
        d = c[:, None] - c
        sq += d * d
    return float(np.sqrt(np.max(sq)))


# ---------------------------------------------------------------------------
# hull construction


def hull(points):
    """Convex hull of a 2D or 3D point set as a validated body.

    The result's vertex set is exactly the extreme points of the input
    (coordinates are passed through unchanged).  Raises DegenerateInput when
    the points do not span the ambient dimension.
    """
    pts = _as_points(points)
    span = _span(pts)
    pts = _dedup_points(pts, EPS * span)
    dim = pts.shape[1]
    if len(pts) < dim + 1 or _affine_rank(pts, 1e-12) < dim:
        raise DegenerateInput("points are lower-dimensional")
    if dim == 2:
        return Polygon(pts[_hull2_indices(pts)])
    return _hull3(pts)


def _hull2_indices(pts, tol=None):
    """Monotone chain; returns CCW indices of the strictly extreme points."""
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    if tol is None:
        tol = EPS * _span(pts) ** 2

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
    # the chain junctions are never turn-checked; sweep out flat corners
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


def _hull3(pts):
    """Qhull-backed 3D hull with coplanar triangles merged into facet loops.

    Points within EPS*span of being non-extreme (flat sliver vertices from
    near-collinear or near-coplanar candidates) are discarded before the
    facet structure is assembled.

    Qhull triangulates every facet; the triangles are merged back here:

    * Groups (`_coplanar_groups`) are those of a search from each ungrouped
      simplex in index order, its *seed*, that adds a neighbour whenever the
      neighbour's plane agrees with the seed's plane within the merge
      tolerances; comparing with the seed keeps the criterion from drifting
      along a chain.  Groups are numbered by their seeds, ascending.
    * A facet's loop is the boundary of its group: the triangle edges whose
      neighbour across lies in another group, each triangle first turned
      counterclockwise about its own outward normal.  Each boundary edge is
      followed by the one that starts at its head, from the group's lowest
      point in the plane coordinates of its seed's normal (x, then y), where
      `_hull2_indices` starts too.  A group whose boundary is not one simple
      cycle is rejected.
    * A boundary vertex is dropped when its turn (the cross product of
      `_hull2_indices`, in those plane coordinates) is at or below its
      facet's tolerance in every facet whose boundary it lies on; the turns
      are taken again until no vertex drops.  A vertex is thus kept or
      dropped in all its facets at once, and neighbouring loops share their
      edges.  A loop is reversed where its seed normal points into the body.
    """
    span = _span(pts)
    for _ in range(16):
        try:
            qh = ConvexHull(pts)
        except QhullError as exc:
            # qhull's first line names the failure; the rest is its option dump
            first_line = str(exc).strip().partition("\n")[0]
            raise DegenerateInput(f"hull construction failed: {first_line}") from exc
        flat = _flat_sliver_vertices(pts, qh, EPS * span)
        if len(flat) == 0:
            break
        log.debug("dropping %d flat hull vertices", len(flat))
        keep = np.ones(len(pts), dtype=bool)
        keep[flat] = False
        pts = pts[keep]
    else:
        raise DegenerateInput("hull did not stabilize after sliver removal")

    nv = len(pts)
    normals = qh.equations[:, :3]
    offsets = -qh.equations[:, 3]
    seeds, group = _coplanar_groups(qh.neighbors, normals, offsets, EPS * span)
    basis = np.stack(_plane_basis(normals[seeds]), axis=1)
    # outward orientation: the group normal must point away from the body
    inward = _row_dots(normals[seeds], pts.mean(axis=0)) > offsets[seeds]

    # turn each triangle counterclockwise about its normal; qhull's
    # neighbors[:, k] lies across the edge opposite vertex k
    tri, across = qh.simplices.copy(), qh.neighbors.copy()
    corners = pts[tri]
    u, w = corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0]
    turned = np.sum(_cross(u, w) * normals, axis=1) < 0
    tri[turned] = tri[turned, ::-1]
    across[turned] = across[turned, ::-1]

    # boundary edges tail -> head, keyed and sorted by (group, tail)
    owner = np.repeat(group, 3)
    edge = group[across[:, [2, 0, 1]].ravel()] != owner
    keys = owner[edge] * nv + tri.ravel()[edge]
    order = np.argsort(keys)
    keys = keys[order]
    ends = (owner[edge] * nv + tri[:, [1, 2, 0]].ravel()[edge])[order]
    # one boundary edge starts and one ends at each (group, vertex)
    if np.any(keys[1:] == keys[:-1]) or not np.array_equal(np.sort(ends), keys):
        raise DegenerateInput("a facet boundary is not a simple cycle")
    owner, tails = np.divmod(keys, nv)
    counts = np.bincount(owner)
    starts = np.cumsum(counts) - counts
    # plane coordinates as stacked (2, 3) @ (3, 1) products: these round as
    # a group's (k, 3) @ (3,) product `points @ b1` does, and a stacked
    # (1, 3) @ (3, 1) product does not
    local = (basis[owner] @ pts[tails][:, :, None])[:, :, 0]
    lowest = np.lexsort((local[:, 1], local[:, 0], owner))[starts]

    # walk each group's cycle from its lowest point; the walk keeps the
    # group blocks of `keys`, so `owner` holds for it unchanged
    succ = np.searchsorted(keys, ends).tolist()
    path = []
    for e, count in zip(lowest.tolist(), counts.tolist()):
        for _ in range(count):
            path.append(e)
            e = succ[e]
    if len(set(path)) < len(path):
        raise DegenerateInput("a facet boundary is not a simple cycle")
    path = np.array(path)
    vids, local = tails[path], local[path]
    extent = np.max(np.maximum.reduceat(local, starts) - np.minimum.reduceat(local, starts), axis=1)
    tol = EPS * span * np.maximum(extent, EPS * span)

    for _ in range(len(path)):
        sizes = np.bincount(owner, minlength=len(seeds))
        first = (np.cumsum(sizes) - sizes)[owner]
        k = np.arange(len(owner)) - first
        o, a, b = (local[first + (k + step) % sizes[owner]] for step in (-1, 0, 1))
        cross = (a[:, 0] - o[:, 0]) * (b[:, 1] - o[:, 1]) - (a[:, 1] - o[:, 1]) * (b[:, 0] - o[:, 0])
        corner = np.zeros(nv, dtype=bool)
        corner[vids[cross > tol[owner]]] = True
        keep = corner[vids]
        if np.all(keep):
            break
        vids, local, owner = vids[keep], local[keep], owner[keep]

    used = np.unique(vids)
    remap = np.zeros(nv, dtype=int)
    remap[used] = np.arange(len(used))
    rows = remap[vids].tolist()
    bounds = np.cumsum(np.bincount(owner, minlength=len(seeds))).tolist()
    loops = [rows[lo:hi] for lo, hi in zip([0] + bounds[:-1], bounds)]
    return Polytope3(pts[used], [loop[::-1] if flip else loop for loop, flip in zip(loops, inward.tolist())])


def _coplanar_groups(neighbors, normals, offsets, offset_tol):
    """Group qhull simplices into facets, as the seed search of `_hull3`.

    Returns ``(seeds, group)``: each group's lowest simplex, ascending, and
    each simplex's group index.  Two members of one group agree with its seed
    within the tolerances, so with each other within twice them.  Only
    neighbour pairs that pass that looser test (with a little slack for
    rounding) can share a group, and a simplex in none is a group alone.
    Components over those pairs get the lowest index as label.  A component
    all of whose members agree with that lowest simplex is one group;
    otherwise the seed search runs on that component alone.
    """
    nsimp = len(neighbors)
    a = np.repeat(np.arange(nsimp), neighbors.shape[1])
    b = neighbors.ravel()
    loose = 2.000001
    pair = (a < b) & _planes_agree(normals, offsets, a, b, loose * _MERGE_NORMAL_TOL, loose * offset_tol)
    a, b = a[pair], b[pair]
    label = np.arange(nsimp)
    while True:
        low = np.minimum(label[a], label[b])
        new = label.copy()
        np.minimum.at(new, a, low)
        np.minimum.at(new, b, low)
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    merged = np.nonzero(label != np.arange(nsimp))[0]
    agree = _planes_agree(normals, offsets, merged, label[merged], _MERGE_NORMAL_TOL, offset_tol)
    drifted = merged[~agree]
    for root in np.unique(label[drifted]).tolist():
        comp = np.nonzero(label == root)[0]
        inside = np.isin(a, comp)
        label[comp] = _seed_search(comp, a[inside], b[inside], normals, offsets, offset_tol)
    return np.unique(label, return_inverse=True)


def _seed_search(comp, a, b, normals, offsets, offset_tol):
    """Seed of each simplex of ``comp`` (ascending) under the seed-plane
    search, walking the candidate pairs (a, b) inside the component."""
    adjacent = {s: [] for s in comp.tolist()}
    for x, y in zip(a.tolist(), b.tolist()):
        adjacent[x].append(y)
        adjacent[y].append(x)
    seed_of = {}
    for seed in adjacent:
        if seed in seed_of:
            continue
        near = set(comp[_planes_agree(normals, offsets, comp, seed, _MERGE_NORMAL_TOL, offset_tol)].tolist())
        seed_of[seed] = seed
        stack = [seed]
        while stack:
            for nb in adjacent[stack.pop()]:
                if nb not in seed_of and nb in near:
                    seed_of[nb] = seed
                    stack.append(nb)
    return [seed_of[s] for s in comp.tolist()]


def _planes_agree(normals, offsets, i, j, normal_tol, offset_tol):
    """Whether simplex planes i and j agree: unit normals within normal_tol
    as a chord and offsets within offset_tol."""
    return (_row_norms(normals[i] - normals[j]) <= normal_tol) & (np.abs(offsets[i] - offsets[j]) <= offset_tol)


def _flat_sliver_vertices(pts, qh, height_tol):
    """Vertices sitting within height_tol of the opposite edge of a hull
    triangle; such points are non-extreme up to tolerance.

    One batch over all simplices: a triangle is flat when twice its area is
    at most height_tol times its longest side, and then the vertex opposite
    that side is returned.  Areas are computed as ``np.linalg.norm`` of one
    cross product would compute them.  Returns sorted point indices.
    """
    tri = pts[qh.simplices]
    sides = tri[:, [1, 2, 0]] - tri
    lengths = np.linalg.norm(sides, axis=2)
    area2 = _row_norms(_cross(sides[:, 0], -sides[:, 2]))
    longest = np.argmax(lengths, axis=1)
    flat = area2 <= height_tol * np.take_along_axis(lengths, longest[:, None], axis=1)[:, 0]
    # vertex opposite the longest edge is the nearly-collinear one
    return np.unique(qh.simplices[flat, (longest[flat] + 2) % 3])


# ---------------------------------------------------------------------------
# primitive operations


def volume(body):
    """n-dimensional volume (area in 2D)."""
    return body.volume


def support(body, u):
    """Support function h(u) = max over vertices of <u, v>."""
    return body.support(np.asarray(u, dtype=float))


def gauge(body, u):
    """Gauge (radial) function: the largest tau with tau*u inside the body."""
    return body.gauge(np.asarray(u, dtype=float))


def polar(body):
    """Polar dual: each facet plane (n, b) maps to the vertex n/b.

    Requires the origin strictly interior.  Applying polar twice reproduces
    the original body up to tolerance.
    """
    tol = EPS * body.diameter
    if np.min(body.facet_offsets) <= tol:
        raise OriginNotInterior("polar requires the origin strictly inside the body")
    return hull(body.facet_normals / body.facet_offsets[:, None])


def minkowski_sum(a, b):
    """Minkowski sum of two convex bodies of equal dimension."""
    if a.dim != b.dim:
        raise DimensionMismatch("minkowski_sum needs bodies of equal dimension")
    if a.dim == 2:
        return Polygon(_minkowski_vertices_2d(a, b))
    sums = (a.vertices[:, None, :] + b.vertices[None, :, :]).reshape(-1, 3)
    return hull(sums)


def _minkowski_vertices_2d(a, b):
    """CCW edge merge.  Each output vertex is the running sum of the edges
    merged so far, starting from the sum of the two lowest vertices, so its
    coordinates carry that sum's rounding: in general they are not the exact
    sum of one vertex of each body."""

    def rolled(poly):
        v = poly.vertices
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
    return pts[_hull2_indices(pts)]


def difference_body(body):
    """Difference body K + (-K); always origin-symmetric."""
    return minkowski_sum(body, body.negate())


def central_symmetral(body):
    """Half the difference body."""
    return difference_body(body).scale(0.5)


def _check_unit(u):
    u = np.asarray(u, dtype=float)
    if abs(np.linalg.norm(u) - 1.0) > 1e-9:
        raise NonUnitDirection("direction must be a unit vector")
    return u


def brightness(body, u):
    """(n-1)-volume of the shadow of the body on the hyperplane normal to u.

    2D: length of the projection onto the line perpendicular to u.
    3D: Cauchy's formula, half the sum of |<u, n_F>| * area(F) over facets.
    """
    u = _check_unit(u)
    if body.dim == 2:
        w = rot90(u)
        return body.support(w) + body.support(-w)
    return 0.5 * float(np.sum(np.abs(body.facet_normals @ u) * body.facet_areas))


def brightness_many(body, dirs):
    """Vectorized brightness over an array of unit directions."""
    dirs = np.asarray(dirs, dtype=float)
    if body.dim == 2:
        w = np.column_stack((-dirs[:, 1], dirs[:, 0]))
        return body.support_many(w) + body.support_many(-w)
    return 0.5 * np.abs(dirs @ body.facet_normals.T) @ body.facet_areas


def shadow_area(body, u):
    """Brightness computed the slow way: hull of the projected vertices.

    Kept separate from :func:`brightness` as an independent cross-check.
    """
    u = _check_unit(u)
    if body.dim == 2:
        proj = body.vertices @ rot90(u)
        return float(np.max(proj) - np.min(proj))
    basis1, basis2 = (b[0] for b in _plane_basis(u[None, :]))
    flat = np.column_stack((body.vertices @ basis1, body.vertices @ basis2))
    ring = flat[_hull2_indices(flat)]
    area2 = np.sum(ring[:, 0] * np.roll(ring[:, 1], -1) - np.roll(ring[:, 0], -1) * ring[:, 1])
    return 0.5 * abs(float(area2))


def affine_image(body, mat, shift=None):
    """Image of the body under the invertible affine map x -> mat @ x + shift."""
    mat = np.asarray(mat, dtype=float)
    if mat.shape != (body.dim, body.dim):
        raise DimensionMismatch("affine matrix has the wrong shape")
    if abs(np.linalg.det(mat)) < 1e-12:
        raise SingularMatrix("affine map must be invertible")
    shift = np.zeros(body.dim) if shift is None else np.asarray(shift, dtype=float)
    mapped = body.vertices @ mat.T + shift
    if body.dim == 2:
        return Polygon(mapped)
    return hull(mapped)


# ---------------------------------------------------------------------------
# distances


def point_body_distance(x, body):
    """Euclidean distance from a point to a convex body (0 if inside)."""
    x = np.asarray(x, dtype=float)
    if body.contains(x, tol=0.0):
        return 0.0
    if body.dim == 2:
        v = body.vertices
        return float(np.min(_point_segment_distances(x, v, np.roll(v, -1, axis=0))))
    best = np.inf
    for f, loop in enumerate(body.facet_loops):
        n = body.facet_normals[f]
        slack = float(x @ n - body.facet_offsets[f])
        foot = x - slack * n
        ring = body.vertices[list(loop)]
        edges = np.roll(ring, -1, axis=0) - ring
        inward = _cross(n, edges)
        if np.all(np.sum((foot - ring) * inward, axis=1) >= -EPS * body.diameter):
            best = min(best, abs(slack))
        else:
            best = min(best, float(np.min(_point_segment_distances(x, ring, np.roll(ring, -1, axis=0)))))
    return best


def _point_segment_distances(x, starts, ends):
    d = ends - starts
    t = np.clip(np.sum((x - starts) * d, axis=1) / np.sum(d * d, axis=1), 0.0, 1.0)
    feet = starts + t[:, None] * d
    return np.linalg.norm(feet - x, axis=1)


def hausdorff_distance(a, b):
    """Hausdorff distance between two convex bodies (exact for polytopes:
    the directed distance from a polytope is attained at a vertex)."""
    if a.dim != b.dim:
        raise DimensionMismatch("hausdorff_distance needs bodies of equal dimension")
    d_ab = max(point_body_distance(v, b) for v in a.vertices)
    d_ba = max(point_body_distance(v, a) for v in b.vertices)
    return max(d_ab, d_ba)
