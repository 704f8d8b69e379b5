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
from functools import cached_property, lru_cache
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

#: Smallest positive normal double.
_TINY = float(np.finfo(float).tiny)


def _as_points(points, dim=None):
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise DegenerateInput("expected an (n, dim) array of points")
    if dim is not None and pts.shape[1] != dim:
        raise DimensionMismatch(f"expected {dim}-dimensional points, got {pts.shape[1]}")
    if pts.shape[1] not in (2, 3):
        raise GeometryError("only dimensions 2 and 3 are supported")
    if not np.isfinite(pts).all():
        raise DegenerateInput("points must have finite coordinates")
    return pts


def _span(pts):
    return float((pts.max(0) - pts.min(0)).max()) if len(pts) else 0.0


#: Up to this many points, `_dedup_points` first tries to show at once that
#: no two of them are close.
_FEW_POINTS = 32


def _dedup_points(pts, tol):
    """Drop points closer than tol to an earlier point (keep-first).

    Raises DegenerateInput when the points are too far apart for cKDTree:
    it works with squared distances, and refuses (ValueError) once the
    squared diagonal of their bounding box overflows.
    """
    if len(pts) < 2 or tol <= 0:
        return pts
    if len(pts) <= _FEW_POINTS and _far_apart(pts, tol):
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


def _far_apart(pts, tol):
    """Whether every two points are shown to lie more than 2 tol apart, so
    that `cKDTree.query_pairs(tol)` finds no pair.  The test is that every
    pairwise squared distance exceeds 4 tol²: that margin is far wider than
    the rounding of these sums or of cKDTree's.  It is taken only where
    4 tol² is a normal double and every |coordinate| is below 1e149, which
    keeps every squared distance, cKDTree's bounding-box diagonal too, far
    from overflow.  So every set whose squared distances underflow or
    overflow goes on to cKDTree, and to its messages."""
    if not (_TINY <= tol * tol and np.abs(pts).max() < 1e149):
        return False
    d = pts[:, None] - pts
    # summed in any order, each is within a few ulps of the true sum
    sq = (d * d) @ np.ones(pts.shape[1])
    # a point's distance to itself is no pair
    sq.flat[:: len(pts) + 1] = np.inf
    return bool(sq.min() > 4 * tol * tol)


def _affine_rank(pts, span):
    """Rank of the centred points: their singular values above 1e-12 times
    the largest (or above 1e-312).  `span` bounds their coordinates' extent.

    Most full-rank sets are settled without an SVD, by the Gram matrix G of
    the centred points, whose eigenvalues are the squared singular values:
    the smallest is at least det G / tr(G)^(d-1) and the largest at most
    tr G.  So det G > 1e-8 tr(G)^d puts the smallest singular value above
    1e-4 times the largest, which the rounding of G, of det G and of the SVD
    (relative 1e-9 here, for up to a million points) cannot bring down to
    1e-12.  Extents in (1e-40, 1e40) keep G and the products in det G
    normal doubles, with no overflow.
    """
    if len(pts) < 2:
        return 0
    c = pts - pts.sum(0) / len(pts)
    if len(pts) <= 10**6 and 1e-40 < span < 1e40:
        g = (c.T @ c).tolist()
        if len(g) == 2:
            (a, b), (d, e) = g
            det, tr = a * e - b * d, a + e
            bound = tr * tr
        else:
            (a, b, f), (d, e, h), (k, m, q) = g
            det = a * (e * q - h * m) - b * (d * q - h * k) + f * (d * m - e * k)
            tr = a + e + q
            bound = tr * tr * tr
        if det > 1e-8 * bound:
            return len(g)
    s = np.linalg.svd(c, compute_uv=False)
    return int((s > 1e-12 * max(s[0], 1e-300)).sum())


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


# for each of three coordinates (or triangle corners), the next and the one
# before
_NEXT = np.array([1, 2, 0])
_PREV = np.array([2, 0, 1])


def _cross(a, b):
    """a x b over the last axis, broadcasting: the products and differences
    of `np.cross` (the same bits), on whole rotated copies of the operands."""
    return a.take(_NEXT, -1) * b.take(_PREV, -1) - a.take(_PREV, -1) * b.take(_NEXT, -1)


def _plane_basis(normals):
    """Orthonormal in-plane bases (b1, b2) for unit normals, one per row:
    b1 = n x e_x normalised (n x e_y where that is too short), b2 = n x b1."""
    both = _cross(normals[:, None], np.eye(2, 3))
    b1 = np.where((_row_norms(both[:, 0]) < 0.5)[:, None], both[:, 1], both[:, 0])
    b1 /= _row_norms(b1)[:, None]
    return b1, _cross(normals, b1)


#: Rows up to this long are reduced by `_row_max` across a transposed copy.
_SHORT_ROW = 64


def _row_max(m):
    """``np.max(m, axis=1)``, bit for bit.  numpy reduces short rows one at a
    time, slowly; so up to `_SHORT_ROW` columns the maxima are taken down
    the columns of a contiguous transposed copy.  A maximum is the same
    number in either layout, except that tied +0.0 and -0.0 (and NaN) may
    come out with another sign or payload: rows whose maximum is 0 or NaN
    are taken again along the row."""
    if m.shape[1] > _SHORT_ROW:
        return m.max(axis=1)
    out = np.ascontiguousarray(m.T).max(axis=0)
    redo = ~(np.abs(out) > 0)
    if redo.any():
        out[redo] = m[redo].max(axis=1)
    return out


@lru_cache(maxsize=64)
def _successors(m):
    """Each of m ring positions' successor, read as ``np.roll(a, -1)``
    reads it: a cached, read-only index array."""
    nxt = np.arange(1, m + 1)
    nxt[-1] = 0
    nxt.flags.writeable = False
    return nxt


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

    @cached_property
    def diameter(self):
        """Largest distance between two vertices.  Computed on first read
        and then kept, which is safe because bodies are immutable."""
        return _diameter(self.vertices)

    def support(self, u):
        return float(np.max(self.vertices @ np.asarray(u, dtype=float)))

    def support_many(self, dirs):
        return _row_max(np.asarray(dirs, dtype=float) @ self.vertices.T)

    def gauge(self, u):
        return float(self.gauge_many(np.asarray(u, dtype=float)[None, :])[0])

    def gauge_many(self, dirs):
        dirs = np.asarray(dirs, dtype=float)
        if np.min(self.facet_offsets) <= EPS * self.diameter:
            raise OriginNotInterior("gauge requires the origin strictly inside the body")
        return 1.0 / _row_max((dirs @ self.facet_normals.T) / self.facet_offsets)

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
        m = len(v)
        if m < 3:
            raise DegenerateInput("a polygon needs at least 3 vertices")
        nxt = _successors(m)
        x, y = v[:, 0], v[:, 1]
        area2 = (x * y[nxt] - x[nxt] * y).sum()
        if area2 < 0:
            v = v[::-1].copy()
            area2 = -area2
        span = _span(v)
        edges = v[nxt] - v
        ex, ey = edges[:, 0], edges[:, 1]
        cross = ex * ey[nxt] - ey * ex[nxt]
        # validate at half the hull filter's tolerance so rings that passed
        # the strictness filter cannot straddle the threshold in re-check
        if span <= 0 or (cross <= 0.5 * EPS * span * span).any():
            raise DegenerateInput("vertices are not in strictly convex position")

        self.vertices = v
        self.vertices.flags.writeable = False
        # np.linalg.norm(edges, axis=1), written out
        lengths = np.sqrt(ex * ex + ey * ey)
        # outward unit normal of the CCW edge [v_i, v_{i+1}]
        normals = np.empty((m, 2))
        np.divide(ey, lengths, out=normals[:, 0])
        np.divide(-ex, lengths, out=normals[:, 1])
        self.facet_normals = normals
        # np.sum(normals * v, axis=1) adds from +0.0, which turns a -0.0 sum
        # into +0.0; the trailing + 0.0 does the same
        self.facet_offsets = normals[:, 0] * v[:, 0] + normals[:, 1] * v[:, 1] + 0.0
        self.facet_areas = lengths
        self._volume = 0.5 * float(area2)
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

    @property
    def _boundary_loops(self):
        """The vertex ring as one loop, the boundary of the polygon's one
        2-face, as `Polytope3.facet_loops` are its facets' boundaries."""
        return (range(len(self.vertices)),)


class Polytope3(_BodyBase):
    """Convex polytope in 3-space: vertices plus merged planar facets.

    Each facet is a CCW vertex-index loop (seen from outside) together with
    its outward unit normal and plane offset.  Construction validates
    planarity, containment of every vertex in every facet halfspace, loop
    consistency (each edge shared by exactly two facets) and Euler's relation
    V - E + F = 2.

    Validation is one pass over the flat table of loop positions.  Newell
    normals add each loop's terms in loop order from zero, as a sum over a
    loop axis does (``np.add.at``; ``np.add.reduceat`` rounds differently).
    Each height is one row of a stacked (2, 3) @ (3, 1) product, which
    rounds as a loop's (k, 3) @ (3, 1) product does.  An offset is the mean
    of its loop's heights: summed in loop order for loops of fewer than 8
    vertices, which is what `np.mean` does there, and taken with `np.mean`
    per loop length from 8 vertices on, where it sums pairwise.  The edge
    checks work on the sorted integer keys ``head * V + tail`` of the
    directed loop edges.
    """

    dim = 3

    def __init__(self, vertices, facet_loops):
        v = _as_points(vertices, dim=3).copy()
        if len(v) < 4:
            raise DegenerateInput("a 3-polytope needs at least 4 vertices")
        loops = [tuple(map(int, loop)) for loop in facet_loops]
        if len(loops) < 4 or min(map(len, loops)) < 3:
            raise DegenerateInput("a 3-polytope needs at least 4 facets with 3+ vertices each")
        flat, sizes, starts, owner, nxt = _loop_table(loops)
        if flat.min() < 0 or flat.max() >= len(v):
            raise DegenerateInput("a facet loop refers to a missing vertex")
        tol = max(EPS * _span(v), 1e-300)

        pts = v[flat]
        raw = np.zeros((len(loops), 3))
        np.add.at(raw, owner, _cross(pts, pts[nxt]))
        nrm = _row_norms(raw)
        # a normal whose squared norm underflows is 0/0 = NaN, and so are its
        # heights; such a facet is named degenerate below
        with np.errstate(invalid="ignore", divide="ignore"):
            normals = raw / nrm[:, None]
            heights, offsets = _loop_heights(pts, normals, owner, starts, sizes)
            # |<p, n> - b| is unchanged, bit for bit, when n and b both flip
            defects = np.maximum.reduceat(np.abs(heights - offsets[owner]), starts)
        facet_spans = (np.maximum.reduceat(pts, starts) - np.minimum.reduceat(pts, starts)).max(1)
        # degeneracy is relative to the facet's own extent: genuinely tiny
        # facets (near-concurrent crease lines) are legitimate
        degenerate = (facet_spans <= 0) | (nrm <= EPS * facet_spans * facet_spans)
        bad = degenerate | (defects > 10 * tol)
        if bad.any():
            f = int(bad.argmax())
            if degenerate[f]:
                raise DegenerateInput(f"facet {f} is degenerate")
            raise DegenerateInput(f"facet {f} is not planar within tolerance")
        flip = _row_dots(normals, v.sum(0) / len(v)) > offsets
        flipped = bool(flip.any())
        if flipped:
            # multiplying by 1.0 or -1.0 is exact
            sign = np.where(flip, -1.0, 1.0)
            normals *= sign[:, None]
            offsets *= sign
        areas = 0.5 * nrm

        if (v @ normals.T - offsets).max() > 10 * tol:
            raise DegenerateInput("a vertex lies outside a facet halfspace")

        # consistent orientation: every edge appears in exactly two loops,
        # traversed in opposite directions (a flipped loop's edges reversed)
        heads, tails = flat, flat[nxt]
        if flipped:
            turned = flip[owner]
            heads, tails = np.where(turned, tails, heads), np.where(turned, heads, tails)
        keys = heads * len(v) + tails
        keys.sort()
        if (keys[1:] == keys[:-1]).any():
            raise DegenerateInput("facet loops are not consistently oriented")
        # distinct keys have distinct reverses, so every reverse is a key
        # exactly when the two sorted arrays are equal
        reverses = tails * len(v) + heads
        reverses.sort()
        if not (reverses == keys).all():
            raise DegenerateInput("facet loops are not edge-consistent")
        n_edges = len(keys) // 2
        if len(v) - n_edges + len(loops) != 2:
            raise DegenerateInput("facet structure violates the Euler relation")

        self.vertices = v
        if flipped:
            loops = [loop[::-1] if turned else loop for loop, turned in zip(loops, flip.tolist())]
        self.facet_loops = tuple(loops)
        self.facet_normals = normals
        self.facet_offsets = offsets
        self.facet_areas = areas
        self._volume = float((offsets * areas).sum()) / 3.0
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

    @property
    def _boundary_loops(self):
        return self.facet_loops


#: A convex body is either a Polygon or a Polytope3.
Body = Polygon | Polytope3


def _loop_table(loops):
    """The flat table of the positions of vertex-index loops, in loop order:
    ``(flat, sizes, starts, owner, nxt)``, each position's vertex, each
    loop's size and first position, and each position's loop and the
    position after it in its loop (the first, after the last)."""
    lengths = [len(loop) for loop in loops]
    sizes = np.array(lengths, dtype=np.int64)
    ends = sizes.cumsum()
    starts = ends - sizes
    flat = np.fromiter(chain.from_iterable(loops), dtype=np.int64, count=sum(lengths))
    owner = np.arange(len(loops)).repeat(sizes)
    nxt = np.arange(1, len(flat) + 1)
    nxt[ends - 1] = starts
    return flat, sizes, starts, owner, nxt


def _loop_heights(pts, normals, owner, starts, sizes):
    """Heights <p, n> of the loop positions pts in their loops' normals,
    and each loop's offset, the mean of its heights as `np.mean` takes it.

    A (2, 3) @ (3, 1) product rounds each row as a loop's (k, 3) @ (3, 1)
    product does (a (1, 3) @ (3, 1) product does not), so each position's
    row is taken twice.  `np.mean` adds fewer than 8 terms in order, as
    ``np.add.at`` does, and 8 or more pairwise, so those loops take it per
    loop length.
    """
    heights = (pts[:, None].repeat(2, 1) @ normals[owner][:, :, None])[:, 0, 0]
    offsets = np.zeros(len(sizes))
    np.add.at(offsets, owner, heights)
    offsets /= sizes
    for size in sorted(set(sizes[sizes >= 8].tolist())):
        fs = (sizes == size).nonzero()[0]
        offsets[fs] = heights[starts[fs, None] + np.arange(size)].mean(1)
    return heights, offsets


# at most this many floats in the temporaries of one row block of
# `_diameter` and `point_body_distances`: 8 MB
_BLOCK = 1 << 20


def _diameter(v):
    """Largest distance between two rows of v.  The squared distances are
    summed one coordinate at a time, in the order that a sum over a last
    axis of length 2 or 3 adds them, so with that sum's rounding.  Rows i
    are taken in blocks against the rows j >= the block's first, so the
    temporaries stay near 8 MB; (i, j) and (j, i) give the same bits."""
    best = 0.0
    rows = max(1, _BLOCK // len(v))
    for lo in range(0, len(v), rows):
        block, rest = v[lo:lo + rows], v[lo:]
        sq = np.zeros((len(block), len(rest)))
        for c, r in zip(block.T, rest.T):
            d = c[:, None] - r
            d *= d
            sq += d
        best = max(best, float(sq.max()))
    return float(np.sqrt(best))


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
    tol = EPS * span
    kept = _dedup_points(pts, tol)
    dim = pts.shape[1]
    if len(kept) < dim + 1 or _affine_rank(kept, span) < dim:
        # cKDTree compares squared distances, and below the smallest normal
        # double they lose their precision or underflow to 0, so distinct
        # points can compare as coincident: a full-rank set that the merge
        # made flat at such a scale has coordinates too small to resolve
        if len(kept) < len(pts) and tol**2 < _TINY and _affine_rank(pts, span) == dim:
            raise DegenerateInput("coordinates too small: squared distances underflow")
        raise DegenerateInput("points are lower-dimensional")
    if dim == 2:
        return Polygon(kept[_hull2_indices(kept)])
    return _hull3(kept, span if len(kept) == len(pts) else _span(kept))


def _hull2_indices(pts, tol=None):
    """Monotone chain; returns CCW indices of the strictly extreme points.

    The turns are computed on Python floats, which are IEEE doubles like the
    numpy scalars they replace: the same operations in the same order give
    the same bits, without numpy's per-scalar overhead.  A turn counts as
    flat unless it exceeds tol (so a NaN turn is not flat)."""
    order = np.lexsort((pts[:, 1], pts[:, 0])).tolist()
    xs, ys = pts[:, 0].tolist(), pts[:, 1].tolist()
    if tol is None:
        # EPS * _span(pts) ** 2: max and min are exact, so this is its value
        tol = EPS * max(max(xs) - min(xs), max(ys) - min(ys)) ** 2

    def build(seq):
        chain = []
        for b in seq:
            bx, by = xs[b], ys[b]
            while len(chain) >= 2:
                o, a = chain[-2], chain[-1]
                ox, oy = xs[o], ys[o]
                if not (xs[a] - ox) * (by - oy) - (ys[a] - oy) * (bx - ox) <= tol:
                    break
                chain.pop()
            chain.append(b)
        return chain

    ring = build(order)[:-1] + build(order[::-1])[:-1]
    # the chain junctions are never turn-checked; sweep out flat corners
    changed = True
    while changed and len(ring) > 2:
        m = len(ring)
        kept = []
        for k in range(m):
            o, a, b = ring[k - 1], ring[k], ring[(k + 1) % m]
            ox, oy = xs[o], ys[o]
            if not (xs[a] - ox) * (ys[b] - oy) - (ys[a] - oy) * (xs[b] - ox) <= tol:
                kept.append(a)
        changed = len(kept) < m
        ring = kept
    return np.array(ring, dtype=int)


def _hull3(pts, span):
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

    ``span`` is the points' largest coordinate extent, `_span(pts)`.
    """
    for _ in range(16):
        try:
            qh = ConvexHull(pts)
        except QhullError as exc:
            # qhull's first line names the failure; the rest is its option dump
            first_line = str(exc).strip().partition("\n")[0]
            raise DegenerateInput(f"hull construction failed: {first_line}") from exc
        flat, crosses = _flat_sliver_vertices(pts, qh, EPS * span)
        if len(flat) == 0:
            break
        log.debug("dropping %d flat hull vertices", len(flat))
        keep = np.ones(len(pts), dtype=bool)
        keep[flat] = False
        pts = pts[keep]
        # below about 1e-80 the sliver test's squared terms underflow, every
        # triangle reads as flat, and too few points are left for qhull
        if len(pts) < 4:
            raise DegenerateInput(
                "hull construction failed: fewer than 4 points left after dropping flat sliver vertices"
            )
    else:
        raise DegenerateInput("hull did not stabilize after sliver removal")

    nv = len(pts)
    simplices, neighbors = qh.simplices, qh.neighbors
    normals = qh.equations[:, :3]
    offsets = -qh.equations[:, 3]
    seeds, group = _coplanar_groups(neighbors, qh.equations, EPS * span)
    seed_normals = normals[seeds]
    basis = np.concatenate(_plane_basis(seed_normals), 1).reshape(-1, 2, 3)
    # outward orientation: the group normal must point away from the body
    inward = _row_dots(seed_normals, pts.sum(0) / nv) > offsets[seeds]

    # boundary edges tail -> head, keyed and sorted by (group, tail): the
    # edge from corner k of a triangle to corner k + 1 lies opposite corner
    # k + 2, so qhull's neighbors[:, k + 2] lies across it, and turning a
    # triangle counterclockwise about its normal reverses each of its edges
    tail_keys = (group * nv)[:, None] + simplices
    head_keys = tail_keys.take(_NEXT, 1)
    turned = ((crosses * normals).sum(1) < 0)[:, None]
    tail_keys, head_keys = np.where(turned, head_keys, tail_keys), np.where(turned, tail_keys, head_keys)
    edge = (group[neighbors.take(_PREV, 1)] != group[:, None]).ravel()
    keys = tail_keys.ravel()[edge]
    order = keys.argsort()
    keys = keys[order]
    ends = head_keys.ravel()[edge][order]
    # one boundary edge starts and one ends at each (group, vertex)
    if (keys[1:] == keys[:-1]).any() or not (np.sort(ends) == keys).all():
        raise DegenerateInput("a facet boundary is not a simple cycle")
    owner, tails = np.divmod(keys, nv)
    # every group has a boundary (no plane holds a closed surface), so
    # `counts` has an entry for each
    counts = np.bincount(owner)
    starts = counts.cumsum() - counts
    # plane coordinates as stacked (2, 3) @ (3, 1) products: these round as
    # a group's (k, 3) @ (3,) product `points @ b1` does, and a stacked
    # (1, 3) @ (3, 1) product does not
    local = (basis[owner] @ pts[tails][:, :, None])[:, :, 0]
    lowest = np.lexsort((local[:, 1], local[:, 0], owner))[starts]

    # walk each group's cycle from its lowest point
    after = keys.searchsorted(ends)
    ahead = after.tolist()
    path = []
    for e, count in zip(lowest.tolist(), counts.tolist()):
        for _ in range(count):
            path.append(e)
            e = ahead[e]
    if len(set(path)) < len(path):
        raise DegenerateInput("a facet boundary is not a simple cycle")
    path = np.array(path)
    extent = (np.maximum.reduceat(local, starts) - np.minimum.reduceat(local, starts)).max(1)
    tol = (EPS * span * np.maximum(extent, EPS * span))[owner]

    # the turn at each position is taken between the positions before and
    # after it in its cycle, at all positions at once, in the order of
    # `keys`; the positions of dropped vertices are spliced out
    before = np.empty_like(after)
    before[after] = np.arange(len(after))
    sizes = counts
    for _ in range(len(path)):
        o = local[before]
        u, w = local - o, local[after] - o
        cross = u[:, 0] * w[:, 1] - u[:, 1] * w[:, 0]
        corner = np.zeros(nv, dtype=bool)
        corner[tails[cross > tol]] = True
        keep = corner[tails]
        if keep.all():
            break
        before, after, path = _splice_out(before, after, path, keep)
        local, tails, owner, tol = local[keep], tails[keep], owner[keep], tol[keep]
        sizes = np.bincount(owner, minlength=len(seeds))

    # `corner` marks the vertices left in `tails`; number them in order
    used = corner.nonzero()[0]
    rows = used.searchsorted(tails[path]).tolist()
    bounds = sizes.cumsum().tolist()
    loops = [rows[lo:hi] for lo, hi in zip([0] + bounds[:-1], bounds)]
    return Polytope3(pts[used], [loop[::-1] if flip else loop for loop, flip in zip(loops, inward.tolist())])


def _splice_out(before, after, path, keep):
    """Splice the positions where keep is False out of the cycles that
    ``before`` and ``after`` (each position's predecessor and successor)
    describe, and number the kept positions in order.  Returns the new
    (before, after, path), ``path`` being a walk over the positions."""
    back, ahead = before.tolist(), after.tolist()
    for p in (~keep).nonzero()[0].tolist():
        prev, nxt = back[p], ahead[p]
        ahead[prev], back[nxt] = nxt, prev
    rank = keep.cumsum() - 1
    kept = keep.nonzero()[0]
    return rank[np.array(back)[kept]], rank[np.array(ahead)[kept]], rank[path[keep[path]]]


def _coplanar_groups(neighbors, planes, offset_tol):
    """Group qhull simplices into facets, as the seed search of `_hull3`.

    ``planes`` are the simplices' rows (n, -b) of qhull's ``equations``.
    Returns ``(seeds, group)``: each group's lowest simplex, ascending, and
    each simplex's group index.  Two members of one group agree with its seed
    within the tolerances, so with each other within twice them.  Only
    neighbour pairs that pass that looser test (with a little slack for
    rounding) can share a group, and a simplex in none is a group alone.
    Those few pairs are joined by a union-find whose every root is the
    lowest simplex of its component.  A component all of whose members
    agree with that lowest simplex is one group; otherwise the seed search
    runs on that component alone.
    """
    index = np.arange(len(neighbors))
    a = index.repeat(neighbors.shape[1])
    b = neighbors.ravel()
    loose = 2.000001
    # each neighbour pair once, as (a, b) with a < b
    pair = _planes_agree(planes, a, b, loose * _MERGE_NORMAL_TOL, loose * offset_tol) & (a < b)
    if not pair.any():
        return index, index
    a, b = a[pair], b[pair]
    # a parent is never above its child, so every root is its component's
    # lowest simplex
    parent = list(range(len(neighbors)))

    def root(x):
        while parent[x] != x:
            # path halving: point x at its grandparent, then step there
            parent[x] = x = parent[parent[x]]
        return x

    for x, y in zip(a.tolist(), b.tolist()):
        x, y = root(x), root(y)
        if x < y:
            parent[y] = x
        elif y < x:
            parent[x] = y
    # in index order, each parent already points at its root
    for x in index.tolist():
        parent[x] = parent[parent[x]]
    label = np.array(parent)
    merged = (label != index).nonzero()[0]
    agree = _planes_agree(planes, merged, label[merged], _MERGE_NORMAL_TOL, offset_tol)
    for top in sorted(set(label[merged[~agree]].tolist())):
        comp = (label == top).nonzero()[0]
        inside = np.isin(a, comp)
        label[comp] = _seed_search(comp, a[inside], b[inside], planes, offset_tol)
    # every label is a seed that labels itself, so a group's index is its
    # seed's rank
    seed = label == index
    return index[seed], (seed.cumsum() - 1)[label]


def _seed_search(comp, a, b, planes, offset_tol):
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
        near = set(comp[_planes_agree(planes, comp, seed, _MERGE_NORMAL_TOL, offset_tol)].tolist())
        seed_of[seed] = seed
        stack = [seed]
        while stack:
            for nb in adjacent[stack.pop()]:
                if nb not in seed_of and nb in near:
                    seed_of[nb] = seed
                    stack.append(nb)
    return [seed_of[s] for s in comp.tolist()]


def _planes_agree(planes, i, j, normal_tol, offset_tol):
    """Whether simplex planes i and j, rows (n, -b), agree: unit normals
    within normal_tol as a chord and offsets within offset_tol.  One
    difference of the rows gives both; |b_i - b_j| is |(-b_i) - (-b_j)|,
    bit for bit."""
    d = planes[i] - planes[j]
    agree = np.abs(d[:, 3]) <= offset_tol
    # the normals only of the few pairs whose offsets agree
    agree[agree] = _row_norms(d[agree, :3]) <= normal_tol
    return agree


def _flat_sliver_vertices(pts, qh, height_tol):
    """Vertices sitting within height_tol of the opposite edge of a hull
    triangle; such points are non-extreme up to tolerance.

    One batch over all simplices: a triangle is flat when twice its area is
    at most height_tol times its longest side, and then the vertex opposite
    that side is returned.  Areas are computed as ``np.linalg.norm`` of one
    cross product would compute them.  Returns sorted point indices and
    each triangle's cross product (p1 - p0) x (p2 - p0).
    """
    simplices = qh.simplices
    tri = pts[simplices]
    sides = tri.take(_NEXT, 1) - tri
    # np.linalg.norm over an axis, without its wrapper
    lengths = np.sqrt((sides * sides).sum(2))
    # (p0 - p2) x (p1 - p0) is (p1 - p0) x -(p0 - p2), bit for bit
    crosses = _cross(sides[:, 2], sides[:, 0])
    flat = (_row_norms(crosses) <= height_tol * lengths.max(1)).nonzero()[0]
    if len(flat):
        # vertex opposite the longest edge is the nearly-collinear one
        flat = np.unique(simplices[flat, (lengths[flat].argmax(1) + 2) % 3])
    return flat, crosses


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
    try:
        return hull(body.facet_normals / body.facet_offsets[:, None])
    except DegenerateInput as exc:
        # the vertices n/b are the polar body's, not the input's: a tiny
        # input gives a polar body too large to build
        raise DegenerateInput(f"polar body: {exc}") from exc


def minkowski_sum(a, b):
    """Minkowski sum of two convex bodies of equal dimension."""
    if a.dim != b.dim:
        raise DimensionMismatch("minkowski_sum needs bodies of equal dimension")
    if a.dim == 2:
        return Polygon(_minkowski_vertices_2d(a.vertices, b.vertices))
    sums = (a.vertices[:, None, :] + b.vertices[None, :, :]).reshape(-1, 3)
    return hull(sums)


def _minkowski_vertices_2d(va, vb):
    """CCW edge merge of two CCW polygons' vertex arrays.  Each output
    vertex is the running sum of the edges merged so far, starting from the
    sum of the two lowest vertices, so its coordinates carry that sum's
    rounding: in general they are not the exact sum of one vertex of each
    body.  The merge runs on Python floats (the same IEEE additions)."""

    def walk(v):
        # start at the lowest vertex (the leftmost of the lowest)
        m = len(v)
        start = int(np.lexsort((v[:, 0], v[:, 1]))[0])
        ring = v[np.arange(start, start + m + 1) % m]
        e = ring[1:] - ring[:-1]
        ang = np.arctan2(e[:, 1], e[:, 0]).tolist()
        for i in range(1, m):
            while ang[i] <= ang[i - 1] - 1e-15:
                ang[i] += 2 * np.pi
        return ring[0].tolist(), e.tolist(), ang

    (xa, ya), ea, aa = walk(va)
    (xb, yb), eb, ab = walk(vb)
    x, y = xa + xb, ya + yb
    out = [(x, y)]
    i = j = 0
    while i < len(ea) or j < len(eb):
        if j >= len(eb) or (i < len(ea) and aa[i] <= ab[j]):
            sx, sy = ea[i]
            i += 1
        else:
            sx, sy = eb[j]
            j += 1
        x, y = x + sx, y + sy
        out.append((x, y))
    pts = np.array(out[:-1])
    return pts[_hull2_indices(pts)]


def difference_body(body):
    """Difference body K + (-K); always origin-symmetric.  It is summed with
    the negated vertices directly (in 2D, -v is already a valid CCW vertex
    list, as `negate` would build it); in 3D the hull is taken of the
    pairwise differences, which are the sums with the negated vertices bit
    for bit (x + (-y) is x - y)."""
    v = body.vertices
    if body.dim == 2:
        return Polygon(_minkowski_vertices_2d(v, -v))
    return hull((v[:, None, :] - v[None, :, :]).reshape(-1, 3))


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


def point_body_distances(X, body):
    """Euclidean distances from the rows of X to a convex body (0 inside).

    Each is the least distance to a piece of the boundary: to the edges of
    the body's boundary loops (`_loop_table`) and, in 3D, to each facet
    whose plane holds the foot of the perpendicular inside the facet's
    edges, with that facet's edges left out.  Each value equals, bit for
    bit, that of a loop over the facets for one point: the containment
    pre-test is a stacked (1, d) @ (d, F) product and the slacks stacked
    (1, 3) @ (3, 1) products, which round as one point's products do, and
    the sums over a last axis round as one facet's.  Points go in row
    blocks, so the temporaries stay near 8 MB.
    """
    X = np.ascontiguousarray(_as_points(X, dim=body.dim))
    normals, offsets = body.facet_normals, body.facet_offsets
    flat, _, starts, owner, nxt = _loop_table(body._boundary_loops)
    ring = body.vertices[flat]
    edges = body.vertices[flat[nxt]] - ring
    lengths2 = np.sum(edges * edges, axis=-1)
    # read before the blocks, so that the diameter's first computation and
    # a block do not hold their temporaries at once
    edge_tol = -EPS * body.diameter

    def outside_distances(x):
        # the points x (P, 1, dim) lie outside the body; the temporaries of
        # a block are freed on return
        t = np.clip(np.sum((x - ring) * edges, axis=-1) / lengths2, 0.0, 1.0)
        segments = np.linalg.norm(ring + t[..., None] * edges - x, axis=-1)
        faces = np.inf
        if body.dim == 3:
            slack = (x[:, None] @ normals[:, :, None])[:, :, 0, 0] - offsets
            feet = (x - slack[..., None] * normals)[:, owner]
            within = np.sum((feet - ring) * _cross(normals[owner], edges), axis=-1) >= edge_tol
            on_face = np.logical_and.reduceat(within, starts, axis=1)
            segments[on_face[:, owner]] = np.inf
            faces = np.where(on_face, np.abs(slack), np.inf).min(1)
        return np.minimum(segments.min(1), faces)

    out = np.zeros(len(X))
    # a block holds up to about four (rows, positions, dim) temporaries at once
    rows = max(1, _BLOCK // (4 * len(flat) * body.dim))
    for lo in range(0, len(X), rows):
        x = X[lo:lo + rows]
        # `not contains(x, tol=0.0)`, so a NaN slack counts as outside
        outside = ~(((x[:, None, :] @ normals.T)[:, 0] - offsets).max(1) <= 0.0)
        out[lo:lo + rows][outside] = outside_distances(x[outside][:, None, :])
    return out


def point_body_distance(x, body):
    """Euclidean distance from a point to a convex body (0 if inside)."""
    return float(point_body_distances([x], body)[0])


def hausdorff_distance(a, b):
    """Hausdorff distance between two convex bodies (exact for polytopes:
    the directed distance from a polytope is attained at a vertex)."""
    if a.dim != b.dim:
        raise DimensionMismatch("hausdorff_distance needs bodies of equal dimension")
    return float(max(point_body_distances(a.vertices, b).max(), point_body_distances(b.vertices, a).max()))
