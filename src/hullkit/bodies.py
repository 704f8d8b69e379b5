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
import math
import operator
from functools import cached_property, lru_cache, reduce
from itertools import chain, product

import numpy as np

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


def _as_vectors(x, dim):
    """x as a float array with dim entries along its last axis: a point, a
    direction, or an array of them."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (dim,):
        raise DimensionMismatch(f"expected {dim} coordinates along the last axis, got shape {x.shape}")
    return x


def _span(pts):
    # an extent that overflows is inf, in Python floats as in numpy, but with no warning
    return max(map(operator.sub, pts.max(0).tolist(), pts.min(0).tolist())) if len(pts) else 0.0


def _grid_point(means, span):
    """The point c nearest the means on the grid of step 2^e, the least
    power of two above span: round(mean / 2^e) * 2^e per coordinate, on
    Python floats.  Zeros where a mean overflowed: then the body's products
    overflow about any point, and are named there.

    The points of a body of that span lie within 1.5 * 2^e of c, so far
    from the origin p - c is exact (Sterbenz's lemma), and near it rounds at
    most once; and products of p - c do not cancel as those of p do.  A
    body whose mean lies within half a step of the origin has c = 0, and
    p - 0.0 is p bit for bit, -0.0, inf and NaN included."""
    e = math.frexp(span)[1]
    try:
        return [math.ldexp(round(math.ldexp(m, -e)), e) for m in means]
    except (OverflowError, ValueError):
        return [0.0] * len(means)


def ConvexHull(points):
    """qhull's hull of points, ``scipy.spatial.ConvexHull(points)``.

    Raises DegenerateInput, naming the first line of qhull's report, where
    qhull fails.  `_hull3` calls this through the module global, so that a
    tracer may rebind it.

    This is hullkit's only use of scipy.  scipy.spatial is imported here, on
    first use: its import is most of the cost of importing hullkit, and 2D
    work never pays for it."""
    import scipy.spatial

    try:
        return scipy.spatial.ConvexHull(points)
    except scipy.spatial.QhullError as exc:
        # qhull's first line names the failure; the rest is its option dump
        first_line = str(exc).strip().partition("\n")[0]
        raise DegenerateInput(f"hull construction failed: {first_line}") from exc


#: `_far_apart`'s unit direction per dimension, (1, sqrt 2) or (1, sqrt 2,
#: sqrt 3) normalised: lattice points and mirror images project apart.
_SWEEP = {2: np.sqrt([1.0, 2.0]) / np.sqrt(3.0), 3: np.sqrt([1.0, 2.0, 3.0]) / np.sqrt(6.0)}


def _dedup_points(pts, tol):
    """Drop points within tol of an earlier kept point (keep-first): where
    the squares of their coordinate differences, added left to right in axis
    order, are at most tol * tol.  Exact repeats leave first, by one sort of
    the rows; what `_far_apart` cannot then settle goes to one pass, in index
    order, over a grid of cells of side about tol (Bentley, Stanat and
    Williams, Inf. Process. Lett. 6, 1977), of the points whose projections
    on `_SWEEP` lie within a side of another's.  Each meets only the kept
    points in its own and the neighbouring cells, so a cluster costs O(n).
    Raises DegenerateInput where a row is not finite or the squared diagonal
    of the bounding box overflows."""
    if len(pts) < 2 or tol <= 0 or _far_apart(pts, tol):
        return pts
    # keep-first keeps the first of each run of equal rows, and a dropped
    # row drops no other
    pts = pts.take(np.sort(_distinct_rows(pts)[1]), 0)
    if _far_apart(pts, tol):
        return pts
    lo = pts.min(0).tolist()
    extents = list(map(operator.sub, pts.max(0).tolist(), lo))
    if not reduce(_add_square, extents, 0.0) < math.inf:
        raise DegenerateInput("coordinates too large: squared distances overflow")
    # a pair within tol lies within tol + 2^-536, where tol^2 underflows
    # too; at most 2^40 cells a side keep the quotients q within 2^-12, so
    # its cells are neighbours and its projections on the sweep within 1
    side = max(tol + 2.0**-536, max(extents) * 2.0**-40) * 1.01
    q = (pts - lo) / side
    keys = q @ _SWEEP[pts.shape[1]]
    order = keys.argsort()
    close = keys[order[1:]] - keys[order[:-1]] <= 1.0
    crowded = np.union1d(order[1:][close], order[:-1][close])
    tol2, near, keep = tol * tol, {}, np.ones(len(pts), dtype=bool)
    steps = list(product((-1.0, 0.0, 1.0), repeat=pts.shape[1]))
    # near[c] holds the kept points of cell c and of its neighbours
    for i, p, cell in zip(crowded.tolist(), pts[crowded].tolist(), np.floor(q[crowded]).tolist()):
        keep[i] = not any(reduce(_add_square, map(operator.sub, p, r), 0.0) <= tol2 for r in near.get(tuple(cell), ()))
        for step in steps if keep[i] else ():
            near.setdefault(tuple(map(operator.add, cell, step)), []).append(p)
    return pts[keep]


def _add_square(s, x):
    # reduced from 0.0, the squares are added left to right, where builtin
    # sum compensates its additions from Python 3.12
    return s + x * x


def _far_apart(pts, tol):
    """Whether `_dedup_points` is shown to find no pair within tol, and no
    overflow: every gap between consecutive sorted projections on `_SWEEP`
    exceeds max(tol, 2^-509) (1 + 1e-12) + 1e-14 max|coordinate|.  A pair
    lies within tol (1 + 1e-15) along any unit direction, or within 2^-510
    where tol² underflows, and the projections round within 6e-16
    max|coordinate|, so its gaps never exceed the bound.  Only coordinates
    below 2^510, where the squared bounding-box diagonal cannot overflow,
    are taken; every other set goes on to the merge, and to its message."""
    big = float(np.abs(pts).max())
    if not big < 2.0**510:
        return False
    keys = pts @ _SWEEP[pts.shape[1]]
    keys.sort()
    bound = max(tol, 2.0**-509) * (1.0 + 1e-12) + 1e-14 * big
    return bool((keys[1:] - keys[:-1]).min(initial=np.inf) > bound)


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
    """Rotate a 2D vector, or each of an array of them, by +pi/2."""
    u = _as_vectors(u, 2)
    return np.stack((-u[..., 1], u[..., 0]), axis=-1)


def _row_norms(a):
    """|a_i| for each row of a.

    Row products here are taken with ``np.vecdot``, one BLAS dot call per
    row: each row rounds exactly as a one-vector dot product (and so as
    ``np.linalg.norm`` of one vector, and as a stacked (1, 3) @ (3, 1)
    matmul), which a sum over axis 1 does not guarantee."""
    return np.sqrt(np.vecdot(a, a))


# for each of three coordinates (or triangle corners), the next and the one
# before
_NEXT = np.array([1, 2, 0])
_PREV = np.array([2, 0, 1])
_AXES = np.arange(3)
_UNIT = np.eye(3)

#: Up to this many elements, `take` makes `_cross`'s rotated copies faster
#: than indexing does; beyond, it is slower (about 3x at 2 000).
_TAKE_SIZE = 384


def _cross(a, b):
    """a x b over the last axis, broadcasting: the products and differences
    of `np.cross` (the same bits), on whole rotated copies of the operands."""
    if max(a.size, b.size) <= _TAKE_SIZE:
        return a.take(_NEXT, -1) * b.take(_PREV, -1) - a.take(_PREV, -1) * b.take(_NEXT, -1)
    return a[..., _NEXT] * b[..., _PREV] - a[..., _PREV] * b[..., _NEXT]


def _pairs(k):
    """The index pairs i < j of k rows, as ``np.triu_indices(k, 1)`` lists
    them (by i, then j), with fewer numpy calls."""
    at = np.arange(k)
    return (at[:, None] < at).nonzero()


def _plane_basis(normals):
    """Orthonormal in-plane bases (b1, b2) for unit normals, one per row:
    b1 = n x e_x normalised (n x e_y where that is too short), b2 = n x b1."""
    b1 = _cross(normals, _UNIT[0])
    short = _row_norms(b1) < 0.5
    if short.any():
        b1[short] = _cross(normals[short], _UNIT[1])
    b1 /= _row_norms(b1)[:, None]
    return b1, _cross(normals, b1)


def _distinct_rows(rows):
    """Each row's index among the distinct rows, numbered in lexicographic
    order from the last column, and the index of the first row of each
    (``np.lexsort`` is stable, so the first in index order)."""
    order = np.lexsort(rows.T)
    ranked = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (ranked[1:] != ranked[:-1]).any(1)
    at = np.empty(len(rows), dtype=np.intp)
    at[order] = new.cumsum() - 1
    return at, order[new]


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
    each constructor validates and caches, and the maps x + t, s x and -x,
    whose image each class rebuilds from the mapped vertices (`_mapped`)."""

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
        return float(np.max(self.vertices @ _as_vectors(u, self.dim)))

    def support_many(self, dirs):
        return _row_max(_as_vectors(dirs, self.dim) @ self.vertices.T)

    def gauge(self, u):
        return float(self.gauge_many(np.asarray(u, dtype=float)[None])[0])

    def gauge_many(self, dirs):
        dirs = _as_vectors(dirs, self.dim)
        if np.min(self.facet_offsets) <= EPS * self.diameter:
            raise OriginNotInterior("gauge requires the origin strictly inside the body")
        return 1.0 / _row_max((dirs @ self.facet_normals.T) / self.facet_offsets)

    def contains(self, x, tol=None):
        if tol is None:
            tol = EPS * self.diameter
        x = _as_vectors(x, self.dim)
        return bool(np.max(x @ self.facet_normals.T - self.facet_offsets) <= tol)

    def translate(self, t):
        return self._mapped(self.vertices + _as_vectors(t, self.dim), negated=False)

    def scale(self, s):
        s = float(s)
        if s == 0:
            raise DegenerateInput("scale factor must be nonzero")
        return self._mapped(self.vertices * s, negated=s < 0)

    def negate(self):
        return self._mapped(-self.vertices, negated=True)


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
        # from a span of about 5e153 on (or where the vertices' mean
        # overflows), the shoelace sum, the edge cross products or the edge
        # lengths overflow, which is named here, before any warning
        with np.errstate(over="ignore", invalid="ignore"):
            span = _span(v)
            # the shoelace sum about a grid point near the polygon: far from
            # the origin, the terms x * y of raw coordinates cancel
            d = v - _grid_point([total / m for total in v.sum(0).tolist()], span)
            x, y = d[:, 0], d[:, 1]
            area2 = (x * y[nxt] - x[nxt] * y).sum()
            if area2 < 0:
                v = v[::-1].copy()
                area2 = -area2
            edges = v[nxt] - v
            ex, ey = edges[:, 0], edges[:, 1]
            cross = ex * ey[nxt] - ey * ex[nxt]
            # np.linalg.norm(edges, axis=1), written out
            squares = ex * ex + ey * ey
            lengths = np.sqrt(squares)
        if not (area2 < np.inf and np.isfinite(cross).all() and lengths.max() < np.inf):
            raise DegenerateInput("coordinates too large: area or edge products overflow")
        # validate at half the hull filter's tolerance so rings that passed
        # the strictness filter cannot straddle the threshold in re-check
        if span <= 0 or (cross <= 0.5 * EPS * span * span).any():
            raise DegenerateInput("vertices are not in strictly convex position")
        # a subnormal square has lost bits: the normals would be off unit length
        if squares.min() < _TINY:
            raise DegenerateInput("coordinates too small: squared edge lengths underflow")

        self.vertices = v
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
        for arr in (self.vertices, self.facet_normals, self.facet_offsets, self.facet_areas):
            arr.flags.writeable = False

    def __repr__(self):
        return f"Polygon({len(self)} vertices, area={self._volume:.6g})"

    def _mapped(self, v, negated):
        """The polygon on v: x -> -x turns the plane by pi, keeping it CCW."""
        return Polygon(v)

    @property
    def _loops(self):
        """The vertex ring as one loop, the boundary of the polygon's one
        2-face, as `Polytope3`'s loops are its facets' boundaries."""
        m = len(self.vertices)
        return _LoopTable(np.arange(m), np.array([m]))


class Polytope3(_BodyBase):
    """Convex polytope in 3-space: vertices plus merged planar facets.

    Each facet is a CCW vertex-index loop (seen from outside) together with
    its outward unit normal and plane offset.  Construction validates that
    each loop is a simple cycle (no vertex twice), planarity, containment of
    every vertex in every facet halfspace, loop consistency (each edge
    shared by exactly two facets) and Euler's relation V - E + F = 2.

    Validation is one pass over the flat table of loop positions
    (`_LoopTable`): `hull()` hands over the table it has built, and the
    loops of any other caller are put into one first.  Newell normals add
    each loop's terms in loop order from zero, as a sum over a loop axis
    does (``np.bincount`` with weights, as ``np.add.at`` would;
    ``np.add.reduceat`` rounds differently).  Each height is one row of a
    stacked (2, 3) @ (3, 1) product, which rounds as a loop's (k, 3) @
    (3, 1) product does.  An offset is the mean of its loop's heights:
    summed in loop order for loops of fewer than 8 vertices, which is what
    `np.mean` does there, and taken with `np.mean` per loop length from 8
    vertices on, where it sums pairwise.  The edge checks work on the sorted
    integer keys ``head * V + tail`` of the directed loop edges.
    """

    dim = 3

    def __init__(self, vertices, facet_loops):
        v = _as_points(vertices, dim=3).copy()
        if len(v) < 4:
            raise DegenerateInput("a 3-polytope needs at least 4 vertices")
        table = facet_loops if isinstance(facet_loops, _LoopTable) else _LoopTable.of(facet_loops)
        flat, sizes, starts, owner, nxt = table.flat, table.sizes, table.starts, table.owner, table.nxt
        n_loops = len(sizes)
        if n_loops < 4 or sizes.min() < 3:
            raise DegenerateInput("a 3-polytope needs at least 4 facets with 3+ vertices each")
        if flat.min() < 0 or flat.max() >= len(v):
            raise DegenerateInput("a facet loop refers to a missing vertex")
        # a loop is a simple cycle: no vertex twice in one loop
        members = owner * len(v) + flat
        members.sort()
        if (members[1:] == members[:-1]).any():
            raise DegenerateInput("a facet loop repeats a vertex")
        tol = max(EPS * _span(v), 1e-300)

        # row gathers by `take`, several times faster than indexing
        pts = v.take(flat, 0)
        # the Newell sums: `np.bincount` adds each loop's terms in loop
        # order from +0.0.  From coordinates of about 1e77 on, the squares
        # of the sums overflow (and from about 1e154 the terms do), which is
        # named here, before any warning; a normal whose squared norm
        # underflows to 0 is 0/0 = NaN, and so are its heights, and such a
        # facet is named degenerate below
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            terms = _cross(pts, pts.take(nxt, 0)).ravel()
            raw = np.bincount(((3 * owner)[:, None] + _AXES).ravel(), terms, 3 * n_loops).reshape(-1, 3)
            # `_row_norms`, with the squares kept
            squares = np.vecdot(raw, raw)
            nrm = np.sqrt(squares)
            if not (nrm < np.inf).all():
                raise DegenerateInput("coordinates too large: facet normals overflow")
            normals = raw / nrm[:, None]
            heights, offsets = _loop_heights(pts, normals, owner, starts, sizes)
            # |<p, n> - b| is unchanged, bit for bit, when n and b both flip
            defects = np.maximum.reduceat(np.abs(heights - offsets[owner]), starts)
        extents = np.maximum.reduceat(pts, starts) - np.minimum.reduceat(pts, starts)
        facet_spans = np.maximum(np.maximum(extents[:, 0], extents[:, 1]), extents[:, 2])
        # degeneracy is relative to the facet's own extent: genuinely tiny
        # facets (near-concurrent crease lines) are legitimate
        floor = EPS * facet_spans * facet_spans
        degenerate = (facet_spans <= 0) | (nrm <= floor)
        bad = degenerate | (defects > 10 * tol)
        if bad.any():
            f = int(bad.argmax())
            if not degenerate[f]:
                raise DegenerateInput(f"facet {f} is not planar within tolerance")
            # a norm at or below a floor whose square is subnormal has a
            # subnormal square itself: that is the underflow named below.
            # 2^-511 is the least double with a normal square, and comparing
            # with it squares nothing that could overflow
            if not (facet_spans[f] > 0 and floor[f] < 2.0**-511):
                raise DegenerateInput(f"facet {f} is degenerate")
        # as in `Polygon`, a subnormal square puts the normal off unit length
        if squares.min() < _TINY:
            raise DegenerateInput("coordinates too small: squared facet normals underflow")
        flip = np.vecdot(normals, v.sum(0) / len(v)) > offsets
        if flip.any():
            # multiplying by 1.0 or -1.0 is exact
            sign = np.where(flip, -1.0, 1.0)
            normals *= sign[:, None]
            offsets *= sign
            table = table.reversed(flip)
            flat, nxt = table.flat, table.nxt
        areas = 0.5 * nrm

        # rounding is monotone, so max_i fl(a_ij - b_j) is fl(max_i a_ij - b_j)
        # (NaN included): the column maxima decide, bit for bit, what the
        # whole (V, F) array of slacks would.  They are taken over row blocks
        # of vertices, one block wherever V * F is small
        tops = reduce(np.maximum, ((v[blk] @ normals.T).max(0) for blk in _row_blocks(len(v), n_loops)))
        if (tops - offsets).max() > 10 * tol:
            raise DegenerateInput("a vertex lies outside a facet halfspace")

        # consistent orientation: every edge appears in exactly two loops,
        # traversed in opposite directions
        heads, tails = flat, flat[nxt]
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
        if len(v) - n_edges + n_loops != 2:
            raise DegenerateInput("facet structure violates the Euler relation")

        self.vertices = v
        self._loops = table
        self.facet_normals = normals
        self.facet_offsets = offsets
        self.facet_areas = areas
        self._volume = float((offsets * areas).sum()) / 3.0
        for arr in (self.vertices, self.facet_normals, self.facet_offsets, self.facet_areas):
            arr.flags.writeable = False

    @cached_property
    def facet_loops(self):
        """The facet loops, outward, as tuples of vertex indices: built from
        the validated table on first read and then kept."""
        return self._loops.loops()

    def __repr__(self):
        return f"Polytope3({len(self)} vertices, {len(self.facet_loops)} facets, volume={self._volume:.6g})"

    def _mapped(self, v, negated):
        """The polytope on v, its loops reversed where x -> -x turned them."""
        return Polytope3(v, self._loops.reversed(np.full(len(self._loops.sizes), negated)))


#: A convex body is either a Polygon or a Polytope3.
Body = Polygon | Polytope3


class _LoopTable:
    """The flat table of the positions of vertex-index loops, in loop order:
    each position's vertex (``flat``), each loop's size and first position
    (``sizes``, ``starts``), and each position's loop (``owner``) and the
    position after it in its loop (``nxt``: the first, after the last).  A
    loop may be empty."""

    __slots__ = ("flat", "sizes", "starts", "owner", "nxt")

    def __init__(self, flat, sizes):
        self.flat, self.sizes = flat, sizes
        ends = sizes.cumsum()
        self.starts = ends - sizes
        self.owner = np.arange(len(sizes)).repeat(sizes)
        self.nxt = np.arange(1, len(flat) + 1)
        full = sizes > 0
        self.nxt[ends[full] - 1] = self.starts[full]

    @classmethod
    def of(cls, loops):
        """The table of a sequence of loops of vertex indices."""
        loops = [tuple(map(int, loop)) for loop in loops]
        lengths = [len(loop) for loop in loops]
        flat = np.fromiter(chain.from_iterable(loops), dtype=np.int64, count=sum(lengths))
        return cls(flat, np.array(lengths, dtype=np.int64))

    def reversed(self, turn):
        """The table with the loops where ``turn`` is True reversed."""
        at = np.arange(len(self.flat))
        turned = turn[self.owner]
        # position j of a loop at s of size k is read from s + k - 1 - j
        at[turned] = (2 * self.starts + self.sizes - 1)[self.owner[turned]] - at[turned]
        return _LoopTable(self.flat[at], self.sizes)

    def loops(self):
        """The loops as tuples of Python ints."""
        rows = self.flat.tolist()
        bounds = self.starts.tolist()
        return tuple([tuple(rows[lo:lo + k]) for lo, k in zip(bounds, self.sizes.tolist())])


def _loop_heights(pts, normals, owner, starts, sizes):
    """Heights <p, n> of the loop positions pts in their loops' normals,
    and each loop's offset, the mean of its heights as `np.mean` takes it.

    A (2, 3) @ (3, 1) product rounds each row as a loop's (k, 3) @ (3, 1)
    product does (a (1, 3) @ (3, 1) product does not), so each position's
    row is taken twice.  `np.mean` adds fewer than 8 terms in order from
    +0.0, as ``np.bincount`` does, and 8 or more pairwise, so those loops
    take it per loop length.
    """
    heights = (pts[:, None].repeat(2, 1) @ normals.take(owner, 0)[:, :, None])[:, 0, 0]
    offsets = np.bincount(owner, heights, len(sizes))
    offsets /= sizes
    for size in sorted(set(sizes[sizes >= 8].tolist())):
        fs = (sizes == size).nonzero()[0]
        offsets[fs] = heights[starts[fs, None] + np.arange(size)].mean(1)
    return heights, offsets


def _plane_coordinates(normals, at, pts):
    """Coordinates of each point pts[p] in the `_plane_basis` of the unit
    normal normals[at[p]], as stacked (2, 3) @ (3, 1) products: these round
    as a facet's (k, 3) @ (3,) product ``points @ b1`` does, and a stacked
    (1, 3) @ (3, 1) product does not."""
    basis = np.concatenate(_plane_basis(normals), 1).reshape(-1, 2, 3)
    return (basis.take(at, 0) @ pts[:, :, None])[:, :, 0]


def _lowest_positions(local, starts, owner):
    """Each loop's lowest position in the plane coordinates local: least x,
    then least y, then the first position; where a stable lexsort by (loop,
    x, y) puts it first.  Loops start at starts, and owner[p] is the loop of
    position p."""
    at = np.arange(len(local))
    x = np.minimum.reduceat(local[:, 0], starts)
    y = np.where(local[:, 0] == x[owner], local[:, 1], np.inf)
    return np.minimum.reduceat(np.where(y == np.minimum.reduceat(y, starts)[owner], at, len(at)), starts)


def _turns(local, nxt):
    """Each loop position's turn: the cross product of the steps from the
    position before it to itself and to the one after it, nxt, in the plane
    coordinates local, as `_hull2_indices` takes it; and the second step."""
    before = np.empty_like(nxt)
    before[nxt] = np.arange(len(nxt))
    o = local.take(before, 0)
    u, w = local - o, local.take(nxt, 0) - o
    return u[:, 0] * w[:, 1] - u[:, 1] * w[:, 0], w


def _turn_tolerances(local, starts, tol):
    """The turn tolerance of each loop starting at starts: tol times the
    loop's extent in the plane coordinates local, or times tol where the
    extent is smaller."""
    spread = np.maximum.reduceat(local, starts) - np.minimum.reduceat(local, starts)
    return tol * np.maximum(np.maximum(spread[:, 0], spread[:, 1]), tol)


#: How far each quantity that a face lattice (`_lattice_polytope`) rests on
#: must clear the tolerance `hull()` tests it against, as a factor.
_LATTICE_MARGIN = 1e3

#: The same for the bound on the tilt and shift of the planes of a facet's
#: triangles (`_lattice_loops`), which is a worst case already, not an
#: estimate: on the one facet seen to split in `hull()`, its triangles'
#: planes differed by a third of that bound.
_LEAN_MARGIN = 4.0

_ULP = float(np.finfo(float).eps)


def _lattice_polytope(pts, faces, log, what):
    """The `Polytope3` on the points pts, in their order, built from its face
    lattice faces = (loops, normals, local): a `_LoopTable` of each facet's
    vertices in turn, counterclockwise about its outward unit normal, from
    any start; those normals; and each loop position's coordinates in the
    plane of its facet's normal (`_plane_coordinates`).  Or None, with one
    debug line on the logger log that names the guard (``"<what> left to
    hull(): <guard>"``), where the lattice is not certain to be what
    `hull(pts)` builds; faces may also be the name of a guard that the
    caller's own tests failed.

    Each loop is turned to start at its lowest point in those plane
    coordinates (`_lowest_positions`), where `_hull3` starts its loops.
    `hull()` builds the same body where it merges, drops and regroups
    nothing.  With tol = EPS * span, its tolerance, and past the caller's
    own guards, the lattice needs: no two facets that share an edge within
    `_LATTICE_MARGIN` times `_hull3`'s merge tolerances of one plane through
    either end of it, in normal and offset both; each loop turn (`_turns`)
    above `_LATTICE_MARGIN` times `_hull3`'s turn tolerance
    (`_turn_tolerances`), which keeps every triangle of a facet's vertices
    above its sliver tolerance too, and keeps out a facet of 1 or 2
    vertices, whose turns are all 0; and no facet's vertices leaning off one
    plane so far that the planes of two of its triangles could differ by
    more than a `_LEAN_MARGIN`-th of those tolerances, which would split it
    in `hull()`.  A value that overflows fails its guard.  `Polytope3` then
    validates the result with all its checks; where it refuses, `hull()`
    decides too, and names its own error."""
    if not isinstance(faces, str):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            faces = _lattice_loops(pts, *faces)
    if not isinstance(faces, str):
        try:
            return Polytope3(pts, faces)
        except DegenerateInput as exc:
            faces = f"the lattice is refused: {exc}"
    log.debug("%s left to hull(): %s", what, faces)
    return None


def _lattice_loops(pts, loops, normals, local):
    """`_lattice_polytope`'s loops, each from its lowest point, as a
    `_LoopTable`; or the name of the guard that fails."""
    tol = EPS * _span(pts)
    flat, sizes, starts, owner = loops.flat, loops.sizes, loops.starts, loops.owner
    heads, tails = flat, flat.take(loops.nxt)
    # the position across each edge, which runs it the other way: where the
    # loops are edge-consistent (else `Polytope3` refuses them), the sorted
    # edges are the sorted reversed edges.  Its facet and this one, both
    # planes through the edge's head: the chord between their normals and
    # the gap between their offsets
    keys, reverse = heads * len(pts) + tails, tails * len(pts) + heads
    order, back = keys.argsort(), reverse.argsort()
    across = np.empty_like(order)
    across[back] = order
    step = normals.take(owner, 0) - normals.take(owner.take(across), 0)
    apart = (_row_norms(step) > _LATTICE_MARGIN * _MERGE_NORMAL_TOL) | (
        np.abs(np.vecdot(step, pts.take(heads, 0))) > _LATTICE_MARGIN * tol
    )
    if not apart.all() and (keys.take(order) == reverse.take(back)).all():
        return "two facets are nearly one plane"
    lowest = _lowest_positions(local, starts, owner).take(owner)
    # position t of a loop of size k at s is read from s + (t + lowest - s) % k
    start = starts.take(owner)
    turn = start + (np.arange(len(flat)) + lowest - 2 * start) % sizes.take(owner)
    loops, local = _LoopTable(flat.take(turn), sizes), local.take(turn, 0)
    # each position's turn against `_hull3`'s tolerance; in a loop of 1 or 2
    # positions every turn is 0
    turns, w = _turns(local, loops.nxt)
    if not (turns > _LATTICE_MARGIN * _turn_tolerances(local, starts, tol).take(owner)).all():
        return "a loop turn is nearly flat"
    # a facet's vertices lie within `lean` of a plane (widened by the
    # rounding of a plane through three of them), and a triangle of them
    # has heights of at least `low`, the least height of a vertex over the
    # chord of its neighbours; so each triangle's plane tilts from that
    # plane by at most `tilt` = 3 lean / low, and moves along its normal by
    # at most lean + big tilt, `big` the largest coordinate
    big = float(np.abs(pts).max())
    heights = np.vecdot(normals.take(owner, 0), pts.take(loops.flat, 0))
    lean = (np.maximum.reduceat(heights, starts) - np.minimum.reduceat(heights, starts)) / 2 + 2 * _ULP * big
    low = np.minimum.reduceat(turns / np.hypot(w[:, 0], w[:, 1]), starts)
    tilt = 3 * lean / low
    if not ((2 * tilt <= _MERGE_NORMAL_TOL / _LEAN_MARGIN) & (2 * (lean + big * tilt) <= tol / _LEAN_MARGIN)).all():
        return "a facet's triangles may not merge"
    return loops


#: The one memory budget: at most this many floats (8 MB) in the
#: temporaries of one row block (`_row_blocks`).
_BLOCK = 1 << 20


def _row_blocks(n, row_size):
    """The slices, in order, that cut n rows into blocks of at most
    ``_BLOCK // row_size`` rows, and of one row at least, for temporaries
    of row_size floats per row.  Every row-blocked temporary in hullkit
    goes through here; no block changes a result."""
    step = max(1, _BLOCK // row_size)
    return [slice(lo, lo + step) for lo in range(0, n, step)]


#: Up to this many rows, `_diameter` pairs every two.
_FEW_POINTS = 32


def _diameter(v):
    """Largest distance between two rows of v.  The squared distances are
    summed one coordinate at a time, in the order that a sum over a last
    axis of length 2 or 3 adds them, so with that sum's rounding.

    Above `_FEW_POINTS` rows, only rows that can reach the largest are
    paired.  With r_i the distance of row i from the centroid, a pair at
    distance D has r_i + r_j >= D.  The farthest row from the centroid and
    its farthest row give a real pair, whose squared distance L² the full
    pass also takes; so every pair at the largest has both rows with
    (r_i + max r)² >= L², which a factor 1 + 1e-12 keeps true through the
    rounding of r.  That holds where L² is a normal double far above
    underflow and finite; elsewhere every row is paired.  The largest
    squared distance is the same number, bit for bit.
    """
    if len(v) > _FEW_POINTS:
        c = v - v.sum(0) / len(v)
        r = np.sqrt((c * c) @ np.ones(v.shape[1]))
        far = r.argmax()
        worst = float(_sq_distances(v, v[far:far + 1]).max())
        reach = float(r[far])
        if 1e-250 <= worst < np.inf and reach < np.inf:
            v = v.compress((r + reach) ** 2 * (1.0 + 1e-12) >= worst, 0)
    best = 0.0
    # rows i are taken in blocks against the rows j >= the block's first;
    # (i, j) and (j, i) give the same bits
    for blk in _row_blocks(len(v), len(v)):
        best = max(best, float(_sq_distances(v[blk], v[blk.start:]).max()))
    return float(np.sqrt(best))


def _sq_distances(a, b):
    """Squared distances of the rows of a to those of b, (len(a), len(b)),
    summed one coordinate at a time."""
    sq = np.zeros((len(a), len(b)))
    for c, r in zip(a.T, b.T):
        d = c[:, None] - r
        d *= d
        sq += d
    return sq


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
        # the merge compares squared distances, and below the smallest normal
        # double they lose their precision or underflow to 0, so distinct
        # points can compare as coincident: a full-rank set that the merge
        # made flat at such a scale has coordinates too small to resolve
        if len(kept) < len(pts) and tol**2 < _TINY and _affine_rank(pts, span) == dim:
            raise DegenerateInput("coordinates too small: squared distances underflow")
        raise DegenerateInput("points are lower-dimensional")
    if dim == 2:
        return Polygon(kept[_hull2_indices(kept)])
    return _hull3(kept, span if len(kept) == len(pts) else _span(kept))


def _hull2_indices(pts):
    """Monotone chain; returns CCW indices of the strictly extreme points.

    The turns are computed on Python floats, which are IEEE doubles like the
    numpy scalars they replace: the same operations in the same order give
    the same bits, without numpy's per-scalar overhead.  A turn counts as
    flat unless it exceeds tol = EPS * span**2 (so a NaN turn is not flat)."""
    order = np.lexsort((pts[:, 1], pts[:, 0])).tolist()
    xs, ys = pts[:, 0].tolist(), pts[:, 1].tolist()
    # EPS * _span(pts) ** 2: max and min are exact, so this is its value;
    # where numpy's square would overflow to inf, Python's raises
    try:
        tol = EPS * max(max(xs) - min(xs), max(ys) - min(ys)) ** 2
    except OverflowError as exc:
        raise DegenerateInput("coordinates too large: squared distances overflow") from exc

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
      edges.  qhull's normals point outward, and so the loops turn outward.

    Apart from the seed search of a component that fails the seed test, no
    step loops in Python over points, triangles or loop positions: the
    groups' components and each position's place along its cycle are found
    by pointer jumping, and the loops go to `Polytope3` as the table
    (`_LoopTable`) they already form.

    ``span`` is the points' largest coordinate extent, `_span(pts)`.
    """
    for _ in range(16):
        qh = ConvexHull(pts)
        flat, crosses = _flat_sliver_vertices(pts, qh, EPS * span)
        if len(flat) == 0:
            break
        log.debug("dropping %d flat hull vertices", len(flat))
        keep = np.ones(len(pts), dtype=bool)
        keep[flat] = False
        pts = pts[keep]
        if len(pts) < 4:
            raise DegenerateInput(
                "hull construction failed: fewer than 4 points left after dropping flat sliver vertices"
            )
    else:
        raise DegenerateInput("hull did not stabilize after sliver removal")

    nv = len(pts)
    simplices, neighbors = qh.simplices, qh.neighbors
    normals = qh.equations[:, :3]
    seeds, group = _coplanar_groups(neighbors, qh.equations, EPS * span)

    # boundary edges tail -> head, keyed and sorted by (group, tail): the
    # edge from corner k of a triangle to corner k + 1 lies opposite corner
    # k + 2, so qhull's neighbors[:, k + 2] lies across it, and turning a
    # triangle counterclockwise about its normal reverses each of its edges
    tail_keys = (group * nv)[:, None] + simplices
    head_keys = tail_keys.take(_NEXT, 1)
    # the sign of a sum over the last axis, which adds from +0.0
    facing = crosses * normals
    turned = (facing[:, 0] + facing[:, 1] + facing[:, 2] < 0)[:, None]
    tail_keys, head_keys = np.where(turned, head_keys, tail_keys), np.where(turned, tail_keys, head_keys)
    edge = (group[neighbors.take(_PREV, 1)] != group[:, None]).ravel()
    keys = tail_keys.ravel()[edge]
    order = keys.argsort()
    keys = keys[order]
    ends = head_keys.ravel()[edge][order]
    # each position's predecessor, the edge that ends where it starts, once
    # the ends match the keys
    hop = ends.argsort()
    # one boundary edge starts and one ends at each (group, vertex)
    if (keys[1:] == keys[:-1]).any() or not (ends[hop] == keys).all():
        raise DegenerateInput("a facet boundary is not a simple cycle")
    owner, tails = np.divmod(keys, nv)
    # every group has a boundary (no plane holds a closed surface), so
    # `counts` has an entry for each
    counts = np.bincount(owner)
    starts = counts.cumsum() - counts
    # row gathers by `take`, several times faster than indexing
    local = _plane_coordinates(normals.take(seeds, 0), owner, pts.take(tails, 0))
    tol = _turn_tolerances(local, starts, EPS * span)[owner]
    lowest = _lowest_positions(local, starts, owner)

    # rank each position by its steps along the cycle from its group's
    # lowest point, by pointer jumping back towards it; a position that
    # does not reach it lies on another cycle of the same boundary
    at = np.arange(len(keys))
    hop[lowest] = lowest
    steps = (hop != at).astype(np.int64)
    for _ in range(int(counts.max()).bit_length()):
        steps += steps[hop]
        hop = hop[hop]
    if (hop != lowest[owner]).any():
        raise DegenerateInput("a facet boundary is not a simple cycle")
    # from here on, every position array runs along the cycles
    path = np.empty_like(at)
    path[starts[owner] + steps] = at
    local, tails, tol = local.take(path, 0), tails[path], tol[path]

    # the turn at each position is taken between the positions before and
    # after it in its cycle, at all positions at once; the positions of
    # dropped vertices are left out
    loops = _LoopTable(tails, counts)
    for _ in range(len(path)):
        corner = np.zeros(nv, dtype=bool)
        corner[tails[_turns(local, loops.nxt)[0] > tol]] = True
        keep = corner[tails]
        if keep.all():
            break
        local, tails, tol = local[keep], tails[keep], tol[keep]
        loops = _LoopTable(tails, np.bincount(loops.owner[keep], minlength=len(seeds)))

    # `corner` marks the vertices left in `tails`: number them in order, in
    # the table whose positions already run along the loops
    loops.flat = (corner.cumsum() - 1)[tails]
    return Polytope3(pts.compress(corner, 0), loops)


def _coplanar_groups(neighbors, planes, offset_tol):
    """Group qhull simplices into facets, as the seed search of `_hull3`.

    ``planes`` are the simplices' rows (n, -b) of qhull's ``equations``.
    Returns ``(seeds, group)``: each group's lowest simplex, ascending, and
    each simplex's group index.  Two members of one group agree with its seed
    within the tolerances, so with each other within twice them.  Only
    neighbour pairs that pass that looser test (with a little slack for
    rounding) can share a group, and a simplex in none is a group alone.
    The components of those pairs are labelled by their lowest simplex
    (`_lowest_labels`).  A component all of whose members agree with that
    lowest simplex is one group; otherwise the seed search runs on that
    component alone.
    """
    index = np.arange(len(neighbors))
    a = index.repeat(neighbors.shape[1])
    b = neighbors.ravel()
    # each neighbour pair once, as (a, b) with a < b
    up = a < b
    a, b = a[up], b[up]
    loose = 2.000001
    pair = _planes_agree(planes, a, b, loose * _MERGE_NORMAL_TOL, loose * offset_tol)
    if not pair.any():
        return index, index
    a, b = a[pair], b[pair]
    label = _lowest_labels(len(index), a, b)
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


def _lowest_labels(n, a, b):
    """The lowest node of each of n nodes' component under the edges (a, b),
    a < b, with no loop over nodes or edges.  Each label is a node of the
    same component and at most the node itself.  Each round hooks every
    root above its edges' lowest root, then points every node at its root
    by pointer jumping.  Once every edge joins two nodes of one label, each
    component holds one label, which its lowest node, labelled at most
    itself, must carry."""
    label = np.arange(n)
    lo, hi = a, b
    for _ in range(n):
        np.minimum.at(label, hi, lo)
        for _ in range(n):
            up = label[label]
            if (up == label).all():
                break
            label = up
        lo, hi = label[a], label[b]
        apart = lo != hi
        if not apart.any():
            break
        lo, hi = np.minimum(lo[apart], hi[apart]), np.maximum(lo[apart], hi[apart])
    return label


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
    d = planes.take(i, 0) - planes.take(j, 0)
    agree = np.abs(d[:, 3]) <= offset_tol
    # the normals only of the few pairs whose offsets agree
    agree[agree] = _row_norms(d.compress(agree, 0)[:, :3]) <= normal_tol
    return agree


def _flat_sliver_vertices(pts, qh, height_tol):
    """Vertices sitting within height_tol of the opposite edge of a hull
    triangle; such points are non-extreme up to tolerance.

    One batch over all simplices: a triangle is flat when twice its area is
    at most height_tol times its longest side, and then the vertex opposite
    that side is returned.  Areas are computed as ``np.linalg.norm`` of one
    cross product would compute them, on the sides divided by 2^e, e the
    exponent of height_tol: that is exact, so no verdict changes where
    nothing under- or overflows, and no square does at any scale.  Returns
    sorted point indices and each triangle's (p1 - p0) x (p2 - p0) / 4^e.
    """
    simplices = qh.simplices
    tri = pts.take(simplices, 0)
    e = math.frexp(height_tol)[1]
    sides = np.ldexp(tri.take(_NEXT, 1) - tri, -e)
    # np.linalg.norm over an axis, without its wrapper: a sum over the last
    # axis adds from +0.0, and the squares are not -0.0
    sq = sides * sides
    lengths = np.sqrt(sq[:, :, 0] + sq[:, :, 1] + sq[:, :, 2])
    # (p0 - p2) x (p1 - p0) is (p1 - p0) x -(p0 - p2), bit for bit
    crosses = _cross(sides[:, 2], sides[:, 0])
    longest = np.maximum(np.maximum(lengths[:, 0], lengths[:, 1]), lengths[:, 2])
    flat = (_row_norms(crosses) <= math.ldexp(height_tol, -e) * longest).nonzero()[0]
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


class _named:
    """Context that re-raises a DegenerateInput raised inside it as
    "name: message".  A body built from another body's data has its own
    coordinate range, so its errors name it; each is built in one such
    context, and a message carries one name."""

    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        if isinstance(exc, DegenerateInput):
            raise DegenerateInput(f"{self.name}: {exc}") from exc


def _polar_points(body):
    """The points n/b of the body's facet planes (n, b), whose hull is the
    polar body; requires the origin strictly interior."""
    if np.min(body.facet_offsets) <= EPS * body.diameter:
        raise OriginNotInterior("polar requires the origin strictly inside the body")
    return body.facet_normals / body.facet_offsets[:, None]


def polar(body):
    """Polar dual: each facet plane (n, b) maps to the vertex n/b.

    Requires the origin strictly interior.  Applying polar twice reproduces
    the original body up to tolerance.
    """
    with _named("polar body"):
        return hull(_polar_points(body))


def minkowski_sum(a, b):
    """Minkowski sum of two convex bodies of equal dimension."""
    if a.dim != b.dim:
        raise DimensionMismatch("minkowski_sum needs bodies of equal dimension")
    with _named("Minkowski sum"):
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
    with _named("difference body"):
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
    """(n-1)-volume of the shadow of the body on the hyperplane normal to u, by
    Cauchy's formula: half the sum of |<u, n_F>| * area(F) over facets (edges in 2D)."""
    u = _check_unit(_as_vectors(u, body.dim))
    return 0.5 * float(np.sum(np.abs(body.facet_normals @ u) * body.facet_areas))


def brightness_many(body, dirs):
    """Vectorized brightness over an array of unit directions."""
    dirs = _as_vectors(dirs, body.dim)
    return 0.5 * np.abs(dirs @ body.facet_normals.T) @ body.facet_areas


def shadow_area(body, u):
    """Brightness computed the slow way: hull of the projected vertices.

    Kept separate from :func:`brightness` as an independent cross-check.
    """
    u = _check_unit(_as_vectors(u, body.dim))
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
    # Hadamard: |det A| <= the product of A's row norms, so their ratio is
    # scale-free; rows scaled by powers of two keep it and cannot overflow
    unit = np.ldexp(mat, -np.frexp(np.max(np.abs(mat), axis=1))[1][:, None])
    det = np.linalg.det(unit)
    if abs(det) <= 1e-12 * np.prod(_row_norms(unit)):
        raise SingularMatrix("affine map must be invertible")
    shift = np.zeros(body.dim) if shift is None else _as_vectors(shift, body.dim)
    return body._mapped(body.vertices @ mat.T + shift, negated=det < 0)


# ---------------------------------------------------------------------------
# distances


def point_body_distances(X, body):
    """Euclidean distances from the rows of X to a convex body (0 inside).

    Each is the least distance to a piece of the boundary: to the edges of
    the body's boundary loops (`_LoopTable`) and, in 3D, to each facet
    whose plane holds the foot of the perpendicular inside the facet's
    edges, with that facet's edges left out.  Each value equals, bit for
    bit, that of a loop over the facets for one point: the containment
    pre-test is a stacked (1, d) @ (d, F) product and the slacks stacked
    (1, 3) @ (3, 1) products, which round as one point's products do, and
    the sums over a last axis round as one facet's.  Points go in row
    blocks (`_row_blocks`).
    """
    X = np.ascontiguousarray(_as_points(X, dim=body.dim))
    normals, offsets = body.facet_normals, body.facet_offsets
    loops = body._loops
    flat, starts, owner, nxt = loops.flat, loops.starts, loops.owner, loops.nxt
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
    for blk in _row_blocks(len(X), 4 * len(flat) * body.dim):
        x = X[blk]
        # `not contains(x, tol=0.0)`, so a NaN slack counts as outside
        outside = ~(((x[:, None, :] @ normals.T)[:, 0] - offsets).max(1) <= 0.0)
        out[blk][outside] = outside_distances(x[outside][:, None, :])
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
