"""Sideline intersection combinatorics of convex polygons.

Sides are indexed counterclockwise with S_i = [v_i, v_{i+1}] and L_i the full
line through S_i; all index arithmetic is mod m.  The (k, l)-extension is the
closed cycle of segments joining consecutive intersection points
p[j-k-1, j+l]; with (k, l) = (0, 0) it degenerates to the boundary itself,
which pins the index convention.

``extension_homothety_check`` verifies the specific side correspondence that
makes an extension a homothetic copy of the boundary: side S_i must map to
the segment [p[i-s-1, i+s], p[i-s, i+s+1]] with s = (k+l)/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bodies import Polygon, _diameter, _successors
from .errors import ConditionViolated, MissingIntersection, SingularMatrix
from .hullfun import point_hull_values
from .illumination import homothety_from_pairs
from .sampling import regular_polygon

#: Sidelines with |sin angle| below this are treated as parallel.
PARALLEL_TOL = 1e-9


@dataclass(frozen=True)
class ExtensionCurve:
    """Ordered vertex cycle of a (k, l)-extension; segment j joins vertex j
    to vertex j+1 (mod m)."""

    k: int
    l: int
    vertices: np.ndarray


@dataclass(frozen=True)
class RegularityReport:
    """Verdict of the three-term affine-regularity criterion."""

    is_affinely_regular: bool
    tau: float
    max_residual: float


class SidelineTable:
    """All pairwise sideline intersection points of a polygon.

    Entries are indexed mod m; parallel sidelines have no entry.  The entry
    (i, i+1) is the shared polygon vertex v_{i+1}, stored exactly.
    """

    def __init__(self, polygon):
        v = polygon.vertices
        m = len(v)
        self.m = m
        pts = np.full((m, m, 2), np.nan)
        ids, nbr = np.arange(m), _successors(m)
        pts[ids, nbr] = pts[nbr, ids] = v[nbr]
        # non-adjacent pairs i < j (0 and m - 1 are adjacent around the wrap)
        i, j = np.triu_indices(m, 2)
        i, j = i[j - i < m - 1], j[j - i < m - 1]
        pts[i, j] = pts[j, i] = _meets(v, i, j)
        self.points = pts
        self.points.flags.writeable = False

    def point(self, i, j):
        return self.gather([i], [j])[0]

    def gather(self, i, j):
        """The entries p[i[t], j[t]] (indices mod m) as one (len(i), 2)
        array.  Raises MissingIntersection naming the first pair without a
        point, as reading the pairs one at a time would."""
        i, j = np.asarray(i) % self.m, np.asarray(j) % self.m
        return _present(self.points[i, j], i, j)


def _meets(v, i, j):
    """The points L_i cap L_j of the side pairs i < j, none adjacent, as
    (len(i), 2) rows; NaN where the sidelines are parallel.  Each point is
    computed on its own, so a subset of pairs gives the same bits as the
    whole table."""
    dirs = v[_successors(len(v))] - v
    lengths = np.linalg.norm(dirs, axis=1)
    cross = dirs[i, 0] * dirs[j, 1] - dirs[i, 1] * dirs[j, 0]
    meet = ~(np.abs(cross) <= PARALLEL_TOL * lengths[i] * lengths[j])
    i, j, cross = i[meet], j[meet], cross[meet]
    rhs = v[j] - v[i]
    s = (rhs[:, 0] * dirs[j, 1] - rhs[:, 1] * dirs[j, 0]) / cross
    pts = np.full((len(meet), 2), np.nan)
    pts[meet] = v[i] + s[:, None] * dirs[i]
    return pts


def _present(pts, i, j):
    """pts, the points of the side pairs (i[t], j[t]); raises
    MissingIntersection naming the first pair without a point."""
    missing = ~np.isfinite(pts).all(axis=1)
    if missing.any():
        t = int(missing.argmax())
        raise MissingIntersection(f"sidelines {i[t]} and {j[t]} do not meet in a point")
    return pts


def sideline_intersections(polygon):
    """Table of all sideline intersection points p[i, j] = L_i cap L_j."""
    return SidelineTable(polygon)


def kl_extension(polygon, k, l):
    """The (k, l)-extension: the closed cycle with vertices p[j-k-1, j+l].

    Raises MissingIntersection when a required sideline pair is parallel.
    """
    k, l = int(k), int(l)
    if k < 0 or l < 0:
        raise ConditionViolated("k and l must be non-negative")
    table = SidelineTable(polygon)
    j = np.arange(table.m)
    verts = table.gather(j - k - 1, j + l)
    return ExtensionCurve(k=k, l=l, vertices=verts)


def admissible_extension_pairs(m):
    """All (k, l) with k, l >= 1, k + l even and k + l + 1 < m/2."""
    out = []
    for k in range(1, m):
        for l in range(1, m):
            if (k + l) % 2 == 0 and 2 * (k + l + 1) < m:
                out.append((k, l))
    return out


def extension_homothety_check(polygon, k, l):
    """Fit the homothety bd(P) -> (k, l)-extension with the required side
    correspondence, and measure how level-like the extension is.

    Returns (HomothetyReport, level_residual) where level_residual is the
    max relative deviation of the point-hull volume over the extension's
    vertices from their mean.  Requires k + l even and k + l + 1 < m/2.
    """
    k, l = int(k), int(l)
    m = len(polygon)
    if k < 1 or l < 1 or (k + l) % 2 != 0:
        raise ConditionViolated("need k, l >= 1 with k + l even")
    if 2 * (k + l + 1) >= m:
        raise ConditionViolated(f"need k + l + 1 < m/2 = {m / 2}")
    s = (k + l) // 2
    v = polygon.vertices
    # polygon vertex v_t = p[t-1, t] maps to p[t-1-s, t+s]; these sides are
    # never adjacent, and only these m table entries are needed
    t = np.arange(m)
    i, j = (t - 1 - s) % m, (t + s) % m
    images = _present(_meets(v, np.minimum(i, j), np.maximum(i, j)), i, j)
    diam = _diameter(images)
    report = homothety_from_pairs(v, images, diam)
    g = point_hull_values(polygon, images)
    gmean = float(np.mean(g))
    level_residual = float(np.max(np.abs(g - gmean))) / gmean
    return report, level_residual


def is_affinely_regular(polygon):
    """Test q_{i+2} - q_{i-1} = tau (q_{i+1} - q_i) with a single fitted tau.

    tau is the least-squares ratio; the verdict uses the sup residual
    relative to the polygon diameter, so one displaced vertex fails it.
    """
    q = polygon.vertices
    long_diag = np.roll(q, -2, axis=0) - np.roll(q, 1, axis=0)
    edge = np.roll(q, -1, axis=0) - q
    tau = float(np.sum(long_diag * edge) / np.sum(edge * edge))
    residual = float(np.max(np.linalg.norm(long_diag - tau * edge, axis=1)))
    return RegularityReport(
        is_affinely_regular=bool(residual < 1e-6 * polygon.diameter),
        tau=tau,
        max_residual=residual,
    )


def affinely_regular_polygon(m, mat, shift=None):
    """Affine image of the regular m-gon under x -> mat @ x + shift."""
    if m < 3:
        raise ConditionViolated("need m >= 3")
    base = regular_polygon(m)
    mat = np.asarray(mat, dtype=float)
    if mat.shape != (2, 2):
        raise SingularMatrix("affine matrix must be 2x2")
    if abs(np.linalg.det(mat)) < 1e-12:
        raise SingularMatrix("affine map must be invertible")
    shift = np.zeros(2) if shift is None else np.asarray(shift, dtype=float)
    return Polygon(base.vertices @ mat.T + shift)
