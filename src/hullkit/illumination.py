"""Illumination bodies of polytopes, exactly, plus homothety fitting.

The point-hull volume of a polytope is piecewise linear and convex, so its
sublevel sets (the illumination bodies) are again polytopes and can be built
exactly:

* 2D: every vertex of the level set lies on a sideline of the polygon, and
  each sideline meets the level boundary in at most two points.  Solving the
  restricted one-variable piecewise-linear equation per sideline and hulling
  the solutions yields the exact level-set polygon.
* 3D: every vertex of the level set lies on an intersection line of two facet
  planes; the same one-variable solve applies per line pair.

``ray_level_solve`` walks the breakpoints of the restriction along a ray and
solves the crossing piece in closed form; it doubles as the independent
boundary oracle in the tests.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .bodies import EPS, Body, _dedup_points, hull
from .errors import (
    DimensionMismatch,
    GeometryError,
    LevelBelowVolume,
    NonPositiveDelta,
)
from .hullfun import point_hull_values
from .sampling import direction_set

log = logging.getLogger(__name__)

#: Defect threshold below which a fit counts as an exact positive homothety.
HOMOTHETY_TOL = 1e-6

_FIT_DIRS = {2: 720, 3: 1024}


@dataclass(frozen=True)
class LevelSet:
    """A sublevel set {x : vol conv(P, {x}) <= level} as an exact polytope."""

    body: Body
    level: float
    delta: float


@dataclass(frozen=True)
class HomothetyReport:
    """Best-fit positive homothety Q ~ ratio * P + translation.

    ``defect`` is the sup-norm deviation of the fit normalized by Q's
    diameter; ``is_homothet`` holds when it is below HOMOTHETY_TOL.  The
    homothety ``center`` is translation / (1 - ratio); for ratio ~ 1 (a pure
    translation) it is ill-defined and reported as the origin.
    """

    is_homothet: bool
    ratio: float
    center: np.ndarray
    translation: np.ndarray
    defect: float


# ---------------------------------------------------------------------------
# piecewise-linear solves along lines


def _line_crossings(body, x0, d, level):
    """All s with vol conv(body, {x0 + s d}) == level (0, 1 or 2 values).

    The restriction g(s) is piecewise linear, convex and coercive, so its
    minimum over the line is attained at a plane-crossing breakpoint; the
    crossing pieces are solved by exact linear interpolation.
    """
    x0 = np.asarray(x0, dtype=float)
    d = np.asarray(d, dtype=float)
    den = body.facet_normals @ d
    num = body.facet_offsets - body.facet_normals @ x0
    mask = np.abs(den) > 1e-14 * np.max(np.abs(den))
    if not np.any(mask):
        return []
    breaks = np.unique(num[mask] / den[mask])
    vals = point_hull_values(body, x0 + breaks[:, None] * d)
    imin = int(np.argmin(vals))
    if vals[imin] >= level:
        # tangency: the whole line sits on or above the level
        if vals[imin] <= level * (1 + 1e-12):
            return [float(breaks[imin])]
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
        # beyond the last breakpoint the function is a single linear piece
        s_end = float(breaks[i])
        probe = s_end + step * span
        g_end = float(vals[i])
        g_probe = float(point_hull_values(body, (x0 + probe * d)[None, :])[0])
        slope = (g_probe - g_end) / (probe - s_end)
        if slope * step <= 0:
            raise GeometryError("level crossing not found; body may be unbounded along the line")
        return s_end + (level - g_end) / slope

    return [solve(imin, -1), solve(imin, +1)]


def ray_level_solve(body, u, level):
    """The unique tau > 0 with vol conv(body, {tau * u}) == level.

    Requires level > volume(body) and the origin inside the queried sublevel
    set (guaranteed when the origin is in the body).
    """
    if level <= body.volume:
        raise LevelBelowVolume("level must exceed the body volume")
    u = np.asarray(u, dtype=float)
    origin = np.zeros(body.dim)
    g0 = float(point_hull_values(body, origin[None, :])[0])
    if g0 >= level:
        raise GeometryError("ray base point lies outside the queried sublevel set")
    crossings = [s for s in _line_crossings(body, origin, u, level) if s > 0]
    if not crossings:
        raise GeometryError("no positive crossing found")
    return max(crossings)


# ---------------------------------------------------------------------------
# exact illumination bodies


def illumination_body_2d(polygon, delta):
    """Exact illumination body of a polygon as a LevelSet.

    Solves the level equation on every sideline; the solution set is exactly
    the vertex set of the result (sideline points of the boundary are always
    corners of the level curve).
    """
    level = _level(polygon, delta)
    v = polygon.vertices
    candidates = []
    for i in range(len(v)):
        x0 = v[i]
        d = v[(i + 1) % len(v)] - v[i]
        candidates.extend(x0 + s * d for s in _line_crossings(polygon, x0, d, level))
    pts = _merged(np.array(candidates), EPS * polygon.diameter)
    return LevelSet(body=hull(pts), level=level, delta=float(delta))


def illumination_body_3d(polytope, delta):
    """Exact illumination body of a 3-polytope as a LevelSet.

    Candidate vertices are the level solutions on every intersection line of
    two facet planes; parallel plane pairs contribute no line and are skipped.
    Hulling the candidates discards the non-extreme ones.
    """
    level = _level(polytope, delta)
    normals = polytope.facet_normals
    offsets = polytope.facet_offsets
    nf = len(normals)
    candidates = []
    for i in range(nf):
        for j in range(i + 1, nf):
            d = np.cross(normals[i], normals[j])
            nrm = np.linalg.norm(d)
            if nrm <= EPS:
                continue  # parallel planes: no line
            d /= nrm
            mat = np.vstack((normals[i], normals[j], d))
            x0 = np.linalg.solve(mat, np.array([offsets[i], offsets[j], 0.0]))
            candidates.extend(x0 + s * d for s in _line_crossings(polytope, x0, d, level))
    pts = _merged(np.array(candidates), EPS * polytope.diameter)
    return LevelSet(body=hull(pts), level=level, delta=float(delta))


def _level(body, delta):
    """The level vol(K) + delta of an illumination body, for finite delta > 0."""
    if not (np.isfinite(delta) and delta > 0):
        raise NonPositiveDelta("delta must be finite and positive")
    return body.volume + float(delta)


def illumination_body(body, delta):
    """Dimension dispatch for the exact illumination-body constructions."""
    if body.dim == 2:
        return illumination_body_2d(body, delta)
    return illumination_body_3d(body, delta)


def _merged(pts, tol):
    """Merge candidate points within tol (triple-plane coincidences produce
    duplicate roots); log when a merge actually collapses anything."""
    if len(pts) == 0:
        raise GeometryError("no level-set candidates found")
    out = _dedup_points(pts, tol)
    if len(out) < len(pts):
        log.debug("merged %d coincident level-set candidates", len(pts) - len(out))
    return out


# ---------------------------------------------------------------------------
# homothety fitting


def homothety_fit(p, q):
    """Least-squares positive homothety q ~ mu * p + c from support samples.

    The fit minimizes sum over a fixed deterministic direction set of
    (h_q(u) - mu h_p(u) - <c, u>)^2; the reported defect is the sup deviation
    over the same directions, normalized by diam(q), so pass/fail is uniform
    rather than on-average.
    """
    if p.dim != q.dim:
        raise DimensionMismatch("homothety_fit needs bodies of equal dimension")
    dirs = direction_set(p.dim, _FIT_DIRS[p.dim])
    hp = p.support_many(dirs)
    hq = q.support_many(dirs)
    design = np.column_stack((hp, dirs))
    coef, *_ = np.linalg.lstsq(design, hq, rcond=None)
    mu, c = float(coef[0]), coef[1:]
    if mu <= 0:
        # best positive ratio degenerates to the boundary; refit the shift only
        mu = 1e-12
        c, *_ = np.linalg.lstsq(dirs, hq - mu * hp, rcond=None)
    residual = hq - mu * hp - dirs @ c
    defect = float(np.max(np.abs(residual))) / q.diameter
    return _report(mu, c, defect)


def homothety_from_pairs(src, dst, diameter):
    """Positive homothety fitted on matched point pairs dst ~ mu * src + c.

    Used where a specific correspondence must hold (extension curves); the
    defect is the sup vertex deviation normalized by the given diameter.
    """
    src = np.asarray(src, dtype=float)
    dst = np.asarray(dst, dtype=float)
    sc, dc = src.mean(axis=0), dst.mean(axis=0)
    den = float(np.sum((src - sc) ** 2))
    mu = float(np.sum((src - sc) * (dst - dc)) / den) if den > 0 else 1.0
    if mu <= 0:
        mu = 1e-12
    c = dc - mu * sc
    defect = float(np.max(np.linalg.norm(dst - mu * src - c, axis=1))) / diameter
    return _report(mu, c, defect)


def _report(mu, c, defect):
    if abs(1.0 - mu) > 1e-12:
        center = c / (1.0 - mu)
    else:
        center = np.zeros_like(c)
    return HomothetyReport(
        is_homothet=bool(defect < HOMOTHETY_TOL),
        ratio=mu,
        center=center,
        translation=np.asarray(c, dtype=float),
        defect=defect,
    )
