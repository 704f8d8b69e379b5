"""Illumination bodies of polytopes, exactly, plus homothety fitting.

The point-hull volume of a polytope is piecewise linear and convex, so its
sublevel sets (the illumination bodies) are again polytopes and can be built
exactly.  Every vertex of a level set lies on a line cut out by dim - 1 facet
hyperplanes (`_facet_lines`): a sideline in 2D, the intersection line of two
facet planes in 3D.  Restricted to such a line the function is a
one-variable piecewise-linear convex function, which meets the level in at
most two points; hulling the solutions over all lines yields the exact level
set, in either dimension.

One batched kernel (`_level_crossings`) solves all lines of a body at once,
in whole-array steps, and returns exactly the numbers a solve of each line
on its own would give.

``ray_level_solve`` solves the same equation on one ray from the origin,
and `_ray_level_solves` on many at once, in one kernel call; they double as
the boundary oracle in the tests and in acceptance criterion 5.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .bodies import EPS, Body, _cross, _dedup_points, _row_norms, _successors, hull
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


def _level_crossings(body, x0, d, level):
    """Every s with vol conv(body, {x0[l] + s d[l]}) == level, over a batch
    of lines (the rows of x0 and d).

    Returns ``(lines, s)``: each crossing's line index and parameter, listed
    line by line, the left crossing before the right one.  A line meets the
    level in two points, in one where it is tangent to the level set, or not
    at all.  Lines are solved in blocks of about 2**18 / F**2 (F facets), so
    the (lines, breakpoints, facets) slack of `point_hull_values` stays near
    2 MB however many facets the body has.
    """
    step = max(1, 2**18 // len(body.facet_offsets) ** 2)
    lines, s = [], []
    for lo in range(0, len(x0), step):
        blk_lines, blk_s = _block_crossings(body, x0[lo : lo + step], d[lo : lo + step], level)
        lines.append(blk_lines + lo)
        s.append(blk_s)
    return np.concatenate(lines), np.concatenate(s)


def _block_crossings(body, x0, d, level):
    """`_level_crossings` on one block of lines, in whole-array steps.

    The restriction g(s) of a line is piecewise linear, convex and coercive,
    so its minimum is attained at a plane-crossing breakpoint.  Each crossing
    lies on the piece from the breakpoint nearest the minimum at or above
    the level back to its neighbour, and linear interpolation solves it
    exactly; beyond the outermost breakpoint a probe gives the slope.  Every
    value is computed with the operations, in the order, that a solve of the
    line on its own would use, so results do not depend on the batching:

    * row products ``(F, dim) @ (dim, 1)`` round as ``N @ d`` does for one
      line, and breakpoints are sorted per row with repeats dropped, as
      ``np.unique`` leaves them;
    * `point_hull_values` runs on ``(lines, k, dim)`` stacks of lines with k
      breakpoints each (and ``(lines, 1, dim)`` for probes), which round as
      the ``(k, dim)`` call of one line; one flat call does not.
    """
    nl, nf = len(x0), len(body.facet_offsets)
    normals = body.facet_normals[None]
    den = (normals @ d[:, :, None])[:, :, 0]
    num = body.facet_offsets - (normals @ x0[:, :, None])[:, :, 0]
    mag = np.abs(den)
    crosses = mag > 1e-14 * mag.max(axis=1, keepdims=True)
    breaks = np.divide(num, den, out=np.full((nl, nf), np.inf), where=crosses)
    breaks.sort(axis=1)
    col = np.arange(nf)
    kept = col < crosses.sum(axis=1)[:, None]
    kept[:, 1:] &= breaks[:, 1:] != breaks[:, :-1]
    count = kept.sum(axis=1)
    if (kept[:, 1:] > kept[:, :-1]).any():
        # a repeat was dropped inside a row: move the kept breakpoints up front
        breaks = np.take_along_axis(breaks, np.argsort(~kept, axis=1, kind="stable"), axis=1)

    # lines without breakpoints keep +inf values: above the level, no crossing
    vals = np.full((nl, nf), np.inf)
    most = int(count.max())
    if count.min() == most:
        groups = [(most, slice(None))] if most else []
    else:
        groups = [(k, np.nonzero(count == k)[0]) for k in np.unique(count[count > 0]).tolist()]
    for k, rows in groups:
        vals[rows, :k] = point_hull_values(body, x0[rows, None, :] + breaks[rows, :k, None] * d[rows, None, :])
    rows = np.arange(nl)
    low = vals.argmin(axis=1)
    vmin = vals[rows, low]
    pair = np.empty((nl, 2))
    pair[:, 0] = pair[:, 1] = breaks[rows, low]
    # tangency: the whole line sits on or above the level
    tangent = vmin >= level
    pick = np.empty((nl, 2), dtype=bool)
    pick[:, 1] = ~tangent
    pick[:, 0] = (tangent & (vmin <= level * (1 + 1e-12))) | pick[:, 1]

    # every other line crosses twice, between j, the breakpoint nearest its
    # minimum at or above the level on either side, and its neighbour i
    r = np.nonzero(pick[:, 1])[0]
    if len(r) < nl:
        vals, breaks, count, low = vals[r], breaks[r], count[r], low[r]
    above = (vals >= level) & (col < count[:, None])
    left = col < low[:, None]
    j = np.empty((len(r), 2), dtype=np.intp)
    j[:, 0] = np.where(above & left, col, -1).max(axis=1)
    j[:, 1] = np.where(above & ~left, col, nf).min(axis=1)
    beyond = (j < 0) | (j == nf)
    i = j + [1, -1]
    out, side = np.nonzero(beyond)
    i[out, side] = np.where(side == 0, 0, count[out] - 1)
    j[out, side] = i[out, side]
    rows = np.arange(len(r))[:, None]
    bi, vi, bj, vj = breaks[rows, i], vals[rows, i], breaks[rows, j], vals[rows, j]
    with np.errstate(divide="ignore", invalid="ignore"):
        s = bi + (level - vi) * (bj - bi) / (vj - vi)
    # beyond the outermost breakpoint g is one linear piece; a probe one
    # breakpoint span further out gives its slope
    span = breaks[out, count[out] - 1] - breaks[out, 0]
    span[span == 0] = 1.0
    step = np.where(side == 0, -1.0, 1.0)
    s_end, g_end = bi[out, side], vi[out, side]
    probe = s_end + step * span
    far = r[out]
    g_probe = point_hull_values(body, (x0[far] + probe[:, None] * d[far])[:, None, :])[:, 0]
    slope = (g_probe - g_end) / (probe - s_end)
    if (slope * step <= 0).any():
        raise GeometryError("level crossing not found; body may be unbounded along the line")
    # a level far beyond a tiny body overflows here; hull() then names it
    with np.errstate(over="ignore"):
        s[out, side] = s_end + (level - g_end) / slope
    pair[r] = s
    return np.nonzero(pick)[0], pair[pick]


def ray_level_solve(body, u, level):
    """The unique tau > 0 with vol conv(body, {tau * u}) == level.

    Requires level > volume(body) and the origin inside the queried sublevel
    set (guaranteed when the origin is in the body).
    """
    return float(_ray_level_solves(body, np.asarray(u, dtype=float)[None], level)[0])


def _ray_level_solves(body, dirs, level):
    """`ray_level_solve` for every row of dirs, from one `_level_crossings`
    call over the rays from the origin: each ray's largest positive
    crossing, equal to the value a solve of the ray on its own gives."""
    if level <= body.volume:
        raise LevelBelowVolume("level must exceed the body volume")
    dirs = np.asarray(dirs, dtype=float)
    origin = np.zeros(body.dim)
    g0 = float(point_hull_values(body, origin[None, :])[0])
    if g0 >= level:
        raise GeometryError("ray base point lies outside the queried sublevel set")
    lines, s = _level_crossings(body, np.zeros_like(dirs), dirs, level)
    ahead = s > 0
    tau = np.full(len(dirs), -np.inf)
    np.maximum.at(tau, lines[ahead], s[ahead])
    if np.any(tau == -np.inf):
        raise GeometryError("no positive crossing found")
    return tau


# ---------------------------------------------------------------------------
# exact illumination bodies


def illumination_body(body, delta):
    """Exact illumination body of a polygon or a 3-polytope as a LevelSet.

    Solves the level equation on every facet line (`_facet_lines`); the
    solutions include every vertex of the result, and hulling them discards
    the rest (in 2D every sideline solution is a corner of the level curve).
    """
    level = _level(body, delta)
    x0, d = _facet_lines(body)
    lines, s = _level_crossings(body, x0, d, level)
    pts = _merged(x0[lines] + s[:, None] * d[lines], EPS * body.diameter)
    return LevelSet(body=hull(pts), level=level, delta=float(delta))


#: The same construction under the names of its two dimensions.
illumination_body_2d = illumination_body_3d = illumination_body


def _facet_lines(body):
    """Lines ``(x0, d)`` (one per row) cut out by dim - 1 facet hyperplanes.

    2D: the sidelines, x0 = v_i and d = v_{i+1} - v_i.  3D: for each pair of
    facets i < j, in row-major order, the line where their planes meet, with
    d = unit(n_i x n_j) and x0 its point with <x0, d> = 0; parallel plane
    pairs meet in no line and are skipped.
    """
    if body.dim == 2:
        v = body.vertices
        return v, v[_successors(len(v))] - v
    normals, offsets = body.facet_normals, body.facet_offsets
    i, j = np.triu_indices(len(normals), 1)
    d = _cross(normals[i], normals[j])
    nrm = _row_norms(d)
    meet = nrm > EPS
    i, j, d = i[meet], j[meet], d[meet] / nrm[meet, None]
    mat = np.stack((normals[i], normals[j], d), axis=1)
    rhs = np.column_stack((offsets[i], offsets[j], np.zeros(len(i))))
    return np.linalg.solve(mat, rhs[:, :, None])[:, :, 0], d


def _level(body, delta):
    """The level vol(K) + delta of an illumination body, for finite delta > 0."""
    if not (np.isfinite(delta) and delta > 0):
        raise NonPositiveDelta("delta must be finite and positive")
    return body.volume + float(delta)


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
