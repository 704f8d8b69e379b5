"""Illumination bodies of polytopes, exactly, plus homothety fitting.

The point-hull volume of a polytope is piecewise linear and convex, so its
sublevel sets (the illumination bodies) are again polytopes and can be built
exactly.  Every vertex of a level set lies on a line cut out by dim - 1 facet
hyperplanes (`_facet_lines`): a sideline in 2D, the intersection line of two
facet planes in 3D.  Restricted to such a line the function is a
one-variable piecewise-linear convex function, which meets the level in at
most two points.  In 2D the solutions over all lines are hulled.  In 3D the
function is affine on each set S of facets that a point sees, and each
solution on the line of facet planes i and j is a vertex of the four facets
of the level set whose visible sets are S0, S0 + i, S0 + i + j and S0 + j;
so the level set is built from that face lattice (`_lattice_body`), with no
hull.  Its facets are `_distinct_rows` of the visible sets, and
`bodies._lattice_polytope`, which the projection body's zonotope shares,
starts their loops, tests them and builds the `Polytope3`.  Where the
lattice is not certain to be what `hull()` would build (coincident or
tangent solutions, a solution near a third facet plane, or turns and planes
near `hull()`'s tolerances), the solutions are hulled as in 2D.

One batched kernel (`_level_crossings`) solves all lines of a body at once,
in whole-array steps, and returns exactly the numbers a solve of each line
on its own would give.  It evaluates the function only at the breakpoints;
the slope beyond the last one comes from the facet areas and normals, so a
solve does not depend on the body's scale.

``ray_level_solve`` solves the same equation on one ray from the origin,
and `_ray_level_solves` on many at once, in one kernel call; they double as
the boundary oracle in the tests and in acceptance criterion 5.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .bodies import (
    EPS,
    _LATTICE_MARGIN,
    Body,
    _LoopTable,
    _as_vectors,
    _cross,
    _dedup_points,
    _distinct_rows,
    _lattice_polytope,
    _named,
    _pairs,
    _plane_coordinates,
    _row_blocks,
    _row_max,
    _row_norms,
    _span,
    _successors,
    hull,
)
from .errors import (
    DegenerateInput,
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
    at all.  Lines are solved in row blocks (`_row_blocks`) counted at
    4 F² doubles a line (F facets), so that a block's (lines, breakpoints,
    facets) slack in `point_hull_values` is a quarter of the budget however
    many facets the body has.
    """
    lines, s = [], []
    for blk in _row_blocks(len(x0), 4 * len(body.facet_offsets) ** 2):
        blk_lines, blk_s = _block_crossings(body, x0[blk], d[blk], level)
        lines.append(blk_lines + blk.start)
        s.append(blk_s)
    return np.concatenate(lines), np.concatenate(s)


def _block_crossings(body, x0, d, level):
    """`_level_crossings` on one block of lines, in whole-array steps.

    The restriction g(s) of a line is piecewise linear, convex and coercive,
    so its minimum is attained at a plane-crossing breakpoint.  Each crossing
    lies on the piece from the breakpoint nearest the minimum at or above
    the level back to its neighbour, and linear interpolation solves it
    exactly.  Beyond the outermost breakpoint g is one linear piece, whose
    slope (1/n) sum_F area(F) max(+-<n_F, d>, 0) comes from the facets.
    Coinciding breakpoints stay in their row: interpolating between equal
    abscissae is exact, and ``argmin`` takes the first.  Every value is
    computed with the operations, in the order, that a solve of the line on
    its own would use, so results do not depend on the batching:

    * row products ``(F, dim) @ (dim, 1)`` round as ``N @ d`` does for one
      line, the breakpoints are sorted per row, and ``np.vecdot`` takes one
      dot per row for the outer slopes;
    * `point_hull_values` runs on ``(lines, k, dim)`` stacks of lines with k
      breakpoints each, which round as the ``(k, dim)`` call of one line;
      one flat call does not.
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
    count = crosses.sum(axis=1)

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
    # beyond the outermost breakpoint g is one linear piece: the facets that
    # face along the step are visible, each adding area(F) <n_F, step d> / n
    step = np.where(side == 0, -1.0, 1.0)
    s_end, g_end = bi[out, side], vi[out, side]
    slope = step * np.vecdot(np.maximum(step[:, None] * den[r[out]], 0.0), body.facet_areas) / body.dim
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
    return float(_ray_level_solves(body, _as_vectors(u, body.dim)[None], level)[0])


def _ray_level_solves(body, dirs, level):
    """`ray_level_solve` for every row of dirs, from one `_level_crossings`
    call over the rays from the origin: each ray's largest positive
    crossing, equal to the value a solve of the ray on its own gives."""
    if level <= body.volume:
        raise LevelBelowVolume("level must exceed the body volume")
    dirs = np.asarray(dirs, dtype=float)
    g0 = float(point_hull_values(body, np.zeros(body.dim))[0])
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
    solutions include every vertex of the result.  A 3D level set is built
    from its face lattice where that is certain to be what `hull()` builds
    (`_lattice_body`).  Otherwise, and in 2D, the solutions are hulled,
    which discards the rest (in 2D every sideline solution is a corner of
    the level curve).
    """
    if not (np.isfinite(delta) and delta > 0):
        raise NonPositiveDelta("delta must be finite and positive")
    level = body.volume + float(delta)
    x0, d, facets = _facet_lines(body)
    lines, s = _level_crossings(body, x0, d, level)
    if len(lines) == 0:
        raise GeometryError("no level-set candidates found")
    with _named("illumination body"):
        # inf crossings times zero direction components are NaN; the merge names the overflow
        with np.errstate(over="ignore", invalid="ignore"):
            pts = x0[lines] + s[:, None] * d[lines]
        # merge candidates within tol: triple-plane coincidences give duplicate roots
        merged = _dedup_points(pts, EPS * body.diameter)
        built = None
        if len(merged) < len(pts):
            log.debug("merged %d coincident level-set candidates", len(pts) - len(merged))
        elif body.dim == 3:
            built = _lattice_body(body, pts, lines, facets[lines])
        return LevelSet(body=hull(merged) if built is None else built, level=level, delta=float(delta))


#: The same construction under the names of its two dimensions.
illumination_body_2d = illumination_body_3d = illumination_body


def _facet_lines(body):
    """Lines ``(x0, d)`` (one per row) cut out by dim - 1 facet hyperplanes,
    and the indices of those facets, a row of dim - 1 per line.

    2D: the sidelines, x0 = v_i and d = v_{i+1} - v_i, of facet i.  3D: for
    each pair of facets i < j, in row-major order, the line where their
    planes meet, with d = unit(n_i x n_j) and x0 its point with <x0, d> = 0;
    parallel plane pairs meet in no line and are skipped.
    """
    if body.dim == 2:
        v = body.vertices
        return v, v[_successors(len(v))] - v, np.arange(len(v))[:, None]
    normals, offsets = body.facet_normals, body.facet_offsets
    i, j = _pairs(len(normals))
    d = _cross(normals[i], normals[j])
    nrm = _row_norms(d)
    meet = nrm > EPS
    i, j, d = i[meet], j[meet], d[meet] / nrm[meet, None]
    mat = np.stack((normals[i], normals[j], d), axis=1)
    rhs = np.column_stack((offsets[i], offsets[j], np.zeros(len(i))))
    return np.linalg.solve(mat, rhs[:, :, None])[:, :, 0], d, np.column_stack((i, j))


def _lattice_body(body, pts, lines, pairs):
    """The 3D level set whose vertices are the candidates pts, in order,
    built from its face lattice (`_lattice_polytope`); or None, with a
    debug line naming the guard, where the lattice is not certain to be
    what `hull(pts)` builds.

    Candidate k lies on the line of the facet planes i, j = pairs[k] of K,
    and sees the facets S0 of K, i and j left out.  Near it the point-hull
    function is the largest of four affine pieces, for the visible sets S0,
    S0 + i, S0 + i + j and S0 + j in turn around the line, each with
    gradient (1/3) sum_S a_F n_F.  So the candidate is a vertex of four
    facets of the level set.  Each facet is one visible set, outward along
    its gradient, with its vertices in turn by angle in its plane.

    Besides the guards of `_lattice_polytope`, with tol = EPS * span, the
    lattice needs: every line that meets the level set to meet it twice (no
    tangency); no two candidates within tol (`_dedup_points`); and every
    candidate more than `_LATTICE_MARGIN` tol from each third facet plane
    of K."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        faces = _lattice_faces(body, pts, lines, pairs)
    return _lattice_polytope(pts, faces, log, "level set")


def _lattice_faces(body, pts, lines, pairs):
    """`_lattice_body`'s facets, as the (loops, normals, local) that
    `_lattice_polytope` takes; or the name of the guard that fails."""
    tol = EPS * _span(pts)
    if (np.bincount(lines) == 1).any():
        return "a line meets the level set once"
    if len(_dedup_points(pts, tol)) < len(pts):
        return "two candidates lie within the merge tolerance"
    labels, near = _visible_sets(body, pts, pairs)
    if not near > _LATTICE_MARGIN * tol:
        return "a candidate lies near a third facet plane"
    # the distinct visible sets are the facets
    at, first = _distinct_rows(labels)
    # each facet's outward normal is the gradient sum_S a_F n_F of its set;
    # dividing a word by a power of two and rounding down is exact
    word, bit = _bits(len(body.facet_areas))
    grads = (np.floor(labels[first][:, word] / bit) % 2) @ (body.facet_areas[:, None] * body.facet_normals)
    normals = grads / _row_norms(grads)[:, None]
    loops, local = _facet_loops(pts, at, normals)
    return loops, normals, local


def _visible_sets(body, pts, pairs):
    """The four visible sets of each candidate, S0, S0 + i, S0 + i + j and
    S0 + j, with S0 the facets of K whose planes lie below pts[k], i and j
    = pairs[k] left out; and the least distance of a candidate from a
    facet plane other than its own two.  Each set is a row of words, facet
    F at bit F % 52 of word F // 52 (`_bits`): sums of distinct powers of
    two below 2^53 are exact.  The residuals are taken in row blocks."""
    m, nf = len(pts), len(body.facet_offsets)
    word, bit = _bits(nf)
    place = np.zeros((nf, word[-1] + 1))
    place[np.arange(nf), word] = bit
    keys = np.empty((m, len(place[0])))
    near = np.inf
    for blk in _row_blocks(m, 2 * nf):
        res = pts[blk] @ body.facet_normals.T - body.facet_offsets
        # the line's own planes: neither near nor seen
        res[np.arange(len(res))[:, None], pairs[blk]] = -np.inf
        near = min(near, float(np.abs(res).min()))
        keys[blk] = (res > 0).astype(float) @ place
    with_i, with_j = keys + place[pairs[:, 0]], keys + place[pairs[:, 1]]
    return np.stack((keys, with_i, with_i + place[pairs[:, 1]], with_j), 1).reshape(4 * m, -1), near


def _bits(nf):
    """The word and the bit (a power of two) of each of nf facets in the
    rows of `_visible_sets`."""
    facet = np.arange(nf)
    return facet // 52, np.ldexp(1.0, facet % 52)


def _facet_loops(pts, at, normals):
    """The loop table of the facets at[4 k : 4 k + 4] of each vertex k, and
    each position's plane coordinates (`_plane_coordinates`, as `_hull3`
    takes them): each loop in turn by angle about its vertices' centroid in
    the plane of its normal, counterclockwise about its outward normal, from
    any start."""
    sizes = np.bincount(at)
    vertex = np.arange(len(at)) // 4
    local = _plane_coordinates(normals, at, pts.take(vertex, 0))
    centre = np.stack([np.bincount(at, c, len(sizes)) for c in local.T], 1) / sizes[:, None]
    rel = local - centre.take(at, 0)
    # the facet, then the angle in (-pi, pi], as one key in [at, at + 1)
    order = (at + (np.arctan2(rel[:, 1], rel[:, 0]) + 4.0) / 8.0).argsort()
    return _LoopTable(vertex.take(order), sizes), local.take(order, 0)


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
    return _fit(p.vertices, q.vertices, q.diameter)


def _fit(p_points, q_points, q_diameter):
    """`homothety_fit` of the hull of q_points, of diameter q_diameter,
    against the hull of p_points.  Supports are read off the points as
    `support_many` reads them off a body's vertices.

    lstsq drops columns whose singular values fall below its cutoff, which
    is relative to the largest; so hp is divided by 2^e, e the exponent of
    its largest value, to lie beside the unit direction columns, and the
    ratio fitted to it is divided by 2^e again.  Both steps are exact, so
    hp scaled by a power of two changes the ratio by that power and no
    other bit of the fit."""
    dirs = direction_set(p_points.shape[1], _FIT_DIRS[p_points.shape[1]])
    hp, hq = _row_max(dirs @ p_points.T), _row_max(dirs @ q_points.T)
    e = math.frexp(float(np.max(np.abs(hp))))[1]
    design = np.column_stack((np.ldexp(hp, -e), dirs))
    coef, *_ = np.linalg.lstsq(design, hq, rcond=None)
    mu, c = math.ldexp(float(coef[0]), -e), coef[1:]
    if mu <= 0:
        # best positive ratio degenerates to the boundary; refit the shift only
        mu = 1e-12
        c, *_ = np.linalg.lstsq(dirs, hq - mu * hp, rcond=None)
    residual = hq - mu * hp - dirs @ c
    defect = float(np.max(np.abs(residual))) / q_diameter
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
