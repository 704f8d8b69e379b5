"""Projection bodies, polar projection bodies, and touching-translate checks.

The translative constant volume property (TCVP) says the hull volume of any
touching pair of translates is the same; equivalently the excess
Delta(u) = gauge_{K-K}(u) * brightness(K, u) is constant in u, and
equivalently the polar projection body is a positive multiple of K - K.
``tcvp_check`` measures both formulations and reports their agreement.

Only positive homothety of the polar projection body is tested; rotational
similarity is out of scope.  Likewise, no affine (Radon-curve) normalization
is attempted in the plane: Delta-constancy is the criterion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bodies import Polygon, _cross, _row_norms, brightness_many, difference_body, hull, polar
from .errors import DegenerateInput, TooFewDirections
from .illumination import HomothetyReport, homothety_fit
from .sampling import ball_body, direction_set

#: Relative spread below which Delta(u) counts as constant.
TCVP_TOL = 1e-6

#: Homothety-defect threshold for "ball-like" verdicts against polygonal
#: ball approximations.
BALL_FIT_TOL = 1e-3


@dataclass(frozen=True)
class TcvpReport:
    """Delta(u) statistics plus the polar-projection-body homothety fit."""

    delta_min: float
    delta_max: float
    delta_mean: float
    relative_spread: float
    polar_projection_homothety: HomothetyReport
    passes: bool


def projection_body(body):
    """Body whose support function is the brightness function.

    2D: the difference body rotated by pi/2.  3D: the zonotope generated by
    the segments [-g_F, g_F] with g_F = area(F)/2 * n_F, built by one hull of
    its candidate vertices, one set per pair of generators (see `_zonotope`;
    parallel generators are combined first, which covers the antipodal facet
    pairs of symmetric bodies).
    """
    if body.dim == 2:
        d = difference_body(body)
        rotated = np.column_stack((-d.vertices[:, 1], d.vertices[:, 0]))
        return Polygon(rotated)
    gens = 0.5 * body.facet_areas[:, None] * body.facet_normals
    return _zonotope(gens)


def _zonotope(generators):
    """Hull of the Minkowski sum of the segments [-g, g], from one hull call.

    Every facet of a 3D zonotope is parallel to a pair of generators
    (g_i, g_j), and its vertices are sum_k s_k g_k for sign vectors s.  With
    n = unit(g_i x g_j) and in-plane tangents t_i = g_j x n, t_j = n x g_i
    (so <g_i, t_i> > 0 and <g_j, t_j> > 0), the candidates of the pair are,
    for each w = a t_i + b t_j with a, b = +-1:

    * s_k = sign<g_k, n> where |<g_k, n>| > 1e-12 |g_k|, and otherwise, for
      generators in the facet plane, the tie-break s_k = sign<g_k, w>;
    * the same sign vector negated, for the opposite facet.

    The tie-break finds the vertices of facets with three or more coplanar
    generators, which plain corners +-c +- g_i +- g_j miss.  Sign vectors
    with a zero left are edge or facet points, not vertices, and are dropped.

    The generators are ordered as the seed parallelepiped (three independent
    generators) followed by the rest, and each point is summed in that order,
    one generator at a time, so its coordinates round exactly as the iterated
    Minkowski sums hull(hull(...) +- g) would round them.
    """
    gens = np.asarray(generators, dtype=float)
    norms = _row_norms(gens)
    gens, norms = gens[norms > 1e-14], norms[norms > 1e-14]
    # each generator joins the first earlier merged generator parallel to it
    merged = np.empty_like(gens)
    m = 0
    for g, norm in zip(gens, norms.tolist()):
        parallel = np.nonzero(_row_norms(_cross(g, merged[:m])) <= 1e-12 * norm * _row_norms(merged[:m]))[0]
        if len(parallel):
            h = merged[parallel[0]]
            h += (1.0 if g @ h > 0 else -1.0) * g
        else:
            merged[m] = g
            m += 1
    merged = list(merged[:m])
    if len(merged) < 3:
        raise DegenerateInput("zonotope generators do not span 3-space")
    # seed with a parallelepiped of three independent generators
    seed = [merged[0]]
    for g in merged[1:]:
        if len(seed) == 1 and np.linalg.norm(_cross(seed[0], g)) > 1e-12:
            seed.append(g)
        elif len(seed) == 2 and abs(_cross(seed[0], seed[1]) @ g) > 1e-12:
            seed.append(g)
        if len(seed) == 3:
            break
    if len(seed) < 3:
        raise DegenerateInput("zonotope generators do not span 3-space")
    rest = [g for g in merged if not any(g is s for s in seed)]
    gens = np.array(seed + rest)

    signs = _zonotope_signs(gens)
    pts = signs[:, 0, None] * gens[0]
    for c in range(1, len(gens)):
        pts = pts + signs[:, c, None] * gens[c]
    return hull(pts)


def _zonotope_signs(gens):
    """Distinct vertex sign vectors (int8 rows) of the zonotope of gens, in
    the order the iterated sums list the vertices: v + g before v - g for the
    last generator g, and so on back to the seed corners, which are listed
    with -1 before +1."""
    k = len(gens)
    tie_tol = 1e-12 * np.linalg.norm(gens, axis=1)
    i, j = np.triu_indices(k, 1)
    n = _cross(gens[i], gens[j])
    n /= np.linalg.norm(n, axis=1)[:, None]
    ti = _cross(gens[j], n)
    tj = _cross(n, gens[i])
    ab = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    rows = []
    # blocks of pairs keep each (4, pairs, k) temporary at about 8 MB
    step = max(1, 2**18 // k)
    for lo in range(0, len(n), step):
        blk = slice(lo, lo + step)
        w = ab[:, 0, None, None] * ti[blk] + ab[:, 1, None, None] * tj[blk]
        heights = n[blk] @ gens.T
        s = np.where(np.abs(heights) > tie_tol, np.sign(heights), np.sign(w @ gens.T))
        rows.append(s.reshape(-1, k).astype(np.int8))
    signs = np.concatenate(rows)
    signs = signs[np.all(signs != 0, axis=1)]
    signs = np.concatenate((signs, -signs))
    signs = signs[np.lexsort(np.vstack((signs[:, 2::-1].T, -signs[:, 3:].T)))]
    return signs[np.r_[True, np.any(signs[1:] != signs[:-1], axis=1)]]


def polar_projection_body(body):
    """Polar dual of the projection body (which always contains the origin)."""
    return polar(projection_body(body))


def delta_values(body, dirs):
    """Excess hull volume over touching translates, per direction."""
    d = difference_body(body)
    return d.gauge_many(dirs) * brightness_many(body, dirs)


def tcvp_check(body, n_dirs=360):
    """Measure Delta(u) over a deterministic direction set and fit the
    polar projection body against the difference body."""
    if n_dirs < 16:
        raise TooFewDirections("n_dirs must be at least 16")
    dirs = direction_set(body.dim, n_dirs)
    # Delta(u) of a body near the float limit can overflow, and so can the
    # sum behind its mean (an inf or NaN Delta makes the mean one too); the
    # spread would then read 0 or NaN
    with np.errstate(over="ignore", invalid="ignore"):
        # delta_values, on a difference body built once for both checks
        diff = difference_body(body)
        deltas = diff.gauge_many(dirs) * brightness_many(body, dirs)
        dmean = float(np.mean(deltas))
    if not np.isfinite(dmean):
        raise DegenerateInput("Delta(u) overflows: coordinates too large for a TCVP check")
    dmin, dmax = float(np.min(deltas)), float(np.max(deltas))
    spread = (dmax - dmin) / dmean
    fit = homothety_fit(diff, polar_projection_body(body))
    return TcvpReport(
        delta_min=dmin,
        delta_max=dmax,
        delta_mean=dmean,
        relative_spread=spread,
        polar_projection_homothety=fit,
        passes=bool(spread < TCVP_TOL),
    )


def translative_volume_constant(body, n_dirs=720):
    """Max hull volume over touching translates, normalized by volume:
    1 + max_u Delta(u) / vol."""
    if n_dirs < 16:
        raise TooFewDirections("n_dirs must be at least 16")
    dirs = direction_set(body.dim, n_dirs)
    return 1.0 + float(np.max(delta_values(body, dirs))) / body.volume


def constancy_check(body):
    """(width_constant, brightness_constant) verdicts via ball fits.

    Constant width means the difference body is a ball; constant brightness
    means the projection body is.  Both are tested by homothety fits against
    a fixed polygonal ball approximation at tolerance BALL_FIT_TOL.
    """
    ball = ball_body(body.dim)
    width = homothety_fit(ball, difference_body(body)).defect < BALL_FIT_TOL
    bright = homothety_fit(ball, projection_body(body)).defect < BALL_FIT_TOL
    return bool(width), bool(bright)
