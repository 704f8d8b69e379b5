"""Projection bodies, polar projection bodies, and touching-translate checks.

The translative constant volume property (TCVP) says the hull volume of any
touching pair of translates is the same; equivalently the excess
Delta(u) = gauge_{K-K}(u) * brightness(K, u) is constant in u, and
equivalently the polar projection body is a positive multiple of K - K.
``tcvp_check`` measures both formulations and reports their agreement.  The
polar projection body is the hull of the points n_F/b_F of the facet planes
<n_F, x> = b_F of ΠK, so the fit reads its support function
h_{Π°K}(u) = max_F <u, n_F>/b_F, and its diameter, off those points without
building it; ``polar_projection_body`` builds it.  In 2D the planes are the
built ΠK's.  In 3D ΠK is the zonotope of the generators
g_F = area(F)/2 * n_F, and each facet plane belongs to a pair of generators:
n_F/b_F = c / sum_k |<g_k, c>| with c = g_i x g_j, in closed form
(`_zonotope_duals`), so no hull of ΠK is run.  `projection_body` builds the
zonotope itself from its face lattice (`_zonotope`): where no third
generator lies in the plane of a pair, each facet is the parallelogram of a
pair (P. McMullen, "On zonotopes", Trans. AMS 159, 1971; G. M. Ziegler,
*Lectures on Polytopes*, Lecture 7), and where the lattice is not certain
to be what `hull()` builds, the candidates are hulled.

Only positive homothety of the polar projection body is tested; rotational
similarity is out of scope.  Likewise, no affine (Radon-curve) normalization
is attempted in the plane: Delta-constancy is the criterion.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .bodies import (
    EPS,
    Body,
    Polygon,
    _LoopTable,
    _cross,
    _dedup_points,
    _diameter,
    _distinct_rows,
    _lattice_polytope,
    _named,
    _pairs,
    _plane_coordinates,
    _polar_points,
    _row_blocks,
    _row_norms,
    _span,
    brightness_many,
    difference_body,
    hull,
    polar,
    rot90,
)
from .errors import DegenerateInput, TooFewDirections
from .illumination import HomothetyReport, _fit, homothety_fit
from .sampling import ball_body, direction_set

log = logging.getLogger(__name__)

#: Relative spread below which Delta(u) counts as constant.
TCVP_TOL = 1e-6

#: Homothety-defect threshold for "ball-like" verdicts against polygonal
#: ball approximations.
BALL_FIT_TOL = 1e-3


@dataclass(frozen=True)
class TcvpReport:
    """Delta(u) statistics plus the polar-projection-body homothety fit, and
    the difference body K - K they were measured with (left out of
    comparisons and the repr)."""

    delta_min: float
    delta_max: float
    delta_mean: float
    relative_spread: float
    polar_projection_homothety: HomothetyReport
    passes: bool
    difference_body: Body | None = field(default=None, compare=False, repr=False)


def projection_body(body):
    """Body whose support function is the brightness function.

    2D: the difference body rotated by pi/2.  3D: the zonotope generated by
    the segments [-g_F, g_F] with g_F = area(F)/2 * n_F, on its candidate
    vertices, one set per pair of generators; built from its face lattice,
    one parallelogram facet per pair and side, or by one hull of the
    candidates where a plane holds three or more generators or a guard fires
    (see `_zonotope`; parallel generators are combined first, which covers
    the antipodal facet pairs of symmetric bodies).
    """
    if body.dim == 2:
        return Polygon(rot90(difference_body(body).vertices))
    with _named("projection body"):
        return _zonotope(_facet_generators(body))


def _facet_generators(body):
    """The generators g_F = area(F)/2 * n_F of a 3-polytope's projection body."""
    return 0.5 * body.facet_areas[:, None] * body.facet_normals


def _zonotope(generators):
    """The zonotope of the segments [-g, g], on the candidate vertices of
    `_zonotope_points`, in their order: built from its face lattice with no
    hull (`_zonotope_lattice`), or `hull()` of those candidates where a
    guard fires."""
    pts, body = _zonotope_lattice(generators)
    return hull(pts) if body is None else body


def _zonotope_lattice(generators):
    """The candidates of `_zonotope_points`, and the zonotope built from its
    face lattice on them (`_lattice_polytope`), or None.

    Where the tie test in the plane of each pair (see `_zonotope_points`)
    passes g_i and g_j and no other generator, the facets are the
    parallelograms of the pairs, two each, with normals +-unit(g_i x g_j),
    whose corners `_zonotope_signs` reads off the pair's sign rows.  So,
    besides the guards of `_lattice_polytope`, the lattice needs that: a
    third generator in a pair's plane makes its facet a 2m-gon, and a pair
    of generators so nearly parallel that its normal rounds them out of
    its own plane has no four corners of its own.  Nor may two candidates
    lie within the merge tolerance (`_dedup_points`).  Nothing of the
    lattice outlives this call, so a hull of the candidates does not hold
    it."""
    gens, e = _generators(generators)
    signs, corners, normals = _zonotope_signs(gens)
    pts = _sign_sums(signs, gens, e)
    if corners is None:
        faces = "the tie test in a pair's plane does not pass just the pair's two generators"
    elif len(_dedup_points(pts, EPS * _span(pts))) < len(pts):
        faces = "two candidates lie within the merge tolerance"
    else:
        loops, normals = _LoopTable(corners.ravel(), np.full(len(corners), 4)), np.concatenate((normals, -normals))
        faces = loops, normals, _plane_coordinates(normals, loops.owner, pts.take(loops.flat, 0))
    return pts, _lattice_polytope(pts, faces, log, "zonotope")


def _generators(generators):
    """(gens, e): the generators of a zonotope as `_zonotope_points` and
    `_zonotope_duals` take them, divided by 2^e.

    Generators of at most 1e-14 of the longest norm are dropped, parallel
    ones are merged (`_merge_parallel`), and three independent ones are put
    first, as the seed of the iterated sums; fewer than three raise.  Every
    test is made on the generators divided by 2^e, e the exponent of their
    largest coordinate.  That division is exact and every threshold is
    relative, so a body and its copies scaled by 2^k get the same
    generators, bit for bit, with no product underflowing or overflowing.

    A projection body's generators are of order coordinate², so the squared
    norms of their cross products are of order coordinate⁸ and overflow from
    coordinates of about 10^38.5 on.  Such generators raise DegenerateInput
    here, for the projection body and its polar alike.
    """
    gens = np.asarray(generators, dtype=float)
    e = math.frexp(float(np.max(np.abs(gens), initial=0.0)))[1]
    gens = np.ldexp(gens, -e)
    norms = _row_norms(gens)
    kept = norms > 1e-14 * np.max(norms, initial=0.0)
    gens, norms = gens[kept], norms[kept]
    # the merge loop changes nothing where no generator passes its parallel
    # test against an earlier one; one batch over the pairs shows that with
    # the loop's own products
    i, j = _pairs(len(gens))
    crosses = _row_norms(_cross(gens.take(j, 0), gens.take(i, 0)))
    # the unscaled cross products are 2^2e times these, and their squared
    # norms overflow from 2^512 on
    if math.frexp(float(np.max(crosses, initial=0.0)))[1] + 2 * e > 512:
        raise DegenerateInput("generator cross products overflow: coordinates too large")
    if not (crosses > (1e-12 * norms[j]) * norms[i]).all():
        gens = _merge_parallel(gens, norms)
    if len(gens) < 3:
        raise DegenerateInput("zonotope generators do not span 3-space")
    # seed with a parallelepiped of three independent generators: the first
    # whose sine with g_0 is above 1e-12, then the first after it whose sine
    # with the plane of the two is
    norms = _row_norms(gens)
    seed = [0]
    tilted = np.flatnonzero(_row_norms(_cross(gens[0], gens[1:])) > 1e-12 * norms[0] * norms[1:])
    if len(tilted):
        seed.append(1 + int(tilted[0]))
        n = _cross(gens[0], gens[seed[1]])
        after = slice(seed[1] + 1, None)
        off = np.flatnonzero(abs(np.vecdot(n, gens[after])) > 1e-12 * _row_norms(n) * norms[after])
        if len(off):
            seed.append(seed[1] + 1 + int(off[0]))
    if len(seed) < 3:
        raise DegenerateInput("zonotope generators do not span 3-space")
    rest = np.ones(len(gens), dtype=bool)
    rest[seed] = False
    return gens.take(np.concatenate((seed, rest.nonzero()[0])), 0), e


def _zonotope_points(generators):
    """Candidate vertices of the Minkowski sum of the segments [-g, g].

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
    generators) followed by the rest (`_generators`), and each point is
    summed in that order, one generator at a time, so its coordinates round
    exactly as the iterated Minkowski sums hull(hull(...) +- g) would round
    them.  The sums are taken on the generators divided by 2^e and
    multiplied by 2^e at the end, which changes no bit.
    """
    gens, e = _generators(generators)
    return _sign_sums(_zonotope_signs(gens)[0], gens, e)


def _sign_sums(signs, gens, e):
    """The points sum_k s_k g_k of the sign rows s, times 2^e, summed in
    generator order.

    Each point is summed one generator at a time, in order: `np.add.reduce`
    over the outer axis of a C-ordered (generators, 3, points) array adds
    one generator's terms at a time, as pts = pts + s_c g_c does (numpy
    sums pairwise only along the fast axis); each point on its own, so the
    sums go in blocks of points."""
    pts = np.empty((len(signs), 3))
    for blk in _row_blocks(len(signs), 3 * len(gens)):
        terms = np.multiply(signs[blk].T[:, None, :], gens[:, :, None], order="C")
        pts[blk] = np.add.reduce(terms, axis=0).T
    return np.ldexp(pts, e, out=pts)


def _zonotope_duals(generators):
    """The vertices of the polar of the zonotope of the generators, read off
    its facet planes with no hull: +-c / sum_k |<g_k, c>| for c = g_i x g_j,
    one pair of points per pair of generators.

    Each facet of the zonotope is parallel to a pair of generators (see
    `_zonotope_points`), so its normal is parallel to their cross product c,
    and its plane <c, x> = h(c) has the zonotope's support
    h(c) = sum_k |<g_k, c>| as offset; the polar vertex c/h(c) is the point
    n_F/b_F of that plane.  A facet with three or more generators in its
    plane gives one point per pair of them.  The points are homogeneous of
    degree -1 in the generators, so they are taken on `_generators`' copies
    divided by 2^e and multiplied by 2^-e, which changes no bit.  On those
    copies, whose norms lie between about 1e-14 and 2, every pair left has
    a sine above about 1e-12, so |c|² is far above the subnormal range.
    """
    gens, e = _generators(generators)
    i, j = _pairs(len(gens))
    c = _cross(gens.take(i, 0), gens.take(j, 0))
    # the heights <g_k, c> in row blocks of pairs
    supports = np.empty(len(c))
    for blk in _row_blocks(len(c), len(gens)):
        supports[blk] = np.abs(c[blk] @ gens.T).sum(1)
    duals = c / supports[:, None]
    np.ldexp(duals, -e, out=duals)
    return np.concatenate((duals, -duals))


def _merge_parallel(gens, norms):
    """The generators with each joined to the first earlier merged generator
    parallel to it: |g x h| at most 1e-12 |g| |h|."""
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
    return merged[:m]


def _zonotope_signs(gens):
    """Distinct vertex sign vectors (int8 rows) of the zonotope of gens, in
    the order the iterated sums list the vertices: v + g before v - g for the
    last generator g, and so on back to the seed corners, which are listed
    with -1 before +1; the facets' corners; and each pair's unit normal
    n = unit(g_i x g_j).

    The order is lexicographic on the keys (-s_{k-1}, ..., -s_3, s_0, s_1,
    s_2), most significant first.  Counted from the least significant, the
    places go in chunks of 52, and place p weighs 2^(p mod 52) in its chunk:
    more than all lower places of the chunk together.  So a chunk's product
    with the signs orders the rows as its places do, and is an integer
    below 2^52, exact in any order of addition and any row blocks; the keys
    of -s are the negated keys, equal keys are equal rows, and
    `_distinct_rows` of the chunks gives the first of each distinct row in
    lexicographic order, and the index of each row among them.

    The corners are None where the tie test in the plane of a pair passes
    a generator other than g_i and g_j, or fails g_i or g_j.  Otherwise the
    pair's four rows (`_zonotope_points`), with (s_i, s_j) = (+, +),
    (+, -), (-, +), (-, -), are the corners of its facet about n, and rows
    3, 1, 0, 2 run counterclockwise about n; the rows negated, in the
    reverse order, run counterclockwise about -n.  The corners are those rows' indices, one
    row of four per facet: pair by pair about n, then about -n."""
    k = len(gens)
    tie_tol = 1e-12 * np.linalg.norm(gens, axis=1)
    i, j = _pairs(k)
    n = _cross(gens[i], gens[j])
    n /= np.linalg.norm(n, axis=1)[:, None]
    ti = _cross(gens[j], n)
    tj = _cross(n, gens[i])
    ab = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    signs = np.empty((4 * len(n), k), dtype=np.int8)
    # each pair's rows, in the order of ab; in a block of b pairs they lie b apart
    rows = np.empty((len(n), 4), dtype=np.intp)
    parallelograms = True
    # in blocks of pairs, each with a (4, pairs, k) temporary
    for blk in _row_blocks(len(n), 4 * k):
        w = ab[:, 0, None, None] * ti[blk] + ab[:, 1, None, None] * tj[blk]
        heights = n[blk] @ gens.T
        apart = np.abs(heights) > tie_tol
        parallelograms &= bool((apart.sum(1) == k - 2).all())
        s = np.where(apart, np.sign(heights), np.sign(w @ gens.T))
        signs[4 * blk.start:4 * blk.stop] = s.reshape(-1, k)
        b = len(heights)
        rows[blk] = 4 * blk.start + np.arange(b)[:, None] + b * np.arange(4)
    if not signs.all():
        signs = signs[np.all(signs != 0, axis=1)]
        parallelograms = False
    place = np.arange(k)
    place[:3] = (2, 1, 0)
    weights = np.zeros((k, (k + 51) // 52))
    weights[np.arange(k), place // 52] = np.ldexp(np.where(place < 3, 1.0, -1.0), place % 52)
    r = len(signs)
    # as int64, which sorts faster than the same doubles
    keys = np.empty((2 * r, weights.shape[1]), dtype=np.int64)
    for blk in _row_blocks(r, k):
        keys[:r][blk] = signs[blk] @ weights
    np.negative(keys[:r], out=keys[r:])
    at, first = _distinct_rows(keys)
    negated, order = np.divmod(first, r)
    signs = signs.take(order, 0) * (1 - 2 * negated).astype(np.int8)[:, None]
    if not parallelograms:
        return signs, None, n
    return signs, at.take(np.concatenate((rows[:, [3, 1, 0, 2]], r + rows[:, [2, 0, 1, 3]]))), n


def polar_projection_body(body):
    """Polar dual of the projection body (which always contains the origin)."""
    return polar(projection_body(body))


def delta_values(body, dirs):
    """Excess hull volume over touching translates, per direction."""
    return _excess(body, difference_body(body), dirs)


def _excess(body, diff, dirs):
    """Delta(u) = gauge_{K-K}(u) * brightness(K, u) over dirs; diff is K - K."""
    return diff.gauge_many(dirs) * brightness_many(body, dirs)


def tcvp_check(body, n_dirs=360):
    """Measure Delta(u) over a deterministic direction set and fit the
    polar projection body against the difference body.

    The fit is `homothety_fit(difference_body(body), Π°K)` with the support
    and diameter of Π°K read off its vertices n_F/b_F.  In 2D they are the
    points of the built ΠK's planes, and the fit equals the one against
    `polar_projection_body(body)` bit for bit: `hull()` passes coordinates
    through unchanged, and neither a row maximum nor a largest pairwise
    distance depends on the order of the points.  In 3D they are
    `_zonotope_duals` of ΠK's generators, which builds neither ΠK nor its
    polar.  Those points are not the built body's bits: they lie within
    1e-14 of the dual diameter of the exact ones, where the hull's Newell
    planes lie within 1.2e-11, so the fit agrees with the built body's to
    the rounding level.  It needs no hull of ΠK or Π°K, so a body that
    builds gets its fit where qhull would refuse ΠK or Π°K, or ΠK's squared
    Newell normals would underflow (from about 2^-126); bodies whose
    generators' cross products overflow (coordinates of about 10^38.5 and
    up) raise as `projection_body` does."""
    if n_dirs < 16:
        raise TooFewDirections("n_dirs must be at least 16")
    dirs = direction_set(body.dim, n_dirs)
    # Delta(u) of a body near the float limit can overflow, and so can the
    # sum behind its mean (an inf or NaN Delta makes the mean one too); the
    # spread would then read 0 or NaN
    with np.errstate(over="ignore", invalid="ignore"):
        diff = difference_body(body)
        deltas = _excess(body, diff, dirs)
        dmean = float(np.mean(deltas))
    if not np.isfinite(dmean):
        raise DegenerateInput("Delta(u) overflows: coordinates too large for a TCVP check")
    dmin, dmax = float(np.min(deltas)), float(np.max(deltas))
    spread = (dmax - dmin) / dmean
    # the vertices n_F/b_F of Π°K: a planar ΠK is K - K turned, and so are
    # its points, bit for bit; a 3D ΠK is a zonotope, whose planes come from
    # its generators
    with _named("projection body"):
        duals = rot90(_polar_points(diff)) if body.dim == 2 else _zonotope_duals(_facet_generators(body))
    with _named("polar body"), np.errstate(over="ignore", invalid="ignore"):
        diameter = _diameter(duals)
        if not diameter < np.inf:
            raise DegenerateInput("coordinates too large: squared distances overflow")
    return TcvpReport(
        delta_min=dmin,
        delta_max=dmax,
        delta_mean=dmean,
        relative_spread=spread,
        polar_projection_homothety=_fit(diff.vertices, duals, diameter),
        passes=bool(spread < TCVP_TOL),
        difference_body=diff,
    )


def translative_volume_constant(body, n_dirs=720):
    """Max hull volume over touching translates, normalized by volume:
    1 + max_u Delta(u) / vol."""
    if n_dirs < 16:
        raise TooFewDirections("n_dirs must be at least 16")
    return _volume_constant(body, difference_body(body), n_dirs)


def _volume_constant(body, diff, n_dirs):
    """`translative_volume_constant` with K - K given as diff."""
    return 1.0 + float(np.max(_excess(body, diff, direction_set(body.dim, n_dirs)))) / body.volume


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
