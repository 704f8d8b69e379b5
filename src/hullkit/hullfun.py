"""Hull-volume functions of a convex body.

Three evaluators, all returning exact polytope volumes:

* ``convex_hull_function(K, t)``       -- volume of conv(K, K + t)
* ``homothetic_hull_function(K, lam, t)`` -- volume of conv(K, lam*K + t)
* ``point_hull_volume(P, t)``          -- volume of conv(P, {t}) in closed
  form via the visible-facet cone sum, no hull construction needed.

``lambda_reduce`` ties the homothetic evaluator back to the point evaluator:
(G_lam(t) - lam^n vol) / (1 - lam^n) equals the point form at t / (1 - lam).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bodies import EPS, _as_vectors, hull
from .errors import LambdaOutOfRange, OriginNotInterior


@dataclass(frozen=True)
class HullFunctionValue:
    """Value of a hull-volume function plus the facets visible from t."""

    value: float
    active_facets: tuple[int, ...]


def convex_hull_function(body, t):
    """Volume of the convex hull of the body and its translate by t."""
    t = _as_vectors(t, body.dim)
    v = body.vertices
    return hull(np.vstack((v, v + t))).volume


def homothetic_hull_function(body, lam, t):
    """Volume of the convex hull of the body and its lam-shrunken translate.

    Requires 0 <= lam < 1; for lam > 0 the origin must be interior (the
    shrinking is centered at the origin).  Equals volume(body) exactly when
    t lies in (1 - lam) * body.
    """
    lam = float(lam)
    if not 0.0 <= lam < 1.0:
        raise LambdaOutOfRange("lam must satisfy 0 <= lam < 1")
    if lam > 0.0 and np.min(body.facet_offsets) <= EPS * body.diameter:
        raise OriginNotInterior("homothetic hull function needs the origin inside the body")
    t = _as_vectors(t, body.dim)
    return hull(np.vstack((body.vertices, lam * body.vertices + t))).volume


def point_hull_values(body, points):
    """Vectorized conv(body, {t}) volumes over an (..., dim) array of points.

    For each point, facets whose plane it lies beyond contribute the cone
    volume area(F) * slack / n; interior points contribute nothing.  A
    stack of point sets (shape (..., k, dim)) gives each set the values a
    call on that (k, dim) set alone would give, bit for bit.
    """
    points = np.atleast_2d(_as_vectors(points, body.dim))
    slack = points @ body.facet_normals.T - body.facet_offsets
    np.maximum(slack, 0.0, out=slack)
    return body.volume + (slack @ body.facet_areas) / body.dim


def point_hull_volume(body, t):
    """Closed-form volume of conv(body, {t}) with the visible facet set.

    A point exactly on a facet plane contributes zero either way; the active
    set uses strict inequality with EPS slack.
    """
    t = _as_vectors(t, body.dim)
    active = np.nonzero(t @ body.facet_normals.T - body.facet_offsets > EPS * body.diameter)[0]
    return HullFunctionValue(value=float(point_hull_values(body, t)[0]), active_facets=tuple(map(int, active)))


def lambda_reduce(body, lam, t):
    """Reduce the homothetic hull function to the point (lam = 0) case.

    Returns (G_lam(t) - lam^n * vol) / (1 - lam^n), which must agree with
    point_hull_volume(body, t / (1 - lam)) up to tolerance.  The range of
    lam is checked by homothetic_hull_function.
    """
    lam = float(lam)
    n = body.dim
    g = homothetic_hull_function(body, lam, t)
    return (g - lam**n * body.volume) / (1.0 - lam**n)
