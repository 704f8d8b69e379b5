"""Deterministic direction sets and reproducible body generators.

Direction sets are fixed (uniform angles in 2D, a Fibonacci spiral on the
sphere in 3D) so that fitted quantities and reports are bit-reproducible.
``direction_set`` caches the tables it builds and returns them read-only,
so the same array is shared by every caller; ``circle_directions`` and
``fibonacci_sphere`` build a fresh, writable array on each call.
Random bodies take an explicit numpy Generator; the CLI seeds it once per
run, which makes search logs reproducible.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .bodies import Polygon, hull
from .errors import SamplingExhausted

#: Tries a rejection sampler makes before it raises SamplingExhausted.
MAX_TRIES = 10_000


def circle_directions(n):
    """n unit vectors at uniform angles 2*pi*k/n."""
    ang = 2.0 * np.pi * np.arange(n) / n
    return np.column_stack((np.cos(ang), np.sin(ang)))


def fibonacci_sphere(n):
    """n nearly-uniform unit vectors on S^2 (golden-angle spiral)."""
    k = np.arange(n, dtype=float)
    z = 1.0 - (2.0 * k + 1.0) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = k * np.pi * (3.0 - np.sqrt(5.0))
    return np.column_stack((r * np.cos(phi), r * np.sin(phi), z))


@lru_cache(maxsize=16)
def direction_set(dim, n):
    """The fixed set of n unit directions in dimension dim, built once and
    shared: a read-only array (writing to it raises ValueError)."""
    dirs = circle_directions(n) if dim == 2 else fibonacci_sphere(n)
    dirs.flags.writeable = False
    return dirs


def regular_polygon(m):
    """Regular m-gon inscribed in the unit circle, a vertex at (1, 0)."""
    ang = 2.0 * np.pi * np.arange(m) / m
    return Polygon(np.column_stack((np.cos(ang), np.sin(ang))))


def random_polygon(rng, n_vertices):
    """Random convex n-gon inscribed in the unit circle, origin well interior.

    Vertex angles are resampled, at most MAX_TRIES times, until gaps stay in
    (0.05, pi - 0.05); all circle points are strictly extreme, so the polygon
    always validates.  The gap rule accepts a draw with probability about
    (1 - 0.05 n / 2 pi)^(n - 1), so larger n often raise SamplingExhausted:
    over seeds 0-19 none did for n = 28, 4 did for n = 31, 8-9 for n = 33-35,
    and all 20 for n >= 37.  No n-gon with n >= 126 has such gaps.
    """
    for _ in range(MAX_TRIES):
        ang = np.sort(rng.uniform(0.0, 2.0 * np.pi, n_vertices))
        gaps = np.diff(np.append(ang, ang[0] + 2.0 * np.pi))
        if np.min(gaps) > 0.05 and np.max(gaps) < np.pi - 0.05:
            return Polygon(np.column_stack((np.cos(ang), np.sin(ang))))
    raise SamplingExhausted(f"no random {n_vertices}-gon with angular gaps in (0.05, pi - 0.05) found")


def random_polytope3(rng, n_vertices):
    """Hull of points uniform on the unit sphere, origin well interior
    (resampled at most MAX_TRIES times)."""
    for _ in range(MAX_TRIES):
        pts = rng.normal(size=(n_vertices, 3))
        pts *= 1.0 / np.linalg.norm(pts, axis=1)[:, None]
        body = hull(pts)
        if len(body) == n_vertices and np.min(body.facet_offsets) > 0.05:
            return body
    raise SamplingExhausted(f"no random {n_vertices}-vertex polytope with the origin well interior found")


def reuleaux_polygon():
    """Polygonal approximation, 100 points per arc, of the Reuleaux triangle
    of width 1: three circular arcs of radius 1, each centered at a vertex of
    an equilateral triangle with side 1; centroid at the origin."""
    h = 1.0 / np.sqrt(3.0)
    corners = h * np.column_stack(
        (np.cos(np.pi / 2 + 2 * np.pi * np.arange(3) / 3), np.sin(np.pi / 2 + 2 * np.pi * np.arange(3) / 3))
    )
    pts = []
    for i in range(3):
        center = corners[i]
        a, b = corners[(i + 1) % 3], corners[(i + 2) % 3]
        start = np.arctan2(*(a - center)[::-1])
        end = np.arctan2(*(b - center)[::-1])
        while end < start:
            end += 2.0 * np.pi
        ang = start + (end - start) * np.arange(100) / 100
        pts.append(center + np.column_stack((np.cos(ang), np.sin(ang))))
    return hull(np.vstack(pts))


@lru_cache(maxsize=4)
def ball_body(dim):
    """Deterministic polytopal approximation of the unit ball: a 256-gon,
    or the hull of 1024 Fibonacci-sphere points."""
    if dim == 2:
        return regular_polygon(256)
    return hull(fibonacci_sphere(1024))
