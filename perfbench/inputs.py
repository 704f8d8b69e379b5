"""Seeded benchmark inputs, generated without hullkit.

Bodies are drawn with numpy alone; scipy's qhull is used only to reject 3D
point sets whose hull leaves out a point or does not hold the origin well
inside.  Nothing here calls ``hullkit`` (in particular not
``hullkit.sampling``, whose rejection test runs ``hull()``), so a change to
the program cannot change which bodies are measured.

Each workload has its own seed stream, ``default_rng([seed, stream])``, and
hands the program its bodies as body JSON text.  Vertex counts cycle through
a fixed, interleaved order, so every seed gives the same size mix and any
prefix of the op pool is balanced; only the vertex positions depend on the
seed.

A timed run cycles through its op pool and starts over at the end, so a
pool holds repeated inputs only once a run outlasts it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull

#: Illumination-body levels, as multiples of the body volume (criterion 8).
DELTA_FACTORS = (0.05, 0.5, 2.0)

# sizes in an order whose every prefix mixes small and large bodies
_SIZES_3D = (6, 12, 7, 11, 8, 10, 9)
_SIZES_2D = (7, 12, 8, 11, 9, 10)

_MAX_TRIES = 1000


@dataclass(frozen=True)
class Op:
    """One operation: the index of its body plus its own parameters."""

    body: int
    params: dict


@dataclass(frozen=True)
class Inputs:
    """Body JSON texts, the op pool over them, and a digest of both.

    Vertex counts repeat every ``cycle`` ops of the pool, so a run of whole
    cycles always has the same size mix.  Every run makes at least the first
    ``checked`` ops of the pool; the output digest covers exactly those.
    """

    bodies: tuple[str, ...]
    ops: tuple[Op, ...]
    cycle: int
    checked: int
    digest: str


def _sphere_polytope(rng, nv):
    for _ in range(_MAX_TRIES):
        pts = rng.normal(size=(nv, 3))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        qh = ConvexHull(pts)
        # every point extreme and the origin at least 0.05 inside, as in the
        # `search --dim 3` family
        if len(qh.vertices) == nv and np.min(-qh.equations[:, 3]) > 0.05:
            return pts
    raise RuntimeError(f"no admissible {nv}-point polytope in {_MAX_TRIES} draws")


def _circle_polygon(rng, m):
    for _ in range(_MAX_TRIES):
        ang = np.sort(rng.uniform(0.0, 2.0 * np.pi, m))
        gaps = np.diff(np.append(ang, ang[0] + 2.0 * np.pi))
        # same gap rule as the `search --dim 2` family: strictly convex,
        # origin interior
        if np.min(gaps) > 0.05 and np.max(gaps) < np.pi - 0.05:
            return np.column_stack((np.cos(ang), np.sin(ang)))
    raise RuntimeError(f"no admissible {m}-gon in {_MAX_TRIES} draws")


def _unit(rng, dim):
    u = rng.normal(size=dim)
    return u / np.linalg.norm(u)


def _body_json(vertices):
    return json.dumps({"dim": vertices.shape[1], "vertices": vertices.tolist()})


def _bodies_3d(rng, n):
    return [_body_json(_sphere_polytope(rng, _SIZES_3D[i % len(_SIZES_3D)])) for i in range(n)]


def _illum3d(rng):
    bodies = _bodies_3d(rng, 56)
    return bodies, [Op(i, {}) for i in range(len(bodies))], 28


def _tcvp3d(rng):
    bodies = _bodies_3d(rng, 28)
    return bodies, [Op(i, {"dirs": 360}) for i in range(len(bodies))], 7


def _eval3d(rng):
    bodies = _bodies_3d(rng, 56)
    ops = []
    for j in range(2800):
        u = _unit(rng, 3)
        alpha = float(rng.uniform(-3.0, 3.0))
        lam = float(rng.uniform(0.0, 0.9))
        ops.append(Op(j % len(bodies), {"u": u.tolist(), "alpha": alpha, "lam": lam}))
    return bodies, ops, 280


def _planar(rng):
    bodies = [_body_json(_circle_polygon(rng, _SIZES_2D[i % len(_SIZES_2D)])) for i in range(480)]
    return bodies, [Op(i, {"dirs": 360}) for i in range(len(bodies))], 120


# stream ids are fixed per workload so adding a workload never reseeds another
_BUILDERS = {
    "illum3d": (1, _illum3d, len(_SIZES_3D)),
    "tcvp3d": (2, _tcvp3d, len(_SIZES_3D)),
    "eval3d": (3, _eval3d, len(_SIZES_3D)),
    "planar": (4, _planar, len(_SIZES_2D)),
}

WORKLOADS = tuple(_BUILDERS)


def make_inputs(workload, seed):
    """Inputs of a workload; the same seed always gives the same inputs."""
    stream, build, cycle = _BUILDERS[workload]
    rng = np.random.default_rng([int(seed), stream])
    bodies, ops, checked = build(rng)
    h = hashlib.sha256()
    for text in bodies:
        h.update(text.encode())
        h.update(b"\n")
    for op in ops:
        h.update(json.dumps([op.body, op.params], sort_keys=True).encode())
        h.update(b"\n")
    return Inputs(bodies=tuple(bodies), ops=tuple(ops), cycle=cycle, checked=checked, digest=h.hexdigest())
