"""The four workloads: what one operation calls, how it is checked, and how
its output is rendered for the output digest.

``run`` functions call the program only, always through module attributes
(``illumination.illumination_body``, not a name bound at import), so that the
traced run sees them once ``spans.Tracer`` rebinds those attributes.
``check`` runs after each op, outside its timing; it returns the reasons the
op failed, at the tolerances the CLI and the acceptance suite pin.
``render`` gives every reported value with ``fileio.fmt`` (12 significant
digits).
"""

from __future__ import annotations

import numpy as np

from hullkit import bodies, extensions, hullfun, illumination, projection
from hullkit.errors import MissingIntersection
from hullkit.fileio import fmt
from hullkit.sampling import direction_set

from inputs import DELTA_FACTORS

LEVEL_RESIDUAL_TOL = 1e-9  # `hullkit illum`: illum_vertex_level_residual
MIN_DEFECT_3D = 1e-3  # criterion 8 and `hullkit search`: min_defect
SUPPORT_TOL = 1e-9  # `hullkit projbody`: projection_support_vs_brightness
IDENTITY_TOL = 1e-9  # criteria 1 and 3
_PROJBODY_DIRS = 200  # as in `hullkit projbody`


def _illuminate(body):
    out = []
    for factor in DELTA_FACTORS:
        level_set = illumination.illumination_body(body, factor * body.volume)
        out.append((level_set, illumination.homothety_fit(body, level_set.body)))
    return out


def _check_illuminated(body, illuminated, min_defect):
    problems = []
    for level_set, fit in illuminated:
        vals = hullfun.point_hull_values(body, level_set.body.vertices)
        residual = float(np.max(np.abs(vals - level_set.level))) / level_set.level
        if not residual <= LEVEL_RESIDUAL_TOL:
            problems.append(f"delta {level_set.delta}: vertex level residual {residual:.3g}")
        if min_defect is not None and not fit.defect > min_defect:
            problems.append(f"delta {level_set.delta}: homothety defect {fit.defect:.3g}")
    return problems


def _render_illuminated(illuminated):
    return [
        v
        for level_set, fit in illuminated
        for v in (fmt(level_set.level), fmt(level_set.body.volume), str(len(level_set.body)),
                  fmt(fit.defect), fmt(fit.ratio))
    ]


def _render_tcvp(report):
    fit = report.polar_projection_homothety
    return [fmt(report.delta_min), fmt(report.delta_max), fmt(report.delta_mean),
            fmt(report.relative_spread), fmt(fit.defect), fmt(fit.ratio)]


# ---------------------------------------------------------------------------
# illum3d


def run_illum3d(body, params):
    return _illuminate(body)


def check_illum3d(body, params, result):
    return _check_illuminated(body, result, MIN_DEFECT_3D)


def render_illum3d(result):
    return _render_illuminated(result)


# ---------------------------------------------------------------------------
# tcvp3d


def run_tcvp3d(body, params):
    return projection.tcvp_check(body, params["dirs"]), projection.projection_body(body)


def check_tcvp3d(body, params, result):
    _, proj = result
    dirs = direction_set(body.dim, _PROJBODY_DIRS)
    bright = bodies.brightness_many(body, dirs)
    rel = float(np.max(np.abs(proj.support_many(dirs) - bright) / bright))
    return [] if rel <= SUPPORT_TOL else [f"projection support vs brightness {rel:.3g}"]


def render_tcvp3d(result):
    report, proj = result
    return _render_tcvp(report) + [fmt(proj.volume), str(len(proj))]


# ---------------------------------------------------------------------------
# eval3d


def _translation(params):
    return params["alpha"] * np.asarray(params["u"])


def run_eval3d(body, params):
    t = _translation(params)
    return (hullfun.convex_hull_function(body, t),
            hullfun.homothetic_hull_function(body, params["lam"], t))


def check_eval3d(body, params, result):
    g, g_lam = result
    problems = []
    # criterion 1: G(alpha u) = vol + |alpha| brightness(u)
    predicted = body.volume + abs(params["alpha"]) * bodies.brightness(body, params["u"])
    err = abs(g - predicted) / g
    if not err <= IDENTITY_TOL:
        problems.append(f"translate-hull identity error {err:.3g}")
    # criterion 3: (G_lam - lam^n vol) / (1 - lam^n) = point hull volume at t / (1 - lam)
    lam, n = params["lam"], body.dim
    reduced = (g_lam - lam**n * body.volume) / (1.0 - lam**n)
    point = hullfun.point_hull_volume(body, _translation(params) / (1.0 - lam)).value
    err = abs(reduced - point) / point
    if not err <= IDENTITY_TOL:
        problems.append(f"lambda reduction error {err:.3g}")
    return problems


def render_eval3d(result):
    return [fmt(v) for v in result]


# ---------------------------------------------------------------------------
# planar


def run_planar(body, params):
    illuminated = _illuminate(body)
    pairs = []
    for k, l in extensions.admissible_extension_pairs(len(body)):
        try:
            pairs.append(extensions.extension_homothety_check(body, k, l))
        except MissingIntersection:
            pairs.append(None)  # parallel sidelines: a skipped pair, as in `search`
    return illuminated, pairs, projection.tcvp_check(body, params["dirs"])


def check_planar(body, params, result):
    return _check_illuminated(body, result[0], None)


def render_planar(result):
    illuminated, pairs, report = result
    out = _render_illuminated(illuminated)
    for pair in pairs:
        if pair is None:
            out.append("skipped")
        else:
            fit, level_residual = pair
            out += [fmt(fit.defect), fmt(fit.ratio), fmt(level_residual)]
    return out + _render_tcvp(report)


WORKLOADS = {
    "illum3d": (run_illum3d, check_illum3d, render_illum3d),
    "tcvp3d": (run_tcvp3d, check_tcvp3d, render_tcvp3d),
    "eval3d": (run_eval3d, check_eval3d, render_eval3d),
    "planar": (run_planar, check_planar, render_planar),
}
