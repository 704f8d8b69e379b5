"""The acceptance checks, one function per criterion.

Each criterion returns a list of CheckRow with all tolerances pinned; a
criterion passes when every row does.  tests/test_acceptance.py asserts them
and the `hullkit selftest` subcommand prints them, so the gate and the CLI
report the exact same computations.

Everything here is deterministic: fixed seeds, fixed direction sets.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import extensions as ext
from .bodies import Polygon, brightness, hausdorff_distance, hull, point_body_distances
from .errors import DegenerateInput, SamplingExhausted
from .fileio import CheckRow, body_from_dict, body_to_dict
from .hullfun import (
    convex_hull_function,
    homothetic_hull_function,
    lambda_reduce,
    point_hull_volume,
    point_hull_values,
)
from .illumination import _ray_level_solves, homothety_fit, illumination_body
from .projection import tcvp_check, translative_volume_constant
from .sampling import MAX_TRIES, direction_set, random_polygon, random_polytope3, regular_polygon


def _row(name, value, tol, *, below=True):
    ok = value <= tol if below else value > tol
    return CheckRow(name=name, value=float(value), tolerance=float(tol), passed=bool(ok))


def _random_bodies(seed, n2, n3):
    rng = np.random.default_rng(seed)
    polys = [random_polygon(rng, int(rng.integers(5, 11))) for _ in range(n2)]
    tops = [random_polytope3(rng, int(rng.integers(6, 13))) for _ in range(n3)]
    return polys, tops


def _unit(rng, dim):
    u = rng.normal(size=dim)
    return u / np.linalg.norm(u)


def criterion_1():
    """Translate-hull identity: G(alpha*u) = vol + |alpha| * brightness."""
    rng = np.random.default_rng(101)
    polys, tops = _random_bodies(11, 20, 20)
    errs = {2: 0.0, 3: 0.0}
    for body in polys + tops:
        for _ in range(50):
            u = _unit(rng, body.dim)
            alpha = rng.uniform(-3.0, 3.0)
            g = convex_hull_function(body, alpha * u)
            predicted = body.volume + abs(alpha) * brightness(body, u)
            errs[body.dim] = max(errs[body.dim], abs(g - predicted) / g)
    return [
        _row("eq1_identity_max_rel_err_2d", errs[2], 1e-9),
        _row("eq1_identity_max_rel_err_3d", errs[3], 1e-9),
    ]


def criterion_2():
    """Closed-form point-hull volume against the hull oracle."""
    rng = np.random.default_rng(102)
    polys, tops = _random_bodies(12, 10, 10)
    err = 0.0
    count = 0
    while count < 200:
        body = (polys + tops)[count % 20]
        t = rng.normal(size=body.dim) * rng.uniform(0.1, 3.0)
        closed = point_hull_volume(body, t).value
        oracle = hull(np.vstack((body.vertices, t[None, :]))).volume
        err = max(err, abs(closed - oracle) / oracle)
        count += 1
    return [_row("closed_form_vs_hull_oracle_max_rel_err", err, 1e-9)]


def criterion_3():
    """Reduction of the homothetic hull function to the point form."""
    rng = np.random.default_rng(103)
    polys, tops = _random_bodies(13, 10, 10)
    err = 0.0
    for i in range(100):
        body = (polys + tops)[i % 20]
        lam = rng.uniform(0.0, 0.9)
        t = rng.normal(size=body.dim) * rng.uniform(0.1, 2.0)
        lhs = lambda_reduce(body, lam, t)
        rhs = point_hull_volume(body, t / (1.0 - lam)).value
        err = max(err, abs(lhs - rhs) / rhs)
    square = hull([[1, 1], [-1, 1], [-1, -1], [1, -1]])
    worked = abs(lambda_reduce(square, 0.5, [2.0, 0.0]) - 7.0)
    return [
        _row("lambda_reduction_max_rel_err", err, 1e-9),
        _row("lambda_reduction_square_instance_abs_err", worked, 1e-12),
    ]


def criterion_4():
    """Minimality exactly on the shrunken body: G == vol iff t in (1-lam)K."""
    rng = np.random.default_rng(104)
    polys, tops = _random_bodies(14, 5, 5)
    mis = 0
    for body in polys + tops:
        lam = rng.uniform(0.1, 0.8)
        shrunk = body.scale(1.0 - lam)
        for _ in range(500):
            u = _unit(rng, body.dim)
            scale = rng.uniform(0.3, 0.95) if rng.random() < 0.5 else rng.uniform(1.05, 1.7)
            t = scale * shrunk.gauge(u) * u
            inside = shrunk.contains(t)
            minimal = homothetic_hull_function(body, lam, t) <= body.volume * (1 + 1e-12)
            mis += inside != minimal
    return [_row("minimal_set_misclassifications", mis, 0, below=True)]


def criterion_5():
    """Exact illumination bodies plus the ray-oracle boundary check."""
    square = hull([[1, 1], [-1, 1], [-1, -1], [1, -1]])
    octagon = illumination_body(square, 1.0).body
    expected8 = hull(
        [[1, 2], [-1, 2], [1, -2], [-1, -2], [2, 1], [-2, 1], [2, -1], [-2, -1]]
    )
    err_sq = hausdorff_distance(octagon, expected8)

    cube = hull([[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)])
    got24 = illumination_body(cube, 4.0 / 3.0).body
    pts24 = set()
    for perm in set(itertools.permutations((1, 1, 2))):
        for signs in itertools.product((1, -1), repeat=3):
            pts24.add(tuple(s * c for s, c in zip(signs, perm)))
    expected24 = hull(np.array(sorted(pts24), dtype=float))
    err_cube = hausdorff_distance(got24, expected24)

    rng = np.random.default_rng(105)
    polys, tops = _random_bodies(15, 10, 10)
    worst = 0.0
    for body in polys + tops:
        delta = rng.uniform(0.2, 1.0) * body.volume
        level_set = illumination_body(body, delta)
        dirs = direction_set(body.dim, 60 if body.dim == 2 else 100)
        taus = _ray_level_solves(body, dirs, level_set.level)
        gaps = point_body_distances(taus[:, None] * dirs, level_set.body)
        worst = max(worst, float((gaps / level_set.body.diameter).max()))
    return [
        _row("illum_square_octagon_hausdorff", err_sq, 1e-9),
        _row("illum_cube_24point_hausdorff", err_cube, 1e-9),
        _row("illum_ray_oracle_max_rel_gap", worst, 1e-7),
    ]


def criterion_6():
    """TCVP spread and polar-projection homothety agree body by body."""
    rng = np.random.default_rng(20)
    bodies = {
        "equilateral_triangle": regular_polygon(3),
        "regular_hexagon": regular_polygon(6),
        "regular_tetrahedron": hull([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]),
        "cube": hull([[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]),
        "random_7gon": random_polygon(rng, 7),
    }
    should_pass = {"equilateral_triangle", "regular_hexagon", "regular_tetrahedron"}
    rows = []
    verdicts_agree = True
    for name, body in bodies.items():
        report = tcvp_check(body, 360)
        defect = report.polar_projection_homothety.defect
        if name in should_pass:
            rows.append(_row(f"tcvp_{name}_spread", report.relative_spread, 1e-6))
            rows.append(_row(f"tcvp_{name}_defect", defect, 1e-6))
        else:
            rows.append(_row(f"tcvp_{name}_spread", report.relative_spread, 0.05, below=False))
            rows.append(_row(f"tcvp_{name}_defect", defect, 0.05, below=False))
        verdicts_agree &= (report.relative_spread < 1e-6) == (defect < 1e-6)
    rows.append(CheckRow("tcvp_verdicts_agree", float(verdicts_agree), None, bool(verdicts_agree)))
    return rows


def criterion_7():
    """Sharpness of the touching-translate volume bound."""
    rng = np.random.default_rng(107)
    disk = regular_polygon(512)
    square = hull([[1, 1], [-1, 1], [-1, -1], [1, -1]])
    bound = 1.0 + 4.0 / np.pi
    rows = [
        _row("ctr_512gon_disk_abs_err", abs(translative_volume_constant(disk) - bound), 1e-3),
        _row("ctr_square_abs_err", abs(translative_volume_constant(square) - 3.0), 1e-9),
    ]
    tested = [disk, square, regular_polygon(3), regular_polygon(6), hull([[0, 0], [1, 0], [0, 1]])]
    tested += [random_polygon(rng, int(rng.integers(5, 11))) for _ in range(10)]
    worst = min(translative_volume_constant(b) for b in tested)
    rows.append(_row("ctr_2d_lower_bound_margin", bound - 1e-3 - worst, 0.0))
    return rows


def illumination_defect_rows(n, seed):
    """Homothety defects of illumination bodies over seeded random 3-polytopes,
    at delta = 0.05, 0.5 and 2 times the volume.

    Shared by acceptance criterion 8 and the `search` CLI subcommand; rows are
    emitted in instance order so reports are byte-reproducible.
    """
    rng = np.random.default_rng(seed)
    bodies = ((f"random_{i:03d}", random_polytope3(rng, int(rng.integers(6, 13)))) for i in range(n))
    return _illumination_defects(bodies)


def _illumination_defects(bodies):
    rows = []
    for name, body in bodies:
        for factor in (0.05, 0.5, 2.0):
            level_set = illumination_body(body, factor * body.volume)
            defect = homothety_fit(body, level_set.body).defect
            rows.append(_row(f"illum_defect_{name}_f{factor:g}", defect, 1e-3, below=False))
    return rows


def criterion_8():
    """No 3-polytope has a homothetic illumination body (empirical probe)."""
    named = [("tetrahedron", hull([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]])),
             ("cube", hull([[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]))]
    rows = _illumination_defects(named) + illumination_defect_rows(200, seed=7)
    worst = min(r.value for r in rows)
    return [_row("illum_3d_min_homothety_defect", worst, 1e-3, below=False)]


def criterion_9():
    """Extensions of affinely regular m-gons are homothetic level curves."""
    rng = np.random.default_rng(109)
    rows = []
    worst_defect = 0.0
    worst_level = 0.0
    worst_haus = 0.0
    worst_perturbed = np.inf
    for m in range(7, 13):
        for _ in range(3):
            mat = _well_conditioned_matrix(rng)
            shift = rng.normal(size=2)
            body = ext.affinely_regular_polygon(m, mat, shift)
            report, level_residual = ext.extension_homothety_check(body, 1, 1)
            worst_defect = max(worst_defect, report.defect)
            worst_level = max(worst_level, level_residual)

            curve = ext.kl_extension(body, 1, 1)
            level = float(np.mean(point_hull_values(body, curve.vertices)))
            level_set = illumination_body(body, level - body.volume)
            worst_haus = max(worst_haus, hausdorff_distance(hull(curve.vertices), level_set.body))

            noisy = _perturbed_polygon(rng, body, 0.01)
            noisy_report, _ = ext.extension_homothety_check(noisy, 1, 1)
            worst_perturbed = min(worst_perturbed, noisy_report.defect)
    rows.append(_row("extension_max_homothety_defect", worst_defect, 1e-9))
    rows.append(_row("extension_max_level_residual", worst_level, 1e-9))
    rows.append(_row("extension_vs_illumination_hausdorff", worst_haus, 1e-7))
    rows.append(_row("extension_perturbed_min_defect", worst_perturbed, 1e-3, below=False))
    return rows


def _well_conditioned_matrix(rng):
    theta, phi = rng.uniform(0, 2 * np.pi, size=2)
    c1, s1 = np.cos(theta), np.sin(theta)
    c2, s2 = np.cos(phi), np.sin(phi)
    rot1 = np.array([[c1, -s1], [s1, c1]])
    rot2 = np.array([[c2, -s2], [s2, c2]])
    return rot1 @ np.diag(rng.uniform(0.5, 2.0, size=2)) @ rot2


def _perturbed_polygon(rng, body, rel_noise):
    scale = rel_noise * body.diameter
    for _ in range(MAX_TRIES):
        try:
            return Polygon(body.vertices + rng.normal(size=body.vertices.shape) * scale)
        except DegenerateInput:
            continue
    raise SamplingExhausted("no convex perturbation of the polygon found")


def criterion_10():
    """Affine-regularity ratio: golden ratio on the pentagon, shear invariant."""
    pentagon = regular_polygon(5)
    tau = ext.is_affinely_regular(pentagon).tau
    sheared = ext.affinely_regular_polygon(5, np.array([[1.0, 1.0], [0.0, 1.0]]))
    tau_sheared = ext.is_affinely_regular(sheared).tau
    return [
        _row("regularity_pentagon_tau_abs_err", abs(tau - 1.6180339887), 1e-9),
        _row("regularity_shear_invariance", abs(tau - tau_sheared), 1e-9),
    ]


def criterion_11():
    """CLI determinism and exact JSON round-trips."""
    import io
    import json
    import tempfile
    from contextlib import redirect_stderr, redirect_stdout
    from pathlib import Path

    from .cli import main

    outputs = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "report.json"
        for _ in range(2):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(["search", "--n", "50", "--seed", "7", "--json", str(path)])
            outputs.append((code, out.getvalue(), err.getvalue(), path.read_bytes()))
    identical = outputs[0][1:] == outputs[1][1:] and outputs[0][0] == outputs[1][0] == 0

    polys, tops = _random_bodies(16, 5, 5)
    exact = True
    for body in polys + tops:
        reparsed = body_from_dict(json.loads(json.dumps(body_to_dict(body))))
        exact &= {tuple(v) for v in reparsed.vertices.tolist()} == {
            tuple(v) for v in body.vertices.tolist()
        }
    return [
        CheckRow("cli_search_byte_identical", float(identical), None, bool(identical)),
        CheckRow("json_round_trip_exact", float(exact), None, bool(exact)),
    ]


CRITERIA = [
    ("1 translate-hull identity", criterion_1),
    ("2 closed form vs hull oracle", criterion_2),
    ("3 lambda reduction", criterion_3),
    ("4 minimal-set law", criterion_4),
    ("5 illumination-body exactness", criterion_5),
    ("6 tcvp equivalence", criterion_6),
    ("7 translative volume constant sharpness", criterion_7),
    ("8 no homothetic illumination body in 3d", criterion_8),
    ("9 planar extension homothety", criterion_9),
    ("10 affine regularity ratio", criterion_10),
    ("11 cli determinism and round-trip", criterion_11),
]


def run_all():
    """Run every criterion; yields (label, rows, passed)."""
    for label, fn in CRITERIA:
        rows = fn()
        passed = all(r.passed is not False for r in rows)
        yield label, rows, passed
