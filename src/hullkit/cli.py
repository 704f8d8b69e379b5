"""Command-line front end.

Subcommands: eval, illum, projbody, tcvp, extend, search, selftest.  Check
rows go to stdout as CSV (name,value,tolerance,pass); --json writes the full
run report.  Exit codes: 0 success, 1 usage or input error, 2 check failure.
Every file is written before the first line of stdout, and exit 1 leaves
stdout empty and no file created or changed.

All output is deterministic given the same inputs, flags and --seed; no
timestamps or unordered containers are involved.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import acceptance
from .bodies import brightness_many, difference_body, polar
from .errors import GeometryError, MissingIntersection
from .extensions import admissible_extension_pairs, extension_homothety_check, kl_extension
from .fileio import CheckRow, checks_to_csv, fmt, load_body, off_text, serialize_body, svg_text
from .hullfun import convex_hull_function, homothetic_hull_function, point_hull_values, point_hull_volume
from .illumination import HOMOTHETY_TOL, homothety_fit, illumination_body
from .projection import TCVP_TOL, _volume_constant, projection_body, tcvp_check
from .sampling import direction_set, random_polygon


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _parse_vector(text):
    try:
        coords = [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise _UsageError(f"could not parse vector '{text}'") from exc
    if len(coords) not in (2, 3):
        raise _UsageError("vector must have 2 or 3 components")
    return np.array(coords)


def build_parser():
    parser = _Parser(prog="hullkit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def body_command(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("body", help="path to a body JSON file")
        p.add_argument("--strict", action="store_true", help="reject non-extreme input points")
        if name != "eval":  # eval only prints its values
            p.add_argument("--json", dest="json_path", help="write the run report / bodies as JSON")
        return p

    p = body_command("eval", "evaluate the hull-volume functions at a point")
    p.add_argument("--t", required=True, help="translation vector x,y[,z]")
    p.add_argument("--lambda", dest="lam", type=float, default=None, help="homothety ratio in [0,1)")

    p = body_command("illum", "construct the illumination body for a given delta")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--svg", help="write an SVG overlay (2D bodies)")
    p.add_argument("--off", help="write an OFF file (3D bodies)")

    p = body_command("projbody", "projection body, polar projection body and difference body")
    p.add_argument("--off", help="OFF path prefix for the 3D outputs")

    p = body_command("tcvp", "touching-translate constant-volume report")
    p.add_argument("--dirs", type=int, default=360)

    p = body_command("extend", "sideline (k,l)-extension with homothety checks")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--svg", help="write an SVG overlay")

    p = sub.add_parser("search", help="probe random bodies for homothetic level sets")
    p.add_argument("--n", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dim", type=int, choices=(2, 3), default=3)
    p.add_argument("--json", dest="json_path")

    sub.add_parser("selftest", help="run the full acceptance suite")
    return parser


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = build_parser().parse_args(argv)
        args.argv = list(argv)
        return _dispatch(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (GeometryError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main():
    raise SystemExit(main())


def _dispatch(args):
    handler = {
        "eval": _cmd_eval,
        "illum": _cmd_illum,
        "projbody": _cmd_projbody,
        "tcvp": _cmd_tcvp,
        "extend": _cmd_extend,
        "search": _cmd_search,
        "selftest": _cmd_selftest,
    }[args.command]
    return handler(args)


def _load(args):
    """Load the body, then check its --svg and --off flags against its
    dimension, before anything is computed or written."""
    body = load_body(args.body, strict=args.strict)
    for flag, dim in (("svg", 2), ("off", 3)):
        if getattr(args, flag, None) and body.dim != dim:
            raise _UsageError(f"--{flag} is only available for {dim}D bodies")
    return body


def _json_text(payload):
    return json.dumps(payload, indent=2) + "\n"


def _write_files(files):
    """Write each (path, text) pair with ``open(path, "w")``, once every
    target has been opened to append, which creates a missing file and
    changes no other.  A target that cannot be opened (in a missing
    directory, or a directory) so raises before any file has changed, and
    the files created until then are removed."""
    created = []
    try:
        for path, _ in files:
            new = not os.path.exists(path)
            open(path, "a").close()
            if new:
                created.append(path)
    except OSError:
        for path in created:
            os.remove(path)
        raise
    for path, text in files:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _report(args, rows, files=(), extra=None):
    """The one output path of every command that writes files.  Given extra
    fields, the run report (with them) is added to the files to --json;
    then every file is written, and only then are the check rows printed
    as CSV, with a `wrote` line per file."""
    files = list(files)
    if extra is not None and args.json_path:
        files.append((args.json_path, _json_text({
            "command": args.argv,
            "checks": [[r.name, r.value, r.tolerance, r.passed] for r in rows],
            "artifacts": [path for path, _ in files],
            **extra,
        })))
    _write_files(files)
    sys.stdout.write(checks_to_csv(rows))
    for path, _ in files:
        print(f"wrote {path}", file=sys.stderr)


def _cmd_eval(args):
    body = _load(args)
    t = _parse_vector(args.t)
    if len(t) != body.dim:
        raise _UsageError(f"--t must have {body.dim} components for this body")
    # every value is computed before the first line is printed, so a
    # failing one leaves stdout empty
    values = [("convex_hull_function", convex_hull_function(body, t))]
    if args.lam is not None:
        values.append(("homothetic_hull_function", homothetic_hull_function(body, args.lam, t)))
    values.append(("point_hull_volume", point_hull_volume(body, t).value))
    for name, value in values:
        print(f"{name} {fmt(value)}")
    return 0


def _cmd_illum(args):
    body = _load(args)
    level_set = illumination_body(body, args.delta)
    residual = float(
        np.max(np.abs(point_hull_values(body, level_set.body.vertices) - level_set.level))
    ) / level_set.level
    fit = homothety_fit(body, level_set.body)
    rows = [
        CheckRow("illum_vertex_level_residual", residual, 1e-9, residual <= 1e-9),
        CheckRow("illum_homothety_defect", fit.defect, HOMOTHETY_TOL, fit.is_homothet),
        CheckRow("illum_volume", level_set.body.volume, None, None),
    ]
    files = []
    if args.json_path:
        name = f"illumination_delta_{fmt(args.delta)}"
        files.append((args.json_path, serialize_body(level_set.body, name=name)))
    if args.svg:
        files.append((args.svg, svg_text(filled=[body.vertices], curves=[level_set.body.vertices])))
    if args.off:
        files.append((args.off, off_text(level_set.body)))
    _report(args, rows, files)
    return 0


def _cmd_projbody(args):
    body = _load(args)
    projection = projection_body(body)
    named = {
        "projection": projection,
        "polar_projection": polar(projection),
        "difference": difference_body(body),
    }
    files = []
    if args.json_path:
        files += [(f"{args.json_path}.{k}.json", serialize_body(out, name=k)) for k, out in named.items()]
    if args.off:
        files += [(f"{args.off}.{k}.off", off_text(out)) for k, out in named.items()]
    dirs = direction_set(body.dim, 200)
    bright = brightness_many(body, dirs)
    rel = float(np.max(np.abs(projection.support_many(dirs) - bright) / bright))
    _report(args, [CheckRow("projection_support_vs_brightness", rel, 1e-9, rel <= 1e-9)], files)
    return 0


def _cmd_tcvp(args):
    body = _load(args)
    report = tcvp_check(body, args.dirs)
    ctr = _volume_constant(body, report.difference_body, max(args.dirs, 720))
    rows = [
        CheckRow("delta_min", report.delta_min, None, None),
        CheckRow("delta_max", report.delta_max, None, None),
        CheckRow("delta_mean", report.delta_mean, None, None),
        CheckRow("relative_spread", report.relative_spread, TCVP_TOL, report.relative_spread < TCVP_TOL),
        CheckRow(
            "polar_projection_homothety_defect",
            report.polar_projection_homothety.defect,
            HOMOTHETY_TOL,
            report.polar_projection_homothety.is_homothet,
        ),
        CheckRow("tcvp_passes", float(report.passes), None, report.passes),
        CheckRow("translative_volume_constant", ctr, None, None),
    ]
    _report(args, rows, extra={"dirs": args.dirs})
    return 0


def _cmd_extend(args):
    body = load_body(args.body, strict=args.strict)
    if body.dim != 2:
        raise _UsageError("extensions are defined for polygons only")
    report, level_residual = extension_homothety_check(body, args.k, args.l)
    curve = kl_extension(body, args.k, args.l)
    rows = [
        CheckRow("extension_homothety_defect", report.defect, HOMOTHETY_TOL, report.is_homothet),
        CheckRow("extension_level_residual", level_residual, 1e-9, level_residual <= 1e-9),
        CheckRow("extension_ratio", report.ratio, None, None),
    ]
    files = []
    if args.json_path:
        files.append((args.json_path, _json_text({
            "kind": "extension_curve",
            "k": args.k,
            "l": args.l,
            "vertices": [[float(c) for c in v] for v in curve.vertices],
        })))
    if args.svg:
        files.append((args.svg, svg_text(filled=[body.vertices], curves=[curve.vertices], marked=[curve.vertices])))
    _report(args, rows, files)
    return 0


def _cmd_search(args):
    if args.n < 1:
        raise _UsageError("--n must be at least 1")
    if args.dim == 3:
        rows = acceptance.illumination_defect_rows(args.n, seed=args.seed)
        worst = min(r.value for r in rows)
        rows.append(CheckRow("min_defect", worst, 1e-3, worst > 1e-3))
        _report(args, rows, extra={"seed": args.seed, "n": args.n, "dim": args.dim})
        return 0 if worst > 1e-3 else 2
    rng = np.random.default_rng(args.seed)
    rows = []
    for i in range(args.n):
        m = int(rng.integers(7, 13))
        body = random_polygon(rng, m)
        defects = []
        for k, l in admissible_extension_pairs(m):
            try:
                defects.append(extension_homothety_check(body, k, l)[0].defect)
            except MissingIntersection:
                continue  # near-parallel sidelines: that pair has no curve
        best = min(defects) if defects else float("nan")
        rows.append(CheckRow(f"extension_defect_{i:03d}_m{m}", best, None, None))
    worst = min((r.value for r in rows if r.value == r.value), default=float("nan"))
    rows.append(CheckRow("min_defect", worst, None, None))
    _report(args, rows, extra={"seed": args.seed, "n": args.n, "dim": args.dim})
    return 0


def _cmd_selftest(args):
    failures = 0
    for label, rows, passed in acceptance.run_all():
        sys.stdout.write(checks_to_csv(rows))
        print(f"criterion {label}: {'PASS' if passed else 'FAIL'}")
        failures += not passed
    print(f"selftest: {len(acceptance.CRITERIA) - failures}/{len(acceptance.CRITERIA)} criteria passed")
    return 0 if failures == 0 else 2
