"""Body files (JSON), OFF and SVG exports, and CSV check reports.

JSON is the canonical interchange format:

    {"dim": 2 or 3, "vertices": [[x, y(, z)], ...], "name": optional string}

Vertices are convexified by hull on load; strict mode rejects inputs with
non-extreme points.  Serialization writes shortest-round-trip floats, so
load(serialize(K)) reproduces the vertex set exactly.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

import numpy as np

from .bodies import Polytope3, hull
from .errors import NonConvexInput, SchemaError


def fmt(x):
    """12-significant-digit rendering used for all printed numbers."""
    return format(float(x), ".12g")


@dataclass(frozen=True)
class CheckRow:
    """One line of a report: a named value, its tolerance, and the verdict.

    tolerance/passed are None for purely informational rows.
    """

    name: str
    value: float
    tolerance: float | None
    passed: bool | None


def checks_to_csv(rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["name", "value", "tolerance", "pass"])
    for row in rows:
        writer.writerow([
            row.name,
            fmt(row.value),
            "" if row.tolerance is None else fmt(row.tolerance),
            "" if row.passed is None else ("true" if row.passed else "false"),
        ])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# body JSON


def body_to_dict(body, name=None):
    d = {"dim": body.dim, "vertices": [[float(c) for c in v] for v in body.vertices]}
    if name is not None:
        d["name"] = name
    return d


def serialize_body(body, name=None):
    return json.dumps(body_to_dict(body, name=name), indent=2) + "\n"


def body_from_dict(obj, strict=False):
    if not isinstance(obj, dict):
        raise SchemaError("body file must be a JSON object")
    if "dim" not in obj or "vertices" not in obj:
        raise SchemaError("body file needs 'dim' and 'vertices' fields")
    dim = obj["dim"]
    if dim not in (2, 3):
        raise SchemaError("dim must be 2 or 3")
    verts = obj["vertices"]
    if not isinstance(verts, list) or not verts:
        raise SchemaError("'vertices' must be a non-empty list")
    for row in verts:
        if (
            not isinstance(row, list)
            or len(row) != dim
            or not all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in row)
        ):
            raise SchemaError(f"every vertex must be a list of {dim} numbers")
    if "name" in obj and not isinstance(obj["name"], str):
        raise SchemaError("'name' must be a string")
    try:
        pts = np.asarray(verts, dtype=float)
    except OverflowError as exc:
        raise SchemaError("vertex coordinates must fit in a float") from exc
    body = hull(pts)
    if strict:
        kept = {tuple(v) for v in body.vertices.tolist()}
        extra = [row for row in verts if tuple(float(c) for c in row) not in kept]
        if extra:
            raise NonConvexInput(f"{len(extra)} input points are not extreme (strict mode)")
    return body


def parse_body(text, strict=False):
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # also integers past Python's digit limit, and nesting too deep to decode
        raise SchemaError(f"invalid JSON: {exc}") from exc
    return body_from_dict(obj, strict=strict)


def load_body(path, strict=False):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise SchemaError(f"body file is not UTF-8 text: {exc}") from exc
    return parse_body(text, strict=strict)


def save_body(body, path, name=None):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_body(body, name=name))


# ---------------------------------------------------------------------------
# OFF export (3D viewers)


def off_text(body):
    if not isinstance(body, Polytope3):
        raise SchemaError("OFF export is only defined for 3-polytopes")
    edges = sum(len(loop) for loop in body.facet_loops) // 2
    lines = ["OFF", f"{len(body.vertices)} {len(body.facet_loops)} {edges}"]
    for v in body.vertices:
        lines.append(" ".join(fmt(c) for c in v))
    for loop in body.facet_loops:
        lines.append(" ".join([str(len(loop))] + [str(i) for i in loop]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# SVG export (2D)


def svg_text(filled=(), curves=(), marked=()):
    """Render closed polygonal chains to SVG, 640 units wide.

    filled: (m, 2) arrays drawn as filled polygons (the base bodies);
    curves: arrays drawn as stroked closed curves (level sets, extensions);
    marked: arrays whose points get circle markers (extension vertices).
    The viewBox fits everything drawn plus a 5% margin; y points up.
    """
    chains = [np.asarray(c, dtype=float) for c in (*filled, *curves, *marked)]
    if not chains:
        raise SchemaError("nothing to draw")
    allpts = np.vstack(chains)
    lo = allpts.min(axis=0)
    hi = allpts.max(axis=0)
    span = float(max(hi - lo))
    margin = 0.05 * span
    x0, y0 = lo - margin
    x1, y1 = hi + margin

    def pts_attr(arr):
        return " ".join(f"{fmt(p[0])},{fmt(-p[1])}" for p in arr)

    height = 640 * (y1 - y0) / (x1 - x0)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="640" height="{fmt(height)}" '
        f'viewBox="{fmt(x0)} {fmt(-y1)} {fmt(x1 - x0)} {fmt(y1 - y0)}">'
    ]
    fill_styles = ["#c8d6f0", "#e8d6c0"]
    stroke_styles = ["#c0392b", "#27ae60", "#8e44ad"]
    for i, arr in enumerate(filled):
        parts.append(
            f'<polygon points="{pts_attr(np.asarray(arr, float))}" fill="{fill_styles[i % 2]}" '
            f'stroke="#34495e" stroke-width="{fmt(0.004 * span)}"/>'
        )
    for i, arr in enumerate(curves):
        parts.append(
            f'<polygon points="{pts_attr(np.asarray(arr, float))}" fill="none" '
            f'stroke="{stroke_styles[i % 3]}" stroke-width="{fmt(0.004 * span)}"/>'
        )
    for arr in marked:
        for p in np.asarray(arr, dtype=float):
            parts.append(f'<circle cx="{fmt(p[0])}" cy="{fmt(-p[1])}" r="{fmt(0.01 * span)}" fill="#2c3e50"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
