"""hullkit imports scipy.spatial on first use, in fresh interpreters.

Importing hullkit loads no scipy module: `bodies` imports scipy.spatial on
the first 3D hull, for qhull, its only use of scipy.  Close points are
merged without scipy, so 2D work never loads it.  Each test runs a script in
a fresh Python process, so that what it loads and the messages of the
first-use paths are seen from a clean `sys.modules`.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hullkit
from hullkit import DegenerateInput, hull, serialize_body
from hullkit.bodies import EPS, _far_apart, _span
from hullkit.sampling import regular_polygon

SRC = str(Path(hullkit.__file__).parents[1])

_SCIPY_LOADED = """
import sys

def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
"""


def run_fresh(*args, stdin=None):
    """Run ``python *args`` in a fresh interpreter that imports hullkit from
    this checkout; returns the completed process."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}
    return subprocess.run(
        [sys.executable, *args], input=stdin, capture_output=True, text=True, env=env, timeout=300
    )


def last_line(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


_TWO_D_WORK = _SCIPY_LOADED + """
import io, json
from contextlib import redirect_stdout

steps = []

def step(name):
    steps.append((name, scipy_loaded()))

import hullkit
step("import hullkit")
import hullkit.cli
step("import hullkit.cli")
from hullkit import (extension_homothety_check, homothety_fit, hull, illumination_body, parse_body,
                     tcvp_check)

path = sys.argv[1]
with open(path) as f:
    body = parse_body(f.read())
step("parse_body")
level = illumination_body(body, 0.5 * body.volume)
step("illumination_body")
homothety_fit(body, level.body)
step("homothety_fit")
tcvp_check(body)
step("tcvp_check")
extension_homothety_check(body, 1, 1)
step("extension_homothety_check")
for argv in (["tcvp", path], ["illum", path, "--delta", "1"], ["search", "--n", "50", "--seed", "7", "--dim", "2"]):
    with redirect_stdout(io.StringIO()):
        code = hullkit.cli.main(argv)
    assert code == 0, argv
    step("hullkit " + argv[0])
hull([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
step("3D hull")
print(json.dumps(steps))
"""


def test_planar_work_loads_no_scipy(tmp_path):
    path = tmp_path / "nonagon.json"
    path.write_text(serialize_body(regular_polygon(9)))
    steps = last_line(run_fresh("-c", _TWO_D_WORK, str(path)))
    *planar, (name, loaded) = steps
    assert [step for step, _ in planar] == [
        "import hullkit", "import hullkit.cli", "parse_body", "illumination_body", "homothety_fit",
        "tcvp_check", "extension_homothety_check", "hullkit tcvp", "hullkit illum", "hullkit search",
    ]
    assert [(step, mods) for step, mods in planar if mods] == []
    assert name == "3D hull" and "scipy.spatial" in loaded


_PARSE_BODY = _SCIPY_LOADED + """
import json
from hullkit import parse_body

with open(sys.argv[1]) as f:
    body = parse_body(f.read())
print(json.dumps([body.vertices.tolist(), scipy_loaded()]))
"""


def test_repeated_vertex_loads_no_scipy(tmp_path):
    # the repeat defeats the sweep proof; it leaves by a sort of the rows,
    # after which the proof holds and the grid pass is not reached
    verts = regular_polygon(9).vertices
    rows = np.vstack((verts[:6], verts[2:3], verts[6:]))
    assert not _far_apart(rows, EPS * _span(rows))
    path = tmp_path / "repeat.json"
    path.write_text(json.dumps({"dim": 2, "vertices": rows.tolist()}))
    assert last_line(run_fresh("-c", _PARSE_BODY, str(path))) == [hull(verts).vertices.tolist(), []]


_HULL_OF_STDIN = _SCIPY_LOADED + """
import json
from hullkit import GeometryError, hull

pts = json.load(sys.stdin)
before = scipy_loaded()
try:
    body = hull(pts)
    result = [body.vertices.tobytes().hex(), body.facet_normals.tobytes().hex(), body.facet_offsets.tobytes().hex()]
except GeometryError as exc:
    result = [type(exc).__name__, str(exc)]
print(json.dumps([before, "scipy.spatial" in sys.modules, result]))
"""


_SYMMETRIC_WORK = _SCIPY_LOADED + """
import itertools, json
from hullkit import hull, illumination_body, tcvp_check
from hullkit.sampling import regular_polygon

body = regular_polygon(64)
hull(body.vertices)
illumination_body(body, 0.5 * body.volume)
tcvp_check(body)
hull(list(itertools.product(range(7), repeat=2)))
print(json.dumps(scipy_loaded()))
"""


def test_symmetric_polygons_and_lattices_load_no_scipy():
    # they repeat their coordinates, but the sweep proof still shows that
    # no two of their points are close, so the grid pass is not reached
    assert last_line(run_fresh("-c", _SYMMETRIC_WORK)) == []


def test_first_close_point_query_dedups_as_in_process():
    # the sweep proof settles the 40 points, but not with a point planted
    # within tol of one of them: the grid pass tells which points coincide,
    # and loads no scipy
    rng = np.random.default_rng(16)
    ang = np.sort(rng.uniform(0.0, 2.0 * np.pi, 40))
    pts = np.column_stack((np.cos(ang), np.sin(ang)))
    assert _far_apart(pts, EPS * _span(pts))
    pts = np.vstack((pts, pts[5] + 0.1 * EPS * _span(pts)))
    assert not _far_apart(pts, EPS * _span(pts))
    body = hull(pts)
    assert len(body) == 40
    before, loaded, result = last_line(run_fresh("-c", _HULL_OF_STDIN, stdin=json.dumps(pts.tolist())))
    assert (before, loaded) == ([], False)
    assert result == [body.vertices.tobytes().hex(), body.facet_normals.tobytes().hex(),
                      body.facet_offsets.tobytes().hex()]


def test_first_3d_hull_names_a_qhull_failure():
    # qhull's call is the first use of scipy, after a sweep proof that
    # settles the points; from about 1e77 on qhull rejects this set
    pts = 1e77 * np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], dtype=float)
    assert _far_apart(pts, EPS * _span(pts))
    with pytest.raises(DegenerateInput) as info:
        hull(pts)
    assert str(info.value).startswith("hull construction failed: QH")
    before, loaded, result = last_line(run_fresh("-c", _HULL_OF_STDIN, stdin=json.dumps(pts.tolist())))
    assert (before, loaded) == ([], True)
    assert result == ["DegenerateInput", str(info.value)]


def test_first_cKDTree_overflow_is_named_by_the_cli(tmp_path):
    # the triangle 2e-150 wide and 3e-155 high builds; its projection
    # body's polar has vertices of ~1e154, whose squared distances the
    # merge refuses with cKDTree's message
    path = tmp_path / "small.json"
    flat = [[-1e-150, -1e-155], [1e-150, -1e-155], [0.0, 2e-155]]
    path.write_text(json.dumps({"dim": 2, "vertices": flat}))
    proc = run_fresh("-m", "hullkit", "projbody", str(path))
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: polar body: coordinates too large: squared distances overflow\n"
