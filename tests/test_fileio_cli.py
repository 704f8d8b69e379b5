import io
import json
import os
import subprocess
import sys
import tempfile
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hullkit
from hullkit import (
    DegenerateInput,
    NonConvexInput,
    SchemaError,
    brightness_many,
    difference_body,
    extension_homothety_check,
    homothety_fit,
    hull,
    illumination_body,
    kl_extension,
    load_body,
    parse_body,
    point_hull_values,
    polar_projection_body,
    projection_body,
    serialize_body,
    tcvp_check,
    translative_volume_constant,
)
from hullkit import projection
from hullkit.acceptance import illumination_defect_rows
from hullkit.cli import main
from hullkit.extensions import admissible_extension_pairs
from hullkit.fileio import CheckRow, checks_to_csv, off_text, svg_text
from hullkit.sampling import direction_set, random_polygon, random_polytope3, regular_polygon


def run_cli(args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


class TestParseBody:
    def test_square(self):
        body = parse_body('{"dim":2,"vertices":[[1,1],[-1,1],[-1,-1],[1,-1]]}')
        assert body.dim == 2
        assert body.volume == 4.0

    def test_cube_merges_facets(self):
        verts = [[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]
        body = parse_body(json.dumps({"dim": 3, "vertices": verts}))
        assert len(body.facet_loops) == 6

    def test_degenerate(self):
        with pytest.raises(DegenerateInput):
            parse_body('{"dim":2,"vertices":[[0,0],[1,0]]}')

    def test_schema_errors(self):
        with pytest.raises(SchemaError):
            parse_body("not json")
        with pytest.raises(SchemaError):
            parse_body('{"vertices":[[0,0],[1,0],[0,1]]}')
        with pytest.raises(SchemaError):
            parse_body('{"dim":4,"vertices":[[0,0,0,0]]}')
        with pytest.raises(SchemaError):
            parse_body('{"dim":2,"vertices":[[0,0],[1,0],[0,"x"]]}')

    def test_non_strict_convexifies(self):
        body = parse_body('{"dim":2,"vertices":[[0,0],[1,0],[0,1],[0.2,0.2]]}')
        assert len(body) == 3

    def test_strict_rejects_interior_points(self):
        with pytest.raises(NonConvexInput):
            parse_body('{"dim":2,"vertices":[[0,0],[1,0],[0,1],[0.2,0.2]]}', strict=True)

    def test_round_trip_exact(self):
        rng = np.random.default_rng(50)
        for body in (random_polygon(rng, 8), random_polytope3(rng, 10)):
            again = parse_body(serialize_body(body, name="probe"), strict=True)
            assert {tuple(v) for v in again.vertices.tolist()} == {
                tuple(v) for v in body.vertices.tolist()
            }


class TestWriters:
    def test_off_format(self, cube):
        text = off_text(cube)
        lines = text.splitlines()
        assert lines[0] == "OFF"
        v, f, e = map(int, lines[1].split())
        assert (v, f, e) == (8, 6, 12)
        assert len(lines) == 2 + v + f

    def test_svg_contains_layers(self, square):
        curve = regular_polygon(8).scale(2.0)
        text = svg_text(filled=[square.vertices], curves=[curve.vertices], marked=[curve.vertices])
        assert text.startswith("<svg")
        assert text.count("<polygon") == 2
        assert text.count("<circle") == 8
        assert "viewBox" in text

    def test_csv_format(self):
        rows = [CheckRow("a", 1.5, 1e-9, True), CheckRow("b", 2.0, None, None)]
        text = checks_to_csv(rows)
        assert text.splitlines()[0] == "name,value,tolerance,pass"
        assert text.splitlines()[1] == "a,1.5,1e-09,true"
        assert text.splitlines()[2] == "b,2,,"


class TestCli:
    @pytest.fixture
    def square_file(self, tmp_path):
        path = tmp_path / "square.json"
        path.write_text('{"dim":2,"vertices":[[1,1],[-1,1],[-1,-1],[1,-1]]}')
        return str(path)

    @pytest.fixture
    def cube_file(self, tmp_path):
        verts = [[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]
        path = tmp_path / "cube.json"
        path.write_text(json.dumps({"dim": 3, "vertices": verts}))
        return str(path)

    def test_eval_prints_values(self, square_file):
        code, out, _ = run_cli(["eval", square_file, "--lambda", "0.5", "--t", "2,0"])
        assert code == 0
        assert "homothetic_hull_function 6.25" in out

    def test_python_m_hullkit_runs_the_cli(self, square_file):
        src = str(Path(hullkit.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        argv = ["eval", square_file, "--t", "1,0"]
        proc = subprocess.run([sys.executable, "-m", "hullkit", *argv], capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stdout, proc.stderr) == run_cli(argv)
        assert proc.stdout.startswith("convex_hull_function 6\n")

    def test_illum_square_octagon(self, square_file, tmp_path):
        out_json = tmp_path / "oct.json"
        out_svg = tmp_path / "oct.svg"
        code, out, _ = run_cli(
            ["illum", square_file, "--delta", "1", "--json", str(out_json), "--svg", str(out_svg)]
        )
        assert code == 0
        body = parse_body(out_json.read_text())
        expected = {(1, 2), (-1, 2), (1, -2), (-1, -2), (2, 1), (-2, 1), (2, -1), (-2, -1)}
        assert {tuple(np.round(v, 9)) for v in body.vertices} == expected
        assert out_svg.read_text().startswith("<svg")

    def test_illum_cube_off(self, cube_file, tmp_path):
        out_off = tmp_path / "c.off"
        code, out, _ = run_cli(["illum", cube_file, "--delta", "1.3333", "--off", str(out_off)])
        assert code == 0
        assert out_off.read_text().startswith("OFF")

    def test_tcvp_cube_fails_but_exits_zero(self, cube_file):
        code, out, _ = run_cli(["tcvp", cube_file])
        assert code == 0
        assert "tcvp_passes,0,,false" in out

    def test_tcvp_far_from_the_origin(self, square_file, tmp_path):
        # the square offset by 1e9 built with area 0.0, and tcvp died in a
        # ZeroDivisionError; now it reports what the square at the origin does
        path = tmp_path / "far.json"
        path.write_text(json.dumps({"dim": 2, "vertices": (np.array([[1, 1], [-1, 1], [-1, -1], [1, -1]]) + 1e9).tolist()}))
        assert parse_body(path.read_text()).volume == 4.0
        code, out, err = run_cli(["tcvp", str(path)])
        assert (code, err) == (0, "")
        assert out == run_cli(["tcvp", square_file])[1]

    def test_extend_heptagon(self, tmp_path):
        path = tmp_path / "hep.json"
        from hullkit import save_body

        save_body(regular_polygon(7), str(path))
        code, out, _ = run_cli(["extend", str(path), "--k", "1", "--l", "1"])
        assert code == 0
        assert "extension_homothety_defect" in out

    def test_extend_condition_violated_is_input_error(self, tmp_path):
        path = tmp_path / "tri.json"
        from hullkit import save_body

        save_body(regular_polygon(3), str(path))
        code, _, err = run_cli(["extend", str(path), "--k", "1", "--l", "1"])
        assert code == 1
        assert "k + l + 1" in err

    def test_projbody_writes_files(self, cube_file, tmp_path):
        prefix = str(tmp_path / "cube")
        code, out, _ = run_cli(["projbody", cube_file, "--json", prefix])
        assert code == 0
        for suffix in ("projection", "polar_projection", "difference"):
            assert (tmp_path / f"cube.{suffix}.json").exists()

    def test_projbody_outputs_match_api_bodies(self, tetrahedron, tmp_path):
        body_file = tmp_path / "tet.json"
        body_file.write_text(serialize_body(tetrahedron))
        prefix = str(tmp_path / "tet")
        code, out, _ = run_cli(["projbody", str(body_file), "--json", prefix, "--off", prefix])
        assert code == 0
        named = {
            "projection": projection_body(tetrahedron),
            "polar_projection": polar_projection_body(tetrahedron),
            "difference": difference_body(tetrahedron),
        }
        for suffix, expected in named.items():
            assert (tmp_path / f"tet.{suffix}.json").read_text() == serialize_body(expected, name=suffix)
            assert (tmp_path / f"tet.{suffix}.off").read_text() == off_text(expected)
        dirs = direction_set(3, 200)
        bright = brightness_many(tetrahedron, dirs)
        rel = float(np.max(np.abs(named["projection"].support_many(dirs) - bright) / bright))
        assert out == checks_to_csv([CheckRow("projection_support_vs_brightness", rel, 1e-9, rel <= 1e-9)])

    def test_search_deterministic(self, tmp_path):
        path = tmp_path / "report.json"
        a = run_cli(["search", "--n", "4", "--seed", "3", "--json", str(path)])
        first = path.read_bytes()
        b = run_cli(["search", "--n", "4", "--seed", "3", "--json", str(path)])
        second = path.read_bytes()
        assert a[0] == b[0] == 0
        assert a[1] == b[1]
        assert first == second

    def test_search_2d(self):
        code, out, _ = run_cli(["search", "--n", "2", "--seed", "5", "--dim", "2"])
        assert code == 0
        assert "min_defect" in out

    def test_usage_errors_exit_one(self, square_file):
        assert run_cli(["eval", square_file, "--t", "nope"])[0] == 1
        assert run_cli(["nonsense"])[0] == 1
        assert run_cli(["eval", "missing.json", "--t", "1,0"])[0] == 1

    def test_tcvp_too_few_dirs_is_input_error(self, cube_file):
        code, out, err = run_cli(["tcvp", cube_file, "--dirs", "5"])
        assert (code, out) == (1, "")
        assert err.startswith("error:")

    @pytest.mark.parametrize("delta", ["nan", "inf", "-inf", "0"])
    def test_illum_rejects_non_finite_or_non_positive_delta(self, square_file, cube_file, delta):
        for path in (square_file, cube_file):
            code, out, err = run_cli(["illum", path, f"--delta={delta}"])
            assert (code, out) == (1, "")
            assert err.startswith("error:")

    @pytest.mark.parametrize("dim", ["2", "3"])
    def test_search_needs_at_least_one_body(self, dim):
        code, out, err = run_cli(["search", "--n", "0", "--dim", dim])
        assert (code, out) == (1, "")
        assert err.startswith("usage error:")

    def test_eval_failure_prints_nothing(self, tmp_path):
        # the origin is outside this square, so the homothetic value fails
        # after the translate value could have been printed
        path = tmp_path / "shifted.json"
        path.write_text('{"dim":2,"vertices":[[5,5],[7,5],[7,7],[5,7]]}')
        code, out, err = run_cli(["eval", str(path), "--t", "1,0", "--lambda", "0.5"])
        assert (code, out) == (1, "")
        assert err.startswith("error:")

    @pytest.mark.parametrize("scale", [1e154, 1e200, 1e300])
    def test_huge_coordinates_are_input_errors(self, tmp_path, scale):
        square = [[scale * x, scale * y] for x, y in ((1, 1), (-1, 1), (-1, -1), (1, -1))]
        cube = [[scale * x, scale * y, scale * z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]
        for verts, t in ((square, "1,0"), (cube, "1,0,0")):
            path = tmp_path / "huge.json"
            path.write_text(json.dumps({"dim": len(t.split(",")), "vertices": verts}))
            for args in (["eval", str(path), "--t", t], ["tcvp", str(path)], ["illum", str(path), "--delta", "1"]):
                code, out, err = run_cli(args)
                assert (code, out) == (1, "")
                assert err.startswith("error:")

    def test_tiny_coordinates_are_input_errors(self, tmp_path):
        # at 1e-200 every squared distance underflows to 0; at 1e-160 they
        # resolve, but the heptagon's squared edge lengths are subnormal, as
        # are the squared Newell norms of the 5-point set at 1e-78; at 2^-507
        # the heptagon builds and illum and extend succeed
        heptagon = regular_polygon(7).vertices
        simplex_plus = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]
        commands = (["illum", "--delta", "1e-320"], ["tcvp"], ["extend", "--k", "1", "--l", "1"], ["projbody"])
        for verts, message in (
            (1e-200 * heptagon, "squared distances underflow"),
            (1e-200 * np.array(simplex_plus, dtype=float), "squared distances underflow"),
            (1e-160 * heptagon, "squared edge lengths underflow"),
            (1e-78 * np.array(simplex_plus, dtype=float), "squared facet normals underflow"),
        ):
            path = tmp_path / "tiny.json"
            path.write_text(json.dumps({"dim": verts.shape[1], "vertices": verts.tolist()}))
            for command in commands:
                code, out, err = run_cli([command[0], str(path), *command[1:]])
                assert (code, out) == (1, "")
                assert err == f"error: coordinates too small: {message}\n"
        path = tmp_path / "small.json"
        path.write_text(json.dumps({"dim": 2, "vertices": (2.0**-507 * heptagon).tolist()}))
        for command in commands[0], commands[2]:
            code, out, err = run_cli([command[0], str(path), *command[1:]])
            assert (code, err) == (0, "")

    @pytest.mark.parametrize("k", [-510, -516, -520, -530])
    def test_tiny_heptagon_illum_warns_nowhere(self, tmp_path, k):
        # at 2^-510 the heptagon builds, and delta = 4096 puts the level so
        # far beyond it that the outer crossings' squares overflow; the
        # level set's merge then names the overflow and the body.  From
        # 2^-511 on its squared edge lengths are subnormal, which Polygon
        # names on load
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({"dim": 2, "vertices": (2.0**k * regular_polygon(7).vertices).tolist()}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            results = [run_cli(["illum", str(path), "--delta", delta]) for delta in ("0.5", "4096")]
        assert [str(w.message) for w in caught] == []
        if k == -510:
            assert results[0][::2] == (0, "")
            message = "error: illumination body: coordinates too large: squared distances overflow\n"
            assert results[1] == (1, "", message)
        else:
            for result in results:
                assert result == (1, "", "error: coordinates too small: squared edge lengths underflow\n")

    def test_eval_on_many_repeated_rows(self, tmp_path):
        # 20 000 copies of one point inside a triangle: keep-first drops the
        # copies after one sort of the rows, not over their n^2 / 2 pairs
        path = tmp_path / "repeats.json"
        rows = [[0.25, 0.25]] * 20000 + [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
        path.write_text(json.dumps({"dim": 2, "vertices": rows}))
        start = time.perf_counter()
        code, out, err = run_cli(["eval", str(path), "--t", "0.5,0.5"])
        assert time.perf_counter() - start < 5.0
        assert (code, err) == (0, "")
        triangle = tmp_path / "triangle.json"
        triangle.write_text(json.dumps({"dim": 2, "vertices": rows[-3:]}))
        assert out == run_cli(["eval", str(triangle), "--t", "0.5,0.5"])[1]

    def test_extent_overflow_is_one_line_error(self, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"dim": 2, "vertices": [[1e308, 0], [-1e308, 0], [0, 1e308]]}))
        src = str(Path(hullkit.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        proc = subprocess.run([sys.executable, "-m", "hullkit", "tcvp", str(path)], capture_output=True, text=True,
                              env=env)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "error: coordinates too large: squared distances overflow\n"

    def test_memory_error_is_one_line_error(self, tmp_path, monkeypatch):
        # what numpy raises when a direction set of 10^11 rows cannot be
        # allocated; no array is allocated here
        def refuse(dim, n):
            raise MemoryError(f"Unable to allocate an array of {n} directions")

        monkeypatch.setattr(projection, "direction_set", refuse)
        path = tmp_path / "square.json"
        path.write_text(serialize_body(hull([[1, 1], [-1, 1], [-1, -1], [1, -1]])))
        code, out, err = run_cli(["tcvp", str(path), "--dirs", "100000000000"])
        assert (code, out) == (1, "")
        assert err == "error: Unable to allocate an array of 100000000000 directions\n"

    def test_body_emptied_by_sliver_removal_is_one_line_error(self, tmp_path):
        # bodies whose sliver test once dropped every vertex: the test keeps
        # them, and the facet normals' underflow is the one line
        five = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]) * 1e-85
        commands = (["eval", "--t", "0,0,0"], ["illum", "--delta", "1e-250"], ["tcvp"],
                    ["extend", "--k", "1", "--l", "1"], ["projbody"])
        for verts in (random_polytope3(np.random.default_rng(0), 9).vertices * 2.0**-276, five):
            path = tmp_path / "tiny.json"
            path.write_text(json.dumps({"dim": 3, "vertices": verts.tolist()}))
            for command in commands:
                code, out, err = run_cli([command[0], str(path), *command[1:]])
                assert (code, out, err) == (1, "", "error: coordinates too small: squared facet normals underflow\n")

    @pytest.mark.parametrize("scale", [5e-3, 1e-3, 1e-7])
    def test_small_cube_has_a_projection_body(self, tmp_path, scale):
        path = tmp_path / "small.json"
        cube = [[scale * x, scale * y, scale * z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]
        path.write_text(json.dumps({"dim": 3, "vertices": cube}))
        for command in ("tcvp", "projbody"):
            code, out, err = run_cli([command, str(path)])
            assert (code, err) == (0, "")

    def test_projection_body_overflow_is_one_line_error(self, tmp_path):
        path = tmp_path / "big.json"
        cube = [[1e40 * x, 1e40 * y, 1e40 * z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]
        path.write_text(json.dumps({"dim": 3, "vertices": cube}))
        for command in ("tcvp", "projbody"):
            code, out, err = run_cli([command, str(path)])
            assert (code, out) == (1, "")
            assert err.startswith("error: projection body: generator cross products overflow")
            assert err.count("\n") == 1

    def test_projection_body_underflow_is_named(self, tmp_path):
        # bodies that build, whose zonotopes' squared facet normals underflow;
        # `tcvp` builds no zonotope and reports the defect of the unit-scale
        # body
        rng = np.random.default_rng(1)
        cube = [[x, y, z] for x in (-1.0, 1.0) for y in (-1.0, 1.0) for z in (-1.0, 1.0)]
        cases = [(random_polytope3(rng, 8).vertices, -126), (random_polytope3(rng, 9).vertices, -126),
                 (np.array(cube), -130)]
        path = tmp_path / "body.json"

        def defect_row(vertices):
            path.write_text(json.dumps({"dim": 3, "vertices": vertices.tolist()}))
            code, out, err = run_cli(["tcvp", str(path)])
            assert (code, err) == (0, "")
            return [line for line in out.splitlines() if line.startswith("polar_projection_homothety_defect,")]

        for vertices, k in cases:
            unit = defect_row(vertices)
            assert len(unit) == 1
            assert defect_row(2.0**k * vertices) == unit
            code, out, err = run_cli(["projbody", str(path)])
            assert (code, out) == (1, "")
            assert err == "error: projection body: coordinates too small: squared facet normals underflow\n"

    def test_polar_body_out_of_range_is_named(self, tmp_path):
        # the triangle 2e-150 wide and 3e-155 high builds, and the vertices
        # n/b of its projection body's polar are ~1e154
        path = tmp_path / "small.json"
        flat = [[-1e-150, -1e-155], [1e-150, -1e-155], [0.0, 2e-155]]
        path.write_text(json.dumps({"dim": 2, "vertices": flat}))
        for command in ("tcvp", "projbody"):
            code, out, err = run_cli([command, str(path)])
            assert (code, out) == (1, "")
            assert err == "error: polar body: coordinates too large: squared distances overflow\n"

    @pytest.mark.parametrize(("name", "k"), [("square", 510.0), ("heptagon", 510.125), ("heptagon", 510.5)])
    def test_overflowing_difference_body_is_one_line_error(self, tmp_path, name, k):
        # Polygon accepts these bodies, but the difference body's squared
        # extent overflows, and the message names the difference body
        verts = (np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])
                 if name == "square" else regular_polygon(7).vertices)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"dim": 2, "vertices": (2.0**k * verts).tolist()}))
        for command in ("tcvp", "projbody"):
            code, out, err = run_cli([command, str(path)])
            assert (code, out) == (1, "")
            assert err == "error: difference body: coordinates too large: squared distances overflow\n"

    def test_overflow_inside_a_construction_warns_nowhere(self, tmp_path):
        # the level set of the square of half-side 1e-3 at delta = 1e306 has
        # infinite crossings, and inf times a zero component of an
        # axis-aligned sideline is NaN; the 64 pairwise differences of the
        # cube at 2^254 reach 2^255, which qhull accepts, and the sliver
        # test's squared norms overflow.  Each ends in one error line only
        square = tmp_path / "square.json"
        corners = [[1e-3, 1e-3], [-1e-3, 1e-3], [-1e-3, -1e-3], [1e-3, -1e-3]]
        square.write_text(json.dumps({"dim": 2, "vertices": corners}))
        cube = 2.0**254 * np.array([[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)])
        diffs = tmp_path / "diffs.json"
        diffs.write_text(json.dumps({"dim": 3, "vertices": (cube[:, None] - cube[None]).reshape(-1, 3).tolist()}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            illum = run_cli(["illum", str(square), "--delta", "1e306"])
            evaluated = run_cli(["eval", str(diffs), "--t", "0,0,0"])
        assert [str(w.message) for w in caught] == []
        assert illum == (1, "", "error: illumination body: coordinates too large: squared distances overflow\n")
        assert evaluated == (1, "", "error: coordinates too large: facet normals overflow\n")

    def test_tcvp_with_overflowing_delta_is_one_line_error(self, tmp_path):
        # square scaled by 1e153: Delta(u) is finite, its mean is not
        path = tmp_path / "big.json"
        square = [[1e153 * x, 1e153 * y] for x, y in ((1, 1), (-1, 1), (-1, -1), (1, -1))]
        path.write_text(json.dumps({"dim": 2, "vertices": square}))
        code, out, err = run_cli(["tcvp", str(path)])
        assert (code, out) == (1, "")
        assert err.startswith("error:") and err.count("\n") == 1

    def test_qhull_failure_is_one_line_error(self, tmp_path):
        path = tmp_path / "big.json"
        cube = [[1e153 * x, 1e153 * y, 1e153 * z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]
        path.write_text(json.dumps({"dim": 3, "vertices": cube}))
        code, out, err = run_cli(["eval", str(path), "--t", "1,0,0"])
        assert (code, out) == (1, "")
        assert err.startswith("error: hull construction failed: QH") and err.count("\n") == 1

    def test_illum_with_huge_delta_is_input_error(self, square_file, cube_file):
        for path in (square_file, cube_file):
            code, out, err = run_cli(["illum", path, "--delta", "1e300"])
            assert (code, out) == (1, "")
            assert err.startswith("error:")

    def test_bad_body_error_exit_one(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dim":2,"vertices":[[0,0],[1,0]]}')
        assert run_cli(["eval", str(path), "--t", "1,0"])[0] == 1


class TestBodyFilesThatCannotBeRead:
    def test_undecodable_bytes_are_a_schema_error(self, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{\x00}\x00")
        with pytest.raises(SchemaError):
            load_body(str(path))
        code, out, err = run_cli(["eval", str(path), "--t", "0,0"])
        assert (code, out) == (1, "")
        assert err.startswith("error:") and err.count("\n") == 1

    def test_nesting_too_deep_for_the_decoder_is_a_schema_error(self, tmp_path):
        text = "[" * 100_000 + "]" * 100_000
        with pytest.raises(SchemaError):
            parse_body(text)
        path = tmp_path / "deep.json"
        path.write_text(text)
        code, out, err = run_cli(["eval", str(path), "--t", "0,0"])
        assert (code, out) == (1, "")
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("digits", [400, 5000])
    def test_integers_past_float_or_digit_limits_are_schema_errors(self, digits):
        # 400 digits overflow a float; 5000 pass Python's int-conversion limit
        with pytest.raises(SchemaError):
            parse_body('{"dim":2,"vertices":[[1' + "0" * digits + ",0],[0,1],[-1,0]]}")


_SVG_2D = "--svg is only available for 2D bodies"
_OFF_3D = "--off is only available for 3D bodies"
CONTRACT_BODIES = {
    "square": hull([[1, 1], [-1, 1], [-1, -1], [1, -1]]),
    "cube": hull([[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]),
    "tetrahedron": hull([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]),
    "heptagon": regular_polygon(7),
}


def _contract_run(tmp_path, body, args):
    """Run the CLI on a file of the body with every output under
    tmp_path/out; '@' in args stands for that directory.  Returns the body
    as loaded from that file, then (code, stdout, stderr, {file name: text})."""
    src = tmp_path / "body.json"
    src.write_text(serialize_body(body))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    argv = [args[0], str(src)] + [a.replace("@", f"{out_dir}/") for a in args[1:]]
    code, out, err = run_cli(argv)
    files = {f.name: f.read_text() for f in sorted(out_dir.iterdir())}
    return load_body(str(src)), (code, out, err.replace(f"{out_dir}/", "@"), files)


def _report_json(argv, rows, **extra):
    payload = {
        "command": argv,
        "checks": [[r.name, r.value, r.tolerance, r.passed] for r in rows],
        "artifacts": [],
        **extra,
    }
    return json.dumps(payload, indent=2) + "\n"


class TestCliOutputContract:
    """Exact stdout, stderr and files of every command that writes files,
    rebuilt from the library calls behind them."""

    @pytest.mark.parametrize("name", CONTRACT_BODIES)
    def test_illum(self, tmp_path, name):
        art = "--svg" if CONTRACT_BODIES[name].dim == 2 else "--off"
        args = ["illum", "--delta", "0.7", "--json", "@b.json", art, "@b.art"]
        body, (code, out, err, files) = _contract_run(tmp_path, CONTRACT_BODIES[name], args)
        level_set = illumination_body(body, 0.7)
        residual = float(np.max(np.abs(point_hull_values(body, level_set.body.vertices) - level_set.level)))
        residual /= level_set.level
        fit = homothety_fit(body, level_set.body)
        rows = [
            CheckRow("illum_vertex_level_residual", residual, 1e-9, residual <= 1e-9),
            CheckRow("illum_homothety_defect", fit.defect, 1e-6, fit.is_homothet),
            CheckRow("illum_volume", level_set.body.volume, None, None),
        ]
        drawn = (
            svg_text(filled=[body.vertices], curves=[level_set.body.vertices])
            if body.dim == 2
            else off_text(level_set.body)
        )
        assert (code, out, err) == (0, checks_to_csv(rows), "wrote @b.json\nwrote @b.art\n")
        assert files == {"b.json": serialize_body(level_set.body, name="illumination_delta_0.7"), "b.art": drawn}

    @pytest.mark.parametrize("name", CONTRACT_BODIES)
    def test_projbody(self, tmp_path, name):
        flags = ["--json", "@p"] + (["--off", "@p"] if CONTRACT_BODIES[name].dim == 3 else [])
        body, (code, out, err, files) = _contract_run(tmp_path, CONTRACT_BODIES[name], ["projbody", *flags])
        proj = projection_body(body)
        named = {
            "projection": proj,
            "polar_projection": polar_projection_body(body),
            "difference": difference_body(body),
        }
        expected = {f"p.{k}.json": serialize_body(b, name=k) for k, b in named.items()}
        if body.dim == 3:
            expected.update({f"p.{k}.off": off_text(b) for k, b in named.items()})
        dirs = direction_set(body.dim, 200)
        bright = brightness_many(body, dirs)
        rel = float(np.max(np.abs(proj.support_many(dirs) - bright) / bright))
        rows = [CheckRow("projection_support_vs_brightness", rel, 1e-9, rel <= 1e-9)]
        wrote = [f"p.{k}.json" for k in named] + ([f"p.{k}.off" for k in named] if body.dim == 3 else [])
        assert (code, out) == (0, checks_to_csv(rows))
        assert err == "".join(f"wrote @{f}\n" for f in wrote)
        assert files == expected

    @pytest.mark.parametrize("name", CONTRACT_BODIES)
    def test_tcvp(self, tmp_path, name):
        args = ["tcvp", "--dirs", "100", "--json", "@r.json"]
        body, (code, out, err, files) = _contract_run(tmp_path, CONTRACT_BODIES[name], args)
        report = tcvp_check(body, 100)
        fit = report.polar_projection_homothety
        rows = [
            CheckRow("delta_min", report.delta_min, None, None),
            CheckRow("delta_max", report.delta_max, None, None),
            CheckRow("delta_mean", report.delta_mean, None, None),
            CheckRow("relative_spread", report.relative_spread, 1e-6, report.relative_spread < 1e-6),
            CheckRow("polar_projection_homothety_defect", fit.defect, 1e-6, fit.is_homothet),
            CheckRow("tcvp_passes", float(report.passes), None, report.passes),
            CheckRow("translative_volume_constant", translative_volume_constant(body, 720), None, None),
        ]
        argv = ["tcvp", str(tmp_path / "body.json"), "--dirs", "100", "--json", str(tmp_path / "out" / "r.json")]
        assert (code, out, err) == (0, checks_to_csv(rows), "wrote @r.json\n")
        assert files == {"r.json": _report_json(argv, rows, dirs=100)}

    def test_extend(self, tmp_path):
        args = ["extend", "--k", "1", "--l", "1", "--json", "@e.json", "--svg", "@e.svg"]
        body, (code, out, err, files) = _contract_run(tmp_path, CONTRACT_BODIES["heptagon"], args)
        report, level_residual = extension_homothety_check(body, 1, 1)
        curve = kl_extension(body, 1, 1)
        rows = [
            CheckRow("extension_homothety_defect", report.defect, 1e-6, report.is_homothet),
            CheckRow("extension_level_residual", level_residual, 1e-9, level_residual <= 1e-9),
            CheckRow("extension_ratio", report.ratio, None, None),
        ]
        payload = {"kind": "extension_curve", "k": 1, "l": 1, "vertices": curve.vertices.tolist()}
        assert (code, out, err) == (0, checks_to_csv(rows), "wrote @e.json\nwrote @e.svg\n")
        assert files == {
            "e.json": json.dumps(payload, indent=2) + "\n",
            "e.svg": svg_text(filled=[body.vertices], curves=[curve.vertices], marked=[curve.vertices]),
        }

    def test_search_3d(self, tmp_path):
        path = tmp_path / "s.json"
        argv = ["search", "--n", "2", "--seed", "5", "--json", str(path)]
        code, out, err = run_cli(argv)
        rows = illumination_defect_rows(2, seed=5)
        worst = min(r.value for r in rows)
        rows.append(CheckRow("min_defect", worst, 1e-3, worst > 1e-3))
        assert (code, out, err) == (0, checks_to_csv(rows), f"wrote {path}\n")
        assert path.read_text() == _report_json(argv, rows, seed=5, n=2, dim=3)

    def test_search_2d(self, tmp_path):
        path = tmp_path / "s.json"
        argv = ["search", "--n", "3", "--seed", "5", "--dim", "2", "--json", str(path)]
        code, out, err = run_cli(argv)
        rng = np.random.default_rng(5)
        rows = []
        for i in range(3):
            m = int(rng.integers(7, 13))
            body = random_polygon(rng, m)
            best = min(extension_homothety_check(body, k, l)[0].defect for k, l in admissible_extension_pairs(m))
            rows.append(CheckRow(f"extension_defect_{i:03d}_m{m}", best, None, None))
        rows.append(CheckRow("min_defect", min(r.value for r in rows), None, None))
        assert (code, out, err) == (0, checks_to_csv(rows), f"wrote {path}\n")
        assert path.read_text() == _report_json(argv, rows, seed=5, n=3, dim=2)

    @pytest.mark.parametrize(
        "name,args,message",
        [
            ("cube", ["illum", "--delta", "1", "--json", "@b.json", "--svg", "@b.svg"], _SVG_2D),
            ("tetrahedron", ["illum", "--delta", "1", "--json", "@b.json", "--svg", "@b.svg"], _SVG_2D),
            ("square", ["illum", "--delta", "1", "--json", "@b.json", "--off", "@b.off"], _OFF_3D),
            ("heptagon", ["illum", "--delta", "1", "--svg", "@b.svg", "--off", "@b.off"], _OFF_3D),
            ("square", ["projbody", "--json", "@p", "--off", "@p"], _OFF_3D),
            ("heptagon", ["projbody", "--json", "@p", "--off", "@p"], _OFF_3D),
            ("cube", ["extend", "--k", "1", "--l", "1", "--svg", "@e.svg"], "extensions are defined for polygons only"),
            ("square", ["eval", "--t", "1,0", "--json", "@e.json"], "unrecognized arguments: --json @e.json"),
        ],
    )
    def test_flags_the_body_has_no_output_for_write_nothing(self, tmp_path, name, args, message):
        _, result = _contract_run(tmp_path, CONTRACT_BODIES[name], args)
        assert result == (1, "", f"usage error: {message}\n", {})


def _tree(root):
    """Every path under root, with its bytes (None for a directory) and mode."""
    return {
        str(p.relative_to(root)): (p.read_bytes() if p.is_file() else None, p.stat().st_mode)
        for p in sorted(root.rglob("*"))
    }


class TestTargetsThatCannotBeWritten:
    """Each command that writes files, with one writable target and one in a
    missing directory or that is a directory: exit 1, empty stdout, one line
    of stderr, and no file created or changed.  Under out/, 'sub',
    'd.projection.json' and 'p.projection.off' are directories, and
    'b.json', 'p.projection.json' and 'e.json' exist already."""

    @pytest.mark.parametrize(
        "name,args",
        [
            ("square", ["illum", "--delta", "0.7", "--json", "@b.json", "--svg", "@missing/b.svg"]),
            ("cube", ["illum", "--delta", "0.7", "--json", "@new.json", "--off", "@sub"]),
            ("tetrahedron", ["projbody", "--json", "@p", "--off", "@missing/p"]),
            ("tetrahedron", ["projbody", "--json", "@p", "--off", "@p"]),
            ("heptagon", ["projbody", "--json", "@d"]),
            ("heptagon", ["extend", "--k", "1", "--l", "1", "--json", "@e.json", "--svg", "@sub"]),
            ("heptagon", ["extend", "--k", "1", "--l", "1", "--svg", "@new.svg", "--json", "@missing/e.json"]),
            ("square", ["tcvp", "--dirs", "100", "--json", "@missing/r.json"]),
            ("cube", ["tcvp", "--dirs", "100", "--json", "@sub"]),
            (None, ["search", "--n", "2", "--seed", "5", "--json", "@missing/s.json"]),
            (None, ["search", "--n", "2", "--seed", "5", "--dim", "2", "--json", "@sub"]),
        ],
    )
    def test_nothing_is_written_or_printed(self, tmp_path, name, args):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        for directory in ("sub", "d.projection.json", "p.projection.off"):
            (out_dir / directory).mkdir()
        for existing in ("b.json", "p.projection.json", "e.json"):
            (out_dir / existing).write_text("kept\n")
        before = _tree(out_dir)
        argv = [a.replace("@", f"{out_dir}/") for a in args]
        if name is not None:
            src = tmp_path / "body.json"
            src.write_text(serialize_body(CONTRACT_BODIES[name]))
            argv.insert(1, str(src))
        code, out, err = run_cli(argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: [Errno") and err.count("\n") == 1 and err.endswith("\n")
        assert _tree(out_dir) == before

    def test_written_files_keep_the_permission_bits_of_open_w(self, tmp_path):
        path = tmp_path / "square.json"
        path.write_text(serialize_body(CONTRACT_BODIES["square"]))
        old = tmp_path / "b.json"
        old.write_text("kept\n")
        old.chmod(0o640)
        reference = tmp_path / "reference"
        open(reference, "w").close()
        svg = tmp_path / "b.svg"
        code, _, _ = run_cli(["illum", str(path), "--delta", "1", "--json", str(old), "--svg", str(svg)])
        assert code == 0
        assert old.stat().st_mode == 0o100640
        assert svg.stat().st_mode == reference.stat().st_mode
        assert old.read_text() != "kept\n"


_COORD = st.one_of(
    st.floats(-4.0, 4.0),
    st.integers(-3, 3),
    st.sampled_from([1e-300, 1e300, float("inf"), float("nan")]),
)


@st.composite
def _body_file(draw):
    """Bytes of a body file: most often up to 12 points on the unit circle or
    sphere (a valid body, though not always with the origin inside), some
    rows listed more than once, else JSON with extreme coordinates, a bad
    row length or a bad dimension, or arbitrary bytes or text."""
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return draw(st.binary(max_size=40))
    if kind == 1:
        return draw(st.text(max_size=40)).encode()
    dim = draw(st.sampled_from([2, 3]))
    if kind > 3:
        verts = _on_circle_or_sphere(draw, dim)
        repeats = draw(st.lists(st.integers(0, len(verts) - 1), max_size=4))
        verts = np.vstack((verts, verts[repeats]))
        verts = verts[draw(st.permutations(range(len(verts))))]
        return json.dumps({"dim": dim, "vertices": verts.tolist()}).encode()
    row_len = dim if kind > 2 else draw(st.integers(1, 4))
    verts = draw(st.lists(st.lists(_COORD, min_size=row_len, max_size=row_len), max_size=12))
    obj = {"dim": dim if kind != 3 else draw(st.sampled_from([1, 4, "2", None])), "vertices": verts}
    return json.dumps(obj).encode()


def _on_circle_or_sphere(draw, dim):
    """Up to 12 points on the unit circle or sphere, drawn by ``draw``: a
    valid body, though not always with the origin inside."""
    n = draw(st.integers(dim + 1, 12))
    ang = np.array(draw(st.lists(st.floats(0.0, 2 * np.pi), min_size=n, max_size=n, unique=True)))
    if dim == 2:
        return np.column_stack((np.cos(ang), np.sin(ang)))
    z = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    r = np.sqrt(1.0 - z * z)
    return np.column_stack((r * np.cos(ang), r * np.sin(ang), z))


@st.composite
def _scaled_body_file(draw):
    """Bytes of a valid circle or sphere body file (as `_body_file` draws
    them) scaled by 2^k, k in [-1070, 1000]: from subnormal coordinates to
    about 1e301."""
    dim = draw(st.sampled_from([2, 3]))
    verts = _on_circle_or_sphere(draw, dim) * 2.0 ** draw(st.integers(-1070, 1000))
    return json.dumps({"dim": dim, "vertices": verts.tolist()}).encode()


_VALUE = st.sampled_from(["0.5", "2", "0", "1e-9", "-1", "1e300", "nan", "inf", "x"])


@st.composite
def _argv(draw):
    """argv after the body path for eval, illum, tcvp, extend or projbody;
    '@' stands for an output directory, in which 'missing' does not exist."""
    command = draw(st.sampled_from(["eval", "illum", "tcvp", "extend", "projbody"]))
    args = ["--strict"] if draw(st.integers(0, 3)) == 0 else []
    if command == "eval":
        size = draw(st.sampled_from([2, 3, 2, 3, 1, 4]))
        vec = draw(st.lists(st.sampled_from(["0", "0.3", "-2", "1e300", "nan"]), min_size=size, max_size=size))
        args.append(f"--t={','.join(vec)}")
        if draw(st.booleans()):
            args.append(f"--lambda={draw(_VALUE)}")
    elif command == "illum":
        args.append(f"--delta={draw(_VALUE)}")
    elif command == "tcvp":
        args.append(f"--dirs={draw(st.one_of(st.integers(16, 720), st.integers(-2, 15)))}")
    elif command == "extend":
        args += [f"--k={draw(st.integers(1, 4) | st.just(-1))}", f"--l={draw(st.integers(1, 4) | st.just(0))}"]
    flags = {"eval": ["--json"], "illum": ["--json", "--svg", "--off"], "tcvp": ["--json"],
             "extend": ["--json", "--svg"], "projbody": ["--json", "--off"]}[command]
    for flag in draw(st.lists(st.sampled_from(flags), unique=True)):
        # a writable target, one in a missing directory, or the output
        # directory itself (for projbody, the prefix of writable names)
        name = flag[2:]
        args += [flag, draw(st.sampled_from([f"@{name}", f"@{name}", f"@missing/{name}", "@"]))]
    return [command, *args]


@settings(database=None, max_examples=200, deadline=None, derandomize=True)
@given(data=_body_file(), args=_argv())
def test_cli_contract_holds_for_any_body_file_and_argv(data, args):
    _assert_cli_contract(data, args)


@settings(database=None, max_examples=100, deadline=None, derandomize=True)
@given(data=_scaled_body_file(), args=_argv())
def test_cli_contract_holds_for_valid_bodies_at_any_scale(data, args):
    _assert_cli_contract(data, args)


def _assert_cli_contract(data, args):
    """Exit 0, 1 or 2; no traceback and no warning; on exit 1, empty
    stdout, one line of stderr and no file written; and exit 1 wherever a
    target lies in a missing directory."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "body.json"
        src.write_bytes(data)
        out_dir = Path(tmp) / "out"
        out_dir.mkdir()
        argv = [args[0], str(src)] + [a.replace("@", f"{out_dir}/") for a in args[1:]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(argv)
        written = list(out_dir.iterdir())
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if any(a.startswith("@missing/") for a in args):
        assert code == 1
    if code == 1:
        assert out == ""
        assert err.count("\n") == 1 and err.endswith("\n")
        assert written == []
