import io
import json
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from hullkit import (
    DegenerateInput,
    NonConvexInput,
    SchemaError,
    brightness_many,
    difference_body,
    parse_body,
    polar_projection_body,
    projection_body,
    serialize_body,
)
from hullkit.cli import main
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
        curve = regular_polygon(8, radius=2.0)
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
