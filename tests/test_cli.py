"""CLI exit codes, JSON schema conformance, and reproducibility."""
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from jsonschema import validate

from mconvex import cli
from mconvex import harness as hz
from mconvex import meshes
from mconvex import varifold as vf

from testkit import square_mesh


_SCHEMA = json.loads(
    (pathlib.Path(__file__).resolve().parents[1] / "docs" / "report_schema.json").read_text())


def run(capsys, *argv):
    """Exit code, parsed report and raw stdout; every report is validated
    against docs/report_schema.json."""
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    doc = json.loads(out) if out.strip() else None
    if doc is not None:
        validate(doc, _SCHEMA)
    return code, doc, out


@pytest.fixture()
def disk_path(tmp_path):
    path = tmp_path / "disk.svmesh"
    vf.write_svmesh(meshes.disk_mesh(radius=1.0, rings=24, segments=256), path)
    return str(path)


class TestConvexity:
    def test_ball_north_pole(self, capsys):
        code, doc, _ = run(capsys, "convexity", "--domain", "ball:1",
                           "--p", "0,0,1", "--m", "2")
        assert code == cli.EXIT_PASS
        assert doc["passed"]
        assert doc["report"]["curvature_sum"] == pytest.approx(2.0)
        assert doc["report"]["classification"] == "strongly m-convex"

    def test_halfspace_not_strong(self, capsys):
        code, doc, _ = run(capsys, "convexity", "--domain", "halfspace",
                           "--p", "0,0,0", "--m", "2")
        assert code == cli.EXIT_ASSERTION
        assert doc["report"]["classification"] == "m-convex"

    def test_bad_point_is_usage_error(self, capsys):
        code, doc, _ = run(capsys, "convexity", "--domain", "ball:1",
                           "--p", "0,0,zebra", "--m", "2")
        assert code == cli.EXIT_USAGE
        assert doc is None

    def test_unknown_domain_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "convexity", "--domain", "torus:1",
                         "--p", "0,0,1", "--m", "2")
        assert code == cli.EXIT_USAGE


class TestBarrier:
    def test_build_ball(self, capsys):
        code, doc, _ = run(capsys, "barrier-build", "--domain", "ball:1",
                           "--p", "0,0,1", "--m", "2", "--no-timestamp")
        assert code == cli.EXIT_PASS
        assert doc["report"]["epsilon"] > 0
        assert doc["report"]["K"] > 0

    @pytest.mark.parametrize("h", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("command", [("barrier-build",), ("barrier-verify", "--grid", "10")],
                             ids=["build", "verify"])
    def test_h_outside_its_range_is_a_usage_error(self, capsys, command, h):
        # checked even where an explicit eta leaves h unread
        code = cli.main([*command, "--domain", "ball:1", "--p", "0,0,1", "--m", "2",
                         "--eta", "0.5", "--h", h])
        captured = capsys.readouterr()
        assert code == cli.EXIT_USAGE
        assert captured.out == ""
        assert "h must be finite and nonnegative" in captured.err

    def test_matrix_spelling_of_a_conformal_constant_verifies_alike(self, capsys):
        # matrix:0.25 I is the metric conformal:0-log(2); both get barriers
        outs = []
        for metric in ("matrix:0.25;0;0;0.25;0;0.25", "conformal:0-log(2)"):
            code, _, out = run(capsys, "barrier-verify", "--domain", "ball:1", "--p", "0,0,1",
                               "--m", "2", "--grid", "30", "--metric", metric, "--no-timestamp")
            assert code == cli.EXIT_PASS
            outs.append(out)
        assert outs[0] == outs[1]

    def test_build_halfspace_refused(self, capsys):
        code, doc, _ = run(capsys, "barrier-build", "--domain", "halfspace",
                           "--p", "0,0,0", "--m", "2")
        assert code == cli.EXIT_ASSERTION
        assert doc["report"]["refused"]

    def test_verify_ball_passes(self, capsys):
        code, doc, _ = run(capsys, "barrier-verify", "--domain", "ball:1",
                           "--p", "0,0,1", "--m", "2", "--grid", "25")
        assert code == cli.EXIT_PASS
        assert doc["report"]["worst_margin"] <= 1e-7

    def test_verify_halfspace_fails_with_exit_2(self, capsys):
        code, doc, _ = run(capsys, "barrier-verify", "--domain", "halfspace",
                           "--p", "0,0,0", "--m", "2", "--eta", "0.1",
                           "--grid", "20")
        assert code == cli.EXIT_ASSERTION
        assert not doc["passed"]
        assert doc["report"]["worst_margin"] > 0

    def test_verify_ignores_seed(self, capsys):
        outs = []
        for seed in ("0", "164"):
            code, _, out = run(capsys, "barrier-verify", "--domain", "halfspace",
                               "--p", "0,0,0", "--m", "2", "--eta", "0.1", "--grid", "20",
                               "--seed", seed, "--no-timestamp")
            assert code == cli.EXIT_ASSERTION
            outs.append(out)
        assert outs[0] == outs[1]

    def test_verify_margin_csv(self, capsys, tmp_path):
        out = tmp_path / "margins.csv"
        code, doc, _ = run(capsys, "barrier-verify", "--domain", "ball:1",
                           "--p", "0,0,1", "--m", "2", "--grid", "15",
                           "--out", str(out))
        assert code == cli.EXIT_PASS
        header, *rows = out.read_text().splitlines()
        assert header == "x1,x2,x3,margin"
        assert len(rows) == doc["report"]["n_grid"] > 0
        for row in rows:
            assert len([float(v) for v in row.split(",")]) == 4


_BALL = ("--domain", "ball:1", "--p", "0,0,1")


class TestInputErrors:
    """Out-of-range options and malformed domain, metric and field specs
    exit 1 with ``error:``."""

    @pytest.mark.parametrize("argv", [
        ("barrier-verify", *_BALL, "--m", "0"),
        ("barrier-verify", *_BALL, "--m", "4"),
        ("convexity", *_BALL, "--m", "5"),
        ("barrier-build", *_BALL, "--m", "3"),
        ("scenario", "--name", "theorem1", "--m", "3"),
        ("convexity", "--domain", "ball:abc", "--p", "0,0,1", "--m", "2"),
        ("convexity", "--domain", "ball:-1", "--p", "0,0,1", "--m", "2"),
        ("convexity", "--domain", "cylinder:1,2", "--p", "1,0,0", "--m", "2"),
        ("convexity", "--domain", "levelset:1-x1^2@1", "--p", "1,0,0", "--m", "2"),
        ("convexity", "--domain", "levelset:1-x1^2@2,-2", "--p", "1,0,0", "--m", "2"),
        ("convexity", "--domain", "levelset:1-x\u00b2", "--p", "0,0,1", "--m", "2"),
        ("convexity", "--domain", "levelset:1-x4^2", "--p", "0,0,1", "--m", "2"),
        ("convexity", *_BALL, "--m", "2", "--metric", "conformal:x4"),
        ("convexity", *_BALL, "--m", "2", "--metric", "matrix:1;0;0;1;0;x5"),
        ("first-variation", "--mesh", "{mesh}", "--field", "x4,0,0"),
        ("barrier-build", *_BALL, "--m", "2", "--eta", "nan"),
        ("barrier-build", *_BALL, "--m", "2", "--h", "nan"),
        ("barrier-verify", "--domain", "halfspace", "--p", "0,0,0", "--m", "2",
         "--eta", "0.1", "--tolerance", "inf"),
        ("barrier-verify", *_BALL, "--m", "2", "--tolerance", "nan"),
        ("barrier-verify", *_BALL, "--m", "2", "--tolerance", "-0.5"),
        ("barrier-verify", *_BALL, "--m", "2", "--grid", "-5"),
        ("barrier-verify", *_BALL, "--m", "2", "--grid", "0"),
        ("scenario", "--name", "theorem1", "--grid", "-1"),
    ], ids=["verify_m0", "verify_m4", "convexity_m5", "build_m3", "scenario_m3",
            "ball_abc", "ball_negative", "cylinder_two_radii", "levelset_one_bound",
            "levelset_reversed_chart", "levelset_superscript", "levelset_x4",
            "conformal_x4", "matrix_x5", "field_x4", "build_eta_nan", "build_h_nan",
            "verify_tolerance_inf", "verify_tolerance_nan", "verify_tolerance_negative",
            "verify_grid_negative", "verify_grid_zero", "scenario_grid_negative"])
    def test_usage_error(self, capsys, tmp_path, argv):
        mesh = tmp_path / "disk.svmesh"
        vf.write_svmesh(meshes.disk_mesh(radius=1.0, rings=2, segments=8), mesh)
        code = cli.main([str(mesh) if a == "{mesh}" else a for a in argv])
        captured = capsys.readouterr()
        assert code == cli.EXIT_USAGE
        assert captured.out == ""
        assert captured.err.startswith("error:")

    def test_grid_without_live_points_fails(self, capsys):
        # grid 2 checks the chart's corners only, none of them in the tube
        code, doc, _ = run(capsys, "barrier-verify", *_BALL, "--m", "2", "--grid", "2")
        assert code == cli.EXIT_ASSERTION
        assert doc["report"]["n_tube"] == 0 and not doc["passed"]


class TestSignedValues:
    """A value that starts with '-' reaches its option.  Alone, argparse
    takes only plain numbers such as -1 or -1.5 as values."""

    def test_negative_point(self, capsys):
        code, doc, _ = run(capsys, "convexity", "--domain", "ball:1", "--p", "-1,0,0",
                           "--m", "2")
        assert code == cli.EXIT_PASS
        assert doc["report"]["p"] == [-1.0, 0.0, 0.0]

    def test_negative_eta_in_exponent_form(self, capsys):
        code, doc, _ = run(capsys, "barrier-verify", *_BALL, "--m", "2", "--eta", "-1e-3",
                           "--grid", "10")
        assert code == cli.EXIT_PASS
        assert doc["report"]["eta"] == -1e-3

    def test_negative_tolerance_reaches_its_own_check(self, capsys):
        code = cli.main(["barrier-verify", *_BALL, "--m", "2", "--tolerance", "-1e-7"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_USAGE and captured.out == ""
        assert captured.err.startswith("error: --tolerance must be")


class TestFirstVariation:
    def test_disk_position_field(self, capsys, disk_path):
        code, doc, _ = run(capsys, "first-variation", "--mesh", disk_path,
                           "--field", "x1,x2,x3")
        assert code == cli.EXIT_PASS
        assert doc["report"]["delta_V"] == pytest.approx(2 * np.pi, abs=1e-3)

    def test_missing_mesh_file(self, capsys):
        code, _, _ = run(capsys, "first-variation", "--mesh", "/nonexistent",
                         "--field", "x1,x2,x3")
        assert code == cli.EXIT_USAGE

    def test_bad_field_expression(self, capsys, disk_path):
        code, _, _ = run(capsys, "first-variation", "--mesh", disk_path,
                         "--field", "x1,x2,1+*2")
        assert code == cli.EXIT_USAGE


class TestMinimize:
    def test_plateau_disk(self, capsys, tmp_path):
        mesh = meshes.disk_mesh(radius=0.3, center=(0.0, 0.0, 0.85),
                                rings=4, segments=24)
        path = tmp_path / "cap.svmesh"
        vf.write_svmesh(mesh, path)
        out_mesh = tmp_path / "final.svmesh"
        code, doc, _ = run(capsys, "minimize", "--mesh", str(path),
                           "--domain", "ball:1", "--out-mesh", str(out_mesh))
        assert code == cli.EXIT_PASS
        assert doc["report"]["converged"]
        assert doc["report"]["projected_gradient_residual"] <= 1e-6
        final = vf.read_svmesh(out_mesh)
        assert final.vertices.shape == mesh.vertices.shape

    def test_bulged_disk_nonconstant_conformal(self, capsys, tmp_path):
        path = tmp_path / "bulged.svmesh"
        vf.write_svmesh(meshes.bulged_disk_mesh(rings=2, segments=16, amplitude=0.05),
                        path)
        code, doc, _ = run(capsys, "minimize", "--mesh", str(path), "--domain", "ball:1",
                           "--metric", "conformal:0.1*x1", "--tolerance", "1e-5",
                           "--no-timestamp")
        assert code == cli.EXIT_PASS
        assert doc["report"]["final_area"] == pytest.approx(0.27565293, rel=1e-7)

    def test_diagnostics(self, capsys, tmp_path):
        path = tmp_path / "bulged.svmesh"
        vf.write_svmesh(meshes.bulged_disk_mesh(rings=4, segments=24, amplitude=0.05), path)
        code, doc, _ = run(capsys, "minimize", "--mesh", str(path), "--domain", "ball:1",
                           "--no-timestamp")
        assert code == cli.EXIT_PASS
        assert doc["report"]["iterations"] == 2
        diag = doc["report"]["diagnostics"]
        assert set(diag) == {"cg_iterations", "line_search_halvings",
                             "active_boundary_vertices"}
        assert diag["line_search_halvings"] == 0
        assert diag["active_boundary_vertices"] == 0
        # one solve, capped at twice the 97 vertices
        assert 0 < diag["cg_iterations"] <= 2 * 97

    def test_seed_changes_nothing(self, capsys, tmp_path):
        path = tmp_path / "bulged.svmesh"
        vf.write_svmesh(meshes.bulged_disk_mesh(rings=4, segments=24, amplitude=0.05), path)
        outs = []
        for seed in ("0", "7"):
            code, doc, out = run(capsys, "minimize", "--mesh", str(path), "--domain",
                                 "ball:1", "--seed", seed, "--no-timestamp")
            assert code == cli.EXIT_PASS
            outs.append(out)
        assert outs[0] == outs[1]
        assert doc["report"]["stationarity_residual"] < 1e-8

    def test_cap_after_a_converging_step_passes(self, capsys, tmp_path):
        # one Pinkall-Polthier step flattens the 513-vertex bulged disk; the
        # report must describe that returned mesh, not the start
        path = tmp_path / "bulged.svmesh"
        vf.write_svmesh(meshes.bulged_disk_mesh(rings=8, segments=64, amplitude=0.05), path)
        code, doc, _ = run(capsys, "minimize", "--mesh", str(path), "--domain", "ball:1",
                           "--max-iterations", "1", "--no-timestamp")
        assert code == cli.EXIT_PASS
        report = doc["report"]
        assert report["converged"] and report["iterations"] == 1
        assert report["projected_gradient_residual"] <= 1e-6
        assert report["stationarity_residual"] < 1e-8

    @pytest.mark.parametrize("flag, value", [
        ("--max-iterations", "0"), ("--max-iterations", "-1"),
        ("--tolerance", "0"), ("--tolerance", "-1"),
        ("--tolerance", "inf"), ("--tolerance", "nan"),
    ])
    def test_iteration_cap_and_tolerance_must_be_positive(self, capsys, tmp_path, flag,
                                                          value):
        path = tmp_path / "bulged.svmesh"
        vf.write_svmesh(meshes.bulged_disk_mesh(rings=2, segments=16), path)
        code = cli.main(["minimize", "--mesh", str(path), "--domain", "ball:1",
                         f"{flag}={value}"])
        assert code == cli.EXIT_USAGE
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("anchors", ["-1,-1", "0,1,999", "0,one"])
    def test_bad_anchors_are_an_error(self, capsys, tmp_path, anchors):
        path = tmp_path / "bulged.svmesh"
        vf.write_svmesh(meshes.bulged_disk_mesh(rings=2, segments=16), path)
        code = cli.main(["minimize", "--mesh", str(path), "--domain", "ball:1",
                         f"--anchors={anchors}"])
        assert code == cli.EXIT_USAGE
        assert capsys.readouterr().out == ""

    def test_repeated_anchors_counted_once(self, capsys, tmp_path):
        start = meshes.bulged_disk_mesh(rings=2, segments=16)
        path = tmp_path / "bulged.svmesh"
        vf.write_svmesh(start, path)
        rim = [str(v) for v in start.boundary_vertices()]
        code, doc, _ = run(capsys, "minimize", "--mesh", str(path), "--domain", "ball:1",
                           "--anchors", ",".join(rim + rim), "--no-timestamp")
        assert code == cli.EXIT_PASS
        assert doc["report"]["anchored_vertices"] == len(rim)


_TRIANGLE = "SVMESH 2 3\n3 1\n{x} 0 0.5\n0.1 0 0.5\n0 0.1 0.5\n0 1 2 {mult}\n"
_INVALID_MESHES = {
    "nan_multiplicity": _TRIANGLE.format(x="0", mult="nan"),
    "inf_multiplicity": _TRIANGLE.format(x="0", mult="inf"),
    "nan_vertex": _TRIANGLE.format(x="nan", mult="1"),
    "zero_dimensional": "SVMESH 0 3\n2 2\n0 0 0.5\n0.1 0 0.5\n0\n1\n",
}


class TestInvalidMesh:
    # non-finite values printed a silent 0 or a non-JSON Infinity, or ended
    # in a traceback; m = 0 crashed the boundary search
    @pytest.mark.parametrize("command, extra", [
        ("first-variation", ["--field", "x1,x2,x3"]),
        ("decompose", ["--boundary-mesh", "{good}"]),
        ("minimize", ["--domain", "ball:1"]),
    ], ids=["first-variation", "decompose", "minimize"])
    @pytest.mark.parametrize("mesh", sorted(_INVALID_MESHES))
    def test_rejected_as_an_error(self, capsys, tmp_path, mesh, command, extra):
        good, bad = tmp_path / "good.svmesh", tmp_path / "bad.svmesh"
        good.write_text(_TRIANGLE.format(x="0", mult="1"))
        bad.write_text(_INVALID_MESHES[mesh])
        code = cli.main([command, "--mesh", str(bad)]
                        + [arg.format(good=good) for arg in extra])
        captured = capsys.readouterr()
        assert code == cli.EXIT_USAGE
        assert captured.out == ""
        assert captured.err.startswith("error:")


class TestAmbientDimension:
    """A mesh whose ambient dimension is not the domain's or the metric's is
    an error: the planar minimize reported ``converged``, and the planar
    first variation under a conformal metric ended in a reshape traceback."""

    @pytest.mark.parametrize("text, command, extra", [
        ("SVMESH 2 2\n3 1\n0 0\n0.1 0\n0 0.1\n0 1 2\n", "minimize", ["--domain", "ball:1"]),
        ("SVMESH 1 4\n2 1\n0 0 0.5 0\n0.1 0 0.5 0\n0 1\n", "minimize", ["--domain", "ball:1"]),
        ("SVMESH 2 2\n3 1\n0 0\n0.1 0\n0 0.1\n0 1 2\n", "first-variation",
         ["--field", "x1,x2", "--metric", "conformal:0.1*x1"]),
    ], ids=["minimize-planar", "minimize-R4", "first-variation-planar"])
    def test_rejected_as_an_error(self, capsys, tmp_path, text, command, extra):
        path = tmp_path / "mesh.svmesh"
        path.write_text(text)
        code = cli.main([command, "--mesh", str(path), *extra])
        captured = capsys.readouterr()
        assert code == cli.EXIT_USAGE and captured.out == ""
        assert captured.err.startswith("error:") and "R^" in captured.err
        assert "Traceback" not in captured.err


class TestMalformedNumbers:
    """A malformed number in an SVMESH file is a format error naming its
    line, not a traceback."""

    @pytest.mark.parametrize("text, line", [
        (_TRIANGLE.format(x="abc", mult="1"), "vertex line 0"),
        ("SVMESH 2 3\n3 1\n0 0 0.5\n0.1 0 0.5\n0 0.1 0.5\n0 1 2.5\n", "simplex line 0"),
        ("SVMESH 2 3\n3 1\n0 0 0.5\n0.1 0 0.5\n0 0.1 0.5\n0 x 2\n", "simplex line 0"),
        (_TRIANGLE.format(x="0", mult="two"), "simplex line 0"),
    ], ids=["vertex_abc", "index_2.5", "index_x", "multiplicity_two"])
    def test_first_variation_names_the_line(self, capsys, tmp_path, text, line):
        bad = tmp_path / "bad.svmesh"
        bad.write_text(text)
        code = cli.main(["first-variation", "--mesh", str(bad), "--field", "x1,x2,x3"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_USAGE and captured.out == ""
        assert captured.err.startswith("error:") and line in captured.err
        assert "Traceback" not in captured.err


class TestDirectoryAsFile:
    """A directory where a file is read or written is an error, not a
    traceback."""

    def test_directory_as_mesh(self, capsys, tmp_path):
        code = cli.main(["first-variation", "--mesh", str(tmp_path), "--field", "x1,x2,x3"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_USAGE and captured.out == ""
        assert captured.err.startswith("error:")

    def test_directory_as_out_mesh(self, capsys, tmp_path):
        path = tmp_path / "bulged.svmesh"
        vf.write_svmesh(meshes.bulged_disk_mesh(rings=2, segments=16), path)
        code = cli.main(["minimize", "--mesh", str(path), "--domain", "ball:1",
                         "--out-mesh", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == cli.EXIT_USAGE and captured.out == ""
        assert captured.err.startswith("error:")


class TestDecompose:
    def test_integral_split(self, capsys, tmp_path):
        bnd = meshes.icosphere_mesh(subdivisions=2)
        disk = meshes.disk_mesh(radius=0.4, rings=4, segments=24)
        V = vf.SimplicialSurface(
            np.vstack([bnd.vertices, disk.vertices]),
            np.vstack([bnd.simplices, disk.simplices + len(bnd.vertices)]),
            np.concatenate([3 * np.ones(len(bnd.simplices)),
                            np.ones(len(disk.simplices))]))
        vp, bp = tmp_path / "v.svmesh", tmp_path / "b.svmesh"
        vf.write_svmesh(V, vp)
        vf.write_svmesh(bnd, bp)
        code, doc, _ = run(capsys, "decompose", "--mesh", str(vp),
                           "--boundary-mesh", str(bp))
        assert code == cli.EXIT_PASS
        assert doc["report"]["d"] == 3

    def test_nonintegral_exit_2(self, capsys, tmp_path):
        bnd = meshes.icosphere_mesh(subdivisions=1)
        sq = square_mesh(side=0.5, multiplicity=0.25)
        vp, bp = tmp_path / "v.svmesh", tmp_path / "b.svmesh"
        vf.write_svmesh(sq, vp)
        vf.write_svmesh(bnd, bp)
        code, doc, _ = run(capsys, "decompose", "--mesh", str(vp),
                           "--boundary-mesh", str(bp))
        assert code == cli.EXIT_ASSERTION
        assert doc["report"]["rejected"]


class TestScenarioCommand:
    def test_theorem5_refused_exit_2(self, capsys):
        code, doc, _ = run(capsys, "scenario", "--name", "theorem5",
                           "--h", "3.0")
        assert code == cli.EXIT_ASSERTION
        assert doc["report"]["status"] == "refused"

    def test_theorem5_default_h(self, capsys):
        code, doc, _ = run(capsys, "scenario", "--name", "theorem5", "--no-timestamp")
        assert code == cli.EXIT_PASS
        assert doc["report"]["provenance"]["h"] == 1.0

    def test_theorem1_ignores_seed(self, capsys):
        outs = []
        for seed in ("0", "1"):
            code, _, out = run(capsys, "scenario", "--name", "theorem1", "--seed", seed,
                               "--no-timestamp")
            assert code == cli.EXIT_PASS
            outs.append(out)
        assert outs[0] == outs[1]

    def test_metric_alone_applies_to_the_unit_ball(self, capsys):
        metric = ("--metric", "conformal:0-log(2)")
        _, alone, _ = run(capsys, "scenario", "--name", "theorem5", "--no-timestamp", *metric)
        _, ball, _ = run(capsys, "scenario", "--name", "theorem5", "--no-timestamp",
                         "--domain", "ball:1", *metric)
        _, plain, _ = run(capsys, "scenario", "--name", "theorem5", "--no-timestamp")
        assert alone == ball
        assert alone["report"]["epsilon"] != plain["report"]["epsilon"]

    def test_metric_without_barrier_refused(self, capsys):
        code = cli.main(["scenario", "--name", "theorem5", "--metric", "conformal:0.1*x1"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_USAGE
        assert captured.out == ""
        assert captured.err.startswith("error: barrier construction needs")

    @pytest.mark.parametrize("name", ["theorem3", "theorem6"])
    def test_family_with_a_non_euclidean_metric_refused(self, capsys, name):
        code = cli.main(["scenario", "--name", name, "--metric", "conformal:0.1*x1"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_USAGE
        assert captured.out == ""
        assert "must be euclidean" in captured.err

    @pytest.mark.parametrize("h", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("name", list(hz.SCENARIO_H))
    def test_h_outside_its_range_is_a_usage_error(self, capsys, name, h):
        # a NaN h passed every old gate, and an infinite one made a refusal
        code = cli.main(["scenario", "--name", name, "--h", h])
        captured = capsys.readouterr()
        assert code == cli.EXIT_USAGE
        assert captured.out == ""
        assert "h must be finite and nonnegative" in captured.err

    @pytest.mark.parametrize("name", ["theorem1", "theorem3"])
    def test_m_other_than_the_mesh_dimension_is_a_usage_error(self, capsys, name):
        # both ran the 2-d disk against an m = 1 barrier and passed
        code = cli.main(["scenario", "--name", name, "--m", "1"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_USAGE
        assert captured.out == ""
        assert "the mesh has dimension 2, but m = 1" in captured.err

    def test_matrix_spelling_of_a_conformal_constant_runs_alike(self, capsys):
        outs = []
        for metric in ("matrix:0.25;0;0;0.25;0;0.25", "conformal:0-log(2)"):
            code, _, out = run(capsys, "scenario", "--name", "theorem1", "--metric", metric,
                               "--no-timestamp")
            assert code == cli.EXIT_PASS
            outs.append(out)
        assert outs[0] == outs[1]

    def test_unknown_scenario(self, capsys):
        code, _, _ = run(capsys, "scenario", "--name", "theorem2")
        assert code == cli.EXIT_USAGE

    def test_h_refused_where_unread(self, capsys):
        code, doc, _ = run(capsys, "scenario", "--name", "theorem1", "--h", "0.5")
        assert code == cli.EXIT_USAGE
        assert doc is None

    def test_scenarios_looked_up_at_call_time(self, capsys, monkeypatch):
        # a wrapper set on the harness attribute (a tracing span) must run
        called = []
        for name in hz.SCENARIO_H:
            def stub(cfg, name=name):
                called.append((name, cfg.h))
                return {"status": "passed"}
            monkeypatch.setattr(hz, f"scenario_{name}", stub)
        code, doc, _ = run(capsys, "scenario", "--name", "theorem4", "--no-timestamp")
        assert code == cli.EXIT_PASS
        assert doc["report"] == {"status": "passed"}
        assert called == [("theorem4", 0.0)]


class TestOutputContract:
    def test_schema_and_key_order(self, capsys):
        _, doc, out = run(capsys, "convexity", "--domain", "ball:1",
                          "--p", "0,0,1", "--m", "2", "--no-timestamp")
        assert set(doc) == {"command", "passed", "report"}
        keys = [ln.split('"')[1] for ln in out.splitlines()
                if ln.startswith('  "')]
        assert keys == sorted(keys)

    def test_reruns_byte_identical(self, capsys):
        argv = ["barrier-verify", "--domain", "ball:1", "--p", "0,0,1",
                "--m", "2", "--grid", "15", "--no-timestamp"]
        _, _, out1 = run(capsys, *argv)
        _, _, out2 = run(capsys, *argv)
        assert out1 == out2

    def test_timestamp_present_by_default(self, capsys):
        _, doc, _ = run(capsys, "convexity", "--domain", "ball:1",
                        "--p", "0,0,1", "--m", "2")
        assert "timestamp" in doc

    def test_no_arguments_is_usage_error(self, capsys):
        assert cli.main([]) == cli.EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ("convexity", "--domain", "ball:1", "--p", "0,0,1", "--m", "2", "--seed", "1"),
        ("barrier-build", "--domain", "ball:1", "--p", "0,0,1", "--m", "2", "--seed", "1"),
        ("barrier-build", "--domain", "ball:1", "--p", "0,0,1", "--m", "2",
         "--epsilon", "0.01"),
        ("decompose", "--mesh", "a.svmesh", "--boundary-mesh", "b.svmesh",
         "--metric", "conformal:0"),
        ("scenario", "--name", "theorem4", "--threads", "2"),
    ], ids=["convexity_seed", "build_seed", "build_epsilon", "decompose_metric",
            "scenario_threads"])
    def test_flags_a_subcommand_does_not_read_are_usage_errors(self, capsys, argv):
        assert cli.main(list(argv)) == cli.EXIT_USAGE
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("threads", ["0", "-1", "two"])
    def test_threads_below_one_is_a_usage_error(self, capsys, threads):
        code = cli.main(["barrier-verify", "--domain", "ball:1", "--p", "0,0,1", "--m", "2",
                         "--grid", "10", "--threads", threads])
        assert code == cli.EXIT_USAGE
        assert capsys.readouterr().out == ""


def test_bench_tracer_wraps_every_binding_and_restores_them(monkeypatch):
    # the benchmark wraps mconvex functions by name from outside the package;
    # install() raises on a name that no longer exists
    from mconvex import barrier as bar
    from mconvex import geometry as geo
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)

    def namespaces():
        return {name: {k: id(v) for k, v in vars(module).items()}
                for name, module in list(sys.modules.items())
                if module is not None and name.split(".")[0] == "mconvex"}

    def bound(owner, attr):
        return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

    # no module imports a wrapped function by name any more; bind one so
    # that the tracer's handling of such a binding stays tested
    monkeypatch.setattr(bar, "levelset_shape", geo.levelset_shape, raising=False)
    before = namespaces()
    trace = tracer.Tracer()
    trace.install()
    try:
        patches = list(trace._patches)
        assert patches
        assert all(bound(owner, attr) is not original for owner, attr, original in patches)
        # a function imported by name into another module is wrapped there too
        assert ("mconvex.barrier", "levelset_shape") in {
            (owner.__name__, attr) for owner, attr, _ in patches}
        assert bar.levelset_shape is geo.levelset_shape
    finally:
        trace.uninstall()
    assert all(bound(owner, attr) is original for owner, attr, original in patches)
    assert namespaces() == before


def test_import_loads_no_scipy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    code = ("import sys, mconvex, mconvex.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
