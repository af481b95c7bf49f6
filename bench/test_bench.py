"""Tests of the benchmark's oracle and tracing.  Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""
import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.fixture(scope="module")
def grid(tmp_path_factory):
    """grid_certify's certificates, its reference, and the outcomes of its two
    cheapest certificates."""
    import mconvex.cli as cli

    certs = {c.kind: c for c in wl.setup("grid_certify", 0, str(tmp_path_factory.mktemp("w")))}
    outcomes = {kind: wl.run_certificate(cli, certs[kind])
                for kind in ("halfspace_control", "ellipsoid_grid60")}
    return certs, outcomes, wl.load_reference()["workloads"]["grid_certify"]


def test_recorded_outcome_holds(grid):
    certs, outcomes, ref = grid
    code, stdout, error = outcomes["halfspace_control"]
    assert code == wl.EXIT_ASSERTION
    assert wl.check(certs["halfspace_control"], code, stdout, ref, error) == []


def test_flipped_verdict_fails(grid):
    certs, outcomes, ref = grid
    flipped = dataclasses.replace(certs["halfspace_control"], expect_exit=wl.EXIT_PASS)
    problems = wl.check(flipped, *outcomes["halfspace_control"][:2], ref)
    assert problems == ["exit 2, expected 0"]


@pytest.mark.parametrize("path", ["report.epsilon", "report.n_grid", "report.worst_margin"])
def test_field_beyond_tolerance_fails(grid, path):
    certs, outcomes, ref = grid
    code, stdout, _ = outcomes["halfspace_control"]
    spec = ref["halfspace_control"]["fields"][path]
    tolerance = spec["atol"] + spec["rtol"] * abs(spec["value"])
    key = path.split(".", 1)[1]
    for factor, expect_problem in ((0.5, False), (2.0, True)):
        doc = json.loads(stdout)
        doc["report"][key] = spec["value"] + (factor * tolerance if tolerance else int(factor))
        problems = wl.check(certs["halfspace_control"], code, json.dumps(doc), ref)
        assert bool(problems) == expect_problem
        assert all(p.startswith(path) for p in problems)


def test_known_defect_only_in_its_recorded_form(grid):
    certs, outcomes, ref = grid
    cert = certs["ellipsoid_grid60"]
    code, stdout, error = outcomes["ellipsoid_grid60"]
    problems = wl.check(cert, code, stdout, ref, error)
    assert problems == ["exit 2, expected 0"]
    assert wl.known_defect(cert, code, stdout, problems)
    doc = json.loads(stdout)
    doc["report"]["n_grid"] += 1
    worse = wl.check(cert, code, json.dumps(doc), ref)
    assert not wl.known_defect(cert, code, json.dumps(doc), worse)


def test_tracer_wraps_every_binding_and_restores_them():
    import mconvex.cli as cli
    from mconvex import barrier as bar
    from mconvex import geometry as geo

    originals = (bar.levelset_shape, geo.levelset_shape, bar.SigmaSurface.project)
    trace = tracer.Tracer()
    trace.install()
    try:
        assert bar.levelset_shape is geo.levelset_shape is not originals[0]
        code, _, error = wl.run_certificate(cli, wl.Certificate("t", (
            "barrier-verify", "--domain", "ball:1", "--p", "0,0,1", "--m", "2",
            "--grid", "20", "--threads", "2", "--no-timestamp"), 0))
    finally:
        trace.uninstall()
    assert (bar.levelset_shape, geo.levelset_shape, bar.SigmaSurface.project) == originals
    assert error is None and code == 0
    m = tracer.layer_metrics(trace.spans)
    assert m["barrier.verify_barrier.calls"] == 1
    assert m["geometry.levelset_shape.calls"] > 0 and m["barrier.project.newton_iters"] > 0
    # chunks ran on worker threads, yet their spans belong to verify_barrier
    tubes = [s for s in trace.spans if s.name == "barrier.tube_eval"]
    assert len({s.tid for s in tubes}) == 2
    assert all(tracer._enclosing(s, {"barrier.verify_barrier"}) for s in tubes)
    # every point in N once, then the live ones again inside the field's jacobian
    assert m["barrier.tube_eval.per_query.verify_barrier"] == pytest.approx(
        1 + m["barrier.verify_barrier.live_points"] / m["barrier.verify_barrier.grid_points"])


def test_import_times_reads_0_for_a_module_no_longer_imported(monkeypatch):
    stderr = ("import time: self [us] | cumulative | imported package\n"
              "import time:       120 |       5000 |   numpy\n"
              "import time:        80 |     250000 | mconvex.cli\n"
              "import time:        90 |      70000 | jsonschema\n")
    monkeypatch.setattr(run.subprocess, "run",
                        lambda *a, **k: subprocess.CompletedProcess(a, 0, "", stderr))
    assert run.import_times() == pytest.approx({
        "import.mconvex_s": 0.25, "import.scipy_spatial_s": 0.0, "import.jsonschema_s": 0.07})
    monkeypatch.setattr(run.subprocess, "run",
                        lambda *a, **k: subprocess.CompletedProcess(a, 0, "", ""))
    with pytest.raises(RuntimeError):
        run.import_times()


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS.items())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracer.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "plateau", "--seed", "0",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
