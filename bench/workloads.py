"""Workload inputs and the correctness oracle of the mconvex benchmark.

A workload is a list of certificates.  A certificate is one argument vector
for ``mconvex.cli.main`` together with the verdict it must give: the exit code
that the mathematics predicts (0 = the assertion holds, 2 = it fails).  Its
report is also compared, field by field, with ``reference.json``, which
``record_reference.py`` wrote at the commit that introduced the benchmark.

A certificate fails when the call raises, when its exit code differs from the
expected verdict, or when a checked report field differs from the reference by
more than the field's tolerance.
"""
from __future__ import annotations

import contextlib
import fnmatch
import io
import json
import math
import os
import random
from dataclasses import dataclass

EXIT_PASS = 0
EXIT_ASSERTION = 2

WORKLOADS = ("grid_certify", "scenarios", "plateau")

# Plateau starts.  The minimizer's iteration count is chaotic in the start
# (196 to 536 iterations for bulge amplitudes 0.001 apart), and about 1 in 50
# 513-vertex starts stalls until the iteration cap (see METRICS.md).  Seeded
# 513-vertex starts made the pass time swing by 2x between seeds, so the
# 513-vertex disk uses one fixed amplitude, which converges at the commit that
# added the benchmark, and the seed picks the amplitudes of the 33-vertex
# starts (13 to 17 iterations each).
DISK513_AMPLITUDE = 0.05
DISK33_STARTS = 3
AMPLITUDE_RANGE = (0.04, 0.06)

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


@dataclass(frozen=True)
class Certificate:
    kind: str          # key into the reference; plateau amplitudes share a kind
    argv: tuple
    expect_exit: int


def cli_seed(seed):
    """The seed handed to every CLI call (the CLI needs a non-negative int)."""
    return seed % 2**31


def disk33_amplitudes(seed, count=DISK33_STARTS):
    """Bulge amplitudes of the 33-vertex starts, one in each of ``count``
    equal strata of AMPLITUDE_RANGE."""
    lo, hi = AMPLITUDE_RANGE
    u = random.Random(seed).random()
    return [lo + (hi - lo) * (j + u) / count for j in range(count)]


_VERIFY = ("barrier-verify", "--threads", "2", "--m", "2")

GRID_CERTIFY = (
    ("ball_grid100", ("--domain", "ball:1", "--p", "0,0,1", "--grid", "100"), EXIT_PASS),
    ("ball_conformal_grid60", ("--domain", "ball:1", "--metric", "conformal:0-log(2)",
                               "--p", "0,0,1", "--grid", "60"), EXIT_PASS),
    # Strongly 2-convex (curvature sum 0.5 > eta 0.25), so the verdict is
    # "pass".  At the seed commit it fails: see KNOWN_DEFECTS.
    ("ellipsoid_grid60", ("--domain", "levelset:1-x1^2/4-x2^2/4-x3^2@-2,2",
                          "--p", "0,0,1", "--grid", "60"), EXIT_PASS),
    # Negative control: the half-space is flat, so no eta > 0 can hold.
    ("halfspace_control", ("--domain", "halfspace", "--p", "0,0,0", "--eta", "0.1",
                           "--grid", "60"), EXIT_ASSERTION),
)

SCENARIOS = (
    ("theorem1", ("--name", "theorem1")),
    ("theorem3", ("--name", "theorem3")),
    ("theorem4", ("--name", "theorem4")),
    ("theorem5", ("--name", "theorem5", "--h", "1")),
    ("theorem6", ("--name", "theorem6", "--h", "1")),
)

# Failures kept visible on purpose.  Each maps a certificate kind to a test of
# the exact way it is known to fail; any other failure of that certificate is
# a new defect.
KNOWN_DEFECTS = {
    # At grid 60, eight points just inside the cutoff have phi(u) = 5e-324
    # (subnormal), so the normalized margin (Psi + eta phi) / (phi (1 + K))
    # rounds to exactly 1.0 at a strongly 2-convex point.
    "ellipsoid_grid60": lambda code, doc: (
        code == EXIT_ASSERTION and doc["report"]["worst_margin"] == 1.0
    ),
}


def bulged_disk(rings, segments, amplitude):
    """The bulged disk of ``scripts/plateau_run.py``: radius 0.3 at z = 0.85,
    interior lifted by ``amplitude * cos(pi r / 0.6)``, rim unchanged."""
    import numpy as np
    from mconvex import meshes

    disk = meshes.disk_mesh(radius=0.3, center=(0.0, 0.0, 0.85),
                            rings=rings, segments=segments)
    rim = disk.boundary_vertices()
    verts = disk.vertices.copy()
    interior = np.setdiff1d(np.arange(len(verts)), rim)
    r = np.linalg.norm(verts[interior, :2], axis=1)
    verts[interior, 2] += amplitude * np.cos(np.pi * r / 0.6)
    return disk.with_vertices(verts)


def setup(workload, seed, workdir):
    """Import the CLI and make the workload's inputs; returns its certificates.

    Plateau start meshes are written as SVMESH files under ``workdir``.
    """
    import mconvex.cli  # noqa: F401  (the import is part of set-up time)

    common = ("--seed", str(cli_seed(seed)), "--no-timestamp")
    if workload == "grid_certify":
        return [Certificate(kind, _VERIFY + args + common, code)
                for kind, args, code in GRID_CERTIFY]
    if workload == "scenarios":
        return [Certificate(kind, ("scenario",) + args + common, EXIT_PASS)
                for kind, args in SCENARIOS]
    if workload == "plateau":
        from mconvex import varifold as vf

        os.makedirs(workdir, exist_ok=True)
        certs = []

        def start(name, rings, segments, amplitude):
            path = os.path.join(workdir, f"{name}.svmesh")
            vf.write_svmesh(bulged_disk(rings, segments, amplitude), path)
            return ("minimize", "--mesh", path, "--domain", "ball:1")

        base = start("disk513", 8, 64, DISK513_AMPLITUDE)
        certs.append(Certificate("disk513_ball", base + common, EXIT_PASS))
        certs.append(Certificate("disk513_conformal",
                                 base + ("--metric", "conformal:0.1") + common, EXIT_PASS))
        # a non-constant conformal factor reaches the finite-difference area
        # gradient of the minimizer
        for j, amp in enumerate(disk33_amplitudes(seed)):
            base = start(f"disk33_{j}", 2, 16, amp)
            certs.append(Certificate(
                "disk33_conformal_x1",
                base + ("--metric", "conformal:0.1*x1", "--tolerance", "1e-5") + common,
                EXIT_PASS))
        return certs
    raise ValueError(f"unknown workload {workload!r}")


def run_certificate(cli, cert):
    """Call ``cli.main`` as a user would, with stdout captured.

    Returns ``(exit code, stdout, exception)``; a certificate that raises is
    recorded, not propagated, so the remaining certificates still run.
    """
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(cert.argv))
    except Exception as exc:
        return None, buf.getvalue(), exc
    return code, buf.getvalue(), None


# --------------------------------------------------------------------------
# checked report fields

DEFAULT_RTOL = 1e-7
DEFAULT_ATOL = 1e-12
SKIP = "skip"

# Tolerance overrides by workload, as (certificate-kind pattern, field-path
# pattern, rule); the first match wins.  A rule is SKIP or (rtol, atol).
# Every other leaf of the report must match exactly (ints, bools, strings) or
# to DEFAULT_RTOL (floats).  The "passed" flags repeat the exit code, which
# the expected verdict checks.
FIELD_RULES = {
    "grid_certify": (
        ("*", "passed", SKIP),
        ("*", "report.passed", SKIP),
        # K is 1.25x the largest of 2000 sampled tube curvatures
        ("*", "report.K", (0.02, 0.0)),
        # live points at the cutoff edge depend on how phi's underflow is treated
        ("*", "report.n_tube", (1e-3, 0.0)),
        # the known defect's output; its verdict is checked instead
        ("ellipsoid_grid60", "report.worst_*", SKIP),
        # the margin is normalized by 1 + K
        ("halfspace_control", "report.worst_margin", (0.02, 0.0)),
    ),
    "scenarios": (
        ("*", "passed", SKIP),
        ("*", "report.passed", SKIP),
        ("*", "report.status", SKIP),
        ("*", "report.provenance.seed", SKIP),
        ("*", "*.K", (0.02, 0.0)),
        # minimum over sampled tube curvature sums, minus eta; the "iv" flag
        # that it is positive is checked
        ("*", "*.iv_margin", SKIP),
        # how often build_barrier shrinks a family member's chart depends on
        # the sampled curvatures (theorem3's i = 2 jumps between 0.050 and
        # 0.072 with the seed); each run's "ok" flag is checked
        ("*", "report.runs.*.epsilon", SKIP),
        ("*", "report.runs.*.exclusion_margin", SKIP),
    ),
    "plateau": (
        ("*", "passed", SKIP),
        ("*", "report.converged", SKIP),
        # the path to the minimum depends on the start amplitude; the minimum
        # (final_area) does not
        ("*", "report.iterations", SKIP),
        ("*", "report.projected_gradient_residual", SKIP),
        # worst first variation over a battery of bump fields that the seed
        # draws: 0 to 0.058 on the 513-vertex disk over seeds 0 to 7
        ("*", "report.stationarity_residual", SKIP),
    ),
}


def field_rule(workload, kind, path):
    for kind_pat, path_pat, rule in FIELD_RULES[workload]:
        if fnmatch.fnmatchcase(kind, kind_pat) and fnmatch.fnmatchcase(path, path_pat):
            return rule
    return None


def flatten(doc, prefix=""):
    """Leaves of a JSON document as ``{"a.b.0": value}``."""
    out = {}
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return {prefix: doc}
    for key, value in items:
        out.update(flatten(value, f"{prefix}.{key}" if prefix else str(key)))
    return out


def load_reference(path=REFERENCE_PATH):
    with open(path) as fh:
        return json.load(fh)


def within(value, spec):
    """Whether a report value matches a reference entry."""
    ref = spec["value"]
    if isinstance(ref, bool) or isinstance(value, bool) or ref is None or isinstance(ref, str):
        return value == ref
    if not isinstance(value, (int, float)):
        return False
    if not (math.isfinite(value) and math.isfinite(ref)):
        return value == ref
    return abs(value - ref) <= spec["atol"] + spec["rtol"] * abs(ref)


def check(cert, code, stdout, reference, error=None):
    """Problems with one certificate's outcome; an empty list means it holds.

    ``reference`` is the workload's entry of ``reference.json``.
    """
    if error is not None:
        return [f"raised {type(error).__name__}: {error}"]
    problems = []
    if code != cert.expect_exit:
        problems.append(f"exit {code}, expected {cert.expect_exit}")
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        return problems + ["report is not JSON"]
    fields = flatten(doc)
    for path, spec in reference[cert.kind]["fields"].items():
        if path not in fields:
            problems.append(f"{path} missing")
        elif not within(fields[path], spec):
            problems.append(f"{path} = {fields[path]!r}, reference {spec}")
    return problems


def known_defect(cert, code, stdout, problems):
    """Whether a failed certificate failed exactly as its known defect does:
    the verdict is the only problem and the report shows the defect."""
    test = KNOWN_DEFECTS.get(cert.kind)
    if test is None or len(problems) != 1 or not problems[0].startswith("exit "):
        return False
    return bool(test(code, json.loads(stdout)))
