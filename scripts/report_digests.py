#!/usr/bin/env python3
"""Print a short sha256 digest of each ``--no-timestamp`` CLI report.

Runs twenty-eight fixed CLI inputs in process and prints one line per input:
its name, the exit code and the first 16 hex digits of the sha256 of its
report.  The inputs are every theorem scenario, theorem6 at h = 1.5,
theorem1 and theorem5 under the constant conformal metric c = 1/2, nine
barrier-verify grids (the torus at m = 2 and at m = 1, which fails, among
them, and the ball under c = 1/2 written both as conformal:0-log(2) and as
the matrix 0.25 I, whose digests are equal), a convexity under a matrix
metric, two barrier-build bundles at the top of the unit ball (euclidean,
and under theorem3's family metric i = 2, 1.25 times euclidean), and eight
inputs that read meshes from temporary SVMESH files: five minimize runs
(the 513-vertex bulged disk, the same disk stopped by ``--max-iterations
1``, the 1537-vertex cap of the unit sphere, the 33-vertex bulged disk
under the metric e^{0.2 x1} delta, and a bulged 33-vertex chord polyline,
the one 1-dimensional mesh), the decomposition of theorem4's varifold over
the unit sphere, and the first variation of (x2, -x1, x3^2) on the
289-vertex bulged disk, under e^{0.2 x1} delta at quadrature order 4 and
under the euclidean metric.
The torus, the ellipsoid, the matrix metric and the non-constant conformal
metric are read through expressions.  Two trees print the same lines
exactly when their reports are byte-identical.

``report_digests.txt`` beside this script holds the expected lines; a change
that moves a report updates that file and says why.

    PYTHONPATH=src python scripts/report_digests.py | diff scripts/report_digests.txt -
"""
import contextlib
import hashlib
import io
import os
import sys
import tempfile

import numpy as np

from mconvex import cli
from mconvex import meshes
from mconvex import varifold as vf

_VERIFY = ("barrier-verify", "--threads", "2", "--m", "2")
_TORUS = ("--domain", "levelset:1-(sqrt(x1^2+x2^2)-3)^2-x3^2@-4.5,4.5", "--p", "2,0,0",
          "--grid", "50")

INPUTS = (
    ("theorem1", ("scenario", "--name", "theorem1")),
    ("theorem3", ("scenario", "--name", "theorem3")),
    ("theorem4", ("scenario", "--name", "theorem4")),
    ("theorem5", ("scenario", "--name", "theorem5")),
    ("theorem6", ("scenario", "--name", "theorem6")),
    ("theorem6_h1.5", ("scenario", "--name", "theorem6", "--h", "1.5")),
    ("theorem1_conformal", ("scenario", "--name", "theorem1", "--metric", "conformal:0-log(2)")),
    ("theorem5_conformal", ("scenario", "--name", "theorem5", "--metric", "conformal:0-log(2)")),
    ("ball_grid50", _VERIFY + ("--domain", "ball:1", "--p", "0,0,1", "--grid", "50")),
    ("ball_grid100", _VERIFY + ("--domain", "ball:1", "--p", "0,0,1", "--grid", "100")),
    ("ball_conformal_grid60", _VERIFY + ("--domain", "ball:1", "--metric", "conformal:0-log(2)",
                                         "--p", "0,0,1", "--grid", "60")),
    ("ball_matrix_grid60", _VERIFY + ("--domain", "ball:1", "--metric",
                                      "matrix:0.25;0;0;0.25;0;0.25", "--p", "0,0,1",
                                      "--grid", "60")),
    ("ellipsoid_grid60", _VERIFY + ("--domain", "levelset:1-x1^2/4-x2^2/4-x3^2@-2,2",
                                    "--p", "0,0,1", "--grid", "60")),
    ("halfspace_control", _VERIFY + ("--domain", "halfspace", "--p", "0,0,0", "--eta", "0.1",
                                     "--grid", "60")),
    ("cylinder_grid40", _VERIFY + ("--domain", "cylinder:1", "--p", "1,0,0", "--grid", "40")),
    ("torus_m2_grid50", _VERIFY + _TORUS),
    ("torus_m1_grid50", ("barrier-verify", "--threads", "2", "--m", "1") + _TORUS),
    ("ellipsoid_matrix", ("convexity", "--domain", "levelset:1-x1^2/4-x2^2/4-x3^2@-2,2",
                          "--p", "0,0,1", "--m", "2",
                          "--metric", "matrix:1+x1^2;0.2*x2;0.1;2+x3;0.3*x1*x3;1.5")),
    ("build_ball", ("barrier-build", "--domain", "ball:1", "--p", "0,0,1", "--m", "2")),
    ("build_family2", ("barrier-build", "--domain", "ball:1", "--p", "0,0,1", "--m", "2",
                       "--metric", "conformal:0.11157177565710488")),
)


def sphere_cap():
    """The 1537-vertex cap of the unit sphere over the disk of radius 0.5,
    scaled by 1 - 1e-4 so that its rim lies inside the unit ball."""
    disk = meshes.disk_mesh(radius=0.5, rings=16, segments=96)
    verts = disk.vertices.copy()
    verts[:, 2] = np.sqrt(1.0 - np.sum(verts[:, :2] ** 2, axis=1))
    return disk.with_vertices((1.0 - 1e-4) * verts)


def polyline():
    """The chord from (-0.5, 0, 0.5) to (0.5, 0, 0.5) in 32 segments, its
    interior lifted by 0.05 sin(pi t)."""
    t = np.linspace(0.0, 1.0, 33)
    verts = np.stack([t - 0.5, np.zeros(33), 0.5 + 0.05 * np.sin(np.pi * t)], axis=-1)
    return vf.SimplicialSurface(verts, np.stack([np.arange(32), np.arange(1, 33)], axis=-1))


def file_inputs(workdir):
    """The inputs that read SVMESH files, their meshes written under ``workdir``."""
    def write(name, mesh):
        path = os.path.join(workdir, f"{name}.svmesh")
        vf.write_svmesh(mesh, path)
        return path

    starts = (("minimize_disk513", meshes.bulged_disk_mesh(8, 64, 0.05), ()),
              ("minimize_disk513_cap1", meshes.bulged_disk_mesh(8, 64, 0.05),
               ("--max-iterations", "1")),
              ("minimize_cap1537", sphere_cap(), ()),
              ("minimize_conformal_x1", meshes.bulged_disk_mesh(2, 16, 0.05),
               ("--metric", "conformal:0.1*x1", "--tolerance", "1e-5")))
    inputs = [(name, ("minimize", "--mesh", write(name, mesh), "--domain", "ball:1") + options)
              for name, mesh, options in starts]
    varifold, boundary = meshes.theorem4_varifold()
    inputs.append(("decompose_theorem4", ("decompose", "--mesh", write("theorem4", varifold),
                                          "--boundary-mesh", write("sphere", boundary))))
    bulged = write("bulged", meshes.bulged_disk_mesh())
    inputs.append(("first_var_conformal", ("first-variation", "--mesh", bulged,
                                           "--field", "x2,0-x1,x3^2",
                                           "--metric", "conformal:0.1*x1", "--order", "4")))
    inputs.append(("first_var_euclidean", ("first-variation", "--mesh", bulged,
                                           "--field", "x2,0-x1,x3^2")))
    inputs.append(("minimize_polyline", ("minimize", "--mesh", write("polyline", polyline()),
                                         "--domain", "ball:1")))
    return tuple(inputs)


def digest(argv):
    """(exit code, first 16 hex digits of the sha256 of the report)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv) + ["--no-timestamp"])
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()[:16]


def main():
    with tempfile.TemporaryDirectory() as workdir:
        for name, argv in INPUTS + file_inputs(workdir):
            code, hexdigest = digest(argv)
            print(f"{name:22s} exit {code}  {hexdigest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
