#!/usr/bin/env python3
"""Anchored-circle Plateau run in the unit ball, with convergence CSV.

Starts from a bulged disk spanning a circle of radius 0.3 in the plane
z = 0.85, minimizes area subject to u0 >= 0, and reports the distance of the
final support to the north pole against the barrier's epsilon.
"""
import argparse
import sys

import numpy as np

from mconvex import barrier as bar
from mconvex import geometry as geo
from mconvex import harness as hz
from mconvex import meshes
from mconvex import minimizer as mz
from mconvex import varifold as vf


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rings", type=int, default=6)
    ap.add_argument("--segments", type=int, default=48)
    ap.add_argument("--bulge", type=float, default=0.05)
    ap.add_argument("--tolerance", type=float, default=1e-6)
    ap.add_argument("--out", default="plateau_convergence.csv")
    ap.add_argument("--out-mesh", default=None)
    args = ap.parse_args()

    domain = geo.domain_ball(radius=1.0)
    p = np.array([0.0, 0.0, 1.0])
    start = meshes.bulged_disk_mesh(args.rings, args.segments, args.bulge)
    rim = start.boundary_vertices()

    problem = mz.MinimizeProblem(domain, start, anchored=rim,
                                 tolerance=args.tolerance)
    final, report = mz.minimize(problem)
    report.to_csv(args.out)
    if args.out_mesh:
        vf.write_svmesh(final, args.out_mesh)

    bundle = bar.build_barrier(domain, p, m=2)
    ex = hz.exclusion(final, bundle)
    print(f"converged={report.converged} iterations={report.iterations} "
          f"residual={report.residual:.3e}")
    print(f"final area = {report.final_area:.8f} (flat polygon: "
          f"{0.5 * args.segments * np.sin(2 * np.pi / args.segments) * 0.09:.8f})")
    print(f"support distance to pole = {ex['support_distance']:.6f}, "
          f"epsilon = {ex['epsilon']:.6f}, chord tolerance = {ex['chord_tolerance']:.6f}, "
          f"exclusion margin = {ex['exclusion_margin']:.6f}")
    ok = report.converged and ex["exclusion_margin"] >= 0.0
    print("exclusion holds" if ok else "EXCLUSION VIOLATED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
