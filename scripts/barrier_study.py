#!/usr/bin/env python3
"""Barrier construction sweep: domains x metrics, margins on refined grids.

Prints one row per configuration (K, epsilon, worst normalized margin) and
optionally dumps per-point margins to CSV for the worst case.
"""
import argparse
import sys

import numpy as np

from mconvex import barrier as bar
from mconvex import geometry as geo


def configurations():
    ball = geo.domain_ball(radius=1.0)
    scaled = geo.domain_ball(radius=1.0, metric=geo.metric_conformal("0 - log(2)"))
    big = geo.domain_ball(radius=2.0)
    yield "ball r=1 euclidean", ball, np.array([0.0, 0.0, 1.0])
    yield "ball r=1 conformal c=1/2", scaled, np.array([0.0, 0.0, 1.0])
    yield "ball r=2 euclidean", big, np.array([0.0, 0.0, 2.0])
    yield "cylinder r=1 (m=2)", geo.domain_cylinder(), np.array([1.0, 0.0, 0.0])


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--grid", type=int, default=50)
    ap.add_argument("--m", type=int, default=2)
    ap.add_argument("--out", default=None, help="CSV of margins for the last run")
    args = ap.parse_args()

    print(f"{'configuration':32s} {'K':>8s} {'eps':>8s} {'eta':>6s} {'worst margin':>13s} pass")
    failures = 0
    for name, domain, p in configurations():
        try:
            bundle = bar.build_barrier(domain, p, args.m)
        except bar.BarrierRefusal as exc:
            print(f"{name:32s} refused: {exc}")
            continue
        rep = bar.verify_barrier(bundle, grid_resolution=args.grid,
                                 keep_margins=args.out is not None)
        print(f"{name:32s} {bundle.K:8.4f} {bundle.epsilon:8.4f} "
              f"{bundle.eta:6.2f} {rep.worst_margin:13.3e} {rep.passed}")
        failures += not rep.passed
        if args.out:
            rep.write_margins(args.out)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
