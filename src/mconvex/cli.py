"""Command-line front end.

Every subcommand prints one JSON report on stdout and uses the exit code to
classify the outcome: 0 = computation ran and the mathematical assertion
holds, 2 = the assertion failed (or a theorem hypothesis was violated),
1 = usage or runtime error.  Reports validate against the schema shipped in
docs/report_schema.json.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys
from datetime import datetime, timezone

import numpy as np

from . import barrier as bar
from . import exprfield
from . import geometry as geo
from . import harness as hz
from . import minimizer as mz
from . import varifold as vf

EXIT_PASS = 0
EXIT_USAGE = 1
EXIT_ASSERTION = 2

class UsageError(Exception):
    pass


def _parse_point(text, n=3, what="point"):
    try:
        vals = [float(t) for t in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"bad {what} {text!r}: expected comma-separated floats") from exc
    if len(vals) != n:
        raise UsageError(f"{what} {text!r} has {len(vals)} components, expected {n}")
    return np.asarray(vals)


def _parse_radius(text):
    if not text:
        return 1.0
    (r,) = _parse_point(text, 1, "radius")
    if not 0.0 < r < np.inf:
        raise UsageError(f"radius {text!r} must be positive and finite")
    return r


def _check_m(m):
    """m counts boundary curvatures: 1 <= m <= n - 1, and n = 3."""
    if not 1 <= m <= 2:
        raise UsageError(f"--m must be 1 or 2 (a boundary in R^3 has 2 curvatures), got {m}")
    return m


def _at_least_one(flag, value):
    if value < 1:
        raise UsageError(f"{flag} must be at least 1, got {value}")
    return value


def _parse_metric(spec):
    if spec is None or spec == "euclidean":
        return None
    kind, _, rest = spec.partition(":")
    if kind == "conformal":
        if not rest:
            raise UsageError("conformal metric needs an expression: conformal:EXPR")
        return geo.metric_conformal(rest)
    if kind == "matrix":
        entries = rest.split(";")
        if len(entries) != 6:
            raise UsageError("matrix metric needs 6 upper-triangle entries g11;g12;g13;g22;g23;g33")
        return geo.MetricField(entries)
    raise UsageError(f"unknown metric spec {spec!r}")


def _parse_domain(spec, metric_spec=None):
    metric = _parse_metric(metric_spec)
    kind, _, rest = spec.partition(":")
    if kind == "ball":
        return geo.domain_ball(radius=_parse_radius(rest), metric=metric)
    if kind == "halfspace":
        return geo.domain_halfspace(metric=metric)
    if kind == "cylinder":
        return geo.domain_cylinder(radius=_parse_radius(rest), metric=metric)
    if kind == "levelset":
        expr, _, chart = rest.partition("@")
        if not expr:
            raise UsageError("levelset domain: levelset:EXPR[@lo,hi]")
        lo, hi = _parse_point(chart, 2, "chart") if chart else (-2.0, 2.0)
        if not -np.inf < lo < hi < np.inf:
            raise UsageError(f"chart {chart!r} needs finite lo < hi")
        return geo.domain_levelset(expr, np.array([[lo, hi]] * 3), metric=metric)
    raise UsageError(f"unknown domain spec {spec!r}")


def _parse_field(spec, n=3):
    parts = spec.split(",")
    if len(parts) != n:
        raise UsageError(f"vectorfield needs {n} comma-separated component expressions")
    try:
        return geo.ExprVectorField(parts, n)
    except exprfield.ExprError as exc:
        raise UsageError(f"bad field expression: {exc}") from exc


def _emit(args, command, passed, report):
    doc = {"command": command, "passed": bool(passed), "report": report}
    if not args.no_timestamp:
        doc["timestamp"] = datetime.now(timezone.utc).isoformat()
    json.dump(doc, sys.stdout, indent=2, sort_keys=True, default=_jsonable)
    sys.stdout.write("\n")
    return EXIT_PASS if passed else EXIT_ASSERTION


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    raise TypeError(f"not JSON-serializable: {type(obj)!r}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_convexity(args):
    domain = _parse_domain(args.domain, args.metric)
    p = _parse_point(args.p)
    ksum, kind, kappas = geo.m_convexity(domain, p, _check_m(args.m))
    return _emit(args, "convexity", kind == "strongly m-convex", {
        "curvature_sum": float(ksum),
        "classification": kind,
        "principal_curvatures": np.asarray(kappas).tolist(),
        "m": args.m,
        "p": p.tolist(),
    })


def _build(args, enforce):
    domain = _parse_domain(args.domain, args.metric)
    p = _parse_point(args.p)
    return domain, bar.build_barrier(
        domain, p, _check_m(args.m), eta=args.eta, h=args.h, enforce_hypothesis=enforce)


def cmd_barrier_build(args):
    try:
        _, bundle = _build(args, enforce=True)
    except bar.BarrierRefusal as exc:
        return _emit(args, "barrier-build", False, {"refused": True, "reason": str(exc)})
    return _emit(args, "barrier-build", True, {
        "K": bundle.K,
        "epsilon": bundle.epsilon,
        "eta": bundle.eta,
        "curvature_sum_at_p": bundle.kappa_sum_p,
        "tube_ksum_min": bundle.tube_ksum_min,
        "chart": bundle.chart.tolist(),
        "scale_factor": bundle.sigma.c,
    })


def cmd_barrier_verify(args):
    # hypothesis is deliberately not enforced here so that expected-failure
    # demonstrations (half-space) run and exit 2 on their bad margins
    if not 0.0 <= args.tolerance < np.inf:
        raise UsageError(f"--tolerance must be finite and nonnegative, got {args.tolerance}")
    grid, threads = _at_least_one("--grid", args.grid), _at_least_one("--threads", args.threads)
    _, bundle = _build(args, enforce=False)
    report = bar.verify_barrier(
        bundle, grid_resolution=grid, tolerance=args.tolerance,
        threads=threads, keep_margins=args.out is not None,
    )
    if args.out:
        report.write_margins(args.out)
    return _emit(args, "barrier-verify", report.passed, report.to_dict())


def cmd_first_variation(args):
    mesh = vf.read_svmesh(args.mesh)
    metric = _parse_metric(args.metric) or geo.metric_euclidean(mesh.n)
    X = _parse_field(args.field, mesh.n)
    V = vf.varifold_from_mesh(mesh, metric, order=args.order)
    dv = vf.first_variation(V, X, metric)
    return _emit(args, "first-variation", True, {
        "delta_V": dv,
        "total_weight": V.total_weight,
        "atoms": int(len(V.points)),
        "quadrature_order": args.order,
    })


def cmd_minimize(args):
    _at_least_one("--max-iterations", args.max_iterations)
    if not 0.0 < args.tolerance < np.inf:
        raise UsageError(f"--tolerance must be positive and finite, got {args.tolerance}")
    domain = _parse_domain(args.domain, args.metric)
    mesh = vf.read_svmesh(args.mesh)
    if args.anchors:
        try:
            anchored = [int(t) for t in args.anchors.split(",")]
        except ValueError as exc:
            raise UsageError(f"bad --anchors {args.anchors!r}: expected comma-separated "
                             "vertex indices") from exc
    else:
        anchored = mesh.boundary_vertices()
    problem = mz.MinimizeProblem(
        domain, mesh, anchored=anchored,
        max_iterations=args.max_iterations, tolerance=args.tolerance,
    )
    final, report = mz.minimize(problem)
    if args.out_mesh:
        vf.write_svmesh(final, args.out_mesh)
    if args.out:
        report.to_csv(args.out)
    return _emit(args, "minimize", report.converged, {
        "converged": report.converged,
        "iterations": report.iterations,
        "final_area": report.final_area,
        "projected_gradient_residual": report.residual,
        "stationarity_residual": report.stationarity_residual,
        "anchored_vertices": int(len(problem.anchored)),
        "diagnostics": {
            "cg_iterations": report.cg_iterations,
            "line_search_halvings": report.line_search_halvings,
            "active_boundary_vertices": report.active_boundary_vertices,
        },
    })


def cmd_decompose(args):
    mesh = vf.read_svmesh(args.mesh)
    boundary = vf.read_svmesh(args.boundary_mesh)
    try:
        W, Wp, d = vf.decompose_integral(mesh, boundary)
    except (vf.NonIntegralError, vf.DecompositionError) as exc:
        return _emit(args, "decompose", False, {
            "rejected": True, "reason": str(exc),
        })
    if args.out_mesh and Wp is not None:
        vf.write_svmesh(Wp, args.out_mesh)
    return _emit(args, "decompose", True, {
        "d": int(d),
        "W_simplices": 0 if W is None else int(len(W.simplices)),
        "W_prime_simplices": 0 if Wp is None else int(len(Wp.simplices)),
    })


def cmd_scenario(args):
    report = hz.run_scenario(
        args.name,
        h=args.h,
        domain=_parse_domain(args.domain, args.metric),
        p=_parse_point(args.p),
        m=_check_m(args.m),
        grid_resolution=_at_least_one("--grid", args.grid),
    )
    return _emit(args, f"scenario:{args.name}", report.get("status") == "passed", report)


# ---------------------------------------------------------------------------


def _add_common(sp, metric=True):
    """--no-timestamp, and --metric where the subcommand reads it."""
    if metric:
        sp.add_argument("--metric", default=None,
                        help="euclidean | conformal:EXPR | matrix:g11;g12;g13;g22;g23;g33")
    sp.add_argument("--no-timestamp", action="store_true",
                    help="omit the timestamp for byte-identical reruns")


def _accept_ignored_seed(sp):
    """--seed, for callers that still pass it; no report depends on a seed."""
    sp.add_argument("--seed", type=int, default=0, help="accepted and ignored")


def _add_barrier_args(sp):
    sp.add_argument("--domain", required=True, help="ball:R | halfspace | cylinder:R | levelset:EXPR[@lo,hi]")
    sp.add_argument("--p", required=True, help="boundary point, e.g. 0,0,1")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--eta", type=float, default=None)
    sp.add_argument("--h", type=float, default=0.0)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="mconvex",
        description="Barrier constructions and maximum-principle checks for "
                    "minimal varieties in m-convex domains.",
    )
    sub = ap.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("convexity", help="classify m-convexity at a boundary point")
    sp.add_argument("--domain", required=True)
    sp.add_argument("--p", required=True)
    sp.add_argument("--m", type=int, required=True)
    _add_common(sp)
    sp.set_defaults(func=cmd_convexity)

    sp = sub.add_parser("barrier-build", help="construct the barrier bundle")
    _add_barrier_args(sp)
    _add_common(sp)
    sp.set_defaults(func=cmd_barrier_build)

    sp = sub.add_parser("barrier-verify", help="verify the barrier inequality on a grid")
    _add_barrier_args(sp)
    sp.add_argument("--grid", type=int, default=50, help="at least 1")
    sp.add_argument("--tolerance", type=float, default=1e-7, help="finite, nonnegative")
    sp.add_argument("--out", default=None, help="CSV of per-point margins")
    sp.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                    help="worker threads, at least 1 (default: cpu count)")
    _add_common(sp)
    _accept_ignored_seed(sp)
    sp.set_defaults(func=cmd_barrier_verify)

    sp = sub.add_parser("first-variation", help="delta V(X) of a mesh varifold")
    sp.add_argument("--mesh", required=True, help="SVMESH file")
    sp.add_argument("--field", required=True, help="comma-separated component expressions")
    sp.add_argument("--order", type=int, default=2)
    _add_common(sp)
    sp.set_defaults(func=cmd_first_variation)

    sp = sub.add_parser("minimize", help="Laplacian-preconditioned area minimization")
    sp.add_argument("--mesh", required=True)
    sp.add_argument("--domain", required=True)
    sp.add_argument("--anchors", default=None,
                    help="comma-separated vertex indices (default: mesh boundary)")
    sp.add_argument("--max-iterations", type=int, default=3000, help="at least 1")
    sp.add_argument("--tolerance", type=float, default=1e-6, help="positive, finite")
    sp.add_argument("--out-mesh", default=None)
    sp.add_argument("--out", default=None, help="convergence CSV")
    _add_common(sp)
    _accept_ignored_seed(sp)
    sp.set_defaults(func=cmd_minimize)

    sp = sub.add_parser("decompose", help="boundary + interior split of an integral varifold")
    sp.add_argument("--mesh", required=True)
    sp.add_argument("--boundary-mesh", required=True)
    sp.add_argument("--out-mesh", default=None, help="write the interior part")
    _add_common(sp, metric=False)
    sp.set_defaults(func=cmd_decompose)

    sp = sub.add_parser("scenario", help="run a theorem-level pipeline")
    sp.add_argument("--name", required=True, help=" | ".join(hz.SCENARIO_H))
    sp.add_argument("--domain", default="ball:1",
                    help="ball:R | halfspace | cylinder:R | levelset:EXPR[@lo,hi] (default ball:1)")
    sp.add_argument("--p", default="0,0,1")
    sp.add_argument("--m", type=int, default=2)
    sp.add_argument("--h", type=float, default=None, help="mean-curvature bound (default: "
                    + ", ".join(f"{k} {v:g}" for k, v in hz.SCENARIO_H.items()) + ")")
    sp.add_argument("--grid", type=int, default=40, help="at least 1")
    _add_common(sp)
    _accept_ignored_seed(sp)
    sp.set_defaults(func=cmd_scenario)

    return ap


def _join_signed_values(argv):
    """``--p -1,0,0`` becomes ``--p=-1,0,0``.  argparse reads a token that
    starts with '-' as an option unless it is a plain number such as -1 or
    -1.5; no option name here starts with '-' and a digit or a '.'."""
    out = []
    for tok in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and re.match(r"-[\d.]", tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(_join_signed_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (UsageError, vf.MeshFormatError, OSError, geo.GeometryError,
            exprfield.ExprError, vf.VarifoldError, mz.MinimizeError, hz.ScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
