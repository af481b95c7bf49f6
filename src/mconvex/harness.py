"""Theorem-level scenario pipelines.

Each scenario assembles domains, barriers, meshes, and the minimizer into a
single deterministic run and reports pass / fail / refused together with the
margins it measured.  "Refused" means a hypothesis gate failed: the scenario
never runs its main assertion in that case, mirroring the way the underlying
statements are conditional on strong convexity (or its h-shifted variant).
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from . import barrier as bar
from . import geometry as geo
from . import meshes
from . import minimizer as mz
from . import varifold as vf


# entries of one row block of the distance matrix in hausdorff_distance
_BLOCK_ENTRIES = 1 << 18

# every scenario, run by scenario_<name>, with the mean-curvature bound h it
# runs at when the caller gives none: theorem1, theorem3 and theorem4 read no h
# and refuse a nonzero one; the default sphere cap of theorem5/6 has |H| = 1
SCENARIO_H = {"theorem1": 0.0, "theorem3": 0.0, "theorem4": 0.0,
              "theorem5": 1.0, "theorem6": 1.0}


class ScenarioError(Exception):
    pass


def hausdorff_distance(A, B):
    """Symmetric Hausdorff distance between two finite point sets.

    The squared distance matrix is formed in row blocks, so memory stays
    bounded for large sets, summing the squared coordinate differences in
    the order ``np.linalg.norm`` does; only the two largest nearest-point
    distances are square-rooted, which gives the same result, since sqrt is
    monotone and correctly rounded.
    """
    a = np.atleast_2d(np.asarray(A, float))
    b = np.atleast_2d(np.asarray(B, float))
    if len(a) == 0 or len(b) == 0:
        raise ScenarioError("empty point set")
    rows = max(1, _BLOCK_ENTRIES // len(b))
    d_ab = 0.0
    to_a = np.full(len(b), np.inf)  # squared distance from each point of b to a
    for start in range(0, len(a), rows):
        block = a[start:start + rows]
        d2 = np.zeros((len(block), len(b)))
        for a_k, b_k in zip(block.T, b.T):
            diff = a_k[:, None] - b_k
            d2 += diff * diff
        d_ab = max(d_ab, float(np.max(np.min(d2, axis=1))))
        np.minimum(to_a, np.min(d2, axis=0), out=to_a)
    return float(np.sqrt(max(d_ab, float(np.max(to_a)))))


@dataclass
class ScenarioConfig:
    """Shared scenario knobs; the comment on each field names the scenarios
    that read it.  Every report records grid_resolution, m, h and p."""

    domain: geo.Domain = dc_field(default_factory=geo.domain_ball)  # all scenarios
    p: np.ndarray = dc_field(default_factory=lambda: np.array([0.0, 0.0, 1.0]))  # theorem1/3/5/6
    m: int = 2  # theorem1/3/5/6 (theorem4 uses n - 1)
    h: float = 0.0  # theorem5/6, finite and >= 0; theorem1/3/4 raise ScenarioError unless h = 0
    grid_resolution: int = 40  # theorem1: barrier verification grid
    mesh: Optional[vf.SimplicialSurface] = None  # minimized by theorem1/3, checked by theorem5/6
    family_range: tuple = (0, 10)  # theorem3/6: indices i of metric_family, at most 40

    def __post_init__(self):
        if not 0.0 <= self.h < np.inf:
            raise ScenarioError(f"h must be finite and nonnegative, got {self.h}")


def run_scenario(name, h=None, **fields):
    """Run scenario_<name> on ScenarioConfig(h=h, **fields), h None meaning its
    SCENARIO_H default; looked up at call time, so a wrapper set on it runs."""
    if name not in SCENARIO_H:
        raise ScenarioError(f"unknown scenario {name!r}; have {sorted(SCENARIO_H)}")
    cfg = ScenarioConfig(h=SCENARIO_H[name] if h is None else h, **fields)
    return globals()[f"scenario_{name}"](cfg)


def _provenance(cfg, bundle=None):
    out = {
        "grid_resolution": int(cfg.grid_resolution),
        "m": int(cfg.m),
        "h": float(cfg.h),
        "p": np.asarray(cfg.p, dtype=float).tolist(),
    }
    if bundle is not None:
        out.update(epsilon=float(bundle.epsilon), eta=float(bundle.eta), K=float(bundle.K))
    return out


def _refusal(cfg, reason):
    return {
        "status": "refused",
        "passed": False,
        "reason": f"hypothesis not satisfied: {reason}",
        "provenance": _provenance(cfg),
    }


def _reads_no_h(cfg, name):
    if cfg.h != 0.0:
        raise ScenarioError(f"{name} reads no mean-curvature bound; got h = {cfg.h:g}")


def _scenario_mesh(cfg, default):
    """cfg.mesh, or ``default()``; ScenarioError unless its dimension is cfg.m,
    since a barrier certified for m says nothing about a mesh of another
    dimension."""
    mesh = cfg.mesh if cfg.mesh is not None else default()
    if mesh.m != cfg.m:
        raise ScenarioError(f"the mesh has dimension {mesh.m}, but m = {cfg.m}")
    return mesh


def _default_plateau_mesh():
    """The anchored-circle test surface: radius 0.3, plane z = 0.85."""
    return meshes.disk_mesh(radius=0.3, center=(0.0, 0.0, 0.85), rings=6, segments=48)


def _cap_mesh(cfg):
    """cfg.mesh, or the unit sphere cap (|H| = 1) of the bounded-MC checks."""
    return _scenario_mesh(cfg, lambda: meshes.sphere_cap_mesh(rings=25, segments=100))


def _minimize(mesh, domain):
    """Minimize mesh in domain, rim anchored."""
    problem = mz.MinimizeProblem(domain, mesh, anchored=mesh.boundary_vertices(),
                                 max_iterations=3000, tolerance=1e-6)
    return mz.minimize(problem)


def exclusion(mesh, bundle):
    """Support distance from p of mesh's varifold under the barrier's metric,
    chord tolerance (twice the metric length c * max_edge of the mesh's
    longest edge) and exclusion margin, dist - (epsilon - chord_tol); all
    three in metric units.  The metric is c^2 * euclidean, so the varifold's
    atoms sit at the mesh's euclidean quadrature points, which are read
    without building frames."""
    points, _ = mesh.quadrature(2)
    dist = vf.support_distance(points, bundle.p, bundle.domain.metric)
    chord_tol = bundle.sigma.c * 2.0 * mesh.max_edge_length()
    return {
        "support_distance": float(dist),
        "epsilon": float(bundle.epsilon),
        "chord_tolerance": float(chord_tol),
        "exclusion_margin": float(dist - bundle.epsilon + chord_tol),
    }


def _minimize_and_exclude(mesh, bundle):
    """Minimize mesh under the barrier's metric; returns (mesh, report, exclusion)."""
    final, report = _minimize(mesh, bundle.domain)
    return final, report, exclusion(final, bundle)


def _bounded_mc_and_exclude(mesh, bundle, h):
    """check_bounded_mc of mesh against the barrier field; returns (check, exclusion)."""
    metric = bundle.domain.metric
    mc = vf.check_bounded_mc(vf.varifold_from_mesh(mesh, metric), bundle.field(), h, metric)
    return mc, exclusion(mesh, bundle)


def scenario_theorem1(cfg):
    """Exclusion of first-order minimizers from a strongly m-convex point."""
    _reads_no_h(cfg, "theorem1")
    domain = cfg.domain
    p = np.asarray(cfg.p, dtype=float)
    ksum, kind, _ = geo.m_convexity(domain, p, cfg.m)
    if kind != "strongly m-convex":
        return _refusal(cfg, f"point is {kind} (curvature sum {ksum:.6g})")
    mesh = _scenario_mesh(cfg, _default_plateau_mesh)
    bundle = bar.build_barrier(domain, p, cfg.m)
    verify = bar.verify_barrier(bundle, grid_resolution=cfg.grid_resolution)
    if not verify.passed:
        raise ScenarioError("barrier verification failed on a convex configuration")
    _, report, exclusion = _minimize_and_exclude(mesh, bundle)
    passed = report.converged and exclusion["exclusion_margin"] >= 0.0
    return {
        "status": "passed" if passed else "failed",
        "passed": bool(passed),
        **exclusion,
        "minimizer": {
            "converged": bool(report.converged),
            "iterations": int(report.iterations),
            "residual": float(report.residual),
            "final_area": float(report.final_area),
        },
        "barrier_worst_margin": float(verify.worst_margin),
        "provenance": _provenance(cfg, bundle),
    }


def metric_family(i):
    """g(i) = (1 + 2^{-i}) x euclidean, converging to the euclidean metric."""
    factor = 1.0 + 2.0 ** (-i)
    # conformal convention g = e^{2f} delta, so f = log(factor) / 2
    return geo.metric_conformal(f"{float(np.log(factor) / 2.0)!r}")


def _family_c2_distance(metric, limit, p):
    """Sup-norm distance of two constant-factor metric tensors, taken at p:
    both are constant, so it holds on the whole chart, and with no
    derivative gap it is also their C^2 distance."""
    if metric.constant_factor() is None or limit.constant_factor() is None:
        raise ScenarioError("the metric C^2 gap needs constant-factor metrics")
    return float(np.max(np.abs(metric.matrix(p) - limit.matrix(p))))


def _family_base(cfg, name):
    """cfg's domain; metric_family converges to the euclidean metric, so
    theorem3 and theorem6 refuse a domain with any other metric."""
    base = cfg.domain
    if base.metric.constant_factor() != 1.0:
        raise ScenarioError(f"{name} sweeps metrics converging to the euclidean one; "
                            "the domain's metric must be euclidean")
    return base


def _family_sweep(cfg, base, h, check):
    """Build the barrier with bound h under each metric_family(i) in place of
    base's metric and add check(bundle_i), which holds "ok", to run i; an i
    whose curvature sum at p is at most h fails unbuilt.  Returns runs, the
    first passing index i0 (or None) and whether every run from i0 on passed."""
    p = np.asarray(cfg.p, dtype=float)
    i_lo, i_hi = cfg.family_range
    runs, i0 = [], None
    for i in range(i_lo, min(i_hi, 40) + 1):
        dom_i = geo.Domain(metric_family(i), base.u0, base.chart)
        if geo.m_convexity(dom_i, p, cfg.m)[0] <= h:
            runs.append({"i": i, "ok": False, "reason": "curvature sum below h"})
            continue
        bundle_i = bar.build_barrier(dom_i, p, cfg.m, h=h)
        run = {"i": i, **check(bundle_i)}
        if run["ok"] and i0 is None:
            i0 = i
        runs.append(run)
    tail_ok = i0 is not None and all(r["ok"] for r in runs if r["i"] >= i0)
    return runs, i0, tail_ok


def _check_u_properties(bundle):
    """Sampled checks of the auxiliary-function properties, on a fixed draw
    of 4000 chart points.

    (i) u(p) = 0 and u > 0 elsewhere on N; (ii) {u <= eps} is compact
    (closed + bounded inside the chart box); (iii) boundary curvature sums
    exceed eta on the sublevel set; (iv) Sigma's curvature sums exceed eta
    at the feet of the construction's chart lattice.
    """
    rng = np.random.default_rng(0)
    domain = bundle.domain
    w = bundle.sigma.w
    p = bundle.p
    lo, hi = bundle.chart[:, 0], bundle.chart[:, 1]
    pts = lo + (hi - lo) * rng.random((4000, len(lo)))
    pts = pts[np.asarray(domain.contains(pts), dtype=bool)]
    vals = w.value(pts)
    off_p = np.linalg.norm(pts - p, axis=-1) > 1e-6
    prop_i = abs(float(w.value(p))) < 1e-12 and bool(np.all(vals[off_p] > 0.0))
    # (ii): the sublevel set never touches the open chart faces, so it is a
    # closed bounded subset of the box
    level = float(bundle.epsilon)
    sub = pts[vals <= level]
    face_gap = 0.0
    if len(sub):
        face_gap = float(np.min(np.minimum(sub - lo, hi - sub)))
    prop_ii = len(sub) == 0 or face_gap > 0.0
    # (iii): boundary curvature sums on the sublevel set
    bnd = geo.newton_level_project(domain.u0, pts)
    ok = np.all((bnd >= lo) & (bnd <= hi), axis=-1)
    bnd = bnd[ok & (w.value(np.where(ok[:, None], bnd, p)) <= 10 * level)]
    if len(bnd):
        kappas = geo.levelset_shape(domain.u0, bnd, domain.metric)
        sums = np.sum(kappas[:, : bundle.m], axis=-1)
        prop_iii = bool(np.min(sums) > bundle.eta)
        iii_margin = float(np.min(sums) - bundle.eta)
    else:
        prop_iii, iii_margin = True, float("nan")
    prop_iv = bool(bundle.tube_ksum_min > bundle.eta)
    return {
        "i": prop_i,
        "ii": prop_ii,
        "iii": prop_iii,
        "iii_margin": iii_margin,
        "iv": prop_iv,
        "iv_margin": float(bundle.tube_ksum_min - bundle.eta),
        "all": bool(prop_i and prop_ii and prop_iii and prop_iv),
    }


def scenario_theorem3(cfg):
    """Exclusion persists along a smoothly converging metric family."""
    _reads_no_h(cfg, "theorem3")
    base = _family_base(cfg, "theorem3")
    p = np.asarray(cfg.p, dtype=float)

    _, kind, _ = geo.m_convexity(base, p, cfg.m)
    if kind != "strongly m-convex":
        return _refusal(cfg, f"limit metric: point is {kind}")
    mesh = _scenario_mesh(cfg, _default_plateau_mesh)
    limit_bundle = bar.build_barrier(base, p, cfg.m)
    limit_props = _check_u_properties(limit_bundle)
    if not limit_props["all"]:
        raise ScenarioError(
            f"auxiliary-function properties fail under the limit metric: {limit_props}"
        )
    limit_mesh, limit_rep = _minimize(mesh, base)
    limit_support = vf.support_points(limit_mesh)

    def check(bundle_i):
        props = _check_u_properties(bundle_i)
        mesh_i, rep_i, exclusion = _minimize_and_exclude(mesh, bundle_i)
        return {
            "ok": bool(props["all"] and rep_i.converged
                       and exclusion["exclusion_margin"] >= 0.0),
            "properties": props,
            "epsilon": exclusion["epsilon"],
            "support_distance": exclusion["support_distance"],
            "exclusion_margin": exclusion["exclusion_margin"],
            "metric_c2_gap": _family_c2_distance(bundle_i.domain.metric, base.metric, p),
            "hausdorff_to_limit": hausdorff_distance(
                vf.support_points(mesh_i), limit_support
            ),
        }

    runs, i0, tail_ok = _family_sweep(cfg, base, 0.0, check)
    if i0 is None:
        return {
            "status": "failed", "passed": False, "runs": runs,
            "reason": "no index in the family satisfied the exclusion",
            "provenance": _provenance(cfg, limit_bundle),
        }
    # minimum-point check: u restricted to the support stays strictly positive
    u_min = float(np.min(limit_bundle.sigma.w.value(limit_support)))
    passed = tail_ok and u_min > 0.0
    return {
        "status": "passed" if passed else "failed",
        "passed": bool(passed),
        "i0": int(i0),
        "u_min_on_support": u_min,
        "limit_properties": limit_props,
        "limit_minimizer_converged": bool(limit_rep.converged),
        "runs": runs,
        "provenance": _provenance(cfg, limit_bundle),
    }


def scenario_theorem4(cfg):
    """Hypersurface case: barrier contradiction at mean-convex contact plus
    the boundary decomposition of integral varifolds."""
    _reads_no_h(cfg, "theorem4")
    domain = cfg.domain
    varifold_mesh, boundary_mesh = meshes.theorem4_varifold()
    n = domain.n
    m = n - 1
    # (a) contact with a strictly mean-convex boundary point forces the
    # Theorem 1-style contradiction: support inside the barrier's epsilon ball
    support = vf.support_points(varifold_mesh)
    u0_vals = domain.u0.value(support)
    touch = np.argmin(np.abs(u0_vals))
    contact = None
    contradiction = None
    if abs(u0_vals[touch]) <= 1e-6 * domain.chart_diameter():
        q = geo.newton_level_project(domain.u0, support[touch])
        ksum, kind, _ = geo.m_convexity(domain, q, m)
        if kind == "strongly m-convex":
            bundle = bar.build_barrier(domain, q, m)
            # distance measured on the mesh support itself: the contact
            # vertex lies on dN, so any positive epsilon is a contradiction
            dist = vf.support_distance(support, q, domain.metric)
            contact = {"point": q.tolist(), "curvature_sum": float(ksum)}
            contradiction = {
                "support_distance": float(dist),
                "epsilon": float(bundle.epsilon),
                "found": bool(dist < bundle.epsilon),
            }
    # (b) decomposition
    W, Wp, d = vf.decompose_integral(varifold_mesh, boundary_mesh)
    disjoint = True
    if Wp is not None:
        gaps = np.abs(domain.u0.value(vf.support_points(Wp)))
        disjoint = bool(np.min(gaps) > 1e-6 * domain.chart_diameter())
    passed = (contradiction is None or contradiction["found"]) and disjoint
    return {
        "status": "passed" if passed else "failed",
        "passed": bool(passed),
        "contact": contact,
        "contradiction": contradiction,
        "decomposition": {
            "d": int(d),
            "W_simplices": 0 if W is None else int(len(W.simplices)),
            "W_prime_simplices": 0 if Wp is None else int(len(Wp.simplices)),
            "W_prime_disjoint_from_boundary": disjoint,
        },
        "provenance": _provenance(cfg),
    }


def scenario_theorem5(cfg):
    """Bounded-mean-curvature exclusion: curvature sum must exceed h."""
    domain = cfg.domain
    p = np.asarray(cfg.p, dtype=float)
    ksum, kind, _ = geo.m_convexity(domain, p, cfg.m)
    if ksum <= cfg.h:
        return _refusal(cfg, f"curvature sum {ksum:.6g} <= h = {cfg.h:.6g}")
    mesh = _cap_mesh(cfg)
    bundle = bar.build_barrier(domain, p, cfg.m, h=cfg.h)
    if not (cfg.h < bundle.eta < ksum):
        raise ScenarioError("eta landed outside (h, curvature sum)")
    mc, exclusion = _bounded_mc_and_exclude(mesh, bundle, cfg.h)
    # two-part interpretation on the smooth test mesh
    H, interior = vf.mesh_mean_curvature(mesh, domain.metric)
    interior_max = (float(np.max(domain.metric.norm(mesh.vertices[interior], H[interior])))
                    if np.any(interior) else 0.0)
    mc_interior_ok = interior_max <= cfg.h * 1.05 if cfg.h > 0 else interior_max <= 1e-8
    passed = mc["passed"] and exclusion["exclusion_margin"] >= 0.0 and mc_interior_ok
    return {
        "status": "passed" if passed else "failed",
        "passed": bool(passed),
        "bounded_mc_check": mc,
        "support_distance": exclusion["support_distance"],
        "epsilon": exclusion["epsilon"],
        "chord_tolerance": exclusion["chord_tolerance"],
        "interior_H_max": interior_max,
        "boundary_vertex_count": int(np.sum(~interior)),
        "provenance": _provenance(cfg, bundle),
    }


def scenario_theorem6(cfg):
    """Theorem 3 pipeline with the bounded-mean-curvature condition."""
    base = _family_base(cfg, "theorem6")
    p = np.asarray(cfg.p, dtype=float)
    ksum, _, _ = geo.m_convexity(base, p, cfg.m)
    if ksum <= cfg.h:
        return _refusal(cfg, f"curvature sum {ksum:.6g} <= h = {cfg.h:.6g}")
    mesh = _cap_mesh(cfg)

    def check(bundle_i):
        mc, exclusion = _bounded_mc_and_exclude(mesh, bundle_i, cfg.h)
        return {
            "ok": bool(mc["passed"] and exclusion["exclusion_margin"] >= 0.0),
            "exclusion_margin": exclusion["exclusion_margin"],
            "epsilon": exclusion["epsilon"],
            "bounded_mc_value": mc["value"],
            "bounded_mc_n_live": mc["n_live"],
        }

    runs, i0, passed = _family_sweep(cfg, base, cfg.h, check)
    return {
        "status": "passed" if passed else "failed",
        "passed": bool(passed),
        "i0": None if i0 is None else int(i0),
        "runs": runs,
        "provenance": _provenance(cfg),
    }
