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

# the mean-curvature bound h of the theorem5 and theorem6 pipelines when the
# caller gives none (the default sphere cap has |H| = 1)
BOUNDED_MC_H = 1.0


class ScenarioError(Exception):
    pass


def hausdorff_distance(A, B):
    """Symmetric Hausdorff distance between two finite point sets.

    The distance matrix is formed in row blocks, so memory stays bounded for
    large sets.
    """
    a = np.atleast_2d(np.asarray(A, float))
    b = np.atleast_2d(np.asarray(B, float))
    if len(a) == 0 or len(b) == 0:
        raise ScenarioError("empty point set")
    rows = max(1, _BLOCK_ENTRIES // len(b))
    d_ab = 0.0
    to_a = np.full(len(b), np.inf)  # distance from each point of b to a
    for start in range(0, len(a), rows):
        d = np.linalg.norm(a[start:start + rows, None, :] - b[None, :, :], axis=-1)
        d_ab = max(d_ab, float(np.max(np.min(d, axis=1))))
        np.minimum(to_a, np.min(d, axis=0), out=to_a)
    return max(d_ab, float(np.max(to_a)))


@dataclass
class ScenarioConfig:
    """Shared scenario knobs; scenario functions read what they need."""

    domain: Optional[geo.Domain] = None
    p: np.ndarray = dc_field(default_factory=lambda: np.array([0.0, 0.0, 1.0]))
    m: int = 2
    h: float = 0.0
    seed: int = 0
    grid_resolution: int = 40
    mesh: Optional[vf.SimplicialSurface] = None
    anchored: Optional[np.ndarray] = None
    max_iterations: int = 3000
    tolerance: float = 1e-6
    metric_family: Optional[object] = None  # callable i -> MetricField
    family_range: tuple = (0, 10)

    def resolved_domain(self):
        return self.domain if self.domain is not None else geo.domain_ball(radius=1.0)


def _provenance(cfg, bundle=None):
    out = {
        "seed": int(cfg.seed),
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


def _default_plateau_mesh(rng=None):
    """The anchored-circle test surface: radius 0.3, plane z = 0.85."""
    disk = meshes.disk_mesh(radius=0.3, center=(0.0, 0.0, 0.85), rings=6, segments=48)
    return disk, disk.boundary_vertices()


def _minimize_mesh(cfg, domain, mesh=None, anchored=None):
    if mesh is None:
        mesh, anchored = _default_plateau_mesh()
    problem = mz.MinimizeProblem(
        domain, mesh, anchored=anchored,
        max_iterations=cfg.max_iterations, tolerance=cfg.tolerance,
    )
    return mz.minimize(problem)


def scenario_theorem1(cfg=None):
    """Exclusion of first-order minimizers from a strongly m-convex point."""
    cfg = cfg or ScenarioConfig()
    domain = cfg.resolved_domain()
    p = np.asarray(cfg.p, dtype=float)
    ksum, kind, _ = geo.m_convexity(domain, p, cfg.m)
    if kind != "strongly m-convex":
        return _refusal(cfg, f"point is {kind} (curvature sum {ksum:.6g})")
    bundle = bar.build_barrier(domain, p, cfg.m, seed=cfg.seed)
    verify = bar.verify_barrier(bundle, grid_resolution=cfg.grid_resolution)
    if not verify.passed:
        raise ScenarioError("barrier verification failed on a convex configuration")
    final, report = _minimize_mesh(cfg, domain, cfg.mesh, cfg.anchored)
    V = vf.varifold_from_mesh(final, domain.metric)
    dist = vf.support_distance(V, p, domain.metric)
    chord_tol = 2.0 * final.max_edge_length()
    passed = report.converged and dist >= bundle.epsilon - chord_tol
    return {
        "status": "passed" if passed else "failed",
        "passed": bool(passed),
        "support_distance": float(dist),
        "epsilon": float(bundle.epsilon),
        "chord_tolerance": float(chord_tol),
        "exclusion_margin": float(dist - bundle.epsilon + chord_tol),
        "minimizer": {
            "converged": bool(report.converged),
            "iterations": int(report.iterations),
            "residual": float(report.residual),
            "final_area": float(report.final_area),
        },
        "barrier_worst_margin": float(verify.worst_margin),
        "provenance": _provenance(cfg, bundle),
    }


def default_metric_family(i):
    """g(i) = (1 + 2^{-i}) x euclidean, converging to the euclidean metric."""
    factor = 1.0 + 2.0 ** (-i)
    # conformal convention g = e^{2f} delta, so f = log(factor) / 2
    return geo.metric_conformal(f"{float(np.log(factor) / 2.0)!r}")


def _family_c2_distance(metric, limit, chart, samples=64, seed=0):
    """Sup-norm distance of the metric tensors on a chart sample (constant
    families have zero derivative gap, so C^0 = C^2 here)."""
    rng = np.random.default_rng(seed)
    lo, hi = chart[:, 0], chart[:, 1]
    pts = lo + (hi - lo) * rng.random((samples, len(lo)))
    return float(np.max(np.abs(metric.matrix(pts) - limit.matrix(pts))))


def _check_u_properties(bundle, domain, samples=4000, seed=0):
    """Sampled checks of the auxiliary-function properties.

    (i) u(p) = 0 and u > 0 elsewhere on N; (ii) {u <= eps} is compact
    (closed + bounded inside the chart box); (iii) boundary curvature sums
    exceed eta on the sublevel set; (iv) tube curvature sums exceed eta.
    """
    rng = np.random.default_rng(seed)
    w = bundle.sigma.w
    p = bundle.p
    lo, hi = bundle.chart[:, 0], bundle.chart[:, 1]
    pts = lo + (hi - lo) * rng.random((samples, len(lo)))
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
        shp = geo.levelset_shape(domain.u0, bnd, domain.metric)
        sums = np.sum(shp.values[:, : bundle.m], axis=-1)
        prop_iii = bool(np.min(sums) > bundle.eta)
        iii_margin = float(np.min(sums) - bundle.eta)
    else:
        prop_iii, iii_margin = True, float("nan")
    # (iv): tube curvature sums, re-sampled from the construction
    k = bar.tube_curvatures(bundle.sigma, bundle.chart, seed=seed)
    sums = np.sum(k[:, : bundle.m], axis=-1)
    prop_iv = bool(np.min(sums) > bundle.eta)
    return {
        "i": prop_i,
        "ii": prop_ii,
        "iii": prop_iii,
        "iii_margin": iii_margin,
        "iv": prop_iv,
        "iv_margin": float(np.min(sums) - bundle.eta),
        "all": bool(prop_i and prop_ii and prop_iii and prop_iv),
    }


def scenario_theorem3(cfg=None):
    """Exclusion persists along a smoothly converging metric family."""
    cfg = cfg or ScenarioConfig(metric_family=default_metric_family)
    family = cfg.metric_family or default_metric_family
    base = cfg.resolved_domain()
    p = np.asarray(cfg.p, dtype=float)
    limit_metric = base.metric

    ksum, kind, _ = geo.m_convexity(base, p, cfg.m)
    if kind != "strongly m-convex":
        return _refusal(cfg, f"limit metric: point is {kind}")
    limit_bundle = bar.build_barrier(base, p, cfg.m, seed=cfg.seed)
    limit_props = _check_u_properties(limit_bundle, base, seed=cfg.seed)
    if not limit_props["all"]:
        raise ScenarioError(
            f"auxiliary-function properties fail under the limit metric: {limit_props}"
        )
    limit_mesh, limit_rep = _minimize_mesh(cfg, base, cfg.mesh, cfg.anchored)
    limit_support = vf.support_points(limit_mesh)

    i_lo, i_hi = cfg.family_range
    i_hi = min(i_hi, 40)
    runs = []
    i0 = None
    for i in range(i_lo, i_hi + 1):
        metric_i = family(i)
        dom_i = geo.Domain(metric_i, base.u0, base.chart)
        eta = 0.5 * geo.m_convexity(dom_i, p, cfg.m)[0]
        try:
            bundle_i = bar.build_barrier(dom_i, p, cfg.m, seed=cfg.seed)
        except bar.BarrierRefusal:
            runs.append({"i": i, "ok": False, "reason": "barrier refusal"})
            continue
        props = _check_u_properties(bundle_i, dom_i, seed=cfg.seed)
        mesh_i, rep_i = _minimize_mesh(cfg, dom_i, cfg.mesh, cfg.anchored)
        V_i = vf.varifold_from_mesh(mesh_i, metric_i)
        dist = vf.support_distance(V_i, p, metric_i)
        chord_tol = 2.0 * mesh_i.max_edge_length()
        margin = float(dist - bundle_i.epsilon + chord_tol)
        ok = props["all"] and rep_i.converged and margin >= 0.0
        if ok and i0 is None:
            i0 = i
        runs.append({
            "i": i,
            "ok": bool(ok),
            "properties": props,
            "epsilon": float(bundle_i.epsilon),
            "support_distance": float(dist),
            "exclusion_margin": margin,
            "metric_c2_gap": _family_c2_distance(metric_i, limit_metric, base.chart,
                                                 seed=cfg.seed),
            "hausdorff_to_limit": hausdorff_distance(
                vf.support_points(mesh_i), limit_support
            ),
        })
    if i0 is None:
        return {
            "status": "failed", "passed": False, "runs": runs,
            "reason": "no index in the family satisfied the exclusion",
            "provenance": _provenance(cfg, limit_bundle),
        }
    tail_ok = all(r["ok"] for r in runs if r.get("i", -1) >= i0 and "ok" in r)
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


def scenario_theorem4(cfg=None, varifold_mesh=None, boundary_mesh=None):
    """Hypersurface case: barrier contradiction at mean-convex contact plus
    the boundary decomposition of integral varifolds."""
    cfg = cfg or ScenarioConfig()
    domain = cfg.resolved_domain()
    if boundary_mesh is None:
        boundary_mesh = meshes.icosphere_mesh(radius=1.0, subdivisions=3)
    if varifold_mesh is None:
        interior = meshes.icosphere_mesh(radius=0.4, subdivisions=2)
        varifold_mesh = vf.SimplicialSurface(
            np.vstack([boundary_mesh.vertices, interior.vertices]),
            np.vstack([boundary_mesh.simplices,
                       interior.simplices + len(boundary_mesh.vertices)]),
            np.concatenate([2 * np.ones(len(boundary_mesh.simplices)),
                            np.ones(len(interior.simplices))]),
        )
    n = domain.n
    m = n - 1
    # (a) contact with a strictly mean-convex boundary point forces the
    # Theorem 1-style contradiction: support inside the barrier's epsilon ball
    V = vf.varifold_from_mesh(varifold_mesh, domain.metric)
    support = vf.support_points(varifold_mesh)
    u0_vals = domain.u0.value(support)
    touch = np.argmin(np.abs(u0_vals))
    contact = None
    contradiction = None
    if abs(u0_vals[touch]) <= 1e-6 * domain.chart_diameter():
        q = geo.newton_level_project(domain.u0, support[touch])
        ksum, kind, _ = geo.m_convexity(domain, q, m)
        if kind == "strongly m-convex":
            bundle = bar.build_barrier(domain, q, m, seed=cfg.seed)
            # distance measured on the mesh support itself: the contact
            # vertex lies on dN, so any positive epsilon is a contradiction
            dist = bundle.sigma.c * float(np.min(np.linalg.norm(support - q, axis=-1)))
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


def scenario_theorem5(cfg=None):
    """Bounded-mean-curvature exclusion: curvature sum must exceed h."""
    cfg = cfg or ScenarioConfig(h=BOUNDED_MC_H)
    domain = cfg.resolved_domain()
    p = np.asarray(cfg.p, dtype=float)
    if cfg.h < 0:
        raise ScenarioError("h must be nonnegative")
    ksum, kind, _ = geo.m_convexity(domain, p, cfg.m)
    if ksum <= cfg.h:
        return _refusal(cfg, f"curvature sum {ksum:.6g} <= h = {cfg.h:.6g}")
    bundle = bar.build_barrier(domain, p, cfg.m, h=cfg.h, seed=cfg.seed)
    if not (cfg.h < bundle.eta < ksum):
        raise ScenarioError("eta landed outside (h, curvature sum)")
    mesh = cfg.mesh if cfg.mesh is not None else meshes.sphere_cap_mesh(
        rings=25, segments=100
    )
    V = vf.varifold_from_mesh(mesh, domain.metric)
    X = bundle.field()
    mc = vf.check_bounded_mc(V, X, cfg.h, domain.metric)
    dist = vf.support_distance(V, p, domain.metric)
    chord_tol = 2.0 * mesh.max_edge_length()
    excluded = dist >= bundle.epsilon - chord_tol
    # two-part interpretation on the smooth test mesh
    H, interior = vf.mesh_mean_curvature(mesh, domain.metric)
    interior_max = float(np.max(np.linalg.norm(H[interior], axis=-1))) if np.any(interior) else 0.0
    mc_interior_ok = interior_max <= cfg.h * 1.05 if cfg.h > 0 else interior_max <= 1e-8
    passed = mc["passed"] and excluded and mc_interior_ok
    return {
        "status": "passed" if passed else "failed",
        "passed": bool(passed),
        "bounded_mc_check": mc,
        "support_distance": float(dist),
        "epsilon": float(bundle.epsilon),
        "chord_tolerance": float(chord_tol),
        "interior_H_max": interior_max,
        "boundary_vertex_count": int(np.sum(~interior)),
        "provenance": _provenance(cfg, bundle),
    }


def scenario_theorem6(cfg=None):
    """Theorem 3 pipeline with the bounded-mean-curvature condition."""
    cfg = cfg or ScenarioConfig(h=BOUNDED_MC_H, metric_family=default_metric_family)
    family = cfg.metric_family or default_metric_family
    base = cfg.resolved_domain()
    p = np.asarray(cfg.p, dtype=float)
    ksum, _, _ = geo.m_convexity(base, p, cfg.m)
    if ksum <= cfg.h:
        return _refusal(cfg, f"curvature sum {ksum:.6g} <= h = {cfg.h:.6g}")
    mesh = cfg.mesh if cfg.mesh is not None else meshes.sphere_cap_mesh(
        rings=25, segments=100
    )
    i_lo, i_hi = cfg.family_range
    runs = []
    i0 = None
    for i in range(i_lo, min(i_hi, 40) + 1):
        metric_i = family(i)
        dom_i = geo.Domain(metric_i, base.u0, base.chart)
        ksum_i = geo.m_convexity(dom_i, p, cfg.m)[0]
        if ksum_i <= cfg.h:
            runs.append({"i": i, "ok": False, "reason": "curvature sum below h"})
            continue
        bundle_i = bar.build_barrier(dom_i, p, cfg.m, h=cfg.h, seed=cfg.seed)
        V_i = vf.varifold_from_mesh(mesh, metric_i)
        mc = vf.check_bounded_mc(V_i, bundle_i.field(), cfg.h, metric_i)
        dist = vf.support_distance(V_i, p, metric_i)
        chord_tol = 2.0 * mesh.max_edge_length()
        margin = float(dist - bundle_i.epsilon + chord_tol)
        ok = mc["passed"] and margin >= 0.0
        if ok and i0 is None:
            i0 = i
        runs.append({
            "i": i, "ok": bool(ok), "exclusion_margin": margin,
            "epsilon": float(bundle_i.epsilon),
            "bounded_mc_value": mc["value"],
        })
    passed = i0 is not None and all(r["ok"] for r in runs if r.get("i", -1) >= i0)
    return {
        "status": "passed" if passed else "failed",
        "passed": bool(passed),
        "i0": None if i0 is None else int(i0),
        "runs": runs,
        "provenance": _provenance(cfg),
    }
