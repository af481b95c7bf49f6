"""Plateau-style first-order area minimization inside a constrained domain.

Projected gradient descent on mesh vertex positions: anchored vertices stay
put, free vertices move against the area gradient and are snapped back onto
{u0 >= 0}.  The output is intended to minimize area to first order with
respect to inward variations, which is exactly the stationarity class the
rest of the package tests against.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import geometry as geo
from . import varifold as vf


class MinimizeError(Exception):
    pass


@dataclass
class MinimizeProblem:
    domain: geo.Domain
    mesh: vf.SimplicialSurface
    anchored: np.ndarray
    max_iterations: int = 2000
    tolerance: float = 1e-6

    def __post_init__(self):
        self.anchored = np.asarray(self.anchored, dtype=int)
        anchors = self.mesh.vertices[self.anchored]
        inside = self.domain.u0.value(anchors)
        if np.any(inside <= self.domain.boundary_tolerance):
            raise MinimizeError("anchored vertices must lie strictly inside N")


def area(mesh, metric=None, order=2):
    """Metric m-area of the mesh (quadrature order 2 by default)."""
    return vf.area(mesh, metric, order=order)


def project_to_domain(x, domain, tol=1e-10, max_iter=50):
    """Snap points with u0 < 0 back onto the boundary {u0 = 0}."""
    pts = np.array(x, dtype=float)
    viol = domain.u0.value(pts) < 0.0
    if np.any(viol):
        moved = geo.newton_level_project(domain.u0, pts[viol], tol=tol, max_iter=max_iter)
        if np.any(np.abs(domain.u0.value(moved)) > tol):
            raise MinimizeError("boundary projection failed to converge")
        pts[viol] = moved
    return pts


def area_gradient(mesh, metric=None):
    """Gradient of metric area w.r.t. vertex positions."""
    return vf.metric_area_gradient(mesh, metric)


ASPECT_LIMIT = 20.0  # triangles above this aspect ratio get their diagonal flipped


def _triangle_aspect(verts, tris):
    v = verts[tris]
    e = np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 1], v[:, 0] - v[:, 2]], axis=1)
    lengths = np.linalg.norm(e, axis=-1)
    areas = 0.5 * np.linalg.norm(np.cross(e[:, 0], -e[:, 2]), axis=-1)
    # longest edge over inradius-like scale
    return np.max(lengths, axis=1) * np.sum(lengths, axis=1) / np.maximum(4.0 * areas, 1e-300)


def flip_bad_edges(mesh):
    """Flip the diagonal of sliver triangle pairs (euclidean aspect ratio
    above ``ASPECT_LIMIT``).

    Conservative: flips only interior edges whose two triangles share the
    same multiplicity and whose worst aspect ratio improves.
    """
    if mesh.m != 2:
        return mesh, 0
    tris = mesh.simplices.copy()
    mult = mesh.multiplicity.copy()
    aspect = _triangle_aspect(mesh.vertices, tris)
    if np.all(aspect <= ASPECT_LIMIT):
        return mesh, 0
    edge_faces = {}
    for f, tri in enumerate(tris):
        for i in range(3):
            key = (min(tri[i], tri[(i + 1) % 3]), max(tri[i], tri[(i + 1) % 3]))
            edge_faces.setdefault(key, []).append(f)
    flips = 0
    touched = set()
    for (a, b), faces in edge_faces.items():
        if len(faces) != 2:
            continue
        f0, f1 = faces
        if f0 in touched or f1 in touched or mult[f0] != mult[f1]:
            continue
        if max(aspect[f0], aspect[f1]) <= ASPECT_LIMIT:
            continue
        c = [v for v in tris[f0] if v not in (a, b)][0]
        d = [v for v in tris[f1] if v not in (a, b)][0]
        cand = np.array([[c, d, a], [d, c, b]])
        new_aspect = _triangle_aspect(mesh.vertices, cand)
        if np.max(new_aspect) < max(aspect[f0], aspect[f1]):
            tris[f0], tris[f1] = cand
            touched.update(faces)
            flips += 1
    if flips == 0:
        return mesh, 0
    return vf.SimplicialSurface(mesh.vertices.copy(), tris, mult), flips


@dataclass
class ConvergenceReport:
    converged: bool
    iterations: int
    final_area: float
    residual: float
    history: list = field(default_factory=list)  # (iter, area, residual, min boundary distance)

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("iteration,area,residual,min_boundary_distance\n")
            for row in self.history:
                fh.write(",".join(f"{x:.12g}" for x in row) + "\n")


def minimize(problem):
    """Projected gradient descent: Barzilai-Borwein steps, Armijo safeguard."""
    dom = problem.domain
    metric = dom.metric
    mesh = problem.mesh.with_vertices(project_to_domain(problem.mesh.vertices, dom))
    free = np.ones(len(mesh.vertices), dtype=bool)
    free[problem.anchored] = False
    a = area(mesh, metric)
    edge = mesh.max_edge_length()
    step = 0.25 * edge
    history = []
    prev_v = prev_g = None
    residual = np.inf
    it = 0
    for it in range(1, problem.max_iterations + 1):
        grad = area_gradient(mesh, metric)
        grad[~free] = 0.0
        residual = _projected_residual(mesh, grad, dom, free)
        u0 = dom.u0.value(mesh.vertices)
        history.append((it, a, residual, float(np.min(u0))))
        if residual <= problem.tolerance:
            break
        if prev_g is not None:
            dv = (mesh.vertices - prev_v).ravel()
            dg = (grad - prev_g).ravel()
            denom = float(dg @ dg)
            if denom > 1e-300:
                step = abs(float(dv @ dg)) / denom  # BB2 spectral step
            step = float(np.clip(step, 1e-6 * edge, 1e3 * edge))
        prev_v, prev_g = mesh.vertices.copy(), grad.copy()
        trial_step = step
        accepted = False
        gnorm2 = float(np.sum(grad * grad))
        for _ in range(50):
            cand = mesh.vertices - trial_step * grad
            cand[free] = project_to_domain(cand[free], dom)
            try:
                new_area = area(mesh.with_vertices(cand), metric)
            except vf.DegenerateSimplexError:
                trial_step *= 0.5
                continue
            if new_area <= a - 1e-4 * trial_step * gnorm2 + 1e-12 * max(a, 1.0):
                accepted = True
                break
            trial_step *= 0.5
        if not accepted:
            break
        mesh = mesh.with_vertices(cand)
        a = new_area
        mesh, flips = flip_bad_edges(mesh)
        if flips:
            a = area(mesh, metric)
    converged = residual <= problem.tolerance
    return mesh, ConvergenceReport(
        converged=bool(converged),
        iterations=it,
        final_area=float(a),
        residual=float(residual),
        history=history,
    )


def _projected_residual(mesh, grad, dom, free, probe=1e-4):
    """Norm of the constraint-projected gradient (max over vertices).

    Measured as |v - project(v - probe * g)| / probe with a small probe step,
    which reduces to max |g| wherever the constraint is inactive.  ``grad``
    is 0 on anchored vertices, so they stay put.
    """
    scale = probe * max(mesh.max_edge_length(), 1e-12) / max(np.max(np.abs(grad)), 1e-300)
    cand = mesh.vertices - scale * grad
    cand[free] = project_to_domain(cand[free], dom)
    return float(np.max(np.linalg.norm(cand - mesh.vertices, axis=-1))) / scale


def _random_admissible_fields(domain, rng, count, scale, exclude_points=None):
    """Bump fields compactly supported in the interior of N (hence admissible).

    Supports are kept clear of ``exclude_points`` (anchored vertices): a
    field that moves an anchor tests the wrong variational problem.
    """
    fields = []
    lo, hi = domain.chart[:, 0], domain.chart[:, 1]
    attempts = 0
    while len(fields) < count and attempts < 200 * count:
        attempts += 1
        c = lo + (hi - lo) * rng.random(domain.n)
        gap = float(domain.u0.value(c))
        if gap <= 0.05 * scale:
            continue
        radius = min(0.9 * gap, 0.5 * scale)
        if exclude_points is not None and len(exclude_points):
            clearance = float(np.min(np.linalg.norm(exclude_points - c, axis=-1)))
            if clearance <= radius + 0.05 * scale:
                continue
        direction = rng.standard_normal(domain.n)
        direction /= np.linalg.norm(direction)
        fields.append(geo.BumpVectorField(center=c, radius=radius, direction=direction))
    return fields


def stationarity_residual(mesh, domain, battery_size=64, seed=0, exclude_points=None):
    """max(0, -min over random admissible fields of dV(X)/sup|X|)."""
    rng = np.random.default_rng(seed)
    V = vf.varifold_from_mesh(mesh, domain.metric)
    fields = _random_admissible_fields(domain, rng, battery_size,
                                       scale=mesh.max_edge_length() * 4,
                                       exclude_points=exclude_points)
    worst = 0.0
    for X in fields:
        sup = float(np.max(np.linalg.norm(X.value(V.points), axis=-1)))
        if sup < 1e-14:
            continue
        dv = vf.first_variation(V, X, domain.metric)
        worst = min(worst, dv / sup)
    return max(0.0, -worst)
