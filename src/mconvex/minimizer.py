"""Plateau-style first-order area minimization inside a constrained domain.

Laplacian-preconditioned projected descent on mesh vertex positions: anchored
vertices stay put, and each step moves the free vertices against the area
gradient preconditioned by the stiffness Laplacian of the current mesh (the
Pinkall-Polthier step under a constant-factor metric, a Sobolev H^1 gradient
otherwise), then snaps them back onto {u0 >= 0}.  The output is intended to
minimize area to first order with respect to inward variations, which is
exactly the stationarity class the rest of the package tests against.

The report certifies that class from the gradient the stop test already
holds: ``stationarity_residual`` is max_v |P_v grad A_v|_g / A_v over the
free vertices, the first variation against every admissible piecewise-linear
variation normalized by the vertex area, i.e. the discrete mean curvature
of Pinkall and Polthier at the worst vertex.  It is deterministic.
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
        if self.mesh.n != self.domain.n:
            raise MinimizeError(
                f"the mesh lies in R^{self.mesh.n}, the domain in R^{self.domain.n}")
        anchored = np.asarray(self.anchored, dtype=int)
        nv = len(self.mesh.vertices)
        if np.any((anchored < 0) | (anchored >= nv)):
            raise MinimizeError(f"anchored vertex indices must lie in [0, {nv})")
        self.anchored = vf.index_set(anchored, nv)
        anchors = self.mesh.vertices[self.anchored]
        inside = self.domain.u0.value(anchors)
        if np.any(inside <= self.domain.boundary_tolerance):
            raise MinimizeError("anchored vertices must lie strictly inside N")


def area(mesh, metric=None):
    """Metric m-area of the mesh, in ``vf.area``'s order-2 quadrature."""
    return vf.area(mesh, metric)


def project_to_domain(x, domain):
    """Snap points with u0 < 0 back onto the boundary {u0 = 0}, to |u0| <= 1e-10;
    ``geo.newton_level_project`` raises GeometryError where it cannot."""
    pts = np.array(x, dtype=float)
    viol = domain.u0.value(pts) < 0.0
    if np.any(viol):
        pts[viol] = geo.newton_level_project(domain.u0, pts[viol], tol=1e-10)
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
    same multiplicity and whose worst aspect ratio improves.  ``minimize``
    does not call it: a flip would change the Laplacian's connectivity
    between steps.
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
    cg_iterations: int            # conjugate-gradient steps, summed over the run
    line_search_halvings: int     # Armijo halvings, summed over the run
    active_boundary_vertices: int  # most vertices held tangent to the boundary in one step
    stationarity_residual: float  # ``stationarity_residual`` of the returned mesh
    history: list = field(default_factory=list)  # (iter, area, residual, min boundary distance)

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("iteration,area,residual,min_boundary_distance\n")
            for row in self.history:
                fh.write(",".join(f"{x:.12g}" for x in row) + "\n")


CG_STEPS_PER_VERTEX = 2  # conjugate-gradient cap per solve, in multiples of V
CG_RTOL = 1e-10          # relative residual at which a solve stops
BOUNDARY_BAND = 1e-8     # free vertices with u0 at most this lie on the boundary


def laplacian_solve(laplacian, rhs, projector):
    """Jacobi-preconditioned conjugate gradients for (P L P) x = P rhs.

    ``projector`` holds one symmetric n x n projector P_v per vertex and
    ``laplacian`` is L as the ``(edges, w)`` of ``vf.stiffness_laplacian``:
    the matvec is P, ``vf.apply_laplacian``, P, and the Jacobi diagonal sums
    the weights on the same edge list.  Stops at relative residual
    ``CG_RTOL`` or after ``CG_STEPS_PER_VERTEX * V`` steps; every iterate
    x_k satisfies (P rhs)^T x_k = x_k^T P L P x_k, so a truncated solve is
    still a descent direction.  Returns ``(x, steps)`` with x = P x.
    """
    edges, w = laplacian
    nv = len(rhs)
    diag = np.bincount(edges.ravel(), np.repeat(w, 2), minlength=nv)
    diag = np.where(diag > 0.0, diag, 1.0)[:, None]  # 0 only on vertices in no simplex

    def project(x):
        return np.einsum("vab,vb->va", projector, x)

    def apply(x):
        return project(vf.apply_laplacian(edges, w, project(x)))

    r = project(rhs)
    x = np.zeros_like(r)
    z = r / diag
    p = z.copy()
    rz = float(np.sum(r * z))
    stop = (CG_RTOL ** 2) * float(np.sum(r * r))
    steps = 0
    while steps < CG_STEPS_PER_VERTEX * nv and float(np.sum(r * r)) > stop:
        ap = apply(p)
        alpha = rz / float(np.sum(p * ap))
        x += alpha * p
        r -= alpha * ap
        z = r / diag
        rz, rz_prev = float(np.sum(r * z)), rz
        p = z + (rz / rz_prev) * p
        steps += 1
    return x, steps


def _projectors(mesh, grad, dom, free, u0):
    """Per-vertex projectors P_v, shape (V, n, n), and the count of tangent
    ones: 0 on anchors, I - nu nu^T on free vertices with u0 <= BOUNDARY_BAND
    whose descent direction -grad leaves N (nu the unit normal of u0), I
    elsewhere."""
    nv, n = mesh.vertices.shape
    proj = np.zeros((nv, n, n))
    proj[free] = np.eye(n)
    near = np.nonzero(free & (u0 <= BOUNDARY_BAND))[0]
    if len(near):
        nu = dom.u0.gradient(mesh.vertices[near])
        nu /= np.linalg.norm(nu, axis=-1, keepdims=True)
        leaving = np.einsum("ve,ve->v", grad[near], nu) > 0.0
        near, nu = near[leaving], nu[leaving]
        proj[near] -= nu[:, :, None] * nu[:, None, :]
    return proj, len(near)


@dataclass
class _Linearization:
    """What a step starts from, evaluated once per mesh."""

    grad: np.ndarray        # metric area gradient, (V, n)
    proj: np.ndarray        # step projectors of ``_projectors``, (V, n, n)
    active: int             # tangent projectors among them
    projected: np.ndarray   # P_v grad A_v, (V, n)
    residual: float         # max_v |P_v grad A_v|, the stop test
    min_u0: float           # least u0 over the vertices


def _linearize(mesh, dom, free):
    grad = area_gradient(mesh, dom.metric)
    u0 = dom.u0.value(mesh.vertices)
    proj, active = _projectors(mesh, grad, dom, free, u0)
    projected = np.einsum("vab,vb->va", proj, grad)
    residual = float(np.max(np.linalg.norm(projected, axis=-1)))
    return _Linearization(grad, proj, active, projected, residual, float(np.min(u0)))


def stationarity_residual(mesh, metric, projected):
    """max over vertices of |P_v grad A_v|_g / A_v: the discrete mean
    curvature at the worst free vertex.

    ``projected`` holds the rows P_v grad A_v of the metric area gradient
    under ``minimize``'s step projectors (0 on anchors).  Each row is a
    covector, measured with g^-1 at v, and A_v is ``vf.vertex_areas``, 1/(m+1)
    of the metric volume of the simplices at v.  grad A_v . e is the first
    variation along the hat function of v times e, so the numerator tests
    every admissible piecewise-linear variation.  Under g = c^2 * euclidean,
    at free interior vertices with P_v = I, the ratio is |H|_g of
    ``vf.mesh_mean_curvature``.  Vertices in no simplex carry no area and are
    skipped.
    """
    c = metric.constant_factor()
    if c is not None:
        norms = np.linalg.norm(projected, axis=-1) / c
    else:
        ginv = np.linalg.inv(metric.matrix(mesh.vertices))
        norms = np.sqrt(np.einsum("va,vab,vb->v", projected, ginv, projected))
    areas = vf.vertex_areas(mesh, metric)
    carried = areas > 0.0
    return float(np.max(norms[carried] / areas[carried], initial=0.0))


def minimize(problem):
    """Laplacian-preconditioned projected descent.

    Each step solves (c^m P L P) d = P grad A with ``laplacian_solve``: L is
    the current mesh's ``laplacian``, built once per mesh and shared with the
    area gradient under a constant-factor metric, c the metric's constant
    factor (1 where it has none) and P the per-vertex projectors of
    ``_projectors``.  The trial x - t d, from t = 1 and halved until the area
    falls by the Armijo amount, is projected back onto N.  The accepted trial
    mesh is the next step's mesh, so its Laplacian reads the volumes that its
    area computed.  Under a constant-factor metric the unit step is the
    Pinkall-Polthier step; otherwise c^m L preconditions the metric area
    gradient (a Sobolev H^1 gradient).  The run stops when the residual max_v |P_v grad A_v|, taken
    with the same projectors as the step, is at most the tolerance.

    The report describes the returned mesh: when the iteration cap ends the
    run after an accepted step, that mesh is evaluated once more (one more
    history row, numbered ``max_iterations + 1``).  Its
    ``stationarity_residual`` comes from the same gradient and projectors.
    """
    dom = problem.domain
    metric = dom.metric
    mesh = problem.mesh.with_vertices(project_to_domain(problem.mesh.vertices, dom))
    free = np.ones(len(mesh.vertices), dtype=bool)
    free[problem.anchored] = False
    c = metric.constant_factor()
    scale = (1.0 if c is None else c) ** mesh.m
    a = area(mesh, metric)
    history = []
    it = cg_steps = halvings = most_active = 0
    for it in range(1, problem.max_iterations + 1):
        lin = _linearize(mesh, dom, free)
        history.append((it, a, lin.residual, lin.min_u0))
        if lin.residual <= problem.tolerance:
            break
        most_active = max(most_active, lin.active)
        d, steps = laplacian_solve(mesh.laplacian, lin.grad / scale, lin.proj)
        cg_steps += steps
        slope = float(np.sum(lin.grad * d))
        t = 1.0
        accepted = False
        for _ in range(50):
            cand = mesh.vertices - t * d
            cand[free] = project_to_domain(cand[free], dom)
            trial = mesh.with_vertices(cand)
            try:
                new_area = area(trial, metric)
            except vf.DegenerateSimplexError:
                new_area = np.inf
            if new_area <= a - 1e-4 * t * slope + 1e-12 * max(a, 1.0):
                accepted = True
                break
            t *= 0.5
            halvings += 1
        if not accepted:
            break
        mesh = trial
        a = new_area
    else:  # the cap ended the run after an accepted step
        lin = _linearize(mesh, dom, free)
        history.append((it + 1, a, lin.residual, lin.min_u0))
    return mesh, ConvergenceReport(
        converged=bool(lin.residual <= problem.tolerance),
        iterations=it,
        final_area=float(a),
        residual=lin.residual,
        cg_iterations=cg_steps,
        line_search_halvings=halvings,
        active_boundary_vertices=most_active,
        stationarity_residual=stationarity_residual(mesh, metric, lin.projected),
        history=history,
    )
