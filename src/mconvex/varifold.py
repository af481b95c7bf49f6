"""Discrete varifolds: weighted (point, m-plane) atoms and their calculus.

A varifold here is a finite sum of atoms, each carrying a base point, an
orthonormal m-frame for its tangent plane, and a positive weight with units
of m-area.  Meshes are lowered to varifolds by per-simplex barycentric
quadrature, and the first variation is the weighted sum of tangential
divergences of the test field.  This is enough structure to state and check
the variational statements the package cares about: stationarity, bounded
mean curvature, and the boundary decomposition of integral varifolds.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import geometry as geo


class VarifoldError(Exception):
    pass


class MeshFormatError(VarifoldError):
    """Malformed SVMESH input."""


class DegenerateSimplexError(VarifoldError):
    pass


class NonIntegralError(VarifoldError):
    """Decomposition requested for a varifold with non-integer multiplicities."""


class DecompositionError(VarifoldError):
    """The boundary part cannot be subtracted with nonnegative remainder."""


# ---------------------------------------------------------------------------
# meshes


@dataclass
class SimplicialSurface:
    """m-dimensional simplicial mesh in chart coordinates.

    ``simplices`` holds (m+1)-tuples of 0-based vertex indices and
    ``multiplicity`` one positive real per simplex (integers in integral
    mode).  The three arrays are read-only (writable inputs are copied), and
    so is what a mesh keeps once computed: its ``volumes``, ``laplacian``,
    ``euclidean_frames``, ``max_edge_length`` and each order's euclidean
    ``quadrature``.  None of it can go stale, since a moved mesh is a new
    one, from ``with_vertices``.
    """

    vertices: np.ndarray
    simplices: np.ndarray
    multiplicity: np.ndarray = None

    def __post_init__(self):
        if self.multiplicity is None:
            self.multiplicity = np.ones(len(self.simplices))
        self.vertices = _read_only(self.vertices, float)
        self.simplices = _read_only(self.simplices, int)
        self.multiplicity = _read_only(self.multiplicity, float)
        if self.simplices.ndim != 2 or self.simplices.shape[1] < 2:
            raise VarifoldError("simplices must be a 2-d index array of m + 1 >= 2 columns")
        if not (np.all(np.isfinite(self.vertices)) and np.all(np.isfinite(self.multiplicity))):
            raise VarifoldError("vertices and multiplicities must be finite")
        if np.any(self.multiplicity <= 0):
            raise VarifoldError("multiplicities must be strictly positive")
        if np.any(self.simplices < 0) or np.any(self.simplices >= len(self.vertices)):
            raise VarifoldError("simplex index out of range")

    @property
    def m(self):
        return self.simplices.shape[1] - 1

    @property
    def n(self):
        return self.vertices.shape[1]

    def edge_matrices(self):
        """Per-simplex edge vectors, shape (F, m, n)."""
        v = self.vertices[self.simplices]
        return v[:, 1:, :] - v[:, :1, :]

    def mesh_scale(self):
        lo = self.vertices.min(axis=0)
        hi = self.vertices.max(axis=0)
        return float(np.linalg.norm(hi - lo)) or 1.0

    @cached_property
    def volumes(self):
        """Euclidean simplex volumes, shape (F,), computed on first use; raises
        ``DegenerateSimplexError`` on a degenerate simplex."""
        E = self.edge_matrices()
        gram = np.einsum("fae,fbe->fab", E, E)
        fact = np.prod(np.arange(1, self.m + 1))
        vols = np.sqrt(np.maximum(np.linalg.det(gram), 0.0)) / fact
        degenerate = vols <= 1e-12 * self.mesh_scale() ** self.m
        if np.any(degenerate):
            raise DegenerateSimplexError(
                f"{int(np.sum(degenerate))} degenerate simplices"
            )
        vols.flags.writeable = False
        return vols

    @cached_property
    def laplacian(self):
        """The mesh's ``stiffness_laplacian``, built on first use."""
        edges, w = stiffness_laplacian(self)
        edges.flags.writeable = w.flags.writeable = False
        return edges, w

    @cached_property
    def euclidean_frames(self):
        """Euclidean orthonormal frames of the simplices, shape (F, m, n): the
        edge vectors, Gram-Schmidted."""
        frames = _metric_frames(self.edge_matrices(), None)
        frames.flags.writeable = False
        return frames

    @cached_property
    def _quadratures(self):
        return {}

    def quadrature(self, order=2):
        """Euclidean quadrature nodes of ``order``'s rule, kept per order:
        points ``(F*Q, n)`` and weights multiplicity x quadrature weight x
        simplex volume ``(F*Q,)``, in simplex-major order."""
        if order not in self._quadratures:
            nodes, wq = _quadrature(self.m, order)
            vols = self.volumes
            F, Q = len(self.simplices), len(wq)
            points = np.einsum("qb,fbn->fqn", nodes, self.vertices[self.simplices])
            points = points.reshape(F * Q, self.n)
            weights = np.repeat(self.multiplicity, Q) * np.tile(wq, F) * np.repeat(vols, Q)
            points.flags.writeable = weights.flags.writeable = False
            self._quadratures[order] = points, weights
        return self._quadratures[order]

    @cached_property
    def _max_edge_length(self):
        v = [self.vertices[:, k][self.simplices] for k in range(self.n)]  # (F, m+1) each
        m1 = self.m + 1
        best = 0.0  # the largest squared length, summed per coordinate as norm does
        for i in range(m1):
            for j in range(i + 1, m1):
                best = max(best, float(np.max(sum(np.square(vk[:, i] - vk[:, j]) for vk in v))))
        return float(np.sqrt(best))

    def max_edge_length(self):
        """Euclidean length of the mesh's longest edge."""
        return self._max_edge_length

    def boundary_vertices(self):
        """Indices of the vertices on the mesh boundary: those of the facets
        (sorted m-subsets of a simplex) that occur in exactly one simplex."""
        m = self.m
        subsets = [[b for b in range(m + 1) if b != k] for k in range(m + 1)]
        facets = np.sort(self.simplices[:, subsets], axis=-1).reshape(-1, m)
        dims = (len(self.vertices),) * m
        keys, counts = np.unique(np.ravel_multi_index(facets.T, dims), return_counts=True)
        return np.unique(np.unravel_index(keys[counts == 1], dims))

    def with_vertices(self, vertices):
        """The same simplices and multiplicities on new vertices: a new mesh,
        which computes and keeps its own volumes, Laplacian and lowerings."""
        return SimplicialSurface(vertices, self.simplices, self.multiplicity)


def _read_only(a, dtype):
    """a as a read-only array, copied first if it is writable, so that no
    caller can change it afterwards."""
    a = np.asarray(a, dtype=dtype)
    if a.flags.writeable:
        a = a.copy()
        a.flags.writeable = False
    return a


def read_svmesh(stream):
    """Parse the SVMESH ASCII format (strict, 0-based indices).

    Line 1: ``SVMESH m n``; line 2: ``V F``; then V vertex lines of n floats
    and F simplex lines of m+1 indices plus an optional multiplicity.
    """
    if isinstance(stream, (str, os.PathLike)):
        with open(stream, "r") as fh:
            return read_svmesh(fh)
    lines = [ln.strip() for ln in stream if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise MeshFormatError("empty mesh file")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "SVMESH":
        raise MeshFormatError(f"bad header {lines[0]!r}: expected 'SVMESH m n'")
    try:
        m, n = int(head[1]), int(head[2])
    except ValueError as exc:
        raise MeshFormatError(f"non-integer dimensions in header {lines[0]!r}") from exc
    if m < 0 or n < 0:
        raise MeshFormatError(f"negative dimension in header {lines[0]!r}")
    if len(lines) < 2:
        raise MeshFormatError("missing count line 'V F'")
    try:
        V, F = (int(tok) for tok in lines[1].split())
    except ValueError as exc:
        raise MeshFormatError(f"bad count line {lines[1]!r}") from exc
    if V < 0 or F < 0:
        raise MeshFormatError(f"negative count in count line {lines[1]!r}")
    if len(lines) != 2 + V + F:
        raise MeshFormatError(
            f"expected {2 + V + F} content lines, found {len(lines)}"
        )
    verts = np.zeros((V, n))
    for i, ln in enumerate(lines[2:2 + V]):
        toks = ln.split()
        if len(toks) != n:
            raise MeshFormatError(f"vertex line {i}: expected {n} floats, got {len(toks)}")
        try:
            verts[i] = [float(t) for t in toks]
        except ValueError as exc:
            raise MeshFormatError(f"vertex line {i}: bad float in {ln!r}") from exc
    simp = np.zeros((F, m + 1), dtype=int)
    mult = np.ones(F)
    for i, ln in enumerate(lines[2 + V:]):
        toks = ln.split()
        if len(toks) not in (m + 1, m + 2):
            raise MeshFormatError(
                f"simplex line {i}: expected {m + 1} indices (+ optional multiplicity)"
            )
        try:
            simp[i] = [int(t) for t in toks[:m + 1]]
            if len(toks) == m + 2:
                mult[i] = float(toks[m + 1])
        except ValueError as exc:
            raise MeshFormatError(f"simplex line {i}: bad index or multiplicity in {ln!r}") from exc
    return SimplicialSurface(verts, simp, mult)


def write_svmesh(mesh, stream):
    if isinstance(stream, (str, os.PathLike)):
        with open(stream, "w") as fh:
            write_svmesh(mesh, fh)
            return
    stream.write(f"SVMESH {mesh.m} {mesh.n}\n")
    stream.write(f"{len(mesh.vertices)} {len(mesh.simplices)}\n")
    for v in mesh.vertices:
        stream.write(" ".join(repr(float(c)) for c in v) + "\n")
    for s, mu in zip(mesh.simplices, mesh.multiplicity):
        stream.write(" ".join(str(int(i)) for i in s) + f" {float(mu)!r}\n")


# ---------------------------------------------------------------------------
# varifolds


@dataclass
class DiscreteVarifold:
    """Finite atomic m-varifold: points, orthonormal m-frames, weights."""

    m: int
    points: np.ndarray
    frames: np.ndarray  # (N, m, n), rows g-orthonormal at the point
    weights: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        self.frames = np.asarray(self.frames, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if np.any(self.weights <= 0):
            raise VarifoldError("atom weights must be strictly positive")

    @property
    def total_weight(self):
        return float(np.sum(self.weights))


# barycentric quadrature rules on the reference simplex, exact to the stated
# polynomial degree; (nodes in barycentric coordinates, weights summing to 1)
_SEGMENT_RULES = {
    1: (np.array([[0.5, 0.5]]), np.array([1.0])),
    2: (np.array([
        [0.5 + 0.5 / np.sqrt(3.0), 0.5 - 0.5 / np.sqrt(3.0)],
        [0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)],
    ]), np.array([0.5, 0.5])),
    4: (np.array([
        [0.5 + 0.5 * np.sqrt(0.6), 0.5 - 0.5 * np.sqrt(0.6)],
        [0.5, 0.5],
        [0.5 - 0.5 * np.sqrt(0.6), 0.5 + 0.5 * np.sqrt(0.6)],
    ]), np.array([5.0, 8.0, 5.0]) / 18.0),
}

_TRIANGLE_RULES = {
    1: (np.array([[1.0, 1.0, 1.0]]) / 3.0, np.array([1.0])),
    # edge midpoints: exact for quadratics
    2: (np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]),
        np.array([1.0, 1.0, 1.0]) / 3.0),
    # 6-point degree-4 rule (Dunavant)
    4: (np.array([
        [0.108103018168070, 0.445948490915965, 0.445948490915965],
        [0.445948490915965, 0.108103018168070, 0.445948490915965],
        [0.445948490915965, 0.445948490915965, 0.108103018168070],
        [0.816847572980459, 0.091576213509771, 0.091576213509771],
        [0.091576213509771, 0.816847572980459, 0.091576213509771],
        [0.091576213509771, 0.091576213509771, 0.816847572980459],
    ]), np.array([0.223381589678011] * 3 + [0.109951743655322] * 3)),
}


def _quadrature(m, order):
    rules = _SEGMENT_RULES if m == 1 else _TRIANGLE_RULES if m == 2 else None
    if rules is None:
        raise VarifoldError(f"no quadrature rules for m = {m}")
    if order not in rules:
        raise VarifoldError(f"unsupported quadrature order {order} (have {sorted(rules)})")
    return rules[order]


@dataclass
class _MeshQuadrature:
    """Quadrature nodes of a mesh and the metric data shared by the lowering,
    the area and its vertex gradient under a metric with no constant factor.

    ``g`` is ``(F, Q, n, n)`` and ``gram`` the metric Gram matrices
    ``(F, Q, m, m)``.  ``weights`` is multiplicity x quadrature weight x
    metric m-volume, one per node in simplex-major order.
    """

    nodes: np.ndarray    # (Q, m+1) barycentric
    points: np.ndarray   # (F*Q, n)
    E: np.ndarray        # (F, m, n) edge vectors
    g: np.ndarray
    gram: np.ndarray
    weights: np.ndarray  # (F*Q,)


def _mesh_quadrature(mesh, metric, order):
    nodes, wq = _quadrature(mesh.m, order)
    flat, _ = mesh.quadrature(order)
    E = mesh.edge_matrices()                   # (F, m, n)
    F, Q = len(E), len(wq)
    g = metric.matrix(flat).reshape(F, Q, mesh.n, mesh.n)
    gram = np.einsum("fae,fqec,fbc->fqab", E, g, E)
    fact = np.prod(np.arange(1, mesh.m + 1))
    weights = np.repeat(mesh.multiplicity, Q) * np.tile(wq, F)
    weights = weights * (np.sqrt(np.maximum(np.linalg.det(gram), 0.0)) / fact).ravel()
    return _MeshQuadrature(nodes, flat, E, g, gram, weights)


def _metric_frames(E, g):
    """Gram-Schmidt the edge vectors into g-orthonormal frames at each point
    (``g`` is None for the euclidean metric)."""
    F, m, n = E.shape

    def inner(a, b):
        if g is None:
            return np.einsum("fe,fe->f", a, b)
        return np.einsum("fe,fec,fc->f", a, g, b)

    frames = np.zeros_like(E)
    for i in range(m):
        v = E[:, i, :].copy()
        for j in range(i):
            v -= inner(v, frames[:, j, :])[:, None] * frames[:, j, :]
        nrm = np.sqrt(np.maximum(inner(v, v), 0.0))
        if np.any(nrm < 1e-14):
            raise DegenerateSimplexError("edge vectors metrically dependent")
        frames[:, i, :] = v / nrm[:, None]
    return frames


def _mesh_metric(mesh, metric):
    """``metric``, or the euclidean one when None, refused on another R^n than the mesh's."""
    metric = metric or geo.metric_euclidean(mesh.n)
    if metric.n != mesh.n:
        raise VarifoldError(f"the mesh lies in R^{mesh.n}, the metric is on R^{metric.n}")
    return metric


def varifold_from_mesh(mesh, metric=None, order=2):
    """Lower a mesh to an atomic varifold: one atom per quadrature node.

    Atom weight = multiplicity x quadrature weight x metric m-volume of the
    simplex evaluated at the node (so curved-metric area is integrated with
    the same rule).  Under g = c^2 * euclidean the lowering is the mesh's
    euclidean one, ``quadrature`` and ``euclidean_frames``, with its weights
    times c^m and its frames divided by c.
    """
    metric = _mesh_metric(mesh, metric)
    c = metric.constant_factor()
    if c is not None:
        points, weights = mesh.quadrature(order)
        weights = c ** mesh.m * weights
        Q = len(_quadrature(mesh.m, order)[1])
        frames = np.repeat(mesh.euclidean_frames / c, Q, axis=0)
    else:
        quad = _mesh_quadrature(mesh, metric, order)
        points, weights = quad.points, quad.weights
        frames = _metric_frames(np.repeat(quad.E, len(quad.nodes), axis=0),
                                quad.g.reshape(len(points), mesh.n, mesh.n))
    keep = weights > 0
    if not np.all(keep):
        points, frames, weights = points[keep], frames[keep], weights[keep]
    return DiscreteVarifold(mesh.m, points, frames, weights)


def area(mesh, metric=None, order=2):
    """Total metric m-area of the mesh (multiplicity-weighted).

    The same node weights and sum as ``varifold_from_mesh(...).total_weight``,
    without building the frames.
    """
    metric = _mesh_metric(mesh, metric)
    c = metric.constant_factor()
    if c is not None:
        weights = c ** mesh.m * mesh.quadrature(order)[1]
    else:
        weights = _mesh_quadrature(mesh, metric, order).weights
    return float(np.sum(weights[weights > 0]))


def vertex_areas(mesh, metric=None):
    """Metric vertex areas, shape (V,): 1/(m+1) of the multiplicity-weighted
    metric m-volume of the simplices at each vertex (the barycentric area).

    Under g = c^2 * euclidean a simplex's volume is c^m times its euclidean
    one, ``mesh.volumes``; otherwise it is the sum of its node weights in
    ``area``'s default quadrature.  A vertex in no simplex gets 0.
    """
    metric = _mesh_metric(mesh, metric)
    c = metric.constant_factor()
    if c is not None:
        simplex = c ** mesh.m * mesh.volumes * mesh.multiplicity
    else:
        simplex = _mesh_quadrature(mesh, metric, 2).weights.reshape(
            len(mesh.simplices), -1).sum(axis=1)
    return np.bincount(mesh.simplices.ravel(), np.repeat(simplex / (mesh.m + 1), mesh.m + 1),
                       minlength=len(mesh.vertices))


def stiffness_laplacian(mesh):
    """Edge list ``(E, 2)`` and weights ``(E,)`` of the stiffness Laplacian
    (L x)_i = sum over edges (i, j) of w (x_i - x_j).

    m = 2: the corner between edge vectors a and b of a triangle of volume
    vol adds 1/2 mult cot(angle) = 1/4 mult (a.b) / vol to the opposite edge;
    m = 1: each segment adds mult / length.  An edge shared by several
    simplices is listed once per simplex.  L applied to the vertex positions
    is the euclidean area gradient (Pinkall-Polthier).  It reads
    ``mesh.volumes``, which raise ``DegenerateSimplexError`` on a collapsed
    simplex; ``mesh.laplacian`` keeps the result.
    """
    if mesh.m not in (1, 2):
        raise VarifoldError("stiffness Laplacian implemented for m in {1, 2}")
    vols = mesh.volumes
    if mesh.m == 1:
        return mesh.simplices, mesh.multiplicity / vols
    v = mesh.vertices[mesh.simplices]
    edges, weights = [], []
    for k in range(3):
        i, j = (k + 1) % 3, (k + 2) % 3
        dot = np.einsum("fe,fe->f", v[:, i] - v[:, k], v[:, j] - v[:, k])
        edges.append(mesh.simplices[:, [i, j]])
        weights.append(0.25 * mesh.multiplicity * dot / vols)
    return np.concatenate(edges), np.concatenate(weights)


def apply_laplacian(edges, w, x):
    """L x for the edge-list Laplacian ``(edges, w)`` and x of shape (V, n),
    as one ``np.bincount`` scatter."""
    nv, n = x.shape
    i, j = edges[:, 0], edges[:, 1]
    flux = w[:, None] * (x[i] - x[j])
    slots = (np.concatenate([i, j])[:, None] * n + np.arange(n)).ravel()
    lx = np.bincount(slots, np.concatenate([flux, -flux]).ravel(), minlength=nv * n)
    return lx.reshape(nv, n)


def area_vertex_gradient(mesh):
    """Euclidean gradient of total area w.r.t. each vertex position: L x,
    with L the mesh's ``laplacian``."""
    return apply_laplacian(*mesh.laplacian, mesh.vertices)


def metric_area_gradient(mesh, metric=None):
    """Exact vertex gradient of ``area(mesh, metric)``, shape (V, n).

    At a node x_q = sum_b lambda_qb v_b with G_q = E^T g(x_q) E and
    vol_q = sqrt(det G_q) / m!, the differential is
    d vol_q = vol_q sum_a <dE_a, P_a> + 1/2 vol_q lambda_qb s_k dv_b^k with
    P_a = sum_b (G_q^-1)_ab g E_b and s_k = sum_ab (G_q^-1)_ab E_a^T d_k g E_b;
    each node is weighted by multiplicity x quadrature weight.  Under
    g = c^2 * euclidean the area is c^m times the euclidean one, whose
    gradient is ``area_vertex_gradient``.
    """
    c = 1.0 if metric is None else _mesh_metric(mesh, metric).constant_factor()
    if c is not None:
        return c ** mesh.m * area_vertex_gradient(mesh)
    quad = _mesh_quadrature(mesh, metric, 2)
    F, m, n = quad.E.shape
    w = quad.weights.reshape(F, -1)
    # per simplex: d(weighted area) / d(edge a), then / d(corner b)
    ginv = np.linalg.inv(quad.gram)
    gE = np.einsum("fqec,fbc->fqbe", quad.g, quad.E)
    dE = np.einsum("fq,fqab,fqbe->fae", w, ginv, gE)
    dg = metric.dmatrix(quad.points).reshape(F, -1, n, n, n)
    s = np.einsum("fqab,fae,fqkec,fbc->fqk", ginv, quad.E, dg, quad.E, optimize=True)
    d_corner = 0.5 * np.einsum("fq,qb,fqk->fbk", w, quad.nodes, s)
    d_corner[:, 1:] += dE
    d_corner[:, 0] -= dE.sum(axis=1)
    idx = mesh.simplices.ravel()
    flat = d_corner.reshape(-1, n)
    return np.stack([np.bincount(idx, flat[:, k], minlength=len(mesh.vertices))
                     for k in range(n)], axis=-1)


def first_variation(V, X, metric=None):
    """delta V(X) = sum of weights x trace of the covariant gradient on P."""
    metric = metric or geo.metric_euclidean(V.points.shape[1])
    if metric.constant_factor() is not None:
        A = X.jacobian(V.points)  # no Christoffel term, so X's value is not needed
    else:
        A = geo.covariant_from_jacobian(*X.evaluate(V.points), V.points, metric)
    return _first_variation(V, A, metric)


def _first_variation(V, A, metric):
    """Weighted sum of the traces of A (``[f, k, i]``) over the atom planes."""
    return float(np.sum(V.weights * _plane_traces(V.frames, A, V.points, metric)))


def _plane_traces(frames, A, points, metric):
    """The trace of A (``[f, k, i]``) over each atom's plane, in the metric."""
    c = metric.constant_factor()
    if c is not None:
        return c * c * np.einsum("fae,fek,fak->f", frames, A, frames)
    g = metric.matrix(points)
    return np.einsum("fae,fec,fck,fak->f", frames, g, A, frames)


def weight_integral(V, f):
    """Integral of a scalar function against the weight measure."""
    vals = np.asarray(f(V.points), dtype=float)
    return float(np.sum(V.weights * vals))


def check_bounded_mc(V, X, h, metric=None):
    """delta V(X) + h * integral of |X|; pass iff >= -tolerance, with
    tolerance 1e-6 x total weight x max(max |X|, 1).

    X and its jacobian are evaluated once at the atoms and shared by the
    first variation, the mass of |X| and the tolerance.  The plane traces
    are taken only at the atoms where the covariant gradient A is not zero;
    the others contribute an exact 0, and the weighted sum runs over every
    atom as in ``first_variation``.  ``n_live`` counts the atoms where X
    does not vanish; for a barrier field these are the atoms of the open
    tube where phi(u) > 0, and 0 means the check is vacuous.
    """
    if h < 0:
        raise ValueError("h must be nonnegative")
    metric = metric or geo.metric_euclidean(V.points.shape[1])
    vals, J = X.evaluate(V.points)
    A = geo.covariant_from_jacobian(vals, J, V.points, metric)
    reached = np.any(A != 0.0, axis=(-2, -1))
    terms = np.zeros(len(V.weights))
    terms[reached] = _plane_traces(V.frames[reached], A[reached], V.points[reached], metric)
    dv = float(np.sum(V.weights * terms))
    mass = weight_integral(V, lambda pts: metric.norm(pts, vals))
    value = dv + h * mass
    tolerance = 1e-6 * V.total_weight * max(float(np.max(np.linalg.norm(vals, axis=-1))), 1.0)
    return {
        "value": float(value),
        "delta_V": float(dv),
        "mass_X": float(mass),
        "n_live": int(np.count_nonzero(np.any(vals != 0.0, axis=-1))),
        "passed": bool(value >= -tolerance),
        "tolerance": float(tolerance),
    }


def mesh_mean_curvature(mesh, metric=None):
    """Discrete mean-curvature vectors (area-gradient form).

    Returns (H, interior_mask): H[v] = -(vertex area gradient) / (barycentric
    vertex area).  Interior vertices of a flat mesh get H = 0; a unit sphere
    converges to |H| = 2 under refinement.  Under g = c^2 * euclidean, H is
    the euclidean vector divided by c^2 (so |H|_g is the euclidean |H| / c);
    other metrics are refused.
    """
    c = 1.0 if metric is None else _mesh_metric(mesh, metric).constant_factor()
    if c is None:
        raise VarifoldError("mean curvature needs a constant-factor metric")
    if mesh.m != 2:
        raise VarifoldError("mean curvature needs a 2-dimensional mesh")
    grad = area_vertex_gradient(mesh)
    vert_area = vertex_areas(mesh)
    if np.any(vert_area <= 0):
        raise VarifoldError("isolated vertex in mean-curvature computation")
    H = -grad / (c * c * vert_area[:, None])
    interior = np.ones(len(mesh.vertices), dtype=bool)
    interior[mesh.boundary_vertices()] = False
    return H, interior


def _simplex_keys(*meshes):
    """Geometric keys, one integer per simplex of each mesh: simplices whose
    vertex coordinates, rounded to 9 decimals, are the same set of points
    get the same key.  Each simplex's rows are sorted lexicographically by
    their rank among all rows (``np.unique``), and the sorted rank tuples are
    ranked in turn; -0.0 and 0.0 are one coordinate."""
    corners = [np.round(mesh.vertices[mesh.simplices], 9) + 0.0 for mesh in meshes]
    n = meshes[0].n
    _, rows = np.unique(np.concatenate([c.reshape(-1, n) for c in corners]), axis=0,
                        return_inverse=True)
    rows = np.sort(rows.reshape(-1, corners[0].shape[1]), axis=1)
    _, keys = np.unique(rows, axis=0, return_inverse=True)
    return np.split(keys.ravel(), np.cumsum([len(c) for c in corners])[:-1])


def decompose_integral(V_mesh, boundary_mesh):
    """Split an integral mesh varifold as d x (boundary) + remainder.

    d is the smallest multiplicity the varifold carries over the boundary
    mesh (0 when any boundary simplex is absent); a simplex the boundary mesh
    lists k times owes d k, taken from the first simplices that carry its
    key.  Raises NonIntegralError for multiplicities more than 1e-9 from an
    integer and DecompositionError if the remainder would go negative.
    """
    frac = np.abs(V_mesh.multiplicity - np.round(V_mesh.multiplicity))
    if np.any(frac > 1e-9):
        worst = float(np.max(frac))
        raise NonIntegralError(
            f"multiplicities deviate from integers by up to {worst:.3g}"
        )
    mult = np.round(V_mesh.multiplicity).astype(int)
    if (V_mesh.m, V_mesh.n) != (boundary_mesh.m, boundary_mesh.n) or not len(
            boundary_mesh.simplices):
        return None, V_mesh, 0  # no boundary simplex can be carried
    v_keys, b_keys = _simplex_keys(V_mesh, boundary_mesh)
    n_keys = int(max(v_keys.max(initial=-1), b_keys.max())) + 1
    carried = np.zeros(n_keys, dtype=int)
    np.add.at(carried, v_keys, mult)
    listed = np.bincount(b_keys, minlength=n_keys)
    d = int(np.min(carried[listed > 0]))
    if d == 0:
        return None, V_mesh, 0
    owed = d * listed
    if np.any(owed > carried):
        raise DecompositionError(
            "boundary part exceeds the varifold: remainder would be negative"
        )
    # what the earlier simplices of the same key carry, in simplex order
    order = np.argsort(v_keys, kind="stable")
    before = np.cumsum(mult[order]) - mult[order]
    group = np.searchsorted(v_keys[order], v_keys[order])  # first slot of each key
    earlier = np.empty_like(mult)
    earlier[order] = before - before[group]
    take = np.clip(owed[v_keys] - earlier, 0, mult)
    keep = mult > take
    W = SimplicialSurface(boundary_mesh.vertices, boundary_mesh.simplices,
                          d * np.ones(len(boundary_mesh.simplices)))
    if np.any(keep):
        Wp = SimplicialSurface(V_mesh.vertices, V_mesh.simplices[keep],
                               (mult - take)[keep].astype(float))
    else:
        Wp = None
    return W, Wp, d


def support_distance(points, p, metric=None):
    """Metric distance from p to the nearest of ``points`` (atom points or
    mesh vertices carrying the support)."""
    points = np.asarray(points, dtype=float)
    if len(points) == 0:
        raise VarifoldError("empty point set has no support")
    p = np.asarray(p, dtype=float)
    c = 1.0 if metric is None else metric.constant_factor()
    if c is None:
        raise VarifoldError("support distance needs a constant-factor metric")
    return c * float(np.min(np.linalg.norm(points - p, axis=-1)))


def support_points(mesh):
    """The vertices referenced by a simplex: only those carry support."""
    return mesh.vertices[np.unique(mesh.simplices.ravel())]
