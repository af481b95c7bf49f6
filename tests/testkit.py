"""Fields, meshes and helpers that only the tests use.

Test modules import these by name (``from testkit import ...``); pytest puts
this directory on ``sys.path`` because it holds no ``__init__.py``.
"""
import io

import numpy as np

from mconvex import geometry as geo
from mconvex import varifold as vf


class ConstantVectorField(geo.VectorField):
    def __init__(self, v):
        self.v = np.asarray(v, dtype=float)
        self.n = self.v.shape[0]

    def value(self, x):
        x = np.asarray(x)
        return np.broadcast_to(self.v, x.shape).copy()

    def jacobian(self, x):
        x = np.asarray(x)
        return np.zeros(x.shape[:-1] + (self.n, self.n))


class LinearVectorField(geo.VectorField):
    """X(x) = A x + b; covers the position field and rigid rotations."""

    def __init__(self, A, b=None):
        self.A = np.asarray(A, dtype=float)
        self.n = self.A.shape[0]
        self.b = np.zeros(self.n) if b is None else np.asarray(b, dtype=float)

    def value(self, x):
        return np.asarray(x) @ self.A.T + self.b

    def jacobian(self, x):
        x = np.asarray(x)
        return np.broadcast_to(self.A, x.shape[:-1] + (self.n, self.n)).copy()


def position_field(n=3):
    return LinearVectorField(np.eye(n))


def metric_gradient(f, x, metric):
    """Raise the differential of f: grad^i = g^{ij} d_j f."""
    df = f.gradient(x)
    c = metric.constant_factor()
    if c is not None:
        return df / (c * c)
    return np.einsum("...ij,...j->...i", metric.inverse(x), df)


def inward_normal(domain, x):
    """nu_N: the g-unit inward normal of a domain, valid near its boundary."""
    grad = metric_gradient(domain.u0, x, domain.metric)
    nrm = domain.metric.norm(x, grad)
    if np.any(nrm < 1e-12):
        raise geo.VanishingGradientError("u0 gradient vanishes at a boundary sample")
    return grad / nrm[..., None]


def field_magnitude(X, metric=None):
    """|X|_g as a callable on point batches, for weight_integral."""
    metric = metric or geo.metric_euclidean(X.n)
    return lambda pts: metric.norm(pts, X.value(pts))


def chart_grid(chart, resolution):
    """All resolution^n points of the chart's grid, in C order."""
    axes = [np.linspace(lo, hi, resolution) for lo, hi in np.asarray(chart, dtype=float)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def square_mesh(side=1.0, center=(0.5, 0.5, 0.0), divisions=1, multiplicity=1.0):
    """Axis-aligned square in the plane z = center_z."""
    cx, cy, cz = np.asarray(center, dtype=float)
    s = np.linspace(-0.5 * side, 0.5 * side, divisions + 1)
    verts = [(cx + x, cy + y, cz) for y in s for x in s]
    k = divisions + 1
    tris = []
    for j in range(divisions):
        for i in range(divisions):
            v = j * k + i
            tris.append((v, v + 1, v + k + 1))
            tris.append((v, v + k + 1, v + k))
    return vf.SimplicialSurface(verts, tris, multiplicity * np.ones(len(tris)))


def chord_polyline(a, b, segments=32, multiplicity=1.0):
    """Straight polyline from a to b."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    t = np.linspace(0.0, 1.0, segments + 1)[:, None]
    verts = (1 - t) * a + t * b
    segs = [(j, j + 1) for j in range(segments)]
    return vf.SimplicialSurface(verts, segs, multiplicity * np.ones(len(segs)))


def svmesh_dumps(mesh):
    buf = io.StringIO()
    vf.write_svmesh(mesh, buf)
    return buf.getvalue()


def svmesh_loads(text):
    return vf.read_svmesh(io.StringIO(text))
