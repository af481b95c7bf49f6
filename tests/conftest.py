"""Shared fixtures: the expensive barrier bundles are built once per session."""
from typing import NamedTuple

import numpy as np
import pytest

from mconvex import barrier as bar
from mconvex import geometry as geo
from mconvex import meshes
from mconvex import varifold as vf


@pytest.fixture(scope="session")
def ball_domain():
    return geo.domain_ball(radius=1.0)


@pytest.fixture(scope="session")
def north_pole():
    return np.array([0.0, 0.0, 1.0])


@pytest.fixture(scope="session")
def ball_bundle(ball_domain, north_pole):
    return bar.build_barrier(ball_domain, north_pole, m=2, eta=1.0)


@pytest.fixture(scope="session")
def theorem5_bundle(ball_domain, north_pole):
    """The barrier theorem5 builds by default (h = 1)."""
    return bar.build_barrier(ball_domain, north_pole, m=2, h=1.0)


@pytest.fixture(scope="session")
def theorem5_cap():
    """theorem5's default test surface: the |H| = 1 sphere band."""
    return meshes.sphere_cap_mesh(rings=25, segments=100)


@pytest.fixture(scope="session")
def scaled_ball_domain():
    # constant conformal factor exp(2f) with f = -log 2: metric = (1/4) euclidean
    return geo.domain_ball(radius=1.0, metric=geo.metric_conformal("0 - log(2)"))


@pytest.fixture(scope="session")
def scaled_ball_bundle(scaled_ball_domain, north_pole):
    return bar.build_barrier(scaled_ball_domain, north_pole, m=2)


def _tube_points(b):
    """1000 chart points of bundle ``b`` with 0 <= u < eps and phi(u) > 0."""
    rng = np.random.default_rng(7)
    lo, hi = b.chart[:, 0], b.chart[:, 1]
    collected = []
    while sum(len(c) for c in collected) < 1000:
        pts = lo + (hi - lo) * rng.random((4000, 3))
        data = bar.tube_eval(b.sigma, pts)
        live = data.valid & (data.u >= 0.0) & (data.u < 0.95 * b.epsilon)
        live &= np.asarray(b.domain.contains(pts), dtype=bool)
        live &= bar.cutoff(np.where(live, data.u, b.epsilon), b.epsilon) > 0.0
        collected.append(pts[live])
    return np.concatenate(collected)[:1000]


@pytest.fixture(scope="session")
def tube_points(ball_bundle):
    return _tube_points(ball_bundle)


@pytest.fixture(scope="session")
def scaled_tube_points(scaled_ball_bundle):
    return _tube_points(scaled_ball_bundle)


@pytest.fixture(params=["ball_bundle", "scaled_ball_bundle"])
def tube_case(request):
    """``(bundle, tube points)`` for g = euclidean (c = 1) and g = delta/4
    (c = 1/2), so a wrong power of c shows."""
    points = {"ball_bundle": "tube_points", "scaled_ball_bundle": "scaled_tube_points"}
    return (request.getfixturevalue(request.param),
            request.getfixturevalue(points[request.param]))


class DistanceToSigmaField(geo.ScalarField):
    """Signed distance to Sigma as a scalar field with exact derivatives."""

    def __init__(self, sigma):
        self.sigma = sigma
        self.n = sigma.p.shape[0]

    def _tube(self, x):
        data = bar.tube_eval(self.sigma, x)
        if not np.all(data.valid):
            raise bar.TubeError("signed distance queried outside the tube")
        return data

    def value(self, x):
        return self._tube(x).u

    def gradient(self, x):
        data = self._tube(x)
        c = self.sigma.c
        # coordinate partials of u: c * euclidean unit normal
        return c * (data.nu * c)

    def hessian(self, x):
        return self._tube(x).hess_u


class LevelsetEigh(NamedTuple):
    values: np.ndarray      # (..., 2) principal curvatures, ascending
    directions: np.ndarray  # (..., 2, 3) matching g-orthonormal directions
    normal: np.ndarray      # (..., 3) the g-unit normal grad f / |grad f|_g


def _levelset_eigh(f, x, metric):
    """Level-set curvatures, directions and normal in R^3 from a 3 x 3 eigh.

    With g = L L^T and the covariant Hessian Hc, the shape operator in the
    coordinates L^T x is the euclidean one of gradient g_w = L^-1 df and
    Hessian H_w = L^-1 Hc L^-T, P (-H_w / |g_w|) P on the tangent plane.
    Adding a sentinel larger than every curvature along the normal leaves
    the two curvatures as the smallest eigenvalues.
    """
    x = np.asarray(x, dtype=float)
    df = f.gradient(x)
    Hc = f.hessian(x) - np.einsum("...kij,...k->...ij", geo.christoffel(metric, x), df)
    Li = np.linalg.inv(np.linalg.cholesky(metric.matrix(x)))
    LiT = np.swapaxes(Li, -1, -2)
    g_w = np.einsum("...ij,...j->...i", Li, df)
    norm = np.linalg.norm(g_w, axis=-1)
    nu = g_w / norm[..., None]
    P = np.eye(3) - nu[..., :, None] * nu[..., None, :]
    C = P @ (-(Li @ Hc @ LiT) / norm[..., None, None]) @ P
    sentinel = 1.0 + 2.0 * np.max(np.sum(np.abs(C), axis=-1), axis=-1)
    C = C + sentinel[..., None, None] * nu[..., :, None] * nu[..., None, :]
    w, V = np.linalg.eigh(0.5 * (C + np.swapaxes(C, -1, -2)))
    return LevelsetEigh(w[..., :2], np.swapaxes(LiT @ V[..., :, :2], -1, -2),
                        np.einsum("...ij,...j->...i", LiT, nu))


@pytest.fixture(scope="session")
def levelset_eigh():
    """``(f, x, metric) -> LevelsetEigh``, the eigensolver oracle of
    ``geo.levelset_shape`` and of the closed-form kernel ``sigma_shape``."""
    return _levelset_eigh


def _adapted_frame_Q(bundle, q):
    """Matrix of Q in the g-orthonormal basis (e_1, e_2, nu) at tube points q.

    Diagonal with entries (-phi(u) k_1, -phi(u) k_2, phi'(u)) up to numerical
    error.  The level set of u through q shares Sigma's principal directions
    at the foot, so e_1, e_2 are the eigensolver's directions there.
    """
    q = np.asarray(q, dtype=float)
    b = bundle
    data = bar.tube_eval(b.sigma, q)
    if not np.all(data.valid & (data.u < b.epsilon)):
        raise bar.TubeError("adapted frame requested outside the open tube")
    # the covariant gradient of X is its jacobian phi S under g = c^2 * euclidean
    _, phi, _, S = b.field().from_tube(data)
    Qc = np.einsum("...ab,...bi->...ai", b.domain.metric.matrix(q), phi[..., None, None] * S)
    shp = _levelset_eigh(b.sigma.w, data.foot, geo.metric_euclidean(3))
    frame = np.concatenate([shp.directions / b.sigma.c, data.nu[..., None, :]], axis=-2)
    return np.einsum("...ai,...ij,...bj->...ab", frame, Qc, frame)


@pytest.fixture(scope="session")
def adapted_frame_Q():
    """The adapted-frame matrix of Q, an eigensolver oracle for the tube."""
    return _adapted_frame_Q


def _cutoff_derivative(t, eps):
    """phi'(t) = -phi(t) / (t - eps)^2 on [0, eps), 0 for t >= eps."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("cutoff argument must be nonnegative")
    inside = t < eps
    denom = np.where(inside, (t - eps) ** 2, 1.0)
    return np.where(inside, -bar.cutoff(t, eps) / denom, 0.0)


@pytest.fixture(scope="session")
def cutoff_derivative():
    """phi', the independent derivative of ``bar.cutoff`` the tests compare with."""
    return _cutoff_derivative


@pytest.fixture(scope="session")
def u_field():
    """The signed distance u to a bundle's Sigma, as a scalar field."""
    return lambda bundle: DistanceToSigmaField(bundle.sigma)


@pytest.fixture(scope="session")
def unit_disk_mesh():
    return meshes.disk_mesh(radius=1.0, rings=24, segments=256)


def _flow_mesh(mesh, X, t, steps=8, domain=None):
    """Advance mesh vertices along X for time t with classical RK4; with a
    domain, a vertex leaving its chart raises VarifoldError."""
    y = mesh.vertices.copy()
    h = t / steps
    for _ in range(steps):
        k1 = X.value(y)
        k2 = X.value(y + 0.5 * h * k1)
        k3 = X.value(y + 0.5 * h * k2)
        k4 = X.value(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    if domain is not None:
        lo, hi = domain.chart[:, 0], domain.chart[:, 1]
        if np.any(y < lo) or np.any(y > hi):
            raise vf.VarifoldError("flow pushed a vertex out of the chart")
    return mesh.with_vertices(y)


@pytest.fixture(scope="session")
def flow_mesh():
    """The RK4 mesh flow that finite-difference oracles of delta V use."""
    return _flow_mesh


def _unit_sphere_cap(rings, segments, jitter=0.0, seed=1):
    """The cap of the unit sphere over the disk of radius 0.5, scaled by
    1 - 1e-4 so that every vertex lies inside the unit ball: a disk mesh whose
    interior vertices are moved in the plane by up to ``jitter`` ring spacings
    (uniform, seeded), then lifted onto the sphere."""
    disk = meshes.disk_mesh(radius=0.5, rings=rings, segments=segments)
    verts = disk.vertices.copy()
    if jitter:
        rng = np.random.default_rng(seed)
        inner = np.setdiff1d(np.arange(len(verts)), disk.boundary_vertices())
        spacing = 0.5 / rings
        verts[inner, :2] += jitter * spacing * rng.uniform(-1.0, 1.0, (len(inner), 2))
    verts[:, 2] = np.sqrt(1.0 - np.sum(verts[:, :2] ** 2, axis=1))
    return disk.with_vertices((1.0 - 1e-4) * verts)


@pytest.fixture(scope="session")
def unit_sphere_cap():
    """The minimizer's cap starts as a function ``(rings, segments, jitter=0,
    seed=1) -> mesh``; 8/48, 12/72 and 16/96 give 385, 865 and 1537 vertices."""
    return _unit_sphere_cap
