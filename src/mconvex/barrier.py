"""Barrier vectorfield construction and pointwise verification.

Given a boundary point p of a domain N = {u0 >= 0} in R^3 and a target
constant eta below the sum of the m smallest boundary curvatures at p, this
module builds the contact surface Sigma = {w = 0}, w = u0 + |x - p|_g(p)^4
(the boundary displaced outward by the fourth power of the distance to p),
the signed distance u to Sigma, the exponential cutoff phi, and the
vectorfield X = phi(u) nu.  It then checks, on a grid, that the top-m
eigenvalue sum of the symmetrized covariant differential of X stays below
-eta |X|.

Barriers exist for the euclidean metric and for constant multiples
g = c^2 * euclidean of it; Sigma converts every tube quantity to metric units
with c, and any other metric is refused.  Foot points are exact euclidean
projections onto Sigma, by Newton's method on the KKT system: each step is
solved in closed form through the adjugate of I + lambda Hess w, and w's jet
(``ScalarField.jet``: the value, the three partials and the six entries of
the symmetric Hessian, each a 1-D array over the points) is evaluated once
per point per step on the coordinate arrays.  At a foot, Sigma's principal
curvatures kappa_i, its Gauss curvature sigma_2 and its second fundamental
form B_t (on P = I - nu nu^T) come from the closed-form level-set kernel
``geometry.sigma_shape`` (R. Goldman, "Curvature formulas for implicit
curves and surfaces", CAGD 2005), the one that also gives the boundary's
curvatures at p, which reads the jet's components as they are.  The parallel
surface at distance u has the curvatures k_i = kappa_i / (1 - u kappa_i)
(A. Gray, *Tubes*, 2nd ed., 2004), and the euclidean Hessian of u is
-(B_t - u sigma_2 P) / ((1 - u kappa_1)(1 - u kappa_2)).  So S = grad X / phi
has the known spectrum {-k_1, -k_2, -(eps - u)^-2}, and the grid check sums
its m largest entries without an eigensolver: it reads u and the k_i alone,
and the normal and Hess u are built only where X's Jacobian is asked for.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import geometry as geo
from .geometry import (
    Domain,
    GeometryError,
    ScalarField,
    SumField,
    QuarticGapField,
    VectorField,
    sigma_shape,
    unstack,
)


class BarrierRefusal(GeometryError):
    """The Theorem-2 hypothesis fails: requested eta >= curvature sum at p."""


class TubeError(GeometryError):
    """A point could not be handled inside the tube around Sigma."""


# --------------------------------------------------------------------------
# cutoff


def cutoff(t, eps):
    """phi(t) = exp(1/(t - eps)) for 0 <= t < eps, 0 for t >= eps."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("cutoff argument must be nonnegative")
    inside = t < eps
    with np.errstate(divide="ignore"):
        out = np.where(inside, np.exp(1.0 / np.where(inside, t - eps, -1.0)), 0.0)
    return out


# --------------------------------------------------------------------------
# the contact surface


# |w| at most this at a foot point that ``SigmaSurface.project`` accepts
FOOT_TOLERANCE = 1e-9


class Projection(NamedTuple):
    """``SigmaSurface.project``'s result: the foot, whether it was accepted,
    w at the input point, and w's jet at the foot in ``ScalarField.jet``'s
    layout: the three gradient components and the six ``_PAIRS`` entries of
    the Hessian, each of the batch shape."""

    foot: np.ndarray
    ok: np.ndarray
    w_x: np.ndarray
    grad: tuple
    hess: tuple


@dataclass
class SigmaSurface:
    """Implicit surface {w = 0} with w = u0 + |x - p|_g(p)^4.

    w is positive on N away from p, so the zero set touches N only at p and
    makes second-order contact with the boundary there (the gap over the
    boundary is quartic in the distance to p).  ``c`` is the constant with
    g = c^2 * euclidean; a metric without one has no barrier here.
    """

    domain: Domain
    p: np.ndarray
    w: ScalarField = field(init=False)
    c: float = field(init=False)
    gram: np.ndarray = field(init=False)
    gram_norm: float = field(init=False)
    jet_p: tuple = field(init=False)

    def __post_init__(self):
        c = self.domain.metric.constant_factor()
        if c is None:
            raise GeometryError(
                "barrier construction needs the euclidean metric or a constant "
                "conformal rescaling of it"
            )
        self.c = float(c)
        self.p = np.asarray(self.p, dtype=float)
        if self.p.shape != (3,):
            raise GeometryError("barrier construction needs a point of R^3")
        self.gram = np.asarray(self.domain.metric.matrix(self.p), dtype=float)
        # sqrt(lambda_max(G)): the G-length of a euclidean unit vector is at most this
        self.gram_norm = float(np.sqrt(np.max(np.linalg.eigvalsh(self.gram))))
        self.w = SumField([self.domain.u0, QuarticGapField(self.p, self.gram)])
        self.jet_p = self.w.jet(unstack(self.p))

    def misses(self, x, u0_x, radius):
        """True where no accepted foot can lie within euclidean ``radius`` of x,
        given u0's values ``u0_x`` at x.

        Let B be the bounding box of the points x widened by ``radius`` and L
        a Lipschitz constant of u0 on B (``ScalarField.lipschitz``).  On the
        ball B(x, radius), inside B, w(z) >= u0(x) - L radius
        + (|x - p|_G - sqrt(lambda_max(G)) radius)_+^4, with G the quartic
        gram; where that bound exceeds FOOT_TOLERANCE, no z in the ball
        passes ``project``'s acceptance test.  Accepted feet have |w| near the
        Newton tolerance 1e-12, far below FOOT_TOLERANCE, so rounding in the
        bound cannot drop a point that has one.  Where u0 has no Lipschitz
        bound on B, no point is marked.
        """
        x = np.asarray(x, dtype=float)
        flat = x.reshape(-1, x.shape[-1])
        L = None
        if len(flat):
            L = self.domain.u0.lipschitz(np.nextafter(flat.min(axis=0) - radius, -np.inf),
                                         np.nextafter(flat.max(axis=0) + radius, np.inf))
        if L is None:
            return np.zeros(x.shape[:-1], dtype=bool)
        d = x - self.p
        dist_g = np.sqrt(np.einsum("...i,ij,...j->...", d, self.gram, d))
        gap = np.maximum(dist_g - self.gram_norm * radius, 0.0)
        return u0_x - L * radius + gap**4 > FOOT_TOLERANCE

    def project(self, x):
        """Euclidean closest point on {w = 0}, by Newton's method on the KKT
        system of min |y - x|^2 / 2 subject to w(y) = 0.

        Returns a ``Projection``.  ``ok`` is False where the iteration failed
        to converge in 60 steps (point outside the tube) or met a singular
        system.  A point stops iterating as soon as its own KKT residual is
        at most 1e-12; only the others take a step (``_kkt_step``).  The
        iteration runs on coordinate arrays, and w's jet comes from one
        ``w.jet`` per point per step: the jet at x starts the iteration, and
        each point's last jet, at its final y, serves the acceptance test and
        is returned.
        """
        x = np.asarray(x, dtype=float)
        pts = x.reshape(-1, x.shape[-1])
        start = tuple(np.ascontiguousarray(pts.T))
        w_x, g, h = self.w.jet(start)
        lam = w_x / np.maximum((g[0] * g[0] + g[1] * g[1]) + g[2] * g[2], 1e-20)
        max_step = 0.25 * self.domain.chart_diameter()
        ok = np.ones(len(pts), dtype=bool)
        # every point's y, lambda and w's jet at y, written once, when the
        # point stops: it converges, its KKT solve fails or the steps run out.
        # The first lambda and the jet at x hold their rows until then: w is a
        # SumField, whose jet returns new arrays
        foot = [np.empty(len(pts)) for _ in range(3)]
        lam_f, w_f, g_f, h_f = lam, np.empty(len(pts)), g, h

        def stop(keep=slice(None)):
            # the running rows ``keep`` of idx stop here
            for out, values in zip((*foot, lam_f, w_f, *g_f, *h_f), (*y, lam, w, *g, *h)):
                out[idx[keep]] = values[keep]

        idx, x0, y, w = np.arange(len(pts)), start, start, w_x
        for _ in range(60):
            r_y = [yi - xi + lam * gi for yi, xi, gi in zip(y, x0, g)]
            r0, r1, r2 = r_y
            moving = np.sqrt(r0 * r0 + r1 * r1 + r2 * r2 + w * w) > 1e-12
            if not np.all(moving):
                stop(~moving)
                idx, w, lam = idx[moving], w[moving], lam[moving]
                x0, y, r_y, g, h = ([a[moving] for a in arrays] for arrays in (x0, y, r_y, g, h))
            if len(idx) == 0:
                break
            s_y, s_lam, solved = _kkt_step(lam, h, g, r_y, w)
            if not np.all(solved):
                ok[idx[~solved]] = False
                stop(~solved)
                idx, lam, s_lam = idx[solved], lam[solved], s_lam[solved]
                x0, y, s_y = ([a[solved] for a in arrays] for arrays in (x0, y, s_y))
            # damp overlong steps; keeps far-away starts from exploding
            s0, s1, s2 = s_y
            norms = np.sqrt(s0 * s0 + s1 * s1 + s2 * s2)
            scale = np.minimum(1.0, max_step / np.maximum(norms, 1e-300))
            y = [yi - si * scale for yi, si in zip(y, s_y)]
            lam = lam - s_lam * scale
            w, g, h = self.w.jet(y)
        else:
            stop()
        a0, a1, a2 = (fi - xi + lam_f * gi for fi, xi, gi in zip(foot, start, g_f))
        ok = ok & (np.abs(w_f) <= FOOT_TOLERANCE) & (np.sqrt(a0 * a0 + a1 * a1 + a2 * a2) <= 1e-7)
        ok = ok & np.isfinite(foot[0]) & np.isfinite(foot[1]) & np.isfinite(foot[2])
        batch = x.shape[:-1]
        return Projection(np.stack(foot, axis=-1).reshape(x.shape), ok.reshape(batch),
                          w_x.reshape(batch), tuple(a.reshape(batch) for a in g_f),
                          tuple(a.reshape(batch) for a in h_f))


def _kkt_step(lam, h, g, r_y, r_w):
    """Newton step of the KKT system [[A, g], [g^T, 0]] (s_y, s_lam) =
    (r_y, r_w), with A = I + lam H, in closed form on the six entries of A;
    H comes as its six ``_PAIRS`` entries h, g and r_y as components.
    Returns ``(s_y, s_lam, solved)``, s_y as components.

    With adj(A) the adjugate, s_lam = (g^T adj(A) r_y - det(A) r_w) /
    (g^T adj(A) g) and s_y = (adj(A) r_y - s_lam adj(A) g) / det(A).  A
    singular system (det(A) = 0 or g^T adj(A) g = 0) divides by zero, so a
    step that is not finite marks it; such a row fails alone: ``solved`` is
    False there and its step is zero.
    """
    h00, h11, h22, h01, h02, h12 = h
    a = 1.0 + lam * h00
    d = 1.0 + lam * h11
    f = 1.0 + lam * h22
    b, c, e = lam * h01, lam * h02, lam * h12
    c00, c01, c02 = d * f - e * e, c * e - b * f, b * e - c * d
    c11, c12, c22 = a * f - c * c, b * c - a * e, a * d - b * b
    det = a * c00 + b * c01 + c * c02
    g0, g1, g2 = g
    r0, r1, r2 = r_y
    ag0, ag1, ag2 = (c00 * g0 + c01 * g1 + c02 * g2, c01 * g0 + c11 * g1 + c12 * g2,
                     c02 * g0 + c12 * g1 + c22 * g2)
    ar0, ar1, ar2 = (c00 * r0 + c01 * r1 + c02 * r2, c01 * r0 + c11 * r1 + c12 * r2,
                     c02 * r0 + c12 * r1 + c22 * r2)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s_lam = (g0 * ar0 + g1 * ar1 + g2 * ar2 - det * r_w) / (g0 * ag0 + g1 * ag1 + g2 * ag2)
        s_y = ((ar0 - s_lam * ag0) / det, (ar1 - s_lam * ag1) / det,
               (ar2 - s_lam * ag2) / det)
    solved = np.isfinite(s_lam) & np.isfinite(s_y[0]) & np.isfinite(s_y[1]) & np.isfinite(s_y[2])
    for s in (s_lam, *s_y):
        s[~solved] = 0.0
    return s_y, s_lam, solved


# --------------------------------------------------------------------------
# tube evaluation (foot points, distances, curvatures)


@dataclass
class TubeData:
    """Per-point geometric data of the signed-distance foliation of Sigma.

    ``u`` is in metric units and ``curvatures`` are the principal curvatures
    of the level set through each point, ascending, in metric units; ``c``,
    ``u_e`` (u in euclidean units), ``denom`` (the 1 - u_e kappa_i, 1 where a
    point is not valid) and ``foot_shape`` (Sigma's shape at the feet, in
    euclidean units) are what ``nu`` and ``hess_u`` are built from, on each
    read and never before.
    """

    u: np.ndarray
    curvatures: np.ndarray
    foot: np.ndarray
    valid: np.ndarray
    c: float
    u_e: np.ndarray
    denom: np.ndarray
    foot_shape: geo.SigmaShape

    @property
    def nu(self):
        """Chart coordinates of the g-unit normal, shape ``(..., 3)``."""
        return np.stack(self.foot_shape.nu, axis=-1) / self.c

    @property
    def hess_u(self):
        """Coordinate Hessian of u, shape ``(..., 3, 3)``: c times the
        euclidean -(B_t - u_e sigma_2 P) / ((1 - u_e kappa_1)(1 - u_e kappa_2))."""
        shp = self.foot_shape
        nu, t = shp.nu, self.u_e * shp.sigma2
        scale = self.denom[..., 0] * self.denom[..., 1]
        entries = [self.c * (-(bt - t * ((1.0 if i == j else 0.0) - nu[i] * nu[j])) / scale)
                   for (i, j), bt in zip(geo._PAIRS, shp.Bt)]
        return geo.symmetric_matrix(entries)


def tube_eval(sigma, x):
    """Evaluate distance/curvature data at points ``x``.

    Exact up to the Newton projection tolerance; euclidean quantities are
    converted to metric units with Sigma's constant c.
    """
    x = np.asarray(x, dtype=float)
    c = sigma.c
    foot, ok, w_x, grad, hess = sigma.project(x)
    sgn = np.where(w_x >= 0.0, 1.0, -1.0)
    u_e = sgn * np.linalg.norm(x - foot, axis=-1)

    # a point without a foot takes w's jet at p; it is not valid
    _, grad_p, hess_p = sigma.jet_p
    shp = sigma_shape([np.where(ok, a, a_p) for a, a_p in zip(grad, grad_p)],
                      [np.where(ok, a, a_p) for a, a_p in zip(hess, hess_p)])
    denom = 1.0 - u_e[..., None] * shp.kappa
    clear = denom > 0.05
    valid = ok & np.all(clear, axis=-1)
    denom = np.where(clear, denom, 1.0)
    # curvatures stay ascending: t -> k/(1-tk) is monotone in k for 1-tk>0
    return TubeData(u=c * u_e, curvatures=shp.kappa / denom / c, foot=foot, valid=valid,
                    c=c, u_e=u_e, denom=denom, foot_shape=shp)


# --------------------------------------------------------------------------
# bundle


@dataclass
class BarrierBundle:
    """Assembled barrier data: Sigma, distances, curvature bound, cutoff.

    ``chart`` is the working box around p (the shrunken ambient ball of the
    construction); everything about the barrier lives inside it.
    ``tube_ksum_min`` is the least kappa_1 + ... + kappa_m of Sigma at the
    feet of that chart's lattice (``tube_curvatures``): the least sum on each
    normal segment, which is at its foot.  A chart is kept only once every
    foot is evaluated; each chart rejected before it stopped at its probe
    head or after its whole lattice.
    """

    domain: Domain
    p: np.ndarray
    m: int
    eta: float
    K: float
    epsilon: float
    sigma: SigmaSurface
    kappa_sum_p: float
    chart: np.ndarray
    tube_ksum_min: float

    def field(self):
        return BarrierVectorField(self)


TUBE_LATTICE = 12  # cells per chart axis whose centres tube_curvatures projects
TUBE_CHUNK = 32    # points of each chart's lattice in its probe head
TUBE_PROBE = 4     # shrink-loop charts whose heads one probe projects
GRID_CHUNK = 32768  # flat grid indices per verify_barrier task


def _ordered_lattices(sigma, charts):
    """The fixed lattice of each chart, shape ``(len(charts), L, n)``: the
    TUBE_LATTICE^n cell centres, the 2^n corners and p, nearest Sigma first.

    The order is by layers a quarter of the chart wide in the first-order
    distance |w| / |grad w|, from one ``w.jet`` over every chart's lattice,
    and in C order within a layer.  A point near Sigma takes few Newton
    steps, and a layer in C order starts on a chart face, far from p, where a
    chart that fails has its failing feet.
    """
    p = sigma.p
    n = len(p)
    cells = (np.indices((TUBE_LATTICE,) * n).reshape(n, -1).T + 0.5) / TUBE_LATTICE
    lattices = np.stack([
        np.concatenate([chart[:, 0] + (chart[:, 1] - chart[:, 0]) * cells,
                        np.stack(np.meshgrid(*chart, indexing="ij"), axis=-1).reshape(-1, n),
                        p[None, :]])
        for chart in charts])
    value, (g0, g1, g2), _ = sigma.w.jet(tuple(np.ascontiguousarray(lattices.reshape(-1, n).T)))
    slope = np.sqrt(g0 * g0 + g1 * g1 + g2 * g2).reshape(len(charts), -1)
    width = np.min(charts[:, :, 1] - charts[:, :, 0], axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        layer = np.floor(4.0 * np.abs(value.reshape(slope.shape)) / (slope * width[:, None]))
    order = np.argsort(layer, axis=-1, kind="stable")
    return np.take_along_axis(lattices, order[..., None], axis=1)


def _foot_kappa(sigma, proj):
    """Sigma's ascending curvatures, in metric units, at the accepted feet of
    a ``Projection`` of a flat batch, in the batch's order."""
    ok = proj.ok
    return sigma_shape([a[ok] for a in proj.grad], [a[ok] for a in proj.hess]).kappa / sigma.c


def tube_curvatures(sigma, charts, clears):
    """The first of ``charts`` whose lattice clears, as ``(index, kappa)``,
    or None when none does.

    ``kappa`` holds Sigma's ascending principal curvatures, in metric units,
    at every foot of the chart's lattice (``_ordered_lattices``): the
    curvatures at t = 0 of the normal segments, from which ``build_barrier``
    bounds the whole segment.  Feet just outside the chart are kept, since
    the verification grid reaches them through the tube.

    One probe projects the heads of all the charts, the first TUBE_CHUNK
    points of each lattice, in one ``project`` call.  The charts are then
    taken in order: one whose head has a curvature list on which ``clears``
    is False is skipped, and the first other one has the rest of its lattice
    projected in one call; it is returned if ``clears`` holds on all of its
    feet.  "No feet" is raised once a whole lattice has none.  Each foot
    depends on its own point alone, so this gives what projecting the
    charts one whole lattice at a time would; only a ``GeometryError`` of
    the probe is batch-wide, and then the charts are probed one at a time,
    so no chart past the one returned can make the call fail.
    """
    try:
        lattices = _ordered_lattices(sigma, charts)
        heads = sigma.project(lattices[:, :TUBE_CHUNK].reshape(-1, lattices.shape[-1]))
        feet = np.count_nonzero(heads.ok.reshape(len(charts), -1), axis=-1)
        head_kappa = np.split(_foot_kappa(sigma, heads), np.cumsum(feet)[:-1])
    except GeometryError:
        if len(charts) == 1:
            raise
        # the error may come from a chart that the charts before it make moot
        for i, chart in enumerate(charts):
            found = tube_curvatures(sigma, chart[None], clears)
            if found is not None:
                return i, found[1]
        return None
    for i, lattice in enumerate(lattices):
        kappa = head_kappa[i]
        if len(kappa) and not clears(kappa):
            continue
        kappa = np.concatenate([kappa, _foot_kappa(sigma, sigma.project(lattice[TUBE_CHUNK:]))])
        if not len(kappa):
            raise TubeError("no Sigma feet found inside the chart")
        if clears(kappa):
            return i, kappa
    return None


def build_barrier(domain, p, m, eta=None, h=0.0, enforce_hypothesis=True):
    """Construct the full barrier bundle at a boundary point p.

    ``eta`` defaults to the midpoint of (h, kappa_1 + ... + kappa_m at p).
    An eta that is not finite (a NaN or infinite h makes the default one so)
    is an error, and so is an h that is not finite and nonnegative.
    With ``enforce_hypothesis`` the construction refuses whenever that sum
    does not exceed eta (no vacuous barriers).

    The working chart starts as a box around p clipped to the domain chart
    and is shrunk by 0.7 until every foot of its lattice (``tube_curvatures``)
    has kappa_1 + ... + kappa_m above eta (with 2% of the slack at p to
    spare), mirroring the "sufficiently small ball around p" step of the
    underlying construction.  A sum that is not above that goal (a NaN sum
    included) rejects its chart.  The 18 shrunken charts go to
    ``tube_curvatures`` TUBE_PROBE at a time, and the first that clears is
    kept; a build with no slack to shrink for (kappa_1 + ... + kappa_m at p
    not above eta, which only ``enforce_hypothesis=False`` lets through)
    keeps its first chart and probes no other.
    Along the normal segment from a foot, k_i(t) = kappa_i / (1 - t kappa_i)
    rises with t (Gray, *Tubes*), so the least sum is at the foot: that is
    ``tube_ksum_min``.  The largest |k_i| is at t = 0 or at t = T, with T
    half the metric distance from p to the chart faces; K is 1.25 times the
    larger.  A segment with 1 - T kappa_i <= 0 reaches a focal point, where
    no K bounds k_i, and the build is refused with TubeError.  epsilon is then
    min(K^{-1/2}, T), so the segments cover the tube.
    """
    p = np.asarray(p, dtype=float)
    kappa_sum, _, _ = geo.m_convexity(domain, p, m)
    if eta is None:
        eta = 0.5 * (h + kappa_sum)
    if not np.isfinite(eta):
        raise GeometryError(f"eta must be finite, got {eta}")
    if not 0.0 <= h < np.inf:
        raise GeometryError(f"h must be finite and nonnegative, got {h}")
    if enforce_hypothesis and kappa_sum <= eta:
        raise BarrierRefusal(
            f"curvature sum {kappa_sum:.6g} at p does not exceed eta = {eta:.6g}"
        )
    sigma = SigmaSurface(domain, p)

    dlo, dhi = domain.chart[:, 0], domain.chart[:, 1]
    span = float(np.min(np.maximum(np.minimum(p - dlo, dhi - p), 0.25 * (dhi - dlo))))
    w = 0.5 * span
    goal = eta + 0.02 * max(kappa_sum - eta, 0.0)
    shrinkable = kappa_sum > eta

    def clears(kappa):
        # a NaN sum does not clear its chart, so it shrinks the chart too
        return not shrinkable or np.min(np.sum(kappa[..., :m], axis=-1)) > goal

    charts = []
    for _ in range(18 if shrinkable else 1):
        charts.append(np.stack([np.maximum(p - w, dlo), np.minimum(p + w, dhi)], axis=-1))
        w *= 0.7
    charts = np.stack(charts)
    for start in range(0, len(charts), TUBE_PROBE):
        found = tube_curvatures(sigma, charts[start:start + TUBE_PROBE], clears)
        if found is not None:
            chart, kappa = charts[start + found[0]], found[1]
            break
    else:
        raise TubeError("tube radius collapsed before the convexity inequality held")

    T = 0.5 * sigma.c * float(np.min(np.minimum(p - chart[:, 0], chart[:, 1] - p)))
    ksum_min = float(np.min(np.sum(kappa[..., :m], axis=-1)))
    denom = 1.0 - T * kappa
    if np.any(denom <= 0.0):
        raise TubeError("a normal segment of length T reaches a focal point of Sigma")
    k_end = kappa / denom
    K = 1.25 * float(np.max(np.abs([kappa, k_end])))
    if not 0 < K <= 1e4:
        raise TubeError(f"no usable curvature bound: K = {K:.3g}")
    eps = min(K ** -0.5, T)
    if eps <= 0:
        raise GeometryError("no positive epsilon fits the chart")
    return BarrierBundle(
        domain=domain,
        p=p,
        m=m,
        eta=float(eta),
        K=float(K),
        epsilon=float(eps),
        sigma=sigma,
        kappa_sum_p=float(kappa_sum),
        chart=chart,
        tube_ksum_min=ksum_min,
    )


# --------------------------------------------------------------------------
# the vectorfield X = phi(u) nu


class BarrierVectorField(VectorField):
    """X = phi(u) nu, supported on the closure of N intersect {u < eps}."""

    def __init__(self, bundle):
        self.bundle = bundle
        self.n = bundle.p.shape[0]

    def live_phi(self, data):
        """``(live, phi)`` from tube data: ``live`` marks the points of the
        open tube ``0 <= u < eps`` where X does not vanish (phi underflows to
        an exact 0 just below the cutoff), phi is the cutoff there and 0
        elsewhere."""
        b = self.bundle
        tube = data.valid & (data.u >= 0.0) & (data.u < b.epsilon)
        phi = np.where(tube, cutoff(np.where(tube, data.u, 0.0), b.epsilon), 0.0)
        return tube & (phi > 0.0), phi

    def from_tube(self, data):
        """``(live, phi, value, S)`` of X from tube data at the points.

        ``live`` and phi are as in ``live_phi``.  S = jacobian / phi
        = -(u - eps)^-2 nu_e nu_e^T + Hess u / c^2 on live points (0
        elsewhere) stays finite however small phi is.  Its spectrum is known:
        with Sigma's curvatures kappa_i from the invariants sigma_1, sigma_2
        of grad w and Hess w (Goldman 2005), the euclidean Hess u =
        -(B_t - u sigma_2 P) / ((1 - u kappa_1)(1 - u kappa_2)) has the
        eigenvalues -k_i, k_i = kappa_i / (1 - u kappa_i) (Gray, *Tubes*), on
        the level set and 0 along nu_e, so S has -k_1, -k_2 (in metric
        units) and -(eps - u)^-2.
        """
        b = self.bundle
        c = b.sigma.c
        live, phi = self.live_phi(data)
        u_safe = np.where(live, data.u, 0.0)
        nu = data.nu
        value = np.where(live[..., None], phi[..., None] * nu, 0.0)
        nu_e = nu * c  # euclidean unit normal
        outer = nu_e[..., :, None] * nu_e[..., None, :]
        # phi'/phi = -(u - eps)^-2; data.hess_u is the coordinate Hessian of
        # u = c * u_e, hence the c^2
        S = (-(u_safe - b.epsilon) ** -2)[..., None, None] * outer + data.hess_u / c**2
        return live, phi, value, np.where(live[..., None, None], S, 0.0)

    def reaches_tube(self, x, u0_x):
        """False where the eps/c-ball of x provably misses Sigma, given u0's
        values ``u0_x`` at x.

        A live point has a foot within euclidean distance eps / c, so only
        the other points need to go to tube_eval.
        """
        b = self.bundle
        return ~b.sigma.misses(x, u0_x, b.epsilon / b.sigma.c)

    def evaluate(self, x):
        """X and its jacobian phi S; each point reaches the tube at most once,
        and the points outside it get exact zeros."""
        x = np.asarray(x, dtype=float)
        n = x.shape[-1]
        pts = x.reshape(-1, n)
        value = np.zeros((len(pts), n))
        J = np.zeros((len(pts), n, n))
        cand = self.reaches_tube(pts, self.bundle.domain.u0.value(pts))
        if np.any(cand):
            _, phi, value[cand], S = self.from_tube(tube_eval(self.bundle.sigma, pts[cand]))
            J[cand] = phi[..., None, None] * S
        return value.reshape(x.shape), J.reshape(x.shape + (n,))

    def value(self, x):
        return self.evaluate(x)[0]

    def jacobian(self, x):
        return self.evaluate(x)[1]


# --------------------------------------------------------------------------
# verification


@dataclass
class BarrierReport:
    passed: bool
    worst_margin: float
    worst_point: list
    n_grid: int
    n_tube: int
    epsilon: float
    K: float
    eta: float
    m: int
    tolerance: float
    margins: np.ndarray | None = None
    points: np.ndarray | None = None

    def to_dict(self):
        return {
            "passed": bool(self.passed),
            "worst_margin": float(self.worst_margin),
            "worst_point": [float(v) for v in self.worst_point],
            "n_grid": int(self.n_grid),
            "n_tube": int(self.n_tube),
            "epsilon": float(self.epsilon),
            "K": float(self.K),
            "eta": float(self.eta),
            "m": int(self.m),
            "tolerance": float(self.tolerance),
        }

    def write_margins(self, path):
        """CSV with one ``x1,...,xn,margin`` row per grid point (needs a
        report made with ``keep_margins``)."""
        if self.margins is None:
            raise ValueError("report was made without keep_margins")
        with open(path, "w") as fh:
            n = self.points.shape[-1]
            fh.write(",".join(f"x{i + 1}" for i in range(n)) + ",margin\n")
            for pt, mg in zip(self.points, self.margins):
                fh.write(",".join(repr(float(v)) for v in pt) + f",{float(mg)!r}\n")


def verify_barrier(
    bundle,
    grid_resolution=50,
    tolerance=1e-7,
    threads=1,
    keep_margins=False,
):
    """Check Psi_X + eta |X| <= 0 on a chart grid intersected with N.

    Margins are normalized by phi(u) (1 + K).  At a live point, S = jacobian
    / phi has the known spectrum of ``BarrierVectorField.from_tube``, so the
    margin is (the sum of its m largest entries + eta) / (1 + K), exact to
    rounding also where the normal eigenvalue is among the m largest; no S
    is assembled and no eigensolver runs.  Points at or beyond the cutoff,
    and the live points where phi underflows to 0, contribute an exact zero.
    The report carries the worst margin and its location, the first in grid
    order among equal margins (a NaN margin is the worst); a grid with no
    live point checked nothing and does not pass.  Each grid point is
    evaluated in the tube at most once, and not at all where
    ``SigmaSurface.misses`` shows that no foot of Sigma lies within eps / c
    of it (its margin is then 0).

    The grid is never built whole.  Each task takes GRID_CHUNK consecutive
    flat grid indices, makes their points from the axes, keeps those in N and
    evaluates them; it returns its counts and its worst margin and point, and
    its points and margins only with ``keep_margins``.  A margin depends on
    its point alone, so memory is bounded by the chunk and ``threads``, not
    by ``grid_resolution``, and the report is the same at every ``threads``.
    """
    b = bundle
    if not 1 <= b.m <= 3:
        raise ValueError(f"m must be in [1, 3], got {b.m}")
    X = b.field()
    axes = [np.linspace(lo, hi, grid_resolution) for lo, hi in np.asarray(b.chart, dtype=float)]
    shape = (grid_resolution,) * len(axes)
    size = grid_resolution ** len(axes)

    def chunk_result(start):
        index = np.unravel_index(np.arange(start, min(start + GRID_CHUNK, size)), shape)
        pts = np.stack([ax[i] for ax, i in zip(axes, index)], axis=-1)
        # u0 once per point: the values that decide N also feed the screen
        u0 = b.domain.u0.value(pts)
        inside = (u0 >= 0.0) & b.domain.in_chart(pts)
        pts, u0 = pts[inside], u0[inside]
        if len(pts) == 0:
            return None
        out = np.zeros(len(pts))
        live = np.zeros(len(pts), dtype=bool)
        cand = X.reaches_tube(pts, u0)
        if np.any(cand):
            data = tube_eval(b.sigma, pts[cand])
            on, _ = X.live_phi(data)
            live[cand] = on
            # barriers exist only for g = c^2 * euclidean: the top-m trace of
            # Q = c^2 phi S over g-orthonormal m-frames is phi times the sum of
            # the m largest eigenvalues of S
            normal = -(b.epsilon - data.u[on]) ** -2.0
            spectrum = np.sort(np.concatenate([-data.curvatures[on], normal[:, None]], axis=-1))
            out[live] = (np.sum(spectrum[:, 3 - b.m:], axis=-1) + b.eta) / (1.0 + b.K)
        worst = int(np.argmax(out))
        # the worst point as a list, not a view that would hold the chunk
        return (len(pts), int(np.count_nonzero(live)), out[worst], pts[worst].tolist(),
                pts if keep_margins else None, out if keep_margins else None)

    with ThreadPoolExecutor(max_workers=threads) as ex:
        results = [r for r in ex.map(chunk_result, range(0, size, GRID_CHUNK)) if r is not None]
    if not results:
        raise GeometryError("verification grid is empty")
    n_grid, n_live, worst_margins, worst_points, points, margins = zip(*results)
    # chunks come in grid order, so argmax over their worst margins keeps the
    # first of equal margins, and a NaN
    worst = int(np.argmax(worst_margins))
    n_tube = sum(n_live)
    return BarrierReport(
        passed=bool(worst_margins[worst] <= tolerance and n_tube > 0),
        worst_margin=float(worst_margins[worst]),
        worst_point=worst_points[worst],
        n_grid=sum(n_grid),
        n_tube=n_tube,
        epsilon=b.epsilon,
        K=b.K,
        eta=b.eta,
        m=b.m,
        tolerance=tolerance,
        margins=np.concatenate(margins) if keep_margins else None,
        points=np.concatenate(points) if keep_margins else None,
    )
