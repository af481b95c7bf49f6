"""Barrier construction and verification tests."""
import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from mconvex import barrier as bar
from mconvex import geometry as geo
from mconvex import harness as hz
from mconvex import varifold as vf

from testkit import ConstantVectorField, chart_grid, inward_normal, position_field


class TestCutoff:
    def test_value_at_zero(self):
        assert bar.cutoff(0.0, 0.5) == pytest.approx(np.exp(-2.0))

    def test_vanishes_at_and_past_epsilon(self, cutoff_derivative):
        assert bar.cutoff(0.5, 0.5) == 0.0
        assert bar.cutoff(0.7, 0.5) == 0.0
        assert cutoff_derivative(0.5, 0.5) == 0.0
        assert cutoff_derivative(0.7, 0.5) == 0.0

    def test_log_derivative_identity(self, cutoff_derivative):
        # phi'/phi = -1/(t - eps)^2
        t, eps = 0.25, 0.5
        ratio = cutoff_derivative(t, eps) / bar.cutoff(t, eps)
        assert ratio == pytest.approx(-16.0)

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError):
            bar.cutoff(-0.1, 0.5)

    def test_phi_bounds_on_grid(self, cutoff_derivative):
        """phi' <= -phi/eps^2 everywhere; phi' <= -K phi after selection."""
        eps = 0.125
        K = eps ** -2  # any K <= 1/eps^2, the selected value satisfies K <= eps^-2
        t = np.linspace(0.0, eps * (1 - 1e-12), 1000)
        phi = bar.cutoff(t, eps)
        dphi = cutoff_derivative(t, eps)
        assert np.all(dphi <= -phi / eps ** 2 + 1e-300)
        assert np.all(dphi <= -K * phi + 1e-300)


class TestConstruction:
    def test_bundle_invariants(self, ball_bundle):
        b = ball_bundle
        assert b.K > 0
        assert 0 < b.epsilon <= b.K ** -0.5
        assert b.eta == pytest.approx(1.0)
        assert b.kappa_sum_p == pytest.approx(2.0)

    def test_contact_at_p(self, ball_bundle):
        data = bar.tube_eval(ball_bundle.sigma, ball_bundle.p)
        assert data.u == pytest.approx(0.0, abs=1e-9)
        np.testing.assert_allclose(data.nu, [0.0, 0.0, -1.0], atol=1e-8)
        np.testing.assert_allclose(data.curvatures, [1.0, 1.0], atol=5e-3)

    def test_sigma_positive_off_p(self, ball_bundle, ball_domain):
        rng = np.random.default_rng(0)
        lo, hi = ball_domain.chart[:, 0], ball_domain.chart[:, 1]
        pts = lo + (hi - lo) * rng.random((2000, 3))
        pts = pts[np.asarray(ball_domain.contains(pts), dtype=bool)]
        w = ball_bundle.sigma.w.value(pts)
        off = np.linalg.norm(pts - ball_bundle.p, axis=1) > 1e-6
        assert np.all(w[off] > 0)

    def test_halfspace_refusal(self):
        dom = geo.domain_halfspace()
        with pytest.raises(bar.BarrierRefusal):
            bar.build_barrier(dom, np.zeros(3), m=2, eta=0.1)

    def test_general_metric_rejected(self, north_pole):
        dom = geo.domain_ball(radius=1.0, metric=geo.metric_conformal("x1"))
        with pytest.raises(geo.GeometryError):
            bar.build_barrier(dom, north_pole, m=2)

    @pytest.mark.parametrize("options", [{"eta": np.nan}, {"eta": np.inf}, {"eta": -np.inf},
                                         {"h": np.nan}, {"h": np.inf}],
                             ids=["eta_nan", "eta_inf", "eta_minus_inf", "h_nan", "h_inf"])
    @pytest.mark.parametrize("enforce", [True, False], ids=["enforced", "unenforced"])
    def test_non_finite_eta_is_an_error(self, ball_domain, north_pole, options, enforce):
        # a NaN eta compares False both ways, so no later check could fail
        with pytest.raises(geo.GeometryError, match="eta must be finite") as err:
            bar.build_barrier(ball_domain, north_pole, m=2, enforce_hypothesis=enforce,
                              **options)
        assert not isinstance(err.value, bar.BarrierRefusal)


def _full_batch_project(sigma, x, tol=1e-12, max_iter=60):
    """Reference KKT Newton projection that steps every point of the batch
    until all of them have converged (the loop before the active set)."""
    pts = np.asarray(x, dtype=float)
    n = pts.shape[-1]
    y = pts.copy()
    gw = sigma.w.gradient(y)
    lam = sigma.w.value(y) / np.maximum(np.einsum("...i,...i->...", gw, gw), 1e-20)
    max_step = 0.25 * sigma.domain.chart_diameter()
    ok = np.ones(len(pts), dtype=bool)
    for _ in range(max_iter):
        wv = sigma.w.value(y)
        gw = sigma.w.gradient(y)
        Hw = sigma.w.hessian(y)
        res_y = y - pts + lam[:, None] * gw
        res = np.concatenate([res_y, wv[:, None]], axis=-1)
        if np.all(np.linalg.norm(res, axis=-1) <= tol):
            break
        J = np.zeros((len(pts), n + 1, n + 1))
        J[:, :n, :n] = np.eye(n) + lam[:, None, None] * Hw
        J[:, :n, n] = gw
        J[:, n, :n] = gw
        try:
            step = np.linalg.solve(J, res[..., None])[..., 0]
        except np.linalg.LinAlgError:
            ok[:] = False
            break
        norms = np.linalg.norm(step[:, :n], axis=-1)
        scale = np.minimum(1.0, max_step / np.maximum(norms, 1e-300))
        step = step * scale[:, None]
        y = y - step[:, :n]
        lam = lam - step[:, n]
    final = np.abs(sigma.w.value(y))
    align = y - pts + lam[:, None] * sigma.w.gradient(y)
    ok = ok & (final <= 1e-9) & (np.linalg.norm(align, axis=-1) <= 1e-7)
    ok = ok & np.all(np.isfinite(y), axis=-1)
    return y, ok


@pytest.fixture(scope="module")
def ellipsoid_bundle(north_pole):
    dom = geo.domain_levelset("1 - x1^2/4 - x2^2/4 - x3^2", [[-2.0, 2.0]] * 3)
    return bar.build_barrier(dom, north_pole, m=2)


class _VanishingAt(geo.ScalarField):
    """w with its gradient and Hessian set to zero at one point."""

    def __init__(self, w, q):
        self.w, self.q, self.n = w, np.asarray(q, dtype=float), w.n

    def value(self, x):
        return self.w.value(x)

    def jet(self, y):
        value, grad, hess = self.w.jet(y)
        at_q = np.all([yi == qi for yi, qi in zip(y, self.q)], axis=0)
        return (value, tuple(np.where(at_q, 0.0, a) for a in grad),
                tuple(np.where(at_q, 0.0, a) for a in hess))


class TestProjection:
    @pytest.mark.parametrize("name", ["ball_bundle", "scaled_ball_bundle", "ellipsoid_bundle"])
    def test_active_set_matches_full_batch(self, name, request):
        b = request.getfixturevalue(name)
        rng = np.random.default_rng(5)
        lo, hi = b.chart[:, 0], b.chart[:, 1]
        near = lo + (hi - lo) * rng.random((1500, 3))
        # a box of half-width 1.5 around p reaches far outside the tube; on
        # the balls a few of these points never converge
        far = b.p + 1.5 * (2.0 * rng.random((1000, 3)) - 1.0)
        pts = np.concatenate([near, far])
        foot, ok = b.sigma.project(pts)[:2]
        ref_foot, ref_ok = _full_batch_project(b.sigma, pts)
        np.testing.assert_array_equal(ok, ref_ok)
        assert np.any(ok)
        # a stopped point has KKT residual <= tol = 1e-12; the reference
        # steps it further by about that much
        np.testing.assert_allclose(foot[ok], ref_foot[ok], rtol=1e-12, atol=1e-12)

    def test_singular_system_fails_only_its_point(self, ball_domain, north_pole):
        sigma = bar.SigmaSurface(ball_domain, north_pole)
        pts = np.array([[0.1, 0.0, 0.95], [0.0, 0.2, 0.9], [-0.1, 0.1, 1.05]])
        expect, expect_ok = sigma.project(pts)[:2]
        assert np.all(expect_ok)
        sigma.w = _VanishingAt(sigma.w, pts[1])
        foot, ok = sigma.project(pts)[:2]
        np.testing.assert_array_equal(ok, [True, False, True])
        np.testing.assert_array_equal(foot[ok], expect[ok])

    def test_point_without_a_foot_and_a_zero_gradient_is_invalid(self, ball_domain,
                                                                 north_pole):
        """The point whose KKT solve fails keeps the jet at x, whose gradient
        vanishes there: tube_eval reads w's jet at p for it instead, marks it
        invalid and leaves the other points as they were."""
        sigma = bar.SigmaSurface(ball_domain, north_pole)
        pts = np.array([[0.1, 0.0, 0.95], [0.0, 0.2, 0.9], [-0.1, 0.1, 1.05]])
        expect = bar.tube_eval(sigma, pts)
        assert np.all(expect.valid)
        sigma.w = _VanishingAt(sigma.w, pts[1])
        data = bar.tube_eval(sigma, pts)
        np.testing.assert_array_equal(data.valid, [True, False, True])
        np.testing.assert_array_equal(data.curvatures[[0, 2]], expect.curvatures[[0, 2]])
        np.testing.assert_array_equal(data.u[[0, 2]], expect.u[[0, 2]])

    def test_returns_w_at_x_and_the_jet_at_the_foot(self, ball_bundle, tube_points):
        proj = ball_bundle.sigma.project(tube_points)
        w = ball_bundle.sigma.w
        assert np.any(proj.ok)
        np.testing.assert_array_equal(proj.w_x, w.value(tube_points))
        grad, hess = w.gradient(proj.foot), w.hessian(proj.foot)
        assert len(proj.grad) == 3 and len(proj.hess) == 6
        for k in range(3):
            np.testing.assert_array_equal(proj.grad[k], grad[:, k])
        for (i, j), entry in zip(geo._PAIRS, proj.hess):
            np.testing.assert_array_equal(entry, hess[:, i, j])

    def test_unconverged_foot_off_sigma_is_refused(self, monkeypatch):
        """|w| = 2e-7 at the last y: FOOT_TOLERANCE alone refuses it."""
        sigma = bar.SigmaSurface(geo.domain_halfspace(), np.zeros(3))
        pts = np.array([[0.1, 0.2, 0.3], [-0.4, 0.1, 0.05], [0.3, -0.2, -0.2]])
        sigma.w = _FlickeringPlane()
        assert np.all(sigma.project(pts).ok)
        sigma.w = _FlickeringPlane(offset=1e-7)
        proj = sigma.project(pts)
        np.testing.assert_allclose(proj.foot[:, :2], pts[:, :2], rtol=0, atol=1e-12)
        assert not np.any(proj.ok)
        monkeypatch.setattr(bar, "FOOT_TOLERANCE", 1e-6)
        assert np.all(sigma.project(pts).ok)

    def test_unaligned_foot_on_sigma_is_refused(self):
        """The last y lies on Sigma (|w| <= 1e-10), but y - x is not along
        grad w there (|y - x + lambda grad w| is 1e-6 to 6e-6): refused."""
        sigma = bar.SigmaSurface(geo.domain_halfspace(), np.zeros(3))
        pts = np.array([[0.1, 0.2, 0.3], [-0.4, 0.1, 0.05], [0.3, -0.2, -0.2]])
        sigma.w = _FlickeringPlane(tilt=1e-5)
        proj = sigma.project(pts)
        assert np.all(np.abs(proj.foot[:, 2]) <= 1e-10)
        np.testing.assert_allclose(proj.foot[:, :2], pts[:, :2], rtol=0, atol=1e-5)
        assert not np.any(proj.ok)


class _FlickeringPlane(geo.ScalarField):
    """w = x3 seen through a jet that alternates on every call: its value is
    offset by +-``offset`` and its gradient tilted by +-``tilt`` along x1.
    Newton's iteration then never converges: it ends next to the plane with
    |w| about 2 offset, or on it with y - x off grad w by about 2 lambda tilt."""

    def __init__(self, offset=0.0, tilt=0.0):
        self.n, self.offset, self.tilt, self.sign = 3, offset, tilt, 1.0

    def jet(self, y):
        self.sign = -self.sign
        shape = np.shape(y[2])
        g = (np.full(shape, self.sign * self.tilt), np.zeros(shape), np.ones(shape))
        return y[2] + self.sign * self.offset, g, tuple(np.zeros(shape) for _ in range(6))


class _CountingField(geo.ScalarField):
    """w that counts its calls, and the points its jet sees."""

    def __init__(self, w):
        self.w, self.n = w, w.n
        self.calls = []
        self.jet_points = 0

    def value(self, x):
        self.calls.append("value")
        return self.w.value(x)

    def gradient(self, x):
        self.calls.append("gradient")
        return self.w.gradient(x)

    def hessian(self, x):
        self.calls.append("hessian")
        return self.w.hessian(x)

    def jet(self, y):
        self.jet_points += np.size(y[0])
        return self.w.jet(y)


def test_tube_eval_evaluates_w_once_per_point_per_step(ball_domain, north_pole, tube_points,
                                                       monkeypatch):
    sigma = bar.SigmaSurface(ball_domain, north_pole)
    sigma.w = _CountingField(sigma.w)
    steps = []
    kkt_step = bar._kkt_step

    def counting(lam, h, g, r_y, r_w):
        s_y, s_lam, solved = kkt_step(lam, h, g, r_y, r_w)
        steps.append(np.count_nonzero(solved))
        return s_y, s_lam, solved

    monkeypatch.setattr(bar, "_kkt_step", counting)
    data = bar.tube_eval(sigma, tube_points)
    assert np.all(data.valid)
    assert sigma.w.calls == []
    # the jet at each x and one per point per Newton step; the jet at p is
    # Sigma's own, taken once when it is built
    assert len(steps) >= 2
    assert sigma.w.jet_points == len(tube_points) + sum(steps)


def _kkt_systems(rng, k):
    """k random KKT systems: lambda in [-0.5, 0.5], symmetric H with entries
    up to 5, |g| in [0.1, 10]."""
    lam = rng.uniform(-0.5, 0.5, k)
    H = rng.uniform(-5.0, 5.0, (k, 3, 3))
    H = 0.5 * (H + np.swapaxes(H, -1, -2))
    g = rng.normal(size=(k, 3))
    g *= (10.0 ** rng.uniform(-1.0, 1.0, k) / np.linalg.norm(g, axis=-1))[:, None]
    return lam, H, g, rng.normal(size=(k, 4))


def _lapack_step(lam, H, g, res):
    J = np.zeros((len(lam), 4, 4))
    J[:, :3, :3] = np.eye(3) + lam[:, None, None] * H
    J[:, :3, 3] = g
    J[:, 3, :3] = g
    return np.linalg.solve(J, res[..., None])[..., 0]


def _kkt_step(lam, H, g, res):
    """``bar._kkt_step`` on the six ``_PAIRS`` entries of the symmetric H and
    the components of g and of the right-hand side (r_y, r_w), its step
    stacked as (s_y, s_lam)."""
    h = tuple(H[:, i, j] for i, j in geo._PAIRS)
    s_y, s_lam, solved = bar._kkt_step(lam, h, geo.unstack(g), geo.unstack(res[:, :3]),
                                       res[:, 3])
    return np.stack([*s_y, s_lam], axis=-1), solved


class TestKKTStep:
    def test_matches_lapack(self):
        lam, H, g, res = _kkt_systems(np.random.default_rng(11), 2000)
        step, solved = _kkt_step(lam, H, g, res)
        ref = _lapack_step(lam, H, g, res)
        assert np.all(solved)
        err = np.linalg.norm(step - ref, axis=-1)
        assert np.all(err <= 1e-12 * np.linalg.norm(ref, axis=-1))

    def test_singular_and_nan_rows_fail_alone(self):
        lam, H, g, res = _kkt_systems(np.random.default_rng(12), 40)
        g[3] = 0.0
        res[7, 2] = np.nan
        step, solved = _kkt_step(lam, H, g, res)
        expect = np.ones(40, dtype=bool)
        expect[[3, 7]] = False
        np.testing.assert_array_equal(solved, expect)
        np.testing.assert_array_equal(step[~expect], 0.0)
        ref = _lapack_step(lam[expect], H[expect], g[expect], res[expect])
        err = np.linalg.norm(step[expect] - ref, axis=-1)
        assert np.all(err <= 1e-12 * np.linalg.norm(ref, axis=-1))


class TestBarrierField:
    def test_magnitude_at_p(self, ball_bundle):
        X = ball_bundle.field()
        v = X.value(ball_bundle.p)
        assert np.linalg.norm(v) == pytest.approx(np.exp(-1 / ball_bundle.epsilon))

    def test_inward_at_p(self, ball_bundle, ball_domain):
        X = ball_bundle.field()
        nu_N = inward_normal(ball_domain, ball_bundle.p)
        v = X.value(ball_bundle.p)
        assert float(v @ nu_N) > 0

    def test_vanishes_outside_tube(self, ball_bundle):
        X = ball_bundle.field()
        far = np.array([[0.0, 0.0, 0.5], [0.3, 0.3, 0.4]])
        np.testing.assert_array_equal(X.value(far), 0.0)
        np.testing.assert_array_equal(X.jacobian(far), 0.0)

    def test_underflowed_phi_is_not_live(self, ball_bundle):
        """Just below the cutoff phi underflows to an exact 0; X vanishes
        there, so the point is not live."""
        eps = ball_bundle.epsilon
        u = np.array([0.5 * eps, eps - 1e-4, eps])
        assert 0.0 < u[1] and np.exp(1.0 / (u[1] - eps)) == 0.0
        # live_phi reads u and valid alone
        data = bar.tube_eval(ball_bundle.sigma, np.tile(ball_bundle.p, (len(u), 1)))
        data = dataclasses.replace(data, u=u, valid=np.ones(len(u), dtype=bool))
        live, phi = ball_bundle.field().live_phi(data)
        assert live.tolist() == [True, False, False]
        assert phi[0] > 0.0 and phi[1] == phi[2] == 0.0

    def test_inward_on_boundary_samples(self, ball_bundle, ball_domain):
        rng = np.random.default_rng(3)
        lo, hi = ball_domain.chart[:, 0], ball_domain.chart[:, 1]
        pts = lo + (hi - lo) * rng.random((4000, 3))
        bnd = geo.newton_level_project(ball_domain.u0, pts)
        bnd = bnd[np.all((bnd >= lo) & (bnd <= hi), axis=-1)][:1000]
        X = ball_bundle.field()
        inner = np.einsum("fe,fe->f", X.value(bnd), inward_normal(ball_domain, bnd))
        assert np.min(inner) >= -1e-12

    def test_jacobian_fd(self, tube_case):
        b, points = tube_case
        X = b.field()
        pts = points[:20]
        J = X.jacobian(pts)
        h = 1e-6
        for i in range(3):
            e = np.zeros(3); e[i] = h
            fd = (X.value(pts + e) - X.value(pts - e)) / (2 * h)
            np.testing.assert_allclose(J[:, :, i], fd, atol=1e-8)


class TestTubeInvariants:
    def test_eikonal(self, tube_case, u_field):
        b, points = tube_case
        grad = u_field(b).gradient(points)
        # |grad u|_g = 1, so the euclidean length of the coordinate gradient
        # du is c (g^{ij} = c^-2 delta)
        norms = np.linalg.norm(grad, axis=-1)
        np.testing.assert_allclose(norms, b.sigma.c, atol=1e-6)

    def test_normal_geodesic(self, ball_bundle, tube_points):
        """grad_nu nu = 0: the unit normal is parallel along its own flow."""
        b = ball_bundle
        pts = tube_points[:200]
        h = 1e-5
        data0 = bar.tube_eval(b.sigma, pts)
        nu_e = data0.nu * b.sigma.c
        data1 = bar.tube_eval(b.sigma, pts + h * nu_e)
        deriv = (data1.nu - data0.nu) / h
        assert np.max(np.linalg.norm(deriv, axis=-1)) <= 1e-5

    def test_signed_distance_agrees_with_projection(self, tube_case, u_field):
        """u is c times the euclidean distance to the projected foot."""
        b, points = tube_case
        pts = points[:50]
        d = u_field(b).value(pts)
        data = bar.tube_eval(b.sigma, pts)
        feet_dist = np.linalg.norm(pts - data.foot, axis=-1)
        np.testing.assert_allclose(np.abs(d), b.sigma.c * feet_dist, atol=1e-9)


def _psi(X, x, m, metric):
    """Largest trace of the covariant differential of X over m-planes."""
    return geo.top_m_eigensum(geo.bilinear_form_Q(X, x, metric), m)


class TestPsi:
    def test_zero_field(self, ball_domain):
        X = ConstantVectorField(np.zeros(3))
        assert _psi(X, np.array([0.1, 0.2, 0.3]), 2, ball_domain.metric) == 0.0

    def test_position_field(self, ball_domain):
        X = position_field(3)
        for m in (1, 2, 3):
            val = _psi(X, np.array([0.1, -0.2, 0.3]), m, ball_domain.metric)
            assert val == pytest.approx(m)

    def test_closed_form_on_tube(self, ball_bundle, tube_points):
        b = ball_bundle
        X = b.field()
        pts = tube_points[:300]
        vals = _psi(X, pts, b.m, b.domain.metric)
        data = bar.tube_eval(b.sigma, pts)
        phi = bar.cutoff(data.u, b.epsilon)
        closed = -phi * np.sum(data.curvatures[:, : b.m], axis=-1)
        np.testing.assert_allclose(vals, closed, atol=1e-5)

    def test_dominates_random_frames(self, ball_bundle, tube_points):
        b = ball_bundle
        X = b.field()
        rng = np.random.default_rng(11)
        pts = tube_points[:20]
        Q = geo.bilinear_form_Q(X, pts, b.domain.metric)
        top = geo.top_m_eigensum(Q, b.m)
        best = np.full(len(pts), -np.inf)
        for _ in range(500):
            F, _ = np.linalg.qr(rng.normal(size=(len(pts), 3, b.m)))
            tr = np.einsum("fam,fab,fbm->f", F, Q, F)
            assert np.all(tr <= top + 1e-10)
            best = np.maximum(best, tr)
        assert np.max(top - best) <= 1e-2


class TestAdaptedFrame:
    def test_diagonality_and_ordering(self, ball_bundle, tube_points, cutoff_derivative,
                                      adapted_frame_Q):
        b = ball_bundle
        for q in tube_points[:50]:
            M = adapted_frame_Q(b, q)
            data = bar.tube_eval(b.sigma, q)
            phi = bar.cutoff(data.u, b.epsilon)
            dphi = cutoff_derivative(data.u, b.epsilon)
            off = M - np.diag(np.diagonal(M))
            assert np.max(np.abs(off)) <= 1e-6 * (phi * b.K + abs(dphi))
            # entry (n, n) is phi'(u)
            assert M[-1, -1] == pytest.approx(dphi, abs=1e-8)
            diag = np.diagonal(M)
            # -phi k_1 >= ... >= -phi k_{n-1} >= phi'
            assert np.all(np.diff(diag) <= 1e-10)

    def test_one_tube_evaluation_per_call(self, ball_bundle, tube_points, monkeypatch,
                                          adapted_frame_Q):
        seen = []
        tube_eval = bar.tube_eval

        def counting(sigma, x):
            seen.append(len(x))
            return tube_eval(sigma, x)

        monkeypatch.setattr(bar, "tube_eval", counting)
        M = adapted_frame_Q(ball_bundle, tube_points[:20])
        assert M.shape == (20, 3, 3)
        assert seen == [20]


def _closed_form_margins(b, points):
    """``(live, margin, scale)`` at points from the principal curvatures alone.

    At a live point (0 <= u < eps, phi(u) > 0) S = jacobian / phi has the
    eigenvalues -k_1, ..., -k_{n-1} along the level set and -(u - eps)^-2
    along nu, so the margin is (sum of the m largest + eta) / (1 + K).
    ``scale`` is the largest |eigenvalue| / (1 + K), the size of the rounding
    an eigenvalue solver makes on S.
    """
    data = bar.tube_eval(b.sigma, points)
    live = data.valid & (data.u >= 0.0) & (data.u < b.epsilon)
    u = np.where(live, data.u, 0.0)
    live &= bar.cutoff(u, b.epsilon) > 0.0
    eig = np.concatenate([-data.curvatures, -(u - b.epsilon)[:, None] ** -2.0], axis=-1)
    top = np.sum(np.sort(eig, axis=-1)[:, -b.m:], axis=-1)
    scale = np.max(np.abs(eig), axis=-1) / (1.0 + b.K)
    return live, (top + b.eta) / (1.0 + b.K), scale


class TestVerification:
    def test_ball_passes(self, ball_bundle):
        rep = bar.verify_barrier(ball_bundle, grid_resolution=40)
        assert rep.passed
        assert rep.worst_margin <= 1e-7

    def test_scaled_metric_passes(self, scaled_ball_bundle):
        rep = bar.verify_barrier(scaled_ball_bundle, grid_resolution=40)
        assert rep.passed

    def test_margin_twice_the_tolerance_fails(self, ball_bundle, monkeypatch):
        """A grid whose every live margin is 2 MARGIN_TOLERANCE does not
        pass, and the report names the tolerance it was held to."""
        live_margins = bar._live_margins

        def above_tolerance(b, X, x):
            margins, live = live_margins(b, X, x)
            return np.where(live, 2e-7, margins), live

        monkeypatch.setattr(bar, "_live_margins", above_tolerance)
        rep = bar.verify_barrier(ball_bundle, grid_resolution=25)
        assert rep.n_tube > 0 and rep.worst_margin == 2e-7
        assert not rep.passed
        assert rep.to_dict()["tolerance"] == bar.MARGIN_TOLERANCE == 1e-7

    def test_outside_cutoff_margin_zero(self, ball_bundle):
        rep = bar.verify_barrier(ball_bundle, grid_resolution=25, keep_margins=True)
        b = ball_bundle
        data = bar.tube_eval(b.sigma, rep.points)
        outside = ~(data.valid & (data.u >= 0) & (data.u < b.epsilon))
        assert np.max(np.abs(rep.margins[outside])) == 0.0

    def test_halfspace_forced_run_fails(self):
        dom = geo.domain_halfspace()
        b = bar.build_barrier(dom, np.zeros(3), m=2, eta=0.1,
                              enforce_hypothesis=False)
        rep = bar.verify_barrier(b, grid_resolution=25)
        assert not rep.passed
        assert rep.worst_margin > 0.0

    def test_grid_points_reach_the_tube_at_most_once(self, ball_bundle, monkeypatch):
        b = ball_bundle
        seen = []
        tube_eval = bar.tube_eval

        def counting(sigma, x):
            seen.append(np.array(x, copy=True))
            return tube_eval(sigma, x)

        monkeypatch.setattr(bar, "tube_eval", counting)
        rep = bar.verify_barrier(b, grid_resolution=25, keep_margins=True)
        monkeypatch.undo()
        evaluated = np.concatenate(seen)
        reached = {tuple(q) for q in evaluated}
        # grid points are distinct, so no point reached the tube twice
        assert len(reached) == len(evaluated)
        assert reached <= {tuple(q) for q in rep.points}
        candidates = b.field().reaches_tube(rep.points, b.domain.u0.value(rep.points))
        assert len(evaluated) == np.count_nonzero(candidates) < rep.n_grid
        live = b.field().from_tube(bar.tube_eval(b.sigma, rep.points))[0]
        assert rep.n_tube > 0
        assert {tuple(q) for q in rep.points[live]} <= reached

    # the bundles' own m is 2; m = 1 and 3 read the other two sums of the
    # margin's min/max network, against the oracle's sort
    @pytest.mark.parametrize("name, m", [
        *(pytest.param(name, None, id=name)
          for name in ["ball_bundle", "scaled_ball_bundle", "halfspace_bundle",
                       "cylinder_bundle", "ellipsoid_bundle"]),
        *(pytest.param(name, m, id=f"{name}-m{m}")
          for name in ["ball_bundle", "cylinder_bundle"] for m in (1, 3)),
    ])
    def test_live_margins_match_closed_form(self, name, m, request):
        b = request.getfixturevalue(name)
        if m is not None:
            b = dataclasses.replace(b, m=m)
        rep = bar.verify_barrier(b, grid_resolution=30, keep_margins=True)
        live, oracle, scale = _closed_form_margins(b, rep.points)
        assert np.count_nonzero(live) == rep.n_tube > 0
        assert np.all(np.abs(rep.margins[live] - oracle[live]) <= 1e-12 * scale[live])
        assert np.all(rep.margins[~live] == 0.0)

    def test_ellipsoid_grid60_live_margins(self, ellipsoid_bundle):
        """phi underflows to subnormal values at grid 60; the margin, computed
        without dividing by phi, stays clearly negative at every live point."""
        b = ellipsoid_bundle
        rep = bar.verify_barrier(b, grid_resolution=60, threads=2, keep_margins=True)
        live, oracle, scale = _closed_form_margins(b, rep.points)
        assert rep.passed
        assert np.count_nonzero(live) == rep.n_tube > 0
        assert np.max(rep.margins[live]) <= -0.01
        assert np.all(np.abs(rep.margins[live] - oracle[live]) <= 1e-12 * scale[live])

    def test_thread_count_invariance(self, ball_bundle, monkeypatch):
        """The same report, byte for byte, at every thread count and chunk
        size, with the points of the whole grid in N in grid order."""
        b = ball_bundle
        default = bar.GRID_CHUNK
        for chunk, grid in [(default, 40), (7, 12)]:
            monkeypatch.setattr(bar, "GRID_CHUNK", default)
            ref = bar.verify_barrier(b, grid_resolution=grid, keep_margins=True)
            pts = chart_grid(b.chart, grid)
            assert ref.points.tobytes() == pts[b.domain.contains(pts)].tobytes()
            assert ref.n_tube > 0
            monkeypatch.setattr(bar, "GRID_CHUNK", chunk)
            assert len(pts) % chunk != 0 and len(pts) > chunk
            for threads in (1, 2, 3):
                rep = bar.verify_barrier(b, grid_resolution=grid, threads=threads,
                                         keep_margins=True)
                assert rep.to_dict() == ref.to_dict()
                assert rep.margins.tobytes() == ref.margins.tobytes()
                assert rep.points.tobytes() == ref.points.tobytes()

    def test_chart_outside_N_is_an_empty_grid(self, ball_bundle):
        b = dataclasses.replace(ball_bundle, chart=np.array([[2.0, 3.0]] * 3))
        with pytest.raises(geo.GeometryError, match="verification grid is empty"):
            bar.verify_barrier(b, grid_resolution=10)

    def test_chart_past_the_domain_chart_keeps_the_points_of_N(self, halfspace_bundle):
        """A chart made by hand to reach past the domain's chart: the grid
        points are those of N, in grid order, and N ends at the domain's
        chart even where u0 >= 0 goes on past it."""
        b = dataclasses.replace(halfspace_bundle, chart=1.5 * halfspace_bundle.domain.chart)
        rep = bar.verify_barrier(b, grid_resolution=15, keep_margins=True)
        pts = chart_grid(b.chart, 15)
        assert np.any(~b.domain.in_chart(pts) & (b.domain.u0.value(pts) >= 0.0))
        assert rep.points.tobytes() == pts[b.domain.contains(pts)].tobytes()
        assert rep.n_tube > 0

    def test_margins_csv_holds_the_kept_points_and_margins(self, ball_bundle, tmp_path,
                                                           monkeypatch):
        """The CSV, written chunk by chunk from two threads, has one row per
        point of the report, in grid order, each number its float's repr."""
        ref = bar.verify_barrier(ball_bundle, grid_resolution=12, keep_margins=True)
        monkeypatch.setattr(bar, "GRID_CHUNK", 7)
        path = tmp_path / "margins.csv"
        rep = bar.verify_barrier(ball_bundle, grid_resolution=12, threads=2, margins_csv=path)
        assert rep.to_dict() == ref.to_dict() and rep.margins is None
        header, *rows = path.read_text().splitlines()
        assert header == "x1,x2,x3,margin"
        assert rows == [",".join(repr(float(v)) for v in (*pt, mg))
                        for pt, mg in zip(ref.points, ref.margins)]

    @pytest.mark.parametrize("chunk", [None, 7])
    def test_nan_margin_is_the_worst_and_fails(self, ball_bundle, monkeypatch, chunk):
        """A NaN margin at one live point, after larger finite margins in
        grid order, is reported as the worst and fails the certificate."""
        b = ball_bundle
        rep = bar.verify_barrier(b, grid_resolution=12, keep_margins=True)
        live = np.flatnonzero(rep.margins != 0.0)
        target = rep.points[live[len(live) // 2]]
        assert np.any(rep.margins[:live[len(live) // 2]] > np.max(rep.margins[live]))
        tube_eval = bar.tube_eval

        def poisoned(sigma, x):
            data = tube_eval(sigma, x)
            data.curvatures[np.all(x == target, axis=-1)] = np.nan
            return data

        monkeypatch.setattr(bar, "tube_eval", poisoned)
        if chunk is not None:
            monkeypatch.setattr(bar, "GRID_CHUNK", chunk)
        bad = bar.verify_barrier(b, grid_resolution=12, threads=2)
        assert not bad.passed
        assert np.isnan(bad.worst_margin)
        assert bad.worst_point == target.tolist()
        assert (bad.n_grid, bad.n_tube) == (rep.n_grid, rep.n_tube)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_tasks_in_flight_are_bounded(self, ball_bundle, monkeypatch, threads):
        """At most 2 * threads tasks are handed to the executor and not yet
        read back, however many chunks the grid has."""
        in_flight, most = 0, []

        class Recording(bar.ThreadPoolExecutor):
            def submit(self, fn, *args):
                nonlocal in_flight
                future = super().submit(fn, *args)
                result = future.result

                def read(timeout=None):
                    nonlocal in_flight
                    in_flight -= 1
                    return result(timeout)

                future.result = read
                in_flight += 1
                most.append(in_flight)
                return future

        ref = bar.verify_barrier(ball_bundle, grid_resolution=12)
        monkeypatch.setattr(bar, "GRID_CHUNK", 12)
        monkeypatch.setattr(bar, "ThreadPoolExecutor", Recording)
        rep = bar.verify_barrier(ball_bundle, grid_resolution=12, threads=threads)
        assert rep.to_dict() == ref.to_dict()
        assert len(most) == 144 and in_flight == 0
        assert max(most) == 2 * threads

    def test_peak_memory_does_not_grow_with_the_grid(self, ball_bundle):
        def peak(grid):
            tracemalloc.start()
            try:
                bar.verify_barrier(ball_bundle, grid_resolution=grid)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(120) <= 1.5 * peak(60)

    def test_margins_csv_rows_are_not_held(self, ball_bundle, tmp_path, monkeypatch):
        """The rows go to the file as their chunk arrives: at most a quarter
        of the file's bytes are held at once (traced; about an eighth is
        read), where keeping each row's point and margin would take 32 of
        its 70 bytes.  A chunk's rows are 1/50 of the file here, so a few
        chunks that wait for the writer do not reach the bound."""
        monkeypatch.setattr(bar, "GRID_CHUNK", 1024)
        path = tmp_path / "margins.csv"
        tracemalloc.start()
        try:
            bar.verify_barrier(ball_bundle, grid_resolution=50, margins_csv=path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= path.stat().st_size / 4

    def test_grid_100_peak_memory(self, ball_bundle):
        """A grid-100 verification at one thread holds at most 4.8 MB at
        once (traced): one chunk of whole rows and its tube evaluation."""
        tracemalloc.start()
        try:
            bar.verify_barrier(ball_bundle, grid_resolution=100)
            assert tracemalloc.get_traced_memory()[1] <= 4.8e6
        finally:
            tracemalloc.stop()


@pytest.mark.parametrize("layer", ["project", "tube_eval"])
def test_peak_memory_per_point(ball_bundle, layer):
    """At most 450 B per point held at once (traced) by the projection and
    by the tube evaluation around it, on 8000 points of the bundle's chart:
    a Newton step keeps only y, lambda and x across w's jet, and the
    curvature kernel drops its adjugate and B once it has used them."""
    b = ball_bundle
    pts = chart_grid(b.chart, 20)
    run = {"project": lambda: b.sigma.project(pts),
           "tube_eval": lambda: bar.tube_eval(b.sigma, pts)}[layer]
    assert np.all(b.sigma.project(pts).ok)
    tracemalloc.start()
    try:
        run()
        assert tracemalloc.get_traced_memory()[1] <= 450 * len(pts)
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def halfspace_bundle():
    return bar.build_barrier(geo.domain_halfspace(), np.zeros(3), m=2, eta=0.1,
                             enforce_hypothesis=False)


@pytest.fixture(scope="module")
def cylinder_bundle():
    return bar.build_barrier(geo.domain_cylinder(1.0), np.array([1.0, 0.0, 0.0]), m=2)


@pytest.fixture(scope="module")
def expr_ball_bundle(north_pole):
    """The unit ball written as an expression."""
    dom = geo.domain_levelset("1 - sqrt(x1^2 + x2^2 + x3^2)", [[-2.0, 2.0]] * 3)
    return bar.build_barrier(dom, north_pole, m=2)


@pytest.fixture(scope="module")
def torus_bundle():
    """The torus of tube radius 1 about the circle of radius 3, at its inner
    equator, where it is 2-convex but not convex."""
    dom = geo.domain_levelset("1 - (sqrt(x1^2 + x2^2) - 3)^2 - x3^2", [[-4.5, 4.5]] * 3)
    return bar.build_barrier(dom, np.array([2.0, 0.0, 0.0]), m=2)


class TestTubeExclusion:
    """Points whose eps/c-ball Sigma provably misses skip the tube."""

    @pytest.mark.parametrize("name", ["ball_bundle", "scaled_ball_bundle", "halfspace_bundle",
                                      "cylinder_bundle", "theorem5_bundle", "ellipsoid_bundle",
                                      "expr_ball_bundle", "torus_bundle"])
    def test_dropped_points_are_not_live(self, name, request, theorem5_cap):
        b = request.getfixturevalue(name)
        pts = chart_grid(b.chart, 30)
        # the cap sits on the torus's axis, where its partials have no bound
        if name != "torus_bundle":
            pts = np.concatenate([pts, vf.varifold_from_mesh(theorem5_cap).points])
        X = b.field()
        live, phi, value, S = X.from_tube(bar.tube_eval(b.sigma, pts))
        dropped = b.sigma.misses(pts, b.domain.u0.value(pts), b.epsilon / b.sigma.c)
        assert np.any(live) and np.any(dropped)
        assert not np.any(live & dropped)
        got_value, got_J = X.evaluate(pts)
        assert np.array_equal(got_value, value)
        assert np.array_equal(got_J, phi[..., None, None] * S)

    def test_expression_screen_drops_points_and_changes_no_value(self, ellipsoid_bundle,
                                                                 monkeypatch):
        b = ellipsoid_bundle
        pts = chart_grid(b.chart, 20)
        dropped = b.sigma.misses(pts, b.domain.u0.value(pts), b.epsilon / b.sigma.c)
        assert 0 < np.count_nonzero(dropped) < len(pts)
        seen = []
        tube_eval = bar.tube_eval

        def counting(sigma, x):
            seen.append(len(x))
            return tube_eval(sigma, x)

        monkeypatch.setattr(bar, "tube_eval", counting)
        value, J = b.field().evaluate(pts)
        # without the screen: u0 with no Lipschitz bound
        monkeypatch.setattr(b.domain.u0, "lipschitz", lambda lo, hi: None)
        ref_value, ref_J = b.field().evaluate(pts)
        assert seen == [len(pts) - np.count_nonzero(dropped), len(pts)]
        assert np.array_equal(value, ref_value) and np.array_equal(J, ref_J)

    def test_bound_is_read_on_the_widened_box(self, ellipsoid_bundle, monkeypatch):
        """One bound per call, on a box that holds the radius-ball of every point."""
        b = ellipsoid_bundle
        pts = chart_grid(b.chart, 9)
        radius = b.epsilon / b.sigma.c
        boxes = []
        lipschitz = b.domain.u0.lipschitz

        def recording(lo, hi):
            boxes.append((lo, hi))
            return lipschitz(lo, hi)

        monkeypatch.setattr(b.domain.u0, "lipschitz", recording)
        b.sigma.misses(pts, b.domain.u0.value(pts), radius)
        [(lo, hi)] = boxes
        assert np.all(lo <= pts.min(axis=0) - radius) and np.all(hi >= pts.max(axis=0) + radius)
        np.testing.assert_allclose(lo, pts.min(axis=0) - radius, rtol=0, atol=1e-15)
        np.testing.assert_allclose(hi, pts.max(axis=0) + radius, rtol=0, atol=1e-15)

    def test_no_gradient_enclosure_drops_nothing(self, expr_ball_bundle, ball_bundle):
        """On a box that holds the origin, the expression ball's partials
        divide by sqrt(x1^2 + x2^2 + x3^2), whose enclosure holds 0: no bound,
        and no point dropped, though the same points are dropped on ball:1."""
        b = expr_ball_bundle
        pts = chart_grid(np.array([[-1.2, 1.2]] * 3), 12)
        radius = b.epsilon / b.sigma.c
        assert b.domain.u0.lipschitz(pts.min(axis=0) - radius, pts.max(axis=0) + radius) is None
        assert not np.any(b.sigma.misses(pts, b.domain.u0.value(pts), radius))
        assert np.any(ball_bundle.sigma.misses(pts, ball_bundle.domain.u0.value(pts), radius))
    def test_single_point(self, ball_bundle):
        b = ball_bundle
        X = b.field()
        for q in (b.p, np.array([0.0, 0.0, 0.5])):
            value, J = X.evaluate(q)
            ref_value, ref_J = X.evaluate(q[None, :])
            assert value.shape == (3,) and J.shape == (3, 3)
            assert np.array_equal(value, ref_value[0]) and np.array_equal(J, ref_J[0])


def test_tube_guard_refuses_points_near_the_focal_point(ball_bundle):
    """On ball:1 the points (0, 0, 0.02) and (0, 0, 0.04) project to p, where
    kappa = (1, 1), with u = 0.98 and 0.96: 1 - u kappa is 0.02 and 0.04,
    below the guard 0.05, so they are not valid.  (0, 0, 0.06) clears it."""
    b = ball_bundle
    data = bar.tube_eval(b.sigma, np.array([[0.0, 0.0, 0.02], [0.0, 0.0, 0.04],
                                            [0.0, 0.0, 0.06]]))
    np.testing.assert_allclose(data.foot, np.tile(b.p, (3, 1)), rtol=0, atol=1e-9)
    np.testing.assert_allclose(data.u, [0.98, 0.96, 0.94], rtol=0, atol=1e-9)
    np.testing.assert_allclose(data.foot_shape.kappa, 1.0, rtol=0, atol=1e-9)
    assert data.valid.tolist() == [False, False, True]


def test_verify_barrier_builds_no_normal_and_no_hess_u(ball_bundle, tube_points, monkeypatch):
    """The grid margin reads u and the curvatures alone; the normal and
    Hess u are built only where X's Jacobian is asked for."""
    built = []
    for name in ("nu", "hess_u"):
        fget = getattr(bar.TubeData, name).fget

        def counting(data, fget=fget, name=name):
            built.append(name)
            return fget(data)

        monkeypatch.setattr(bar.TubeData, name, property(counting))
    rep = bar.verify_barrier(ball_bundle, grid_resolution=30, threads=2)
    assert rep.n_tube > 0 and built == []
    ball_bundle.field().evaluate(tube_points)
    assert sorted(built) == ["hess_u", "nu"]


def test_u0_is_evaluated_once_per_grid_point(ellipsoid_bundle, monkeypatch):
    """The chunk's u0 values decide N and feed the screen: the 60^3 chart
    points of the grid-60 ellipsoid are seen once, the in-N ones not again."""
    b = ellipsoid_bundle
    seen = []
    value = b.domain.u0.value

    def counting(x):
        seen.append(len(x))
        return value(x)

    monkeypatch.setattr(b.domain.u0, "value", counting)
    rep = bar.verify_barrier(b, grid_resolution=60, threads=2)
    assert rep.passed and 0 < rep.n_grid < 60 ** 3
    assert sum(seen) == 60 ** 3


def _reference_evaluate(b, x):
    """X and its Jacobian built as full 3 x 3 stacks: Sigma's shape from
    w.gradient and w.hessian at the feet (w's jet at p where there is no
    foot), nu_e, P = I - nu_e nu_e^T, B_t and Hess u =
    -c (B_t - u_e sigma_2 P) / ((1 - u_e kappa_1)(1 - u_e kappa_2)) at every
    point that reaches the tube, then S and phi S."""
    X, sigma, c = b.field(), b.sigma, b.sigma.c
    value, J = np.zeros_like(x), np.zeros(x.shape + (3,))
    cand = X.reaches_tube(x, b.domain.u0.value(x))
    q = x[cand]
    proj = sigma.project(q)
    feet = np.where(proj.ok[:, None], proj.foot, sigma.p)
    shp = bar.sigma_shape(geo.unstack(sigma.w.gradient(feet)),
                          geo.sym_entries(sigma.w.hessian(feet)))
    u_e = np.where(proj.w_x >= 0.0, 1.0, -1.0) * np.linalg.norm(q - proj.foot, axis=-1)
    denom = 1.0 - u_e[:, None] * shp.kappa
    valid = proj.ok & np.all(denom > 0.05, axis=-1)
    denom = np.where(denom > 0.05, denom, 1.0)
    nu_e = np.stack(shp.nu, axis=-1)
    P = np.eye(3) - nu_e[:, :, None] * nu_e[:, None, :]
    hess_u_e = -(geo.symmetric_matrix(shp.Bt) - (u_e * shp.sigma2)[:, None, None] * P) / (
        denom[:, 0] * denom[:, 1])[:, None, None]
    u, nu, hess_u = c * u_e, nu_e / c, c * hess_u_e
    tube = valid & (u >= 0.0) & (u < b.epsilon)
    phi = np.where(tube, bar.cutoff(np.where(tube, u, 0.0), b.epsilon), 0.0)
    live = tube & (phi > 0.0)
    nu_c = nu * c
    S = ((-(np.where(live, u, 0.0) - b.epsilon) ** -2)[:, None, None]
         * (nu_c[:, :, None] * nu_c[:, None, :]) + hess_u / c**2)
    value[cand] = np.where(live[:, None], phi[:, None] * nu, 0.0)
    J[cand] = phi[:, None, None] * np.where(live[:, None, None], S, 0.0)
    return value, J


@pytest.mark.parametrize("name", ["ball_bundle", "scaled_ball_bundle", "ellipsoid_bundle",
                                  "family2_bundle"])
def test_evaluate_equals_the_full_matrix_reference(name, request):
    """X.evaluate, which builds nu and Hess u from the jet's components, is
    bit-equal to the reference that builds them as full matrices."""
    b = request.getfixturevalue(name)
    x = np.concatenate([chart_grid(b.chart, 16), b.p + 0.3 * (chart_grid(b.chart, 6) - b.p)])
    value, J = b.field().evaluate(x)
    ref_value, ref_J = _reference_evaluate(b, x)
    assert np.count_nonzero(np.any(value != 0.0, axis=-1)) > 100
    assert np.array_equal(value, ref_value) and np.array_equal(J, ref_J)


@pytest.fixture(scope="module")
def family2_bundle(north_pole):
    """theorem3's family metric i = 2, 1.25 times euclidean: c = sqrt(1.25)
    is not a power of 2, so dividing by c and multiplying back rounds."""
    return bar.build_barrier(_family_domain(2), north_pole, m=2)


# --------------------------------------------------------------------------
# the shrink loop's chart lattice


def _lattice(chart, p):
    """The points ``tube_curvatures`` projects: the TUBE_LATTICE^3 cell
    centres of the chart, its 8 corners and p."""
    n = bar.TUBE_LATTICE
    c = (np.arange(n) + 0.5) / n
    cells = np.stack(np.meshgrid(c, c, c, indexing="ij"), axis=-1).reshape(-1, 3)
    corners = np.array(list(itertools.product(*chart)))
    return np.concatenate([chart[:, 0] + (chart[:, 1] - chart[:, 0]) * cells, corners, p[None]])


def _lattice_kappa(sigma, chart):
    """Reference: Sigma's curvatures (metric units) at the feet of the whole
    lattice, projected in one batch (no early stop)."""
    foot, ok = sigma.project(_lattice(chart, sigma.p))[:2]
    if not np.any(ok):
        raise bar.TubeError("no Sigma feet found inside the chart")
    foot = foot[ok]
    return _shape_at(sigma.w, foot).kappa / sigma.c


def _shape_at(w, foot):
    """``sigma_shape`` from w's gradient and Hessian arrays at the feet."""
    return bar.sigma_shape(geo.unstack(w.gradient(foot)), geo.sym_entries(w.hessian(foot)))


def _segment_end(sigma, chart):
    """T: half the metric distance from p to the chart faces."""
    p = sigma.p
    return 0.5 * sigma.c * float(np.min(np.minimum(p - chart[:, 0], chart[:, 1] - p)))


def _shrinking_charts(domain, p):
    """The 18 charts of build_barrier's shrink loop, largest first."""
    dlo, dhi = domain.chart[:, 0], domain.chart[:, 1]
    w = 0.5 * float(np.min(np.maximum(np.minimum(p - dlo, dhi - p), 0.25 * (dhi - dlo))))
    for _ in range(18):
        yield np.stack([np.maximum(p - w, dlo), np.minimum(p + w, dhi)], axis=-1)
        w *= 0.7


def _one_batch_bundle(domain, p, m, h):
    """``(K, epsilon, tube_ksum_min, chart)`` of build_barrier's shrink loop
    (eta at its default, no hypothesis gate) run on the one-batch lattice."""
    kappa_sum, _, _ = geo.m_convexity(domain, p, m)
    eta = 0.5 * (h + kappa_sum)
    sigma = bar.SigmaSurface(domain, p)
    goal = eta + 0.02 * max(kappa_sum - eta, 0.0)
    for chart in _shrinking_charts(domain, p):
        kappa = _lattice_kappa(sigma, chart)
        ksum_min = float(np.min(np.sum(kappa[..., :m], axis=-1)))
        if not kappa_sum > eta or ksum_min > goal:
            break
    else:
        raise bar.TubeError("tube radius collapsed")
    T = _segment_end(sigma, chart)
    denom = 1.0 - T * kappa
    if np.any(denom <= 0.0):
        raise bar.TubeError("focal point")
    k_end = kappa / denom
    K = 1.25 * max(float(np.max(np.abs(kappa))), float(np.max(np.abs(k_end))))
    return K, min(K ** -0.5, T), ksum_min, chart


def _assert_same_bundle(domain, p, m, h):
    b = bar.build_barrier(domain, p, m, h=h, enforce_hypothesis=False)
    expect = _one_batch_bundle(domain, p, m, h)
    for got, want in zip((b.K, b.epsilon, b.tube_ksum_min, b.chart), expect):
        assert np.array_equal(got, want)
    return expect


_SAMPLE_DOMAINS = {
    "ball": (geo.domain_ball(1.0), (0.0, 0.0, 1.0)),
    "conformal_ball": (geo.domain_ball(1.0, metric=geo.metric_conformal("0 - log(2)")),
                       (0.0, 0.0, 1.0)),
    "ellipsoid": (geo.domain_levelset("1 - x1^2/4 - x2^2/4 - x3^2", [[-2.0, 2.0]] * 3),
                  (0.0, 0.0, 1.0)),
    "halfspace": (geo.domain_halfspace(), (0.0, 0.0, 0.0)),
    "cylinder": (geo.domain_cylinder(1.0), (1.0, 0.0, 0.0)),
}


def _family_domain(i):
    ball = geo.domain_ball(1.0)
    return geo.Domain(hz.metric_family(i), ball.u0, ball.chart)


def _split_projections(monkeypatch, head, probe):
    """Make every ``SigmaSurface.project`` call project its points in pieces:
    the first call (the probe of the charts' heads) in runs of ``probe``
    charts' heads, and each run, like every later call, with its first
    ``head`` points apart from the rest."""
    project = bar.SigmaSurface.project
    calls = []

    def cat(fields):
        if isinstance(fields[0], tuple):
            return tuple(np.concatenate(c) for c in zip(*fields))
        return np.concatenate(fields)

    def split(sigma, x):
        x = np.asarray(x, dtype=float)
        run = probe * (2 ** x.shape[-1] + 1) if not calls else len(x)
        calls.append(len(x))
        pieces = []
        for start in range(0, len(x), run):
            pieces += [x[start:start + run][:head], x[start:start + run][head:]]
        parts = [project(sigma, piece) for piece in pieces if len(piece)]
        return bar.Projection(*(cat(f) for f in zip(*parts)))

    monkeypatch.setattr(bar.SigmaSurface, "project", split)


# (log2 head, charts per probe run): each head size with the probe in runs of
# 4 charts, then in runs of one chart and of all 18 charts of the shrink loop
_SPLITS = ([pytest.param(c, 4, id=str(c)) for c in (0, 1, 7)]
           + [pytest.param(c, probe, id=f"{c}-probe{probe}") for probe in (1, 18)
              for c in (0, 1, 7)])


class TestTubeSample:
    """A rejected chart stops at its head (its corners and p) or after its
    whole lattice; every bundle stays bitwise the one the one-batch lattice
    gives, and its K and ``tube_ksum_min`` hold on every normal segment of
    the kept chart."""

    @pytest.mark.parametrize("chunk_log2, probe", _SPLITS)
    @pytest.mark.parametrize("h", [0.0, 1.0])
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("name", list(_SAMPLE_DOMAINS))
    def test_bundle_matches_one_batch_sample(self, name, m, h, chunk_log2, probe, monkeypatch):
        # each foot depends on its own point alone, so the bundle must not
        # depend on how the projections are split into Newton batches: heads
        # of 1, 2 and 128 points, and probes in runs of one, 4 or 18 charts
        dom, p = _SAMPLE_DOMAINS[name]
        p = np.array(p)
        expect = _one_batch_bundle(dom, p, m, h)
        _split_projections(monkeypatch, 2 ** chunk_log2, probe)
        b = bar.build_barrier(dom, p, m, h=h, enforce_hypothesis=False)
        for got, want in zip((b.K, b.epsilon, b.tube_ksum_min, b.chart), expect):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("h", [0.0, 1.0])
    @pytest.mark.parametrize("i", range(11))
    def test_family_bundle_matches_one_batch_sample(self, i, h):
        _assert_same_bundle(_family_domain(i), np.array([0.0, 0.0, 1.0]), 2, h)

    def test_ksum_min_is_the_least_foot_sum(self):
        """theorem3's i = 2: the sum is taken at the feet, where it is least
        on each normal segment, and every foot clears the shrink loop's goal."""
        b = bar.build_barrier(_family_domain(2), np.array([0.0, 0.0, 1.0]), 2, h=0.0)
        kappa = _lattice_kappa(b.sigma, b.chart)
        assert b.tube_ksum_min == float(np.min(np.sum(kappa[:, :2], axis=-1)))
        assert b.tube_ksum_min > b.eta + 0.02 * (b.kappa_sum_p - b.eta)

    @pytest.mark.parametrize("name", ["ball", "conformal_ball", "ellipsoid", "family_2"])
    def test_K_bounds_every_normal_segment(self, name):
        """1.25 |kappa / (1 - t kappa)| <= K for t in [0, T] at every foot;
        T bounds epsilon, so the segments cover the tube."""
        cases = dict(_SAMPLE_DOMAINS, family_2=(_family_domain(2), (0.0, 0.0, 1.0)))
        dom, p = cases[name]
        b = bar.build_barrier(dom, np.array(p), 2)
        kappa = _lattice_kappa(b.sigma, b.chart)
        T = _segment_end(b.sigma, b.chart)
        assert b.epsilon <= T
        t = np.linspace(0.0, T, 401)[:, None, None]
        denom = 1.0 - t * kappa
        assert np.all(denom > 0.1)
        assert np.max(1.25 * np.abs(kappa / denom)) <= b.K * (1 + 1e-12)

    def test_build_draws_no_random_numbers(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("build_barrier drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        p = np.array([0.0, 0.0, 1.0])
        bar.build_barrier(geo.domain_ball(1.0), p, 2)
        bar.build_barrier(_family_domain(2), p, 2)

    def test_nan_sum_shrinks_the_chart(self, monkeypatch):
        """A NaN curvature sum rejects its chart: it does not clear the goal."""
        dom, p = _SAMPLE_DOMAINS["ball"]
        p = np.array(p)
        sigma_shape = bar.sigma_shape

        def nan_far_from_p(g, h):
            shp = sigma_shape(g, h)
            # Sigma's normal at p is -e3; it tilts by about the distance from p
            far = np.hypot(g[0], g[1]) > 0.12 * np.linalg.norm(np.stack(g, axis=-1), axis=-1)
            return dataclasses.replace(shp, kappa=np.where(far[:, None], np.nan, shp.kappa))

        monkeypatch.setattr(bar, "sigma_shape", nan_far_from_p)
        _, _, ksum_min, chart = _assert_same_bundle(dom, p, 2, 0.0)
        assert np.isfinite(ksum_min) and np.all(chart[:, 1] - chart[:, 0] < 0.24)

    @staticmethod
    def _count_projections(monkeypatch):
        seen = []
        project = bar.SigmaSurface.project

        def counting(sigma, x, **kw):
            seen.append(len(x))
            return project(sigma, x, **kw)

        monkeypatch.setattr(bar.SigmaSurface, "project", counting)
        return seen

    def test_rejected_charts_project_a_prefix(self, ball_domain, north_pole, monkeypatch):
        chart = _one_batch_bundle(ball_domain, north_pole, 2, 0.0)[3]
        seen = self._count_projections(monkeypatch)
        b = bar.build_barrier(ball_domain, north_pole, m=2)
        # the fourth of the 18 charts is kept: one probe of the 18 heads, then
        # the kept chart's cells; the three charts before it project only
        # their heads, where the one-batch lattice projects 4 x 1737 points
        assert np.array_equal(b.chart, chart)
        assert seen == [18 * (2 ** 3 + 1), bar.TUBE_LATTICE ** 3]

    @pytest.mark.parametrize("domain, p, h", (
        [pytest.param(dom, p, 0.0, id=name) for name, (dom, p) in _SAMPLE_DOMAINS.items()]
        + [pytest.param(_family_domain(i), (0.0, 0.0, 1.0), h, id=f"family_{i}-{h}")
           for i in range(11) for h in (0.0, 1.0)]))
    def test_build_makes_two_projections(self, domain, p, h, monkeypatch):
        """One probe of every chart's corners and p, then the cells of the
        kept chart: every chart rejected before it is rejected at its head."""
        seen = self._count_projections(monkeypatch)
        b = bar.build_barrier(domain, np.array(p), m=2, h=h, enforce_hypothesis=False)
        # a build with no slack to shrink for (the halfspace) has one chart
        charts = 18 if b.kappa_sum_p > b.eta else 1
        assert seen == [charts * (2 ** 3 + 1), bar.TUBE_LATTICE ** 3]

    def test_unshrinkable_build_projects_one_lattice(self, monkeypatch):
        """The halfspace control has no slack to shrink for: its first chart
        is kept, and only its lattice is projected."""
        seen = self._count_projections(monkeypatch)
        bar.build_barrier(geo.domain_halfspace(), np.zeros(3), m=2, enforce_hypothesis=False)
        assert sum(seen) == bar.TUBE_LATTICE ** 3 + 2 ** 3 + 1

    @pytest.mark.parametrize("R", [0.3, 1.0, 7.0])
    @pytest.mark.parametrize("shape", ["ball", "cylinder"])
    def test_heads_stay_off_the_distance_centre_set(self, shape, R):
        """``DistanceField.jet`` raises for a whole batch on its centre set
        (the ball's centre, the cylinder's axis), but no chart head comes
        within 0.1 R of it, so ``tube_curvatures`` probes every head in one
        call and has no per-chart retry.  The boundary points are a
        300-point Fibonacci lattice on the sphere and a 20 x 15 lattice in
        theta and x3 on the cylinder."""
        if shape == "ball":
            dom = geo.domain_ball(R)
            i = np.arange(300) + 0.5
            x3 = 1.0 - 2.0 * i / 300
            theta = np.pi * (3.0 - np.sqrt(5.0)) * i
            r = np.sqrt(1.0 - x3 * x3)
            boundary = R * np.stack([r * np.cos(theta), r * np.sin(theta), x3], axis=-1)
        else:
            dom = geo.domain_cylinder(R)
            theta, x3 = np.meshgrid(2.0 * np.pi * (np.arange(20) + 0.5) / 20,
                                    4.0 * (np.arange(15) + 0.5) / 15 - 2.0, indexing="ij")
            boundary = np.stack([R * np.cos(theta), R * np.sin(theta), x3],
                                axis=-1).reshape(-1, 3)
        for p in boundary:
            heads = bar._heads(p, np.stack(list(_shrinking_charts(dom, p))))
            # u0 = R - the distance to the centre set
            assert np.min(R - dom.u0.value(heads)) >= 0.1 * R

    def test_epsilon_is_K_to_the_minus_half_below_T(self):
        """epsilon = min(K^{-1/2}, T): on the torus at m = 1 K^{-1/2} < T,
        and epsilon is K^{-1/2}, so epsilon^{-2} >= K holds."""
        dom = geo.domain_levelset("1 - (sqrt(x1^2 + x2^2) - 3)^2 - x3^2", [[-4.5, 4.5]] * 3)
        b = bar.build_barrier(dom, np.array([2.0, 0.0, 0.0]), 1, enforce_hypothesis=False)
        assert b.K ** -0.5 < _segment_end(b.sigma, b.chart)
        assert b.epsilon == b.K ** -0.5

    @pytest.mark.parametrize("kappa, K",
                             [(1.0, 1.25 * (1.0 / 0.8125)), (5.0, 100.0), (10.0, None)])
    def test_K_bounds_every_segment_or_the_build_is_refused(self, ball_domain, north_pole,
                                                            monkeypatch, kappa, K):
        """On ball:1's first chart T = 0.1875.  K is 1.25 max |kappa / (1 -
        T kappa)| while 1 - T kappa > 0 (0.8125 and 0.0625 here); at kappa =
        10 it is -0.875, the segment reaches a focal point, and the build is
        refused where a clip of 1 - T kappa at 0.1 gave K = 125."""
        def curvatures(sigma, charts, clears):
            assert _segment_end(sigma, charts[0]) == 0.1875
            return 0, np.full((1, 2), kappa)

        monkeypatch.setattr(bar, "tube_curvatures", curvatures)
        if K is None:
            with pytest.raises(bar.TubeError, match="focal point"):
                bar.build_barrier(ball_domain, north_pole, m=2)
        else:
            assert bar.build_barrier(ball_domain, north_pole, m=2).K == K

    def test_no_feet_raised_after_the_whole_sample(self, ball_domain, north_pole,
                                                   monkeypatch):
        seen = []

        def no_feet(sigma, x, **kw):
            seen.append(len(x))
            x = np.asarray(x, dtype=float)
            k = len(x)
            return bar.Projection(x, np.zeros(k, dtype=bool), np.zeros(k),
                                  tuple(np.zeros(k) for _ in range(3)),
                                  tuple(np.zeros(k) for _ in range(6)))

        monkeypatch.setattr(bar.SigmaSurface, "project", no_feet)
        sigma = bar.SigmaSurface(ball_domain, north_pole)
        chart = np.stack([north_pole - 0.1, north_pole + 0.1], axis=-1)
        with pytest.raises(bar.TubeError, match="no Sigma feet"):
            bar.tube_curvatures(sigma, chart[None], lambda kappa: False)
        assert sum(seen) == bar.TUBE_LATTICE ** 3 + 2 ** 3 + 1


# --------------------------------------------------------------------------
# the closed-form tube kernel against the eigensolver


def _sigma_feet(sigma, rng, axis):
    """Points near p that project onto Sigma, with their feet; with ``axis``
    also points on and near the x3 axis, Sigma's axis of symmetry."""
    pts = sigma.p + 0.15 * (2.0 * rng.random((1500, 3)) - 1.0)
    if axis:
        # Sigma's symmetry axis through p, where both curvatures are equal,
        # and points within 1e-7 to 1e-2 of it, where they nearly are
        z = np.linspace(0.95, 1.05, 12)
        rho = np.geomspace(1e-7, 1e-2, 12)
        on_axis = np.stack([0.0 * z, 0.0 * z, z], axis=-1)
        near = np.stack(np.broadcast_arrays(rho[:, None], 0.3 * rho[:, None], z), axis=-1)
        pts = np.concatenate([pts, on_axis, near.reshape(-1, 3)])
    foot, ok = sigma.project(pts)[:2]
    return pts[ok], foot[ok]


class TestSigmaShape:
    """``sigma_shape`` and ``tube_eval`` against the eigensolver oracle."""

    @pytest.mark.parametrize("name", list(_SAMPLE_DOMAINS))
    def test_curvatures_match_eigh(self, name, levelset_eigh):
        dom, p = _SAMPLE_DOMAINS[name]
        sigma = bar.SigmaSurface(dom, np.array(p))
        _, foot = _sigma_feet(sigma, np.random.default_rng(2), "ball" in name)
        shp = _shape_at(sigma.w, foot)
        ref = levelset_eigh(sigma.w, foot, geo.metric_euclidean(3))
        assert np.all(np.abs(shp.kappa - ref.values) <= 1e-12 * (1.0 + np.abs(ref.values)))
        np.testing.assert_allclose(np.stack(shp.nu, axis=-1), ref.normal, rtol=0, atol=1e-15)
        np.testing.assert_allclose(shp.sigma2, np.prod(ref.values, axis=-1), rtol=0,
                                   atol=1e-12 * (1.0 + np.max(np.abs(ref.values)) ** 2))

    @pytest.mark.parametrize("name", list(_SAMPLE_DOMAINS))
    def test_tube_curvatures_and_hessian_match_eigh(self, name, levelset_eigh):
        dom, p = _SAMPLE_DOMAINS[name]
        sigma = bar.SigmaSurface(dom, np.array(p))
        c = sigma.c
        pts, _ = _sigma_feet(sigma, np.random.default_rng(3), "ball" in name)
        data = bar.tube_eval(sigma, pts)
        v = data.valid
        assert np.count_nonzero(v) > 0.9 * len(pts)
        ref = levelset_eigh(sigma.w, data.foot[v], geo.metric_euclidean(3))
        k_e = ref.values / (1.0 - (data.u[v] / c)[:, None] * ref.values)
        k = k_e / c
        assert np.all(np.abs(data.curvatures[v] - k) <= 1e-12 * (1.0 + np.abs(k)))
        # Hess u = -c sum_i k_i e_i e_i^T with euclidean k_i and unit e_i
        hess = -c * np.einsum("fi,fia,fib->fab", k_e, ref.directions, ref.directions)
        scale = c * (1.0 + np.max(np.abs(k_e), axis=-1))
        err = np.max(np.abs(data.hess_u[v] - hess), axis=(-1, -2))
        assert np.all(err <= 1e-12 * scale)

    def test_refuses_a_vanishing_gradient(self):
        with pytest.raises(geo.VanishingGradientError):
            geo.sigma_shape(geo.unstack(np.zeros(3)), geo.sym_entries(np.eye(3)))

    def test_barrier_outside_r3_refused(self):
        dom = geo.domain_ball(1.0, n=2)
        with pytest.raises(geo.GeometryError):
            bar.SigmaSurface(dom, np.array([0.0, 1.0]))


_MIRRORS = [(perm, signs) for perm in ((0, 1, 2), (1, 0, 2))
            for signs in ((1, 1, 1), (-1, 1, 1), (1, -1, 1), (-1, -1, 1))]


def _mirror_images(q):
    """The 8 images of q under x1 <-> x2 and the sign flips of x1 and x2."""
    return np.array([np.asarray(s, float) * np.asarray(q)[list(perm)] for perm, s in _MIRRORS])


def _grid_indices(points, images):
    """Index of the grid point at each image (grids match up to rounding)."""
    idx = [int(np.argmin(np.max(np.abs(points - q), axis=-1))) for q in images]
    assert np.max(np.abs(points[idx] - images)) <= 1e-12
    return idx


class TestMirrorTies:
    """Mirror-symmetric grid points get bit-equal margins, so the reported
    worst point is the first of its ties in grid order, whatever the
    rounding of the margin path."""

    def test_kernel_is_mirror_equivariant(self, ball_bundle):
        b = ball_bundle
        rep = bar.verify_barrier(b, grid_resolution=30, keep_margins=True)
        foot = bar.tube_eval(b.sigma, rep.points[rep.margins != 0.0]).foot
        g, H = b.sigma.w.gradient(foot), b.sigma.w.hessian(foot)
        ref = bar.sigma_shape(geo.unstack(g), geo.sym_entries(H))
        ref_Bt = geo.symmetric_matrix(ref.Bt)
        for perm, signs in _MIRRORS:
            P, s = list(perm), np.asarray(signs, float)
            img = bar.sigma_shape(geo.unstack((g * s)[:, P]),
                                  geo.sym_entries((H * s[:, None] * s)[:, P][:, :, P]))
            assert np.array_equal(img.kappa, ref.kappa)
            assert np.array_equal(img.sigma2, ref.sigma2)
            assert np.array_equal(geo.symmetric_matrix(img.Bt),
                                  (ref_Bt * s[:, None] * s)[:, P][:, :, P])

    def test_halfspace_worst_point_is_first_of_its_ties(self, halfspace_bundle):
        rep = bar.verify_barrier(halfspace_bundle, grid_resolution=60, threads=2,
                                 keep_margins=True)
        idx = _grid_indices(rep.points, _mirror_images(rep.worst_point))
        assert len(set(idx)) == 8
        assert len(set(rep.margins[idx].tolist())) == 1
        assert rep.margins[idx[0]] == rep.worst_margin > 0.0
        assert rep.worst_point == rep.points[min(idx)].tolist()
        np.testing.assert_allclose(rep.worst_point, [-0.559, -0.186, 0.017], atol=1e-3)

    def test_ball_worst_live_orbit_is_bit_equal(self, ball_bundle):
        rep = bar.verify_barrier(ball_bundle, grid_resolution=50, threads=2,
                                 keep_margins=True)
        live = np.flatnonzero(rep.margins != 0.0)
        worst = live[np.argmax(rep.margins[live])]
        idx = _grid_indices(rep.points, _mirror_images(rep.points[worst]))
        assert len(set(idx)) >= 4
        assert len(set(rep.margins[idx].tolist())) == 1
        assert worst == min(idx)


class TestSpectrumMargins:
    """The grid margin is the top-m sum of S's known spectrum; assembling S
    and running the eigensolver gives the same margins."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("name", ["ball_bundle", "scaled_ball_bundle", "cylinder_bundle"])
    def test_margins_match_eigensum_of_S(self, name, m, request):
        b = dataclasses.replace(request.getfixturevalue(name), m=m)
        rep = bar.verify_barrier(b, grid_resolution=25, keep_margins=True)
        live, _, scale = _closed_form_margins(b, rep.points)
        assert np.count_nonzero(live) == rep.n_tube > 0
        _, _, _, S = b.field().from_tube(bar.tube_eval(b.sigma, rep.points[live]))
        oracle = (geo.top_m_eigensum(S, m) + b.eta) / (1.0 + b.K)
        assert np.all(np.abs(rep.margins[live] - oracle) <= 1e-12 * scale[live])
        assert np.all(rep.margins[~live] == 0.0)

    @pytest.mark.parametrize("m", [0, 4])
    def test_m_outside_1_to_3_refused(self, ball_bundle, m):
        with pytest.raises(ValueError):
            bar.verify_barrier(dataclasses.replace(ball_bundle, m=m), grid_resolution=5)
