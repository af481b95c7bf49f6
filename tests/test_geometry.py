"""Metric, connection, and shape-operator tests."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mconvex import exprfield as ef
from mconvex import geometry as geo

from testkit import inward_normal, metric_gradient


class TestChristoffel:
    def test_euclidean_vanishes(self):
        gam = geo.christoffel(geo.metric_euclidean(3), np.zeros(3))
        assert np.max(np.abs(gam)) == 0.0

    def test_conformal_hand_values(self):
        # g = e^{2f} delta with f = x1 in two dimensions:
        # Gamma^1_{11} = 1, Gamma^1_{22} = -1, Gamma^2_{12} = 1
        metric = geo.metric_conformal("x1", n=2)
        gam = geo.christoffel(metric, np.array([0.3, -0.2]))
        assert gam[0, 0, 0] == pytest.approx(1.0)
        assert gam[0, 1, 1] == pytest.approx(-1.0)
        assert gam[1, 0, 1] == pytest.approx(1.0)
        assert gam[1, 1, 1] == pytest.approx(0.0)

    def test_symmetry_in_lower_indices(self):
        metric = geo.metric_conformal("sin(x1)*x2")
        pts = np.random.default_rng(0).uniform(-1, 1, size=(20, 3))
        gam = geo.christoffel(metric, pts)
        np.testing.assert_allclose(gam, np.swapaxes(gam, -1, -2), atol=1e-12)

    def test_constant_conformal_vanishes(self):
        gam = geo.christoffel(geo.metric_conformal("0 - log(2)"), np.ones(3))
        assert np.max(np.abs(gam)) == 0.0


def _shell(rng, count, r_lo, r_hi):
    """Points with uniformly random directions and norms in [r_lo, r_hi]."""
    d = rng.normal(size=(count, 3))
    return rng.uniform(r_lo, r_hi, (count, 1)) * d / np.linalg.norm(d, axis=-1, keepdims=True)


def _torus_points(rng, count):
    """Points at distance 0.2 to 0.5 from the core circle of the torus below."""
    theta, psi = rng.uniform(0.0, 2.0 * np.pi, (2, count))
    s = rng.uniform(0.2, 0.5, count)
    rho = 1.0 + s * np.cos(psi)
    return np.stack([rho * np.cos(theta), rho * np.sin(theta), s * np.sin(psi)], axis=-1)


def _cylinder_points(rng, count):
    """Points at distance 0.3 to 1.2 from the x3 axis, |x3| <= 1."""
    theta = rng.uniform(0.0, 2.0 * np.pi, count)
    rho = rng.uniform(0.3, 1.2, count)
    return np.stack([rho * np.cos(theta), rho * np.sin(theta),
                     rng.uniform(-1.0, 1.0, count)], axis=-1)


# (level-set function, metric, point sampler); all but the first metric have
# no constant factor, so the Christoffel term and the two-sided whitening
# both enter the curvatures
_METRIC_CASES = {
    "ellipsoid_c_half": ("1 - x1^2/4 - x2^2 - x3^2/2", geo.metric_conformal("0 - log(2)"),
                         lambda rng, count: _shell(rng, count, 0.5, 1.2)),
    "torus_conformal_0.1x1": ("0.25 - (sqrt(x1^2 + x2^2) - 1)^2 - x3^2",
                              geo.metric_conformal("0.1*x1"), _torus_points),
    "ellipsoid_matrix": ("1 - x1^2/4 - x2^2 - x3^2/2",
                         geo.MetricField(["1+x1^2", "0.2*x2", "0.1", "2+x3",
                                          "0.3*x1*x3", "1.5"]),
                         lambda rng, count: _shell(rng, count, 0.5, 1.2)),
    "cylinder_conformal_sin": ("1 - x1^2 - x2^2", geo.metric_conformal("sin(x1)*x2"),
                               _cylinder_points),
}


class TestLevelsetShape:
    def test_unit_ball_curvatures(self, ball_domain):
        p = np.array([0.0, 0.0, 1.0])
        kappa = geo.levelset_shape(ball_domain.u0, p, ball_domain.metric)
        np.testing.assert_allclose(kappa, [1.0, 1.0], atol=1e-10)

    def test_halfspace_flat(self):
        dom = geo.domain_halfspace()
        kappa = geo.levelset_shape(dom.u0, np.array([0.2, -0.1, 0.0]), dom.metric)
        np.testing.assert_allclose(kappa, [0.0, 0.0], atol=1e-12)

    def test_cylinder_pair(self):
        dom = geo.domain_cylinder()
        kappa = geo.levelset_shape(dom.u0, np.array([1.0, 0.0, 0.3]), dom.metric)
        np.testing.assert_allclose(kappa, [0.0, 1.0], atol=1e-10)

    def test_inner_level_sets_of_ball(self, ball_domain):
        # level {u0 = 0.5} is the radius-1/2 sphere: curvatures (2, 2)
        kappa = geo.levelset_shape(ball_domain.u0, np.array([0.0, 0.5, 0.0]),
                                   ball_domain.metric)
        np.testing.assert_allclose(kappa, [2.0, 2.0], atol=1e-10)

    def test_batched_evaluation(self, ball_domain):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(50, 3))
        pts = 0.5 * pts / np.linalg.norm(pts, axis=1, keepdims=True)
        kappa = geo.levelset_shape(ball_domain.u0, pts, ball_domain.metric)
        np.testing.assert_allclose(kappa, 2.0, atol=1e-8)

    def test_conformal_scaling(self, scaled_ball_domain):
        # constant factor c = 1/2: metric curvature = euclidean / c
        p = np.array([0.0, 0.0, 1.0])
        kappa = geo.levelset_shape(scaled_ball_domain.u0, p, scaled_ball_domain.metric)
        np.testing.assert_allclose(kappa, [2.0, 2.0], atol=1e-8)

    @pytest.mark.parametrize("f", ["0", "0 - log(2)", "0.1"],
                             ids=["c_1", "c_half", "c_e0.1"])
    def test_constant_factor_rescales_euclidean(self, f):
        # under g = c^2 delta the curvatures are the euclidean ones divided by c
        metric = geo.metric_conformal(f)
        c = metric.constant_factor()
        u0 = geo.ExprScalarField("1 - x1^2/4 - x2^2 - x3^2/2", 3)
        pts = np.random.default_rng(4).uniform(-0.5, 0.5, size=(40, 3))
        kappa = geo.levelset_shape(u0, pts, metric)
        ref = geo.levelset_shape(u0, pts, geo.metric_euclidean(3))
        np.testing.assert_allclose(c * kappa, ref, rtol=0, atol=1e-12)

    def test_vanishing_gradient_raises(self):
        f = geo.ExprScalarField("x1^2 + x2^2 + x3^2", 3)
        with pytest.raises(geo.VanishingGradientError):
            geo.levelset_shape(f, np.zeros(3), geo.metric_euclidean(3))

    @pytest.mark.parametrize("n", [2, 4])
    def test_outside_r3_refused(self, n):
        dom = geo.domain_ball(1.0, n=n)
        with pytest.raises(geo.GeometryError, match="R\\^3"):
            geo.levelset_shape(dom.u0, np.eye(n)[-1], dom.metric)

    @pytest.mark.parametrize("name", list(_METRIC_CASES))
    def test_matches_eigh_oracle(self, name, levelset_eigh):
        expr, metric, points = _METRIC_CASES[name]
        f = geo.ExprScalarField(expr, 3)
        pts = points(np.random.default_rng(5), 1000)
        kappa = geo.levelset_shape(f, pts, metric)
        ref = levelset_eigh(f, pts, metric).values
        assert np.all(np.abs(kappa - ref) <= 1e-12 * (1.0 + np.abs(ref)))

    def test_conformal_change_of_spheres(self):
        # under g = e^{2 phi} delta a hypersurface with euclidean unit normal N
        # has the curvatures e^{-phi} (kappa - d_N phi); the level set of
        # 1 - |x| through x is the sphere of radius r = |x| with N = -x / r
        phi = geo.ExprScalarField("0.1*x1 + 0.2*sin(x2)*x3", 3)
        metric = geo.metric_conformal(phi.expr)
        pts = _shell(np.random.default_rng(6), 500, 0.3, 1.2)
        r = np.linalg.norm(pts, axis=-1)
        want = np.exp(-phi.value(pts)) * (1.0 + np.sum(pts * phi.gradient(pts), axis=-1)) / r
        kappa = geo.levelset_shape(geo.domain_ball(1.0).u0, pts, metric)
        assert np.all(np.abs(kappa - want[:, None]) <= 1e-12 * (1.0 + np.abs(want[:, None])))


class TestTopMEigensum:
    def test_diagonal_example(self):
        S = np.diag([3.0, 1.0, -2.0])
        assert geo.top_m_eigensum(S, 2) == pytest.approx(4.0)
        assert geo.top_m_eigensum(S, 1) == pytest.approx(3.0)
        assert geo.top_m_eigensum(S, 3) == pytest.approx(2.0)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(2)
        A = rng.normal(size=(3, 3))
        S = A + A.T
        Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        assert geo.top_m_eigensum(Q @ S @ Q.T, 2) == pytest.approx(
            geo.top_m_eigensum(S, 2))


class TestMConvexity:
    def test_ball_strong(self, ball_domain):
        s, kind, kappas = geo.m_convexity(ball_domain, np.array([0.0, 0.0, 1.0]), 2)
        assert s == pytest.approx(2.0)
        assert kind == "strongly m-convex"
        np.testing.assert_allclose(kappas, [1.0, 1.0], atol=1e-10)

    def test_halfspace_weak(self):
        dom = geo.domain_halfspace()
        s, kind, _ = geo.m_convexity(dom, np.zeros(3), 2)
        assert s == pytest.approx(0.0, abs=1e-12)
        assert kind == "m-convex"

    def test_cylinder_m1_vs_m2(self):
        dom = geo.domain_cylinder()
        p = np.array([1.0, 0.0, 0.0])
        s1, kind1, _ = geo.m_convexity(dom, p, 1)
        s2, kind2, _ = geo.m_convexity(dom, p, 2)
        assert s1 == pytest.approx(0.0, abs=1e-10)
        assert kind1 == "m-convex"
        assert s2 == pytest.approx(1.0)
        assert kind2 == "strongly m-convex"

    def test_interior_point_rejected(self, ball_domain):
        with pytest.raises(geo.BoundaryError):
            geo.m_convexity(ball_domain, np.zeros(3), 2)

    @pytest.mark.parametrize("m", [0, 3, 5])
    def test_m_outside_curvature_count_rejected(self, ball_domain, m):
        with pytest.raises(geo.GeometryError, match="m must lie in"):
            geo.m_convexity(ball_domain, np.array([0.0, 0.0, 1.0]), m)


class TestMetricOperations:
    def test_metric_gradient_conformal(self):
        # grad f = e^{-2f} * coordinate gradient
        metric = geo.metric_conformal("x1")
        f = geo.ExprScalarField("x2", 3)
        x = np.array([0.5, 0.0, 0.0])
        g = metric_gradient(f, x, metric)
        np.testing.assert_allclose(g, [0.0, np.exp(-1.0), 0.0], atol=1e-12)

    def test_euclidean_Q_is_the_jacobian(self):
        X = geo.ExprVectorField(["x2", "0 - x1", "x3^2"], 3)
        x = np.array([0.3, 0.4, 0.5])
        np.testing.assert_allclose(
            geo.bilinear_form_Q(X, x, geo.metric_euclidean(3)), X.jacobian(x))

    def test_matrix_metric_roundtrip(self):
        metric = geo.MetricField(["1 + x1^2", "0", "0", "2", "0", "1"])
        x = np.array([0.5, 0.0, 0.0])
        g = metric.matrix(x)
        np.testing.assert_allclose(g, np.diag([1.25, 2.0, 1.0]))
        np.testing.assert_allclose(metric.inverse(x), np.diag([0.8, 0.5, 1.0]))

    def test_constant_factor_detection(self):
        # c exactly when g is a constant positive multiple of the identity
        assert geo.metric_euclidean().constant_factor() == 1.0
        assert geo.metric_conformal("0 - log(2)").constant_factor() == pytest.approx(0.5)
        assert geo.metric_conformal("x1").constant_factor() is None
        assert geo.MetricField(["0.25", "0", "0", "0.25", "0", "0.25"]).constant_factor() == 0.5
        for entries in (["1", "0", "0", "2", "0", "3"], ["1", "0.5", "0", "1", "0", "1"],
                        ["-1", "0", "0", "-1", "0", "-1"]):
            assert geo.MetricField(entries).constant_factor() is None

    def test_conformal_syntax_error_points_into_f(self):
        # the entry exp(2 * (f)) is built around f's own parse
        with pytest.raises(ef.SyntaxError_, match=r"at offset 3\)"):
            geo.metric_conformal("x1+")


class TestExprArray:
    def test_axes_follow_the_batch_axes(self):
        a = geo.ExprArray([["x1", "x2 * x3"], ["2", "sin(x1)"]], 3)
        pts = np.random.default_rng(1).uniform(-1, 1, size=(4, 5, 3))
        v = a.eval_at(pts)
        assert v.shape == (4, 5, 2, 2)
        np.testing.assert_array_equal(v[..., 0, 1], pts[..., 1] * pts[..., 2])
        np.testing.assert_array_equal(v[..., 1, 0], 2.0)
        d = a.diff()
        assert d.shape == (2, 2, 3)
        np.testing.assert_array_equal(d.eval_at(pts[0, 0])[1, 1], [np.cos(pts[0, 0, 0]), 0, 0])

    def test_each_distinct_entry_is_evaluated_once(self, monkeypatch):
        # conformal:0.1*x1 has 2 distinct metric entries (the diagonal and 0)
        # of 9, and 2 distinct partials (d1 of the diagonal and 0) of 27
        metric = geo.metric_conformal("0.1*x1")
        calls = []
        eval_at = ef.Expression.eval_at

        def counting(expr, points):
            calls.append(expr)
            return eval_at(expr, points)

        monkeypatch.setattr(ef.Expression, "eval_at", counting)
        x = np.array([[0.3, -0.2, 0.5], [0.1, 0.4, -0.6]])
        g = metric.matrix(x)
        assert len(calls) == 2
        dg = metric.dmatrix(x)
        assert len(calls) == 4
        monkeypatch.undo()
        np.testing.assert_array_equal(g, np.exp(2 * (0.1 * x[:, 0]))[:, None, None] * np.eye(3))
        assert np.count_nonzero(dg) == 2 * 3

    def test_signed_zeros_stay_apart(self):
        a = geo.ExprArray(["0", "-0", "x1 - x1"], 3)
        assert a.flat[0] == a.flat[1]  # == does not tell 0.0 from -0.0
        v = a.eval_at(np.ones((4, 3)))
        assert v.shape == (4, 3)
        np.testing.assert_array_equal(np.signbit(v), [[False, True, False]] * 4)

    def test_matrix_metric_dmatrix_puts_the_partial_first(self):
        metric = geo.MetricField(["1+x1^2", "0.2*x2", "0.1", "2+x3", "0.3*x1*x3", "1.5"])
        x = np.array([[0.3, -0.2, 0.5], [0.1, 0.4, -0.6]])
        d = metric.dmatrix(x)
        assert d.flags.c_contiguous
        h = 1e-6
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            fd = (metric.matrix(x + e) - metric.matrix(x - e)) / (2 * h)
            np.testing.assert_allclose(d[:, k], fd, atol=1e-8)

    @pytest.mark.parametrize("build", [
        lambda: geo.ExprScalarField("1 - x4^2", 3),
        lambda: geo.ExprVectorField(["x1", "x4", "0"], 3),
        lambda: geo.metric_conformal("x4"),
        lambda: geo.metric_conformal("x3", n=2),
        lambda: geo.MetricField(["1", "0", "0", "1", "0", "x5"]),
    ], ids=["scalar", "vector", "conformal", "conformal_n2", "matrix"])
    def test_variable_beyond_the_dimension_fails_at_construction(self, build):
        with pytest.raises(ef.ExprError, match="but dimension is"):
            build()


_GRAM = np.array([[2.0, 0.3, -0.1], [0.3, 1.5, 0.2], [-0.1, 0.2, 0.8]])

_JET_FIELDS = {
    "sphere": lambda: geo.DistanceField(1.0, [0.1, -0.2, 0.3]),
    "cylinder": lambda: geo.DistanceField(1.0, [0.1, -0.2, 0.3], axes=[0, 1]),
    "quartic": lambda: geo.QuarticGapField([0.0, 0.0, 1.0], _GRAM),
    "linear": lambda: geo.LinearField([0.5, -1.0, 2.0]),
    "sum": lambda: geo.SumField([geo.DistanceField(1.0, np.zeros(3)),
                                 geo.QuarticGapField([0.0, 0.0, 1.0], _GRAM)]),
    "expr": lambda: geo.ExprScalarField("sin(x1)*x2 + x3^3 - x1*x3", 3),
}


def _partials(f, x):
    return f.jet(geo.unstack(x))[1]


@pytest.mark.parametrize("name", list(_JET_FIELDS))
def test_jet_equals_the_separate_methods(name):
    """The jet's value is ``value``'s bit for bit, and its derivatives match
    central differences: each partial those of ``value``, each Hessian entry
    those of the jet's partials."""
    f = _JET_FIELDS[name]()
    x = np.random.default_rng(4).uniform(-2.0, 2.0, size=(5, 7, 3))
    value, gradient, hessian = f.jet(geo.unstack(x))
    np.testing.assert_array_equal(value, f.value(x))
    assert len(gradient) == 3 and len(hessian) == 6
    assert {np.shape(a) for a in (value, *gradient, *hessian)} == {(5, 7)}
    # one step of 1e-6 for both: the sum's sphere has a sample point 0.027
    # from its centre, where a step of 1e-5 leaves a truncation error of 1e-6
    h = 1e-6 * np.eye(3)
    for k in range(3):
        fd = (f.value(x + h[k]) - f.value(x - h[k])) / 2e-6
        np.testing.assert_allclose(gradient[k], fd, rtol=0, atol=1e-7)
    for (i, j), entry in zip(geo._PAIRS, hessian):
        fd = (_partials(f, x + h[j])[i] - _partials(f, x - h[j])[i]) / 2e-6
        np.testing.assert_allclose(entry, fd, rtol=0, atol=1e-6)


def test_jet_symmetrizes_mirror_entries_that_are_distinct_trees():
    """The torus's H_12 and H_21 are distinct expressions that round apart;
    the jet returns their mean."""
    f = geo.ExprScalarField("1 - (sqrt(x1^2 + x2^2) - 3)^2 - x3^2", 3)
    d1, d2 = (ef.differentiate(f.expr, k).fold() for k in range(2))
    H12, H21 = ef.differentiate(d1, 1).fold(), ef.differentiate(d2, 0).fold()
    assert repr(H12) != repr(H21)
    x = np.random.default_rng(6).uniform(1.0, 4.0, size=(40, 3))
    a, b = H12.eval_at(x), H21.eval_at(x)
    assert not np.array_equal(a, b)
    _, _, hessian = f.jet(geo.unstack(x))
    np.testing.assert_array_equal(hessian[3], 0.5 * (a + b))


_LIPSCHITZ_FIELDS = {
    "sphere": _JET_FIELDS["sphere"],
    "cylinder": _JET_FIELDS["cylinder"],
    "linear": _JET_FIELDS["linear"],
    "expr": _JET_FIELDS["expr"],
    "ellipsoid": lambda: geo.ExprScalarField("1 - x1^2/4 - x2^2/4 - x3^2", 3),
    "torus": lambda: geo.ExprScalarField("1 - (sqrt(x1^2 + x2^2) - 3)^2 - x3^2", 3),
}


@pytest.mark.parametrize("name", list(_LIPSCHITZ_FIELDS))
def test_lipschitz_bounds_the_gradient_on_its_box(name):
    """On random boxes clear of the plane x1 = 0 (so of the torus's axis), the
    bound is at least every sampled |grad|, and chords obey it too."""
    f = _LIPSCHITZ_FIELDS[name]()
    rng = np.random.default_rng(6)
    for _ in range(20):
        centre = rng.uniform(-2.0, 2.0, 3)
        centre[0] = 0.6 + 1.5 * rng.random()
        half = 0.5 * rng.random(3)
        lo, hi = centre - half, centre + half
        L = f.lipschitz(lo, hi)
        assert L is not None
        x = lo + (hi - lo) * rng.random((200, 3))
        # the computed |grad| carries its own rounding
        assert np.all(np.linalg.norm(f.gradient(x), axis=-1) <= L * (1.0 + 1e-12))
        chord = np.abs(f.value(x[1:]) - f.value(x[:-1]))
        assert np.all(chord <= L * np.linalg.norm(x[1:] - x[:-1], axis=-1) + 1e-12)


def test_lipschitz_values_and_unknowns():
    box = (-np.ones(3), np.ones(3))
    assert geo.DistanceField(1.0, np.zeros(3)).lipschitz(*box) == 1.0
    assert geo.LinearField([3.0, 0.0, 4.0]).lipschitz(*box) == 5.0
    assert geo.QuarticGapField(np.zeros(3), _GRAM).lipschitz(*box) is None
    # the partials divide by sqrt(x1^2 + x2^2 + x3^2), whose enclosure holds 0
    assert geo.ExprScalarField("1 - sqrt(x1^2 + x2^2 + x3^2)", 3).lipschitz(*box) is None
    assert geo.ExprScalarField("1 - sqrt(x1^2 + x2^2 + x3^2)", 3).lipschitz(
        np.array([0.5, -1.0, -1.0]), np.ones(3)) is not None


class TestDomain:
    def test_contains_and_boundary(self, ball_domain):
        assert ball_domain.contains(np.zeros(3))
        assert not ball_domain.contains(np.array([2.0, 0.0, 0.0]))
        assert ball_domain.on_boundary(np.array([0.0, 0.0, 1.0]))
        assert not ball_domain.on_boundary(np.zeros(3))

    def test_inward_normal_ball(self, ball_domain):
        nu = inward_normal(ball_domain, np.array([0.0, 0.0, 1.0]))
        np.testing.assert_allclose(nu, [0.0, 0.0, -1.0], atol=1e-12)

    def test_newton_level_project(self, ball_domain):
        x = np.array([0.0, 0.0, 1.7])
        y = geo.newton_level_project(ball_domain.u0, x)
        np.testing.assert_allclose(y, [0.0, 0.0, 1.0], atol=1e-10)

    def test_newton_level_project_refuses_a_nan_field(self):
        class NaNField(geo.ScalarField):
            def value(self, x):
                return np.full(np.shape(x)[:-1], np.nan)

            def gradient(self, x):
                return np.ones(np.shape(x))

        with pytest.raises(geo.GeometryError, match="did not converge"):
            geo.newton_level_project(NaNField(), np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# finite-difference oracles


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_expr_field_gradient_fd(seed):
    f = geo.ExprScalarField("sin(x1)*x2 + exp(x3/2)", 3)
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, size=3)
    h = 1e-6
    for i in range(3):
        e = np.zeros(3); e[i] = h
        fd = (f.value(x + e) - f.value(x - e)) / (2 * h)
        assert f.gradient(x)[i] == pytest.approx(fd, abs=1e-7)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_expr_field_hessian_fd(seed):
    f = geo.ExprScalarField("x1^2*x2 + cos(x3)", 3)
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, size=3)
    h = 1e-5
    H = f.hessian(x)
    for i in range(3):
        e = np.zeros(3); e[i] = h
        fd = (f.gradient(x + e) - f.gradient(x - e)) / (2 * h)
        np.testing.assert_allclose(H[i], fd, atol=1e-6)
    np.testing.assert_allclose(H, H.T, atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_top_m_eigensum_dominates_random_planes(seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(4, 4))
    S = A + A.T
    best = geo.top_m_eigensum(S, 2)
    for _ in range(200):
        Q, _ = np.linalg.qr(rng.normal(size=(4, 2)))
        assert np.trace(Q.T @ S @ Q) <= best + 1e-10
