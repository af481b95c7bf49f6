"""Varifold calculus: quadrature, first variation, mean curvature, decomposition."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mconvex import barrier as bar
from mconvex import exprfield as ef
from mconvex import geometry as geo
from mconvex import meshes
from mconvex import minimizer as mz
from mconvex import varifold as vf

from testkit import (
    ConstantVectorField, LinearVectorField, chord_polyline, field_magnitude, inward_normal,
    position_field, square_mesh, svmesh_dumps, svmesh_loads,
)

# metrics g = c^2 * euclidean with c = 1, 1/2 and e^0.1
_CONSTANT_FACTOR = [
    pytest.param(geo.metric_euclidean(), id="euclidean"),
    pytest.param(geo.metric_conformal("0 - log(2)"), id="conformal_constant"),
    pytest.param(geo.metric_conformal("0.1"), id="conformal_e0.1"),
]


def _frame_deviation(V, metric):
    """max |F g F^T - I| over the atom frames F of V, g at the atom points."""
    gram = np.einsum("fae,fec,fbc->fab", V.frames, metric.matrix(V.points), V.frames)
    return float(np.max(np.abs(gram - np.eye(V.m))))


class BumpVectorField(geo.VectorField):
    """Smooth compactly supported field: direction times a radial bump.

    The profile exp(-1/(1 - s)) in s = |x-c|^2/r^2 vanishes to all orders at
    the support boundary |x-c| = r.
    """

    def __init__(self, center, radius, direction):
        self.center = np.asarray(center, dtype=float)
        self.radius = float(radius)
        self.direction = np.asarray(direction, dtype=float)
        self.n = self.center.shape[0]

    def _profile(self, x):
        d = np.asarray(x, dtype=float) - self.center
        s = np.einsum("...i,...i->...", d, d) / self.radius**2
        inside = s < 1.0
        with np.errstate(divide="ignore", over="ignore"):
            t = np.where(inside, 1.0 - s, 1.0)
            val = np.where(inside, np.exp(-1.0 / t), 0.0)
        dval = np.where(inside, -val / t**2, 0.0)  # derivative w.r.t. s
        return d, val, dval

    def value(self, x):
        _, val, _ = self._profile(x)
        return val[..., None] * self.direction

    def jacobian(self, x):
        d, _, dval = self._profile(x)
        ds = 2.0 * d / self.radius**2  # gradient of s
        return self.direction[:, None] * dval[..., None, None] * ds[..., None, :]


class _Combination(geo.VectorField):
    """sum of a_i X_i for terms (a_i, X_i)."""

    def __init__(self, terms):
        self.terms = [(float(a), X) for a, X in terms]
        self.n = self.terms[0][1].n

    def value(self, x):
        return sum(a * X.value(x) for a, X in self.terms)

    def jacobian(self, x):
        return sum(a * X.jacobian(x) for a, X in self.terms)


class TestSVMesh:
    def test_roundtrip(self):
        mesh = square_mesh(divisions=3)
        again = svmesh_loads(svmesh_dumps(mesh))
        np.testing.assert_array_equal(mesh.vertices, again.vertices)
        np.testing.assert_array_equal(mesh.simplices, again.simplices)
        np.testing.assert_array_equal(mesh.multiplicity, again.multiplicity)

    def test_default_multiplicity(self):
        text = "SVMESH 1 2\n2 1\n0 0\n1 0\n0 1\n"
        mesh = svmesh_loads(text)
        assert mesh.multiplicity[0] == 1.0

    def test_bad_header(self):
        with pytest.raises(vf.MeshFormatError):
            svmesh_loads("MESH 2 3\n0 0\n")

    def test_wrong_counts(self):
        with pytest.raises(vf.MeshFormatError):
            svmesh_loads("SVMESH 1 2\n2 1\n0 0\n1 0\n")

    def test_bad_vertex_line(self):
        with pytest.raises(vf.MeshFormatError):
            svmesh_loads("SVMESH 1 2\n2 1\n0 0 0\n1 0\n0 1\n")

    def test_index_out_of_range(self):
        with pytest.raises(vf.VarifoldError):
            svmesh_loads("SVMESH 1 2\n2 1\n0 0\n1 0\n0 5\n")

    def test_comments_and_blanks_ignored(self):
        text = "# a mesh\nSVMESH 1 2\n\n2 1\n0 0\n1 0\n\n0 1 2.0\n"
        mesh = svmesh_loads(text)
        assert mesh.multiplicity[0] == 2.0

    @pytest.mark.parametrize("vertex, mult", [
        ("nan", "1"), ("inf", "1"), ("0", "nan"), ("0", "inf"),
    ], ids=["nan_vertex", "inf_vertex", "nan_multiplicity", "inf_multiplicity"])
    def test_non_finite_values_rejected(self, vertex, mult):
        text = f"SVMESH 2 3\n3 1\n{vertex} 0 0\n1 0 0\n0 1 0\n0 1 2 {mult}\n"
        with pytest.raises(vf.VarifoldError, match="finite"):
            svmesh_loads(text)

    @pytest.mark.parametrize("text, line", [
        ("SVMESH 2 3\n-1 3\n0 1 2\n0 1 2\n", "count line"),
        ("SVMESH -2 3\n1 1\n0 0 0\n0\n", "header"),
    ], ids=["negative_count", "negative_m"])
    def test_negative_size_is_a_format_error(self, text, line):
        with pytest.raises(vf.MeshFormatError, match=line):
            svmesh_loads(text)

    def test_zero_dimensional_mesh_rejected(self):
        with pytest.raises(vf.VarifoldError, match="m \\+ 1 >= 2"):
            svmesh_loads("SVMESH 0 3\n2 2\n0 0 0\n1 0 0\n0\n1\n")
        with pytest.raises(vf.VarifoldError, match="m \\+ 1 >= 2"):
            vf.SimplicialSurface(np.zeros((2, 3)), np.array([[0], [1]]))


class TestFromMesh:
    def test_unit_square_total_weight(self):
        mesh = square_mesh(side=1.0, divisions=1)
        for order in (1, 2, 4):
            V = vf.varifold_from_mesh(mesh, order=order)
            assert V.total_weight == pytest.approx(1.0, abs=1e-12)

    def test_multiplicity_linearity(self):
        mesh = square_mesh(divisions=2)
        doubled = vf.SimplicialSurface(mesh.vertices, mesh.simplices,
                                       2.0 * mesh.multiplicity)
        V1 = vf.varifold_from_mesh(mesh)
        V2 = vf.varifold_from_mesh(doubled)
        np.testing.assert_allclose(V2.weights, 2.0 * V1.weights)

    def test_sphere_area_refinement(self):
        mesh = meshes.icosphere_mesh(subdivisions=4)
        assert len(mesh.simplices) >= 5000
        V = vf.varifold_from_mesh(mesh)
        assert V.total_weight == pytest.approx(4 * np.pi, rel=0.01)

    @pytest.mark.parametrize("metric", _CONSTANT_FACTOR)
    def test_frames_orthonormal(self, unit_disk_mesh, metric):
        V = vf.varifold_from_mesh(unit_disk_mesh, metric)
        assert _frame_deviation(V, metric) <= 1e-10

    @pytest.mark.parametrize("metric", _CONSTANT_FACTOR)
    def test_constant_factor_area_scaling(self, unit_disk_mesh, metric):
        # lengths scale by c, so 2-areas by c^2
        c = metric.constant_factor()
        euclidean = vf.area(unit_disk_mesh)
        assert vf.area(unit_disk_mesh, metric) == pytest.approx(c ** 2 * euclidean,
                                                                rel=1e-14, abs=0)
        Vc = vf.varifold_from_mesh(unit_disk_mesh, metric)
        assert Vc.total_weight == pytest.approx(c ** 2 * euclidean, rel=1e-14, abs=0)

    def test_constant_factor_evaluates_no_metric(self, monkeypatch, scaled_ball_bundle):
        # g = c^2 * euclidean is the euclidean computation scaled by powers of c
        b = scaled_ball_bundle
        metric = b.domain.metric
        calls = []
        for name in ("matrix", "dmatrix", "inverse"):
            def counting(self, x, name=name, fn=getattr(geo.MetricField, name)):
                calls.append(name)
                return fn(self, x)
            monkeypatch.setattr(geo.MetricField, name, counting)
        mesh = meshes.disk_mesh(radius=0.4, center=(0.1, 0.0, 0.5), rings=3, segments=12)
        vf.area(mesh, metric)
        vf.varifold_from_mesh(mesh, metric)
        mz.area_gradient(mesh, metric)
        assert bar.verify_barrier(b, grid_resolution=12).n_tube > 0
        assert calls == []

    @pytest.mark.parametrize("metric", [geo.metric_euclidean(3), geo.metric_conformal("0.1*x1")],
                             ids=["euclidean", "conformal_x1"])
    @pytest.mark.parametrize("fn", ["varifold_from_mesh", "area", "vertex_areas",
                                    "metric_area_gradient", "mesh_mean_curvature"])
    def test_metric_on_another_space_is_refused(self, fn, metric):
        # a planar triangle under a metric on R^3: the euclidean and constant
        # factors returned numbers, x1's ended in a reshape or constant-factor error
        mesh = vf.SimplicialSurface(np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1]]),
                                    np.array([[0, 1, 2]]))
        with pytest.raises(vf.VarifoldError,
                           match=r"the mesh lies in R\^2, the metric is on R\^3"):
            getattr(vf, fn)(mesh, metric)

    def test_degenerate_simplex_rejected(self):
        verts = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0]], dtype=float)
        mesh = vf.SimplicialSurface(verts, np.array([[0, 1, 2]]))
        with pytest.raises(vf.DegenerateSimplexError):
            vf.varifold_from_mesh(mesh)

    @pytest.mark.parametrize("fn", ["stiffness_laplacian", "area_vertex_gradient"])
    @pytest.mark.parametrize("simplices", [[[0, 1, 2]], [[0, 0]]], ids=["triangle", "segment"])
    def test_collapsed_simplex_has_no_laplacian(self, fn, simplices):
        # the collinear triangle's cotangent weights were +-inf, the
        # zero-length segment's gradient a silent 0
        verts = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0]], dtype=float)
        with pytest.raises(vf.DegenerateSimplexError):
            getattr(vf, fn)(vf.SimplicialSurface(verts, np.array(simplices)))


def _bits(a):
    """dtype, shape and bytes: equal exactly when the arrays are bit for bit."""
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


def _direct_lowering(mesh, c, order):
    """The constant-factor lowering from its formula, node by node: points,
    frames Gram-Schmidted on the repeated edge vectors and divided by c, and
    weights c^m x multiplicity x quadrature weight x volume."""
    nodes, wq = vf._quadrature(mesh.m, order)
    F, Q = len(mesh.simplices), len(wq)
    points = np.einsum("qb,fbn->fqn", nodes, mesh.vertices[mesh.simplices]).reshape(F * Q, -1)
    frames = vf._metric_frames(np.repeat(mesh.edge_matrices(), Q, axis=0), None) / c
    weights = c ** mesh.m * (np.repeat(mesh.multiplicity, Q) * np.tile(wq, F)
                             * np.repeat(mesh.volumes, Q))
    return points, frames, weights


# g = c^2 * euclidean, written as the matrix c^2 I so that c is exact
_CACHED_C = [pytest.param(c, id=name)
             for c, name in ((1.0, "1"), (0.5, "half"), (np.sqrt(1.25), "sqrt1.25"))]


def _scaled_metric(c):
    g = repr(float(c * c))
    return geo.MetricField([g, "0", "0", g, "0", g])


class TestCachedLowering:
    """A mesh keeps its euclidean lowering; under g = c^2 * euclidean a
    lowering reads it."""

    @pytest.mark.parametrize("c", _CACHED_C)
    def test_cached_lowering_equals_the_direct_formula(self, c):
        metric = _scaled_metric(c)
        assert metric.constant_factor() == c
        mesh = _jittered_disk()
        for order in (1, 2, 4):
            for _ in range(2):  # the second lowering reads the cache
                V = vf.varifold_from_mesh(mesh, metric, order)
                points, frames, weights = _direct_lowering(mesh, c, order)
                assert _bits(V.points) == _bits(points)
                assert _bits(V.frames) == _bits(frames)
                assert _bits(V.weights) == _bits(weights)
                assert vf.area(mesh, metric, order) == float(np.sum(weights))

    def test_cache_is_kept_per_order_and_read_only(self):
        mesh = _jittered_disk()
        points, weights = mesh.quadrature(2)
        assert mesh.quadrature(2)[0] is points and mesh.quadrature(4)[0] is not points
        for a in (points, weights, mesh.euclidean_frames):
            assert not a.flags.writeable
        assert vf.varifold_from_mesh(mesh).points is points

    def test_a_moved_mesh_gets_a_fresh_cache(self):
        mesh = _jittered_disk()
        before = [a.copy() for a in (*mesh.quadrature(2), mesh.euclidean_frames)]
        edge = mesh.max_edge_length()
        moved = mesh.with_vertices(1.5 * mesh.vertices + 0.1)
        V = vf.varifold_from_mesh(moved)
        for got, want in zip((V.points, V.frames, V.weights), _direct_lowering(moved, 1.0, 2)):
            assert _bits(got) == _bits(want)
        assert moved.max_edge_length() == pytest.approx(1.5 * edge, rel=1e-14)
        # the first mesh's cache is untouched
        for got, want in zip((*mesh.quadrature(2), mesh.euclidean_frames), before):
            assert _bits(got) == _bits(want)

    def test_max_edge_length_equals_the_longest_norm(self):
        mesh = _jittered_disk()
        v = mesh.vertices[mesh.simplices]
        lengths = [np.linalg.norm(v[:, i] - v[:, j], axis=-1)
                   for i, j in itertools.combinations(range(3), 2)]
        assert mesh.max_edge_length() == float(np.max(lengths))


def _jittered_disk():
    """A 37-vertex disk with jittered vertices and multiplicities 1 to 3."""
    mesh = meshes.disk_mesh(radius=0.4, center=(0.1, 0.0, 0.5), rings=3, segments=12)
    rng = np.random.default_rng(3)
    return vf.SimplicialSurface(
        mesh.vertices + 0.02 * rng.normal(size=mesh.vertices.shape), mesh.simplices,
        rng.integers(1, 4, size=len(mesh.simplices)).astype(float))


class TestArea:
    @pytest.mark.parametrize("order", [1, 2, 4])
    @pytest.mark.parametrize("metric", [
        pytest.param(None, id="euclidean"),
        pytest.param(geo.metric_conformal("0 - log(2)"), id="conformal_constant"),
        pytest.param(geo.metric_conformal("0.1*x1"), id="conformal_x1"),
        pytest.param(geo.MetricField(["1+x1^2", "0.2*x2", "0.1", "2+x3",
                                      "0.3*x1*x3", "1.5"]), id="matrix"),
    ])
    def test_equals_lowered_total_weight(self, metric, order):
        mesh = _jittered_disk()
        assert (vf.area(mesh, metric, order)
                == vf.varifold_from_mesh(mesh, metric, order).total_weight)

    @pytest.mark.parametrize("metric", [
        pytest.param(None, id="euclidean"),
        pytest.param(geo.metric_conformal("0 - log(2)"), id="conformal_constant"),
        pytest.param(geo.metric_conformal("0.1*x1"), id="conformal_x1"),
        pytest.param(geo.MetricField(["1+x1^2", "0.2*x2", "0.1", "2+x3",
                                      "0.3*x1*x3", "1.5"]), id="matrix"),
    ])
    def test_vertex_areas_sum_to_the_area(self, metric):
        # each simplex hands 1/(m+1) of its metric volume to each corner
        mesh = _jittered_disk()
        areas = vf.vertex_areas(mesh, metric)
        assert areas.shape == (len(mesh.vertices),) and np.all(areas > 0)
        assert np.sum(areas) == pytest.approx(vf.area(mesh, metric), rel=1e-12)

    def test_vertex_areas_scale_by_c_to_the_m(self):
        mesh = _jittered_disk()
        np.testing.assert_allclose(vf.vertex_areas(mesh, geo.metric_conformal("0 - log(2)")),
                                   0.25 * vf.vertex_areas(mesh), rtol=1e-15)

    def test_collapsed_triangle_rejected(self):
        mesh = meshes.disk_mesh(radius=0.4, rings=2, segments=8)
        verts = mesh.vertices.copy()
        a, b, c = mesh.simplices[0]
        verts[c] = 0.5 * (verts[a] + verts[b])
        with pytest.raises(vf.DegenerateSimplexError):
            vf.area(mesh.with_vertices(verts), geo.metric_conformal("0.1*x1"))


class TestFirstVariation:
    def test_constant_field_on_disk(self, unit_disk_mesh):
        V = vf.varifold_from_mesh(unit_disk_mesh)
        X = ConstantVectorField(np.array([1.0, 2.0, -0.5]))
        assert vf.first_variation(V, X) == pytest.approx(0.0, abs=1e-12)

    def test_position_field_doubles_area(self, unit_disk_mesh):
        V = vf.varifold_from_mesh(unit_disk_mesh)
        X = position_field(3)
        assert vf.first_variation(V, X) == pytest.approx(2 * V.total_weight, rel=1e-12)

    def test_linearity(self, unit_disk_mesh):
        V = vf.varifold_from_mesh(unit_disk_mesh)
        X = BumpVectorField(np.array([0.2, 0, 0]), 0.5, np.array([0, 0, 1.0]))
        Y = geo.ExprVectorField(["x2", "x3", "x1"], 3)
        combo = _Combination([(2.5, X), (-1.5, Y)])
        lhs = vf.first_variation(V, combo)
        rhs = 2.5 * vf.first_variation(V, X) - 1.5 * vf.first_variation(V, Y)
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_additivity_over_varifolds(self, unit_disk_mesh):
        sq = square_mesh(center=(0, 0, 0.5), divisions=2)
        V1 = vf.varifold_from_mesh(unit_disk_mesh)
        V2 = vf.varifold_from_mesh(sq)
        both = vf.DiscreteVarifold(
            2, np.vstack([V1.points, V2.points]),
            np.vstack([V1.frames, V2.frames]),
            np.concatenate([V1.weights, V2.weights]))
        X = geo.ExprVectorField(["sin(x3)", "x1*x2", "x2"], 3)
        assert vf.first_variation(both, X) == pytest.approx(
            vf.first_variation(V1, X) + vf.first_variation(V2, X), abs=1e-10)

    def test_rigid_motions_on_closed_mesh(self):
        V = vf.varifold_from_mesh(meshes.icosphere_mesh(subdivisions=3))
        const = ConstantVectorField(np.array([0.3, -1.0, 0.7]))
        rot = LinearVectorField(np.array([[0.0, -1, 0], [1, 0, 0], [0, 0, 0]]))
        assert abs(vf.first_variation(V, const)) <= 1e-9
        assert abs(vf.first_variation(V, rot)) <= 1e-9

    @pytest.mark.parametrize("metric", _CONSTANT_FACTOR)
    def test_constant_factor_metric_evaluates_no_value_entry(self, unit_disk_mesh, metric,
                                                            monkeypatch):
        # without Christoffel symbols the covariant gradient is the jacobian
        V = vf.varifold_from_mesh(unit_disk_mesh)
        X = geo.ExprVectorField(["x2", "0 - x1", "x3^2"], 3)
        evaluated = []
        eval_at = ef.Expression.eval_at

        def counting(expr, points):
            evaluated.append(repr(expr))
            return eval_at(expr, points)

        monkeypatch.setattr(ef.Expression, "eval_at", counting)
        dv = vf.first_variation(V, X, metric)
        monkeypatch.undo()
        assert not {repr(e) for e in X._value.flat} & set(evaluated)
        assert len(evaluated) == len(X._jacobian._distinct)
        A = geo.covariant_from_jacobian(*X.evaluate(V.points), V.points, metric)
        assert dv == vf._first_variation(V, A, metric)

    def test_weight_integral(self, unit_disk_mesh):
        V = vf.varifold_from_mesh(unit_disk_mesh)
        assert vf.weight_integral(V, lambda p: np.ones(len(p))) == pytest.approx(
            V.total_weight)
        assert vf.weight_integral(V, lambda p: np.zeros(len(p))) == 0.0

    def test_barrier_support_property(self, ball_bundle, unit_disk_mesh):
        # the disk through the equator is far from the tube: |X| integrates to 0
        V = vf.varifold_from_mesh(unit_disk_mesh)
        X = ball_bundle.field()
        assert vf.weight_integral(V, field_magnitude(X)) == 0.0


class TestFlow:
    def test_zero_field_identity(self, unit_disk_mesh, flow_mesh):
        out = flow_mesh(unit_disk_mesh, ConstantVectorField(np.zeros(3)), 1.0)
        np.testing.assert_array_equal(out.vertices, unit_disk_mesh.vertices)

    def test_constant_field_translates(self, unit_disk_mesh, flow_mesh):
        v = np.array([0.1, -0.2, 0.3])
        out = flow_mesh(unit_disk_mesh, ConstantVectorField(v), 1.0)
        np.testing.assert_allclose(out.vertices, unit_disk_mesh.vertices + v, atol=1e-12)

    def test_flow_derivative_matches_first_variation(self, unit_disk_mesh, flow_mesh):
        X = BumpVectorField(np.array([0.2, 0.0, 0.0]), 0.6,
                                np.array([0.1, 0.2, 0.9]))
        V = vf.varifold_from_mesh(unit_disk_mesh, order=4)
        dv = vf.first_variation(V, X)
        base = vf.area(unit_disk_mesh, order=4)
        ratios = []
        for t in (1e-2, 1e-3, 1e-4):
            fd = (vf.area(flow_mesh(unit_disk_mesh, X, t), order=4) - base) / t
            ratios.append(abs(dv - fd) / t)
        # |dV - FD| <= C t with C stable under t-halving
        assert max(ratios) <= 2.0 * min(ratios) + 1e-9

    def test_chart_escape_raises(self, unit_disk_mesh, flow_mesh):
        dom = geo.domain_ball(radius=1.0)
        X = ConstantVectorField(np.array([10.0, 0.0, 0.0]))
        with pytest.raises(vf.VarifoldError):
            flow_mesh(unit_disk_mesh, X, 1.0, domain=dom)


# the inward-variation check against a battery of fields; the package has no
# caller for it, so it lives with the tests that use it
class InadmissibleFieldError(vf.VarifoldError):
    """A test field violating the inward-variation constraint on dN."""


def _admissibility_margin(X, domain, rng, samples=1000):
    """min over boundary samples of <X, nu_N>_g."""
    lo, hi = domain.chart[:, 0], domain.chart[:, 1]
    pts = lo + (hi - lo) * rng.random((8 * samples, domain.n))
    bnd = geo.newton_level_project(domain.u0, pts)
    ok = np.all((bnd >= lo) & (bnd <= hi), axis=-1)
    bnd = bnd[ok][:samples]
    if len(bnd) == 0:
        raise geo.GeometryError("no boundary samples found in the chart")
    nu = inward_normal(domain, bnd)
    vals = X.value(bnd)
    c = domain.metric.constant_factor()
    if c is not None:
        inner = c * c * np.einsum("fe,fe->f", vals, nu)
    else:
        g = domain.metric.matrix(bnd)
        inner = np.einsum("fe,fec,fc->f", vals, g, nu)
    return float(np.min(inner))


def check_first_order_minimizing(V, domain, fields, tolerance=None, seed=0):
    """Test the inward-variation inequality against a battery of fields.

    Every field must satisfy <X, nu_N> >= 0 on the boundary (sampled); a
    violator is rejected outright.  Pass iff min over fields of delta V(X)
    is above -tolerance.
    """
    rng = np.random.default_rng(seed)
    metric = domain.metric
    records = []
    for i, X in enumerate(fields):
        margin = _admissibility_margin(X, domain, rng)
        if margin < -1e-9:
            raise InadmissibleFieldError(
                f"field {i} has <X, nu_N> = {margin:.3g} < 0 on the boundary"
            )
        dv = vf.first_variation(V, X, metric)
        sup = float(np.max(np.linalg.norm(X.value(V.points), axis=-1)))
        records.append({"index": i, "delta_V": dv, "sup_X": sup})
    if tolerance is None:
        sup_all = max((r["sup_X"] for r in records), default=0.0)
        tolerance = 1e-6 * V.total_weight * max(sup_all, 1.0)
    worst = min(records, key=lambda r: r["delta_V"], default=None)
    passed = worst is None or worst["delta_V"] >= -tolerance
    return {
        "passed": bool(passed),
        "min_delta_V": None if worst is None else worst["delta_V"],
        "worst_field": None if worst is None else worst["index"],
        "tolerance": float(tolerance),
        "fields": records,
    }


class TestMinimizingChecks:
    def test_flat_disk_minimizing(self, unit_disk_mesh):
        dom = geo.domain_ball(radius=2.0)
        V = vf.varifold_from_mesh(unit_disk_mesh)
        fields = [
            BumpVectorField(np.array([0.2, 0.1, 0.0]), 0.3, np.array([0, 0, 1.0])),
            BumpVectorField(np.array([-0.3, 0.0, 0.0]), 0.25, np.array([0, 0, -1.0])),
        ]
        rep = check_first_order_minimizing(V, dom, fields)
        assert rep["passed"]

    def test_chord_endpoint_push_not_minimizing(self):
        # m = 1: pushing near an endpoint of a diameter chord shortens it
        dom = geo.domain_ball(radius=1.0)
        chord = chord_polyline((-1.0 + 1e-6, 0, 0), (1.0 - 1e-6, 0, 0),
                                      segments=64)
        V = vf.varifold_from_mesh(chord)
        # bump covers the right endpoint and pushes it inward along the chord
        X = BumpVectorField(np.array([0.98, 0.0, 0.0]), 0.05,
                                np.array([-1.0, 0.0, 0.0]))
        rep = check_first_order_minimizing(V, dom, [X])
        assert not rep["passed"]
        assert rep["min_delta_V"] < 0

    def test_mesh_far_from_support(self, unit_disk_mesh):
        dom = geo.domain_ball(radius=2.0)
        V = vf.varifold_from_mesh(unit_disk_mesh)
        X = BumpVectorField(np.array([0.0, 0.0, 1.5]), 0.2, np.array([1.0, 0, 0]))
        rep = check_first_order_minimizing(V, dom, [X])
        assert rep["passed"]
        assert rep["min_delta_V"] == 0.0

    def test_inadmissible_field_rejected(self, unit_disk_mesh):
        dom = geo.domain_ball(radius=1.0)
        V = vf.varifold_from_mesh(unit_disk_mesh)
        outward = geo.ExprVectorField(["x1", "x2", "x3"], 3)  # points out of the ball
        with pytest.raises(InadmissibleFieldError):
            check_first_order_minimizing(V, dom, [outward])

    def test_bounded_mc_h0_is_sign_test(self, unit_disk_mesh):
        V = vf.varifold_from_mesh(unit_disk_mesh)
        X = BumpVectorField(np.array([0.2, 0.0, 0.0]), 0.4, np.array([0, 0, 1.0]))
        for h in (0.0, 1.5):
            rep = vf.check_bounded_mc(V, X, h)
            assert rep["value"] == (
                vf.first_variation(V, X)
                + h * vf.weight_integral(V, field_magnitude(X)))

    def test_bounded_mc_evaluates_barrier_field_once(
            self, scaled_ball_domain, scaled_ball_bundle, monkeypatch):
        metric = scaled_ball_domain.metric
        V = vf.varifold_from_mesh(
            meshes.sphere_cap_mesh(rings=6, segments=40), metric)
        X = scaled_ball_bundle.field()
        h = 1.0
        expected = (vf.first_variation(V, X, metric)
                    + h * vf.weight_integral(V, field_magnitude(X, metric)))
        seen = []
        tube_eval = bar.tube_eval

        def counting(sigma, x):
            seen.append(len(x))
            return tube_eval(sigma, x)

        monkeypatch.setattr(bar, "tube_eval", counting)
        rep = vf.check_bounded_mc(V, X, h, metric)
        assert sum(seen) == len(V.points)
        assert rep["mass_X"] > 0.0
        assert rep["value"] == expected

    def test_bounded_mc_default_cap_reaches_no_tube(
            self, theorem5_bundle, theorem5_cap, monkeypatch):
        seen = []
        tube_eval = bar.tube_eval

        def counting(sigma, x):
            seen.append(len(x))
            return tube_eval(sigma, x)

        monkeypatch.setattr(bar, "tube_eval", counting)
        V = vf.varifold_from_mesh(theorem5_cap)
        rep = vf.check_bounded_mc(V, theorem5_bundle.field(), 1.0)
        assert seen == []
        assert rep["n_live"] == 0 and rep["mass_X"] == 0.0

    def test_bounded_mc_counts_live_atoms(self, theorem5_bundle):
        # a radius-0.8 sphere tangent to the unit ball at p enters the tube
        mesh = meshes.sphere_cap_mesh(radius=0.8, center=(0.0, 0.0, 0.2),
                                      z_range=(0.9, 0.9999), rings=10, segments=40)
        V = vf.varifold_from_mesh(mesh)
        X = theorem5_bundle.field()
        rep = vf.check_bounded_mc(V, X, 1.0)
        nonzero = np.any(X.value(V.points) != 0.0, axis=-1)
        assert rep["n_live"] == np.count_nonzero(nonzero) > 0
        assert rep["mass_X"] > 0.0

    def test_bounded_mc_on_a_partly_reached_cap_equals_the_all_atoms_sum(self, theorem5_bundle):
        # the tangent radius-0.8 sphere, finer: 400 of its 9600 atoms lie
        # beyond the tube, and summing the 9200 reached terms alone rounds
        # differently from the sum over every atom
        mesh = meshes.sphere_cap_mesh(radius=0.8, center=(0.0, 0.0, 0.2),
                                      z_range=(0.9, 0.9999), rings=20, segments=80)
        V = vf.varifold_from_mesh(mesh)
        X = theorem5_bundle.field()
        rep = vf.check_bounded_mc(V, X, 1.0)
        A = X.jacobian(V.points)
        reached = np.any(A != 0.0, axis=(-2, -1))
        assert 0 < np.count_nonzero(reached) < len(V.points)
        assert rep["delta_V"] == vf._first_variation(V, A, geo.metric_euclidean())

    def test_bounded_mc_under_a_varying_metric_equals_the_all_atoms_sum(self, unit_disk_mesh):
        metric = geo.metric_conformal("0.1*x1")
        V = vf.varifold_from_mesh(unit_disk_mesh, metric)
        X = BumpVectorField(np.array([0.2, 0.0, 0.0]), 0.4, np.array([0, 0, 1.0]))
        assert 0 < np.count_nonzero(np.any(X.value(V.points) != 0.0, axis=-1)) < len(V.points)
        rep = vf.check_bounded_mc(V, X, 0.5, metric)
        assert rep["delta_V"] == vf.first_variation(V, X, metric)

    def test_sphere_saturates_bounded_mc(self):
        # radius m/h sphere (|H| = h) flowed inward: dV(X) = -h * mass(X)
        h = 2.0
        mesh = meshes.icosphere_mesh(radius=2.0 / h, subdivisions=3)
        V = vf.varifold_from_mesh(mesh, order=4)
        # inward radial field
        X = geo.ExprVectorField(["0 - x1", "0 - x2", "0 - x3"], 3)
        dv = vf.first_variation(V, X)
        mass = vf.weight_integral(V, field_magnitude(X))
        assert dv == pytest.approx(-h * mass, rel=5e-3)


class TestMeanCurvature:
    def test_volumes_computed_once(self, monkeypatch):
        computed = []
        volumes = vf.SimplicialSurface.__dict__["volumes"]
        compute = volumes.func

        def counting(mesh):
            computed.append(len(mesh.simplices))
            return compute(mesh)

        monkeypatch.setattr(volumes, "func", counting)
        mesh = meshes.disk_mesh(radius=1.0, rings=4, segments=16)
        H, _ = vf.mesh_mean_curvature(mesh)
        vf.vertex_areas(mesh)
        vf.stiffness_laplacian(mesh)
        vf.area(mesh)
        assert computed == [len(mesh.simplices)]
        monkeypatch.undo()
        expect = -vf.area_vertex_gradient(mesh)
        vert_area = np.zeros(len(mesh.vertices))
        np.add.at(vert_area, mesh.simplices.ravel(),
                  np.repeat(mesh.volumes * mesh.multiplicity / 3.0, 3))
        assert np.array_equal(H, expect / vert_area[:, None])

    def test_moved_mesh_gets_its_own_volumes_and_laplacian(self):
        mesh = meshes.disk_mesh(radius=1.0, rings=2, segments=8)
        kept = mesh.laplacian
        moved = mesh.with_vertices(2.0 * mesh.vertices)
        np.testing.assert_allclose(moved.volumes, 4.0 * mesh.volumes, rtol=1e-12)
        # cotangent weights do not change under scaling
        np.testing.assert_allclose(moved.laplacian[1], kept[1], rtol=1e-12)
        assert moved.laplacian is not kept and mesh.laplacian is kept
        for kept in (mesh.vertices, mesh.volumes, *mesh.laplacian):
            with pytest.raises(ValueError, match="read-only"):
                kept[0] = 1.0

    def test_flat_disk_interior_zero(self, unit_disk_mesh):
        H, interior = vf.mesh_mean_curvature(unit_disk_mesh)
        assert np.max(np.linalg.norm(H[interior], axis=-1)) <= 1e-8

    def test_unit_sphere_converges_to_two(self):
        mesh = meshes.icosphere_mesh(subdivisions=4)
        H, interior = vf.mesh_mean_curvature(mesh)
        mags = np.linalg.norm(H, axis=-1)
        assert np.mean(mags) == pytest.approx(2.0, rel=0.05)

    def test_sphere_H_points_inward(self):
        mesh = meshes.icosphere_mesh(subdivisions=3)
        H, _ = vf.mesh_mean_curvature(mesh)
        inward = -mesh.vertices / np.linalg.norm(mesh.vertices, axis=1, keepdims=True)
        align = np.einsum("ve,ve->v", H, inward) / np.linalg.norm(H, axis=1)
        assert np.min(align) > 0.99

    def test_cylinder_converges_to_one(self):
        mesh = meshes.cylinder_mesh(rings=24, segments=128)
        H, interior = vf.mesh_mean_curvature(mesh)
        mags = np.linalg.norm(H[interior], axis=-1)
        assert np.mean(mags) == pytest.approx(1.0, rel=0.05)

    def test_boundary_vertices_flagged(self, unit_disk_mesh):
        _, interior = vf.mesh_mean_curvature(unit_disk_mesh)
        rim = unit_disk_mesh.boundary_vertices()
        assert not np.any(interior[rim])


def _boundary_by_loop(mesh):
    """Reference: the vertices of the sorted m-subsets of the simplices that
    occur exactly once, counted in a dict."""
    counts = {}
    for simplex in mesh.simplices:
        for facet in itertools.combinations(sorted(simplex), mesh.m):
            counts[facet] = counts.get(facet, 0) + 1
    return sorted({v for facet, k in counts.items() if k == 1 for v in facet})


def _theta_complex():
    """Three disks spanning the triangle 0-1-2 (the flat one and two cones,
    apexes 3 and 4), as in a double bubble: every rim edge lies in three
    triangles, every other edge in two."""
    verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0.3, 0.3, 0.5], [0.3, 0.3, -0.5]]
    cones = [[a, b, apex] for apex in (3, 4) for a, b in ((0, 1), (1, 2), (2, 0))]
    return vf.SimplicialSurface(verts, [[0, 1, 2]] + cones)


class TestBoundaryVertices:
    @pytest.mark.parametrize("mesh, expected", [
        pytest.param(meshes.disk_mesh(rings=3, segments=8), np.arange(17, 25), id="disk_rim"),
        pytest.param(chord_polyline(np.zeros(3), np.ones(3), segments=4), [0, 4],
                     id="chord_ends"),
        pytest.param(vf.SimplicialSurface(np.eye(3), [[0, 1], [1, 2], [2, 0]]), [],
                     id="closed_polyline"),
        pytest.param(vf.SimplicialSurface(np.eye(4)[:, :3], [[0, 1], [0, 2], [0, 3]]),
                     [1, 2, 3], id="triple_junction"),
        pytest.param(meshes.icosphere_mesh(subdivisions=1), [], id="icosphere"),
        pytest.param(meshes.cylinder_mesh(rings=2, segments=5),
                     [0, 1, 2, 3, 4, 10, 11, 12, 13, 14], id="cylinder_rims"),
        pytest.param(_theta_complex(), [], id="edges_in_three_triangles"),
        pytest.param(vf.SimplicialSurface(np.eye(3), [[0, 1, 2], [2, 1, 0]]), [],
                     id="duplicated_triangle"),
    ])
    def test_known_answers(self, mesh, expected):
        np.testing.assert_array_equal(mesh.boundary_vertices(), expected)
        assert mesh.boundary_vertices().dtype.kind == "i"
        assert _boundary_by_loop(mesh) == list(expected)

    def test_matches_loop_on_the_theorem5_cap(self, theorem5_cap):
        np.testing.assert_array_equal(theorem5_cap.boundary_vertices(),
                                      _boundary_by_loop(theorem5_cap))


class TestDecomposition:
    def _combined(self, boundary, extra, mult):
        return vf.SimplicialSurface(
            np.vstack([boundary.vertices, extra.vertices]),
            np.vstack([boundary.simplices,
                       extra.simplices + len(boundary.vertices)]),
            np.concatenate([mult * np.ones(len(boundary.simplices)),
                            np.ones(len(extra.simplices))]))

    def test_three_boundary_plus_disk(self):
        bnd = meshes.icosphere_mesh(subdivisions=2)
        disk = meshes.disk_mesh(radius=0.4, rings=4, segments=24)
        V = self._combined(bnd, disk, 3)
        W, Wp, d = vf.decompose_integral(V, bnd)
        assert d == 3
        assert np.all(W.multiplicity == 3)
        assert len(Wp.simplices) == len(disk.simplices)
        assert np.max(np.linalg.norm(vf.support_points(Wp), axis=1)) < 1.0

    def test_entirely_interior(self):
        bnd = meshes.icosphere_mesh(subdivisions=2)
        disk = meshes.disk_mesh(radius=0.4, rings=4, segments=24)
        W, Wp, d = vf.decompose_integral(disk, bnd)
        assert d == 0 and W is None and Wp is disk

    def test_nonintegral_rejected(self):
        bnd = meshes.icosphere_mesh(subdivisions=1)
        planes = [square_mesh(side=0.5, center=(0, 0, 2.0 ** -i),
                                     multiplicity=2.0 ** -i) for i in range(1, 11)]
        offs = np.cumsum([0] + [len(m.vertices) for m in planes[:-1]])
        V = vf.SimplicialSurface(
            np.vstack([m.vertices for m in planes]),
            np.vstack([m.simplices + o for o, m in zip(offs, planes)]),
            np.concatenate([m.multiplicity for m in planes]))
        with pytest.raises(vf.NonIntegralError):
            vf.decompose_integral(V, bnd)


def _decompose_by_loop(V_mesh, boundary_mesh):
    """``decompose_integral`` as a loop over tuple keys and Counters: the
    oracle of the array version."""
    from collections import Counter

    def keys(mesh):
        return [tuple(sorted(map(tuple, s))) for s in np.round(mesh.vertices[mesh.simplices], 9)]

    mult = np.round(V_mesh.multiplicity).astype(int)
    v_keys = keys(V_mesh)
    carried = Counter()
    for key, mu in zip(v_keys, mult):
        carried[key] += mu
    listed = Counter(keys(boundary_mesh))
    d = min((carried[key] for key in listed), default=0)
    if d == 0:
        return None, V_mesh, 0
    owed = {key: d * k for key, k in listed.items()}
    assert all(owed[key] <= carried[key] for key in owed)
    keep, new_mult = [], []
    for i, (key, mu) in enumerate(zip(v_keys, mult)):
        take = min(owed.get(key, 0), mu)
        if take:
            owed[key] -= take
        if mu > take:
            keep.append(i)
            new_mult.append(mu - take)
    W = vf.SimplicialSurface(boundary_mesh.vertices, boundary_mesh.simplices,
                             d * np.ones(len(boundary_mesh.simplices)))
    Wp = (vf.SimplicialSurface(V_mesh.vertices, V_mesh.simplices[keep],
                               np.asarray(new_mult, dtype=float)) if keep else None)
    return W, Wp, d


def _shuffled(mesh, rng):
    """The same simplices with the vertices renumbered, the simplices
    reordered and each simplex's corners permuted."""
    perm = rng.permutation(len(mesh.vertices))
    order = rng.permutation(len(mesh.simplices))
    tris = np.argsort(perm)[mesh.simplices[order]]
    tris = np.take_along_axis(tris, rng.permuted(np.tile(np.arange(tris.shape[1]),
                                                         (len(tris), 1)), axis=1), axis=1)
    return vf.SimplicialSurface(mesh.vertices[perm], tris, mesh.multiplicity[order])


def _split_duplicates(mesh, rng):
    """mesh with every simplex listed twice, its multiplicity split in two
    random integer parts, the copies in random order."""
    mult = mesh.multiplicity.astype(int)
    first = rng.integers(0, mult + 1)
    both = np.concatenate([first, mult - first]).astype(float)
    tris = np.vstack([mesh.simplices, mesh.simplices])
    kept = both > 0
    order = rng.permutation(np.count_nonzero(kept))
    return vf.SimplicialSurface(mesh.vertices, tris[kept][order], both[kept][order])


class TestDecompositionOracle:
    """The array decomposition equals the loop over tuple keys, bit for bit."""

    @pytest.mark.parametrize("case", ["theorem4", "shuffled", "split"])
    def test_equals_the_loop(self, case):
        V, boundary = meshes.theorem4_varifold()
        rng = np.random.default_rng(7)
        if case == "shuffled":
            V, boundary = _shuffled(V, rng), _shuffled(boundary, rng)
        elif case == "split":
            # boundary simplices carrying 2 to 4, so that some keep a remainder
            extra = np.zeros(len(V.simplices))
            extra[:len(boundary.simplices)] = rng.integers(0, 3, len(boundary.simplices))
            V = vf.SimplicialSurface(V.vertices, V.simplices, V.multiplicity + extra)
            V = _split_duplicates(_shuffled(V, rng), rng)
        got, want = vf.decompose_integral(V, boundary), _decompose_by_loop(V, boundary)
        assert got[2] == want[2] == 2 and type(got[2]) is int
        for g, w in zip(got[:2], want[:2]):
            for name in ("vertices", "simplices", "multiplicity"):
                assert _bits(getattr(g, name)) == _bits(getattr(w, name))

    def test_boundary_of_another_dimension_is_not_carried(self):
        V, _ = meshes.theorem4_varifold()
        W, Wp, d = vf.decompose_integral(V, chord_polyline([0, 0, 1.0], [1.0, 0, 0]))
        assert (W, Wp, d) == (None, V, 0)


def _carried(*meshes_):
    """Multiplicity carried per simplex, summed over meshes on one vertex array."""
    total = {}
    for mesh in meshes_:
        for simplex, mu in zip(mesh.simplices.tolist(), mesh.multiplicity):
            key = tuple(sorted(simplex))
            total[key] = total.get(key, 0.0) + mu
    return total


class TestRepeatedBoundarySimplex:
    """A boundary mesh that lists a simplex k times owes d k of it."""

    VERTS = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                      [1.0, 1.0, 0.5], [2.0, 2.0, 2.0]])
    A, B, C = [0, 1, 2], [1, 2, 3], [2, 3, 4]

    def test_parts_sum_to_the_varifold(self):
        V = vf.SimplicialSurface(self.VERTS, [self.A, self.B, self.C], [1.0, 2.0, 1.0])
        bnd = vf.SimplicialSurface(self.VERTS, [self.A, self.B, self.B])
        W, Wp, d = vf.decompose_integral(V, bnd)
        assert d == 1
        assert _carried(W, Wp) == _carried(V)
        assert Wp.simplices.tolist() == [self.C]

    def test_listed_more_often_than_carried_is_an_error(self):
        V = vf.SimplicialSurface(self.VERTS, [self.A, self.B], [1.0, 2.0])
        bnd = vf.SimplicialSurface(self.VERTS, [self.B, self.B, self.B])
        with pytest.raises(vf.DecompositionError):
            vf.decompose_integral(V, bnd)


class TestSupportDistance:
    def test_atom_at_p(self):
        V = vf.DiscreteVarifold(2, np.zeros((1, 3)),
                                np.eye(3)[None, :2, :], np.ones(1))
        assert vf.support_distance(V.points, np.zeros(3)) == 0.0

    def test_sphere_from_center(self):
        V = vf.varifold_from_mesh(meshes.icosphere_mesh(subdivisions=3))
        d = vf.support_distance(V.points, np.zeros(3))
        assert d == pytest.approx(1.0, abs=0.01)

    def test_empty_rejected(self):
        with pytest.raises(vf.VarifoldError):
            vf.support_distance(np.zeros((0, 3)), np.zeros(3))


# property test: total weight is invariant under quadrature order
@settings(max_examples=15, deadline=None)
@given(st.integers(1, 5), st.sampled_from([1, 2, 4]))
def test_total_weight_order_invariant(divisions, order):
    mesh = square_mesh(divisions=divisions)
    V = vf.varifold_from_mesh(mesh, order=order)
    assert V.total_weight == pytest.approx(1.0, abs=1e-8)
