"""Projected-gradient area minimization tests."""
import numpy as np
import pytest

from mconvex import geometry as geo
from mconvex import meshes
from mconvex import minimizer as mini
from mconvex import varifold as vf

from testkit import chord_polyline, square_mesh


def _fd_area_gradient(mesh, metric, h=1e-6):
    """Central finite differences of ``vf.area``: the reference gradient."""
    grad = np.zeros_like(mesh.vertices)
    for v in range(len(mesh.vertices)):
        for k in range(mesh.n):
            for s, sign in ((h, 1.0), (-h, -1.0)):
                pert = mesh.vertices.copy()
                pert[v, k] += s
                grad[v, k] += sign * vf.area(mesh.with_vertices(pert), metric)
            grad[v, k] /= 2 * h
    return grad


def _perturbed(mesh, seed):
    """``mesh`` with jittered vertices and multiplicities 1 to 3."""
    rng = np.random.default_rng(seed)
    verts = mesh.vertices + 0.02 * rng.normal(size=mesh.vertices.shape)
    mult = rng.integers(1, 4, size=len(mesh.simplices)).astype(float)
    return vf.SimplicialSurface(verts, mesh.simplices, mult)


_DISK = _perturbed(meshes.disk_mesh(radius=0.3, center=(0.1, 0.0, 0.5), rings=2,
                                    segments=8), seed=1)
_POLYLINE = _perturbed(chord_polyline(np.array([-0.5, 0.0, 0.1]),
                                             np.array([0.5, 0.2, 0.3]), segments=10),
                       seed=2)
_NON_CONSTANT = {
    "conformal_x1": geo.metric_conformal("0.1*x1"),
    "conformal_x1_squared": geo.metric_conformal("x1^2"),
    "matrix": geo.MetricField(["1+x1^2", "0.2*x2", "0.1", "2+x3", "0.3*x1*x3", "1.5"]),
}


@pytest.fixture(scope="module")
def plateau_problem():
    """Disk with rim anchored at height 0.85 inside the unit ball."""
    dom = geo.domain_ball(radius=1.0)
    r = np.sqrt(1.0 - 0.85 ** 2) - 0.02
    mesh = meshes.disk_mesh(radius=r, center=(0.0, 0.0, 0.85), rings=6,
                            segments=48)
    # warp the interior downward so the start is non-flat
    verts = mesh.vertices.copy()
    rho = np.linalg.norm(verts[:, :2], axis=1)
    verts[:, 2] -= 0.2 * np.maximum(0.0, 1.0 - rho / r) ** 2
    warped = mesh.with_vertices(verts)
    return mini.MinimizeProblem(dom, warped, warped.boundary_vertices(),
                                max_iterations=3000, tolerance=1e-6)


class TestArea:
    def test_unit_square(self):
        assert mini.area(square_mesh(divisions=3)) == pytest.approx(1.0)

    def test_conformal_scaling(self):
        metric = geo.metric_conformal("0 - log(2)")
        mesh = square_mesh(divisions=2)
        assert mini.area(mesh, metric) == pytest.approx(0.25)


class TestProjection:
    def test_interior_unchanged(self):
        dom = geo.domain_ball(radius=1.0)
        x = np.array([0.1, 0.2, -0.3])
        np.testing.assert_array_equal(mini.project_to_domain(x, dom), x)

    def test_exterior_snaps_to_sphere(self):
        dom = geo.domain_ball(radius=1.0)
        x = np.array([[1.5, 0.0, 0.0], [0.0, -2.0, 1.0]])
        y = mini.project_to_domain(x, dom)
        assert np.max(np.abs(dom.u0.value(y))) <= 1e-10

    def test_batch_mixed(self):
        dom = geo.domain_ball(radius=1.0)
        x = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        y = mini.project_to_domain(x, dom)
        np.testing.assert_array_equal(y[0], x[0])
        assert np.linalg.norm(y[1]) == pytest.approx(1.0, abs=1e-10)


class TestGradient:
    def test_matches_finite_differences(self):
        mesh = meshes.disk_mesh(radius=0.5, rings=3, segments=12)
        verts = mesh.vertices.copy()
        rng = np.random.default_rng(0)
        verts += 0.02 * rng.normal(size=verts.shape)
        mesh = mesh.with_vertices(verts)
        g = mini.area_gradient(mesh)
        h = 1e-6
        rel_err = 0.0
        for v in rng.choice(len(verts), size=10, replace=False):
            for i in range(3):
                vp = verts.copy(); vp[v, i] += h
                vm = verts.copy(); vm[v, i] -= h
                fd = (vf.area(mesh.with_vertices(vp)) -
                      vf.area(mesh.with_vertices(vm))) / (2 * h)
                rel_err = max(rel_err, abs(g[v, i] - fd) / (1.0 + abs(fd)))
        assert rel_err <= 1e-6

    def test_conformal_constant_factor(self):
        metric = geo.metric_conformal("0 - log(2)")
        mesh = meshes.disk_mesh(radius=0.5, rings=3, segments=12)
        np.testing.assert_allclose(mini.area_gradient(mesh, metric),
                                   0.25 * mini.area_gradient(mesh), atol=1e-12)

    def test_translation_invariance(self):
        mesh = meshes.disk_mesh(radius=0.5, rings=3, segments=12)
        g = mini.area_gradient(mesh)
        np.testing.assert_allclose(np.sum(g, axis=0), 0.0, atol=1e-10)


class TestMetricAreaGradient:
    # the finite-difference oracle has an h^2 truncation and an area-rounding
    # floor of about 1e-16 / h; both lie far below 1e-8 on these meshes
    @pytest.mark.parametrize("metric", sorted(_NON_CONSTANT))
    @pytest.mark.parametrize("mesh", [_DISK, _POLYLINE], ids=["disk", "polyline"])
    def test_matches_finite_differences(self, mesh, metric):
        metric = _NON_CONSTANT[metric]
        np.testing.assert_allclose(vf.metric_area_gradient(mesh, metric),
                                   _fd_area_gradient(mesh, metric), rtol=0, atol=1e-8)

    @pytest.mark.parametrize("metric, c", [
        pytest.param(None, 1.0, id="euclidean"),
        pytest.param(geo.metric_conformal("0 - log(2)"), 0.5, id="conformal_constant"),
    ])
    @pytest.mark.parametrize("mesh", [_DISK, _POLYLINE], ids=["disk", "polyline"])
    def test_constant_factor_scales_euclidean_gradient(self, mesh, metric, c):
        # the constant-c path returns c^m times the altitude-form euclidean
        # gradient; the finite-difference oracle checks both factors
        g = vf.metric_area_gradient(mesh, metric)
        np.testing.assert_allclose(g, _fd_area_gradient(mesh, metric), rtol=0, atol=1e-8)
        np.testing.assert_allclose(g, c ** mesh.m * _fd_area_gradient(mesh, None),
                                   rtol=0, atol=1e-8)

    def test_translation_invariance_of_constant_metric(self):
        metric = geo.MetricField(["2", "0.3", "0.1", "1.5", "0.2", "1"])
        g = vf.metric_area_gradient(_DISK, metric)
        assert np.max(np.abs(g)) > 0.1
        np.testing.assert_allclose(np.sum(g, axis=0), 0.0, atol=1e-12)

    def test_minimizer_lowers_no_varifold(self, monkeypatch):
        calls = []

        def counting(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        for name in ("area", "varifold_from_mesh"):
            monkeypatch.setattr(vf, name, counting(getattr(vf, name)))
        g = mini.area_gradient(_DISK, _NON_CONSTANT["conformal_x1"])
        assert g.shape == _DISK.vertices.shape
        assert calls == []


class TestMinimize:
    def test_disk_converges_to_flat(self, plateau_problem):
        final, report = mini.minimize(plateau_problem)
        assert report.converged
        assert report.residual <= plateau_problem.tolerance
        free = np.setdiff1d(np.arange(len(final.vertices)),
                            plateau_problem.anchored)
        assert np.max(np.abs(final.vertices[free, 2] - 0.85)) <= 1e-4

    def test_history_monotone(self, plateau_problem):
        _, report = mini.minimize(plateau_problem)
        areas = np.asarray(report.history)[:, 1]
        assert np.all(np.diff(areas) <= 1e-12 * areas[0])
        assert report.final_area == pytest.approx(areas[-1])

    def test_constraint_respected(self, plateau_problem):
        final, _ = mini.minimize(plateau_problem)
        assert np.min(plateau_problem.domain.u0.value(final.vertices)) >= -1e-10

    def test_chord_straightens(self):
        dom = geo.domain_ball(radius=1.0)
        a, b = np.array([-0.8, 0.0, 0.0]), np.array([0.8, 0.0, 0.0])
        chord = chord_polyline(a, b, segments=32)
        verts = chord.vertices.copy()
        t = np.linspace(0, 1, len(verts))
        verts[:, 1] += 0.2 * np.sin(np.pi * t)
        bent = chord.with_vertices(verts)
        # the 1/length Laplacian solve puts the chain on the segment in one step
        prob = mini.MinimizeProblem(dom, bent, np.array([0, len(verts) - 1]),
                                    max_iterations=3, tolerance=1e-8)
        final, report = mini.minimize(prob)
        assert report.converged
        assert report.final_area == pytest.approx(1.6, abs=1e-12)
        assert np.max(np.abs(final.vertices[:, 1])) <= 1e-10

    def test_anchor_on_boundary_rejected(self):
        dom = geo.domain_ball(radius=1.0)
        mesh = meshes.disk_mesh(radius=0.3, center=(0.0, 0.0, 0.0))
        verts = mesh.vertices.copy()
        verts[0] = [1.0, 0.0, 0.0]
        bad = mesh.with_vertices(verts)
        with pytest.raises(mini.MinimizeError):
            mini.MinimizeProblem(dom, bad, np.array([0]))

    def test_report_csv(self, plateau_problem, tmp_path):
        _, report = mini.minimize(plateau_problem)
        path = tmp_path / "history.csv"
        report.to_csv(path)
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape[0] == len(report.history)


def _start_report(mesh, domain, anchored=None):
    """The report of ``mesh`` itself: an infinite tolerance stops ``minimize``
    at its first evaluation, before any step."""
    anchored = mesh.boundary_vertices() if anchored is None else anchored
    problem = mini.MinimizeProblem(domain, mesh, anchored, max_iterations=1, tolerance=np.inf)
    final, report = mini.minimize(problem)
    assert report.converged and len(report.history) == 1
    np.testing.assert_array_equal(final.vertices, mesh.vertices)
    return report


def _max_interior_mean_curvature(mesh, metric):
    """max |H|_g over interior vertices, from ``vf.mesh_mean_curvature``."""
    H, interior = vf.mesh_mean_curvature(mesh, metric)
    c = 1.0 if metric is None else metric.constant_factor()
    return float(np.max(c * np.linalg.norm(H[interior], axis=-1)))


class TestStationarity:
    """``stationarity_residual``: max_v |P_v grad A_v|_g / A_v over free vertices."""

    @pytest.mark.parametrize("rings, segments", [(6, 48), (12, 96)])
    def test_flat_disk_reads_zero(self, rings, segments):
        r = np.sqrt(1.0 - 0.85 ** 2) - 0.02
        disk = meshes.disk_mesh(radius=r, center=(0.0, 0.0, 0.85), rings=rings,
                                segments=segments)
        report = _start_report(disk, geo.domain_ball(radius=1.0))
        assert report.stationarity_residual <= 1e-10

    def test_sphere_cap_reads_its_mean_curvature(self, theorem5_cap):
        # a band of the radius-2 sphere: H = 1
        report = _start_report(theorem5_cap, geo.domain_ball(radius=1.0))
        assert report.stationarity_residual == pytest.approx(1.0, rel=0.01)

    @pytest.mark.parametrize("metric", [None, geo.metric_conformal("0 - log(2)")],
                             ids=["euclidean", "conformal_constant"])
    @pytest.mark.parametrize("mesh", ["band", "jittered_cap"])
    def test_equals_mean_curvature(self, mesh, metric, theorem5_cap, unit_sphere_cap):
        # free interior vertices with P_v = I: the residual is max |H|_g,
        # which is twice the euclidean value under g = delta / 4
        mesh = theorem5_cap if mesh == "band" else unit_sphere_cap(8, 48, jitter=0.25)
        report = _start_report(mesh, geo.domain_ball(radius=1.0, metric=metric))
        expect = _max_interior_mean_curvature(mesh, metric)
        assert expect > 0.9
        assert report.stationarity_residual == pytest.approx(expect, rel=1e-12)

    def test_constant_matrix_metric_is_a_change_of_coordinates(self, unit_sphere_cap):
        # g = A^T A makes the mesh isometric to its image under x -> A x, so
        # the residual (g^-1 norm over metric vertex areas) must equal the
        # euclidean residual of the image
        entries = ["2", "0.3", "0.1", "1.5", "0.2", "1"]
        G = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, 0.2], [0.1, 0.2, 1.0]])
        A = np.linalg.cholesky(G).T
        mesh = unit_sphere_cap(8, 48, jitter=0.25)
        image = mesh.with_vertices(mesh.vertices @ A.T)
        metric = geo.MetricField(entries)
        assert metric.constant_factor() is None
        got = _start_report(mesh, geo.domain_ball(radius=10.0, metric=metric))
        expect = _start_report(image, geo.domain_ball(radius=10.0))
        assert expect.stationarity_residual > 0.9
        assert got.stationarity_residual == pytest.approx(expect.stationarity_residual,
                                                          rel=1e-9)

    def test_bulged_start_and_its_minimizer(self):
        start = meshes.bulged_disk_mesh(8, 64, 0.05)
        dom = geo.domain_ball(radius=1.0)
        assert _start_report(start, dom).stationarity_residual > 1.0
        final, report = mini.minimize(mini.MinimizeProblem(dom, start,
                                                           start.boundary_vertices()))
        assert report.converged
        assert report.stationarity_residual < 1e-8
        assert report.stationarity_residual == _start_report(
            final, dom, start.boundary_vertices()).stationarity_residual

    def test_anchors_are_not_tested(self, theorem5_cap):
        # every vertex anchored: nothing is free to vary
        report = _start_report(theorem5_cap, geo.domain_ball(radius=1.0),
                               np.arange(len(theorem5_cap.vertices)))
        assert report.stationarity_residual == 0.0

    def test_builds_no_varifold_and_no_extra_gradient(self, monkeypatch):
        calls = []

        def counting(owner, name):
            fn = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        counting(vf, "varifold_from_mesh")
        counting(mini, "area_gradient")
        start = meshes.bulged_disk_mesh(4, 24, 0.05)
        problem = mini.MinimizeProblem(geo.domain_ball(radius=1.0), start,
                                       start.boundary_vertices())
        _, report = mini.minimize(problem)
        assert report.converged
        assert calls == ["area_gradient"] * report.iterations


class TestIterationCap:
    """When the cap ends the run after an accepted step, the report describes
    the mesh that ``minimize`` returns."""

    def test_report_describes_the_returned_mesh(self):
        start = meshes.bulged_disk_mesh(8, 64, 0.05)
        dom = geo.domain_ball(radius=1.0)
        problem = mini.MinimizeProblem(dom, start, start.boundary_vertices(),
                                       max_iterations=1)
        final, report = mini.minimize(problem)
        again = _start_report(final, dom, problem.anchored)
        assert report.iterations == 1
        assert [row[0] for row in report.history] == [1, 2]
        assert report.history[0][2] > problem.tolerance
        assert report.residual == again.residual <= problem.tolerance
        assert report.converged
        assert report.stationarity_residual == again.stationarity_residual < 1e-8
        assert report.history[-1] == (2, report.final_area, again.residual,
                                      again.history[0][3])


def _dense_stiffness(mesh):
    """Dense V x V stiffness Laplacian from triangle angles (arccos), or from
    segment lengths for m = 1: the oracle of the edge-list solve."""
    nv = len(mesh.vertices)
    L = np.zeros((nv, nv))
    for simplex, mult in zip(mesh.simplices, mesh.multiplicity):
        if mesh.m == 1:
            i, j = simplex
            pairs = [(i, j, mult / np.linalg.norm(mesh.vertices[i] - mesh.vertices[j]))]
        else:
            pairs = []
            for k in range(3):
                i, j, o = simplex[(k + 1) % 3], simplex[(k + 2) % 3], simplex[k]
                a, b = mesh.vertices[i] - mesh.vertices[o], mesh.vertices[j] - mesh.vertices[o]
                angle = np.arccos(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
                pairs.append((i, j, 0.5 * mult / np.tan(angle)))
        for i, j, w in pairs:
            L[i, i] += w
            L[j, j] += w
            L[i, j] -= w
            L[j, i] -= w
    return L


def _flat_polygon_area(segments, radius):
    return 0.5 * segments * np.sin(2.0 * np.pi / segments) * radius ** 2


class TestLaplacianStep:
    """The preconditioned step: one edge-list CG solve of c^m P L P per step."""

    @pytest.mark.parametrize("mesh", [_DISK, _POLYLINE], ids=["disk", "polyline"])
    def test_laplacian_of_positions_is_the_area_gradient(self, mesh):
        # L x, with multiplicities 1 to 3, against finite differences of the area
        np.testing.assert_allclose(vf.area_vertex_gradient(mesh),
                                   _fd_area_gradient(mesh, None), rtol=0, atol=1e-8)

    @pytest.mark.parametrize("tangent", [False, True], ids=["free", "tangent"])
    @pytest.mark.parametrize("mesh", [
        _perturbed(meshes.disk_mesh(radius=0.5, rings=4, segments=12), seed=3), _POLYLINE,
    ], ids=["disk", "polyline"])
    def test_cg_matches_dense_solve(self, mesh, tangent):
        # perturbed meshes with multiplicities 1 to 3; the boundary is
        # anchored (P = 0), and with ``tangent`` every other free vertex may
        # move only orthogonally to a random unit vector (P = I - nu nu^T)
        nv, n = mesh.vertices.shape
        rng = np.random.default_rng(4)
        proj = np.tile(np.eye(n), (nv, 1, 1))
        proj[mesh.boundary_vertices()] = 0.0
        if tangent:
            free = np.setdiff1d(np.arange(nv), mesh.boundary_vertices())
            for v in free[::2]:
                nu = rng.normal(size=n)
                nu /= np.linalg.norm(nu)
                proj[v] -= np.outer(nu, nu)
        rhs = rng.normal(size=(nv, n))
        x, steps = mini.laplacian_solve(vf.stiffness_laplacian(mesh), rhs, proj)
        # dense oracle: solve B^T (L kron I) B y = B^T rhs on an orthonormal
        # basis B of the range of P
        big = np.kron(_dense_stiffness(mesh), np.eye(n))
        basis = []
        for v in range(nv):
            vals, vecs = np.linalg.eigh(proj[v])
            for k in np.nonzero(vals > 0.5)[0]:
                col = np.zeros(nv * n)
                col[v * n:(v + 1) * n] = vecs[:, k]
                basis.append(col)
        B = np.array(basis).T
        y = np.linalg.solve(B.T @ big @ B, B.T @ rhs.ravel())
        assert 0 < steps <= mini.CG_STEPS_PER_VERTEX * nv
        np.testing.assert_allclose(x.ravel(), B @ y, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("rings, segments", [(8, 48), (12, 72), (16, 96)],
                             ids=["385", "865", "1537"])
    def test_plain_cap_converges(self, unit_sphere_cap, rings, segments):
        cap = unit_sphere_cap(rings, segments)
        problem = mini.MinimizeProblem(geo.domain_ball(radius=1.0), cap,
                                       cap.boundary_vertices(), max_iterations=3)
        final, report = mini.minimize(problem)
        assert report.converged
        assert report.final_area == pytest.approx(
            _flat_polygon_area(segments, 0.5 * (1.0 - 1e-4)), abs=1e-12)
        assert report.line_search_halvings == 0
        assert report.active_boundary_vertices == 0

    @pytest.mark.parametrize("rings, segments", [(8, 48), (12, 72)], ids=["385", "865"])
    def test_jittered_cap_converges(self, unit_sphere_cap, rings, segments):
        cap = unit_sphere_cap(rings, segments, jitter=0.25, seed=1)
        problem = mini.MinimizeProblem(geo.domain_ball(radius=1.0), cap,
                                       cap.boundary_vertices(), max_iterations=6)
        _, report = mini.minimize(problem)
        assert report.converged
        assert report.final_area == pytest.approx(
            _flat_polygon_area(segments, 0.5 * (1.0 - 1e-4)), abs=1e-12)

    def test_stall_reproducer_converges(self):
        # the 513-vertex bulged disk on which the spectral-step minimizer stalled
        start = meshes.bulged_disk_mesh(8, 64, 0.05989008567972312)
        problem = mini.MinimizeProblem(geo.domain_ball(radius=1.0), start,
                                       start.boundary_vertices(), max_iterations=5)
        _, report = mini.minimize(problem)
        assert report.converged
        assert report.final_area == pytest.approx(_flat_polygon_area(64, 0.3), abs=1e-12)

    def test_binding_obstacle(self):
        # a flat disk through the ball of radius 0.2 about (0, 0, 0.05): the
        # start's inner vertices are snapped onto the obstacle, and descent
        # must hold some of them tangent to it
        dom = geo.domain_levelset("x1^2+x2^2+(x3-0.05)^2-0.04", [[-1.0, 1.0]] * 3)
        disk = meshes.disk_mesh(radius=0.6, rings=4, segments=32)
        problem = mini.MinimizeProblem(dom, disk, disk.boundary_vertices(),
                                       max_iterations=300)
        final, report = mini.minimize(problem)
        assert report.converged
        assert report.active_boundary_vertices > 0
        assert np.min(dom.u0.value(final.vertices)) >= -1e-10
        areas = np.asarray(report.history)[:, 1]
        assert np.all(np.diff(areas) <= 1e-12 * areas[0])

    @pytest.mark.parametrize("case", ["obstacle", "stall_reproducer", "chord"])
    def test_reported_residual_uses_the_step_projectors(self, case):
        # the stopping residual is max |P grad A| with the projectors the
        # step uses; on the obstacle some of them are tangent
        dom = geo.domain_ball(radius=1.0)
        if case == "obstacle":
            dom = geo.domain_levelset("x1^2+x2^2+(x3-0.05)^2-0.04", [[-1.0, 1.0]] * 3)
            start = meshes.disk_mesh(radius=0.6, rings=4, segments=32)
        elif case == "stall_reproducer":
            start = meshes.bulged_disk_mesh(8, 64, 0.05989008567972312)
        else:
            start = chord_polyline(np.array([-0.8, 0.0, 0.0]), np.array([0.8, 0.1, 0.0]))
        problem = mini.MinimizeProblem(dom, start, start.boundary_vertices(),
                                       max_iterations=300)
        final, report = mini.minimize(problem)
        assert report.converged
        free = np.ones(len(final.vertices), dtype=bool)
        free[problem.anchored] = False
        grad = mini.area_gradient(final)
        proj, active = mini._projectors(final, grad, dom, free,
                                        dom.u0.value(final.vertices))
        residual = np.max(np.linalg.norm(np.einsum("vab,vb->va", proj, grad), axis=-1))
        assert report.residual == residual
        if case == "obstacle":
            assert active > 0
            assert residual < np.max(np.linalg.norm(grad[free], axis=-1))

    def test_constant_factor_step_matches_euclidean(self):
        # g = delta / 4 scales the gradient by c^2 = 1/4, and c^2 L undoes it
        start = meshes.bulged_disk_mesh(4, 24, 0.05)
        steps = []
        for metric in (None, geo.metric_conformal("0 - log(2)")):
            problem = mini.MinimizeProblem(geo.domain_ball(radius=1.0, metric=metric), start,
                                           start.boundary_vertices(), max_iterations=1)
            final, report = mini.minimize(problem)
            # the start is not stationary, so the one iteration takes a step
            assert report.history[0][2] > problem.tolerance
            steps.append(final.vertices)
        assert np.max(np.abs(steps[0] - start.vertices)) > 1e-3
        np.testing.assert_allclose(steps[1], steps[0], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("metric", [None, geo.metric_conformal("0 - log(2)"),
                                        geo.metric_conformal("0.1*x1")],
                             ids=["euclidean", "conformal_constant", "conformal_x1"])
    def test_one_laplacian_per_step(self, metric, monkeypatch):
        # each step builds its mesh's Laplacian once; under a constant factor
        # the area gradient reads it as well, so the stationary last mesh,
        # which takes no step, builds one too
        built = []
        laplacian = vf.stiffness_laplacian

        def counting(mesh):
            built.append(mesh)
            return laplacian(mesh)

        monkeypatch.setattr(vf, "stiffness_laplacian", counting)
        start = meshes.bulged_disk_mesh(4, 24, 0.05)
        problem = mini.MinimizeProblem(geo.domain_ball(radius=1.0, metric=metric), start,
                                       start.boundary_vertices(), max_iterations=5)
        _, report = mini.minimize(problem)
        assert report.iterations >= 2 and report.converged
        constant = metric is None or metric.constant_factor() is not None
        assert len(built) == report.iterations - 1 + constant
        assert len({id(mesh) for mesh in built}) == len(built)


class TestProblem:
    @pytest.mark.parametrize("anchors", [[-1, -1], [0, 1, 999]], ids=["negative", "past_end"])
    def test_anchor_index_out_of_range_rejected(self, anchors):
        disk = meshes.disk_mesh(radius=0.3, center=(0.0, 0.0, 0.5), rings=2, segments=8)
        with pytest.raises(mini.MinimizeError, match="anchored vertex indices"):
            mini.MinimizeProblem(geo.domain_ball(radius=1.0), disk, np.array(anchors))

    def test_repeated_anchors_counted_once(self):
        disk = meshes.disk_mesh(radius=0.3, center=(0.0, 0.0, 0.5), rings=2, segments=8)
        rim = disk.boundary_vertices()
        problem = mini.MinimizeProblem(geo.domain_ball(radius=1.0), disk,
                                       np.concatenate([rim, rim[::-1]]))
        np.testing.assert_array_equal(problem.anchored, rim)
