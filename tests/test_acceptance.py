"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run order matters only for readability; every test is independent and uses
the session fixtures from conftest.py where geometry is shared.
"""
import time

import numpy as np
import pytest

from mconvex import barrier as bar
from mconvex import geometry as geo
from mconvex import harness as hz
from mconvex import meshes
from mconvex import varifold as vf

from testkit import field_magnitude, position_field, square_mesh


def _random_tube_mesh(bundle, rng, patch_scale=0.25, rings=3, segments=12):
    """Small random disk inside the tube of a barrier bundle.

    Draws a center in the working chart until the whole patch lies inside N
    with 0 <= u < epsilon, so the barrier field is genuinely nonzero on it.
    """
    lo, hi = bundle.chart[:, 0], bundle.chart[:, 1]
    for _ in range(400):
        c = lo + (hi - lo) * rng.random(len(lo))
        r = patch_scale * bundle.epsilon / bundle.sigma.c
        normal = rng.standard_normal(3)
        mesh = meshes.disk_mesh(radius=r, center=c, normal=normal, rings=rings,
                                segments=segments)
        data = bar.tube_eval(bundle.sigma, mesh.vertices)
        if np.all(data.valid) and np.all(data.u >= 0.05 * bundle.epsilon) \
                and np.all(data.u <= 0.9 * bundle.epsilon) \
                and np.all(bundle.domain.contains(mesh.vertices)):
            return mesh
    raise RuntimeError("could not place a random mesh inside the tube")


def _report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_barrier_certificate(ball_bundle, capsys):
    t0 = time.monotonic()
    b = ball_bundle
    assert b.m == 2 and b.eta == 1.0
    assert b.epsilon > 0 and b.epsilon <= b.K ** -0.5
    rep = bar.verify_barrier(b, grid_resolution=50, threads=1)
    elapsed = time.monotonic() - t0
    ok = rep.passed and rep.worst_margin <= 1e-7 and elapsed <= 30.0
    _report(capsys, 1, ok,
            f"worst normalized margin {rep.worst_margin:.3e} on 50^3 grid, "
            f"K={b.K:.3f}, eps={b.epsilon:.4f}, {elapsed:.1f}s single-threaded")


def test_criterion_2_adapted_frame(ball_bundle, tube_points, cutoff_derivative,
                                   adapted_frame_Q, capsys):
    b = ball_bundle
    worst_off = 0.0
    chain_ok = True
    for q in tube_points:
        M = adapted_frame_Q(b, q)
        data = bar.tube_eval(b.sigma, q)
        phi = bar.cutoff(data.u, b.epsilon)
        dphi = cutoff_derivative(data.u, b.epsilon)
        bound = phi * b.K + abs(dphi)
        off = np.max(np.abs(M - np.diag(np.diagonal(M))))
        worst_off = max(worst_off, off / bound)
        # ordering chain: -phi k_1 >= ... >= -phi k_{n-1} >= phi'
        diag = np.diagonal(M)
        chain_ok &= bool(np.all(np.diff(diag) <= 1e-10)) and \
            diag[-1] == pytest.approx(dphi, abs=1e-8)
    ok = worst_off <= 1e-6 and chain_ok
    _report(capsys, 2, ok,
            f"{len(tube_points)} tube samples: off-diagonal/(phi K + |phi'|) "
            f"<= {worst_off:.3e}, ordering chain {'holds' if chain_ok else 'broken'}")


def test_criterion_3_psi_oracle(ball_bundle, tube_points, capsys):
    b = ball_bundle
    X = b.field()
    rng = np.random.default_rng(5)
    pts = tube_points[:100]
    Q = geo.bilinear_form_Q(X, pts, b.domain.metric)
    top = geo.top_m_eigensum(Q, b.m)
    best = np.full(len(pts), -np.inf)
    dominated = True
    for _ in range(100):  # 100 frames x 100 points = 10^4 m-frames
        F, _ = np.linalg.qr(rng.normal(size=(len(pts), 3, b.m)))
        tr = np.einsum("fam,fab,fbm->f", F, Q, F)
        dominated &= bool(np.all(tr <= top + 1e-10))
        best = np.maximum(best, tr)
    gap = float(np.max(top - best))
    data = bar.tube_eval(b.sigma, pts)
    closed = -bar.cutoff(data.u, b.epsilon) * np.sum(data.curvatures[:, :b.m], axis=-1)
    closed_err = float(np.max(np.abs(top - closed)))
    ok = dominated and gap <= 1e-2 and closed_err <= 1e-5
    _report(capsys, 3, ok,
            f"eigen-sum dominates 10^4 random 2-frames at 100 points, "
            f"best-sample gap {gap:.3e}, closed form within {closed_err:.3e}")


@pytest.fixture(scope="module")
def tube_mesh_battery(ball_bundle):
    meshes_ = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        meshes_.append(_random_tube_mesh(ball_bundle, rng))
    return meshes_


def test_criterion_4_first_variation_oracle(ball_bundle, tube_mesh_battery,
                                            unit_disk_mesh, flow_mesh, capsys):
    X = ball_bundle.field()
    worst_C = 0.0
    stable = True
    for mesh in tube_mesh_battery:
        V = vf.varifold_from_mesh(mesh, order=4)
        dv = vf.first_variation(V, X)
        base = vf.area(mesh, order=4)
        C = [abs(dv - (vf.area(flow_mesh(mesh, X, t), order=4) - base) / t) / t
             for t in (1e-2, 1e-3, 1e-4)]
        worst_C = max(worst_C, max(C))
        stable &= max(C) <= 10.0 * min(C) + 1e-6
    V = vf.varifold_from_mesh(unit_disk_mesh)
    disk_dv = vf.first_variation(V, position_field(3))
    disk_ok = abs(disk_dv - 2 * np.pi) <= 1e-3
    ok = stable and disk_ok
    _report(capsys, 4, ok,
            f"20 random tube meshes: |dV - FD| <= C t with C <= {worst_C:.3e} "
            f"stable across t in {{1e-2,1e-3,1e-4}}; disk position field "
            f"dV = {disk_dv:.6f} (2 pi +- 1e-3)")


def test_criterion_5_integral_inequality(ball_bundle, tube_mesh_battery, capsys):
    X = ball_bundle.field()
    eta = ball_bundle.eta
    worst = -np.inf
    for mesh in tube_mesh_battery:
        V = vf.varifold_from_mesh(mesh, order=4)
        dv = vf.first_variation(V, X)
        mass = vf.weight_integral(V, field_magnitude(X))
        worst = max(worst, (dv + eta * mass) / V.total_weight)
    ok = worst <= 1e-6
    _report(capsys, 5, ok,
            f"dV(X) + eta int |X| <= {worst:.3e} x area on all 20 tube meshes")


def test_criterion_6_theorem1_pipeline(capsys):
    t0 = time.monotonic()
    rep = hz.run_scenario("theorem1")  # anchored r=0.3 circle 0.15 below north pole
    elapsed = time.monotonic() - t0
    ok = (rep["status"] == "passed"
          and rep["minimizer"]["residual"] <= 1e-6
          and rep["support_distance"] >= rep["epsilon"] - rep["chord_tolerance"]
          and elapsed <= 120.0)
    _report(capsys, 6, ok,
            f"minimized to residual {rep['minimizer']['residual']:.2e}, support "
            f"distance {rep['support_distance']:.4f} >= eps {rep['epsilon']:.4f} "
            f"- {rep['chord_tolerance']:.4f}, {elapsed:.1f}s")


def test_criterion_7_theorem5_pipeline(capsys):
    # |H| -> 1 under refinement, within 5% at ~5k triangles
    devs = []
    for rings, segments in [(12, 50), (25, 100)]:
        mesh = meshes.sphere_cap_mesh(rings=rings, segments=segments)
        H, interior = vf.mesh_mean_curvature(mesh)
        mags = np.linalg.norm(H[interior], axis=-1)
        devs.append(float(np.max(np.abs(mags - 1.0))))
    tris_fine = 2 * 25 * 100
    refine_ok = devs[1] <= devs[0] and devs[1] <= 0.05 and tris_fine >= 5000
    rep = hz.scenario_theorem5(hz.ScenarioConfig(h=1.0))
    refusal = hz.scenario_theorem5(hz.ScenarioConfig(h=3.0))
    ok = refine_ok and rep["status"] == "passed" and refusal["status"] == "refused"
    _report(capsys, 7, ok,
            f"|H| within {100 * devs[1]:.2f}% of 1 at {tris_fine} triangles "
            f"(coarse {100 * devs[0]:.2f}%), h=1 excluded with eps "
            f"{rep.get('epsilon', float('nan')):.4f}, h=3 refused")


def test_criterion_8_metric_family_pipeline(capsys):
    r3 = hz.scenario_theorem3(hz.ScenarioConfig(family_range=(0, 10)))
    r6 = hz.scenario_theorem6(hz.ScenarioConfig(h=1.0, family_range=(0, 10)))
    runs = [r for r in r3["runs"] if "exclusion_margin" in r]
    margins_ok = all(r["exclusion_margin"] >= 0.0 for r in runs
                     if r["i"] >= r3["i0"])
    hd = [r["hausdorff_to_limit"] for r in runs]
    mesh_tol = 2.0 * hz._default_plateau_mesh().max_edge_length()
    hausdorff_ok = all(b <= a + 2.0 * mesh_tol for a, b in zip(hd, hd[1:]))
    ok = (r3["status"] == "passed" and r6["status"] == "passed"
          and margins_ok and hausdorff_ok)
    _report(capsys, 8, ok,
            f"(1 + 2^-i) euclidean family, i <= 10: exclusion for all "
            f"i >= i0 = {r3['i0']}, supports Hausdorff-monotone "
            f"(max {max(hd):.2e}), bounded-mc variant i0 = {r6['i0']}")


def test_criterion_9_decomposition(capsys):
    bnd = meshes.icosphere_mesh(subdivisions=2)
    disk = meshes.disk_mesh(radius=0.4, rings=4, segments=24)
    V = vf.SimplicialSurface(
        np.vstack([bnd.vertices, disk.vertices]),
        np.vstack([bnd.simplices, disk.simplices + len(bnd.vertices)]),
        np.concatenate([3 * np.ones(len(bnd.simplices)),
                        np.ones(len(disk.simplices))]))
    W, Wp, d = vf.decompose_integral(V, bnd)
    exact = (d == 3 and np.all(W.multiplicity == 3.0)
             and len(W.simplices) == len(bnd.simplices)
             and len(Wp.simplices) == len(disk.simplices))
    planes = [square_mesh(side=0.5, center=(0, 0, 2.0 ** -i),
                                 multiplicity=2.0 ** -i) for i in range(1, 11)]
    offs = np.cumsum([0] + [len(m.vertices) for m in planes[:-1]])
    stack = vf.SimplicialSurface(
        np.vstack([m.vertices for m in planes]),
        np.vstack([m.simplices + o for o, m in zip(offs, planes)]),
        np.concatenate([m.multiplicity for m in planes]))
    try:
        vf.decompose_integral(stack, bnd)
        rejected = False
    except vf.NonIntegralError:
        rejected = True
    ok = exact and rejected
    _report(capsys, 9, ok,
            f"V = 3 dN + disk split exactly (d = {d}); "
            f"2^-i-multiplicity planes rejected as non-integral: {rejected}")


def test_criterion_10_eikonal_and_cutoff(ball_bundle, tube_points, u_field,
                                        cutoff_derivative, capsys):
    b = ball_bundle
    u = u_field(b)
    grad = u.gradient(tube_points)
    eikonal = float(np.max(np.abs(np.linalg.norm(grad, axis=-1) - 1.0)))
    h = 1e-5
    data0 = bar.tube_eval(b.sigma, tube_points)
    data1 = bar.tube_eval(b.sigma, tube_points + h * data0.nu * b.sigma.c)
    conn = float(np.max(np.linalg.norm((data1.nu - data0.nu) / h, axis=-1)))
    t = np.linspace(0.0, b.epsilon * (1 - 1e-12), 1000)
    phi = bar.cutoff(t, b.epsilon)
    dphi = cutoff_derivative(t, b.epsilon)
    bound_eps = bool(np.all(dphi <= -phi / b.epsilon ** 2 + 1e-300))
    bound_K = bool(np.all(dphi <= -b.K * phi + 1e-300))
    ok = eikonal <= 1e-6 and conn <= 1e-5 and bound_eps and bound_K
    _report(capsys, 10, ok,
            f"||grad u| - 1| <= {eikonal:.3e}, |grad_nu nu| <= {conn:.3e} at "
            f"10^3 samples; phi' <= -phi/eps^2: {bound_eps}, "
            f"phi' <= -K phi: {bound_K} on 10^3-point t-grid")
