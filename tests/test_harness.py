"""Scenario pipeline tests: hypothesis gates, determinism, and quick runs."""
import dataclasses

import numpy as np
import pytest

from mconvex import barrier as bar
from mconvex import geometry as geo
from mconvex import harness as hz
from mconvex import meshes
from mconvex import varifold as vf

from testkit import chord_polyline


class TestHausdorff:
    def test_identical_sets(self):
        A = np.random.default_rng(0).normal(size=(100, 3))
        assert hz.hausdorff_distance(A, A.copy()) == 0.0

    def test_concentric_spheres(self):
        A = meshes.icosphere_mesh(radius=1.0, subdivisions=3).vertices
        B = meshes.icosphere_mesh(radius=1.2, subdivisions=3).vertices
        assert hz.hausdorff_distance(A, B) == pytest.approx(0.2, abs=0.01)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        A = rng.normal(size=(50, 3))
        B = rng.normal(size=(80, 3))
        assert hz.hausdorff_distance(A, B) == hz.hausdorff_distance(B, A)

    def test_single_points(self):
        assert hz.hausdorff_distance(np.zeros((1, 3)),
                                     np.array([[3.0, 4.0, 0.0]])) == 5.0

    def test_chunking_does_not_change_the_distance(self, monkeypatch):
        rng = np.random.default_rng(2)
        A = rng.normal(size=(300, 3))
        B = rng.normal(size=(400, 3)) + 0.5
        whole = hz.hausdorff_distance(A, B)
        d_ab = np.max(np.min(np.linalg.norm(A[:, None] - B[None], axis=-1), axis=1))
        d_ba = np.max(np.min(np.linalg.norm(B[:, None] - A[None], axis=-1), axis=1))
        assert whole == max(d_ab, d_ba)
        # 7 rows of A per block: the last block is partial
        monkeypatch.setattr(hz, "_BLOCK_ENTRIES", 7 * 400)
        assert hz.hausdorff_distance(A, B) == whole


def _brute_hausdorff(A, B):
    """The Hausdorff distance from the whole norm matrix."""
    d = np.linalg.norm(A[:, None, :] - B[None, :, :], axis=-1)
    return float(max(np.max(np.min(d, axis=1)), np.max(np.min(d, axis=0))))


class TestHausdorffOracle:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("rows", [1, 7, 64])
    def test_equals_the_full_norm_matrix_across_blocks(self, n, rows, monkeypatch):
        rng = np.random.default_rng(n)
        scale = np.array([1e-3, 1.0, 1e3, 7.0])[:n]  # coordinates of unlike sizes
        A = rng.normal(size=(150, n)) * scale
        B = rng.normal(size=(90, n)) * scale + 0.25
        # blocks of `rows` rows of the first set; 150 and 90 are no multiple of 64
        monkeypatch.setattr(hz, "_BLOCK_ENTRIES", rows * len(B))
        for a, b in ((A, B), (B, A), (A[:1], B), (A[:40], B)):
            assert hz.hausdorff_distance(a, b) == _brute_hausdorff(a, b)


class TestRefusals:
    def test_halfspace_refused(self):
        cfg = hz.ScenarioConfig(domain=geo.domain_halfspace(), p=[0.0, 0.0, 0.0])
        rep = hz.scenario_theorem1(cfg)
        assert rep["status"] == "refused"
        assert "hypothesis not satisfied" in rep["reason"]

    def test_cylinder_m1_refused(self):
        cfg = hz.ScenarioConfig(domain=geo.domain_cylinder(), p=[1.0, 0.0, 0.0],
                                m=1)
        rep = hz.scenario_theorem1(cfg)
        assert rep["status"] == "refused"

    def test_theorem5_h3_refused(self):
        rep = hz.scenario_theorem5(hz.ScenarioConfig(h=3.0))
        assert rep["status"] == "refused"
        assert "hypothesis not satisfied" in rep["reason"]

    def test_theorem6_h3_refused(self):
        rep = hz.scenario_theorem6(hz.ScenarioConfig(h=3.0))
        assert rep["status"] == "refused"

    def test_theorem5_negative_h_is_an_error(self):
        with pytest.raises(hz.ScenarioError):
            hz.scenario_theorem5(hz.ScenarioConfig(h=-1.0))

    def test_theorem6_negative_h_is_an_error(self):
        with pytest.raises(hz.ScenarioError, match="nonnegative"):
            hz.scenario_theorem6(hz.ScenarioConfig(h=-1.0))

    @pytest.mark.parametrize("name, h", [("theorem1", None), ("theorem3", None),
                                         ("theorem5", 0.5), ("theorem6", 0.5)])
    @pytest.mark.parametrize("m, mesh", [(1, None), (2, chord_polyline([0, 0, 0.8], [0.1, 0, 0.8]))],
                             ids=["disk_at_m1", "polyline_at_m2"])
    def test_mesh_of_another_dimension_is_an_error(self, name, h, m, mesh, monkeypatch):
        def no_barrier(*args, **kwargs):
            raise AssertionError("a barrier was built before the dimension check")

        monkeypatch.setattr(bar, "build_barrier", no_barrier)
        with pytest.raises(hz.ScenarioError, match="the mesh has dimension"):
            hz.run_scenario(name, h=h, m=m, mesh=mesh)

    @pytest.mark.parametrize("name", ["theorem3", "theorem6"])
    @pytest.mark.parametrize("metric", ["0.1", "0.1*x1"])
    def test_family_refuses_a_non_euclidean_limit(self, name, metric):
        dom = geo.domain_ball(1.0, metric=geo.metric_conformal(metric))
        with pytest.raises(hz.ScenarioError, match="must be euclidean"):
            hz.run_scenario(name, domain=dom)

    @pytest.mark.parametrize("name", ["theorem1", "theorem3", "theorem4"])
    def test_h_is_an_error_where_unread(self, name):
        with pytest.raises(hz.ScenarioError, match="reads no mean-curvature bound"):
            getattr(hz, f"scenario_{name}")(hz.ScenarioConfig(h=0.5))


@pytest.fixture(scope="module")
def quick_cfg():
    """Coarse but honest configuration so scenario runs stay fast."""
    mesh = meshes.disk_mesh(radius=0.3, center=(0.0, 0.0, 0.85), rings=4,
                            segments=24)
    return hz.ScenarioConfig(mesh=mesh, grid_resolution=20)


class TestScenarios:
    def test_theorem1_passes(self, quick_cfg):
        rep = hz.scenario_theorem1(quick_cfg)
        assert rep["status"] == "passed"
        assert rep["support_distance"] >= rep["epsilon"] - rep["chord_tolerance"]
        assert rep["minimizer"]["converged"]

    def test_theorem3_passes(self, quick_cfg):
        cfg = dataclasses.replace(quick_cfg, family_range=(0, 3))
        rep = hz.scenario_theorem3(cfg)
        assert rep["status"] == "passed"
        assert rep["i0"] == 0
        assert rep["u_min_on_support"] > 0.0
        assert rep["limit_properties"]["all"]

    def test_theorem3_metric_gap_shrinks(self, quick_cfg):
        cfg = dataclasses.replace(quick_cfg, family_range=(0, 3))
        rep = hz.scenario_theorem3(cfg)
        gaps = [r["metric_c2_gap"] for r in rep["runs"]]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_metric_c2_gap_is_exact(self):
        euclidean = geo.metric_euclidean()
        p = np.array([0.0, 0.0, 1.0])
        for i in range(41):
            assert hz._family_c2_distance(hz.metric_family(i), euclidean, p) == 2.0 ** -i

    def test_metric_c2_gap_refuses_a_varying_metric(self):
        p = np.array([0.0, 0.0, 1.0])
        with pytest.raises(hz.ScenarioError):
            hz._family_c2_distance(geo.metric_conformal("0.1*x1"), geo.metric_euclidean(), p)

    def test_theorem4_passes(self):
        rep = hz.run_scenario("theorem4")
        assert rep["status"] == "passed"
        assert rep["contradiction"]["found"]
        assert rep["decomposition"]["d"] == 2
        assert rep["decomposition"]["W_prime_disjoint_from_boundary"]

    def test_theorem5_passes(self):
        rep = hz.run_scenario("theorem5")
        assert rep["status"] == "passed"
        assert rep["bounded_mc_check"]["passed"]
        assert rep["interior_H_max"] <= 1.05

    def test_theorem6_passes(self):
        cfg = hz.ScenarioConfig(h=1.0, family_range=(0, 3))
        rep = hz.scenario_theorem6(cfg)
        assert rep["status"] == "passed"
        assert rep["i0"] is not None

    def test_theorem6_runs_report_live_atoms(self):
        # the default cap stays outside every tube: the checks are vacuous
        rep = hz.scenario_theorem6(hz.ScenarioConfig(h=1.0, family_range=(0, 2)))
        assert [r["bounded_mc_n_live"] for r in rep["runs"]] == [0, 0, 0]

    def test_theorem6_gate_fails_indices_below_h(self):
        # g(0) = 2 x euclidean scales the curvature sum 2 at p by 1/sqrt(2),
        # to 1.41 < h; g(1) takes it to 2/sqrt(1.5) = 1.63 > h
        rep = hz.scenario_theorem6(hz.ScenarioConfig(h=1.5, family_range=(0, 3)))
        assert rep["status"] == "passed"
        assert rep["i0"] == 1
        assert rep["runs"][0] == {"i": 0, "ok": False, "reason": "curvature sum below h"}
        assert all(r["ok"] for r in rep["runs"][1:])


class TestExclusion:
    def test_metric_units(self, scaled_ball_bundle):
        """Support distance, epsilon and chord tolerance are all metric lengths."""
        b = scaled_ball_bundle
        c = b.sigma.c
        assert c == 0.5
        mesh = meshes.disk_mesh(radius=0.3, center=(0.0, 0.0, 0.85), rings=4, segments=24)
        V = vf.varifold_from_mesh(mesh, b.domain.metric)
        ex = hz.exclusion(mesh, b)
        dist = c * float(np.min(np.linalg.norm(V.points - b.p, axis=-1)))
        chord = c * 2.0 * mesh.max_edge_length()
        assert ex == {"support_distance": dist, "epsilon": b.epsilon,
                      "chord_tolerance": chord,
                      "exclusion_margin": dist - b.epsilon + chord}


@pytest.fixture(scope="module")
def theorem3_limit_bundle():
    cfg = hz.ScenarioConfig()
    return bar.build_barrier(hz._family_base(cfg, "theorem3"), np.asarray(cfg.p, float), cfg.m)


class TestUProperties:
    def test_sublevel_set_reaches_the_chart_face(self, theorem3_limit_bundle):
        """{w <= eps} meets the face x1 = hi of the chart on the boundary of N."""
        b = theorem3_limit_bundle
        x1 = b.chart[0, 1]
        x = np.array([x1, 0.0, np.sqrt(1.0 - x1 ** 2)])
        assert b.domain.contains(x[None])[0]
        assert b.sigma.w.value(x) <= b.epsilon

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 4 (ii): the check tests random "
                       "interior chart points against the chart faces, so it cannot fail")
    def test_compactness_check_sees_the_face(self, theorem3_limit_bundle):
        assert hz._check_u_properties(theorem3_limit_bundle)["ii"] is False


class TestDeterminism:
    def test_theorem1_reports_identical(self, quick_cfg):
        r1 = hz.scenario_theorem1(quick_cfg)
        r2 = hz.scenario_theorem1(quick_cfg)
        assert r1 == r2
        assert r1["provenance"]["m"] == quick_cfg.m
