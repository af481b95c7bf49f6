#!/usr/bin/env python3
"""Apply seeded one-line mutants to a copy of ``src/`` and check that the
tests named for each are killed by it.

Each row of ``MUTANTS`` names a file under ``src/``, an exact fragment that
occurs in it once, its replacement, and the tests that must fail once it is
applied.  The script first runs every named test on an unmutated copy, where
all must pass.  Then, for each row, it copies ``src/`` to a temporary
directory, applies the row and runs only that row's tests against the copy.
A row is killed when pytest reports exactly its named tests as failed; the
script exits 1 if any row survives or is killed otherwise, and 2 if a
fragment does not occur exactly once or the tests cannot be run.

    python scripts/mutants.py
"""
import os
import re
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BARRIER = "src/mconvex/barrier.py"
GEOMETRY = "src/mconvex/geometry.py"
HARNESS = "src/mconvex/harness.py"
VARIFOLD = "src/mconvex/varifold.py"
INDEX_SET = "tests/test_varifold.py::TestIndexSet::"
KKT = "tests/test_barrier.py::TestKKTStep::test_matches_lapack"
TUBE = "tests/test_barrier.py::TestTubeSample::"
JET = "tests/test_geometry.py::test_jet_equals_the_separate_methods"
LOWERING = "tests/test_varifold.py::TestCachedLowering::test_cached_lowering_equals_the_direct_formula"
QUARTIC_ORACLE = tuple(f"tests/test_geometry.py::"
                       f"test_isotropic_quartic_matches_the_full_sums_bit_for_bit[{g}]"
                       for g in (1.0, 0.25, 1.25))
VERIFY = "tests/test_barrier.py::TestVerification::"
CLOSED_FORM = tuple(f"{VERIFY}test_live_margins_match_closed_form[{name}]"
                    for name in ("ball_bundle", "scaled_ball_bundle", "halfspace_bundle",
                                 "cylinder_bundle", "ellipsoid_bundle"))
HAUSDORFF = ("tests/test_harness.py::TestHausdorffOracle::"
             "test_equals_the_full_norm_matrix_across_blocks")


class Mutant(NamedTuple):
    name: str
    path: str
    fragment: str
    replacement: str
    tests: tuple


MUTANTS = (
    Mutant("kkt_cofactor_sign", BARRIER,
           "c00, c01, c02 = d * f - e * e, c * e - b * f, b * e - c * d",
           "c00, c01, c02 = d * f - e * e, b * f - c * e, b * e - c * d",
           (KKT,)),
    Mutant("kkt_without_adj_g", BARRIER,
           "s_y = ((ar0 - s_lam * ag0) / det, (ar1 - s_lam * ag1) / det,\n"
           "               (ar2 - s_lam * ag2) / det)",
           "s_y = (ar0 / det, ar1 / det, ar2 / det)",
           (KKT,)),
    Mutant("foot_tolerance", BARRIER,
           "FOOT_TOLERANCE = 1e-9",
           "FOOT_TOLERANCE = 1e-3",
           ("tests/test_barrier.py::TestProjection::test_unconverged_foot_off_sigma_is_refused",)),
    Mutant("alignment_bound", BARRIER,
           "a2 * a2) <= 1e-7)",
           "a2 * a2) <= 1e-1)",
           ("tests/test_barrier.py::TestProjection::test_unaligned_foot_on_sigma_is_refused",)),
    Mutant("tube_guard", BARRIER,
           "clear = denom > 0.05",
           "clear = denom > 0.0",
           ("tests/test_barrier.py::test_tube_guard_refuses_points_near_the_focal_point",)),
    Mutant("misses_box_not_widened", BARRIER,
           "lipschitz(np.nextafter(lo - radius, -np.inf),\n"
           "                                         np.nextafter(hi + radius, np.inf))",
           "lipschitz(lo, hi)",
           ("tests/test_barrier.py::TestTubeExclusion::test_bound_is_read_on_the_widened_box",)),
    Mutant("epsilon_is_T", BARRIER,
           "eps = min(K ** -0.5, T)",
           "eps = T",
           (TUBE + "test_epsilon_is_K_to_the_minus_half_below_T",)),
    # a kept chart's cells move its bundle: ball:1 at m = 1, the ellipsoid and
    # the cylinder at h = 1; a lattice with no feet is one with no cells either
    Mutant("probe_skips_the_rest", BARRIER,
           "sigma.project(_cells(chart))",
           "sigma.project(_cells(chart)[:0])",
           (TUBE + "test_bundle_matches_one_batch_sample[ball-1-1.0-7]",
            TUBE + "test_bundle_matches_one_batch_sample[ellipsoid-2-1.0-7]",
            TUBE + "test_bundle_matches_one_batch_sample[cylinder-2-1.0-7]",
            TUBE + "test_no_feet_raised_after_the_whole_sample")),
    Mutant("probe_reads_another_head", BARRIER,
           "zip(charts, head_kappa)",
           "zip(charts, head_kappa[-1:] + head_kappa[:-1])",
           (TUBE + "test_bundle_matches_one_batch_sample[ball-2-0.0-7]",
            TUBE + "test_family_bundle_matches_one_batch_sample[2-1.0]")),
    # the head is eight cells on the chart's middle line (6, 6, 0..7) and p:
    # their feet lie near p, so a chart that fails clears its head there
    Mutant("head_is_not_the_corners", BARRIER,
           'np.stack(np.meshgrid(*chart, indexing="ij"), axis=-1).reshape(-1, len(p))',
           "_cells(chart)[936:944]",
           tuple(TUBE + f"test_build_makes_two_projections[{name}]"
                 for name in ["ball", "ellipsoid", "cylinder"]
                 + [f"family_{i}-{h}" for i in range(11) for h in (0.0, 1.0)])),
    Mutant("focal_point_not_refused", BARRIER,
           "    if np.any(denom <= 0.0):",
           "    if False:",
           (TUBE + "test_K_bounds_every_segment_or_the_build_is_refused[10.0-None]",)),
    # the bundles' m is 2: the margin's mid + hi is checked against the sort
    Mutant("margin_network_mid_is_lo", BARRIER,
           "return (0.0 + mid) + hi",
           "return (0.0 + lo) + hi",
           CLOSED_FORM),
    # a grid whose live margins all read 2e-7 passes at 1e-6
    Mutant("margin_tolerance_loosened", BARRIER,
           "MARGIN_TOLERANCE = 1e-7",
           "MARGIN_TOLERANCE = 1e-6",
           (VERIFY + "test_margin_twice_the_tolerance_fails",)),
    Mutant("chart_test_dropped", BARRIER,
           "axes.append(ax[(ax >= in_lo) & (ax <= in_hi)])",
           "axes.append(ax)",
           (VERIFY + "test_chart_past_the_domain_chart_keeps_the_points_of_N",)),
    Mutant("fallback_jet_skipped", BARRIER,
           "    if not np.all(ok):\n        # a point without a foot",
           "    if False:\n        # a point without a foot",
           ("tests/test_barrier.py::TestProjection::"
            "test_point_without_a_foot_and_a_zero_gradient_is_invalid",)),
    # the jets' derivatives are checked against central differences, and the
    # quartic's jet bit for bit against the full-gram sums
    Mutant("quartic_jet_hessian", GEOMETRY,
           "t * self.g + 8.0 * (gd[i] * gd[j])",
           "t * self.g + 4.0 * (gd[i] * gd[j])",
           (JET + "[quartic]", JET + "[quartic_isotropic]", JET + "[sum]")
           + QUARTIC_ORACLE),
    Mutant("distance_jet_hessian", GEOMETRY,
           "-((self.mask[i] if i == j else 0.0) - u[i] * u[j]) / r",
           "-(0.0 - u[i] * u[j]) / r",
           (JET + "[sphere]", JET + "[cylinder]", JET + "[sum]")),
    Mutant("quartic_isotropic_signed_zero", GEOMETRY,
           "else 8.0 * (gd[i] * gd[j]) + 0.0 for i, j in _PAIRS)",
           "else 8.0 * (gd[i] * gd[j]) for i, j in _PAIRS)",
           QUARTIC_ORACLE),
    # the scenario shortcuts are checked bit for bit against their direct forms
    Mutant("lowering_frames_not_scaled", VARIFOLD,
           "np.repeat(mesh.euclidean_frames / c, Q, axis=0)",
           "np.repeat(mesh.euclidean_frames, Q, axis=0)",
           (LOWERING + "[half]", LOWERING + "[sqrt1.25]")),
    Mutant("bounded_mc_sums_reached_atoms", VARIFOLD,
           "dv = float(np.sum(V.weights * terms))",
           "dv = float(np.sum(V.weights[reached] * terms[reached]))",
           ("tests/test_varifold.py::TestMinimizingChecks::"
            "test_bounded_mc_on_a_partly_reached_cap_equals_the_all_atoms_sum",)),
    # the index helper keeps the indices that no entry names
    Mutant("index_set_keeps_zero_counts", VARIFOLD,
           "np.flatnonzero(counts == 0 if complement else counts)",
           "np.flatnonzero(counts == 0 if complement else counts >= 0)",
           tuple(INDEX_SET + f"test_equals_unique_and_setdiff1d[{name}]"
                 for name in ("repeats", "two_dims", "empty"))
           + (INDEX_SET + "test_equals_unique_and_setdiff1d_on_any_indices",)),
    # theorem3's property sample on the chart's lower faces: (ii) then fails
    Mutant("u_sample_on_faces", BARRIER,
           "+ 0.5) / count",
           "+ 0.0) / count",
           ("tests/test_harness.py::TestScenarios::test_theorem3_passes",
            "tests/test_harness.py::TestUProperties::test_draws_no_random_numbers")),
    Mutant("hausdorff_min_wrong_axis", HARNESS,
           "np.max(np.min(d2, axis=1))",
           "np.max(np.min(d2, axis=0))",
           tuple(f"{HAUSDORFF}[{rows}-{n}]" for rows in (1, 7, 64) for n in (2, 3, 4))),
)


def copy_src(workdir):
    src = os.path.join(workdir, "src")
    shutil.copytree(os.path.join(ROOT, "src"), src,
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def apply(src, mutant):
    path = os.path.join(src, os.path.relpath(mutant.path, "src"))
    with open(path) as fh:
        text = fh.read()
    count = text.count(mutant.fragment)
    if count != 1:
        raise SystemExit(f"{mutant.name}: fragment occurs {count} times in {mutant.path}")
    with open(path, "w") as fh:
        fh.write(text.replace(mutant.fragment, mutant.replacement))


def run_tests(src, tests):
    """``(exit code, failed test ids)`` of pytest on ``tests`` against ``src``."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    where = subprocess.run([sys.executable, "-c", "import mconvex; print(mconvex.__file__)"],
                           env=env, cwd=ROOT, capture_output=True, text=True, check=True)
    if not where.stdout.strip().startswith(src):
        raise SystemExit(f"mconvex resolves to {where.stdout.strip()}, not to {src}")
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
                           *tests], env=env, cwd=ROOT, capture_output=True, text=True)
    return proc.returncode, set(re.findall(r"^FAILED (\S+)", proc.stdout, re.MULTILINE))


def main():
    with tempfile.TemporaryDirectory() as workdir:
        src = copy_src(workdir)
        tests = sorted({t for m in MUTANTS for t in m.tests})
        code, failed = run_tests(src, tests)
        if code != 0:
            print(f"unmutated tree: pytest exit {code}, failed {sorted(failed)}")
            return 2
    survivors = 0
    for mutant in MUTANTS:
        with tempfile.TemporaryDirectory() as workdir:
            src = copy_src(workdir)
            apply(src, mutant)
            code, failed = run_tests(src, mutant.tests)
        if code not in (0, 1):
            print(f"{mutant.name:30s} pytest exit {code}")
            return 2
        killed = code == 1 and failed == set(mutant.tests)
        survivors += not killed
        print(f"{mutant.name:30s} {'killed' if killed else 'SURVIVED'}"
              + ("" if killed else f" (failed: {sorted(failed)})"))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
