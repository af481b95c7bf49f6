#!/usr/bin/env python3
"""Benchmark of the mconvex certificates, driven through ``mconvex.cli.main``.

Run from the repository root:

    python3 bench/run.py --workload grid_certify --seed 0 --seconds 25 --trace 0

Workloads (see workloads.py and METRICS.md):

- ``grid_certify``: four ``barrier-verify`` grid certificates, one of them a
  negative control that must fail.
- ``scenarios``: the theorem 1, 3, 4, 5 and 6 pipelines.
- ``plateau``: ``minimize`` from bulged-disk SVMESH starts written in set-up.

The workload is run in passes, each pass running every certificate once, until
``--seconds`` have gone by (at least one pass).  Every certificate of every
pass is checked against its expected verdict and the recorded reference.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics ``setup_s``, ``wall_s`` and ``peak_rss_mb``; the failure
ratio is ``failed / attempted``.  With ``--trace 1`` it carries the per-layer
metrics of tracer.py instead, from a pass with every layer wrapped.  The
program is imported from ``src/`` of the checkout the script sits in; without
it the script exits with status 1 and prints no result.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time

import tracer
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".bench_build", "mconvex-bench")
SETUP_SAMPLES = 8
IMPORT_SAMPLES = 3
PROBE_TIMEOUT_S = 60

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_time(workload, seed):
    """Seconds from starting a fresh interpreter until the workload's inputs
    are ready (``import mconvex.cli``, start meshes, argument lists)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_child_env(),
                          cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=PROBE_TIMEOUT_S)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")
    return elapsed


def import_times():
    """Cumulative import seconds from ``python -X importtime``.  A module that
    ``import mconvex.cli`` no longer pulls in reads 0."""
    cmd = [sys.executable, "-X", "importtime", "-c", "import mconvex.cli; import jsonschema"]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=_child_env(), cwd=ROOT,
                          timeout=PROBE_TIMEOUT_S, check=True)
    wanted = {"mconvex.cli": "import.mconvex_s", "scipy.spatial": "import.scipy_spatial_s",
              "jsonschema": "import.jsonschema_s"}
    found = dict.fromkeys(wanted.values(), 0.0)
    seen = set()
    for line in proc.stderr.splitlines():
        # "import time: <self us> | <cumulative us> | <indent><module>"
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \| *(\S+)$", line)
        if m is not None and m.group(2) in wanted:
            found[wanted[m.group(2)]] = int(m.group(1)) * 1e-6
            seen.add(m.group(2))
    if "mconvex.cli" not in seen:
        raise RuntimeError("importtime output lacks mconvex.cli")
    return found


def run_pass(cli, certs):
    """Run every certificate once; returns (wall seconds, outcomes)."""
    t0 = time.perf_counter()
    outcomes = [(cert,) + wl.run_certificate(cli, cert) for cert in certs]
    return time.perf_counter() - t0, outcomes


class Tally:
    """Certificates attempted and failed, checked outside the timed region."""

    def __init__(self, workload):
        self.reference = wl.load_reference()["workloads"][workload]
        self.attempted = 0
        self.failed = 0
        self.unexpected = []
        self.known = {}

    def add(self, outcomes):
        for cert, code, stdout, error in outcomes:
            self.attempted += 1
            problems = wl.check(cert, code, stdout, self.reference, error)
            if not problems:
                continue
            self.failed += 1
            if error is None and wl.known_defect(cert, code, stdout, problems):
                self.known[cert.kind] = self.known.get(cert.kind, 0) + 1
            else:
                self.unexpected.append((cert.kind, problems))


def machine():
    import numpy
    import scipy

    return (f"nproc={os.cpu_count()} arch={platform.machine()} "
            f"python={platform.python_version()} numpy={numpy.__version__} "
            f"scipy={scipy.__version__} barrier-verify threads=2")


def with_threads(cert, threads):
    argv = list(cert.argv)
    argv[argv.index("--threads") + 1] = str(threads)
    return dataclasses.replace(cert, argv=tuple(argv))


def passes_for(cli, certs, seconds, tally):
    walls = []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        wall, outcomes = run_pass(cli, certs)
        walls.append(wall)
        tally.add(outcomes)
    return walls


def main(argv=None):
    ap = argparse.ArgumentParser(description="mconvex certificate benchmark")
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "mconvex", "cli.py")):
        print(f"error: no mconvex sources under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, SRC)
    probe_dir = os.path.join(WORKDIR, "probe" if args.setup_probe else "run")
    certs = wl.setup(args.workload, args.seed, os.path.join(probe_dir, args.workload))
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    import mconvex
    import mconvex.cli as cli

    if os.path.dirname(os.path.abspath(mconvex.__file__)) != os.path.join(SRC, "mconvex"):
        print(f"error: imported mconvex from {mconvex.__file__}, not {SRC}", file=sys.stderr)
        return 1

    tally = Tally(args.workload)
    print(f"# workload={args.workload} seed={args.seed} certificates/pass={len(certs)}")
    print(f"# machine: {machine()}")
    if args.trace == 0:
        # half the set-up probes before the passes and half after, so the
        # median spans the run's slow swings in machine speed
        setups = [setup_time(args.workload, args.seed) for _ in range(SETUP_SAMPLES // 2)]
        walls = passes_for(cli, certs, args.seconds, tally)
        setups += [setup_time(args.workload, args.seed) for _ in range(SETUP_SAMPLES // 2)]
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        counts = {"setup_s": len(setups), "wall_s": len(walls)}
        print("# pass wall times (s): " + " ".join(f"{w:.3f}" for w in walls))
        print("# set-up times (s): " + " ".join(f"{s:.3f}" for s in setups))
        units = END_TO_END_UNITS
    else:
        metrics = traced_metrics(cli, certs, args.workload, tally)
        counts = {}
        units = {name: unit for name, unit in tracer.PER_LAYER}
    for name, value in metrics.items():
        note = f" (median of {counts[name]})" if name in counts else ""
        print(f"{name} = {value:.6g} {units[name]}{note}")
    print(f"fail_ratio = {tally.failed / tally.attempted:.6g} 1 "
          f"({tally.failed} of {tally.attempted} certificates)")
    for kind, n in sorted(tally.known.items()):
        print(f"# known defect: {kind} failed {n}x as recorded")
    for kind, problems in tally.unexpected:
        print(f"# FAILED {kind}: {'; '.join(problems)}")
    print(json.dumps({
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def traced_metrics(cli, certs, workload, tally):
    """Per-layer metrics: an untraced warm-up pass, a traced pass, and an
    untraced pass whose wall time is subtracted from the traced one."""
    _, outcomes = run_pass(cli, certs)
    tally.add(outcomes)
    trace = tracer.Tracer()
    trace.install()
    try:
        traced_wall, outcomes = run_pass(cli, certs)
    finally:
        trace.uninstall()
    tally.add(outcomes)
    untraced_wall, outcomes = run_pass(cli, certs)
    tally.add(outcomes)

    metrics = tracer.layer_metrics(trace.spans)
    metrics["barrier.verify_barrier.speedup_2t"] = 0.0
    if workload == "grid_certify":
        one_thread = [with_threads(cert, 1) for cert in certs]
        trace_1t = tracer.Tracer()
        trace_1t.install()
        try:
            _, outcomes = run_pass(cli, one_thread)
        finally:
            trace_1t.uninstall()
        tally.add(outcomes)
        metrics["barrier.verify_barrier.speedup_2t"] = (
            tracer.layer_metrics(trace_1t.spans)["barrier.verify_barrier.s"]
            / metrics["barrier.verify_barrier.s"])
    samples = [import_times() for _ in range(IMPORT_SAMPLES)]
    for name in samples[0]:
        metrics[name] = statistics.median(s[name] for s in samples)
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    return {name: metrics[name] for name, _ in tracer.PER_LAYER}


if __name__ == "__main__":
    sys.exit(main())
