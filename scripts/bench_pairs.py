#!/usr/bin/env python3
"""Run ``bench/run.py`` in alternating pairs on two revisions and compare them.

Both revisions are exported with ``git archive`` into a temporary directory,
so only committed files run and no ``__pycache__`` comes along; every run has
``PYTHONDONTWRITEBYTECODE=1``.  For each seed, each workload runs once in each
tree, the base first on odd seeds and the head first on even ones:

    python3 bench/run.py --workload W --seed N --seconds S --trace 0

Every result is appended, as one set, to the ``--out`` JSON file (created if
missing).  Per workload and end-to-end metric the script prints the two
medians, the base's quartiles and the number of pairs where the head was
lower, then two verdicts (every end-to-end metric is better lower):

- "gain shown" when the head is lower in at least 9/10 of the pairs and its
  median is below the base's by more than the base's quartile spread, else
  "gain not shown";
- "worse than its bound" when the head's median exceeds the base's by more
  than the metric's ``bound`` in ``BENCHMARK.json`` (a fraction of the base's
  median); otherwise "unresolved" when the base's quartile spread is wider
  than the bound and some head run is not below every base run, and "within
  its bound" else.

It exits 1 if a run fails or reports anything but ``correct`` with 0 failed.

    python scripts/bench_pairs.py --base HEAD~1 --head HEAD --workload scenarios \\
        --seeds 1-10 --seconds 25 --out BENCH_32.json
"""
import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    """"1-10" or "1,4,7" as a list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev, dest):
    """The files of ``rev`` under ``dest``, by ``git archive``."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)


def run_once(tree, workload, seed, seconds):
    """The metrics of one untraced ``bench/run.py`` run, or its error."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    row = {key: result.get(key) for key in ("correct", "failed", "attempted")}
    row.update({name: m["value"] for name, m in result.get("metrics", {}).items()})
    return row


def benchmark():
    """``(workloads, bounds)`` from ``BENCHMARK.json``: the workload names,
    and each end-to-end metric's bound, a fraction of the base's median, in
    the file's order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    return ([w["name"] for w in doc["workloads"]],
            {m["name"]: m["bound"] for m in doc["end_to_end"]})


def compare(base, head, bound):
    """Paired runs of one lower-is-better metric: the medians, the base's
    quartiles, the pairs where the head was lower, and the two verdicts."""
    q = statistics.quantiles(base, n=4) if len(base) > 1 else [base[0]] * 3
    med_b, med_h, spread = statistics.median(base), statistics.median(head), q[2] - q[0]
    wins = sum(h < b for b, h in zip(base, head))
    change = 100.0 * (med_h - med_b) / med_b if med_b else float("nan")
    gain = wins >= 0.9 * len(base) and med_b - med_h > spread
    if med_h - med_b > bound * med_b:
        cost = "worse than its bound"
    elif spread > bound * med_b and not max(head) < min(base):
        cost = "unresolved"
    else:
        cost = "within its bound"
    return (f"base {med_b:.4g} ({q[0]:.4g}-{q[2]:.4g}) -> head {med_h:.4g} ({change:+.1f}%); "
            f"head lower in {wins}/{len(base)}; gain {'shown' if gain else 'not shown'}; "
            f"{cost} ({100 * bound:.0f}%)")


def summary(runs, workloads, bounds):
    """One line per workload and metric, as ``compare`` gives it."""
    lines = []
    for w in workloads:
        for metric, bound in bounds.items():
            pairs = {}
            for r in runs:
                if r["workload"] == w and metric in r:
                    pairs.setdefault(r["seed"], {})[r["tree"]] = r[metric]
            both = [p for p in pairs.values() if len(p) == 2]
            if both:
                lines.append(f"{w:12s} {metric:11s} " + compare(
                    [p["base"] for p in both], [p["head"] for p in both], bound))
    return lines


def main(argv=None):
    all_workloads, bounds = benchmark()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="revision to compare against")
    ap.add_argument("--head", default="HEAD", help="revision under test (default HEAD)")
    ap.add_argument("--workload", action="append", choices=all_workloads,
                    help="repeat for several; default every workload of BENCHMARK.json")
    ap.add_argument("--seeds", default="1-10", help='e.g. "1-10" or "3,5" (default 1-10)')
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--out", required=True, help="JSON file the set is appended to")
    args = ap.parse_args(argv)
    workloads = args.workload or all_workloads
    seeds = parse_seeds(args.seeds)
    revs = {"base": args.base, "head": args.head}
    sides = {side: f"{rev} ({git('rev-parse', '--short', rev)})" for side, rev in revs.items()}

    runs, bad = [], 0
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: os.path.join(tmp, side) for side in revs}
        for side, rev in revs.items():
            export(rev, trees[side])
        for seed in seeds:
            order = ("base", "head") if seed % 2 else ("head", "base")
            for w in workloads:
                for side in order:
                    row = {"tree": side, "workload": w, "seed": seed,
                           **run_once(trees[side], w, seed, args.seconds)}
                    bad += not (row.get("correct") is True and row.get("failed") == 0)
                    runs.append(row)
                    print(json.dumps(row), flush=True)

    doc = {"command": "python3 bench/run.py --workload W --seed N --seconds S --trace 0",
           "sets": []}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    doc.setdefault("sets", []).append({
        "sides": sides,
        "host": f"{platform.platform()}, {os.cpu_count()} CPUs, Python {platform.python_version()}",
        "protocol": "both revisions exported with git archive; PYTHONDONTWRITEBYTECODE=1; "
                    "per seed each workload runs as a pair, the base first on odd seeds",
        "seconds": args.seconds,
        "seeds": args.seeds,
        "runs": runs,
    })
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    for line in summary(runs, workloads, bounds):
        print(line)
    if bad:
        print(f"{bad} run(s) failed or were not correct", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
