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
lower.  It exits 1 if a run fails or reports anything but ``correct`` with 0
failed.

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
WORKLOADS = ("grid_certify", "scenarios", "plateau")
METRICS = ("setup_s", "wall_s", "peak_rss_mb")


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


def summary(runs, workloads):
    """One line per workload and metric: medians, base quartiles, head wins."""
    lines = []
    for w in workloads:
        for metric in METRICS:
            pairs = {}
            for r in runs:
                if r["workload"] == w and metric in r:
                    pairs.setdefault(r["seed"], {})[r["tree"]] = r[metric]
            both = [p for p in pairs.values() if len(p) == 2]
            if not both:
                continue
            base = [p["base"] for p in both]
            head = [p["head"] for p in both]
            q = statistics.quantiles(base, n=4) if len(base) > 1 else [base[0]] * 3
            wins = sum(p["head"] < p["base"] for p in both)
            med_b, med_h = statistics.median(base), statistics.median(head)
            change = 100.0 * (med_h - med_b) / med_b if med_b else float("nan")
            lines.append(f"{w:12s} {metric:11s} base {med_b:.4g} ({q[0]:.4g}-{q[2]:.4g}) "
                         f"-> head {med_h:.4g} ({change:+.1f}%); head lower in "
                         f"{wins}/{len(both)}")
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="revision to compare against")
    ap.add_argument("--head", default="HEAD", help="revision under test (default HEAD)")
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="repeat for several; default all three")
    ap.add_argument("--seeds", default="1-10", help='e.g. "1-10" or "3,5" (default 1-10)')
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--out", required=True, help="JSON file the set is appended to")
    args = ap.parse_args(argv)
    workloads = args.workload or list(WORKLOADS)
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
    for line in summary(runs, workloads):
        print(line)
    if bad:
        print(f"{bad} run(s) failed or were not correct", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
