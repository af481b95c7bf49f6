#!/usr/bin/env python3
"""Record the report fields that the benchmark checks its certificates against.

Runs every certificate of every workload at seeds 0 to 7 and writes
``bench/reference.json``: for each certificate kind, every report leaf that
``workloads.FIELD_RULES`` does not skip, with its value and tolerance.  A
field that varies between the recorded runs is stored as their median; the
script refuses to write a reference that any recorded run falls outside of.

Record at the commit whose outputs are the reference, from the repository
root:

    python3 bench/record_reference.py
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads as wl  # noqa: E402

SEEDS = tuple(range(8))


def make_spec(values, rule):
    first = values[0]
    if all(v == first and type(v) is type(first) for v in values):
        value = first
    elif all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
        value = (statistics.median_low(values) if all(isinstance(v, int) for v in values)
                 else statistics.median(values))
    else:
        raise ValueError(f"values of different kinds: {values!r}")
    if rule is not None:
        rtol, atol = rule
    elif isinstance(value, float):
        rtol, atol = wl.DEFAULT_RTOL, wl.DEFAULT_ATOL
    else:
        rtol, atol = 0, 0
    return {"value": value, "rtol": rtol, "atol": atol}


def record(seeds, workdir):
    import mconvex.cli as cli

    out = {"seeds": list(seeds), "workloads": {}}
    errors = []
    for workload in wl.WORKLOADS:
        runs = {}  # kind -> list of (seed, exit code, flattened report)
        for seed in seeds:
            for cert in wl.setup(workload, seed, workdir):
                code, stdout, error = wl.run_certificate(cli, cert)
                if error is not None:
                    raise error
                runs.setdefault(cert.kind, []).append((seed, code, wl.flatten(json.loads(stdout))))
        entry = out["workloads"][workload] = {}
        for kind, recorded in runs.items():
            paths = set(recorded[0][2])
            for seed, _, doc in recorded:
                if set(doc) != paths:
                    errors.append(f"{workload}/{kind} seed {seed}: fields differ "
                                  f"{sorted(set(doc) ^ paths)}")
            fields = {}
            for path in sorted(paths):
                rule = wl.field_rule(workload, kind, path)
                if rule == wl.SKIP:
                    continue
                spec = make_spec([doc[path] for _, _, doc in recorded], rule)
                for seed, _, doc in recorded:
                    if not wl.within(doc[path], spec):
                        errors.append(f"{workload}/{kind} seed {seed}: {path} = "
                                      f"{doc[path]!r} outside {spec}")
                fields[path] = spec
            entry[kind] = {
                "recorded_exits": sorted({code for _, code, _ in recorded}),
                "fields": fields,
            }
    return out, errors


def main(argv=None):
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    reference, errors = record(SEEDS, os.path.join(ROOT, ".bench_build", "record"))
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 1
    with open(wl.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {wl.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
