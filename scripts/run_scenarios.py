#!/usr/bin/env python3
"""Run every theorem-level scenario and dump the JSON reports."""
import argparse
import json
import sys

import numpy as np

from mconvex import harness as hz


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default=None, help="write all reports to one JSON file")
    args = ap.parse_args()

    reports = {}
    failures = 0
    for name in hz.SCENARIO_H:
        report = hz.run_scenario(name)
        reports[name] = report
        print(f"{name}: {report['status']}")
        failures += report["status"] != "passed"
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(reports, fh, indent=2, sort_keys=True,
                      default=lambda o: o.tolist() if isinstance(o, np.ndarray) else float(o))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
