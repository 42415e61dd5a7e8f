#!/usr/bin/env python3
"""Regenerate ``reference.json``, the committed BER reference.

    python3 perfbench/make_reference.py [--workload NAME ...]

For each workload it runs each cell once with the default seed and records
every point (system, rate, Eb/N0, bits, bit errors, BER).  It also runs
the calibration seeds and stores the workload's dispersion ``D``: twice
the largest per-point index of dispersion (variance over mean of the
bit-error count across seeds), at least 1.  ``checks.py`` widens its
binomial tolerance by ``D``.  Named workloads are replaced; the others
are kept.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics

import checks
import run

CALIBRATION_SEEDS = tuple(range(2, 10))


def reference_for(workload) -> dict:
    seeds = (run.DEFAULT_SEED,) + CALIBRATION_SEEDS
    passes = []
    for seed in seeds:
        session = run.Session(workload, seed)
        passes.append(session.run_pass(order=range(len(session.cells))))
    points = []
    index = []
    for i, (cell, _, default_points) in enumerate(passes[0]):
        for j, (ebn0, bits, errors, _, _) in enumerate(default_points):
            points.append({"system": cell.system, "code_rate": cell.code_rate,
                           "ebn0_db": ebn0, "bits": bits, "bit_errors": errors,
                           "ber": errors / bits})
            counts = [p[i][2][j][2] for p in passes]
            mean = statistics.mean(counts)
            if mean > 0:
                index.append(statistics.variance(counts) / mean)
    return {"dispersion": max(1, math.ceil(2 * max(index))),
            "calibration_seeds": list(CALIBRATION_SEEDS),
            "points": points}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(run.WORKLOADS))
    args = parser.parse_args()
    try:
        reference = checks.load_reference()
    except FileNotFoundError:
        reference = {"seed": run.DEFAULT_SEED, "z": checks.Z, "workloads": {}}
    for name in args.workload or list(run.WORKLOADS):
        reference["workloads"][name] = reference_for(run.WORKLOADS[name])
        print(name, "dispersion", reference["workloads"][name]["dispersion"], flush=True)
    with open(checks.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
