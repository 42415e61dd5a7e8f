#!/usr/bin/env python3
"""Run alternating parent/change pairs of the benchmark and record them
in a ``BENCH_<n>.json`` file.

    python scripts/bench_pairs.py --parent DIR --change DIR \\
        --workload fixed-coded --pairs 10 --seed 1 --seconds 25 --out BENCH_18.json

DIR is a checkout of each side.  Pair i runs ``perfbench/run.py`` once
in each checkout, the parent first when i is even and the change first
when it is odd.  Every run is recorded with its side, pair, seed,
seconds and workload, the last JSON line it printed and its ``# meta``
line (versions, BLAS library, thread variables, nproc).  Runs already in
``--out`` are kept and new pairs of the same workload and seed are
numbered after them, so one file gathers several workloads and seeds.  The
summary gives, per workload, seed and end-to-end metric of
``BENCHMARK.json``, each side's median and quartiles and the pairs the
change won (a tie counts for neither side).
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def run_once(checkout: pathlib.Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    meta = next(json.loads(line[len("# meta "):]) for line in lines if line.startswith("# meta "))
    return {"result": json.loads(lines[-1]), "meta": meta}


def quartiles(values: list) -> dict:
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(runs: list, end_to_end: list) -> list:
    rows = []
    for workload, seed in sorted({(r["workload"], r["seed"]) for r in runs}):
        group = [r for r in runs if (r["workload"], r["seed"]) == (workload, seed)]
        value = {(r["side"], r["pair"]): r["result"]["metrics"] for r in group}
        pairs = sorted({r["pair"] for r in group
                        if ("parent", r["pair"]) in value and ("change", r["pair"]) in value})
        for metric in end_to_end:
            name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
            side = {s: [value[(s, p)][name]["value"] for p in pairs] for s in SIDES}
            rows.append({
                "workload": workload, "seed": seed, "metric": name, "unit": metric["unit"],
                "better": metric["better"], "pairs": len(pairs),
                "change_wins": sum(sign * (c - p) > 0 for p, c in zip(side["parent"],
                                                                      side["change"])),
                **{s: quartiles(side[s]) for s in SIDES if side[s]}})
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=pathlib.Path)
    parser.add_argument("--change", required=True, type=pathlib.Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--out", required=True, type=pathlib.Path)
    parser.add_argument("--note", help="what the two sides are, kept in --out")
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = json.loads(args.out.read_text()) if args.out.exists() else {"runs": []}
    if args.note:
        record["note"] = args.note
    first = 1 + max((r["pair"] for r in record["runs"]
                     if (r["workload"], r["seed"]) == (args.workload, args.seed)), default=-1)
    for pair in range(first, first + args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for side in order:
            checkout = args.parent if side == "parent" else args.change
            run = run_once(checkout, args.workload, args.seed, args.seconds)
            record["runs"].append({"side": side, "pair": pair, "first": order[0],
                                   "seed": args.seed, "seconds": args.seconds,
                                   "workload": args.workload, **run})
            print(side, pair, json.dumps(run["result"]["metrics"]), flush=True)
            # Written after every run, so a cut series keeps what it ran.
            record["summary"] = summarize(record["runs"], benchmark["end_to_end"])
            args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
