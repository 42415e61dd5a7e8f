#!/usr/bin/env python3
"""Write the 18-CSV byte set: one BER sweep per system, code rate and
channel mode, small enough to rerun on every change.

    python scripts/byte_set.py OUTDIR [--workers N]

Each sweep runs every system (uw-lmmse, uw-zf, cp) at code rates none,
1/2 and 3/4, on the pinned notch fixture and on the Rayleigh ensemble,
with seed 3 at Eb/N0 4, 8, 12 and 16 dB, and stops after exactly two
batches per point.  A change that claims to keep the output bytes
reproduces its parent's set (``diff -r``); the set is the same at any
``--workers``, which ``tests/test_harness.py`` checks on every cell.

Each sweep's wall seconds go to stderr, and at ``--workers 1`` (where
the batches run in this process) the minor page faults per batch of its
eight batches, read with ``resource.getrusage`` where that exists.  The
count starts after the one-batch sweep and the full sweep's context
build, so it holds the batches alone.  At ``--workers 1`` one more,
untimed batch (the first point's first) then runs under ``tracemalloc``,
and its traced peak follows as MiB per batch: a deterministic figure,
so two checkouts compare on a shared machine.  These figures never go
into a CSV.
"""

import argparse
import dataclasses
import os
import pathlib
import sys
import time
import tracemalloc

try:
    import resource
except ImportError:  # not on every platform
    resource = None

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from uwofdm import harness, reference_config

#: Relative to the repository root, so headers do not name the checkout.
FIXTURE = "fixtures/notch_snapshot.txt"
SEED = 3
EBN0_DB = (4.0, 8.0, 12.0, 16.0)


def sweep_spec(system: str, rate: str, channel: str) -> harness.SweepSpec:
    """Two batches per point: a one-batch sweep at the first Eb/N0 gives
    the bits of one batch, and twice that stops the real sweep."""
    spec = harness.SweepSpec(config=reference_config(), system=system, ebn0_db=EBN0_DB[:1],
                             seed=SEED, code_rate=rate, channel=channel,
                             min_error_events=10 ** 12, max_bits_per_point=1)
    batch_bits = harness.run_ber_sweep(spec).points[0].bits
    return dataclasses.replace(spec, ebn0_db=EBN0_DB, max_bits_per_point=2 * batch_bits)


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt if resource else 0


def batch_peak_mib(spec: harness.SweepSpec) -> float:
    """The traced peak of one warm batch, point 0 and batch 0, in MiB."""
    tracemalloc.start()
    try:
        harness._run_batch(spec, 0, 0)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("outdir", type=pathlib.Path)
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args(argv)
    outdir = args.outdir.resolve()
    outdir.mkdir(parents=True, exist_ok=True)
    os.chdir(ROOT)

    for channel, tag in ((f"fixed:{FIXTURE}", "fixed"), ("ensemble", "ensemble")):
        for system in harness.SYSTEMS:
            for rate in harness.CODE_RATES:
                path = outdir / f"{system}_{rate.replace('/', '')}_{tag}.csv"
                start = time.perf_counter()
                spec = sweep_spec(system, rate, channel)
                harness._context(spec)  # built here, so the faults below are the batches'
                faults = minor_faults()
                report = harness.run_ber_sweep(spec, workers=args.workers)
                cost = f"{path.name}: {time.perf_counter() - start:.2f} s"
                if resource and args.workers == 1:
                    batches = sum(p.frames for p in report.points) // harness.BATCH_FRAMES
                    cost += f", {(minor_faults() - faults) / batches:.0f} minor faults per batch"
                if args.workers == 1:
                    cost += f", {batch_peak_mib(spec):.2f} MiB peak per batch"
                print(cost, file=sys.stderr)
                harness.write_ber_csv(path, report)
                print("wrote", path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
