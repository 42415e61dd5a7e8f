#!/usr/bin/env python3
"""Run the headline experiments on the pinned two-notch snapshot.

Produces, under results/:
  mse_probe.csv                per-carrier MSE before/after smoothing at
                               Eb/N0 = 15 dB (empirical + analytic)
  ber_<system>_<rate>.csv      BER curves for uw-lmmse / uw-zf / cp,
                               uncoded and at code rates 1/2 and 3/4

Runtime is dominated by the coded sweeps; expect a few minutes.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from uwofdm import harness, reference_config

ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURE = ROOT / "fixtures" / "notch_snapshot.txt"
OUT = ROOT / "results"
MSE_SYMBOLS = 100_000

GRIDS = {
    "none": tuple(float(x) for x in range(12, 37, 4)),
    "1/2": tuple(float(x) for x in range(5, 12)),
    "3/4": tuple(float(x) for x in range(10, 17)),
}


def main() -> int:
    OUT.mkdir(exist_ok=True)
    cfg = reference_config()

    rows, metadata = harness.run_mse_probe(cfg, f"fixed:{FIXTURE}", ebn0_db=15.0,
                                           n_symbols=MSE_SYMBOLS, seed=1)
    harness.write_mse_csv(OUT / "mse_probe.csv", rows, metadata)
    print("wrote", OUT / "mse_probe.csv")

    for rate, grid in GRIDS.items():
        for system in ("uw-lmmse", "uw-zf", "cp"):
            spec = harness.SweepSpec(
                config=cfg, system=system, ebn0_db=grid, seed=1,
                code_rate=rate, channel=f"fixed:{FIXTURE}",
                min_error_events=200, max_bits_per_point=8_000_000)
            report = harness.run_ber_sweep(spec)
            tag = rate.replace("/", "")
            path = OUT / f"ber_{system}_{tag}.csv"
            harness.write_ber_csv(path, report)
            print("wrote", path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
