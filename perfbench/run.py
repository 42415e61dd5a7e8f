#!/usr/bin/env python3
"""Seeded BER-sweep benchmark for uwofdm.

    python3 perfbench/run.py --workload fixed-uncoded --seed 1 --seconds 25 --trace 0

Runs the workload's sweeps through ``harness.run_ber_sweep`` with one
worker, in passes, for up to ``--seconds`` (at least one pass).  Every
BER point is checked (see ``checks.py``).  With ``--trace 0`` it reports
the end-to-end metrics; with ``--trace 1`` it reports per-layer metrics
from an outside-in traced pass (see ``tracer.py``).  The last line of
standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--workload all``
runs every workload in turn in this one process and prefixes each metric
with its workload's name.  Details are in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import meta  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import (FIXTURE, FRAME_SYMBOLS, SYSTEMS, WORKLOADS, cells,  # noqa: E402
                       info_bits_per_frame, schedule)

DEFAULT_SEED = 1
SETUP_REPEATS = 15

#: Per-layer metrics: (metric, span name, quantity).  "ms" is self time
#: per 256-frame batch, "calls" is calls per batch, "items_per_call" is
#: frames per call; every batch of the workload (all cells) counts.
LAYER_METRICS = (
    ("fec.viterbi.ms_per_batch", "fec.viterbi", "ms"),
    ("fec.viterbi.calls_per_batch", "fec.viterbi", "calls"),
    ("fec.viterbi.frames_per_call", "fec.viterbi", "items_per_call"),
    ("fec.encode.ms_per_batch", "fec.encode", "ms"),
    ("fec.demap.ms_per_batch", "fec.demap", "ms"),
    ("fec.qpsk.ms_per_batch", "fec.qpsk", "ms"),
    ("channel.apply_channel_cyclic.ms_per_batch", "channel.apply_channel_cyclic", "ms"),
    ("channel.cyclic_convolve.ms_per_batch", "channel.cyclic_convolve", "ms"),
    ("channel.sample_channel.ms_per_batch", "channel.sample_channel", "ms"),
    ("channel.sample_channel.calls_per_batch", "channel.sample_channel", "calls"),
    ("txchain.encode_batch.ms_per_batch", "txchain.encode_batch", "ms"),
    ("rxchain.build_equalizer.ms_per_batch", "rxchain.build_equalizer", "ms"),
    ("rxchain.build_equalizer.calls_per_batch", "rxchain.build_equalizer", "calls"),
    ("rxchain.equalize.ms_per_batch", "rxchain.equalize", "ms"),
    ("cpref.encode.ms_per_batch", "cpref.encode", "ms"),
    ("cpref.channel.ms_per_batch", "cpref.channel", "ms"),
    ("cpref.decode.ms_per_batch", "cpref.decode", "ms"),
    ("numerics.dft.ms_per_batch", "numerics.dft", "ms"),
    ("numerics.dft.calls_per_batch", "numerics.dft", "calls"),
    ("harness.other.ms_per_batch", "harness.sweep", "ms"),
)
UNITS = {"ms": "ms", "calls": "count", "items_per_call": "count"}


class Session:
    """A fresh import of uwofdm plus the workload's sweep specs.

    Construction is the benchmark's set-up: it imports the package anew
    (so module-level caches start empty) and fills the caches that the
    first ``run_ber_sweep`` call per cell would fill: the per-spec
    context (fixture load, ``derive_generator``, unique word, DFT
    matrices) and, on the fixed channel, the per-point equalizers.
    """

    def __init__(self, workload, seed: int, tracer=None):
        start = time.perf_counter()
        for name in [n for n in sys.modules if n == "uwofdm" or n.startswith("uwofdm.")]:
            del sys.modules[name]
        importlib.import_module("uwofdm")
        self.harness = importlib.import_module("uwofdm.harness")
        frame = importlib.import_module("uwofdm.frame")
        cpref = importlib.import_module("uwofdm.cpref")
        fec = importlib.import_module("uwofdm.fec")
        if tracer is not None:
            tracer.install()

        config = frame.reference_config()
        channel = f"fixed:{ROOT / FIXTURE}" if workload.channel == "fixed" else "ensemble"
        self.workload = workload
        self.batch_frames = self.harness.BATCH_FRAMES
        self.cells = cells(workload)
        self.order = schedule(workload)
        self.budgets = {}
        self.specs = []
        for cell in self.cells:
            n_info = info_bits_per_frame(cell.system, cell.code_rate, config.data_count,
                                         cpref.CpConfig().data_count, fec.TAIL_BITS)
            budget = self.batch_frames * n_info
            self.budgets[(cell.system, cell.code_rate)] = budget
            self.specs.append(self.harness.SweepSpec(
                config=config, system=cell.system, ebn0_db=cell.ebn0_db, seed=seed,
                code_rate=cell.code_rate, channel=channel,
                min_error_events=budget + 1, max_bits_per_point=budget,
                frame_symbols=FRAME_SYMBOLS))
        self._fill_caches()
        self.setup_s = time.perf_counter() - start

    def _fill_caches(self) -> None:
        # The harness's own cache fillers; skipped if a later version
        # renames them, in which case the first pass pays for them.
        context = getattr(self.harness, "_context", None)
        equalizer = getattr(self.harness, "_fixed_equalizer", None)
        for spec in self.specs:
            if context is not None:
                context(spec)
            if equalizer is not None and spec.system != "cp" and spec.channel != "ensemble":
                for i in range(len(spec.ebn0_db)):
                    equalizer(spec, i)

    def run_pass(self, between_cells=None, order=None) -> list:
        """One sweep per entry of ``order`` (default: the workload's
        schedule); returns ``(cell, seconds, points)`` per sweep, ``points``
        being None when the sweep raised.  ``between_cells`` is called,
        untimed, after each sweep."""
        out = []
        for i in self.order if order is None else order:
            cell, spec = self.cells[i], self.specs[i]
            start = time.perf_counter()
            try:
                report = self.harness.run_ber_sweep(spec, workers=1)
            except Exception as exc:  # counted as failed points, run continues
                print(f"{cell}: {type(exc).__name__}: {exc}", file=sys.stderr)
                points = None
            else:
                points = tuple((p.ebn0_db, p.bits, p.bit_errors, p.frames, p.frame_errors)
                               for p in report.points)
            out.append((cell, time.perf_counter() - start, points))
            if between_cells is not None:
                between_cells()
        return out


class Tally:
    """Attempted and failed sweep points over every pass of a run."""

    def __init__(self, session: Session, reference: dict):
        self.session, self.reference = session, reference
        self.attempted = 0
        self.failures: list = []
        self.first: dict = {}  # cell -> points of its first sweep in the run

    def check(self, results: list) -> None:
        """Check one pass.  Every sweep of a cell must also reproduce the
        cell's first sweep in the run exactly, traced or not."""
        failed = checks.check_workload(self.session.workload,
                                       [(c, p) for c, _, p in results],
                                       self.session.budgets, self.reference)
        for cell, _, points in results:
            self.attempted += len(cell.ebn0_db)
            first = self.first.setdefault(cell, points)
            if first is None or points is None:
                continue
            for point, again in zip(points, first):
                if point != again:
                    key = checks.point_key(cell.system, cell.code_rate, point[0])
                    failed.setdefault(key, f"{key}: differs from the cell's first sweep")
        self.failures += failed.values()


def pass_metrics(results: list) -> dict:
    """A system's Mbit/s over one pass: its cells' bits over their
    seconds, a cell run several times in the pass counting once at its
    median time."""
    times: dict = {}
    for cell, elapsed, points in results:
        times.setdefault(cell, ([], sum(p[1] for p in points or ())))[0].append(elapsed)
    bits = dict.fromkeys(SYSTEMS, 0)
    seconds = dict.fromkeys(SYSTEMS, 0.0)
    for cell, (elapsed, cell_bits) in times.items():
        seconds[cell.system] += statistics.median(elapsed)
        bits[cell.system] += cell_bits
    out = {f"mbps_{s.replace('-', '_')}": bits[s] / seconds[s] / 1e6 for s in SYSTEMS}
    out["sweep_s"] = sum(elapsed for _, elapsed, _ in results)
    return out


def batches_in(results: list, batch_frames: int) -> int:
    return sum(p[3] for _, _, points in results for p in points or ()) // batch_frames


def timed_passes(session: Session, tally: Tally, seconds: float,
                 between_cells=None) -> list:
    """Run passes for up to ``seconds``, at least one: a pass starts only if
    one more pass as long as the last still ends in time."""
    passes = []
    start = last = time.perf_counter()
    while not passes or 2 * time.perf_counter() - last - start <= seconds:
        last = time.perf_counter()
        results = session.run_pass(between_cells)
        tally.check(results)
        passes.append(results)
    return passes


def measure_end_to_end(workload, seed: int, seconds: float, reference: dict):
    """Timed passes for ``seconds``.  Set-up is timed SETUP_REPEATS times,
    spread over the run (between cells, then after the passes) so its
    median does not hang on the machine's state at one moment.  The first
    set-up, which also imports numpy and scipy, is left out."""
    session = Session(workload, seed)
    tally = Tally(session, reference)
    setups = []
    last_setup = time.perf_counter()

    def time_setup():
        nonlocal last_setup
        if len(setups) < SETUP_REPEATS and \
                time.perf_counter() - last_setup >= seconds / SETUP_REPEATS:
            setups.append(Session(workload, seed).setup_s)
            last_setup = time.perf_counter()

    per_pass = [pass_metrics(r) for r in timed_passes(session, tally, seconds,
                                                      between_cells=time_setup)]
    setups += [Session(workload, seed).setup_s for _ in range(SETUP_REPEATS - len(setups))]
    metrics = {name: (statistics.median(p[name] for p in per_pass), "Mbit/s")
               for name in per_pass[0] if name.startswith("mbps_")}
    metrics["sweep_s"] = (statistics.median(p["sweep_s"] for p in per_pass), "s")
    metrics["setup_s"] = (statistics.median(setups), "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    detail = {"passes": per_pass, "setup_s": setups}
    return tally, metrics, detail, None


def measure_layers(workload, seed: int, seconds: float, reference: dict):
    """Untraced passes for half of ``seconds``, then traced passes for the
    other half on a fresh, traced set-up."""
    session = Session(workload, seed)
    tally = Tally(session, reference)
    untraced = timed_passes(session, tally, seconds / 2)

    tracer = tracing.Tracer()
    try:
        session = Session(workload, seed, tracer=tracer)
        setup_spans = tracer.take()
        passes = timed_passes(session, tally, seconds / 2)
    finally:
        tracer.uninstall()
    spans = tracer.take()

    summary = tracing.summarize(spans)
    batches = sum(batches_in(r, session.batch_frames) for r in passes)
    metrics = {}
    for name, span, quantity in LAYER_METRICS:
        s = summary.get(span, {"calls": 0, "items": 0, "self_s": 0.0})
        value = {"ms": 1000.0 * s["self_s"] / batches,
                 "calls": s["calls"] / batches,
                 "items_per_call": s["items"] / s["calls"] if s["calls"] else 0.0}[quantity]
        metrics[name] = (value, UNITS[quantity])
    sweep = summary.get("harness.sweep", {"total_s": 0.0})
    metrics["harness.batch.ms"] = (1000.0 * sweep["total_s"] / batches, "ms")
    derive = tracing.summarize(setup_spans).get("frame.derive_generator", {"total_s": 0.0})
    metrics["frame.derive_generator.ms"] = (1000.0 * derive["total_s"], "ms")
    traced_sweep = statistics.median(pass_metrics(r)["sweep_s"] for r in passes)
    untraced_sweep = statistics.median(pass_metrics(r)["sweep_s"] for r in untraced)
    metrics["trace.overhead"] = (traced_sweep / untraced_sweep, "ratio")

    offset = len(setup_spans)
    all_spans = setup_spans + [s[:3] + [s[3] + offset if s[3] >= 0 else -1] + s[4:]
                               for s in spans]
    detail = {"batches_per_pass": batches // len(passes), "passes": len(passes),
              "unwrapped": tracer.missing, "layers": summary}
    return tally, metrics, detail, all_spans


def run_workload(name: str, seed: int, seconds: float, trace: bool, env_at_start: dict):
    workload = WORKLOADS[name]
    reference = checks.load_reference()
    measure = measure_layers if trace else measure_end_to_end
    tally, metrics, detail, spans = measure(workload, seed, seconds, reference)

    run_meta = meta.collect(ROOT, seed, env_at_start)
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}"
    record = {"workload": name, "seconds": seconds, "meta": run_meta,
              "attempted": tally.attempted, "failures": tally.failures,
              "metrics": {k: v for k, (v, _) in metrics.items()}, "detail": detail}
    with open(f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    if spans is not None:
        tracing.write_spans(f"{stem}.spans.jsonl", spans)

    print(f"# meta {json.dumps(run_meta)}")
    for failure in tally.failures:
        print(f"FAILED {name} {failure}")
    for metric, (value, unit) in metrics.items():
        print(f"{name} {metric} {value:.6g} {unit}")
    return tally, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env_at_start = meta.thread_env()
    if not (ROOT / "src" / "uwofdm" / "__init__.py").is_file() or not (ROOT / FIXTURE).is_file():
        print(f"uwofdm sources or {FIXTURE} not found under {ROOT}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    out = {}
    for name in names:
        tally, metrics = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                      env_at_start)
        attempted += tally.attempted
        failed += len(tally.failures)
        prefix = f"{name}." if args.workload == "all" else ""
        out.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
