"""Self-tests of the benchmark.  Run on their own (they re-import uwofdm):

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import FIXTURE, WORKLOADS, cells, schedule  # noqa: E402


def _package_bindings() -> dict:
    return {(name, key): value
            for name, mod in list(sys.modules.items())
            if name == "uwofdm" or name.startswith("uwofdm.")
            for key, value in vars(mod).items() if callable(value)}


@pytest.fixture(scope="module")
def fixed_uncoded():
    return run.Session(WORKLOADS["fixed-uncoded"], seed=run.DEFAULT_SEED)


def test_traced_and_untraced_reports_identical():
    session = run.Session(WORKLOADS["ensemble"], seed=7)
    cp_none, uw_half, cp_half = session.specs[2], session.specs[3], session.specs[5]
    fixed = f"fixed:{run.ROOT / FIXTURE}"
    specs = [dataclasses.replace(uw_half, channel=fixed, ebn0_db=(6.0,)),
             dataclasses.replace(cp_half, channel=fixed, ebn0_db=(6.0,)),
             dataclasses.replace(cp_none, ebn0_db=(10.0,))]
    harness = session.harness
    untraced = [harness.run_ber_sweep(spec, workers=1) for spec in specs]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = [harness.run_ber_sweep(spec, workers=1) for spec in specs]
    finally:
        tracer.uninstall()
    assert traced == untraced
    names = {span[0] for span in tracer.spans}
    assert {"fec.viterbi", "cpref.channel", "channel.sample_channel",
            "channel.cyclic_convolve", "rxchain.equalize", "numerics.dft",
            "harness.sweep"} <= names


def test_wrappers_fully_restored(fixed_uncoded):
    before = _package_bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        txchain = sys.modules["uwofdm.txchain"]
        assert txchain.forward_dft is not before[("uwofdm.txchain", "forward_dft")]
        assert txchain.forward_dft.__wrapped__ is before[("uwofdm.numerics", "forward_dft")]
    finally:
        tracer.uninstall()
    after = _package_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_perturbed_point_fails_output_check(fixed_uncoded):
    workload = WORKLOADS["fixed-uncoded"]
    reference = checks.load_reference()
    outcomes = [(cell, points) for cell, _, points in fixed_uncoded.run_pass()]
    assert checks.check_workload(workload, outcomes, fixed_uncoded.budgets, reference) == {}

    cell, points = outcomes[0]
    ebn0, bits, errors, frames, frame_errors = points[1]
    for bad in ((ebn0, bits, 3 * errors, frames, frame_errors),
                (ebn0, bits, errors // 3, frames, frame_errors),
                (ebn0, bits - 1, errors, frames, frame_errors)):
        perturbed = [(cell, points[:1] + (bad,) + points[2:])] + outcomes[1:]
        failed = checks.check_workload(workload, perturbed, fixed_uncoded.budgets, reference)
        assert list(failed) == [checks.point_key(cell.system, cell.code_rate, ebn0)]


def test_other_seed_passes_output_check():
    session = run.Session(WORKLOADS["fixed-uncoded"], seed=12345)
    outcomes = [(cell, points) for cell, _, points in session.run_pass()]
    assert checks.check_workload(WORKLOADS["fixed-uncoded"], outcomes, session.budgets,
                                 checks.load_reference()) == {}


def test_count_metrics_repeat_exactly():
    reference = checks.load_reference()
    counts = []
    for seed in (1, 2):
        tally, metrics, _, _ = run.measure_layers(WORKLOADS["fixed-coded"], seed, 0.0, reference)
        assert tally.failures == []
        counts.append({k: v for k, (v, unit) in metrics.items() if unit == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["fec.viterbi.frames_per_call"] == 256
    assert counts[0]["fec.viterbi.calls_per_batch"] == 1
    assert counts[0]["rxchain.build_equalizer.calls_per_batch"] == 0


def test_schedule_spreads_repeated_cells():
    for name in ("fixed-uncoded", "fixed-coded"):
        assert schedule(WORKLOADS[name]) == list(range(len(cells(WORKLOADS[name]))))
    workload = WORKLOADS["ensemble"]
    systems = [cells(workload)[i].system for i in schedule(workload)]
    assert systems == ["cp", "cp", "uw-lmmse", "cp", "cp", "uw-zf"] * 2
    assert sorted(set(schedule(workload))) == list(range(len(cells(workload))))


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fixed-uncoded", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
