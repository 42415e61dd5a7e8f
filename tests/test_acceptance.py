"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Monte-Carlo criteria run on the pinned two-notch channel fixture at
fixed seeds, so every number below is reproducible bit for bit.
"""

import itertools
import math
import time

import numpy as np
import pytest

import uwofdm as uw
from uwofdm import channel as chan
from uwofdm import cli, cpref, fec, harness
from uwofdm.frame import optimize_placement
from uwofdm.txchain import encode_batch

from conftest import NOTCH_FIXTURE
from oracles import (analytic_cp_required_ebn0_db, apply_channel_stream,
                     inverse_dft_matrix, permutation, selection, stream_symbol_windows,
                     time_symbol)

FIXTURE = f"fixed:{NOTCH_FIXTURE}"


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number} [{name}]: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def crossing_db(points, level=1e-4):
    """Eb/N0 where a measured curve crosses a BER level (log-linear)."""
    for a, b in zip(points, points[1:]):
        if a.ber > level >= b.ber and b.ber > 0:
            frac = (math.log10(level) - math.log10(a.ber)) \
                / (math.log10(b.ber) - math.log10(a.ber))
            return a.ebn0_db + frac * (b.ebn0_db - a.ebn0_db)
    return None


def sweep(system, rate, grid, min_errors, max_bits, seed=1):
    spec = harness.SweepSpec(
        config=uw.reference_config(), system=system, ebn0_db=grid, seed=seed,
        code_rate=rate, channel=FIXTURE, min_error_events=min_errors,
        max_bits_per_point=max_bits)
    return harness.run_ber_sweep(spec).points


def test_criterion_1_zero_uw_construction(ref_gen):
    start = time.perf_counter()
    rng = np.random.default_rng(100)
    data = uw.qpsk_map(rng.integers(0, 2, (10_000, 72)))
    x = time_symbol(ref_gen, data)
    rms = float(np.sqrt(np.mean(np.abs(x) ** 2)))
    worst = float(np.abs(x[:, -16:]).max())
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 * rms and elapsed < 10.0
    report(1, "zero-UW construction", ok,
           f"max tail {worst:.2e} vs bound {1e-9 * rms:.2e}, {elapsed:.1f} s")


def test_criterion_2_generator_oracle(toy_config, toy_gen):
    tail = inverse_dft_matrix(8)[6:, :] @ selection(toy_config) @ permutation(toy_config)
    t_oracle = np.zeros((2, 4), dtype=complex)
    for col in range(4):
        t_oracle[:, col] = np.linalg.solve(tail[:, 4:], -tail[:, col])
    worst = float(np.abs(toy_gen.redundancy - t_oracle).max())
    report(2, "generator oracle", worst <= 1e-10,
           f"max |T - T_oracle| = {worst:.2e}")


def test_criterion_3_placement(ref_config, ref_gen, monkeypatch):
    start = time.perf_counter()
    toy = uw.OfdmSystemConfig(dft_size=16, zero_indices=(0, 8, 9, 15),
                              redundant_indices=(1, 2, 3, 4))

    # independent oracle: enumerate all C(12,4) subsets through the full
    # generator derivation instead of the optimizer's internal slicing
    best_metric, best_set = math.inf, None
    for subset in itertools.combinations(toy.active_indices.tolist(), 4):
        cfg = uw.OfdmSystemConfig(dft_size=16, zero_indices=(0, 8, 9, 15),
                                  redundant_indices=subset)
        try:
            metric = uw.redundant_energy_metric(uw.derive_generator(cfg))
        except uw.PlacementInfeasibleError:
            continue
        if metric < best_metric:
            best_metric, best_set = metric, subset
    found_set, found_metric = optimize_placement(toy)  # C(12, 4) subsets: exhaustive
    monkeypatch.setattr(uw.frame, "EXHAUSTIVE_LIMIT", 0)
    greedy_set, greedy_metric = optimize_placement(toy)
    exhaustive_ok = (set(found_set) == set(best_set)
                     and found_metric == pytest.approx(best_metric, rel=1e-9)
                     and greedy_metric >= best_metric - 1e-12)

    # published placement against 1000 random admissible ones
    rng = np.random.default_rng(101)
    reference_metric = uw.redundant_energy_metric(ref_gen)
    wins = 0
    for _ in range(1000):
        subset = tuple(sorted(rng.choice(ref_config.active_indices,
                                         size=16, replace=False).tolist()))
        cfg = uw.OfdmSystemConfig(dft_size=64, zero_indices=ref_config.zero_indices,
                                  redundant_indices=subset)
        try:
            metric = uw.redundant_energy_metric(uw.derive_generator(cfg))
        except uw.PlacementInfeasibleError:
            metric = math.inf
        wins += metric > reference_metric
    elapsed = time.perf_counter() - start
    ok = exhaustive_ok and wins == 1000 and elapsed < 120.0
    report(3, "placement search", ok,
           f"toy optimum {best_metric:.4f} found={exhaustive_ok}, "
           f"reference beats random {wins}/1000, {elapsed:.0f} s")


def test_criterion_4_stream_cyclicity(ref_gen, ref_uw):
    rng = np.random.default_rng(102)
    data = uw.qpsk_map(rng.integers(0, 2, (10, 72)))
    symbols = encode_batch(data, ref_gen, ref_uw)

    results = {}
    for taps in (16, 20):
        ch = uw.sample_channel(np.random.default_rng(103), tap_count=taps)
        stream = apply_channel_stream(symbols, ch, 0.0,
                                      rng, uw_samples=ref_uw.samples)
        windows = stream_symbol_windows(stream, 64)
        cyclic = chan.apply_channel_cyclic(symbols, ch, 0.0, rng)
        scale = float(np.sqrt(np.mean(np.abs(cyclic[1:]) ** 2)))
        results[taps] = float(np.abs(windows[1:] - cyclic[1:]).max()) / scale
    ok = results[16] <= 1e-9 and results[20] > 1e-6
    report(4, "stream/cyclic equivalence", ok,
           f"L=16 mismatch {results[16]:.2e} (<=1e-9), "
           f"L=20 mismatch {results[20]:.2e} (>1e-6)")


@pytest.fixture(scope="module")
def probe_rows(ref_config):
    start = time.perf_counter()
    rows, _ = harness.run_mse_probe(ref_config, FIXTURE, ebn0_db=15.0,
                                    n_symbols=100_000, seed=104)
    return rows, time.perf_counter() - start


def test_criterion_5_covariance_algebra(probe_rows):
    rows, elapsed = probe_rows
    pre_dev = max(abs(r[1] - r[3]) / r[3] for r in rows)
    post_dev = max(abs(r[2] - r[4]) / r[4] for r in rows)
    ok = pre_dev <= 0.03 and post_dev <= 0.03 and elapsed < 120.0
    report(5, "covariance algebra", ok,
           f"pre dev {pre_dev:.2%}, post dev {post_dev:.2%} (<=3%), "
           f"{elapsed:.0f} s at 1e5 symbols")


def test_criterion_6_smoothing_dominance(probe_rows, notch_channel, ref_config):
    rows, _ = probe_rows
    pre = np.array([r[1] for r in rows])
    post = np.array([r[2] for r in rows])
    all_reduced = bool((post < pre).all())
    power = np.abs(notch_channel.active_response(ref_config.active_indices)) ** 2
    notch_positions = set(np.argsort(power)[:2].tolist())
    top_ratio = set(np.argsort(pre / post)[-2:].tolist())
    ok = all_reduced and top_ratio == notch_positions
    report(6, "smoothing dominance", ok,
           f"post<pre on all 52: {all_reduced}, largest ratios at "
           f"{sorted(top_ratio)} vs notches {sorted(notch_positions)}")


def test_criterion_7_cp_baseline_closed_form(tmp_path):
    cfg = cpref.CpConfig()
    flat = chan._realization_from_taps(np.array([1.0 + 0j]), 20e6, 1e-7, 64)
    fixture = tmp_path / "flat.txt"
    chan.save_snapshot(fixture, flat, seed=0, draw=0)

    # grid spanning analytic BER 1e-2 .. 1e-5
    grid = tuple(round(analytic_cp_required_ebn0_db(10.0 ** -e, cfg), 2)
                 for e in (2.0, 2.75, 3.5, 4.25, 5.0))
    spec = harness.SweepSpec(
        config=uw.reference_config(), system="cp", ebn0_db=grid, seed=105,
        code_rate="none", channel=f"fixed:{fixture}",
        min_error_events=400, max_bits_per_point=60_000_000)
    points = harness.run_ber_sweep(spec).points
    deviations = []
    for point in points:
        required = analytic_cp_required_ebn0_db(point.ber, cfg)
        deviations.append(abs(required - point.ebn0_db))
    worst = max(deviations)
    report(7, "CP baseline closed form", worst <= 0.2,
           f"worst horizontal deviation {worst:.3f} dB (<=0.2) over "
           f"BER {points[0].ber:.1e}..{points[-1].ber:.1e}")


def test_criterion_8_comparative_ber():
    start = time.perf_counter()
    detail = []

    # (a) uncoded comparison
    grid = (12.0, 16.0, 20.0, 24.0, 28.0, 32.0, 36.0)
    uw_pts = sweep("uw-lmmse", "none", grid, 200, 16_000_000)
    cp_pts = sweep("cp", "none", grid, 200, 16_000_000)
    beats_everywhere = all(
        u.ber < c.ber for u, c in zip(uw_pts, cp_pts) if c.ber <= 1e-2)
    uw_x, cp_x = crossing_db(uw_pts), crossing_db(cp_pts)
    uncoded_gain = (cp_x - uw_x) if (uw_x and cp_x) else float("nan")
    ok_a = beats_everywhere and uncoded_gain >= 3.0
    detail.append(f"uncoded gain {uncoded_gain:.1f} dB at 1e-4 (>=3)")

    # (b) coded comparisons with CI separation around the 1e-4 level.
    # Viterbi errors come in bursts, so a point's error count holds several
    # times fewer independent events than bits in error: 1000 errors (or
    # 60 M bits) per point keep the separation from turning on one noise
    # realization, as it did at 300 errors and 6 M bits.
    ok_b = True
    for rate, grid in (("1/2", tuple(np.arange(5.0, 11.5, 1.0))),
                       ("3/4", tuple(np.arange(10.0, 16.5, 1.0)))):
        uw_pts = sweep("uw-lmmse", rate, grid, 1000, 60_000_000)
        cp_pts = sweep("cp", rate, grid, 1000, 60_000_000)
        uw_x, cp_x = crossing_db(uw_pts), crossing_db(cp_pts)
        gain = (cp_x - uw_x) if (uw_x and cp_x) else float("nan")
        # CI separation at the grid points bracketing CP's crossing
        bracket = [i for i, p in enumerate(cp_pts) if p.ber > 1e-4]
        sep = False
        if bracket and bracket[-1] + 1 < len(grid):
            j = bracket[-1]
            sep = all(uw_pts[k].ci_high < cp_pts[k].ci_low for k in (j, j + 1))
        ok_b &= (not math.isnan(gain)) and gain > 0 and sep
        detail.append(f"r={rate} gain {gain:.2f} dB at 1e-4, CI-separated {sep}")

    elapsed = time.perf_counter() - start
    detail.append(f"{elapsed:.0f} s (<1800); originally published gains at "
                  f"BER 1e-6 on a different snapshot: 0.65 dB (r=1/2), "
                  f"0.9 dB (r=3/4), recorded, not asserted")
    report(8, "comparative BER", ok_a and ok_b and elapsed < 1800.0,
           "; ".join(detail))


def test_criterion_9_fec_known_answer():
    impulse = fec.conv_encode(np.array([1, 0, 0, 0, 0, 0, 0], dtype=np.uint8))
    octal_ok = (impulse[0:14:2].tolist() == [1, 0, 1, 1, 0, 1, 1]
                and impulse[1:14:2].tolist() == [1, 1, 1, 1, 0, 0, 1])

    spec = fec.InterleaverSpec(block_bits=72, columns=12)
    rng = np.random.default_rng(106)
    loopback_ok = True
    for rate, n_info in (("1/2", 30), ("3/4", 48)):
        bits = rng.integers(0, 2, n_info).astype(np.uint8)
        tx = fec.interleave(fec.puncture(fec.conv_encode(bits), rate), spec)
        soft = fec.qpsk_soft_demap(fec.qpsk_map(tx), 0.8)
        stream = fec.depuncture(fec.deinterleave(soft, spec), rate)
        loopback_ok &= bool(
            np.array_equal(fec.viterbi_decode(stream, n_info), bits))

    bits = rng.integers(0, 2, 64).astype(np.uint8)
    llrs = 1.0 - 2.0 * fec.conv_encode(bits).astype(float)
    llrs[17] *= -3.0
    flip_ok = bool(np.array_equal(fec.viterbi_decode(llrs, 64), bits))

    ok = octal_ok and loopback_ok and flip_ok
    report(9, "FEC known answer", ok,
           f"octal impulse {octal_ok}, loopback {loopback_ok}, "
           f"fault injection {flip_ok}")


def test_criterion_10_cli_determinism(tmp_path):
    cfg = tmp_path / "det.cfg"
    cfg.write_text("system = uw-lmmse\nebn0_db = [10, 14]\ncode_rate = 1/2\n"
                   "min_error_events = 60\nmax_bits_per_point = 200000\n")
    outputs = {}
    for tag, workers in (("a1", 1), ("b1", 1), ("a8", 8)):
        out = tmp_path / f"{tag}.csv"
        code = cli.main(["ber-sweep", "--config", str(cfg), "--seed", "9",
                         "--out", str(out), "--workers", str(workers),
                         "--channel", FIXTURE])
        assert code == 0
        outputs[tag] = out.read_bytes()
    ok = outputs["a1"] == outputs["b1"] == outputs["a8"]
    report(10, "CLI determinism", ok,
           f"repeat identical: {outputs['a1'] == outputs['b1']}, "
           f"8 workers identical: {outputs['a1'] == outputs['a8']}")
