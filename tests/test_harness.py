"""Sweep engine determinism, fairness, confidence intervals, config
ingestion and the CLI contract."""

import dataclasses
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uwofdm as uw
from uwofdm import channel as chan
from uwofdm import cli, cpref, fec, harness, rxchain, txchain
from uwofdm.errors import ConfigError, NumericallySingularError

from conftest import NOTCH_FIXTURE, REFERENCE_CFG_FILE
from oracles import analytic_cp_uncoded_ber, uncoded_lmmse_ber, uncoded_zf_ber

#: A 32-point UW system: 16 data carriers, an 8-sample unique word.
N32_VALUES = {"dft_size": 32, "data_count": 16, "uw_length": 8,
              "zero_indices": (0, 13, 14, 15, 16, 17, 18, 19),
              "redundant_indices": (2, 5, 8, 11, 21, 24, 27, 30)}
N32_CONFIG_TEXT = "".join(f"{k} = {list(v) if isinstance(v, tuple) else v}\n"
                          for k, v in N32_VALUES.items())

#: A 64-point system without a unique word; before the config refused
#: it, a UW sweep on it ended in a traceback (exit 1).
UW_LENGTH_0_TEXT = ("uw_length = 0\ndata_count = 52\nredundant_indices = []\n"
                    "channel_taps = 1")


def small_spec(system="uw-lmmse", rate="none", grid=(14.0,), seed=1,
               channel=None, **kw):
    return harness.SweepSpec(
        config=uw.reference_config(), system=system, ebn0_db=grid, seed=seed,
        code_rate=rate, channel=channel or f"fixed:{NOTCH_FIXTURE}",
        min_error_events=kw.pop("min_error_events", 50),
        max_bits_per_point=kw.pop("max_bits_per_point", 200_000), **kw)


@pytest.fixture(scope="module")
def flat_fixture(tmp_path_factory):
    path = tmp_path_factory.mktemp("chan") / "flat.txt"
    flat = chan._realization_from_taps(np.array([1.0 + 0j]), 20e6, 1e-7, 64)
    chan.save_snapshot(path, flat, seed=0, draw=0)
    return path


class TestSweepSpecValidation:
    def test_unknown_system(self):
        with pytest.raises(ConfigError):
            small_spec(system="uw-mmse")

    def test_empty_grid(self):
        with pytest.raises(ConfigError):
            small_spec(grid=())

    def test_bad_channel_string(self):
        with pytest.raises(ConfigError):
            small_spec(channel="snapshot.txt")

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_ebn0(self, value):
        with pytest.raises(ConfigError, match=f"finite, got {value}"):
            small_spec(grid=(10.0, value))

    @pytest.mark.parametrize("system", harness.SYSTEMS)
    def test_channel_taps_bounded_by_guard(self, system):
        """1 <= channel_taps <= guard + 1, the guard being the UW or the
        cyclic prefix (16 samples for both here); a fixed channel's taps
        come from its fixture instead."""
        for taps in (1, 17):
            small_spec(system=system, channel="ensemble", channel_taps=taps)
        for taps in (0, 18):
            with pytest.raises(ConfigError, match=f"channel_taps = {taps} does not fit"):
                small_spec(system=system, channel="ensemble", channel_taps=taps)
            small_spec(system=system, channel_taps=taps)

    def test_missing_fixture_fails_fast(self):
        spec = small_spec(channel="fixed:/nonexistent/chan.txt")
        with pytest.raises(ConfigError, match="fixture not found"):
            harness.run_ber_sweep(spec)


class TestStoppingAndLimits:
    def test_noiseless_limit_point_all_systems(self, flat_fixture):
        """Effectively noiseless grid point: a million bits, zero errors,
        for every receiver flavor."""
        for system in ("uw-lmmse", "uw-zf", "cp"):
            spec = small_spec(system=system, grid=(300.0,),
                              channel=f"fixed:{flat_fixture}",
                              min_error_events=1, max_bits_per_point=1_000_000)
            report = harness.run_ber_sweep(spec)
            point = report.points[0]
            assert point.bits >= 1_000_000
            assert point.bit_errors == 0
            assert point.ber == 0.0

    @pytest.mark.parametrize("rate", ["1/2", "3/4"])
    @pytest.mark.parametrize("system", harness.SYSTEMS)
    def test_noiseless_coded_point(self, flat_fixture, system, rate):
        """At 300 dB the variances clamp to 1e-300 and the LLRs reach
        ~1e300, far beyond float32; the decoder must still make no error."""
        spec = small_spec(system=system, rate=rate, grid=(300.0,),
                          channel=f"fixed:{flat_fixture}",
                          min_error_events=1, max_bits_per_point=100_000)
        point = harness.run_ber_sweep(spec).points[0]
        assert point.bits >= 100_000
        assert point.bit_errors == 0

    def test_noiseless_longest_coded_frame(self, flat_fixture):
        """One rate-1/2 frame of MAX_FRAME_SYMBOLS symbols: the longest
        trellis, where the float32 path metrics grow largest."""
        spec = small_spec(rate="1/2", grid=(300.0,), channel=f"fixed:{flat_fixture}",
                          frame_symbols=harness.MAX_FRAME_SYMBOLS)
        bits, errors, frames, _ = harness._run_batch(spec, 0, 0, n_frames=1)
        assert (bits, errors, frames) == (harness._context(spec).n_info, 0, 1)

    def test_stops_on_error_events(self):
        spec = small_spec(grid=(8.0,), min_error_events=50,
                          max_bits_per_point=10_000_000)
        point = harness.run_ber_sweep(spec).points[0]
        assert point.converged
        assert point.bit_errors >= 50

    def test_non_converged_flagged(self, flat_fixture):
        spec = small_spec(grid=(40.0,), channel=f"fixed:{flat_fixture}",
                          min_error_events=1000, max_bits_per_point=150_000)
        point = harness.run_ber_sweep(spec).points[0]
        assert not point.converged


class TestDeterminism:
    def test_same_spec_same_report(self):
        spec = small_spec(grid=(10.0, 14.0))
        assert harness.run_ber_sweep(spec) == harness.run_ber_sweep(spec)

    def test_worker_count_does_not_change_counts(self):
        spec = small_spec(grid=(10.0,), min_error_events=120,
                          max_bits_per_point=600_000)
        serial = harness.run_ber_sweep(spec, workers=1)
        parallel = harness.run_ber_sweep(spec, workers=3)
        assert serial == parallel

    @pytest.mark.parametrize("channel", ["fixed", "ensemble"])
    @pytest.mark.parametrize("rate", harness.CODE_RATES)
    @pytest.mark.parametrize("system", harness.SYSTEMS)
    def test_every_cell_same_at_two_workers(self, system, rate, channel):
        """Each system, code rate and channel mode gives the same report
        at 1 and 2 workers over three batches per point."""
        spec = small_spec(system=system, rate=rate, grid=(4.0, 16.0), frame_symbols=1,
                          channel=None if channel == "fixed" else channel,
                          min_error_events=10 ** 12)
        batch_bits = harness.BATCH_FRAMES * harness._context(spec).n_info
        spec = dataclasses.replace(spec, max_bits_per_point=3 * batch_bits)
        serial = harness.run_ber_sweep(spec, workers=1)
        assert [p.frames for p in serial.points] == [3 * harness.BATCH_FRAMES] * 2
        assert serial == harness.run_ber_sweep(spec, workers=2)

    def test_substreams_depend_only_on_point_and_batch(self):
        """The draw streams are derived from (seed, point, batch, role)
        alone, so compared systems consume paired randomness."""
        a = np.random.default_rng([7, 2, 5, 0]).integers(0, 2, 64)
        b = np.random.default_rng([7, 2, 5, 0]).integers(0, 2, 64)
        np.testing.assert_array_equal(a, b)

    def test_ensemble_mode_runs_deterministically(self):
        """Per-frame channel draws: still reproducible from the spec."""
        for system in ("uw-lmmse", "cp"):
            spec = small_spec(system=system, grid=(12.0,), channel="ensemble",
                              min_error_events=20, max_bits_per_point=60_000)
            a = harness.run_ber_sweep(spec)
            assert a == harness.run_ber_sweep(spec)
            assert a.points[0].bits > 0
            assert dict(a.metadata)["channel"] == "ensemble"

    def test_lmmse_never_worse_than_zf_paired(self):
        """On identical draws the smoother cannot lose to plain zero
        forcing on the notch snapshot."""
        bers = {}
        for system in ("uw-lmmse", "uw-zf"):
            spec = small_spec(system=system, grid=(10.0, 16.0),
                              min_error_events=200, max_bits_per_point=400_000)
            bers[system] = [p.ber for p in harness.run_ber_sweep(spec).points]
        assert all(u <= z for u, z in zip(bers["uw-lmmse"], bers["uw-zf"]))


def per_frame_batch(spec, point_idx, batch_idx, n_frames):
    """Reference ensemble batch: the per-frame loop, one channel draw,
    equalizer build and decoder call per frame, with the same streams as
    ``harness._run_batch``."""
    ctx = harness._context(spec)
    cfg, rate = spec.config, spec.code_rate
    f_sym, width = spec.frame_symbols, ctx.bits_per_symbol
    sigma2 = ctx.sigma2[point_idx]
    rng_bits, rng_ch, rng_noise = (
        np.random.default_rng([spec.seed, point_idx, batch_idx, role]) for role in range(3))
    bits = rng_bits.integers(0, 2, size=(n_frames, ctx.n_info)).astype(np.uint8)
    decided = np.empty_like(bits)
    for i in range(n_frames):
        ch = uw.sample_channel(rng_ch, spec.rms_delay_spread_s, cfg.sample_rate_hz,
                               spec.channel_taps, spec.dft_size)
        tx = bits[i]
        if rate != "none":
            tx = fec.interleave(fec.puncture(fec.conv_encode(tx), rate)
                                .reshape(f_sym, width), ctx.interleaver)
        data = uw.qpsk_map(tx.reshape(f_sym, width))
        if spec.system != "cp":
            eq = uw.build_equalizer(ch, ctx.gen, sigma2)
            x = txchain.encode_batch(data, ctx.gen, ctx.uw)
            y = uw.apply_channel_cyclic(x, ch, sigma2, rng_noise)
            if ctx.smoothing:
                estimates, variances = rxchain.equalize_batch(y, eq, ctx.uw), eq.error_variances
            else:
                positions = ctx.gen.map.data_positions
                estimates = rxchain.zf_only_symbol(y, eq, ctx.uw)[:, positions]
                variances = eq.noise_covariance[positions]
        else:
            x = cpref.cp_encode_symbol(data)
            y = cpref.cp_apply_channel(x, ch, sigma2, rng_noise)
            estimates, variances = cpref.cp_decode_symbol(y, ch, sigma2)
        if rate == "none":
            decided[i] = fec.qpsk_hard_bits(estimates).reshape(-1)
        else:
            llrs = uw.qpsk_soft_demap(estimates, np.maximum(variances, 1e-300))
            stream = fec.deinterleave(llrs, ctx.interleaver).reshape(-1)
            decided[i] = fec.viterbi_decode(fec.depuncture(stream, rate), ctx.n_info)
    wrong = decided != bits
    return (bits.size, int(wrong.sum()), n_frames, int(wrong.any(axis=1).sum()))


class TestEnsembleGroups:
    @pytest.mark.parametrize("system", harness.SYSTEMS)
    @pytest.mark.parametrize("rate, ebn0", [("none", 10.0), ("1/2", 6.0)])
    def test_matches_per_frame_loop(self, system, rate, ebn0):
        """40 frames: two full groups of 16 and a partial one."""
        spec = small_spec(system=system, rate=rate, grid=(ebn0,), seed=7,
                          channel="ensemble")
        batched = harness._run_batch(spec, 0, 3, n_frames=40)
        assert batched == per_frame_batch(spec, 0, 3, n_frames=40)
        assert batched[1] > 0

    def test_group_size_does_not_change_report(self, monkeypatch):
        specs = [small_spec(system=system, rate="1/2", grid=(6.0,), seed=5,
                            channel="ensemble", min_error_events=10 ** 9,
                            max_bits_per_point=1, frame_symbols=2)
                 for system in harness.SYSTEMS]
        expected = [harness.run_ber_sweep(spec) for spec in specs]
        for group in (1, 7, 256):
            monkeypatch.setattr(harness, "ENSEMBLE_GROUP_FRAMES", group)
            assert [harness.run_ber_sweep(spec) for spec in specs] == expected


@pytest.mark.parametrize("channel", ["ensemble", f"fixed:{NOTCH_FIXTURE}"])
def test_cp_rows_do_not_depend_on_config_dft_size(channel):
    """cp draws its channels at its own 64 points, and the taps are drawn
    independently of the DFT size, so a 32-point config (whose UW systems
    use 32 points) gives the reference config's cp rows; a 64-point
    fixture fits cp under either config."""
    n32 = harness.system_config_from(N32_VALUES)
    ref = small_spec(system="cp", grid=(6.0, 10.0), seed=4, channel=channel,
                     channel_taps=8, min_error_events=10 ** 9, max_bits_per_point=1)
    points = harness.run_ber_sweep(ref).points
    assert points == harness.run_ber_sweep(dataclasses.replace(ref, config=n32)).points
    assert all(p.bit_errors > 0 for p in points)


def test_confidence_interval_coverage(flat_fixture):
    """Known-BER synthetic setting (flat channel, closed-form truth):
    the 95% interval must cover the truth in at least 90 of 100 seeded
    trials."""
    cfg = cpref.CpConfig()
    truth = analytic_cp_uncoded_ber(9.0, cfg)
    covered = 0
    for seed in range(100):
        spec = small_spec(system="cp", grid=(9.0,), seed=seed,
                          channel=f"fixed:{flat_fixture}",
                          min_error_events=10 ** 9,  # force max-bits stop
                          max_bits_per_point=100_000)
        point = harness.run_ber_sweep(spec).points[0]
        if point.ci_low <= truth <= point.ci_high:
            covered += 1
    assert covered >= 90


@pytest.mark.parametrize("system", ["uw-zf", "cp"])
def test_zf_ber_matches_closed_form_on_notch_channel(system, notch_channel, ref_config):
    """Uncoded zero forcing on the frequency-selective notch fixture: each
    point, run to at least 5000 errors with a seed fixed in advance, lies
    within 3 standard errors of the closed form."""
    spec = small_spec(system=system, grid=(10.0, 16.0, 22.0), seed=11,
                      min_error_events=5000, max_bits_per_point=10 ** 9)
    for point in harness.run_ber_sweep(spec).points:
        truth = uncoded_zf_ber(system, ref_config, notch_channel.taps, point.ebn0_db)
        assert point.bit_errors >= 5000
        assert abs(point.ber - truth) <= 3 * math.sqrt(truth * (1 - truth) / point.bits)


def test_lmmse_ber_matches_semi_analytic_on_notch_channel(notch_channel, ref_config):
    """Uncoded uw-lmmse on the notch fixture against the semi-analytic
    reference written from the full smoother's definition: each point,
    run to at least 5000 errors with a seed fixed in advance, lies within
    3 standard errors of it."""
    spec = small_spec(system="uw-lmmse", grid=(10.0, 16.0, 22.0), seed=11,
                      min_error_events=5000, max_bits_per_point=10 ** 9)
    for point in harness.run_ber_sweep(spec).points:
        truth = uncoded_lmmse_ber(ref_config, notch_channel.taps, point.ebn0_db)
        assert point.bit_errors >= 5000
        assert abs(point.ber - truth) <= 3 * math.sqrt(truth * (1 - truth) / point.bits)


def test_rewritten_fixture_is_reread(tmp_path, flat_fixture):
    """A fixture rewritten between two sweeps in one process: the second
    sweep runs on the new channel, as a cold cache would, and its header
    names the new file's content.  Before, it reused the old channel's
    context under the new file's hash."""
    path = tmp_path / "channel.txt"
    path.write_bytes(NOTCH_FIXTURE.read_bytes())
    spec = small_spec(system="uw-zf", channel=f"fixed:{path}",
                      min_error_events=10 ** 9, max_bits_per_point=1)
    notch = harness.run_ber_sweep(spec)
    path.write_bytes(flat_fixture.read_bytes())
    rewritten = harness.run_ber_sweep(spec)
    harness._context.cache_clear()
    assert rewritten == harness.run_ber_sweep(spec)
    assert rewritten.points != notch.points
    ids = [dict(r.metadata)["channel_fixture_id"] for r in (notch, rewritten)]
    assert ids == [harness._fixture_id(f"fixed:{f}") for f in (NOTCH_FIXTURE, flat_fixture)]


class TestCsvFormat:
    def test_header_names_all_fields(self, tmp_path):
        spec = small_spec(grid=(12.0,))
        report = harness.run_ber_sweep(spec)
        out = tmp_path / "run.csv"
        harness.write_ber_csv(out, report)
        lines = out.read_text().splitlines()
        header = [l for l in lines if not l.startswith("#")][0]
        assert header == "ebn0_db,bits,bit_errors,ber,ci_low,ci_high,frames,frame_errors,converged"

    def test_byte_identical_reruns(self, tmp_path):
        spec = small_spec(grid=(12.0, 16.0))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        harness.write_ber_csv(a, harness.run_ber_sweep(spec))
        harness.write_ber_csv(b, harness.run_ber_sweep(spec))
        assert a.read_bytes() == b.read_bytes()

    def test_metadata_excludes_worker_count(self):
        report = harness.run_ber_sweep(small_spec(grid=(12.0,)), workers=2)
        keys = [k for k, _ in report.metadata]
        assert "workers" not in keys
        assert "config_hash" in keys and "seed" in keys
        assert dict(report.metadata)["uwofdm_version"] == uw.__version__

    def test_ensemble_metadata_names_channel_model(self, tmp_path):
        """Tap count and delay spread change ensemble bytes, so they must
        change the header too."""
        headers = []
        for taps in (16, 8):
            spec = small_spec(grid=(30.0,), channel="ensemble", channel_taps=taps,
                              max_bits_per_point=1)
            out = tmp_path / f"taps{taps}.csv"
            harness.write_ber_csv(out, harness.run_ber_sweep(spec))
            headers.append([l for l in out.read_text().splitlines() if l.startswith("#")])
        assert headers[0] != headers[1]
        assert "# channel_taps = 8" in headers[1]
        assert "# rms_delay_spread_s = 1e-07" in headers[1]


class TestMseProbe:
    def test_rows_and_analytic_columns(self, notch_channel, ref_config):
        rows = harness.run_mse_probe(ref_config, notch_channel,
                                     ebn0_db=15.0, n_symbols=20_000, seed=2)
        assert len(rows) == 52
        for idx, pre, post, a_pre, a_post in rows:
            assert post < pre
            assert pre == pytest.approx(a_pre, rel=0.08)
            assert post == pytest.approx(a_post, rel=0.08)

    def test_noiseless_point_has_no_negative_variance(self, notch_channel, ref_config):
        """At 300 dB (σ² about 1e-32, unclamped) no analytic column is
        negative: analytic_post is diag(G C_ee G^H) with C_ee = σ² A^-1,
        a positive semi-definite form.  The full smoother's
        diag(C_ss - W C_ss) left a rounding residue of about -2e-16."""
        rows = harness.run_mse_probe(ref_config, notch_channel,
                                     ebn0_db=300.0, n_symbols=200, seed=2)
        assert all(a_pre >= 0 and a_post >= 0 for _, _, _, a_pre, a_post in rows)


class TestConfigFile:
    def test_defaults_come_from_reference_config_and_spec(self):
        spec = harness.sweep_spec_from({}, seed=1, channel="ensemble")
        assert spec == harness.SweepSpec(config=uw.reference_config(), system="uw-lmmse",
                                         ebn0_db=(10.0, 14.0, 18.0), seed=1)
        assert harness.system_config_from({"sample_rate_hz": 10e6}) == \
            dataclasses.replace(uw.reference_config(), sample_rate_hz=10e6)

    def test_reference_file_parses(self):
        values = harness.parse_config_file(REFERENCE_CFG_FILE)
        config = harness.system_config_from(values)
        assert config == uw.reference_config()
        assert values["system"] == "uw-lmmse"

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("dft_size = 64\nnfft = 64\n")
        with pytest.raises(ConfigError, match="unknown key"):
            harness.parse_config_file(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "dup.cfg"
        path.write_text("dft_size = 64\ndft_size = 32\n")
        with pytest.raises(ConfigError, match="duplicate"):
            harness.parse_config_file(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("dft_size = sixty-four\n")
        with pytest.raises(ConfigError, match="bad value"):
            harness.parse_config_file(path)

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigError, match="cannot read"):
            harness.parse_config_file("/nonexistent.cfg")

    def test_arrays_parse(self, tmp_path):
        path = tmp_path / "ok.cfg"
        path.write_text("ebn0_db = [1, 2.5, 3]\nzero_indices = [0, 4]\n")
        values = harness.parse_config_file(path)
        assert values["ebn0_db"] == (1.0, 2.5, 3.0)
        assert values["zero_indices"] == (0, 4)


class TestCli:
    def test_derive(self, capsys):
        code = cli.main(["derive", "--config", str(REFERENCE_CFG_FILE)])
        out = capsys.readouterr().out
        assert code == 0
        assert "16 x 36" in out
        assert "condition" in out

    def test_unknown_flag_exits_2(self, capsys):
        assert cli.main(["derive", "--frobnicate"]) == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_subcommand_exits_2(self):
        assert cli.main(["transmogrify"]) == 2

    def test_missing_config_file_exits_2(self, capsys):
        assert cli.main(["derive", "--config", "/nonexistent.cfg"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_optimize_placement_toy(self, tmp_path, capsys):
        path = tmp_path / "toy.cfg"
        path.write_text(
            "dft_size = 16\ndata_count = 8\nuw_length = 4\n"
            "zero_indices = [0, 8, 9, 15]\nredundant_indices = [1, 2, 3, 4]\n")
        assert cli.main(["optimize-placement", "--config", str(path),
                         "--strategy", "exhaustive"]) == 0
        out = capsys.readouterr().out
        assert "strategy: exhaustive" in out
        assert "metric" in out and "indices" in out

    def test_optimize_placement_exhaustive_refused_exits_2(self, capsys):
        """Before, the refusal was a plain ValueError: exit 1, traceback."""
        assert cli.main(["optimize-placement", "--config", str(REFERENCE_CFG_FILE),
                         "--strategy", "exhaustive"]) == 2
        assert "10363194502115 subsets exceed limit" in capsys.readouterr().err

    def test_ber_sweep_writes_csv(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("system = uw-zf\nebn0_db = [10]\n"
                       "min_error_events = 20\nmax_bits_per_point = 100000\n")
        out = tmp_path / "run.csv"
        code = cli.main(["ber-sweep", "--config", str(cfg), "--seed", "3",
                         "--out", str(out), "--channel", f"fixed:{NOTCH_FIXTURE}"])
        assert code == 0
        text = out.read_text()
        assert text.splitlines()[0].startswith("#")
        assert "ebn0_db,bits," in text

    def test_fixture_size_mismatch_exits_2(self, tmp_path, capsys):
        """A 64-point fixture under a 32-point config would be read at the
        wrong carrier indices."""
        cfg = tmp_path / "n32.cfg"
        cfg.write_text(N32_CONFIG_TEXT + "ebn0_db = [10]\nmax_bits_per_point = 1000\n")
        out = tmp_path / "run.csv"
        code = cli.main(["ber-sweep", "--config", str(cfg), "--out", str(out),
                         "--channel", f"fixed:{NOTCH_FIXTURE}"])
        err = capsys.readouterr().err
        assert code == 2
        assert "dft_size = 64" in err and "dft_size = 32" in err
        assert not out.exists()

    def test_nan_ebn0_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "nan.cfg"
        cfg.write_text("ebn0_db = [nan]\nmax_bits_per_point = 1000\n")
        out = tmp_path / "run.csv"
        code = cli.main(["ber-sweep", "--config", str(cfg), "--out", str(out),
                         "--channel", f"fixed:{NOTCH_FIXTURE}"])
        assert code == 2
        assert "got nan" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-4"])
    def test_workers_below_one_exits_2(self, workers, tmp_path, capsys):
        """Before, these ran serially and exited 0."""
        out = tmp_path / "run.csv"
        code = cli.main(["ber-sweep", "--workers", workers, "--out", str(out),
                         "--channel", f"fixed:{NOTCH_FIXTURE}"])
        assert code == 2
        assert f"workers must be >= 1, got {workers}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, flag", [
        (command, flag)
        for command, unread in (("derive", ("--seed", "--out", "--channel", "--workers",
                                             "--strategy")),
                                ("optimize-placement", ("--seed", "--out", "--channel",
                                                        "--workers")),
                                ("snapshot", ("--channel", "--workers", "--strategy")),
                                ("mse-probe", ("--workers", "--strategy")),
                                ("ber-sweep", ("--strategy",)))
        for flag in unread])
    def test_unread_flag_exits_2(self, command, flag, tmp_path, capsys):
        """A subcommand takes only the flags it reads; before, ``derive
        --out d.csv --channel fixed:nowhere`` exited 0 and wrote nothing."""
        value = {"--out": str(tmp_path / "x.csv"), "--channel": "fixed:nowhere",
                 "--strategy": "greedy"}.get(flag, "2")
        assert cli.main([command, flag, value]) == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("command", ["ber-sweep", "mse-probe", "snapshot"])
    def test_negative_seed_exits_2(self, command, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert cli.main([command, "--seed", "-1", "--out", str(out)]) == 2
        assert "--seed must be a non-negative integer, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("system, taps", [("uw-lmmse", 80), ("uw-lmmse", 20),
                                              ("cp", 20)])
    def test_channel_taps_beyond_guard_exits_2(self, system, taps, tmp_path, capsys,
                                               monkeypatch):
        """Refused before any channel matrix is built: 80 taps overran the
        64-sample symbol, 20 taps the 16-sample guard."""
        def no_matrix(*args, **kwargs):
            raise AssertionError("channel matrix built for refused taps")
        monkeypatch.setattr(chan, "convolution_matrix", no_matrix)
        cfg = tmp_path / "taps.cfg"
        cfg.write_text(f"system = {system}\nchannel_taps = {taps}\n"
                       "ebn0_db = [10]\nmax_bits_per_point = 1000\n")
        out = tmp_path / "run.csv"
        code = cli.main(["ber-sweep", "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"channel_taps = {taps}" in err and "16-sample guard" in err
        assert not out.exists()

    def test_fixture_longer_than_guard_exits_2(self, tmp_path, capsys):
        fixture = tmp_path / "long.txt"
        long = chan._realization_from_taps(np.full(18, 0.2 + 0j), 20e6, 1e-7, 64)
        chan.save_snapshot(fixture, long, seed=0, draw=0)
        out = tmp_path / "run.csv"
        code = cli.main(["ber-sweep", "--out", str(out), "--channel", f"fixed:{fixture}"])
        assert code == 2
        assert "tap_count = 18 does not fit" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["0.1 0.2 0.3", "0.1 x", "# dft_size = x64",
                                     "nan 0.0", "inf 0.0", "# sample_rate_hz = nan"])
    def test_malformed_fixture_line_exits_2(self, bad, tmp_path, capsys):
        fixture = tmp_path / "bad.txt"
        fixture.write_text(NOTCH_FIXTURE.read_text() + bad + "\n")
        lineno = len(fixture.read_text().splitlines())
        out = tmp_path / "run.csv"
        code = cli.main(["ber-sweep", "--out", str(out), "--channel", f"fixed:{fixture}"])
        assert code == 2
        assert f"{fixture}:{lineno}: cannot read {bad!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("frame_symbols", [1, 3])
    def test_rate_3_4_with_odd_slots_exits_2(self, frame_symbols, tmp_path, capsys):
        """35 data carriers times an odd frame length: rate 3/4 has no
        info-bit count that punctures to exactly the frame's slots, which
        ended in a ValueError from ``fec.puncture`` (exit 1)."""
        cfg = tmp_path / "odd.cfg"
        cfg.write_text("data_count = 35\nzero_indices = [0, 1, 27, 28, 29, 30, 31, 32, "
                       "33, 34, 35, 36, 37]\ncode_rate = 3/4\n"
                       f"frame_symbols = {frame_symbols}\nebn0_db = [10]\n")
        out = tmp_path / "run.csv"
        code = cli.main(["ber-sweep", "--config", str(cfg), "--out", str(out),
                         "--channel", f"fixed:{NOTCH_FIXTURE}"])
        assert code == 2
        assert (f"code_rate = 3/4 needs data_count x frame_symbols to be even, "
                f"got 35 x {frame_symbols}") in capsys.readouterr().err
        assert not out.exists()

    def test_frame_symbols_beyond_bound_exits_2(self, tmp_path, capsys):
        """Before the bound, 10^12 symbols per frame asked for a 131 PiB
        array and exited 1."""
        cfg = tmp_path / "big.cfg"
        cfg.write_text("frame_symbols = 1000000000000\nebn0_db = [10]\n")
        out = tmp_path / "run.csv"
        code = cli.main(["ber-sweep", "--config", str(cfg), "--out", str(out),
                         "--channel", f"fixed:{NOTCH_FIXTURE}"])
        assert code == 2
        assert (f"frame_symbols must lie between 1 and {harness.MAX_FRAME_SYMBOLS}, "
                "got 1000000000000") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["ber-sweep", "mse-probe"])
    @pytest.mark.parametrize("size", [0, 8])
    def test_fixture_dft_size_below_taps_exits_2(self, command, size, tmp_path, capsys):
        """A fixture too small for its own 16 taps failed with a broadcast
        ValueError (exit 1) before the size check could name it."""
        fixture = tmp_path / "small.txt"
        fixture.write_text(NOTCH_FIXTURE.read_text().replace(
            "# dft_size = 64", f"# dft_size = {size}"))
        out = tmp_path / "out.csv"
        code = cli.main([command, "--out", str(out), "--channel", f"fixed:{fixture}"])
        assert code == 2
        assert (f"channel fixture {fixture}: dft_size = {size} must be >= 1 and "
                ">= its 16 taps") in capsys.readouterr().err
        assert not out.exists()

    def test_mse_symbols_below_one_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "probe.cfg"
        cfg.write_text("mse_symbols = 0\n")
        out = tmp_path / "mse.csv"
        code = cli.main(["mse-probe", "--config", str(cfg), "--out", str(out),
                         "--channel", f"fixed:{NOTCH_FIXTURE}"])
        assert code == 2
        assert "mse_symbols must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, text, message", [
        ("ber-sweep", "rms_delay_spread_s = 0", "rms_delay_spread_s must be finite "
         "and positive, got 0.0"),
        ("ber-sweep", "rms_delay_spread_s = -1e-7", "got -1e-07"),
        ("ber-sweep", "rms_delay_spread_s = nan", "rms_delay_spread_s must be "
         "finite and positive, got nan"),
        ("snapshot", "rms_delay_spread_s = 0", "rms_delay_spread_s must be finite "
         "and positive, got 0.0"),
        ("snapshot", "rms_delay_spread_s = -1e-7", "got -1e-07"),
        ("ber-sweep", "sample_rate_hz = nan", "sample_rate_hz must be finite and "
         "positive, got nan"),
        ("ber-sweep", "sample_rate_hz = 0", "sample_rate_hz must be finite and "
         "positive, got 0.0"),
        ("ber-sweep", "sample_rate_hz = -20e6", "sample_rate_hz must be finite and "
         "positive, got -20000000.0"),
        ("mse-probe", "mse_ebn0_db = nan", "mse_ebn0_db must lie between -1000 and "
         "1000 dB and be finite, got nan"),
        ("ber-sweep", "data_count = 0\nzero_indices = [" + ", ".join(map(str, range(48)))
         + "]\nredundant_indices = [" + ", ".join(map(str, range(48, 64))) + "]",
         "data_count must be >= 1, got 0"),
        ("ber-sweep", UW_LENGTH_0_TEXT, "uw_length must be >= 1, got 0"),
        ("mse-probe", UW_LENGTH_0_TEXT, "uw_length must be >= 1, got 0"),
    ])
    def test_physical_input_out_of_range_exits_2(self, command, text, message,
                                                 tmp_path, capsys):
        """Before, these ended in a traceback (exit 1) or in rows of
        nonsense with exit 0."""
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text + "\nebn0_db = [10]\nmax_bits_per_point = 1000\n")
        out = tmp_path / "out.csv"
        argv = [command, "--config", str(cfg), "--out", str(out)]
        if command == "mse-probe":
            argv += ["--channel", f"fixed:{NOTCH_FIXTURE}"]
        assert cli.main(argv) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, system", [("ber-sweep", "uw-lmmse"),
                                                 ("ber-sweep", "cp"), ("snapshot", "-")])
    @pytest.mark.parametrize("tau, rate, samples", [("1e-200", "1e-200", "0.0"),
                                                    ("1e-300", "1e-9", "1e-309")])
    def test_delay_spread_too_short_in_samples_exits_2(self, command, system, tau, rate,
                                                       samples, tmp_path, capsys,
                                                       monkeypatch):
        """Each value is finite and positive, but their product underflows
        to 0 (or 15 / product overflows), so the profile divided 0 by 0:
        two RuntimeWarnings, then exit 3 with a NaN channel response.  Now
        refused before any draw, naming both values."""
        def no_draw(*args, **kwargs):
            raise AssertionError("drew a channel for a refused delay spread")
        monkeypatch.setattr(chan, "sample_channel", no_draw)
        cfg = tmp_path / "spread.cfg"
        cfg.write_text(f"rms_delay_spread_s = {tau}\nsample_rate_hz = {rate}\n"
                       + (f"system = {system}\nebn0_db = [10]\n" if system != "-" else ""))
        out = tmp_path / "out.csv"
        assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert (f"rms_delay_spread_s = {float(tau)!r} times sample_rate_hz = "
                f"{float(rate)!r} is {samples} samples, too short for a finite 16-tap "
                "power delay profile") in capsys.readouterr().err
        assert not out.exists()

    def test_snapshot_taps_beyond_guard_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "snap.cfg"
        cfg.write_text("channel_taps = 80\n")
        out = tmp_path / "snap.txt"
        assert cli.main(["snapshot", "--config", str(cfg), "--out", str(out)]) == 2
        assert "channel_taps = 80" in capsys.readouterr().err
        assert not out.exists()

    def test_snapshot_without_notched_draw_exits_2(self, tmp_path, capsys, monkeypatch):
        """A one-tap (flat) channel never meets the notch rule, so the
        config is refused before the first draw, well under a second.
        Before, the search made all 100000 draws (7.6 s) and then exited 2."""
        def no_draw(*args, **kwargs):
            raise AssertionError("drew a channel for a flat config")
        monkeypatch.setattr(chan, "sample_channel", no_draw)
        cfg = tmp_path / "flat.cfg"
        cfg.write_text("channel_taps = 1\n")
        out = tmp_path / "snap.txt"
        start = time.perf_counter()
        assert cli.main(["snapshot", "--config", str(cfg), "--out", str(out)]) == 2
        assert time.perf_counter() - start < 1.0
        assert ("channel_taps = 1: a channel of tap_count = 1 is flat and never satisfies "
                "the notch rule (at least 2 active carriers 15 dB or more below the "
                "active-carrier mean); need channel_taps >= 2") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["ber-sweep", "mse-probe", "snapshot"])
    def test_out_directory_checked_before_work(self, command, tmp_path, capsys,
                                                monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("ran before --out was checked")
        monkeypatch.setattr(harness, "run_ber_sweep", no_work)
        monkeypatch.setattr(harness, "run_mse_probe", no_work)
        monkeypatch.setattr(chan, "pinned_snapshot", no_work)
        out = tmp_path / "missing" / "out.csv"
        argv = [command, "--out", str(out)]
        if command != "snapshot":
            argv += ["--channel", f"fixed:{NOTCH_FIXTURE}"]
        assert cli.main(argv) == 2
        assert str(out) in capsys.readouterr().err

    def test_out_is_directory_exits_2(self, tmp_path, capsys):
        code = cli.main(["snapshot", "--out", str(tmp_path)])
        assert code == 2
        assert "is a directory" in capsys.readouterr().err

    def test_ber_sweep_requires_out(self, tmp_path):
        assert cli.main(["ber-sweep", "--channel",
                         f"fixed:{NOTCH_FIXTURE}"]) == 2

    def test_mse_probe(self, tmp_path):
        cfg = tmp_path / "probe.cfg"
        cfg.write_text("mse_symbols = 2000\n")
        out = tmp_path / "mse.csv"
        code = cli.main(["mse-probe", "--config", str(cfg), "--out", str(out),
                         "--channel", f"fixed:{NOTCH_FIXTURE}"])
        assert code == 0
        header = [l for l in out.read_text().splitlines()
                  if not l.startswith("#")][0]
        assert header == "carrier_index,mse_pre,mse_post,analytic_pre,analytic_post"

    def test_mse_probe_header_names_fixture(self, tmp_path):
        """The same --channel string over two fixture contents must give
        two headers."""
        cfg = tmp_path / "probe.cfg"
        cfg.write_text("mse_symbols = 200\n")
        fixture = tmp_path / "chan.txt"
        flat = chan._realization_from_taps(np.array([1.0 + 0j]), 20e6, 1e-7, 64)
        headers = []
        for write in (lambda: fixture.write_bytes(NOTCH_FIXTURE.read_bytes()),
                      lambda: chan.save_snapshot(fixture, flat, seed=0, draw=0)):
            write()
            out = tmp_path / "mse.csv"
            assert cli.main(["mse-probe", "--config", str(cfg), "--out", str(out),
                             "--channel", f"fixed:{fixture}"]) == 0
            headers.append([l for l in out.read_text().splitlines() if l.startswith("#")])
        assert headers[0] != headers[1]
        assert f"# uwofdm_version = {uw.__version__}" in headers[0]
        assert [l for l in headers[0] if l not in headers[1]] == [
            f"# channel_fixture_id = {harness._fixture_id(f'fixed:{NOTCH_FIXTURE}')}"]

    def test_mse_probe_needs_fixed_channel(self, tmp_path):
        assert cli.main(["mse-probe", "--out", str(tmp_path / "x.csv")]) == 2

    def test_mse_probe_numerical_error_exits_3(self, tmp_path, capsys):
        """A dead channel has no strongest carrier to floor against: exit
        3.  An exact null on one active carrier is floored like the sweep
        floors it, and every column stays finite."""
        fixture, out = tmp_path / "chan.txt", tmp_path / "x.csv"
        dead = chan._realization_from_taps(np.zeros(2, dtype=complex), 20e6, 1e-7, 64)
        chan.save_snapshot(fixture, dead, seed=0, draw=0)
        code = cli.main(["mse-probe", "--out", str(out), "--channel", f"fixed:{fixture}"])
        assert code == 3
        assert "numerical error" in capsys.readouterr().err
        assert not out.exists()
        taps = np.array([0.5, -0.5 * np.exp(2j * np.pi * 13 / 64)])
        null = chan._realization_from_taps(taps, 20e6, 1e-7, 64)
        chan.save_snapshot(fixture, null, seed=0, draw=0)
        cfg = tmp_path / "probe.cfg"
        cfg.write_text("mse_symbols = 200\n")
        assert cli.main(["mse-probe", "--config", str(cfg), "--out", str(out),
                         "--channel", f"fixed:{fixture}"]) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        rows = np.array([[float(v) for v in l.split(",")] for l in lines[1:]])
        assert rows.shape == (52, 5) and np.isfinite(rows).all()

    @pytest.mark.parametrize("system", harness.SYSTEMS)
    def test_ber_sweep_dead_channel_exits_3(self, system, tmp_path, capsys):
        """Before, an all-zero fixture gave BER 0.4997 with exit 0."""
        fixture, out = tmp_path / "dead.txt", tmp_path / "run.csv"
        dead = chan._realization_from_taps(np.zeros(2, dtype=complex), 20e6, 1e-7, 64)
        chan.save_snapshot(fixture, dead, seed=0, draw=0)
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(f"system = {system}\nebn0_db = [10]\nmax_bits_per_point = 1000\n")
        code = cli.main(["ber-sweep", "--config", str(cfg), "--out", str(out),
                         "--channel", f"fixed:{fixture}"])
        assert code == 3
        assert "zero forcing undefined" in capsys.readouterr().err
        assert not out.exists()

    def test_mse_probe_fixture_longer_than_guard_exits_2(self, tmp_path, capsys):
        """An 8-sample unique word cannot absorb the 16-tap notch fixture;
        before, mse-probe ran it and wrote 44 rows."""
        cfg = tmp_path / "uw8.cfg"
        cfg.write_text("uw_length = 8\nredundant_indices = [2, 6, 10, 17, 40, 47, 54, 62]\n"
                       "zero_indices = [0, 1, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, "
                       "36, 37, 38, 39, 63, 3, 61]\nmse_symbols = 200\n")
        out = tmp_path / "mse.csv"
        code = cli.main(["mse-probe", "--config", str(cfg), "--out", str(out),
                         "--channel", f"fixed:{NOTCH_FIXTURE}"])
        assert code == 2
        assert "tap_count = 16 does not fit the 8-sample guard" in capsys.readouterr().err
        assert not out.exists()

    def test_snapshot_reproduces_repository_fixture(self, tmp_path, capsys):
        out = tmp_path / "snap.txt"
        assert cli.main(["snapshot", "--seed", "396", "--out", str(out)]) == 0
        assert out.read_bytes() == NOTCH_FIXTURE.read_bytes()

    def test_snapshot_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "snap.txt"
        assert cli.main(["snapshot", "--seed", "5", "--out", str(out)]) == 0
        loaded = chan.load_snapshot(out)
        assert loaded.tap_count == 16


#: Values that no physical key accepts, or only just: zero, negative,
#: non-finite, huge, non-numeric and empty, and the largest accepted
#: frame length next to a huge integer.
HOSTILE_VALUES = ("0", "-1", "-2.5", "nan", "inf", "-inf", "1e300", "-1e300",
                  "x", "", "[]", "[nan]", "[0]", "[-1]", "[1e300]", "[inf]",
                  str(harness.MAX_FRAME_SYMBOLS), "1000000000000",
                  "1/2", "3/4", "35")


#: A few values each key accepts, so that most drawn configs run a batch:
#: the reference system's, a flat and a short channel, the shortest
#: frame, and the Eb/N0 limits, where the noise variance is about 1e-102
#: and 1e98.
VALID_VALUES = {
    "dft_size": ("64",), "data_count": ("36",), "uw_length": ("16",),
    "sample_rate_hz": ("20e6", "10e6"), "uw_energy_ratio": ("0", "0.07692307692307693", "0.5"),
    "zero_indices": ("[0, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37]",),
    "redundant_indices": ("[2, 6, 10, 14, 17, 21, 24, 26, 38, 40, 43, 47, 50, 54, 58, 62]",),
    "channel_taps": ("1", "8", "16"), "rms_delay_spread_s": ("1e-7", "5e-8"),
    "system": harness.SYSTEMS, "code_rate": harness.CODE_RATES,
    "ebn0_db": ("[10]", "[0, 20]", "[1000]", "[-1000]"),
    "min_error_events": ("1", "200"), "max_bits_per_point": ("1", "8000000"),
    "frame_symbols": ("1", "2", "8"), "mse_ebn0_db": ("15", "1000", "-1000"),
    "mse_symbols": ("1", "100000"),
}


def config_line(key: str):
    """A ``key = value`` pair.  The value pool repeats the key's valid
    values until they outnumber the hostile ones three to one, and lists
    them first; an unknown key has only hostile values."""
    valid = VALID_VALUES.get(key, ())
    copies = math.ceil(3 * len(HOSTILE_VALUES) / max(len(valid), 1))
    return st.tuples(st.just(key), st.sampled_from(valid * copies + HOSTILE_VALUES))


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("configs")


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(sorted(harness.KNOWN_KEYS) + ["no_such_key"])
                .flatmap(config_line),
                min_size=1, max_size=4, unique_by=lambda line: line[0]),
       st.sampled_from(harness.SYSTEMS),
       st.sampled_from(harness.CODE_RATES),
       st.sampled_from(["ensemble", f"fixed:{NOTCH_FIXTURE}"]))
def test_config_text_runs_or_is_refused(config_dir, lines, system, code_rate, channel):
    """1-4 ``key = value`` lines either run a two-frame batch or end in
    ConfigError (or a refused solve), never in another exception.  Each
    value is hostile or valid for its key, so most examples run.  The
    system and code rate are drawn on their own, so most examples that
    run reach the decoder, unless a drawn line sets them."""
    path = config_dir / "random.cfg"
    path.write_text(f"system = {system}\n" * all(k != "system" for k, _ in lines)
                    + f"code_rate = {code_rate}\n" * all(k != "code_rate" for k, _ in lines)
                    + "".join(f"{k} = {v}\n" for k, v in lines))
    try:
        spec = harness.sweep_spec_from(harness.parse_config_file(path), seed=0,
                                       channel=channel)
        harness._context(spec)
        bits, errors, frames, _ = harness._run_batch(spec, 0, 0, n_frames=2)
    except (ConfigError, NumericallySingularError):
        return
    assert frames == 2 and 0 <= errors <= bits
