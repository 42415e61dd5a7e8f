"""Channel model: power profile, normalization, the cyclic model against
the stream oracle, the per-bin noise draw, and pinned snapshot fixtures."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uwofdm as uw
from uwofdm import channel as chan
from uwofdm import cpref
from uwofdm.errors import ConfigError
from uwofdm.numerics import forward_dft
from uwofdm.txchain import encode_batch

from conftest import NOTCH_FIXTURE
from oracles import (apply_channel_stream, complex_noise, gather_convolution_matrix,
                     stream_symbol_windows)


class TestPowerDelayProfile:
    def test_single_tap_flat_response(self):
        rng = np.random.default_rng(30)
        ch = uw.sample_channel(rng, tap_count=1)
        mags = np.abs(ch.freq_response)
        np.testing.assert_allclose(mags, mags[0], rtol=1e-12)

    def test_reference_decay_ratio(self):
        profile = chan.power_delay_profile(16, 100e-9, 20e6)
        assert profile[1] / profile[0] == pytest.approx(np.exp(-0.5), rel=1e-12)

    def test_log_profile_affine(self):
        profile = chan.power_delay_profile(16, 100e-9, 20e6)
        slopes = np.diff(np.log(profile))
        np.testing.assert_allclose(slopes, -0.5, rtol=1e-12)

    def test_unit_normalization(self):
        assert chan.power_delay_profile(16, 100e-9, 20e6).sum() == pytest.approx(1.0)

    def test_ensemble_energy(self):
        rng = np.random.default_rng(31)
        total = sum(np.sum(np.abs(uw.sample_channel(rng).taps) ** 2)
                    for _ in range(100_000))
        assert total / 100_000 == pytest.approx(1.0, rel=0.01)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            chan.power_delay_profile(0, 100e-9, 20e6)
        with pytest.raises(ValueError):
            chan.power_delay_profile(4, -1e-9, 20e6)


class TestSampleChannel:
    def test_freq_response_matches_dft(self):
        rng = np.random.default_rng(32)
        ch = uw.sample_channel(rng)
        padded = np.concatenate([ch.taps, np.zeros(48, dtype=complex)])
        np.testing.assert_allclose(ch.freq_response,
                                   forward_dft(padded), atol=1e-10)

    def test_active_response_selection(self, ref_config):
        rng = np.random.default_rng(33)
        ch = uw.sample_channel(rng)
        idx = ref_config.active_indices
        np.testing.assert_array_equal(ch.active_response(idx),
                                      ch.freq_response[idx])

    def test_stacked_draw_equals_sequential_draws(self):
        """Same taps bit for bit and the same stream position after.  The
        responses agree to rounding: BLAS sums a matrix product and a
        vector product in different orders."""
        stacked_rng, single_rng = np.random.default_rng(44), np.random.default_rng(44)
        stacked = uw.sample_channel(stacked_rng, channels=5)
        singles = [uw.sample_channel(single_rng) for _ in range(5)]
        assert stacked.taps.shape == (5, 16) and stacked.freq_response.shape == (5, 64)
        np.testing.assert_array_equal(stacked.taps, [ch.taps for ch in singles])
        np.testing.assert_allclose(stacked.freq_response,
                                   [ch.freq_response for ch in singles], rtol=1e-12)
        assert stacked_rng.standard_normal() == single_rng.standard_normal()


class TestApplyChannelCyclic:
    def test_impulse_channel_identity(self):
        rng = np.random.default_rng(35)
        ch = chan._realization_from_taps(np.array([1.0 + 0j]), 20e6, 1e-7, 64)
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        y = chan.apply_channel_cyclic(x, ch, 0.0, rng)
        np.testing.assert_array_equal(y, x)

    def test_convolution_theorem(self):
        """Frequency-domain oracle: the time-domain implementation must
        satisfy DFT(y) = H * DFT(x)."""
        rng = np.random.default_rng(36)
        ch = uw.sample_channel(rng)
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        y = chan.apply_channel_cyclic(x, ch, 0.0, rng)
        np.testing.assert_allclose(forward_dft(y),
                                   ch.freq_response * forward_dft(x),
                                   atol=1e-9)

    def test_stacked_channel_equals_per_channel_application(self):
        """Convolution and noise per channel, bit for bit against the same
        channels applied as one-channel stacks: a stacked draw of noise
        takes each channel's real, then imaginary, parts in turn, and no
        channel reads its neighbours' samples.  The stack's FFT agrees
        with the one-channel circulant product to rounding."""
        rng = np.random.default_rng(45)
        stacked = uw.sample_channel(rng, channels=3)
        x = rng.standard_normal((3, 4, 64)) + 1j * rng.standard_normal((3, 4, 64))
        y = chan.apply_channel_cyclic(x, stacked, 0.1, np.random.default_rng(46))
        stack_rng, single_rng = np.random.default_rng(46), np.random.default_rng(46)
        for c in range(3):
            one = chan._realization_from_taps(stacked.taps[c:c + 1], 20e6, 1e-7, 64)
            np.testing.assert_array_equal(
                y[c], chan.apply_channel_cyclic(x[c:c + 1], one, 0.1, stack_rng)[0])
            ch = chan._realization_from_taps(stacked.taps[c], 20e6, 1e-7, 64)
            np.testing.assert_allclose(
                y[c], chan.apply_channel_cyclic(x[c], ch, 0.1, single_rng), rtol=0, atol=1e-13)

    def test_noise_statistics(self):
        rng = np.random.default_rng(37)
        ch = chan._realization_from_taps(np.array([1.0 + 0j]), 20e6, 1e-7, 64)
        x = np.zeros((2 ** 14, 64), dtype=complex)  # ~1e6 samples
        y = chan.apply_channel_cyclic(x, ch, 0.25, rng)
        assert np.mean(np.abs(y) ** 2) == pytest.approx(0.25, rel=0.02)

    @pytest.mark.parametrize("channels", [None, 3])
    def test_noise_added_in_place_matches_fresh_draw(self, channels):
        """The in-place noise has the bits of the convolution plus a fresh
        ``scale * (re + 1j * im)`` draw in the same stream order."""
        rng = np.random.default_rng(48)
        ch = uw.sample_channel(rng, channels=channels)
        shape = (4, 64) if channels is None else (channels, 4, 64)
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        y = chan.apply_channel_cyclic(x, ch, 0.3, np.random.default_rng(49))
        expected = chan.cyclic_convolve(x, ch.taps) + complex_noise(
            np.random.default_rng(49), shape, 0.3, stacked=channels is not None)
        np.testing.assert_array_equal(y, expected)

    def test_zero_noise_variance_draws_nothing(self):
        rng = np.random.default_rng(50)
        ch = uw.sample_channel(rng, channels=2)
        x = rng.standard_normal((2, 3, 64)) + 0j
        state = rng.bit_generator.state
        y = chan.apply_channel_cyclic(x, ch, 0.0, rng)
        assert rng.bit_generator.state == state
        np.testing.assert_array_equal(y, chan.cyclic_convolve(x, ch.taps))

    @pytest.mark.parametrize("draw", [
        lambda rng: chan.apply_channel_cyclic(
            np.zeros((2, 64), dtype=complex),
            chan._realization_from_taps(np.array([1.0 + 0j]), 20e6, 1e-7, 64), -0.1, rng),
        lambda rng: chan.bin_noise(rng, (2, 52), -0.1, 64)],
        ids=["apply_channel_cyclic", "bin_noise"])
    def test_negative_noise_variance_rejected(self, draw):
        """Both noise draws, the time-domain one of the MSE probe and the
        per-bin one of the sweep, refuse a negative variance."""
        with pytest.raises(ValueError, match="noise variance must be >= 0, got -0.1"):
            draw(np.random.default_rng(47))


class TestBinNoise:
    """``bin_noise``: white noise of variance N·σ² per bin, the DFT of
    σ² time-domain noise in distribution, drawn by Box–Muller from one
    (radius, angle) pair of uniforms per bin, bin by bin, so a stack of
    frames draws what its frames draw in turn."""

    def test_stream_order(self):
        draw = chan.bin_noise(np.random.default_rng(51), (3, 4, 52), 0.2, 64)
        u = np.random.default_rng(51).random(3 * 4 * 52 * 2).reshape(-1, 2)
        radius = np.sqrt(-64 * 0.2 * np.log1p(-u[:, 0]))
        angle = (u[:, 1].astype(np.float32) * np.float32(2 * np.pi))
        expect = radius * np.cos(angle) + 1j * (radius * np.sin(angle))
        assert draw.shape == (3, 4, 52) and draw.dtype == complex
        np.testing.assert_array_equal(draw.reshape(-1), expect)

    def test_stack_is_its_frames_in_turn(self):
        stack_rng, frame_rng = np.random.default_rng(52), np.random.default_rng(52)
        stack = chan.bin_noise(stack_rng, (5, 8, 52), 0.3, 64)
        for f in range(5):
            np.testing.assert_array_equal(stack[f], chan.bin_noise(frame_rng, (8, 52), 0.3, 64))
        np.testing.assert_array_equal(stack.reshape(40, 52),
                                      chan.bin_noise(np.random.default_rng(52), (40, 52),
                                                     0.3, 64))

    def test_matches_dft_of_time_noise_in_distribution(self):
        """Per-bin variance and the correlation between bins against the
        DFT of time-domain noise, over 2^14 symbols."""
        sigma2, count = 0.25, 2 ** 14
        bins = cpref.CpConfig.used_bins
        time = complex_noise(np.random.default_rng(53), (count, 64), sigma2)
        for w in (forward_dft(time)[:, bins],
                  chan.bin_noise(np.random.default_rng(54), (count, len(bins)), sigma2, 64)):
            covariance = w.T @ w.conj() / count
            np.testing.assert_allclose(np.diag(covariance).real, 64 * sigma2, rtol=0.05)
            off = covariance - np.diag(np.diag(covariance))
            assert np.abs(off).max() <= 0.05 * 64 * sigma2
            assert np.abs(np.mean(w * w, axis=0)).max() <= 0.05 * 64 * sigma2  # circular

    def test_component_moments_and_tails(self):
        """Each component, scaled to unit variance, over 2^22 draws in four
        calls: mean 0, variance 1 and kurtosis 3, and P(|x| > k) against
        erfc(k/√2) for k = 1…4, each within 4 standard errors."""
        rng, sigma2 = np.random.default_rng(55), 0.3
        scale = math.sqrt(64 * sigma2 / 2)
        count = 2 ** 22
        sums = np.zeros((2, 3))
        tails = np.zeros((2, 4))
        for _ in range(4):
            w = chan.bin_noise(rng, (count // 4 // 64, 64), sigma2, 64).reshape(-1) / scale
            for c, x in enumerate((w.real, w.imag)):
                sums[c] += [x.sum(), (x * x).sum(), (x ** 4).sum()]
                tails[c] += [(np.abs(x) > k).sum() for k in range(1, 5)]
        for c in range(2):
            mean, second, fourth = sums[c] / count
            assert abs(mean) <= 4 / math.sqrt(count)
            assert abs(second - 1) <= 4 * math.sqrt(2 / count)  # Var x² = 2
            assert abs(fourth - 3) <= 4 * math.sqrt(96 / count)  # Var x⁴ = 105 − 9
            for k in range(1, 5):
                p = math.erfc(k / math.sqrt(2))
                assert abs(tails[c, k - 1] / count - p) <= 4 * math.sqrt(p * (1 - p) / count)

    def test_edge_uniforms(self):
        """u = 0 gives a zero radius and the largest uniform a finite one,
        about 8.6 standard deviations; σ² = 0 gives exact zeros."""
        class Fixed:
            def __init__(self, value):
                self.value = value

            def random(self, shape):
                return np.full(shape, self.value)

        zero = chan.bin_noise(Fixed(0.0), (2, 3), 0.5, 64)
        np.testing.assert_array_equal(zero, 0)
        largest = chan.bin_noise(Fixed(1 - 2 ** -53), (2, 3), 0.5, 64)
        assert np.isfinite(largest).all()
        np.testing.assert_allclose(np.abs(largest) / math.sqrt(64 * 0.5 / 2),
                                   math.sqrt(2 * 53 * math.log(2)))
        silent = chan.bin_noise(np.random.default_rng(56), (4, 52), 0.0, 64)
        np.testing.assert_array_equal(silent, 0)
        assert silent.dtype == complex


def roll_convolve(x, taps):
    """Reference cyclic convolution: one ``np.roll`` multiply-add per tap,
    channel c of stacked (channels, taps) applied to slice c of ``x``."""
    x, taps = np.asarray(x), np.asarray(taps)
    out = np.zeros_like(x, dtype=complex)
    for m in range(taps.shape[-1]):
        h = taps[..., m]
        out += h.reshape(h.shape + (1,) * (x.ndim - h.ndim)) * np.roll(x, m, axis=-1)
    return out


def random_taps(rng, count, channels=None):
    lead = () if channels is None else (channels,)
    return rng.standard_normal(lead + (count,)) + 1j * rng.standard_normal(lead + (count,))


class TestConvolutionMatrix:
    def test_entries(self):
        taps = np.arange(1, 4) + 1j
        cyclic = chan.convolution_matrix(taps, 6)
        padded = np.concatenate([taps, np.zeros(3)])
        for k in range(6):
            for n in range(6):
                assert cyclic[k, n] == padded[(n - k) % 6]

    def test_stacked_taps_give_one_matrix_per_channel(self):
        taps = random_taps(np.random.default_rng(47), 5, channels=3)
        stacked = chan.convolution_matrix(taps, 64)
        assert stacked.shape == (3, 64, 64)
        for c in range(3):
            np.testing.assert_array_equal(stacked[c], chan.convolution_matrix(taps[c], 64))

    @pytest.mark.parametrize("channels", [None, 3])
    @pytest.mark.parametrize("size", [1, 6, 64])
    def test_matches_gather_oracle(self, channels, size):
        """The strided copy is the gathered matrix bit for bit, for every
        tap count from 1 to ``size``."""
        rng = np.random.default_rng(49)
        for count in range(1, size + 1):
            taps = random_taps(rng, count, channels)
            np.testing.assert_array_equal(chan.convolution_matrix(taps, size),
                                          gather_convolution_matrix(taps, size))

    @pytest.mark.parametrize("count", [0, 65])
    def test_taps_must_fit_the_row(self, count):
        with pytest.raises(ValueError, match="do not fit"):
            chan.convolution_matrix(np.ones(count), 64)

    @pytest.mark.parametrize("count", [1, 16, 17])
    @pytest.mark.parametrize("shape, channels", [((64,), None), ((9, 64), None),
                                                 ((3, 9, 64), 3)])
    def test_matches_roll_oracle(self, count, shape, channels):
        rng = np.random.default_rng(48)
        taps = random_taps(rng, count, channels)
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        np.testing.assert_allclose(chan.cyclic_convolve(x, taps), roll_convolve(x, taps),
                                   rtol=0, atol=1e-13)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 64), st.integers(1, 17), st.one_of(st.none(), st.integers(1, 4)),
           st.integers(1, 6), st.integers(0, 2 ** 31))
    def test_property(self, size, count, channels, symbols, seed):
        count = min(count, size)
        rng = np.random.default_rng(seed)
        taps = random_taps(rng, count, channels)
        shape = ((channels,) if channels else ()) + (symbols, size)
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        np.testing.assert_allclose(chan.cyclic_convolve(x, taps), roll_convolve(x, taps),
                                   rtol=0, atol=1e-13)


class TestApplyChannelStream:
    def _symbols(self, ref_gen, ref_uw, count, seed=38):
        rng = np.random.default_rng(seed)
        data = uw.qpsk_map(rng.integers(0, 2, (count, 72)))
        return encode_batch(data, ref_gen, ref_uw)

    def test_single_tap_equals_cyclic(self, ref_gen, ref_uw):
        rng = np.random.default_rng(39)
        ch = chan._realization_from_taps(np.array([0.8 - 0.1j]), 20e6, 1e-7, 64)
        symbols = self._symbols(ref_gen, ref_uw, 3)
        stream = apply_channel_stream(symbols, ch, 0.0, rng,
                                      uw_samples=ref_uw.samples)
        windows = stream_symbol_windows(stream, 64)
        cyclic = chan.apply_channel_cyclic(symbols, ch, 0.0, rng)
        np.testing.assert_allclose(windows, cyclic, atol=1e-12)

    def test_steady_state_matches_cyclic_16_taps(self, ref_gen, ref_uw):
        """The structural claim behind the guard design: with a common UW
        and the channel inside the guard, linear convolution windows
        equal the per-symbol cyclic model from the second symbol on."""
        rng = np.random.default_rng(40)
        ch = uw.sample_channel(rng, tap_count=16)
        symbols = self._symbols(ref_gen, ref_uw, 10)
        stream = apply_channel_stream(symbols, ch, 0.0, rng,
                                      uw_samples=ref_uw.samples)
        windows = stream_symbol_windows(stream, 64)
        cyclic = chan.apply_channel_cyclic(symbols, ch, 0.0, rng)
        scale = np.sqrt(np.mean(np.abs(cyclic[1:]) ** 2))
        assert np.abs(windows[1:] - cyclic[1:]).max() <= 1e-9 * scale

    def test_20_taps_breaks_equivalence(self, ref_gen, ref_uw):
        """Channel longer than guard + 1: the mismatch must be visible."""
        rng = np.random.default_rng(41)
        ch = uw.sample_channel(rng, tap_count=20)
        symbols = self._symbols(ref_gen, ref_uw, 10)
        stream = apply_channel_stream(symbols, ch, 0.0, rng,
                                      uw_samples=ref_uw.samples)
        windows = stream_symbol_windows(stream, 64)
        cyclic = chan.apply_channel_cyclic(symbols, ch, 0.0, rng)
        assert np.abs(windows[1:] - cyclic[1:]).max() > 1e-6

    def test_mixed_uw_rejected(self, ref_gen, ref_uw):
        rng = np.random.default_rng(42)
        symbols = self._symbols(ref_gen, ref_uw, 2)
        symbols[1, -3] += 0.5  # corrupt one tail
        ch = uw.sample_channel(rng)
        with pytest.raises(ValueError, match="same unique word"):
            apply_channel_stream(symbols, ch, 0.0, rng,
                                 uw_samples=ref_uw.samples)


class TestPinnedSnapshot:
    def test_seed_396_returns_the_fixture_draw(self, ref_config, notch_channel):
        """The committed fixture is draw 4 of seed 396 under the notch rule."""
        ch, draw = uw.pinned_snapshot(ref_config, 396)
        assert draw == 4
        np.testing.assert_array_equal(ch.taps, notch_channel.taps)
        assert uw.is_notched(ch, ref_config.active_indices)

    def test_result_meets_the_notch_rule(self, ref_config):
        ch, draw = uw.pinned_snapshot(ref_config, 5)
        power = np.abs(ch.active_response(ref_config.active_indices)) ** 2
        assert np.sum(power <= power.mean() * 10 ** (-1.5)) >= 2

    def test_determinism(self, ref_config):
        a, draw_a = uw.pinned_snapshot(ref_config, 9)
        b, draw_b = uw.pinned_snapshot(ref_config, 9)
        assert draw_a == draw_b
        np.testing.assert_array_equal(a.taps, b.taps)

    def test_budget_exhaustion(self, ref_config):
        """Draws 0-3 of seed 396 fail the notch rule, so four draws do not
        reach the fixture's draw 4."""
        assert not any(uw.is_notched(uw.sample_channel(np.random.default_rng([396, d])),
                                     ref_config.active_indices) for d in range(4))
        with pytest.raises(ConfigError) as info:
            uw.pinned_snapshot(ref_config, 396, max_draws=4)
        assert str(info.value) == (
            f"none of 4 channel draws (seed 396, tap_count = 16) satisfied {chan.NOTCH_RULE}")

    def test_flat_channel_has_no_notch(self, ref_config):
        """A one-tap channel is flat, so no draw meets the notch rule: the
        search is refused before its first draw, naming the tap count and
        the rule."""
        with pytest.raises(ConfigError) as info:
            uw.pinned_snapshot(ref_config, 3, tap_count=1)
        assert str(info.value) == (
            "channel_taps = 1: a channel of tap_count = 1 is flat and never satisfies the "
            "notch rule (at least 2 active carriers 15 dB or more below the active-carrier "
            "mean); need channel_taps >= 2")

    @pytest.mark.parametrize("kwargs, message", [
        ({"tap_count": 17.5}, "channel_taps must be an integer, got 17.5"),
        ({"tap_count": 100}, "channel_taps = 100 does not fit the 16-sample guard: "
                             "need 1 <= taps <= 17"),
        ({"tap_count": 1}, "channel_taps = 1: a channel of tap_count = 1 is flat"),
        ({"seed": -1}, "seed must be a non-negative integer, got -1"),
        ({"rms_delay_spread_s": 0.0}, "rms_delay_spread_s must be finite and positive, "
                                      "got 0.0"),
        ({"rms_delay_spread_s": -1e-7}, "rms_delay_spread_s must be finite and positive, "
                                        "got -1e-07"),
        ({"rms_delay_spread_s": 1e-320}, "rms_delay_spread_s = 1e-320 times "
                                         "sample_rate_hz = 20000000.0 is")],
        ids=["17.5-taps", "100-taps", "one-tap", "seed-minus-1", "zero-spread",
             "negative-spread", "spread-too-short-in-samples"])
    def test_refused_before_any_draw(self, kwargs, message, ref_config, monkeypatch):
        """The library call makes the checks the ``snapshot`` command made
        for it.  Before, 100 taps died in numpy's broadcast, 17.5 taps in a
        TypeError and seed -1 in ``default_rng``'s "expected non-negative
        integer"."""
        def no_draw(*args, **kwargs):
            raise AssertionError("drew a channel for a refused input")
        monkeypatch.setattr(chan, "sample_channel", no_draw)
        with pytest.raises(ConfigError) as info:
            uw.pinned_snapshot(ref_config, **{"seed": 1, **kwargs})
        assert str(info.value).startswith(message)

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(43)
        ch = uw.sample_channel(rng)
        path = tmp_path / "snap.txt"
        uw.save_snapshot(path, ch, seed=43, draw=0)
        loaded = uw.load_snapshot(path)
        np.testing.assert_array_equal(loaded.taps, ch.taps)
        assert loaded.sample_rate_hz == ch.sample_rate_hz
        assert loaded.rms_delay_spread_s == ch.rms_delay_spread_s

    def test_fixture_without_tap_count_line_loads(self, tmp_path, notch_channel):
        """The ``# tap_count`` line is checked when present; a hand-written
        fixture may leave it out."""
        path = tmp_path / "hand.txt"
        path.write_text("".join(line for line in NOTCH_FIXTURE.read_text().splitlines(True)
                                if not line.startswith("# tap_count")))
        np.testing.assert_array_equal(uw.load_snapshot(path).taps, notch_channel.taps)

    @pytest.mark.parametrize("size", [1025, 1000000000000000])
    def test_oversized_dft_size_refused_before_allocating(self, tmp_path, monkeypatch, size):
        """A ``# dft_size`` above ``frame.MAX_DFT_SIZE`` is refused naming the
        file, before a response array of that size is made.  Before, 1e15
        ended in numpy's ``_ArrayMemoryError``."""
        def no_realization(*args, **kwargs):
            raise AssertionError("built a realization for a refused fixture")
        monkeypatch.setattr(chan, "_realization_from_taps", no_realization)
        path = tmp_path / "huge.txt"
        path.write_text(NOTCH_FIXTURE.read_text().replace("# dft_size = 64",
                                                          f"# dft_size = {size}"))
        with pytest.raises(ConfigError, match=re.escape(
                f"channel fixture {path}: dft_size = {size} must be >= 1 and >= its 16 "
                f"taps, and at most {uw.frame.MAX_DFT_SIZE}")):
            uw.load_snapshot(path)

    def test_largest_dft_size_loads(self, tmp_path, notch_channel):
        path = tmp_path / "wide.txt"
        path.write_text(NOTCH_FIXTURE.read_text().replace("# dft_size = 64",
                                                          "# dft_size = 1024"))
        loaded = uw.load_snapshot(path)
        assert loaded.freq_response.shape == (1024,)
        np.testing.assert_array_equal(loaded.taps, notch_channel.taps)

    def test_save_refuses_a_stacked_realization(self, tmp_path):
        """A fixture holds one channel.  Before, a stack died in numpy's
        "only 0-dimensional arrays can be converted to Python scalars"."""
        ch = uw.sample_channel(np.random.default_rng(43), channels=3)
        path = tmp_path / "snap.txt"
        with pytest.raises(ValueError, match="stacks 3 channels"):
            uw.save_snapshot(path, ch, seed=43, draw=0)
        assert not path.exists()

    def test_repository_fixture_matches_recorded_seed(self, notch_channel):
        """The committed fixture must regenerate bit-for-bit from its
        recorded (seed, draw)."""
        regen = uw.sample_channel(np.random.default_rng([396, 4]))
        np.testing.assert_array_equal(notch_channel.taps, regen.taps)
