"""Cyclic-prefix baseline: structure, loopback and the closed-form
AWGN reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uwofdm as uw
from uwofdm import channel as chan
from uwofdm import cpref, fec, rxchain

from oracles import (analytic_cp_uncoded_ber, cp_physical_window, cp_prefixed,
                     cp_scatter_body)


@pytest.fixture(scope="module")
def cp_cfg():
    return cpref.CpConfig()


class TestStructure:
    def test_carrier_counts(self, cp_cfg):
        assert cp_cfg.data_count == 48
        assert len(cp_cfg.pilot_bins) == 4

    def test_guard_duration(self, cp_cfg):
        assert cp_cfg.cp_length / 20e6 == pytest.approx(800e-9)

    def test_sets_disjoint(self, cp_cfg):
        all_bins = (set(cp_cfg.zero_bins) | set(cp_cfg.pilot_bins)
                    | set(cp_cfg.data_bins.tolist()))
        assert len(all_bins) == 64

    def test_encode_gives_the_body(self):
        rng = np.random.default_rng(89)
        d = uw.qpsk_map(rng.integers(0, 2, (3, 96)))
        assert cpref.cp_encode_symbol(d).shape == (3, 64)

    def test_prefix_copies_tail(self):
        rng = np.random.default_rng(90)
        d = uw.qpsk_map(rng.integers(0, 2, 96))
        x = cp_prefixed(cpref.cp_encode_symbol(d))
        assert x.shape == (80,)
        np.testing.assert_array_equal(x[:16], x[64:])

    def test_zero_data_leaves_pilot_energy(self):
        x = cp_prefixed(cpref.cp_encode_symbol(np.zeros(48, dtype=complex)))
        pilot = cpref.pilot_time_signal()
        expect = np.sum(np.abs(pilot) ** 2) + np.sum(np.abs(pilot[-16:]) ** 2)
        assert np.sum(np.abs(x) ** 2) == pytest.approx(expect, rel=1e-12)

    def test_pilot_share_of_window_energy(self, cp_cfg):
        """In the DFT window the pilot share is exactly 4/52 of the mean
        active-carrier energy, the parity target for the UW system."""
        pilot_energy = len(cp_cfg.pilot_bins) / 64
        data_energy = cp_cfg.data_count / 64
        assert pilot_energy / (pilot_energy + data_energy) == pytest.approx(4 / 52)

    def test_mean_symbol_energy_empirical(self):
        """Eb counts the prefix: the mean energy of the 80-sample symbol."""
        rng = np.random.default_rng(91)
        d = uw.qpsk_map(rng.integers(0, 2, (50_000, 96)))
        x = cp_prefixed(cpref.cp_encode_symbol(d))
        measured = float(np.mean(np.sum(np.abs(x) ** 2, axis=1)))
        assert measured == pytest.approx(cpref.mean_symbol_energy(), rel=0.01)


class TestUsedBinTransforms:
    """Both cp transforms touch only the used bins; the oracles are the
    scatter-plus-inverse-DFT body and the full DFT cut to the data bins."""

    @pytest.mark.parametrize("lead", [(), (5,), (4, 3)])
    def test_encode_matches_scatter_form(self, lead):
        rng = np.random.default_rng(93)
        d = uw.qpsk_map(rng.integers(0, 2, lead + (96,)))
        np.testing.assert_allclose(cpref.cp_encode_symbol(d), cp_scatter_body(d),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("stacked", [False, True])
    def test_decode_matches_full_dft_then_cut(self, stacked):
        rng = np.random.default_rng(94)
        ch = uw.sample_channel(rng, channels=4 if stacked else None)
        shape = (4, 5, 64) if stacked else (5, 64)
        y = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        inv_h, _ = rxchain.zero_forcing(ch, cpref.CpConfig.data_bins, 1.0)
        expect = uw.forward_dft(y)[..., cpref.CpConfig.data_bins] * chan.per_symbol(inv_h)
        got, _ = cpref.cp_decode_symbol(y, ch, 0.01)
        np.testing.assert_allclose(got, expect, rtol=0, atol=1e-12 * np.abs(expect).max())


class TestLoopback:
    def test_flat_noiseless_exact(self):
        rng = np.random.default_rng(92)
        ch = chan._realization_from_taps(np.array([1.0 + 0j]), 20e6, 1e-7, 64)
        d = uw.qpsk_map(rng.integers(0, 2, 96))
        x = cpref.cp_encode_symbol(d)
        y = cpref.cp_apply_channel(x, ch, 0.0, rng)
        est, _ = cpref.cp_decode_symbol(y, ch, 0.0)
        np.testing.assert_allclose(est, d, atol=1e-9)

    def test_multipath_noiseless_recovery(self):
        """17 taps exactly fill the prefix; recovery must be exact."""
        rng = np.random.default_rng(93)
        ch = uw.sample_channel(rng, tap_count=17)
        d = uw.qpsk_map(rng.integers(0, 2, (10, 96)))
        x = cpref.cp_encode_symbol(d)
        y = cpref.cp_apply_channel(x, ch, 0.0, rng)
        est, _ = cpref.cp_decode_symbol(y, ch, 0.0)
        np.testing.assert_allclose(est, d, atol=1e-8)

    def test_channel_longer_than_prefix_rejected(self):
        rng = np.random.default_rng(94)
        ch = uw.sample_channel(rng, tap_count=18)
        with pytest.raises(ValueError, match="exceeds"):
            cpref.cp_decode_symbol(np.zeros(64, dtype=complex), ch, 0.0)

    def test_variances_match_formula(self, cp_cfg):
        rng = np.random.default_rng(95)
        ch = uw.sample_channel(rng)
        sigma2 = 0.03
        _, variances = cpref.cp_decode_symbol(
            np.zeros(64, dtype=complex), ch, sigma2)
        h = ch.freq_response[cp_cfg.data_bins]
        np.testing.assert_allclose(variances, 64 * sigma2 / np.abs(h) ** 2,
                                   rtol=1e-12)

    def test_null_floored_relative_to_data_carriers(self, cp_cfg):
        """An exact null on data bin 13 is raised to ZF_REL_FLOOR times the
        largest response on the data carriers, as in the UW receiver."""
        taps = np.array([0.5, -0.5 * np.exp(2j * np.pi * 13 / 64)])
        ch = chan._realization_from_taps(taps, 20e6, 1e-7, 64)
        _, variances = cpref.cp_decode_symbol(np.zeros(64, dtype=complex), ch, 0.01)
        floor = rxchain.ZF_REL_FLOOR * np.abs(ch.freq_response[cp_cfg.data_bins]).max()
        null = list(cp_cfg.data_bins).index(13)
        assert variances[null] == pytest.approx(64 * 0.01 / floor ** 2, rel=1e-12)

    def test_stacked_channels_match_per_channel(self):
        rng = np.random.default_rng(98)
        stacked = uw.sample_channel(rng, channels=3)
        x = cpref.cp_encode_symbol(uw.qpsk_map(rng.integers(0, 2, (3, 5, 96))))
        y = cpref.cp_apply_channel(x, stacked, 0.05, np.random.default_rng(99))
        est, variances = cpref.cp_decode_symbol(y, stacked, 0.05)
        assert est.shape == (3, 5, 48) and variances.shape == (3, 48)
        noise_rng = np.random.default_rng(99)
        for c in range(3):
            ch = chan._realization_from_taps(stacked.taps[c], 20e6, 1e-7, 64)
            y_c = cpref.cp_apply_channel(x[c], ch, 0.05, noise_rng)
            np.testing.assert_array_equal(y[c], y_c)
            est_c, var_c = cpref.cp_decode_symbol(y_c, ch, 0.05)
            np.testing.assert_allclose(est[c], est_c, rtol=1e-12)
            np.testing.assert_allclose(variances[c], var_c, rtol=1e-12)

    def test_decode_returns_only_data_carriers(self):
        """Pilots must never reach the bit decisions."""
        rng = np.random.default_rng(96)
        ch = chan._realization_from_taps(np.array([1.0 + 0j]), 20e6, 1e-7, 64)
        est, variances = cpref.cp_decode_symbol(
            cpref.cp_encode_symbol(np.zeros(48, dtype=complex)),
            ch, 0.0)
        assert est.shape == (48,)
        assert variances.shape == (48,)
        # pilots were transmitted, data estimate is still all-zero
        np.testing.assert_allclose(est, 0, atol=1e-12)


class TestChannelMatrix:
    """``cp_apply_channel`` (the circulant product on the 64-sample body)
    against the 80-sample physical model, noiseless: prepend the prefix,
    convolve linearly, drop the prefix."""

    @staticmethod
    def _case(rng, count, shape, channels):
        lead = () if channels is None else (channels,)
        taps = rng.standard_normal(lead + (count,)) + 1j * rng.standard_normal(lead + (count,))
        ch = chan._realization_from_taps(taps, 20e6, 1e-7, 64)
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return ch, x

    @staticmethod
    def _relative_gap(ch, x, rng):
        physical = cp_physical_window(x, ch.taps)
        gap = np.abs(cpref.cp_apply_channel(x, ch, 0.0, rng) - physical).max()
        return gap / np.abs(physical).max()

    @pytest.mark.parametrize("count", [1, 16, 17])
    @pytest.mark.parametrize("shape, channels", [((64,), None), ((9, 64), None),
                                                 ((3, 9, 64), 3)])
    def test_matches_shifted_slice_oracle(self, count, shape, channels):
        """Taps inside the prefix: the circulant model is exact."""
        rng = np.random.default_rng(100)
        ch, x = self._case(rng, count, shape, channels)
        assert self._relative_gap(ch, x, rng) <= 1e-12

    @pytest.mark.parametrize("shape, channels", [((9, 64), None), ((3, 9, 64), 3)])
    def test_18_taps_break_equivalence(self, shape, channels):
        """One tap past the prefix: the mismatch must be visible."""
        rng = np.random.default_rng(101)
        ch, x = self._case(rng, 18, shape, channels)
        assert self._relative_gap(ch, x, rng) > 1e-6

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 17), st.one_of(st.none(), st.integers(1, 4)),
           st.integers(1, 6), st.integers(0, 2 ** 31))
    def test_property(self, count, channels, symbols, seed):
        rng = np.random.default_rng(seed)
        shape = ((channels,) if channels else ()) + (symbols, 64)
        ch, x = self._case(rng, count, shape, channels)
        assert self._relative_gap(ch, x, rng) <= 1e-12


def test_uncoded_awgn_tracks_closed_form(cp_cfg, ref_config):
    """Quick two-point version of the flat-channel sanity criterion; the
    full 0.2 dB scan over BER 1e-2..1e-5 runs in the acceptance suite."""
    flat = chan._realization_from_taps(np.array([1.0 + 0j]), 20e6, 1e-7, 64)
    rng = np.random.default_rng(97)
    for ebn0_db in (6.0, 8.0):
        eb = cpref.mean_symbol_energy() / 96
        sigma2 = eb / 10 ** (ebn0_db / 10)
        bits = rng.integers(0, 2, (30_000, 96)).astype(np.uint8)
        x = cpref.cp_encode_symbol(fec.qpsk_map(bits))
        y = cpref.cp_apply_channel(x, flat, sigma2, rng)
        est, _ = cpref.cp_decode_symbol(y, flat, sigma2)
        ber = float(np.mean(fec.qpsk_hard_bits(est) != bits))
        expect = analytic_cp_uncoded_ber(ebn0_db, cp_cfg)
        assert ber == pytest.approx(expect, rel=0.08)
