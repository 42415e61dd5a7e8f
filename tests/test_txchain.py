"""Unique-word construction and transmit-symbol assembly."""

import dataclasses

import numpy as np
import pytest

import uwofdm as uw
from uwofdm.errors import ConfigError
from uwofdm.numerics import inverse_dft
from uwofdm.txchain import encode_batch, mean_data_symbol_energy

from conftest import zero_word
from oracles import selection, time_symbol


def encode_symbol_freq(data, gen, uword):
    """Oracle: add the UW spectrum before the inverse transform instead
    of adding its samples to the zero tail after it."""
    word = np.asarray(data) @ gen.code_matrix.T
    return inverse_dft(uword.spectrum + word @ selection(gen.config).T)


def encode_one(data, gen, uword):
    """One transmit symbol: ``encode_batch`` on a one-row batch."""
    return encode_batch(np.asarray(data)[None, :], gen, uword)[0]


class TestBuildUniqueWord:
    def test_zero_ratio_gives_zero_word(self, zero_uw):
        assert np.abs(zero_uw.samples).max() == 0.0
        assert np.abs(zero_uw.spectrum).max() == 0.0
        assert zero_uw.energy == 0.0

    def test_reference_energy_ratio(self, ref_gen, ref_uw):
        total = mean_data_symbol_energy(ref_gen) + ref_uw.energy
        assert ref_uw.energy / total == pytest.approx(4.0 / 52.0, abs=1e-6)

    def test_constant_magnitude(self, ref_uw):
        mags = np.abs(ref_uw.samples)
        np.testing.assert_allclose(mags, mags[0], rtol=1e-12)

    def test_spectrum_round_trip(self, ref_gen, ref_uw):
        padded = inverse_dft(ref_uw.spectrum)
        expect = np.concatenate([np.zeros(48), ref_uw.samples])
        np.testing.assert_allclose(padded, expect, atol=1e-10)

    def test_negative_ratio_rejected(self, ref_config):
        """The word's share is the config's, refused there."""
        with pytest.raises(ConfigError, match=r"uw_energy_ratio must lie in \[0, 1\)"):
            dataclasses.replace(ref_config, uw_energy_ratio=-0.1)

    def test_ratio_one_rejected(self, ref_config):
        with pytest.raises(ConfigError, match=r"uw_energy_ratio must lie in \[0, 1\)"):
            dataclasses.replace(ref_config, uw_energy_ratio=1.0)

    def test_share_follows_the_config(self, ref_config):
        """A generator of a config with another share gets that share."""
        gen = uw.derive_generator(dataclasses.replace(ref_config, uw_energy_ratio=0.5))
        word = uw.build_unique_word(gen)
        assert word.energy == pytest.approx(mean_data_symbol_energy(gen), rel=1e-12)


class TestMeanDataSymbolEnergy:
    LAYOUTS = [
        (64, uw.frame.REFERENCE_ZERO_INDICES, (4, 12, 20, 26, 38, 44, 52, 60)),
        (32, (0, 15, 16, 17), (3, 9, 21, 27)),
        (16, (0, 8), (2, 5, 11, 14)),
        (128, (0,) + tuple(range(58, 70)), tuple(range(5, 128, 13))),
    ]

    def test_reference_equals_the_covariance_trace_bitwise(self, ref_gen):
        g = ref_gen.code_matrix
        assert mean_data_symbol_energy(ref_gen) == \
            float(np.real(np.trace(g @ g.conj().T))) / 64

    @pytest.mark.parametrize("n, zeros, redundant", LAYOUTS)
    def test_equals_the_covariance_trace(self, n, zeros, redundant):
        """||G||_F^2 / N is trace(G G^H) / N up to rounding."""
        gen = uw.derive_generator(uw.OfdmSystemConfig(n, zeros, redundant))
        g = gen.code_matrix
        assert mean_data_symbol_energy(gen) == pytest.approx(
            float(np.real(np.trace(g @ g.conj().T))) / n, rel=1e-15, abs=0)


class TestEncodeSymbol:
    def test_zero_data_gives_pure_uw(self, ref_gen, ref_uw):
        x = encode_one(np.zeros(36, dtype=complex), ref_gen, ref_uw)
        np.testing.assert_allclose(x[:48], 0, atol=1e-15)
        np.testing.assert_array_equal(x[48:], ref_uw.samples)

    def test_tail_equals_uw(self, ref_gen, ref_uw):
        rng = np.random.default_rng(20)
        for _ in range(20):
            d = uw.qpsk_map(rng.integers(0, 2, 72))
            x = encode_one(d, ref_gen, ref_uw)
            scale = np.linalg.norm(x)
            assert np.abs(x[-16:] - ref_uw.samples).max() <= 1e-9 * scale

    def test_active_word_is_code_matrix_product(self, ref_gen, ref_uw):
        rng = np.random.default_rng(21)
        d = uw.qpsk_map(rng.integers(0, 2, 72))
        x = encode_one(d, ref_gen, ref_uw) - np.pad(ref_uw.samples, (48, 0))
        active = uw.forward_dft(x)[ref_gen.active_carriers]
        np.testing.assert_allclose(active, ref_gen.code_matrix @ d, atol=1e-10)

    def test_time_add_matches_frequency_add(self, ref_gen, ref_uw):
        rng = np.random.default_rng(22)
        for _ in range(100):
            d = uw.qpsk_map(rng.integers(0, 2, 72))
            via_time = encode_one(d, ref_gen, ref_uw)
            via_freq = encode_symbol_freq(d, ref_gen, ref_uw)
            np.testing.assert_allclose(via_time, via_freq, atol=1e-10)

    def test_size_mismatch_rejected(self, ref_gen, ref_uw):
        with pytest.raises(ValueError):
            encode_one(np.zeros(35, dtype=complex), ref_gen, ref_uw)

    def test_batch_matches_single(self, ref_gen, ref_uw):
        rng = np.random.default_rng(23)
        data = uw.qpsk_map(rng.integers(0, 2, (5, 72)))
        batch = encode_batch(data, ref_gen, ref_uw)
        for i in range(5):
            single = encode_one(data[i], ref_gen, ref_uw)
            np.testing.assert_allclose(batch[i], single, atol=1e-12)


class TestModulator:
    """``encode_batch`` against the three-step oracle: encode, scatter
    with the dense selection matrix, inverse DFT."""

    @pytest.mark.parametrize("shape", [(36,), (7, 36), (4, 3, 36)])
    def test_matches_three_step_form(self, ref_gen, ref_uw, shape):
        rng = np.random.default_rng(25)
        data = uw.qpsk_map(rng.integers(0, 2, shape[:-1] + (72,)))
        expect = time_symbol(ref_gen, data)
        expect[..., -16:] += ref_uw.samples
        got = encode_batch(data, ref_gen, ref_uw)
        assert got.shape == shape[:-1] + (64,)
        np.testing.assert_allclose(got, expect, rtol=0, atol=1e-12)

    def test_tail_columns_vanish(self, ref_gen, toy_gen):
        """The symbols of the unit data vectors, with the all-zero word,
        match the oracle's, and their last uw_length samples vanish."""
        for gen in (ref_gen, toy_gen):
            units = np.eye(gen.config.data_count, dtype=complex)
            symbols = encode_batch(units, gen, zero_word(gen.config))
            assert symbols.shape == (gen.config.data_count, gen.config.dft_size)
            np.testing.assert_allclose(symbols, time_symbol(gen, units), rtol=0, atol=1e-13)
            tail = symbols[:, -gen.config.uw_length:]
            assert np.abs(tail).max() <= 1e-13 * np.abs(symbols).max()


def test_mean_transmit_energy_matches_analytic(ref_gen, ref_uw):
    """Empirical average symbol energy over 1e5 random symbols should sit
    within 1% of trace-based analytic value plus the UW energy."""
    rng = np.random.default_rng(24)
    analytic = mean_data_symbol_energy(ref_gen) + ref_uw.energy
    total = 0.0
    n = 100_000
    for _ in range(n // 5000):
        data = uw.qpsk_map(rng.integers(0, 2, (5000, 72)))
        x = encode_batch(data, ref_gen, ref_uw)
        total += float(np.sum(np.abs(x) ** 2))
    assert total / n == pytest.approx(analytic, rel=0.01)
