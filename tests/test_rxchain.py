"""Receiver algebra: zero forcing, smoothing, analytic error statistics
against Monte-Carlo oracles."""

import numpy as np
import pytest

import uwofdm as uw
from uwofdm import channel as chan
from uwofdm import rxchain
from uwofdm.errors import NearSingularChannelError
from uwofdm.txchain import encode_batch


def flat_channel(gain=1.0 + 0j):
    return chan._realization_from_taps(np.array([gain]), 20e6, 1e-7, 64)


def combined(eq):
    """W @ diag(inv_response): zero forcing and smoothing in one matrix."""
    return eq.smoother * eq.inv_response[..., None, :]


def equalize_symbol_uw_first(y_time, eq, uword):
    """Oracle with the order exchanged: subtract the channel-scaled UW
    from the raw spectrum, then zero-force and smooth in one matrix."""
    smap = eq.map
    spectrum = uw.forward_dft(y_time)[..., smap.active_carriers]
    h = 1.0 / eq.inv_response
    return combined(eq) @ (spectrum - h * uword.spectrum[smap.active_carriers])


def encode_one(data, gen, smap, uword):
    return encode_batch(np.asarray(data)[None, :], gen, smap, uword)[0]


def equalize_one(y_time, eq, uword):
    """Smoothed active-carrier word of one symbol: ``equalize_batch`` on
    a one-row batch."""
    return rxchain.equalize_batch(np.asarray(y_time)[None, :], eq, uword)[0]


def send_batch(gen, uword, ch, sigma2, count, seed):
    """Random QPSK frames through the cyclic channel; returns (sent
    active words, received time symbols)."""
    rng = np.random.default_rng(seed)
    data = uw.qpsk_map(rng.integers(0, 2, (count, 72)))
    sent = data @ gen.code_matrix.T
    x = encode_batch(data, gen, gen.map, uword)
    y = uw.apply_channel_cyclic(x, ch, sigma2, rng)
    return data, sent, y


class TestBuildEqualizer:
    def test_flat_channel_noise_covariance(self, ref_gen):
        eq = uw.build_equalizer(flat_channel(), ref_gen, 0.01)
        np.testing.assert_allclose(eq.noise_covariance, 64 * 0.01, rtol=1e-12)

    def test_noiseless_limit_identity(self, ref_gen):
        eq = uw.build_equalizer(flat_channel(), ref_gen, 0.0)
        np.testing.assert_array_equal(eq.smoother, np.eye(52))
        assert np.abs(eq.error_variances).max() == 0.0

    def test_error_variances_bounded_by_signal(self, ref_gen):
        rng = np.random.default_rng(70)
        for _ in range(10):
            ch = uw.sample_channel(rng)
            eq = uw.build_equalizer(ch, ref_gen, 0.05)
            signal = np.real(np.diag(ref_gen.symbol_covariance))
            assert (eq.error_variances >= -1e-12).all()
            assert (eq.error_variances <= signal + 1e-9).all()

    def test_smoothing_dominates_zero_forcing(self, ref_gen):
        """Per carrier, the smoothed error variance never exceeds the
        ZF-only noise variance, on 100 random channels."""
        rng = np.random.default_rng(71)
        for _ in range(100):
            ch = uw.sample_channel(rng)
            sigma2 = float(10 ** rng.uniform(-4, -1))
            eq = uw.build_equalizer(ch, ref_gen, sigma2)
            assert (eq.error_variances <= eq.noise_covariance * (1 + 1e-9)).all()

    def test_near_zero_response_raises(self, ref_gen):
        ch = chan._realization_from_taps(
            np.zeros(1, dtype=complex), 20e6, 1e-7, 64)
        with pytest.raises(NearSingularChannelError):
            uw.build_equalizer(ch, ref_gen, 0.01)

    def test_single_null_is_floored(self, ref_gen, ref_map):
        """An exact null on active bin 13 is raised to ZF_REL_FLOOR times
        the strongest active response, keeping its phase, without raising."""
        # two taps tuned to put an exact spectral null on active bin 13
        taps = np.array([0.5, -0.5 * np.exp(2j * np.pi * 13 / 64)])
        ch = chan._realization_from_taps(taps, 20e6, 1e-7, 64)
        eq = uw.build_equalizer(ch, ref_gen, 0.01)
        assert np.isfinite(combined(eq)).all() and np.isfinite(eq.error_variances).all()
        h = ch.active_response(ref_map.active_carriers)
        floor = rxchain.ZF_REL_FLOOR * np.abs(h).max()
        null = list(ref_map.active_carriers).index(13)
        floored = h[null] / np.abs(h[null]) * floor
        assert 1.0 / eq.inv_response[null] == pytest.approx(floored, rel=1e-12)
        assert eq.noise_covariance[null] == pytest.approx(64 * 0.01 / floor ** 2, rel=1e-12)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_response_raises(self, ref_gen, value):
        response = np.ones(64, dtype=complex)
        response[13] = value
        ch = chan.ChannelRealization(np.ones(1, dtype=complex), response, 20e6, 1e-7)
        with pytest.raises(NearSingularChannelError, match="not finite"):
            uw.build_equalizer(ch, ref_gen, 0.01)

    @pytest.mark.parametrize("smoothing", [True, False])
    @pytest.mark.parametrize("sigma2", [0.0, 0.03])
    def test_stacked_build_matches_per_channel(self, ref_gen, ref_uw, smoothing, sigma2):
        rng = np.random.default_rng(77)
        stacked = uw.sample_channel(rng, channels=4)
        eq = uw.build_equalizer(stacked, ref_gen, sigma2, smoothing=smoothing)
        y = rng.standard_normal((4, 3, 64)) + 1j * rng.standard_normal((4, 3, 64))
        words = (rxchain.equalize_batch if smoothing else uw.zf_only_symbol)(y, eq, ref_uw)
        for c in range(4):
            ch = chan._realization_from_taps(stacked.taps[c], 20e6, 1e-7, 64)
            single = uw.build_equalizer(ch, ref_gen, sigma2, smoothing=smoothing)
            np.testing.assert_allclose(eq.inv_response[c], single.inv_response, rtol=1e-12)
            np.testing.assert_allclose(eq.noise_covariance[c], single.noise_covariance,
                                       rtol=1e-12)
            single_words = (rxchain.equalize_batch if smoothing
                            else uw.zf_only_symbol)(y[c], single, ref_uw)
            np.testing.assert_allclose(words[c], single_words, rtol=1e-12, atol=1e-12)
            if smoothing:
                np.testing.assert_allclose(eq.smoother[c], single.smoother,
                                           rtol=1e-12, atol=1e-12)
                np.testing.assert_allclose(eq.error_variances[c], single.error_variances,
                                           rtol=1e-12, atol=1e-12)
            else:
                # the ZF error is the noise
                assert single.smoother is None
                np.testing.assert_array_equal(single.error_variances,
                                              single.noise_covariance)

    def test_zero_forcing_floor_per_channel(self, ref_gen, ref_map):
        """Each stacked channel floors against its own largest response,
        and one dead channel in a stack is refused."""
        null = chan._realization_from_taps(
            np.array([0.5, -0.5 * np.exp(2j * np.pi * 13 / 64)]), 20e6, 1e-7, 64)
        loud = chan._realization_from_taps(np.array([10.0, 0.0]), 20e6, 1e-7, 64)
        stacked = chan._realization_from_taps(np.stack([null.taps, loud.taps]),
                                              20e6, 1e-7, 64)
        inv_h, variances = rxchain.zero_forcing(stacked, ref_map.active_carriers, 0.01)
        for c, ch in enumerate((null, loud)):
            single = rxchain.zero_forcing(ch, ref_map.active_carriers, 0.01)
            np.testing.assert_array_equal(inv_h[c], single[0])
            np.testing.assert_array_equal(variances[c], single[1])
        dead = chan._realization_from_taps(np.stack([loud.taps, np.zeros(2)]),
                                           20e6, 1e-7, 64)
        with pytest.raises(NearSingularChannelError, match=r"\[0\.0\]"):
            uw.build_equalizer(dead, ref_gen, 0.01)

    def test_noise_vanishing_acts_as_identity_on_codewords(self, ref_gen):
        """At vanishing noise the smoother must pass every valid
        active-carrier word through unchanged (the identity limit holds
        on the signal subspace; the word covariance is rank deficient,
        so the matrix itself cannot converge to I elementwise)."""
        rng = np.random.default_rng(72)
        ch = uw.sample_channel(rng)
        eq = uw.build_equalizer(ch, ref_gen, 1e-12)
        for _ in range(10):
            word = ref_gen.encode(uw.qpsk_map(rng.integers(0, 2, 72)))
            drift = np.abs(eq.smoother @ word - word).max()
            assert drift <= 1e-6 * np.abs(word).max()


class TestEqualizeSymbol:
    def test_noiseless_flat_recovery(self, ref_gen, ref_map, ref_uw):
        rng = np.random.default_rng(73)
        d = uw.qpsk_map(rng.integers(0, 2, 72))
        x = encode_one(d, ref_gen, ref_map, ref_uw)
        eq = uw.build_equalizer(flat_channel(0.7 + 0.3j), ref_gen, 0.0)
        y = uw.apply_channel_cyclic(x, flat_channel(0.7 + 0.3j), 0.0, rng)
        smoothed = equalize_one(y, eq, ref_uw)
        np.testing.assert_allclose(smoothed[ref_map.data_positions], d, atol=1e-9)

    def test_noiseless_multipath_recovery(self, ref_gen, ref_map, ref_uw):
        rng = np.random.default_rng(74)
        ch = uw.sample_channel(rng, tap_count=16)
        eq = uw.build_equalizer(ch, ref_gen, 0.0)
        d = uw.qpsk_map(rng.integers(0, 2, 72))
        x = encode_one(d, ref_gen, ref_map, ref_uw)
        y = uw.apply_channel_cyclic(x, ch, 0.0, rng)
        smoothed = equalize_one(y, eq, ref_uw)
        np.testing.assert_allclose(smoothed[ref_map.data_positions], d, atol=1e-8)

    def test_uw_removal_order_exchange(self, ref_gen, ref_map, ref_uw):
        """Subtracting the channel-scaled UW before zero forcing equals
        subtracting the plain UW after it."""
        rng = np.random.default_rng(75)
        ch = uw.sample_channel(rng)
        eq = uw.build_equalizer(ch, ref_gen, 0.02)
        d = uw.qpsk_map(rng.integers(0, 2, 72))
        x = encode_one(d, ref_gen, ref_map, ref_uw)
        y = uw.apply_channel_cyclic(x, ch, 0.02, rng)
        after = equalize_one(y, eq, ref_uw)
        before = equalize_symbol_uw_first(y, eq, ref_uw)
        np.testing.assert_allclose(after, before, atol=1e-10)

    def test_data_extraction_uses_permutation(self, ref_gen, ref_map, ref_uw):
        rng = np.random.default_rng(76)
        d = uw.qpsk_map(rng.integers(0, 2, 72))
        x = encode_one(d, ref_gen, ref_map, ref_uw)
        eq = uw.build_equalizer(flat_channel(), ref_gen, 0.0)
        smoothed = equalize_one(x, eq, ref_uw)
        stacked = ref_map.permutation.T @ smoothed
        np.testing.assert_allclose(smoothed[ref_map.data_positions], stacked[:36],
                                   atol=1e-12)


class TestZfOnly:
    def test_noiseless_returns_sent_word(self, ref_gen, ref_uw, notch_channel):
        _, sent, y = send_batch(ref_gen, ref_uw, notch_channel, 0.0, 20, seed=77)
        eq = uw.build_equalizer(notch_channel, ref_gen, 0.0)
        out = uw.zf_only_symbol(y, eq, ref_uw)
        assert np.abs(out - sent).max() <= 1e-9 * np.abs(sent).max()

    def test_flat_channel_mse_matches_analytic(self, ref_gen, ref_uw):
        sigma2 = 0.02
        ch = flat_channel()
        _, sent, y = send_batch(ref_gen, ref_uw, ch, sigma2, 50_000, seed=78)
        eq = uw.build_equalizer(ch, ref_gen, sigma2)
        out = uw.zf_only_symbol(y, eq, ref_uw)
        mse = np.mean(np.abs(out - sent) ** 2, axis=0)
        np.testing.assert_allclose(mse, 64 * sigma2, rtol=0.03)

    def test_notch_carriers_dominate_enhancement(self, ref_gen, ref_uw,
                                                 notch_channel, ref_config):
        eq = uw.build_equalizer(notch_channel, ref_gen, 0.01)
        power = np.abs(notch_channel.active_response(
            ref_config.active_indices)) ** 2
        worst = int(np.argmin(power))
        assert eq.noise_covariance[worst] == eq.noise_covariance.max()
        assert eq.noise_covariance.max() > 20 * np.median(eq.noise_covariance)


class TestErrorStatistics:
    def test_monte_carlo_error_covariance(self, ref_gen, ref_uw, notch_channel):
        """diag(C_ee) from the formula against the empirical covariance
        of the smoothing error over 1e5 draws, 3% per entry."""
        sigma2 = 0.01
        eq = uw.build_equalizer(notch_channel, ref_gen, sigma2)
        _, sent, y = send_batch(ref_gen, ref_uw, notch_channel, sigma2,
                                100_000, seed=79)
        est = rxchain.equalize_batch(y, eq, ref_uw)
        err = est - sent
        np.testing.assert_allclose(np.mean(np.abs(err) ** 2, axis=0),
                                   eq.error_variances, rtol=0.03)

    def test_error_zero_mean(self, ref_gen, ref_uw, notch_channel):
        sigma2 = 0.01
        eq = uw.build_equalizer(notch_channel, ref_gen, sigma2)
        _, sent, y = send_batch(ref_gen, ref_uw, notch_channel, sigma2,
                                100_000, seed=80)
        err = rxchain.equalize_batch(y, eq, ref_uw) - sent
        mean = err.mean(axis=0)
        bound = 3 * np.sqrt(eq.error_variances / err.shape[0])
        assert (np.abs(mean.real) <= bound).all()
        assert (np.abs(mean.imag) <= bound).all()

    def test_measure_mse_noiseless(self, ref_gen, ref_uw, notch_channel):
        eq = uw.build_equalizer(notch_channel, ref_gen, 0.0)
        rng = np.random.default_rng(81)
        pre, post = uw.measure_subcarrier_mse(ref_gen, eq, ref_uw, notch_channel,
                                              rng, 200)
        assert max(pre.max(), post.max()) <= 1e-16

    def test_measure_mse_matches_analytic(self, ref_gen, ref_uw, notch_channel):
        sigma2 = 0.02
        eq = uw.build_equalizer(notch_channel, ref_gen, sigma2)
        pre, post = uw.measure_subcarrier_mse(ref_gen, eq, ref_uw, notch_channel,
                                              np.random.default_rng(82), 60_000)
        np.testing.assert_allclose(pre, eq.noise_covariance, rtol=0.03)
        np.testing.assert_allclose(post, eq.error_variances, rtol=0.03)

    def test_measure_mse_one_pass(self, ref_gen, ref_uw, notch_channel):
        """Both columns come from the same symbols: smoothing the
        zero-forced words of one draw reproduces the post column."""
        sigma2 = 0.02
        eq = uw.build_equalizer(notch_channel, ref_gen, sigma2)
        pre, post = uw.measure_subcarrier_mse(ref_gen, eq, ref_uw, notch_channel,
                                              np.random.default_rng(86), 300)
        _, sent, y = send_batch(ref_gen, ref_uw, notch_channel, sigma2, 300, seed=86)
        zf = uw.zf_only_symbol(y, eq, ref_uw)
        np.testing.assert_allclose(pre, np.mean(np.abs(zf - sent) ** 2, axis=0),
                                   rtol=1e-12)
        np.testing.assert_allclose(
            post, np.mean(np.abs(rxchain.equalize_batch(y, eq, ref_uw) - sent) ** 2, axis=0),
            rtol=1e-12)


def test_ber_invariant_under_uw_choice(ref_gen, ref_map, ref_uw, zero_uw,
                                       notch_channel):
    """With perfect channel knowledge the unique word is subtracted
    exactly, so hard decisions must match bit for bit between the
    default word and the all-zero word on identical noise."""
    sigma2 = 0.05
    eq = uw.build_equalizer(notch_channel, ref_gen, sigma2)
    rng_data = np.random.default_rng(84)
    bits = rng_data.integers(0, 2, (2000, 72))
    data = uw.qpsk_map(bits)

    decisions = {}
    for word in (ref_uw, zero_uw):
        x = encode_batch(data, ref_gen, ref_map, word)
        noise_rng = np.random.default_rng(85)  # identical draws per word
        y = uw.apply_channel_cyclic(x, notch_channel, sigma2,
                                    noise_rng)
        est = rxchain.equalize_batch(y, eq, word)
        decisions[id(word)] = uw.fec.qpsk_hard_bits(est[:, ref_map.data_positions])

    a, b = decisions.values()
    np.testing.assert_array_equal(a, b)
