"""Receiver algebra: zero forcing, the LMMSE data estimator, analytic
error statistics against Monte-Carlo oracles and the full-smoother
reference form."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uwofdm as uw
from uwofdm import channel as chan
from uwofdm import rxchain
from uwofdm.errors import NearSingularChannelError
from uwofdm.txchain import encode_batch

from oracles import complex_noise, error_covariance, permutation, wiener_smoother


def flat_channel(gain=1.0 + 0j):
    return chan._realization_from_taps(np.array([gain]), 20e6, 1e-7, 64)


def combined(eq):
    """E @ diag(inv_response): zero forcing and estimation in one matrix."""
    return eq.estimator * eq.inv_response[..., None, :]


def carrier_error_variances(gen, eq):
    """diag(G C_ee G^H): the error variances of the smoother W = G E on
    every active carrier."""
    g = gen.code_matrix
    return np.real(np.einsum("ij,jk,ik->i", g, error_covariance(eq), g.conj()))


def equalize_symbol_uw_first(y_time, eq, uword):
    """Oracle with the order exchanged: subtract the channel-scaled UW
    from the raw spectrum, then zero-force and estimate in one matrix."""
    active = eq.gen.active_carriers
    spectrum = uw.forward_dft(y_time)[..., active]
    h = 1.0 / eq.inv_response
    return combined(eq) @ (spectrum - h * uword.spectrum[active])


def encode_one(data, gen, uword):
    return encode_batch(np.asarray(data)[None, :], gen, uword)[0]


def equalize_time(y_time, eq, uword):
    """Data estimates of received time samples: ``equalize_batch`` on
    their zero-forced words."""
    return rxchain.equalize_batch(rxchain.zf_only_symbol(y_time, eq, uword), eq)


def equalize_one(y_time, eq, uword):
    """Data estimates of one symbol: ``equalize_time`` on a one-row
    batch."""
    return equalize_time(np.asarray(y_time)[None, :], eq, uword)[0]


def send_batch(gen, uword, ch, sigma2, count, seed):
    """Random QPSK frames through the cyclic channel; returns (sent
    active words, received time symbols)."""
    rng = np.random.default_rng(seed)
    data = uw.qpsk_map(rng.integers(0, 2, (count, 72)))
    sent = data @ gen.code_matrix.T
    x = encode_batch(data, gen, uword)
    y = chan.apply_channel_cyclic(x, ch, sigma2, rng)
    return data, sent, y


class TestBuildEqualizer:
    def test_flat_channel_noise_covariance(self, ref_gen):
        eq = uw.build_equalizer(flat_channel(), ref_gen, 0.01)
        np.testing.assert_allclose(eq.noise_covariance, 64 * 0.01, rtol=1e-12)

    def test_noiseless_limit_identity(self, ref_gen):
        """At σ² = 0 the estimator is least squares: E G = I, no error."""
        eq = uw.build_equalizer(flat_channel(), ref_gen, 0.0)
        np.testing.assert_allclose(eq.estimator @ ref_gen.code_matrix, np.eye(36),
                                   rtol=0, atol=1e-12)
        assert np.abs(eq.error_variances).max() == 0.0

    def test_error_variances_bounded_by_signal(self, ref_gen):
        rng = np.random.default_rng(70)
        for _ in range(10):
            ch = uw.sample_channel(rng)
            eq = uw.build_equalizer(ch, ref_gen, 0.05)
            g = ref_gen.code_matrix
            signal = np.real(np.diag(g @ g.conj().T))[ref_gen.data_positions]
            assert (eq.error_variances >= -1e-12).all()
            assert (eq.error_variances <= signal + 1e-9).all()

    def test_smoothing_dominates_zero_forcing(self, ref_gen):
        """Per data carrier, the estimator's error variance never exceeds
        the ZF-only noise variance, on 100 random channels."""
        rng = np.random.default_rng(71)
        for _ in range(100):
            ch = uw.sample_channel(rng)
            sigma2 = float(10 ** rng.uniform(-4, -1))
            eq = uw.build_equalizer(ch, ref_gen, sigma2)
            zf = eq.noise_covariance[ref_gen.data_positions]
            assert (eq.error_variances <= zf * (1 + 1e-9)).all()

    def test_near_zero_response_raises(self, ref_gen):
        ch = chan._realization_from_taps(
            np.zeros(1, dtype=complex), 20e6, 1e-7, 64)
        with pytest.raises(NearSingularChannelError):
            uw.build_equalizer(ch, ref_gen, 0.01)

    def test_response_off_the_generators_grid_refused(self, ref_gen):
        """A 128-point response would be read at carriers 1..63 of the
        wrong grid and scaled by N = 128; it is refused naming both sizes."""
        ch = uw.sample_channel(np.random.default_rng(5), dft_size=128)
        with pytest.raises(ValueError, match=re.escape(
                "channel response has 128 carriers, the generator's dft_size is 64")):
            uw.build_equalizer(ch, ref_gen, 0.01)

    def test_single_null_is_floored(self, ref_gen):
        """An exact null on active bin 13 is raised to ZF_REL_FLOOR times
        the strongest active response, keeping its phase, without raising."""
        # two taps tuned to put an exact spectral null on active bin 13
        taps = np.array([0.5, -0.5 * np.exp(2j * np.pi * 13 / 64)])
        ch = chan._realization_from_taps(taps, 20e6, 1e-7, 64)
        eq = uw.build_equalizer(ch, ref_gen, 0.01)
        assert np.isfinite(combined(eq)).all() and np.isfinite(eq.error_variances).all()
        h = ch.active_response(ref_gen.active_carriers)
        floor = rxchain.ZF_REL_FLOOR * np.abs(h).max()
        null = list(ref_gen.active_carriers).index(13)
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
    def test_stacked_build_matches_per_channel(self, ref_gen, ref_uw,
                                               smoothing, sigma2):
        rng = np.random.default_rng(77)
        stacked = uw.sample_channel(rng, channels=4)
        eq = uw.build_equalizer(stacked, ref_gen, sigma2, smoothing=smoothing)
        y = rng.standard_normal((4, 3, 64)) + 1j * rng.standard_normal((4, 3, 64))
        words = (equalize_time if smoothing else rxchain.zf_only_symbol)(y, eq, ref_uw)
        for c in range(4):
            ch = chan._realization_from_taps(stacked.taps[c], 20e6, 1e-7, 64)
            single = uw.build_equalizer(ch, ref_gen, sigma2, smoothing=smoothing)
            np.testing.assert_allclose(eq.inv_response[c], single.inv_response, rtol=1e-12)
            np.testing.assert_allclose(eq.noise_covariance[c], single.noise_covariance,
                                       rtol=1e-12)
            single_words = (equalize_time if smoothing
                            else rxchain.zf_only_symbol)(y[c], single, ref_uw)
            np.testing.assert_allclose(words[c], single_words, rtol=1e-12, atol=1e-12)
            if smoothing:
                np.testing.assert_allclose(eq.estimator[c], single.estimator,
                                           rtol=1e-12, atol=1e-12)
                np.testing.assert_allclose(eq.error_variances[c], single.error_variances,
                                           rtol=1e-12, atol=1e-12)
            else:
                # the ZF error is the noise
                assert single.estimator is None
                np.testing.assert_array_equal(
                    single.error_variances, single.noise_covariance[ref_gen.data_positions])

    def test_zero_forcing_floor_per_channel(self, ref_gen):
        """Each stacked channel floors against its own largest response,
        and one dead channel in a stack is refused."""
        null = chan._realization_from_taps(
            np.array([0.5, -0.5 * np.exp(2j * np.pi * 13 / 64)]), 20e6, 1e-7, 64)
        loud = chan._realization_from_taps(np.array([10.0, 0.0]), 20e6, 1e-7, 64)
        stacked = chan._realization_from_taps(np.stack([null.taps, loud.taps]),
                                              20e6, 1e-7, 64)
        stack = rxchain.zero_forcing(stacked, ref_gen.active_carriers, 0.01)
        for c, ch in enumerate((null, loud)):
            single = rxchain.zero_forcing(ch, ref_gen.active_carriers, 0.01)
            for stacked_part, single_part in zip(stack, single):
                np.testing.assert_array_equal(stacked_part[c], single_part)
        dead = chan._realization_from_taps(np.stack([loud.taps, np.zeros(2)]),
                                           20e6, 1e-7, 64)
        with pytest.raises(NearSingularChannelError, match=r"\[0\.0\]"):
            uw.build_equalizer(dead, ref_gen, 0.01)

    def test_noise_vanishing_acts_as_identity_on_codewords(self, ref_gen):
        """At vanishing noise the smoother W = G E must pass every valid
        active-carrier word through unchanged (the identity limit holds
        on the signal subspace; the word covariance is rank deficient,
        so the matrix itself cannot converge to I elementwise)."""
        rng = np.random.default_rng(72)
        ch = uw.sample_channel(rng)
        eq = uw.build_equalizer(ch, ref_gen, 1e-12)
        smoother = ref_gen.code_matrix @ eq.estimator
        for _ in range(10):
            word = ref_gen.code_matrix @ uw.qpsk_map(rng.integers(0, 2, 72))
            drift = np.abs(smoother @ word - word).max()
            assert drift <= 1e-6 * np.abs(word).max()


def notch_like_stack(notch_channel):
    """Three stacked 16-tap channels: the notch fixture, a 2-tap channel
    46 dB down on data carrier 13, and one with an exact null, floored by
    zero forcing, on redundant carrier 14."""
    taps = np.zeros((3, 16), dtype=complex)
    taps[0] = notch_channel.taps
    for c, carrier, depth in ((1, 13, 0.495), (2, 14, 0.5)):
        taps[c, :2] = 0.5, -depth * np.exp(2j * np.pi * carrier / 64)
    return chan._realization_from_taps(taps, 20e6, 1e-7, 64)


class TestFactoredStack:
    """A stacked build applies ``c z_d + M (z_r - T c z_d)`` and never
    forms E; a one-channel build applies E in one product.  Frame by
    frame the two agree on the same words.
    (A data carrier on the zero-forcing floor is left out: at σ² = 0 its
    weight of about 1e-12 leaves the least-squares estimate itself
    uncertain to a few 1e-7, in either form.)"""

    @pytest.fixture(params=["rayleigh", "notch-like"])
    def stack(self, request, notch_channel):
        if request.param == "rayleigh":
            return uw.sample_channel(np.random.default_rng(94), channels=6)
        return notch_like_stack(notch_channel)

    @pytest.mark.parametrize("sigma2", [0.0, 0.03])
    def test_factored_apply_equals_formed_estimator(self, ref_gen, ref_uw, stack, sigma2):
        channels = stack.taps.shape[0]
        rng = np.random.default_rng(95)
        data = uw.qpsk_map(rng.integers(0, 2, (channels, 8, 72)))
        y = chan.apply_channel_cyclic(encode_batch(data, ref_gen, ref_uw), stack, sigma2, rng)
        eq = uw.build_equalizer(stack, ref_gen, sigma2)
        estimates = equalize_time(y, eq, ref_uw)
        assert "estimator" not in vars(eq)
        for c in range(channels):
            ch = chan._realization_from_taps(stack.taps[c], 20e6, 1e-7, 64)
            single = uw.build_equalizer(ch, ref_gen, sigma2)
            formed = rxchain.zf_only_symbol(y[c], single, ref_uw) @ single.estimator.T
            np.testing.assert_allclose(estimates[c], formed, rtol=0, atol=1e-12)
            np.testing.assert_allclose(eq.error_variances[c], single.error_variances,
                                       rtol=1e-12, atol=1e-12)
        if sigma2 == 0.0:  # least squares returns the sent data
            np.testing.assert_allclose(estimates, data, rtol=0, atol=1e-9)


def null_channel(carriers, channels=None):
    """Two-tap channels with an exact null on each of ``carriers`` (one
    channel per carrier when stacked), floored by zero forcing."""
    taps = [[0.5, -0.5 * np.exp(2j * np.pi * k / 64)] for k in carriers]
    return chan._realization_from_taps(np.array(taps if channels else taps[0]),
                                       20e6, 1e-7, 64)


class TestFrequencyDomainLink:
    """``received_words`` against the time-domain chain it replaces in the
    sweep: with w the DFT of the same time-domain noise on the active
    carriers, z equals ``zf_only_symbol`` of ``encode_batch`` sent through
    ``apply_channel_cyclic``, per carrier within 1e-12 of its largest
    value, on a fixed channel, a stack and channels with floored carriers."""

    @pytest.fixture(params=["notch", "stack", "floored", "floored-stack"])
    def channel(self, request, notch_channel):
        if request.param == "notch":
            return notch_channel
        if request.param == "stack":
            return uw.sample_channel(np.random.default_rng(60), channels=8)
        if request.param == "floored":
            return null_channel([13])  # data carrier 13 of the reference layout
        return notch_like_stack(notch_channel)  # its channel 2 floors carrier 14

    @pytest.mark.parametrize("sigma2", [0.0, 0.02])
    @pytest.mark.parametrize("smoothing", [True, False])
    def test_link_equals_time_domain_chain(self, ref_gen, ref_uw, channel, sigma2,
                                           smoothing):
        stacked = channel.taps.ndim > 1
        lead = (channel.taps.shape[0],) if stacked else ()
        rng = np.random.default_rng(61)
        data = uw.qpsk_map(rng.integers(0, 2, lead + (8, 72)))
        eq = uw.build_equalizer(channel, ref_gen, sigma2, smoothing=smoothing)
        y = chan.apply_channel_cyclic(encode_batch(data, ref_gen, ref_uw), channel, sigma2,
                                      np.random.default_rng(62))
        noise = complex_noise(np.random.default_rng(62), lead + (8, 64), sigma2, stacked)
        w = uw.forward_dft(noise)[..., ref_gen.active_carriers]
        chain = rxchain.zf_only_symbol(y, eq, ref_uw)
        link = rxchain.received_words(data, eq, ref_uw, w)
        if sigma2 > 0.0:
            np.testing.assert_allclose(rxchain.equalize_batch(link, eq),
                                       rxchain.equalize_batch(chain, eq),
                                       rtol=0, atol=1e-9 * np.abs(link).max())
        else:  # a floored carrier's rounding is amplified a millionfold
            keep = np.all(eq.response_gain == 1.0, axis=tuple(range(eq.response_gain.ndim - 1)))
            chain, link = chain[..., keep], link[..., keep]
        scale = np.abs(chain).max(axis=-2, keepdims=True)
        assert np.all(np.abs(link - chain) <= 1e-12 * scale)

    def test_response_gain_is_one_off_the_floor(self, ref_gen, notch_channel):
        """g = H / H_f is exactly 1 on every carrier left unfloored, and
        |H| / floor on the floored one, from zero forcing's floor mask."""
        assert np.all(uw.build_equalizer(notch_channel, ref_gen, 0.01).response_gain == 1.0)
        floored = null_channel([13, 14, 40], channels=3)
        eq = uw.build_equalizer(floored, ref_gen, 0.01)
        h = floored.active_response(ref_gen.active_carriers)
        floor = rxchain.ZF_REL_FLOOR * np.abs(h).max(axis=-1, keepdims=True)
        on_floor = np.abs(h) < floor
        assert on_floor.sum(axis=-1).tolist() == [1, 1, 1]
        np.testing.assert_array_equal(eq.response_gain[~on_floor], 1.0)
        np.testing.assert_array_equal(eq.response_gain[on_floor], (np.abs(h) / floor)[on_floor])
        np.testing.assert_allclose(eq.response_gain, np.real(h * eq.inv_response),
                                   rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("sigma2", [0.0, 0.03])
def test_one_channel_equals_its_one_frame_stack(ref_gen, notch_channel, sigma2):
    """One build path: a channel built alone gives bit for bit the arrays
    of the same channel as a one-frame stack, and E is formed once."""
    stack = dataclasses.replace(notch_channel, taps=notch_channel.taps[None],
                                freq_response=notch_channel.freq_response[None])
    single = uw.build_equalizer(notch_channel, ref_gen, sigma2)
    stacked = uw.build_equalizer(stack, ref_gen, sigma2)
    for name in ("gain", "error_variances", "estimator"):
        np.testing.assert_array_equal(getattr(single, name), getattr(stacked, name)[0])
    assert single.estimator is single.estimator


class TestEqualizeSymbol:
    def test_noiseless_flat_recovery(self, ref_gen, ref_uw):
        rng = np.random.default_rng(73)
        d = uw.qpsk_map(rng.integers(0, 2, 72))
        x = encode_one(d, ref_gen, ref_uw)
        eq = uw.build_equalizer(flat_channel(0.7 + 0.3j), ref_gen, 0.0)
        y = chan.apply_channel_cyclic(x, flat_channel(0.7 + 0.3j), 0.0, rng)
        np.testing.assert_allclose(equalize_one(y, eq, ref_uw), d, atol=1e-9)

    def test_noiseless_multipath_recovery(self, ref_gen, ref_uw):
        rng = np.random.default_rng(74)
        ch = uw.sample_channel(rng, tap_count=16)
        eq = uw.build_equalizer(ch, ref_gen, 0.0)
        d = uw.qpsk_map(rng.integers(0, 2, 72))
        x = encode_one(d, ref_gen, ref_uw)
        y = chan.apply_channel_cyclic(x, ch, 0.0, rng)
        np.testing.assert_allclose(equalize_one(y, eq, ref_uw), d, atol=1e-8)

    def test_uw_removal_order_exchange(self, ref_gen, ref_uw):
        """Subtracting the channel-scaled UW before zero forcing equals
        subtracting the plain UW after it."""
        rng = np.random.default_rng(75)
        ch = uw.sample_channel(rng)
        eq = uw.build_equalizer(ch, ref_gen, 0.02)
        d = uw.qpsk_map(rng.integers(0, 2, 72))
        x = encode_one(d, ref_gen, ref_uw)
        y = chan.apply_channel_cyclic(x, ch, 0.02, rng)
        after = equalize_one(y, eq, ref_uw)
        before = equalize_symbol_uw_first(y, eq, ref_uw)
        np.testing.assert_allclose(after, before, atol=1e-10)

    def test_data_extraction_uses_permutation(self, ref_gen, ref_uw):
        """A ZF-only build's estimates are the data carriers of the
        zero-forced word, the rows the permutation oracle puts first."""
        rng = np.random.default_rng(76)
        d = uw.qpsk_map(rng.integers(0, 2, 72))
        x = encode_one(d, ref_gen, ref_uw)
        eq = uw.build_equalizer(flat_channel(), ref_gen, 0.0, smoothing=False)
        stacked = permutation(ref_gen.config).T @ rxchain.zf_only_symbol(x[None, :], eq, ref_uw)[0]
        np.testing.assert_allclose(equalize_one(x, eq, ref_uw), stacked[:36], atol=1e-12)


class TestZfOnly:
    def test_noiseless_returns_sent_word(self, ref_gen, ref_uw, notch_channel):
        _, sent, y = send_batch(ref_gen, ref_uw, notch_channel, 0.0, 20, seed=77)
        eq = uw.build_equalizer(notch_channel, ref_gen, 0.0)
        out = rxchain.zf_only_symbol(y, eq, ref_uw)
        assert np.abs(out - sent).max() <= 1e-9 * np.abs(sent).max()

    def test_flat_channel_mse_matches_analytic(self, ref_gen, ref_uw):
        sigma2 = 0.02
        ch = flat_channel()
        _, sent, y = send_batch(ref_gen, ref_uw, ch, sigma2, 50_000, seed=78)
        eq = uw.build_equalizer(ch, ref_gen, sigma2)
        out = rxchain.zf_only_symbol(y, eq, ref_uw)
        mse = np.mean(np.abs(out - sent) ** 2, axis=0)
        np.testing.assert_allclose(mse, 64 * sigma2, rtol=0.03)

    def test_samples_off_the_dft_grid_rejected(self, ref_gen, ref_uw):
        """128 samples on a 64-point equalizer: before, it returned 52
        carriers of the 128-point grid."""
        eq = uw.build_equalizer(flat_channel(), ref_gen, 0.01)
        with pytest.raises(ValueError, match="samples have 128 points, "
                                             "the generator's dft_size is 64"):
            rxchain.zf_only_symbol(np.ones((2, 128)), eq, ref_uw)

    def test_notch_carriers_dominate_enhancement(self, ref_gen, ref_uw,
                                                 notch_channel, ref_config):
        eq = uw.build_equalizer(notch_channel, ref_gen, 0.01)
        power = np.abs(notch_channel.active_response(
            ref_config.active_indices)) ** 2
        worst = int(np.argmin(power))
        assert eq.noise_covariance[worst] == eq.noise_covariance.max()
        assert eq.noise_covariance.max() > 20 * np.median(eq.noise_covariance)


class TestActiveCarrierDft:
    """``zf_only_symbol`` transforms on the active carriers only; the
    oracle is the full DFT, cut to them, zero-forced, minus the UW."""

    @pytest.mark.parametrize("stacked", [False, True])
    def test_matches_full_dft_then_cut(self, ref_gen, ref_uw, stacked):
        rng = np.random.default_rng(31)
        ch = uw.sample_channel(rng, channels=4 if stacked else None)
        eq = uw.build_equalizer(ch, ref_gen, 0.02, smoothing=False)
        y = rng.standard_normal((4, 6, 64) if stacked else (6, 64)) \
            + 1j * rng.standard_normal((4, 6, 64) if stacked else (6, 64))
        active = ref_gen.active_carriers
        inv_h = eq.inv_response[:, None, :] if stacked else eq.inv_response
        expect = uw.forward_dft(y)[..., active] * inv_h - ref_uw.spectrum[active]
        got = rxchain.zf_only_symbol(y, eq, ref_uw)
        np.testing.assert_allclose(got, expect, rtol=0, atol=1e-12 * np.abs(expect).max())


class TestErrorStatistics:
    def test_monte_carlo_error_covariance(self, ref_gen, ref_uw, notch_channel):
        """diag(C_ee) from the formula against the empirical covariance
        of the data estimation error over 1e5 draws, 3% per entry."""
        sigma2 = 0.01
        eq = uw.build_equalizer(notch_channel, ref_gen, sigma2)
        data, _, y = send_batch(ref_gen, ref_uw, notch_channel, sigma2,
                                100_000, seed=79)
        est = equalize_time(y, eq, ref_uw)
        err = est - data
        np.testing.assert_allclose(np.mean(np.abs(err) ** 2, axis=0),
                                   eq.error_variances, rtol=0.03)

    def test_error_zero_mean(self, ref_gen, ref_uw, notch_channel):
        sigma2 = 0.01
        eq = uw.build_equalizer(notch_channel, ref_gen, sigma2)
        data, _, y = send_batch(ref_gen, ref_uw, notch_channel, sigma2,
                                100_000, seed=80)
        err = equalize_time(y, eq, ref_uw) - data
        mean = err.mean(axis=0)
        bound = 3 * np.sqrt(eq.error_variances / err.shape[0])
        assert (np.abs(mean.real) <= bound).all()
        assert (np.abs(mean.imag) <= bound).all()

    def test_measure_mse_noiseless(self, ref_gen, ref_uw, notch_channel):
        eq = uw.build_equalizer(notch_channel, ref_gen, 0.0)
        rng = np.random.default_rng(81)
        pre, post = uw.measure_subcarrier_mse(eq, ref_uw, rng, 200)
        assert max(pre.max(), post.max()) <= 1e-16

    @pytest.mark.parametrize("smoothing, channels", [(False, None), (True, 10)])
    def test_measure_mse_refuses_zf_only_and_stacked(self, ref_gen, ref_uw, smoothing,
                                                     channels):
        """The probe smooths one channel's words with W = G E: a ZF-only
        build has no E and a stacked one has one per channel."""
        ch = uw.sample_channel(np.random.default_rng(6), channels=channels)
        eq = uw.build_equalizer(ch, ref_gen, 0.02, smoothing=smoothing)
        with pytest.raises(ValueError, match="needs an equalizer built for one channel "
                                             "with smoothing"):
            uw.measure_subcarrier_mse(eq, ref_uw, np.random.default_rng(7), 10)

    def test_measure_mse_matches_analytic(self, ref_gen, ref_uw, notch_channel):
        sigma2 = 0.02
        eq = uw.build_equalizer(notch_channel, ref_gen, sigma2)
        pre, post = uw.measure_subcarrier_mse(eq, ref_uw, np.random.default_rng(82), 60_000)
        np.testing.assert_allclose(pre, eq.noise_covariance, rtol=0.03)
        np.testing.assert_allclose(post, carrier_error_variances(ref_gen, eq), rtol=0.03)

    def test_measure_mse_one_pass(self, ref_gen, ref_uw, notch_channel):
        """Both columns come from the same words: the sweep's link on the
        data, then the bin noise, drawn from the probe's stream.  Smoothing
        those words with W = G E reproduces the post column."""
        sigma2 = 0.02
        eq = uw.build_equalizer(notch_channel, ref_gen, sigma2)
        pre, post = uw.measure_subcarrier_mse(eq, ref_uw, np.random.default_rng(86), 300)
        rng = np.random.default_rng(86)
        data = uw.qpsk_map(rng.integers(0, 2, (300, 72)))
        sent = data @ ref_gen.code_matrix.T
        zf = rxchain.received_words(data, eq, ref_uw, chan.bin_noise(rng, (300, 52), sigma2, 64))
        np.testing.assert_allclose(pre, np.mean(np.abs(zf - sent) ** 2, axis=0),
                                   rtol=1e-12)
        smoother = ref_gen.code_matrix @ eq.estimator
        np.testing.assert_allclose(
            post, np.mean(np.abs(zf @ smoother.T - sent) ** 2, axis=0), rtol=1e-12)


def test_ber_invariant_under_uw_choice(ref_gen, ref_uw, zero_uw, notch_channel):
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
        x = encode_batch(data, ref_gen, word)
        noise_rng = np.random.default_rng(85)  # identical draws per word
        y = chan.apply_channel_cyclic(x, notch_channel, sigma2,
                                    noise_rng)
        est = equalize_time(y, eq, word)
        decisions[id(word)] = uw.fec.qpsk_hard_bits(est)

    a, b = decisions.values()
    np.testing.assert_array_equal(a, b)


class TestFullSmootherReference:
    """The estimator against the full 52x52 smoother W = C_ss (C_ss + C_vv)^-1
    it replaced (``oracles.wiener_smoother``): E is W's data rows, W = G E,
    and the error variances agree on the data and on every active carrier."""

    @pytest.fixture(scope="class")
    def floored(self, ref_gen):
        """Four stacked channels whose response is exactly 0 on data
        carrier 5 and on redundant carrier 3, so both sit on the ZF floor."""
        ch = uw.sample_channel(np.random.default_rng(90), channels=4)
        response = ch.freq_response.copy()
        nulls = ref_gen.active_carriers[[ref_gen.data_positions[5],
                                         ref_gen.redundant_positions[3]]]
        response[:, nulls] = 0
        return chan.ChannelRealization(ch.taps, response, 20e6, 1e-7)

    def check(self, gen, eq):
        w, variances = wiener_smoother(gen, eq.noise_covariance)
        data = gen.data_positions
        np.testing.assert_allclose(eq.estimator, w[..., data, :], rtol=0, atol=1e-12)
        np.testing.assert_allclose(gen.code_matrix @ eq.estimator, w, rtol=0, atol=1e-12)
        np.testing.assert_allclose(eq.error_variances, variances[..., data], rtol=0,
                                   atol=1e-12)
        if eq.estimator.ndim == 2:
            np.testing.assert_allclose(carrier_error_variances(gen, eq), variances,
                                       rtol=0, atol=1e-12)

    def test_stacked_ensemble_draw(self, ref_gen):
        stacked = uw.sample_channel(np.random.default_rng(88), channels=16)
        self.check(ref_gen, uw.build_equalizer(stacked, ref_gen, 0.1))

    def test_notch_fixture(self, ref_gen, notch_channel):
        self.check(ref_gen, uw.build_equalizer(notch_channel, ref_gen, 0.02))

    @pytest.mark.parametrize("stacked", [False, True])
    def test_least_squares_at_zero_noise(self, ref_gen, notch_channel, stacked):
        ch = uw.sample_channel(np.random.default_rng(89), channels=16) if stacked \
            else notch_channel
        eq = uw.build_equalizer(ch, ref_gen, 0.0)
        np.testing.assert_allclose(eq.estimator @ ref_gen.code_matrix,
                                   np.broadcast_to(np.eye(36), eq.estimator.shape[:-1] + (36,)),
                                   rtol=0, atol=1e-12)
        assert not np.any(error_covariance(eq))

    @pytest.mark.parametrize("sigma2", [1e-4, 1e-2, 1.0])
    def test_floored_carriers(self, ref_gen, floored, sigma2):
        eq = uw.build_equalizer(floored, ref_gen, sigma2)
        peak = np.abs(floored.active_response(ref_gen.active_carriers)).max(axis=-1)
        on_floor = [ref_gen.data_positions[5], ref_gen.redundant_positions[3]]
        floor_variance = 64 * sigma2 / (rxchain.ZF_REL_FLOOR * peak) ** 2
        np.testing.assert_allclose(eq.noise_covariance[:, on_floor],
                                   np.stack([floor_variance] * 2, axis=-1), rtol=1e-12)
        self.check(ref_gen, eq)

    def test_floored_carriers_least_squares(self, ref_gen, floored):
        eq = uw.build_equalizer(floored, ref_gen, 0.0)
        np.testing.assert_allclose(eq.estimator @ ref_gen.code_matrix,
                                   np.broadcast_to(np.eye(36), (4, 36, 36)), rtol=0, atol=1e-12)
        assert not np.any(eq.error_variances)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                        reason="np.longdouble is not an extended-precision type here")
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.floats(-8.0, 4.0), st.booleans())
    def test_noise_levels(self, ref_gen, seed, log_sigma2, stacked):
        """E and the error variances against the oracle's data rows for a
        log-uniform σ² in [1e-8, 1e4].  The oracle solves C_ss + C_vv in
        extended precision (eps about 1.1e-19), but its condition number
        grows as 1/σ² (4e6 to 7e7 at 1e-8), and the oracle's own rounding
        reaches 0.6 eps times it there: E is compared within 1e-12 plus
        1e-18 times that condition number, relative to W's largest entry."""
        channels = 4 if stacked else None
        ch = uw.sample_channel(np.random.default_rng(seed), channels=channels)
        eq = uw.build_equalizer(ch, ref_gen, 10.0 ** log_sigma2)
        w, variances = wiener_smoother(ref_gen, eq.noise_covariance)
        data = ref_gen.data_positions
        w_data = w[..., data, :]
        g = ref_gen.code_matrix
        cond = np.linalg.cond(g @ g.conj().T + eq.noise_covariance[..., None] * np.eye(52))
        error = np.abs(eq.estimator - w_data).max(axis=(-2, -1))
        assert np.all(error <= (1e-12 + 1e-18 * cond) * np.abs(w_data).max(axis=(-2, -1)))
        np.testing.assert_allclose(eq.error_variances, variances[..., data],
                                   rtol=0, atol=1e-12)
