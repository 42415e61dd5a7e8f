"""Receiver algebra: zero forcing, the LMMSE data estimator, analytic
error statistics against Monte-Carlo oracles and the full-smoother
reference form."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uwofdm as uw
from uwofdm import channel as chan
from uwofdm import rxchain
from uwofdm.errors import NearSingularChannelError
from uwofdm.txchain import encode_batch

from oracles import wiener_smoother


def flat_channel(gain=1.0 + 0j):
    return chan._realization_from_taps(np.array([gain]), 20e6, 1e-7, 64)


def combined(eq):
    """E @ diag(inv_response): zero forcing and estimation in one matrix."""
    return eq.estimator * eq.inv_response[..., None, :]


def carrier_error_variances(gen, eq):
    """diag(G C_ee G^H): the error variances of the smoother W = G E on
    every active carrier."""
    g = gen.code_matrix
    return np.real(np.einsum("ij,jk,ik->i", g, eq.error_covariance, g.conj()))


def equalize_symbol_uw_first(y_time, eq, uword):
    """Oracle with the order exchanged: subtract the channel-scaled UW
    from the raw spectrum, then zero-force and estimate in one matrix."""
    smap = eq.map
    spectrum = uw.forward_dft(y_time)[..., smap.active_carriers]
    h = 1.0 / eq.inv_response
    return combined(eq) @ (spectrum - h * uword.spectrum[smap.active_carriers])


def encode_one(data, gen, uword):
    return encode_batch(np.asarray(data)[None, :], gen, uword)[0]


def equalize_one(y_time, eq, uword):
    """Data estimates of one symbol: ``equalize_batch`` on a one-row
    batch."""
    return rxchain.equalize_batch(np.asarray(y_time)[None, :], eq, uword)[0]


def send_batch(gen, uword, ch, sigma2, count, seed):
    """Random QPSK frames through the cyclic channel; returns (sent
    active words, received time symbols)."""
    rng = np.random.default_rng(seed)
    data = uw.qpsk_map(rng.integers(0, 2, (count, 72)))
    sent = data @ gen.code_matrix.T
    x = encode_batch(data, gen, uword)
    y = uw.apply_channel_cyclic(x, ch, sigma2, rng)
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

    def test_error_variances_bounded_by_signal(self, ref_gen, ref_map):
        rng = np.random.default_rng(70)
        for _ in range(10):
            ch = uw.sample_channel(rng)
            eq = uw.build_equalizer(ch, ref_gen, 0.05)
            signal = np.real(np.diag(ref_gen.symbol_covariance))[ref_map.data_positions]
            assert (eq.error_variances >= -1e-12).all()
            assert (eq.error_variances <= signal + 1e-9).all()

    def test_smoothing_dominates_zero_forcing(self, ref_gen, ref_map):
        """Per data carrier, the estimator's error variance never exceeds
        the ZF-only noise variance, on 100 random channels."""
        rng = np.random.default_rng(71)
        for _ in range(100):
            ch = uw.sample_channel(rng)
            sigma2 = float(10 ** rng.uniform(-4, -1))
            eq = uw.build_equalizer(ch, ref_gen, sigma2)
            zf = eq.noise_covariance[ref_map.data_positions]
            assert (eq.error_variances <= zf * (1 + 1e-9)).all()

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
    def test_stacked_build_matches_per_channel(self, ref_gen, ref_map, ref_uw,
                                               smoothing, sigma2):
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
                np.testing.assert_allclose(eq.estimator[c], single.estimator,
                                           rtol=1e-12, atol=1e-12)
                np.testing.assert_allclose(eq.error_variances[c], single.error_variances,
                                           rtol=1e-12, atol=1e-12)
            else:
                # the ZF error is the noise
                assert single.estimator is None and single.error_covariance is None
                np.testing.assert_array_equal(
                    single.error_variances, single.noise_covariance[ref_map.data_positions])

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


class TestEqualizeSymbol:
    def test_noiseless_flat_recovery(self, ref_gen, ref_uw):
        rng = np.random.default_rng(73)
        d = uw.qpsk_map(rng.integers(0, 2, 72))
        x = encode_one(d, ref_gen, ref_uw)
        eq = uw.build_equalizer(flat_channel(0.7 + 0.3j), ref_gen, 0.0)
        y = uw.apply_channel_cyclic(x, flat_channel(0.7 + 0.3j), 0.0, rng)
        np.testing.assert_allclose(equalize_one(y, eq, ref_uw), d, atol=1e-9)

    def test_noiseless_multipath_recovery(self, ref_gen, ref_uw):
        rng = np.random.default_rng(74)
        ch = uw.sample_channel(rng, tap_count=16)
        eq = uw.build_equalizer(ch, ref_gen, 0.0)
        d = uw.qpsk_map(rng.integers(0, 2, 72))
        x = encode_one(d, ref_gen, ref_uw)
        y = uw.apply_channel_cyclic(x, ch, 0.0, rng)
        np.testing.assert_allclose(equalize_one(y, eq, ref_uw), d, atol=1e-8)

    def test_uw_removal_order_exchange(self, ref_gen, ref_uw):
        """Subtracting the channel-scaled UW before zero forcing equals
        subtracting the plain UW after it."""
        rng = np.random.default_rng(75)
        ch = uw.sample_channel(rng)
        eq = uw.build_equalizer(ch, ref_gen, 0.02)
        d = uw.qpsk_map(rng.integers(0, 2, 72))
        x = encode_one(d, ref_gen, ref_uw)
        y = uw.apply_channel_cyclic(x, ch, 0.02, rng)
        after = equalize_one(y, eq, ref_uw)
        before = equalize_symbol_uw_first(y, eq, ref_uw)
        np.testing.assert_allclose(after, before, atol=1e-10)

    def test_data_extraction_uses_permutation(self, ref_gen, ref_map, ref_uw):
        """A ZF-only build's estimates are the data carriers of the
        zero-forced word, the rows the permutation puts first."""
        rng = np.random.default_rng(76)
        d = uw.qpsk_map(rng.integers(0, 2, 72))
        x = encode_one(d, ref_gen, ref_uw)
        eq = uw.build_equalizer(flat_channel(), ref_gen, 0.0, smoothing=False)
        stacked = ref_map.permutation.T @ uw.zf_only_symbol(x[None, :], eq, ref_uw)[0]
        np.testing.assert_allclose(equalize_one(x, eq, ref_uw), stacked[:36], atol=1e-12)


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


class TestActiveCarrierDft:
    """``zf_only_symbol`` transforms on the active carriers only; the
    oracle is the full DFT, cut to them, zero-forced, minus the UW."""

    @pytest.mark.parametrize("stacked", [False, True])
    def test_matches_full_dft_then_cut(self, ref_gen, ref_map, ref_uw, stacked):
        rng = np.random.default_rng(31)
        ch = uw.sample_channel(rng, channels=4 if stacked else None)
        eq = uw.build_equalizer(ch, ref_gen, 0.02, smoothing=False)
        y = rng.standard_normal((4, 6, 64) if stacked else (6, 64)) \
            + 1j * rng.standard_normal((4, 6, 64) if stacked else (6, 64))
        active = ref_map.active_carriers
        inv_h = eq.inv_response[:, None, :] if stacked else eq.inv_response
        expect = uw.forward_dft(y)[..., active] * inv_h - ref_uw.spectrum[active]
        got = uw.zf_only_symbol(y, eq, ref_uw)
        np.testing.assert_allclose(got, expect, rtol=0, atol=1e-12 * np.abs(expect).max())


class TestErrorStatistics:
    def test_monte_carlo_error_covariance(self, ref_gen, ref_uw, notch_channel):
        """diag(C_ee) from the formula against the empirical covariance
        of the data estimation error over 1e5 draws, 3% per entry."""
        sigma2 = 0.01
        eq = uw.build_equalizer(notch_channel, ref_gen, sigma2)
        data, _, y = send_batch(ref_gen, ref_uw, notch_channel, sigma2,
                                100_000, seed=79)
        est = rxchain.equalize_batch(y, eq, ref_uw)
        err = est - data
        np.testing.assert_allclose(np.mean(np.abs(err) ** 2, axis=0),
                                   eq.error_variances, rtol=0.03)

    def test_error_zero_mean(self, ref_gen, ref_uw, notch_channel):
        sigma2 = 0.01
        eq = uw.build_equalizer(notch_channel, ref_gen, sigma2)
        data, _, y = send_batch(ref_gen, ref_uw, notch_channel, sigma2,
                                100_000, seed=80)
        err = rxchain.equalize_batch(y, eq, ref_uw) - data
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
        np.testing.assert_allclose(post, carrier_error_variances(ref_gen, eq), rtol=0.03)

    def test_measure_mse_one_pass(self, ref_gen, ref_uw, notch_channel):
        """Both columns come from the same symbols: smoothing the
        zero-forced words of one draw with W = G E reproduces the post
        column."""
        sigma2 = 0.02
        eq = uw.build_equalizer(notch_channel, ref_gen, sigma2)
        pre, post = uw.measure_subcarrier_mse(ref_gen, eq, ref_uw, notch_channel,
                                              np.random.default_rng(86), 300)
        _, sent, y = send_batch(ref_gen, ref_uw, notch_channel, sigma2, 300, seed=86)
        zf = uw.zf_only_symbol(y, eq, ref_uw)
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
        y = uw.apply_channel_cyclic(x, notch_channel, sigma2,
                                    noise_rng)
        est = rxchain.equalize_batch(y, eq, word)
        decisions[id(word)] = uw.fec.qpsk_hard_bits(est)

    a, b = decisions.values()
    np.testing.assert_array_equal(a, b)


class TestFullSmootherReference:
    """The estimator against the full 52x52 smoother W = C_ss (C_ss + C_vv)^-1
    it replaced (``oracles.wiener_smoother``): E is W's data rows, W = G E,
    and the error variances agree on the data and on every active carrier."""

    @pytest.fixture(scope="class")
    def floored(self, ref_map):
        """Four stacked channels whose response is exactly 0 on data
        carrier 5 and on redundant carrier 3, so both sit on the ZF floor."""
        ch = uw.sample_channel(np.random.default_rng(90), channels=4)
        response = ch.freq_response.copy()
        nulls = ref_map.active_carriers[[ref_map.data_positions[5],
                                         ref_map.redundant_positions[3]]]
        response[:, nulls] = 0
        return chan.ChannelRealization(ch.taps, response, 20e6, 1e-7)

    def check(self, gen, eq):
        w, variances = wiener_smoother(gen, eq.noise_covariance)
        data = gen.map.data_positions
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
        assert not np.any(eq.error_covariance)

    @pytest.mark.parametrize("sigma2", [1e-4, 1e-2, 1.0])
    def test_floored_carriers(self, ref_gen, ref_map, floored, sigma2):
        eq = uw.build_equalizer(floored, ref_gen, sigma2)
        peak = np.abs(floored.active_response(ref_map.active_carriers)).max(axis=-1)
        on_floor = [ref_map.data_positions[5], ref_map.redundant_positions[3]]
        floor_variance = 64 * sigma2 / (rxchain.ZF_REL_FLOOR * peak) ** 2
        np.testing.assert_allclose(eq.noise_covariance[:, on_floor],
                                   np.stack([floor_variance] * 2, axis=-1), rtol=1e-12)
        self.check(ref_gen, eq)

    def test_floored_carriers_least_squares(self, ref_gen, floored):
        eq = uw.build_equalizer(floored, ref_gen, 0.0)
        np.testing.assert_allclose(eq.estimator @ ref_gen.code_matrix,
                                   np.broadcast_to(np.eye(36), (4, 36, 36)), rtol=0, atol=1e-12)
        assert not np.any(eq.error_variances)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.floats(-8.0, 4.0), st.booleans())
    def test_noise_levels(self, ref_gen, seed, log_sigma2, stacked):
        """E and the error variances against the oracle's data rows for a
        log-uniform σ² in [1e-8, 1e4].  The oracle solves C_ss + C_vv,
        whose condition number grows as 1/σ² (about 1e7 at 1e-8), so E is
        compared within 1e-12 plus 1e-15 times that condition number,
        relative to W's largest entry."""
        channels = 4 if stacked else None
        ch = uw.sample_channel(np.random.default_rng(seed), channels=channels)
        eq = uw.build_equalizer(ch, ref_gen, 10.0 ** log_sigma2)
        w, variances = wiener_smoother(ref_gen, eq.noise_covariance)
        data = ref_gen.map.data_positions
        w_data = w[..., data, :]
        cond = np.linalg.cond(ref_gen.symbol_covariance
                              + eq.noise_covariance[..., None] * np.eye(52))
        error = np.abs(eq.estimator - w_data).max(axis=(-2, -1))
        assert np.all(error <= (1e-12 + 1e-15 * cond) * np.abs(w_data).max(axis=(-2, -1)))
        np.testing.assert_allclose(eq.error_variances, variances[..., data],
                                   rtol=0, atol=1e-12)
