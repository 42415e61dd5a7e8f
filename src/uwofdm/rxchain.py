"""UW-OFDM receiver: DFT, unique-word removal, zero-forcing equalization
and the subcarrier-correlation (LMMSE) smoother.

Zero forcing (``zero_forcing``, also the cp baseline's) whitens the
channel but multiplies the noise on carrier i by 1/|H(f_i)|^2, which is
disastrous in spectral notches (a floor keeps it finite).  Because the
redundant carriers are a deterministic linear function of the data, the
active-carrier word has a known rank-deficient covariance; the smoother
``W = C_ss (C_ss + C_vv)^-1`` projects the noisy zero-forced word back
toward that signal subspace, with per-carrier residual error covariance
``C_ee = (I - W) C_ss``.  Both equalizer stages and their analytic
error statistics are exposed for the Monte-Carlo probes.  The receive
functions take batches of (symbols, dft_size) samples, or (channels,
symbols, dft_size) on a stacked equalizer; one symbol is a one-row batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization, apply_channel_cyclic, per_symbol
from .errors import NearSingularChannelError
from .frame import RedundancyGenerator, SubcarrierMap
from .fec import qpsk_map
from .numerics import forward_dft
from .txchain import UniqueWord, encode_batch

#: A channel whose strongest carrier lies below this has no zero forcing.
ZF_ABS_FLOOR = 1e-9
#: A weaker carrier is floored to this fraction of its channel's strongest.
ZF_REL_FLOOR = 1e-6


@dataclass(frozen=True)
class WienerEqualizer:
    """Per-(channel, noise variance) receive operator.

    ``noise_covariance`` (after ZF) and ``error_variances`` (after the
    smoother) are the diagonals of C_vv and C_ee, the analytic
    per-carrier error statistics.  A ZF-only build has no ``smoother``,
    and its error is the noise: ``error_variances`` is
    ``noise_covariance``.  A stacked channel adds a leading channel axis
    to each.
    """

    map: SubcarrierMap
    noise_variance: float
    inv_response: np.ndarray        # diagonal of the ZF operator
    noise_covariance: np.ndarray    # diagonal of C_vv (real)
    smoother: np.ndarray | None     # W, full matrix; None on a ZF-only build
    error_variances: np.ndarray     # diagonal of C_ee (real)

    @property
    def data_error_variances(self) -> np.ndarray:
        """Error variances on the data carriers, in data order (soft input
        for the decoder)."""
        return self.error_variances[..., self.map.data_positions]


def zero_forcing(ch: ChannelRealization, carriers,
                 noise_variance: float) -> tuple[np.ndarray, np.ndarray]:
    """Both modems' zero forcing on ``carriers``, per stacked channel:
    (1/H, noise variances N·σ²·|1/H|², N from the DFT convention of
    ``numerics``).  A carrier below ``ZF_REL_FLOOR`` times its channel's
    strongest is floored there, keeping its phase; a response that is not
    finite or peaks below ``ZF_ABS_FLOOR`` raises NearSingularChannelError."""
    h = ch.active_response(carriers)
    mags = np.abs(h)
    peak = mags.max(axis=-1)
    dead = ~(np.isfinite(peak) & (peak >= ZF_ABS_FLOOR))
    if np.any(dead):
        raise NearSingularChannelError(
            f"strongest channel response {peak[dead].tolist()} is not finite or "
            f"lies below {ZF_ABS_FLOOR}; zero forcing undefined")
    floor = np.broadcast_to(ZF_REL_FLOOR * peak[..., None], h.shape)
    weak = mags < floor
    if np.any(weak):
        # keep the phase; an exactly-zero entry gets a real floor
        mag = mags[weak]
        phases = np.divide(h[weak], mag, out=np.ones(mag.shape, complex), where=mag > 0)
        h[weak] = phases * floor[weak]
    inv_h = 1.0 / h
    return inv_h, ch.freq_response.shape[-1] * noise_variance * np.abs(inv_h) ** 2


def build_equalizer(ch: ChannelRealization, gen: RedundancyGenerator,
                    noise_variance: float, smoothing: bool = True) -> WienerEqualizer:
    """Assemble the ZF (+ smoothing) operator for one channel realization,
    or for every channel of a stacked one at once.

    The signal covariance comes precomputed from the generator; only the
    noise covariance and the smoother depend on the channel draw.  With
    ``smoothing=False`` no smoother is built and the error variances are
    the ZF noise variances.
    """
    smap = gen.map
    inv_h, cvv_diag = zero_forcing(ch, smap.active_carriers, noise_variance)
    smoother, error_var = None, cvv_diag
    if smoothing:
        css = gen.symbol_covariance
        eye = np.eye(css.shape[0])
        if noise_variance == 0:
            smoother = np.broadcast_to(eye.astype(complex), inv_h.shape + css.shape[-1:])
        else:
            # W = C_ss (C_ss + C_vv)^-1 with both factors Hermitian, so
            # W = ((C_ss + C_vv)^-1 C_ss)^H: one stacked solve per build.
            a = css + cvv_diag[..., None] * eye
            smoother = np.linalg.solve(a, np.broadcast_to(css, a.shape)) \
                .conj().swapaxes(-1, -2)
        # diag((I - W) C_ss) without forming the product
        error_var = np.real(np.diag(css)) - np.real(np.einsum("...ij,ji->...i", smoother, css))

    return WienerEqualizer(
        map=smap,
        noise_variance=noise_variance,
        inv_response=inv_h,
        noise_covariance=cvv_diag,
        smoother=smoother,
        error_variances=error_var,
    )


def equalize_batch(y_time: np.ndarray, eq: WienerEqualizer,
                   uw: UniqueWord) -> np.ndarray:
    """Equalized active-carrier words for (batch, dft_size) samples, or
    (channels, batch, dft_size) on a stacked equalizer: zero forcing,
    then the smoother W if ``eq`` has one.

    The UW spectrum is subtracted after zero forcing; removing it before
    (scaled by the channel) is algebraically identical, which the tests
    check against that order-exchanged form.
    """
    words = zf_only_symbol(y_time, eq, uw)
    return words if eq.smoother is None else words @ eq.smoother.swapaxes(-1, -2)


def zf_only_symbol(y_time: np.ndarray, eq: WienerEqualizer,
                   uw: UniqueWord) -> np.ndarray:
    """Zero-forced, UW-free word(s) without smoothing: the transmitted
    active word plus enhanced noise.  The first stage of
    ``equalize_batch`` and the pre-smoothing error probe.  A stacked
    equalizer takes (channels, symbols, dft_size) samples."""
    smap = eq.map
    spectrum = forward_dft(y_time)[..., smap.active_carriers]
    uw_active = uw.spectrum[smap.active_carriers]
    return spectrum * per_symbol(eq.inv_response) - uw_active


#: Symbols per pass of ``measure_subcarrier_mse``; bounds its memory.
MSE_BATCH_SYMBOLS = 4096


def measure_subcarrier_mse(gen: RedundancyGenerator, eq: WienerEqualizer,
                           uw: UniqueWord, ch: ChannelRealization,
                           rng: np.random.Generator,
                           n_symbols: int) -> tuple[np.ndarray, np.ndarray]:
    """Empirical per-carrier squared error against the matched transmit
    word, (before, after) smoothing, both from the same received
    symbols."""
    smap = gen.map
    nd = smap.config.data_count
    pre = np.zeros(len(smap.active_carriers))
    post = np.zeros_like(pre)
    for done in range(0, n_symbols, MSE_BATCH_SYMBOLS):
        count = min(MSE_BATCH_SYMBOLS, n_symbols - done)
        data = qpsk_map(rng.integers(0, 2, size=(count, 2 * nd)))
        sent = data @ gen.code_matrix.T
        y = apply_channel_cyclic(encode_batch(data, gen, smap, uw), ch,
                                 eq.noise_variance, rng)
        zf = zf_only_symbol(y, eq, uw)
        pre += np.sum(np.abs(zf - sent) ** 2, axis=0)
        post += np.sum(np.abs(zf @ eq.smoother.T - sent) ** 2, axis=0)
    return pre / n_symbols, post / n_symbols
