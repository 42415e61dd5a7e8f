"""UW-OFDM receiver: DFT on the active carriers, unique-word removal,
zero-forcing equalization and the LMMSE data estimator.

Zero forcing (``zero_forcing``, also the cp baseline's) whitens the
channel but multiplies the noise on carrier i by 1/|H(f_i)|^2, which is
disastrous in spectral notches (a floor keeps it finite).  The zero-forced
active-carrier word is ``z = G d + v``, G = P [I; T] the code matrix and
``C_vv = σ² D``, D = N·|1/H|^2.  The LMMSE data estimate is the
per-carrier Wiener estimate ``d0 = z_d / (1 + σ² D_d)`` plus the redundant
carriers' correction ``M (z_r - T d0)``, whose gain needs only a
uw_length x uw_length inverse.  It is ``E z``, ``E = A^-1 G^H D^-1``,
``A = G^H D^-1 G + σ² I``, with error covariance ``C_ee = σ² A^-1``; at
σ² = 0 it is least squares (``E G = I``, ``C_ee = 0``).  ``W = G E`` is
the MSE probe's smoother ``C_ss (C_ss + C_vv)^-1``.  The receive functions
take (symbols, dft_size) samples, or (channels, symbols, dft_size) on a
stacked equalizer; one symbol is a one-row batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization, apply_channel_cyclic, per_symbol
from .errors import NearSingularChannelError
from .frame import RedundancyGenerator
from .fec import qpsk_map
from .numerics import dft_columns, matmul_rows
from .txchain import UniqueWord, encode_batch

#: A channel whose strongest carrier lies below this has no zero forcing.
ZF_ABS_FLOOR = 1e-9
#: A weaker carrier is floored to this fraction of its channel's strongest.
ZF_REL_FLOOR = 1e-6


@dataclass(frozen=True)
class WienerEqualizer:
    """Per-(channel, noise variance) receive operator.  A ZF-only build
    has no ``estimator`` and no ``error_covariance``; its error is the
    noise, so ``error_variances`` is ``noise_covariance`` on the data
    carriers.  A stacked channel adds a leading channel axis to each.
    """

    gen: RedundancyGenerator              # the generator it was built from
    noise_variance: float
    inv_response: np.ndarray              # diagonal of the ZF operator
    noise_covariance: np.ndarray          # diagonal of C_vv (real), active carriers
    estimator: np.ndarray | None          # E, data x active; None on a ZF-only build
    error_variances: np.ndarray           # diagonal of C_ee (real), data carriers

    @property
    def error_covariance(self) -> np.ndarray | None:
        """C_ee = σ² A^-1, data x data: E's data columns times their noise variances."""
        data = self.gen.data_positions
        return None if self.estimator is None else \
            self.estimator[..., data] * self.noise_covariance[..., None, data]


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
    """Assemble the ZF (+ LMMSE data estimator) operator for one channel
    realization, or for every channel of a stacked one at once.

    Zero forcing gives 1/H and D, and C_vv = σ²·D.  With ``smoothing``, the
    gain ``M = K S^-1`` (``K = Λ^-1 T^H``, ``Λ^-1 = D_d / (1 + σ² D_d)``) needs
    one stacked inverse of the Hermitian positive-definite ``S = D_r + T K``,
    and ``E = (J + M·parity_check) diag(c)``: J selects the data carriers, c
    is 1 / (1 + σ² D_d) on them and 1 on the rest.  One formula serves every
    σ² >= 0 (least squares at σ² = 0).
    """
    inv_h, d = zero_forcing(ch, gen.active_carriers, 1.0)
    cvv_diag = noise_variance * d
    estimator, error_var = None, cvv_diag[..., gen.data_positions]
    if smoothing:
        t, data = gen.redundancy, gen.data_positions
        shrink = np.ones(d.shape)       # 1/(1 + σ² D) on data carriers, 1 on redundant ones
        shrink[..., data] = 1.0 / (1.0 + noise_variance * d[..., data])
        k = (d * shrink)[..., data, None] * t.conj().T
        s = t @ k + np.eye(len(t)) * d[..., gen.redundant_positions, None]
        estimator = k @ np.linalg.inv(s) @ gen.parity_check
        estimator[..., range(len(data)), data] += 1.0
        estimator *= shrink[..., None, :]
        error_var = np.real(estimator[..., range(len(data)), data]) * cvv_diag[..., data]

    return WienerEqualizer(gen=gen, noise_variance=noise_variance, inv_response=inv_h,
                           noise_covariance=cvv_diag, estimator=estimator,
                           error_variances=error_var)


def equalize_batch(y_time: np.ndarray, eq: WienerEqualizer,
                   uw: UniqueWord) -> np.ndarray:
    """Data estimates for (batch, dft_size) samples, or (channels, batch,
    dft_size) on a stacked equalizer: zero forcing, then the estimator E
    if ``eq`` has one, else the data carriers of the zero-forced word.

    The UW spectrum is subtracted after zero forcing; removing it before
    (scaled by the channel) is algebraically identical, which the tests
    check against that order-exchanged form.
    """
    words = zf_only_symbol(y_time, eq, uw)
    if eq.estimator is None:
        return words[..., eq.gen.data_positions]
    return words @ eq.estimator.swapaxes(-1, -2)


def zf_only_symbol(y_time: np.ndarray, eq: WienerEqualizer,
                   uw: UniqueWord) -> np.ndarray:
    """Zero-forced, UW-free word(s) without smoothing: the transmitted
    active word plus enhanced noise.  The first stage of
    ``equalize_batch`` and the pre-smoothing error probe.  The DFT is
    computed on the active carriers only, one product with those columns
    of the DFT matrix.  A stacked equalizer takes (channels, symbols,
    dft_size) samples."""
    active = eq.gen.active_carriers
    words = matmul_rows(y_time, dft_columns(np.shape(y_time)[-1], active))
    words *= per_symbol(eq.inv_response)
    words -= uw.spectrum[active]
    return words


#: Symbols per pass of ``measure_subcarrier_mse``; bounds its memory.
MSE_BATCH_SYMBOLS = 4096


def measure_subcarrier_mse(eq: WienerEqualizer, uw: UniqueWord, ch: ChannelRealization,
                           rng: np.random.Generator,
                           n_symbols: int) -> tuple[np.ndarray, np.ndarray]:
    """Empirical per-carrier squared error against the matched transmit
    word, (before, after) smoothing with ``W = G E``, both from the same
    received symbols."""
    gen = eq.gen
    smoother_t = (gen.code_matrix @ eq.estimator).T
    nd = gen.config.data_count
    pre = np.zeros(len(gen.active_carriers))
    post = np.zeros_like(pre)
    for done in range(0, n_symbols, MSE_BATCH_SYMBOLS):
        count = min(MSE_BATCH_SYMBOLS, n_symbols - done)
        data = qpsk_map(rng.integers(0, 2, size=(count, 2 * nd)))
        sent = data @ gen.code_matrix.T
        y = apply_channel_cyclic(encode_batch(data, gen, uw), ch,
                                 eq.noise_variance, rng)
        zf = zf_only_symbol(y, eq, uw)
        pre += np.sum(np.abs(zf - sent) ** 2, axis=0)
        post += np.sum(np.abs(zf @ smoother_t - sent) ** 2, axis=0)
    return pre / n_symbols, post / n_symbols
