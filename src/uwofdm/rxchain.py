"""UW-OFDM receiver: zero-forcing equalization and the LMMSE data
estimator, fed by the sweep's frequency-domain link or by a DFT on the
active carriers with unique-word removal.

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
the MSE probe's smoother ``C_ss (C_ss + C_vv)^-1``.  A build keeps M and
the shrink; E is formed from them when first read.

With the channel known and made cyclic by the unique word, the
zero-forced word needs no time-domain symbol: on the active carriers it
is ``z = g (G d) + (g - 1) u + w / H_f`` (``received_words``), with H_f
the floored response, g = H / H_f (1 except on a floored carrier), u the
UW spectrum and w the noise's DFT on those carriers (``channel.bin_noise``).
The sweep and the MSE probe both form z so; ``zf_only_symbol`` ends the
time-domain chain the tests hold z to, and runs in neither.  The receive
functions take (symbols, ...) arrays, or (channels, symbols, ...) on a
stacked equalizer; one symbol is a one-row batch.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import ChannelRealization, bin_noise, per_symbol
from .errors import NearSingularChannelError
from .frame import RedundancyGenerator
from .fec import qpsk_map
from .numerics import forward_dft, matmul_rows, read_only
from .txchain import UniqueWord

#: A channel whose strongest carrier lies below this has no zero forcing.
ZF_ABS_FLOOR = 1e-9
#: A weaker carrier is floored to this fraction of its channel's strongest.
ZF_REL_FLOOR = 1e-6


@dataclass(frozen=True)
class WienerEqualizer:
    """Per-(channel, noise variance) receive operator.  A stacked channel
    adds a leading channel axis to each array.  A ZF-only build has no
    gain and no ``estimator``; its error is the noise, so
    ``error_variances`` is ``noise_covariance`` on the data carriers.
    With smoothing, the build keeps the smoother's gain M and the data
    shrink c; the smoother W = G E has error covariance G C_ee G^H = W C_vv.
    Every array, E too, is read-only.
    """

    gen: RedundancyGenerator              # the generator it was built from
    noise_variance: float
    inv_response: np.ndarray              # diagonal of the ZF operator, 1 / H_f
    response_gain: np.ndarray             # g = H / H_f (real): 1 but on a floored carrier
    noise_covariance: np.ndarray          # diagonal of C_vv (real), active carriers
    error_variances: np.ndarray           # diagonal of C_ee (real), data carriers
    gain: np.ndarray | None = None        # M, data x redundant; None on a ZF-only build
    shrink: np.ndarray | None = None      # c = 1 / (1 + σ² D_d), data carriers

    def __post_init__(self):
        for field in dataclasses.fields(self):  # a fixed channel's serves every batch
            value = getattr(self, field.name)
            if isinstance(value, np.ndarray):
                read_only(value)

    @cached_property
    def estimator(self) -> np.ndarray | None:
        """E, data x active, formed when first read: M in its redundant
        columns and (I - M T)·diag(c) in its data columns; None on a
        ZF-only build."""
        if self.gain is None:
            return None
        gen, gain = self.gen, self.gain
        estimator = np.empty(gain.shape[:-1] + gen.active_carriers.shape, complex)
        estimator[..., gen.redundant_positions] = gain
        identity = np.eye(len(gen.data_positions))
        estimator[..., gen.data_positions] = \
            (identity - gain @ gen.redundancy) * self.shrink[..., None, :]
        return read_only(estimator)


def zero_forcing(ch: ChannelRealization, carriers,
                 noise_variance: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both modems' zero forcing on ``carriers``, per stacked channel:
    (1/H_f, noise variances N·σ²·|1/H_f|², g = H / H_f), N from the DFT
    convention of ``numerics``.  A carrier below ``ZF_REL_FLOOR`` times its
    channel's strongest is floored there, keeping its phase, so g is
    |H| / floor there and exactly 1 elsewhere; a response that is not
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
    gain = np.ones(h.shape)
    if np.any(weak):
        # keep the phase; an exactly-zero entry gets a real floor
        mag = mags[weak]
        phases = np.divide(h[weak], mag, out=np.ones(mag.shape, complex), where=mag > 0)
        h[weak] = phases * floor[weak]
        gain[weak] = mag / floor[weak]
    inv_h = 1.0 / h
    return inv_h, ch.freq_response.shape[-1] * noise_variance * np.abs(inv_h) ** 2, gain


def build_equalizer(ch: ChannelRealization, gen: RedundancyGenerator,
                    noise_variance: float, smoothing: bool = True) -> WienerEqualizer:
    """Assemble the ZF (+ LMMSE data estimator) operator for one channel
    realization, or for every channel of a stacked one at once.

    Zero forcing gives 1/H and D, and C_vv = σ²·D.  With ``smoothing``, the
    gain ``M = K S^-1`` (``K = Λ^-1 T^H``, ``Λ^-1 = D_d / (1 + σ² D_d)``) needs
    one inverse per channel of the Hermitian positive-definite
    ``S = D_r + T K``, whose ``T K`` is one product of λ^-1 with the
    (data, l·l) table of T's column outer products; c is 1 / (1 + σ² D_d).
    One formula serves every σ² >= 0 (least squares at σ² = 0).  The error
    variances are ``Re(c (1 - diag(M T))) σ² D_d``.  A channel whose
    response is not on the generator's DFT grid is a ValueError.
    """
    if ch.freq_response.shape[-1] != gen.config.dft_size:
        raise ValueError(f"channel response has {ch.freq_response.shape[-1]} carriers, "
                         f"the generator's dft_size is {gen.config.dft_size}")
    inv_h, d, g = zero_forcing(ch, gen.active_carriers, 1.0)
    cvv_diag = noise_variance * d
    data = gen.data_positions
    if not smoothing:
        return WienerEqualizer(gen=gen, noise_variance=noise_variance, inv_response=inv_h,
                               response_gain=g, noise_covariance=cvv_diag,
                               error_variances=cvv_diag[..., data])

    t = gen.redundancy
    l, nd = t.shape
    d_data = d[..., data]
    shrink = 1.0 / (1.0 + noise_variance * d_data)
    lam_inv = d_data * shrink
    outer = (t.T[:, :, None] * t.conj().T[:, None, :]).reshape(nd, l * l)
    s = (lam_inv @ outer).reshape(lam_inv.shape[:-1] + (l, l)) \
        + np.eye(l) * d[..., gen.redundant_positions, None]
    gain = (lam_inv[..., None] * t.conj().T) @ np.linalg.inv(s)
    error_var = np.real(shrink * (1.0 - np.sum(gain * t.T, axis=-1))) * cvv_diag[..., data]
    return WienerEqualizer(gen=gen, noise_variance=noise_variance, inv_response=inv_h,
                           response_gain=g, noise_covariance=cvv_diag,
                           error_variances=error_var, gain=gain, shrink=shrink)


def received_words(data: np.ndarray, eq: WienerEqualizer, uw: UniqueWord,
                   noise: np.ndarray) -> np.ndarray:
    """The zero-forced, UW-free words of data symbols (..., data_count) sent
    over ``eq``'s channel, (channels, symbols, data_count) on a stacked
    one: ``z = g (G d) + (g - 1) u + w / H_f`` on the active carriers, with
    ``noise`` the noise's DFT w on them (``channel.bin_noise``).  No time
    symbol, channel product or DFT is formed; with w the DFT of time-domain
    noise n, z is ``zf_only_symbol`` of ``encode_batch(data)`` sent through
    ``apply_channel_cyclic`` with n, to rounding."""
    gen = eq.gen
    words = matmul_rows(data, gen.code_matrix.T)
    if np.any(eq.response_gain != 1.0):  # a floored carrier; g = 1 changes nothing
        g = per_symbol(eq.response_gain)
        words *= g
        words += (g - 1.0) * uw.spectrum[gen.active_carriers]
    words += noise * per_symbol(eq.inv_response)
    return words


def equalize_batch(words: np.ndarray, eq: WienerEqualizer) -> np.ndarray:
    """Data estimates from zero-forced, UW-free words (batch, active), or
    (channels, batch, active) on a stacked equalizer: the LMMSE estimate
    if ``eq`` has a gain, else the words' data carriers.  One channel
    applies E in one product; a stack applies ``c z_d + M (z_r - T (c z_d))``
    and never forms E."""
    gen = eq.gen
    if eq.gain is None:
        return words[..., gen.data_positions]
    if eq.gain.ndim == 2:
        return words @ eq.estimator.T
    estimates = words[..., gen.data_positions] * eq.shrink[:, None, :]
    residual = words[..., gen.redundant_positions] - matmul_rows(estimates, gen.redundancy.T)
    estimates += residual @ eq.gain.swapaxes(-1, -2)
    return estimates


def zf_only_symbol(y_time: np.ndarray, eq: WienerEqualizer,
                   uw: UniqueWord) -> np.ndarray:
    """Zero-forced, UW-free word(s) of received time samples, without
    smoothing: the transmitted active word plus enhanced noise.  The
    oracle of ``received_words``, which no sweep or probe calls.  The UW
    spectrum is subtracted after zero forcing; removing it before (scaled
    by the channel) is algebraically identical, which the tests check
    against that order-exchanged form.  A stacked equalizer takes
    (channels, symbols, dft_size) samples; another last-axis size than the
    generator's ``dft_size`` is a ValueError."""
    if np.shape(y_time)[-1] != eq.gen.config.dft_size:
        raise ValueError(f"samples have {np.shape(y_time)[-1]} points, "
                         f"the generator's dft_size is {eq.gen.config.dft_size}")
    active = eq.gen.active_carriers
    words = forward_dft(y_time)[..., active]
    words *= per_symbol(eq.inv_response)
    words -= uw.spectrum[active]
    return words


#: Symbols per pass of ``measure_subcarrier_mse``; bounds its memory.
MSE_BATCH_SYMBOLS = 4096


def measure_subcarrier_mse(eq: WienerEqualizer, uw: UniqueWord, rng: np.random.Generator,
                           n_symbols: int) -> tuple[np.ndarray, np.ndarray]:
    """Empirical per-carrier squared error against the matched transmit
    word, (before, after) smoothing with ``W = G E``, both from the same
    zero-forced words: the sweep's link (``received_words``) and bin
    noise, each pass drawing its data, then its noise, from ``rng``.  ``eq``
    must be a one-channel build with smoothing, else a ValueError."""
    if eq.gain is None or eq.gain.ndim != 2:
        raise ValueError("the MSE probe needs an equalizer built for one channel "
                         "with smoothing")
    gen = eq.gen
    smoother_t = (gen.code_matrix @ eq.estimator).T
    nd = gen.config.data_count
    pre = np.zeros(len(gen.active_carriers))
    post = np.zeros_like(pre)
    for done in range(0, n_symbols, MSE_BATCH_SYMBOLS):
        count = min(MSE_BATCH_SYMBOLS, n_symbols - done)
        data = qpsk_map(rng.integers(0, 2, size=(count, 2 * nd)))
        sent = data @ gen.code_matrix.T
        zf = received_words(data, eq, uw, bin_noise(rng, sent.shape, eq.noise_variance,
                                                    gen.config.dft_size))
        pre += np.sum(np.abs(zf - sent) ** 2, axis=0)
        post += np.sum(np.abs(zf @ smoother_t - sent) ** 2, axis=0)
    return pre / n_symbols, post / n_symbols
