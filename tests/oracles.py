"""Reference forms that the tests compare the package against: the
physical symbol-stream channel, the zero-tail time symbol, an explicit
inverse DFT matrix, the 80-sample prefixed cyclic-prefix symbol, the
flat-channel closed form of the cyclic-prefix baseline and the closed
form of uncoded zero forcing on a fixed channel.  The simulator itself
never calls them."""

import math

import numpy as np

from uwofdm import cpref
from uwofdm.channel import ChannelRealization, complex_noise
from uwofdm.frame import (OfdmSystemConfig, RedundancyGenerator, build_subcarrier_map,
                          derive_generator)
from uwofdm.numerics import inverse_dft
from uwofdm.txchain import build_unique_word


def inverse_dft_matrix(n: int) -> np.ndarray:
    """The inverse DFT matrix F^H / n, written out from its definition."""
    k = np.arange(n)
    return np.exp(2j * np.pi * np.outer(k, k) / n) / n


def time_symbol(gen: RedundancyGenerator, data: np.ndarray) -> np.ndarray:
    """Zero-tail time-domain symbol(s) for data vector(s): IDFT of the
    mapped active-carrier word."""
    word = gen.encode(data)
    return inverse_dft(word @ gen.map.selection.T)


# ---------------------------------------------------------------------------
# Physical stream model

def apply_channel_stream(symbols: np.ndarray, ch: ChannelRealization,
                         noise_variance: float, rng: np.random.Generator,
                         uw_samples: np.ndarray | None = None) -> np.ndarray:
    """Linear convolution of a concatenated symbol stream plus noise.

    ``symbols`` is (count, N); all symbols must carry the same tail
    (checked against ``uw_samples`` when given).  Returns the stream of
    length count*N (the convolution tail beyond the last symbol is
    dropped).
    """
    symbols = np.atleast_2d(np.asarray(symbols, dtype=complex))
    if uw_samples is not None:
        tail = symbols[:, -len(uw_samples):]
        if not np.allclose(tail, uw_samples[None, :], atol=1e-9):
            raise ValueError("all symbols in a stream must carry the same unique word")
    stream = symbols.reshape(-1)
    out = np.convolve(stream, ch.taps)[:len(stream)]
    return out + complex_noise(rng, out.shape, noise_variance)


def stream_symbol_windows(stream: np.ndarray, dft_size: int) -> np.ndarray:
    """Per-symbol receiver windows of a stream, shape (count, dft_size)."""
    count = len(stream) // dft_size
    return np.asarray(stream[:count * dft_size]).reshape(count, dft_size)


# ---------------------------------------------------------------------------
# Physical cyclic-prefix model

def cp_prefixed(body: np.ndarray) -> np.ndarray:
    """The 80-sample transmitted symbol(s): the last ``cp_length``
    samples of each 64-sample body prepended to it."""
    body = np.asarray(body)
    return np.concatenate([body[..., -cpref.CpConfig.cp_length:], body], axis=-1)


def shifted_slice_convolve(symbols: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Per-symbol linear convolution, tail dropped: one shifted slice
    multiply-add per tap, channel c of stacked taps on slice c."""
    symbols, taps = np.asarray(symbols), np.asarray(taps)
    out = np.zeros_like(symbols, dtype=complex)
    for m in range(taps.shape[-1]):
        h = taps[..., m]
        h = h.reshape(h.shape + (1,) * (symbols.ndim - h.ndim))
        if m == 0:
            out += h * symbols
        else:
            out[..., m:] += h * symbols[..., :-m]
    return out


def cp_physical_window(body: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """The noiseless decoded window of the physical cp model: prepend the
    prefix, convolve each 80-sample symbol linearly with the channel
    (tail dropped) and drop the prefix.  While the channel fits the
    prefix, spill from a preceding symbol lands in the prefix only, so
    the isolated symbol is exact."""
    received = shifted_slice_convolve(cp_prefixed(body), taps)
    return received[..., cpref.CpConfig.cp_length:]


# ---------------------------------------------------------------------------
# Closed-form cyclic-prefix baseline

def qpsk_ber(ebn0_used_linear: float) -> float:
    """Uncoded Gray-QPSK bit error probability at a given per-bit SNR."""
    return 0.5 * math.erfc(math.sqrt(max(ebn0_used_linear, 0.0)))


def analytic_cp_uncoded_ber(ebn0_db: float, cfg: cpref.CpConfig) -> float:
    """Closed-form flat-channel BER of the CP system versus *total*
    Eb/N0, accounting for the energy spent on prefix and pilots (only
    the data-carrier share steers the decisions)."""
    eb_total = cpref.mean_symbol_energy() / (2 * cfg.data_count)
    sigma2 = eb_total / 10 ** (ebn0_db / 10.0)
    eb_used = 1.0 / (2 * cfg.dft_size)  # unit-energy data symbols
    return qpsk_ber(eb_used / sigma2)


def analytic_cp_required_ebn0_db(ber: float, cfg: cpref.CpConfig) -> float:
    """Invert ``analytic_cp_uncoded_ber``: total Eb/N0 needed for a BER."""
    lo, hi = -10.0, 60.0
    for _ in range(200):
        mid = (lo + hi) / 2
        if analytic_cp_uncoded_ber(mid, cfg) > ber:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


# ---------------------------------------------------------------------------
# Closed-form zero forcing on a fixed channel

def q_function(x: float) -> float:
    """Gaussian tail probability P(N(0, 1) > x)."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def uncoded_zf_ber(system: str, config: OfdmSystemConfig, taps: np.ndarray,
                   ebn0_db: float) -> float:
    """Uncoded BER of zero forcing without smoothing ("uw-zf" or "cp") on
    the fixed channel ``taps`` against total Eb/N0, from the definitions:

    * Es, the mean transmit energy per symbol, is trace(C_ss)/N plus the
      UW energy for UW, and the prefixed 80-sample symbol's for cp;
    * the per-sample noise variance is σ² = Es / (2·n_data) / 10^(Eb/N0 / 10);
    * zero forcing leaves complex noise of variance vᵢ = N·σ²/|Hᵢ|² on
      data carrier i, H being the N-point DFT of the taps;
    * a Gray-QPSK bit of a unit-energy symbol there errs with
      probability Q(1/√vᵢ), and the BER is the mean over the carriers.
    """
    if system == "cp":
        n, carriers = cpref.CpConfig.dft_size, cpref.CpConfig.data_bins
        es = cpref.mean_symbol_energy()
    else:
        gen = derive_generator(build_subcarrier_map(config))
        word = build_unique_word(config.uw_length, config.uw_energy_ratio, gen)
        n, carriers = config.dft_size, config.data_indices
        es = float(np.real(np.trace(gen.symbol_covariance))) / n \
            + float(np.sum(np.abs(word.samples) ** 2))
    sigma2 = es / (2 * len(carriers)) / 10 ** (ebn0_db / 10.0)
    v = n * sigma2 / np.abs(np.fft.fft(taps, n)[carriers]) ** 2
    return float(np.mean([q_function(1.0 / math.sqrt(vi)) for vi in v]))
