"""Reference forms that the tests compare the package against: the
physical symbol-stream channel, the zero-tail time symbol, an explicit
inverse DFT matrix, the 80-sample prefixed cyclic-prefix symbol and the
flat-channel closed form of the cyclic-prefix baseline.  The simulator
itself never calls them."""

import math

import numpy as np

from uwofdm import cpref
from uwofdm.channel import ChannelRealization, complex_noise
from uwofdm.frame import RedundancyGenerator
from uwofdm.numerics import inverse_dft


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
