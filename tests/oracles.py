"""Reference forms that the tests compare the package against: the
physical symbol-stream channel and its noise as a fresh draw, the
zero-tail time symbol, an explicit inverse DFT matrix, the scattered
cyclic-prefix body and its 80-sample prefixed symbol, the flat-channel closed form of the
cyclic-prefix baseline, the closed form of uncoded zero forcing on a
fixed channel, the full 52-carrier Wiener smoother and the
semi-analytic BER of uncoded uw-lmmse built on it.  The simulator
itself never calls them."""

import math

import numpy as np

from uwofdm import cpref
from uwofdm.channel import ChannelRealization
from uwofdm.fec import qpsk_map
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
    word = np.asarray(data) @ gen.code_matrix.T
    return inverse_dft(word @ gen.map.selection.T)


# ---------------------------------------------------------------------------
# Physical stream model

def complex_noise(rng: np.random.Generator, shape, variance: float,
                  stacked: bool = False) -> np.ndarray:
    """Circular complex white Gaussian noise of the given per-sample
    variance, as a fresh array: all real parts, then all imaginary ones;
    ``stacked`` draws one such block per index of the leading (channel)
    axis, in turn.  The stream order ``apply_channel_cyclic`` keeps."""
    if variance < 0:
        raise ValueError(f"noise variance must be >= 0, got {variance}")
    if variance == 0:
        return np.zeros(shape, dtype=complex)
    if stacked:
        return np.stack([complex_noise(rng, shape[1:], variance) for _ in range(shape[0])])
    scale = np.sqrt(variance / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


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


def cp_scatter_body(data: np.ndarray) -> np.ndarray:
    """The 64-sample body(s) in three steps: scatter the data and the
    pilots onto their bins of a zero spectrum, then inverse transform."""
    data = np.asarray(data)
    cfg = cpref.CpConfig
    spectrum = np.zeros(data.shape[:-1] + (cfg.dft_size,), dtype=complex)
    spectrum[..., cfg.data_bins] = data
    spectrum[..., list(cfg.pilot_bins)] = cfg.pilot_values
    return inverse_dft(spectrum)


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
        sigma2 = _noise_variance(cpref.mean_symbol_energy(), len(carriers), ebn0_db)
    else:
        _, sigma2 = _uw_noise_variance(config, ebn0_db)
        n, carriers = config.dft_size, config.data_indices
    v = n * sigma2 / np.abs(np.fft.fft(taps, n)[carriers]) ** 2
    return float(np.mean([q_function(1.0 / math.sqrt(vi)) for vi in v]))


def _noise_variance(es: float, data_carriers: int, ebn0_db: float) -> float:
    """σ² = Es / (2·n_data) / 10^(Eb/N0 / 10), uncoded."""
    return es / (2 * data_carriers) / 10 ** (ebn0_db / 10.0)


def _uw_noise_variance(config: OfdmSystemConfig, ebn0_db: float) -> tuple:
    """The UW generator and σ², Es being trace(C_ss)/N plus the UW energy."""
    gen = derive_generator(build_subcarrier_map(config))
    word = build_unique_word(config.uw_length, config.uw_energy_ratio, gen)
    es = float(np.real(np.trace(gen.symbol_covariance))) / config.dft_size \
        + float(np.sum(np.abs(word.samples) ** 2))
    return gen, _noise_variance(es, config.data_count, ebn0_db)


# ---------------------------------------------------------------------------
# The full smoother and semi-analytic uw-lmmse on a fixed channel

def wiener_smoother(gen: RedundancyGenerator, noise_covariance: np.ndarray) -> tuple:
    """The full smoother W = C_ss (C_ss + C_vv)^-1 on the active carriers
    and the diagonal of its error covariance (I - W) C_ss, for the
    diagonal C_vv ``noise_covariance`` (leading axes stack channels).
    Its data rows are the LMMSE data estimator; it needs C_vv > 0."""
    css = gen.symbol_covariance
    a = css + noise_covariance[..., None] * np.eye(css.shape[0])
    # both factors are Hermitian, so W = ((C_ss + C_vv)^-1 C_ss)^H
    w = np.linalg.solve(a, np.broadcast_to(css, a.shape)).conj().swapaxes(-1, -2)
    return w, np.real(np.diag(css)) - np.real(np.einsum("...ij,ji->...i", w, css))


def uncoded_lmmse_ber(config: OfdmSystemConfig, taps: np.ndarray, ebn0_db: float,
                      draws: int = 4000, seed: int = 0) -> float:
    """Semi-analytic uncoded BER of uw-lmmse on the fixed channel ``taps``
    against total Eb/N0 (the quasi-analytic method of Jeruchim, IEEE
    JSAC 1984), from the definitions:

    * Es and σ² as in ``uncoded_zf_ber``, and C_vv = diag(N·σ²/|Hᵢ|²) on
      the active carriers;
    * E is the data rows of the full smoother W (``wiener_smoother``);
    * given the data d, the error of E·z with z = G·d + v is Gaussian,
      with mean (E·G − I)·d and, in each of its real and imaginary parts,
      variance diag(E·C_vv·Eᴴ)/2;
    * a Gray-QPSK bit errs when its component of d plus that error
      changes sign, so its error probability is Q(·) of the margin over
      the standard deviation; the BER averages it over the bits of
      ``draws`` seeded data vectors.
    """
    gen, sigma2 = _uw_noise_variance(config, ebn0_db)
    n, active = config.dft_size, gen.map.active_carriers
    cvv = n * sigma2 / np.abs(np.fft.fft(taps, n)[active]) ** 2
    e = wiener_smoother(gen, cvv)[0][gen.map.data_positions]
    bias = e @ gen.code_matrix - np.eye(config.data_count)
    std = np.sqrt(np.real(np.einsum("ij,j,ij->i", e, cvv, e.conj())) / 2)
    rng = np.random.default_rng(seed)
    d = qpsk_map(rng.integers(0, 2, (draws, 2 * config.data_count)))
    mean = d + d @ bias.T
    margins = np.concatenate([np.sign(d.real) * mean.real, np.sign(d.imag) * mean.imag]) / std
    return float(np.mean(np.vectorize(q_function)(margins)))
