"""Cyclic-prefix OFDM baseline shaped on the IEEE 802.11a data path:
64-point DFT, 48 data carriers, 4 BPSK pilots, 16-sample cyclic prefix,
per-carrier zero forcing.  Pilots are transmitted (so the energy split
matches the standard) but ignored at the receiver since channel
knowledge is perfect.  The channel acts on each symbol in isolation, as
one product with its truncated Toeplitz matrix.
"""

from __future__ import annotations

import numpy as np

from .channel import ChannelRealization, complex_noise, convolve, per_symbol
from .numerics import forward_dft, inverse_dft
from .rxchain import zero_forcing_response


class CpConfig:
    """The fixed 802.11a layout in FFT-bin terms: DC and bins 27..37 are
    zero, pilots sit at logical carriers -21, -7, 7, 21 with fixed signs
    1, 1, 1, -1, and the other 48 bins carry unit-energy QPSK data.
    Every field is a class constant; nothing follows the swept system's
    config."""

    dft_size = 64
    cp_length = 16
    pilot_bins = (7, 21, 43, 57)
    pilot_values = (1.0, -1.0, 1.0, 1.0)
    zero_bins = (0,) + tuple(range(27, 38))
    data_bins = np.setdiff1d(np.arange(dft_size), zero_bins + pilot_bins)
    data_count = len(data_bins)
    symbol_samples = dft_size + cp_length


def pilot_time_signal() -> np.ndarray:
    spectrum = np.zeros(CpConfig.dft_size, dtype=complex)
    spectrum[list(CpConfig.pilot_bins)] = CpConfig.pilot_values
    return inverse_dft(spectrum)


def mean_symbol_energy() -> float:
    """Expected transmit energy of one 80-sample symbol (window + CP).

    The data contribution is uniform per time sample; the deterministic
    pilot waveform contributes its exact window plus CP-tail energy.
    """
    n, cp = CpConfig.dft_size, CpConfig.cp_length
    data_energy = CpConfig.data_count * (n + cp) / n ** 2
    pilot = pilot_time_signal()
    pilot_energy = float(np.sum(np.abs(pilot) ** 2)
                         + np.sum(np.abs(pilot[n - cp:]) ** 2))
    return data_energy + pilot_energy


def cp_encode_symbol(data: np.ndarray) -> np.ndarray:
    """Map data symbols to carriers, add pilots, inverse transform and
    prepend the cyclic prefix.  Accepts (..., data_count)."""
    data = np.asarray(data, dtype=complex)
    if data.shape[-1] != CpConfig.data_count:
        raise ValueError(
            f"expected {CpConfig.data_count} data symbols, got {data.shape[-1]}")
    spectrum = np.zeros(data.shape[:-1] + (CpConfig.dft_size,), dtype=complex)
    spectrum[..., CpConfig.data_bins] = data
    spectrum[..., list(CpConfig.pilot_bins)] = np.asarray(CpConfig.pilot_values, dtype=complex)
    time = inverse_dft(spectrum)
    return np.concatenate([time[..., -CpConfig.cp_length:], time], axis=-1)


def cp_apply_channel(symbols: np.ndarray, ch: ChannelRealization,
                     noise_variance: float, rng: np.random.Generator) -> np.ndarray:
    """Per-symbol linear convolution with the channel plus white noise.

    Each 80-sample symbol is convolved in isolation, as one product with
    the truncated Toeplitz channel matrix (``convolution_matrix`` with
    ``cyclic=False``: the tail past the symbol is dropped).  Spill from a
    preceding symbol would fall entirely inside the discarded prefix
    whenever the channel fits the guard, so the isolated model is exact
    for the decoded window.  A stacked realization needs (channels, ...,
    samples) symbols and draws noise per channel.
    """
    out = convolve(symbols, ch.taps, cyclic=False)
    stacked = ch.taps.ndim > 1
    return out + complex_noise(rng, out.shape, noise_variance, stacked=stacked)


def cp_decode_symbol(received: np.ndarray, ch: ChannelRealization,
                     noise_variance: float) -> tuple[np.ndarray, np.ndarray]:
    """Drop the prefix, transform and zero-force the data carriers.

    Returns (data estimates, per-carrier noise variances) with shapes
    (..., data_count) and (data_count,); a stacked realization takes
    (channels, symbols, samples) and gives (channels, data_count)
    variances.  A weak response is floored as in the UW receiver
    (``rxchain.zero_forcing_response``), relative to the largest
    response on the data carriers.
    """
    received = np.asarray(received)
    if received.shape[-1] != CpConfig.symbol_samples:
        raise ValueError(
            f"expected {CpConfig.symbol_samples} samples, got {received.shape[-1]}")
    if ch.tap_count > CpConfig.cp_length + 1:
        raise ValueError(
            f"channel with {ch.tap_count} taps exceeds the {CpConfig.cp_length}-sample prefix")
    h = zero_forcing_response(ch, CpConfig.data_bins, floor_response=True)
    window = received[..., CpConfig.cp_length:]
    spectrum = forward_dft(window)
    estimates = spectrum[..., CpConfig.data_bins] / per_symbol(h)
    variances = CpConfig.dft_size * noise_variance / np.abs(h) ** 2
    return estimates, variances
