"""Cyclic-prefix OFDM baseline shaped on the IEEE 802.11a data path:
64-point DFT, 48 data carriers, 4 BPSK pilots, 16-sample cyclic prefix,
per-carrier zero forcing.  Pilots are transmitted (so the energy split
matches the standard) but ignored at the receiver since channel
knowledge is perfect.  The prefix is never built: a channel that fits
it leaves the decoded window the cyclic convolution of the 64-sample
body, so cp runs on UW's circulant receive model; ``mean_symbol_energy``
still counts the prefix in Eb.
"""

from __future__ import annotations

import numpy as np

from .channel import ChannelRealization, apply_channel_cyclic, per_symbol
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
    """Map data symbols to carriers, add pilots and inverse transform to
    the 64-sample symbol body.  Accepts (..., data_count)."""
    data = np.asarray(data, dtype=complex)
    if data.shape[-1] != CpConfig.data_count:
        raise ValueError(
            f"expected {CpConfig.data_count} data symbols, got {data.shape[-1]}")
    spectrum = np.zeros(data.shape[:-1] + (CpConfig.dft_size,), dtype=complex)
    spectrum[..., CpConfig.data_bins] = data
    spectrum[..., list(CpConfig.pilot_bins)] = np.asarray(CpConfig.pilot_values, dtype=complex)
    return inverse_dft(spectrum)


def cp_apply_channel(symbols: np.ndarray, ch: ChannelRealization,
                     noise_variance: float, rng: np.random.Generator) -> np.ndarray:
    """Each symbol's decoded window: ``apply_channel_cyclic`` on its
    body, exact while the channel fits the prefix (spill from the
    previous symbol stays in the dropped prefix).  A stacked realization
    needs (channels, ..., 64) symbols and draws noise per channel."""
    return apply_channel_cyclic(symbols, ch, noise_variance, rng)


def cp_decode_symbol(received: np.ndarray, ch: ChannelRealization,
                     noise_variance: float) -> tuple[np.ndarray, np.ndarray]:
    """Transform the 64-sample window and zero-force the data carriers.

    Returns (data estimates, per-carrier noise variances) with shapes
    (..., data_count) and (data_count,); a stacked realization takes
    (channels, symbols, samples) and gives (channels, data_count)
    variances.  A weak response is floored as in the UW receiver
    (``rxchain.zero_forcing_response``), relative to the largest
    response on the data carriers.
    """
    received = np.asarray(received)
    if received.shape[-1] != CpConfig.dft_size:
        raise ValueError(
            f"expected {CpConfig.dft_size} samples, got {received.shape[-1]}")
    if ch.tap_count > CpConfig.cp_length + 1:
        raise ValueError(
            f"channel with {ch.tap_count} taps exceeds the {CpConfig.cp_length}-sample prefix")
    h = zero_forcing_response(ch, CpConfig.data_bins, floor_response=True)
    spectrum = forward_dft(received)
    estimates = spectrum[..., CpConfig.data_bins] / per_symbol(h)
    variances = CpConfig.dft_size * noise_variance / np.abs(h) ** 2
    return estimates, variances
