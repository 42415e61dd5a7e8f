"""Cyclic-prefix OFDM baseline shaped on the IEEE 802.11a data path:
64-point DFT, 48 data carriers, 4 BPSK pilots, 16-sample cyclic prefix,
per-carrier zero forcing.  Pilots are transmitted (so the energy split
matches the standard) but ignored at the receiver since channel
knowledge is perfect.  The prefix is never built: a channel that fits
it leaves the decoded window the cyclic convolution of the 64-sample
body, so cp runs on UW's circulant receive model; ``mean_symbol_energy``
still counts the prefix in Eb.  Neither side runs a full transform per
symbol: the transmitter multiplies the data by the inverse-DFT rows of
the data bins and adds the fixed pilot waveform, and the receiver
multiplies the window by the DFT columns of the data bins.
"""

from __future__ import annotations

import numpy as np

from .channel import ChannelRealization, apply_channel_cyclic, per_symbol
from .numerics import dft_columns, inverse_dft, matmul_rows
from .rxchain import zero_forcing


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
    """The 64-sample symbol bodies of data symbols (..., data_count): one
    product with the inverse-DFT rows of the data bins, plus the pilot
    waveform."""
    data = np.asarray(data)
    if data.shape[-1] != CpConfig.data_count:
        raise ValueError(
            f"expected {CpConfig.data_count} data symbols, got {data.shape[-1]}")
    n = CpConfig.dft_size
    body = matmul_rows(data, dft_columns(n, CpConfig.data_bins).T.conj() / n)
    body += pilot_time_signal()
    return body


def cp_apply_channel(symbols: np.ndarray, ch: ChannelRealization,
                     noise_variance: float, rng: np.random.Generator) -> np.ndarray:
    """Each symbol's decoded window: ``apply_channel_cyclic`` on its
    body, exact while the channel fits the prefix (spill from the
    previous symbol stays in the dropped prefix).  A stacked realization
    needs (channels, ..., 64) symbols and draws noise per channel."""
    return apply_channel_cyclic(symbols, ch, noise_variance, rng)


def cp_decode_symbol(received: np.ndarray, ch: ChannelRealization,
                     noise_variance: float) -> tuple[np.ndarray, np.ndarray]:
    """Transform the 64-sample window on the data bins only (one product
    with those DFT columns) and zero-force them.

    Returns (data estimates, per-carrier noise variances) with shapes
    (..., data_count) and (data_count,); a stacked realization takes
    (channels, symbols, samples) and gives (channels, data_count)
    variances.  Zero forcing is UW's rule (``rxchain.zero_forcing``),
    floored relative to the largest response on the data carriers.
    """
    received = np.asarray(received)
    if received.shape[-1] != CpConfig.dft_size:
        raise ValueError(
            f"expected {CpConfig.dft_size} samples, got {received.shape[-1]}")
    if ch.tap_count > CpConfig.cp_length + 1:
        raise ValueError(
            f"channel with {ch.tap_count} taps exceeds the {CpConfig.cp_length}-sample prefix")
    inv_h, variances = zero_forcing(ch, CpConfig.data_bins, noise_variance)
    estimates = matmul_rows(received, dft_columns(CpConfig.dft_size, CpConfig.data_bins))
    estimates *= per_symbol(inv_h)
    return estimates, variances
