"""Cyclic-prefix OFDM baseline shaped on the IEEE 802.11a data path:
64-point DFT, 48 data carriers, 4 BPSK pilots, 16-sample cyclic prefix,
per-carrier zero forcing.  Pilots are transmitted (so the energy split
matches the standard) but ignored at the receiver since channel
knowledge is perfect.  The prefix is never built: a channel that fits
it leaves the decoded window the cyclic convolution of the 64-sample
body, so cp runs on UW's circulant channel model (``cp_apply_channel``,
noiseless); ``CpConfig.symbol_energy`` still counts the prefix in Eb.
The receiver adds the noise in the frequency domain: the sweep's bin
noise on the 52 used bins (``channel.bin_noise``, Box–Muller from one
pair of uniforms per bin), of which it reads the 48 data bins.  On the
reference layout the used bins are UW's active carriers, so every
system sees the same noise there.  Neither side runs a full transform
per symbol: the transmitter multiplies the data by the inverse-DFT rows
of the data bins and adds the fixed pilot waveform, and the receiver
multiplies the window by the DFT columns of the data bins
(``CpConfig.demodulator``).
"""

from __future__ import annotations

import numpy as np

from .channel import ChannelRealization, cyclic_convolve, per_symbol
from .frame import REFERENCE_ZERO_INDICES
from .numerics import matmul_rows, read_only
from .rxchain import zero_forcing


class CpConfig:
    """The fixed 802.11a layout in FFT-bin terms: DC and bins 27..37 are
    zero (UW's reference zero set), pilots sit at logical carriers -21,
    -7, 7, 21 with fixed signs 1, 1, 1, -1, and the other 48 bins carry
    unit-energy QPSK data.  The 52 used bins are the pilot and data bins;
    ``data_positions`` places the data bins among them.  Every field is a
    class constant, built once at import; nothing follows the swept
    system's config.  Every array is read-only, among them:

    * ``demodulator``, the DFT matrix's columns of the data bins (64 x 48):
      ``y @ demodulator`` is ``forward_dft(y)[..., data_bins]``, and as the
      DFT matrix is symmetric, ``x @ demodulator.T.conj() / 64`` is the
      inverse DFT of ``x`` scattered onto the data bins;
    * ``pilot_waveform``, the inverse DFT of the pilot spectrum.

    ``symbol_energy`` is the expected transmit energy of one 80-sample
    symbol (window + CP): the data add the same energy to every sample,
    the pilot waveform its exact window plus CP-tail energy."""

    dft_size = 64
    cp_length = 16
    pilot_bins = (7, 21, 43, 57)
    pilot_values = (1.0, -1.0, 1.0, 1.0)
    zero_bins = REFERENCE_ZERO_INDICES
    used_bins = read_only(np.setdiff1d(np.arange(dft_size), zero_bins))
    data_bins = read_only(np.setdiff1d(used_bins, pilot_bins))
    data_positions = read_only(np.searchsorted(used_bins, data_bins))
    data_count = len(data_bins)
    demodulator = read_only(np.fft.fft(np.eye(dft_size))[:, data_bins])
    # bincount places each pilot value on its bin: the pilot spectrum
    pilot_waveform = read_only(np.fft.ifft(np.bincount(pilot_bins, pilot_values, dft_size)))
    symbol_energy = data_count * (dft_size + cp_length) / dft_size ** 2 + float(
        np.sum(np.abs(pilot_waveform) ** 2)
        + np.sum(np.abs(pilot_waveform[dft_size - cp_length:]) ** 2))


def cp_encode_symbol(data: np.ndarray) -> np.ndarray:
    """The 64-sample symbol bodies of data symbols (..., data_count): one
    product with the inverse-DFT rows of the data bins, plus the pilot
    waveform."""
    data = np.asarray(data)
    if data.shape[-1] != CpConfig.data_count:
        raise ValueError(
            f"expected {CpConfig.data_count} data symbols, got {data.shape[-1]}")
    body = matmul_rows(data, CpConfig.demodulator.T.conj() / CpConfig.dft_size)
    body += CpConfig.pilot_waveform
    return body


def cp_apply_channel(symbols: np.ndarray, ch: ChannelRealization) -> np.ndarray:
    """Each symbol's noiseless decoded window: the cyclic convolution of
    its body (``channel.cyclic_convolve``), exact while the channel fits
    the prefix (spill from the previous symbol stays in the dropped
    prefix).  A stacked realization needs (channels, ..., 64) symbols."""
    return cyclic_convolve(symbols, ch.taps)


def cp_decode_symbol(received: np.ndarray, ch: ChannelRealization, noise_variance: float,
                     noise: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Transform the 64-sample window on the data bins only (one product
    with those DFT columns), add ``noise``'s data bins, and zero-force
    them.  ``noise`` is the noise's DFT on the 52 used bins, (..., 52)
    (``channel.bin_noise``).

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
    if ch.freq_response.shape[-1] != CpConfig.dft_size:
        raise ValueError(f"channel response has {ch.freq_response.shape[-1]} carriers, "
                         f"expected {CpConfig.dft_size}")
    inv_h, variances, _ = zero_forcing(ch, CpConfig.data_bins, noise_variance)
    estimates = matmul_rows(received, CpConfig.demodulator)
    estimates += noise[..., CpConfig.data_positions]
    estimates *= per_symbol(inv_h)
    return estimates, variances
