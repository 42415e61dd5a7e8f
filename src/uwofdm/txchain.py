"""Transmit side: unique-word generation and symbol assembly.

A transmit symbol is built in two steps: first a zero-tail symbol (the
redundant carriers force the last ``uw_length`` time samples to zero),
then the deterministic unique word is added on top of that zero tail.
The zero-tail symbol is one product of the data with the generator's
``modulator``, the encoding, carrier scatter and inverse DFT folded into
one data_count x dft_size matrix.  The tests keep the three-step form
(encode, scatter, inverse transform) and the frequency-domain UW addition
as oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frame import RedundancyGenerator
from .numerics import forward_dft, matmul_rows


@dataclass(frozen=True)
class UniqueWord:
    """Deterministic guard sequence occupying the symbol tail.

    ``spectrum`` is the full-size DFT of the zero-padded word; the
    receiver subtracts it on the active carriers.
    """

    samples: np.ndarray    # length uw_length, time domain
    spectrum: np.ndarray   # length dft_size, frequency domain
    energy: float


def mean_data_symbol_energy(gen: RedundancyGenerator) -> float:
    """Expected energy of the zero-tail time symbol over random data.

    Under the unnormalized DFT convention, ||idft(x)||^2 = ||x||^2 / N,
    so the expectation is trace(symbol_covariance) / N.
    """
    return float(np.real(np.trace(gen.symbol_covariance))) / gen.config.dft_size


def build_unique_word(uw_length: int, target_ratio: float,
                      gen: RedundancyGenerator) -> UniqueWord:
    """Constant-magnitude polyphase word scaled to a fixed share of the
    mean transmit-symbol energy.

    ``target_ratio`` is UW energy over total mean symbol energy (data +
    redundant + UW); 0 yields the all-zero word used for receiver
    equivalence checks.
    """
    if uw_length < 1:
        raise ValueError(f"uw_length must be >= 1, got {uw_length}")
    if target_ratio < 0 or target_ratio >= 1:
        raise ValueError(f"target_ratio must lie in [0, 1), got {target_ratio}")

    n = gen.config.dft_size
    k = np.arange(uw_length)
    shape = np.exp(1j * np.pi * k ** 2 / uw_length)

    data_energy = mean_data_symbol_energy(gen)
    # ratio = e_uw / (e_data + e_uw)  =>  e_uw = ratio/(1-ratio) * e_data
    uw_energy = target_ratio / (1.0 - target_ratio) * data_energy
    samples = shape * np.sqrt(uw_energy / uw_length)
    if target_ratio == 0:
        samples = np.zeros(uw_length, dtype=complex)

    padded = np.concatenate([np.zeros(n - uw_length, dtype=complex), samples])
    return UniqueWord(samples=samples, spectrum=forward_dft(padded),
                      energy=float(np.sum(np.abs(samples) ** 2)))


def encode_batch(data: np.ndarray, gen: RedundancyGenerator,
                 uw: UniqueWord) -> np.ndarray:
    """Time-domain symbols for data vectors on the last axis, (...,
    data_count) to (..., dft_size): one product with the generator's
    modulator, then the unique word added on the zero tail."""
    data = np.asarray(data)
    if data.shape[-1] != gen.config.data_count:
        raise ValueError(
            f"data length {data.shape[-1]} != data_count {gen.config.data_count}")
    time = matmul_rows(data, gen.modulator)
    time[..., -len(uw.samples):] += uw.samples
    return time
