"""Transmit side: unique-word generation and symbol assembly.

A transmit symbol is built in two steps: first a zero-tail symbol (the
redundant carriers force the last ``uw_length`` time samples to zero),
then the deterministic unique word is added on top of that zero tail.
The zero-tail symbol is the code-matrix word scattered onto the active
carriers and inverse-transformed.  No sweep or probe forms a time symbol
(``rxchain.received_words``): the tests hold that link to ``encode_batch``
and keep the frequency-domain UW addition as its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frame import RedundancyGenerator
from .numerics import forward_dft, inverse_dft, matmul_rows, read_only


@dataclass(frozen=True)
class UniqueWord:
    """Deterministic guard sequence occupying the symbol tail.

    ``spectrum`` is the full-size DFT of the zero-padded word; the
    receiver subtracts it on the active carriers.  Both arrays are
    read-only.
    """

    samples: np.ndarray    # length uw_length, time domain
    spectrum: np.ndarray   # length dft_size, frequency domain
    energy: float


def mean_data_symbol_energy(gen: RedundancyGenerator) -> float:
    """Expected energy of the zero-tail time symbol over random data.

    Under the unnormalized DFT convention, ||idft(x)||^2 = ||x||^2 / N,
    so for i.i.d. unit-energy data the expectation is trace(G G^H) / N,
    which is ||G||_F^2 / N for the code matrix G: a sum of squared
    magnitudes, with no product formed.
    """
    return float(np.sum(np.abs(gen.code_matrix) ** 2)) / gen.config.dft_size


def build_unique_word(gen: RedundancyGenerator) -> UniqueWord:
    """Constant-magnitude polyphase word on the generator's zero tail,
    scaled to the share of the mean transmit-symbol energy (data +
    redundant + UW) that the config's ``uw_energy_ratio`` sets; a share
    of 0 yields the all-zero word of the receiver equivalence checks.
    """
    n, uw_length, ratio = gen.config.dft_size, gen.config.uw_length, gen.config.uw_energy_ratio
    k = np.arange(uw_length)
    shape = np.exp(1j * np.pi * k ** 2 / uw_length)

    data_energy = mean_data_symbol_energy(gen)
    # ratio = e_uw / (e_data + e_uw)  =>  e_uw = ratio/(1-ratio) * e_data
    uw_energy = ratio / (1.0 - ratio) * data_energy
    samples = shape * np.sqrt(uw_energy / uw_length)

    padded = np.concatenate([np.zeros(n - uw_length, dtype=complex), samples])
    return UniqueWord(samples=read_only(samples), spectrum=read_only(forward_dft(padded)),
                      energy=float(np.sum(np.abs(samples) ** 2)))


def encode_batch(data: np.ndarray, gen: RedundancyGenerator,
                 uw: UniqueWord) -> np.ndarray:
    """Time-domain symbols for data vectors on the last axis, (...,
    data_count) to (..., dft_size): the code-matrix words scattered onto
    the active carriers and inverse-transformed, then the unique word
    added on the zero tail."""
    data = np.asarray(data)
    if data.shape[-1] != gen.config.data_count:
        raise ValueError(
            f"data length {data.shape[-1]} != data_count {gen.config.data_count}")
    spectrum = np.zeros(data.shape[:-1] + (gen.config.dft_size,), dtype=complex)
    spectrum[..., gen.active_carriers] = matmul_rows(data, gen.code_matrix.T)
    time = inverse_dft(spectrum)
    time[..., -len(uw.samples):] += uw.samples
    return time
