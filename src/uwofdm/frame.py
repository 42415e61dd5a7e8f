"""Static frame structure for unique-word OFDM.

An OFDM symbol is assembled in frequency domain from ``data_count`` data
symbols, ``uw_length`` redundant symbols and a set of zero subcarriers.
The redundant symbols are a fixed linear function of the data chosen so
that the last ``uw_length`` time-domain samples of the symbol vanish:
writing the inverse transform of the mapped frequency vector as

    M @ [data; redundant] = [head; tail],   M = F_inv @ B @ P,

the tail is zero whenever ``redundant = T @ data`` with
``T = -M22^-1 @ M21`` (M21/M22 are the tail rows of M split at the data
/ redundant column boundary).  Equivalently the active-carrier word is a
complex-field Reed-Solomon-style codeword whose "syndrome" positions
are consecutive time samples.

The energy the redundant carriers spend, ``trace(T @ T^H)`` per unit
data variance, depends strongly on where the redundant carriers sit, so
this module also provides the placement metric plus exhaustive and
greedy placement searches.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericallySingularError, PlacementInfeasibleError
from .numerics import inverse_dft, solve_linear

# Reference system parameters: 64-point DFT at 20 MHz with the
# IEEE-802.11a zero carriers (DC and band edges), 36 data carriers and
# 16 redundant carriers at the published energy-minimizing positions.
REFERENCE_ZERO_INDICES = (0, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37)
REFERENCE_REDUNDANT_INDICES = (2, 6, 10, 14, 17, 21, 24, 26,
                               38, 40, 43, 47, 50, 54, 58, 62)


def check_positive(name: str, value: float) -> None:
    """Refuse (ConfigError) a physical quantity that is not a finite
    positive number."""
    if not 0 < value < math.inf:
        raise ConfigError(f"{name} must be finite and positive, got {value}")


@dataclass(frozen=True)
class OfdmSystemConfig:
    """All static parameters of one UW-OFDM system (data: unit-energy QPSK)."""

    dft_size: int
    data_count: int
    uw_length: int
    zero_indices: tuple
    redundant_indices: tuple
    sample_rate_hz: float = 20e6
    uw_energy_ratio: float = 4.0 / 52.0

    def __post_init__(self):
        n, nd, l = self.dft_size, self.data_count, self.uw_length
        zeros = frozenset(self.zero_indices)
        redundant = frozenset(self.redundant_indices)
        for name, value, least in (("dft_size", n, 1), ("data_count", nd, 1),
                                   ("uw_length", l, 1)):
            if value < least:
                raise ConfigError(f"{name} must be >= {least}, got {value}")
        if nd + l > n:
            raise ConfigError(f"data_count + uw_length = {nd + l} exceeds dft_size {n}")
        if len(zeros) != len(self.zero_indices) or len(redundant) != len(self.redundant_indices):
            raise ConfigError("duplicate subcarrier indices")
        if len(zeros) != n - nd - l:
            raise ConfigError(
                f"need {n - nd - l} zero subcarriers, got {len(zeros)}")
        if len(redundant) != l:
            raise ConfigError(f"need {l} redundant subcarriers, got {len(redundant)}")
        out_of_range = [i for i in zeros | redundant if not 0 <= i < n]
        if out_of_range:
            raise ConfigError(f"subcarrier indices out of range: {sorted(out_of_range)}")
        if zeros & redundant:
            raise ConfigError(f"zero and redundant sets overlap: {sorted(zeros & redundant)}")
        check_positive("sample_rate_hz", self.sample_rate_hz)
        if not 0 <= self.uw_energy_ratio < 1:
            raise ConfigError("uw_energy_ratio must lie in [0, 1)")

    @property
    def active_indices(self) -> np.ndarray:
        """All non-zero subcarrier indices, ascending."""
        zeros = set(self.zero_indices)
        return np.array([i for i in range(self.dft_size) if i not in zeros], dtype=int)

    @property
    def data_indices(self) -> np.ndarray:
        """Data subcarrier indices, ascending."""
        occupied = set(self.zero_indices) | set(self.redundant_indices)
        return np.array([i for i in range(self.dft_size) if i not in occupied], dtype=int)


def reference_config() -> OfdmSystemConfig:
    """The 802.11a-derived 64/36/16 system used throughout the test suite."""
    return OfdmSystemConfig(
        dft_size=64,
        data_count=36,
        uw_length=16,
        zero_indices=REFERENCE_ZERO_INDICES,
        redundant_indices=REFERENCE_REDUNDANT_INDICES,
    )


@dataclass(frozen=True)
class SubcarrierMap:
    """Placement matrices for one configuration.

    ``selection`` (N x A) inserts the A = data_count + uw_length active
    symbols at their absolute subcarrier indices, with all-zero rows at
    zero subcarriers.  ``permutation`` (A x A) maps the stacked
    [data; redundant] vector to ascending-active-carrier order, data
    filling the non-redundant active carriers in ascending index order.
    """

    config: OfdmSystemConfig
    selection: np.ndarray
    permutation: np.ndarray
    active_carriers: np.ndarray
    data_positions: np.ndarray      # positions of data symbols within the active vector
    redundant_positions: np.ndarray  # positions of redundant symbols within it


def build_subcarrier_map(config: OfdmSystemConfig) -> SubcarrierMap:
    """Construct the selection and permutation matrices for ``config``."""
    active = config.active_indices
    data = config.data_indices
    redundant = np.array(sorted(config.redundant_indices), dtype=int)
    n_active = len(active)

    selection = np.zeros((config.dft_size, n_active))
    selection[active, np.arange(n_active)] = 1.0

    pos_of = {carrier: pos for pos, carrier in enumerate(active)}
    data_positions = np.array([pos_of[c] for c in data], dtype=int)
    redundant_positions = np.array([pos_of[c] for c in redundant], dtype=int)

    permutation = np.zeros((n_active, n_active))
    permutation[data_positions, np.arange(len(data))] = 1.0
    permutation[redundant_positions, len(data) + np.arange(len(redundant))] = 1.0

    return SubcarrierMap(
        config=config,
        selection=selection,
        permutation=permutation,
        active_carriers=active,
        data_positions=data_positions,
        redundant_positions=redundant_positions,
    )


@dataclass(frozen=True)
class RedundancyGenerator:
    """Derived matrices of the tail-zeroing code.

    ``redundancy`` maps a data vector to the redundant symbols,
    ``code_matrix`` maps it to the full active-carrier word (in ascending
    carrier order), ``parity_check`` ([-T, I] in that order) annihilates
    it, and ``symbol_covariance`` is the word's covariance for i.i.d.
    unit-energy data (every data symbol is Gray QPSK, so sigma_d^2 = 1).
    """

    map: SubcarrierMap
    redundancy: np.ndarray          # uw_length x data_count
    code_matrix: np.ndarray         # (data_count + uw_length) x data_count
    parity_check: np.ndarray        # uw_length x (data_count + uw_length), zero on words
    symbol_covariance: np.ndarray   # Hermitian, rank <= data_count
    tail_condition: float           # condition number of the tail system

    @property
    def config(self) -> OfdmSystemConfig:
        return self.map.config

    def encode(self, data: np.ndarray) -> np.ndarray:
        """Active-carrier word(s) for data vector(s) on the last axis."""
        data = np.asarray(data)
        if data.shape[-1] != self.config.data_count:
            raise ValueError(
                f"data length {data.shape[-1]} != data_count {self.config.data_count}")
        return data @ self.code_matrix.T


def derive_generator(smap: SubcarrierMap) -> RedundancyGenerator:
    """Derive the redundancy matrices for a subcarrier map.

    Raises PlacementInfeasibleError when the tail system is singular,
    which signals an unusable redundant-index placement.
    """
    config = smap.config
    n, nd, l = config.dft_size, config.data_count, config.uw_length

    # m = F_inv @ selection @ permutation; split its last l rows at the
    # data / redundant column boundary.
    m = inverse_dft(np.eye(n)) @ smap.selection @ smap.permutation
    m21 = m[n - l:, :nd]
    m22 = m[n - l:, nd:]

    cond = float(np.linalg.cond(m22))
    try:
        redundancy = -solve_linear(m22, m21)
    except ArithmeticError as exc:
        raise PlacementInfeasibleError(
            "tail-zeroing system is singular for this redundant placement",
            cond) from exc

    code_matrix = smap.permutation @ np.vstack([np.eye(nd, dtype=complex), redundancy])
    symbol_covariance = code_matrix @ code_matrix.conj().T

    return RedundancyGenerator(
        map=smap,
        redundancy=redundancy,
        code_matrix=code_matrix,
        parity_check=np.hstack([-redundancy, np.eye(l)]) @ smap.permutation.T,
        symbol_covariance=symbol_covariance,
        tail_condition=cond,
    )


def redundant_energy_metric(gen: RedundancyGenerator) -> float:
    """Mean redundant-carrier energy per unit data variance, trace(T T^H)."""
    return float(np.sum(np.abs(gen.redundancy) ** 2))


# ---------------------------------------------------------------------------
# Placement search

#: Largest subset count the exhaustive search will enumerate.
EXHAUSTIVE_LIMIT = 10 ** 6


def _tail_metric(tail_rows: np.ndarray, active: np.ndarray, subset: tuple) -> float:
    """trace(T T^H) for redundant carriers ``subset``; inf when singular.

    ``tail_rows`` are the last k rows of the inverse DFT matrix, where k
    is the subset size (the partially constrained system zeroes only as
    many tail samples as there are redundant carriers).
    """
    chosen = set(subset)
    data_cols = [c for c in active if c not in chosen]
    try:
        t = solve_linear(tail_rows[:, list(subset)], tail_rows[:, data_cols])
    except NumericallySingularError:
        return math.inf
    return float(np.sum(np.abs(t) ** 2))


def optimize_placement(config: OfdmSystemConfig, strategy: str = "greedy"
                       ) -> tuple[tuple, float]:
    """Search for a redundant-index set minimizing trace(T T^H).

    ``config.redundant_indices`` only fixes the candidate pool size; the
    search runs over all size-l subsets of the active carriers.
    ``exhaustive`` enumerates every subset and is refused (with the
    count) beyond EXHAUSTIVE_LIMIT; ``greedy`` grows the set one index
    at a time, at each step adding the candidate that minimizes the
    metric of the partially constrained system, ties going to the
    lowest index.
    """
    n, l = config.dft_size, config.uw_length
    zeros = set(config.zero_indices)
    candidates = [i for i in range(n) if i not in zeros]
    inv = inverse_dft(np.eye(n))
    active = np.array(candidates, dtype=int)

    if strategy == "exhaustive":
        count = math.comb(len(candidates), l)
        if count > EXHAUSTIVE_LIMIT:
            raise ConfigError(
                f"exhaustive search refused: {count} subsets exceed limit {EXHAUSTIVE_LIMIT}")
        tail_rows = inv[n - l:, :]
        best, best_metric = None, math.inf
        for subset in itertools.combinations(candidates, l):
            metric = _tail_metric(tail_rows, active, subset)
            if metric < best_metric:
                best, best_metric = subset, metric
        if best is None:
            raise PlacementInfeasibleError("no feasible placement found", math.inf)
        return best, best_metric

    if strategy == "greedy":
        chosen: list[int] = []
        for step in range(1, l + 1):
            tail_rows = inv[n - step:, :]
            best, best_metric = None, math.inf
            for cand in candidates:
                if cand in chosen:
                    continue
                metric = _tail_metric(tail_rows, active, tuple(sorted(chosen + [cand])))
                if metric < best_metric:  # ties keep the first (lowest) candidate
                    best, best_metric = cand, metric
            if best is None:
                raise PlacementInfeasibleError(
                    f"greedy search stuck at step {step}", math.inf)
            chosen.append(best)
        final = tuple(sorted(chosen))
        return final, _tail_metric(inv[n - l:, :], active, final)

    raise ValueError(f"unknown strategy {strategy!r} (use 'exhaustive' or 'greedy')")
