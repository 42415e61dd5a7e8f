"""Static frame structure for unique-word OFDM.

An OFDM symbol is assembled in frequency domain from the data symbols,
``uw_length`` redundant symbols and a set of zero subcarriers; the zero
and redundant index sets fix the layout, and every other carrier carries
data.  The redundant symbols are a fixed linear function of the data
chosen so that the last ``uw_length`` time-domain samples of the symbol
vanish: with M21 and M22 the last ``uw_length`` rows of the inverse DFT
matrix on the data and on the redundant carriers,

    M21 @ data + M22 @ redundant = 0   whenever   redundant = T @ data,
    T = -M22^-1 @ M21.

Equivalently the active-carrier word is a complex-field Reed-Solomon-style
codeword whose "syndrome" positions are consecutive time samples.  The
generator stores T and the code matrix, and nothing formed from them.

The energy the redundant carriers spend, ``trace(T @ T^H)`` per unit
data variance, depends strongly on where the redundant carriers sit, so
this module also provides the placement metric and a placement search,
exhaustive up to a cost of EXHAUSTIVE_LIMIT unit solves and a 1-swap
descent from the configured placement beyond.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericallySingularError, PlacementInfeasibleError
from .numerics import inverse_dft, read_only, solve_linear

# Reference system parameters: 64-point DFT at 20 MHz with the
# IEEE-802.11a zero carriers (DC and band edges), 36 data carriers and
# 16 redundant carriers at the published energy-minimizing positions.
REFERENCE_ZERO_INDICES = (0, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37)
REFERENCE_REDUNDANT_INDICES = (2, 6, 10, 14, 17, 21, 24, 26,
                               38, 40, 43, 47, 50, 54, 58, 62)

#: Largest accepted ``dft_size``: the inverse DFTs of ``derive_generator`` and
#: of the placement search are up to N x N, 16 MiB at 1024.
MAX_DFT_SIZE = 1024


def as_int(name: str, value) -> int:
    """``value`` as a Python int (``operator.index``); a bool or a value
    that is not an integer is refused (ConfigError naming ``name``)."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def as_float(name: str, value) -> float:
    """``value`` as a Python float; a bool or a value that is not a real
    number is refused (ConfigError naming ``name``)."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise ConfigError(f"{name} must be a real number, got {value!r}")


def check_positive(name: str, value: float) -> None:
    """Refuse (ConfigError) a physical quantity that is not a finite
    positive number."""
    if not 0 < value < math.inf:
        raise ConfigError(f"{name} must be finite and positive, got {value}")


@dataclass(frozen=True)
class OfdmSystemConfig:
    """All static parameters of one UW-OFDM system (data: unit-energy QPSK).
    The index sets fix the carrier layout, and with it ``data_count`` and
    ``uw_length``.  Every field is stored as Python numbers (the index sets
    as tuples of ints), so a config built from lists, numpy values or an
    int rate hashes (and caches) as the one built from tuples, ints and
    floats; a bool, a non-integral size or index, or a non-real float
    field is refused."""

    dft_size: int
    zero_indices: tuple
    redundant_indices: tuple
    sample_rate_hz: float = 20e6
    uw_energy_ratio: float = 4.0 / 52.0

    def __post_init__(self):
        object.__setattr__(self, "dft_size", as_int("dft_size", self.dft_size))
        for name in ("sample_rate_hz", "uw_energy_ratio"):
            object.__setattr__(self, name, as_float(name, getattr(self, name)))
        for name in ("zero_indices", "redundant_indices"):
            try:
                indices = tuple(as_int(name, i) for i in getattr(self, name))
            except (ConfigError, TypeError):
                raise ConfigError(f"{name} must hold integers, "
                                  f"got {getattr(self, name)!r}") from None
            object.__setattr__(self, name, indices)
        n = self.dft_size
        zeros = frozenset(self.zero_indices)
        redundant = frozenset(self.redundant_indices)
        if not 1 <= n <= MAX_DFT_SIZE:
            raise ConfigError(f"dft_size must lie between 1 and {MAX_DFT_SIZE}, got {n}")
        if len(zeros) != len(self.zero_indices) or len(redundant) != len(self.redundant_indices):
            raise ConfigError("duplicate subcarrier indices")
        out_of_range = [i for i in zeros | redundant if not 0 <= i < n]
        if out_of_range:
            raise ConfigError(f"subcarrier indices out of range: {sorted(out_of_range)}")
        if zeros & redundant:
            raise ConfigError(f"zero and redundant sets overlap: {sorted(zeros & redundant)}")
        for name in ("data_count", "uw_length"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        check_positive("sample_rate_hz", self.sample_rate_hz)
        if not 0 <= self.uw_energy_ratio < 1:
            raise ConfigError("uw_energy_ratio must lie in [0, 1)")

    @property
    def data_count(self) -> int:
        """Data carriers: those neither zero nor redundant."""
        return self.dft_size - len(self.zero_indices) - len(self.redundant_indices)

    @property
    def uw_length(self) -> int:
        """Redundant carriers, as many as the unique word has samples."""
        return len(self.redundant_indices)

    @property
    def active_indices(self) -> np.ndarray:
        """All non-zero subcarrier indices, ascending."""
        return np.setdiff1d(np.arange(self.dft_size), self.zero_indices)


def reference_config() -> OfdmSystemConfig:
    """The 802.11a-derived 64/36/16 system used throughout the test suite."""
    return OfdmSystemConfig(dft_size=64, zero_indices=REFERENCE_ZERO_INDICES,
                            redundant_indices=REFERENCE_REDUNDANT_INDICES)


@dataclass(frozen=True)
class RedundancyGenerator:
    """Derived matrices of the tail-zeroing code.

    A word lists the active carriers in ascending order; data fills the
    non-redundant ones in ascending order, at ``data_positions``.
    ``redundancy`` maps a data vector to the redundant symbols, and
    ``code_matrix`` maps it to the full word, whose inverse DFT (scattered
    onto the active carriers) has ``uw_length`` zero tail samples.  Its
    arrays are read-only.
    """

    config: OfdmSystemConfig
    active_carriers: np.ndarray     # ascending non-zero subcarrier indices
    data_positions: np.ndarray      # positions of data symbols within a word
    redundant_positions: np.ndarray  # positions of redundant symbols within it
    redundancy: np.ndarray          # uw_length x data_count
    code_matrix: np.ndarray         # (data_count + uw_length) x data_count
    tail_condition: float           # condition number of the tail system


def _solve_tail(tail: np.ndarray, active: np.ndarray,
                redundant_carriers) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Solve the system that zeroes the last k = len(redundant_carriers)
    samples: ``tail`` holds those rows of the inverse DFT matrix, and the
    carriers lie in the ascending ``active``.  Returns the data and redundant
    positions within ``active``, T and the condition number."""
    is_redundant = np.zeros(len(active), dtype=bool)
    is_redundant[np.searchsorted(active, redundant_carriers)] = True
    data, redundant = np.flatnonzero(~is_redundant), np.flatnonzero(is_redundant)
    solution, cond = solve_linear(tail[:, active[redundant]], tail[:, active[data]])
    return data, redundant, -solution, cond


def derive_generator(config: OfdmSystemConfig) -> RedundancyGenerator:
    """Derive the redundancy matrices for a configuration.

    Raises PlacementInfeasibleError when the tail system is singular,
    which signals an unusable redundant-index placement.
    """
    n, nd, l = config.dft_size, config.data_count, config.uw_length
    active = config.active_indices
    try:
        data, redundant, redundancy, cond = _solve_tail(
            inverse_dft(np.eye(n)[n - l:]), active, config.redundant_indices)
    except NumericallySingularError as exc:
        raise PlacementInfeasibleError(
            "tail-zeroing system is singular for this redundant placement",
            exc.condition) from exc

    code_matrix = np.zeros((nd + l, nd), dtype=complex)
    code_matrix[data, range(nd)] = 1.0
    code_matrix[redundant] = redundancy
    return RedundancyGenerator(
        config=config, active_carriers=read_only(active), data_positions=read_only(data),
        redundant_positions=read_only(redundant), redundancy=read_only(redundancy),
        code_matrix=read_only(code_matrix), tail_condition=cond)


def redundant_energy_metric(gen: RedundancyGenerator) -> float:
    """Mean redundant-carrier energy per unit data variance, trace(T T^H)."""
    return float(np.sum(np.abs(gen.redundancy) ** 2))


# ---------------------------------------------------------------------------
# Placement search

#: Largest search the placement enumerates, in tail solves of up to
#: ``SOLVE_UNIT`` carriers; beyond it, the search descends.  A size-l
#: subset counts as max(1, (l / SOLVE_UNIT)^3) such solves: call overhead
#: dominates a smaller solve, and a larger one grows as l^3.
EXHAUSTIVE_LIMIT = 10 ** 6
SOLVE_UNIT = 8

#: Relative metric gap within which placements tie: rounding spreads equal
#: metrics about 3e-13 apart; the paper's set's best swap is 2.0e-3 worse.
TIE_TOLERANCE = 1e-9


def optimize_placement(config: OfdmSystemConfig) -> tuple[tuple, float]:
    """Search for a redundant-index set minimizing trace(T T^H).

    While the size-l subsets of the active carriers (l = ``uw_length``)
    cost at most EXHAUSTIVE_LIMIT unit solves, the search enumerates them
    all.  Beyond, it descends from ``config.redundant_indices`` (metric
    inf if singular): each pass scores every swap of one chosen carrier
    for one unchosen, and moves to the best while that improves the
    metric by more than TIE_TOLERANCE, so the result is never worse than
    the configured set.  Every set is scored on the full l-sample tail.
    Ties (within TIE_TOLERANCE of the least metric) go to the lowest
    subset; a search whose every choice is singular raises
    PlacementInfeasibleError.
    """
    n, l = config.dft_size, config.uw_length
    active = config.active_indices
    candidates = active.tolist()
    tail = inverse_dft(np.eye(n)[n - l:])

    def score(subset: tuple) -> float:
        try:
            _, _, t, _ = _solve_tail(tail, active, subset)
        except NumericallySingularError:
            return math.inf
        return float(np.sum(np.abs(t) ** 2))

    def best_of(subsets) -> tuple[tuple, float]:
        least, near = math.inf, []  # near: finite (subset, metric) pairs tying with least
        for subset in subsets:
            metric = score(subset)
            least = min(least, metric)
            bound = least * (1 + TIE_TOLERANCE)
            near = [p for p in near + [(subset, metric)] if p[1] <= bound < math.inf]
        if least == math.inf:
            raise PlacementInfeasibleError("no feasible placement found", math.inf)
        return min(near)

    if math.comb(len(candidates), l) * max(l, SOLVE_UNIT) ** 3 \
            <= EXHAUSTIVE_LIMIT * SOLVE_UNIT ** 3:
        return best_of(itertools.combinations(candidates, l))
    chosen = tuple(sorted(config.redundant_indices))
    metric = score(chosen)
    while True:
        swapped, swapped_metric = best_of(
            tuple(sorted(set(chosen) - {out} | {into}))
            for out in chosen for into in candidates if into not in chosen)
        if not swapped_metric < metric * (1 - TIE_TOLERANCE):
            return chosen, metric
        chosen, metric = swapped, swapped_metric
