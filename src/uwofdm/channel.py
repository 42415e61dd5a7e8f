"""Multipath channel model: tapped delay line with exponentially decaying
power profile, Rayleigh tap magnitudes and uniform phases.

``apply_channel_cyclic`` is the per-symbol receive model (cyclic
convolution plus white noise) that the receiver algebra of both modems
assumes.  It applies the channel as one product with its circulant
matrix (``convolution_matrix``), ``y = x @ M`` over the last axis; a
*stacked* realization, taps (channels, taps), gives one matrix per
channel and applies channel c to slice c of a (channels, ..., N) signal.
The cyclic model stands for the physical symbol stream because the guard
absorbs the channel: every UW symbol ends in the same unique word, and a
cyclic prefix repeats the symbol's tail.  The tests check it against a
linear convolution of the whole stream (UW) and of each prefixed symbol
(cp).  A noise variance is a float per complex sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .frame import check_positive
from .numerics import forward_dft

DEFAULT_RMS_DELAY_SPREAD_S = 100e-9
DEFAULT_TAP_COUNT = 16


@dataclass(frozen=True)
class ChannelRealization:
    """One draw of the tapped-delay-line channel.

    ``freq_response`` is the unnormalized DFT of the zero-padded taps;
    tap spacing is one sample at ``sample_rate_hz``.  Whether the taps
    fit a modem's guard is checked where a sweep is specified
    (``harness.check_tap_count``), not here.
    """

    taps: np.ndarray
    freq_response: np.ndarray
    sample_rate_hz: float
    rms_delay_spread_s: float

    @property
    def tap_count(self) -> int:
        return self.taps.shape[-1]

    def active_response(self, active_indices: np.ndarray) -> np.ndarray:
        """Frequency response restricted to the given subcarrier indices."""
        return self.freq_response[..., np.asarray(active_indices, dtype=int)]


def power_delay_profile(tap_count: int, rms_delay_spread_s: float,
                        sample_rate_hz: float) -> np.ndarray:
    """Exponential tap powers p_k proportional to exp(-k*T_s/tau), normalized
    to unit total so the ensemble-average channel energy is one."""
    if tap_count < 1:
        raise ValueError(f"tap_count must be >= 1, got {tap_count}")
    if rms_delay_spread_s <= 0:
        raise ValueError(f"rms delay spread must be > 0, got {rms_delay_spread_s}")
    k = np.arange(tap_count)
    profile = np.exp(-k / (rms_delay_spread_s * sample_rate_hz))
    return profile / profile.sum()


def check_delay_spread(rms_delay_spread_s: float, sample_rate_hz: float,
                       tap_count: int) -> None:
    """Refuse (ConfigError) a delay spread that is not finite and positive,
    or one so short in samples (τ·fs underflows) that the profile's
    exponents k / (τ·fs) are not finite up to the last tap."""
    check_positive("rms_delay_spread_s", rms_delay_spread_s)
    spread = rms_delay_spread_s * sample_rate_hz
    if not (spread > 0 and (tap_count - 1) / spread < math.inf):
        raise ConfigError(
            f"rms_delay_spread_s = {rms_delay_spread_s!r} times sample_rate_hz = "
            f"{sample_rate_hz!r} is {spread!r} samples, too short for a finite "
            f"{tap_count}-tap power delay profile")


def sample_channel(rng: np.random.Generator,
                   rms_delay_spread_s: float = DEFAULT_RMS_DELAY_SPREAD_S,
                   sample_rate_hz: float = 20e6,
                   tap_count: int = DEFAULT_TAP_COUNT,
                   dft_size: int = 64,
                   channels: int | None = None) -> ChannelRealization:
    """Draw one channel realization from the given RNG stream, or a stack
    of ``channels``: the same taps as ``channels`` draws in sequence."""
    profile = power_delay_profile(tap_count, rms_delay_spread_s, sample_rate_hz)
    lead = () if channels is None else (channels,)
    z = rng.standard_normal(lead + (2, tap_count))
    gains = (z[..., 0, :] + 1j * z[..., 1, :]) / np.sqrt(2.0)
    taps = np.sqrt(profile) * gains
    return _realization_from_taps(taps, sample_rate_hz, rms_delay_spread_s, dft_size)


def _realization_from_taps(taps: np.ndarray, sample_rate_hz: float,
                           rms_delay_spread_s: float, dft_size: int) -> ChannelRealization:
    """Realization of the given taps, responses at ``dft_size`` points."""
    taps = np.asarray(taps, dtype=complex)
    padded = np.zeros(taps.shape[:-1] + (dft_size,), dtype=complex)
    padded[..., :taps.shape[-1]] = taps
    return ChannelRealization(
        taps=taps,
        freq_response=forward_dft(padded),
        sample_rate_hz=sample_rate_hz,
        rms_delay_spread_s=rms_delay_spread_s,
    )


def convolution_matrix(taps: np.ndarray, size: int) -> np.ndarray:
    """The (..., size, size) circulant matrix M for which ``x @ M``
    cyclically convolves a length-``size`` row with ``taps``, one matrix
    per channel of stacked taps: M[k, n] = h[(n - k) mod size].  One
    gather from the zero-padded taps."""
    taps = np.asarray(taps)
    if not 1 <= taps.shape[-1] <= size:
        raise ValueError(f"{taps.shape[-1]} taps do not fit a {size}-sample convolution")
    padded = np.zeros(taps.shape[:-1] + (size,), dtype=complex)
    padded[..., :taps.shape[-1]] = taps
    lags = np.arange(size)
    return padded[..., (lags[None, :] - lags[:, None]) % size]


def per_symbol(values: np.ndarray) -> np.ndarray:
    """Per-carrier values, (carriers,) or stacked (channels, carriers),
    shaped to broadcast against (channels, symbols, carriers) arrays."""
    return values if values.ndim == 1 else values[:, None, :]


def cyclic_convolve(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Cyclic convolution of the rows of ``x`` (over the last axis) with
    one channel, or with channel c for slice c of a (channels, ..., N)
    ``x`` when ``taps`` is stacked (channels, taps): one product with the
    circulant channel matrix (the frequency-domain identity and the
    per-tap form are left to the tests)."""
    x = np.asarray(x)
    taps = np.asarray(taps)
    m = convolution_matrix(taps, x.shape[-1])
    if taps.ndim == 1:
        return x @ m
    return (x.reshape(taps.shape[0], -1, x.shape[-1]) @ m).reshape(x.shape)


def apply_channel_cyclic(x: np.ndarray, ch: ChannelRealization,
                         noise_variance: float, rng: np.random.Generator) -> np.ndarray:
    """Per-symbol receive model, a symbol (N) or a batch (..., N): cyclic
    convolution plus complex white noise of variance ``noise_variance``,
    added in place: all real parts, then all imaginary ones, per channel."""
    if noise_variance < 0:
        raise ValueError(f"noise variance must be >= 0, got {noise_variance}")
    y = cyclic_convolve(x, ch.taps)
    if noise_variance > 0:
        scale = np.sqrt(noise_variance / 2.0)
        for block in (y if ch.taps.ndim > 1 else y[None]):
            draw = np.empty(block.shape)
            for part in (block.real, block.imag):
                part += np.multiply(rng.standard_normal(out=draw), scale, out=draw)
    return y


# ---------------------------------------------------------------------------
# Pinned snapshot fixtures

#: The fixture's notch rule: ``snapshot --seed 396`` rebuilds the fixture from it.
NOTCH_DEPTH_DB, NOTCH_MIN_COUNT = -15.0, 2


def notch_predicate(active_indices: np.ndarray):
    """Predicate matching realizations with at least ``NOTCH_MIN_COUNT`` active
    carriers whose power lies ``NOTCH_DEPTH_DB`` below the active-carrier mean;
    its ``__doc__`` states that rule."""
    active = np.asarray(active_indices, dtype=int)

    def predicate(ch: ChannelRealization) -> bool:
        power = np.abs(ch.active_response(active)) ** 2
        notches = power <= power.mean() * 10 ** (NOTCH_DEPTH_DB / 10.0)
        return int(np.sum(notches)) >= NOTCH_MIN_COUNT

    predicate.__doc__ = (f"the notch rule (at least {NOTCH_MIN_COUNT} active carriers "
                         f"{-NOTCH_DEPTH_DB:g} dB or more below the active-carrier mean)")
    return predicate


def pinned_snapshot(seed: int, predicate,
                    rms_delay_spread_s: float = DEFAULT_RMS_DELAY_SPREAD_S,
                    sample_rate_hz: float = 20e6,
                    tap_count: int = DEFAULT_TAP_COUNT,
                    dft_size: int = 64,
                    max_draws: int = 100_000
                    ) -> tuple[ChannelRealization, int]:
    """Deterministically search seeded draws until ``predicate`` holds.

    Each draw uses its own counter-derived stream, so (seed, draw index)
    pins the realization bit-for-bit regardless of search history.
    Returns (realization, draw_index); refuses (ConfigError) a search
    that exhausts ``max_draws``, naming the rule of ``predicate.__doc__``.
    """
    for draw in range(max_draws):
        rng = np.random.default_rng([seed, draw])
        ch = sample_channel(rng, rms_delay_spread_s, sample_rate_hz, tap_count, dft_size)
        if predicate(ch):
            return ch, draw
    raise ConfigError(
        f"none of {max_draws} channel draws (seed {seed}, tap_count = {tap_count}) satisfied "
        f"{predicate.__doc__ or 'the predicate'}")


def save_snapshot(path, ch: ChannelRealization, seed: int, draw: int) -> None:
    """Write a snapshot fixture: metadata comments plus one tap per line
    as full-precision real/imag pairs."""
    lines = [
        "# uw-ofdm channel snapshot fixture",
        f"# seed = {seed}",
        f"# draw = {draw}",
        f"# tap_count = {ch.tap_count}",
        f"# sample_rate_hz = {ch.sample_rate_hz!r}",
        f"# rms_delay_spread_s = {ch.rms_delay_spread_s!r}",
        f"# dft_size = {ch.freq_response.shape[-1]}",
    ]
    lines += [f"{float(tap.real)!r} {float(tap.imag)!r}" for tap in ch.taps]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _finite(text: str, positive: bool = False) -> float:
    value = float(text)
    if not np.isfinite(value) or (positive and value <= 0):
        raise ValueError(f"need a finite{' positive' * positive} number, got {value}")
    return value


#: Metadata a fixture load reads, with its parser; other ``#`` lines are notes.
_SNAPSHOT_FIELDS = {"sample_rate_hz": lambda v: _finite(v, True),
                    "rms_delay_spread_s": lambda v: _finite(v, True), "dft_size": int}


def load_snapshot(path) -> ChannelRealization:
    """Load a snapshot fixture written by ``save_snapshot``; a tap line
    that is not two finite numbers, or a metadata value of the wrong type
    (or a rate or delay spread that is not finite and positive), raises
    ``ConfigError`` naming its line, and a ``dft_size`` below one or below
    the tap count raises it naming the file."""
    meta = {"sample_rate_hz": 20e6, "rms_delay_spread_s": DEFAULT_RMS_DELAY_SPREAD_S,
            "dft_size": 64}
    taps = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            try:
                if line.startswith("#"):
                    key, _, value = line.lstrip("#").partition("=")
                    if key.strip() in _SNAPSHOT_FIELDS:
                        meta[key.strip()] = _SNAPSHOT_FIELDS[key.strip()](value)
                elif line:
                    re_part, im_part = line.split()
                    taps.append(complex(_finite(re_part), _finite(im_part)))
            except ValueError as exc:
                raise ConfigError(f"channel fixture {path}:{lineno}: "
                                  f"cannot read {line!r}: {exc}") from None
    if meta["dft_size"] < max(len(taps), 1):
        raise ConfigError(f"channel fixture {path}: dft_size = {meta['dft_size']} "
                          f"must be >= 1 and >= its {len(taps)} taps")
    return _realization_from_taps(np.array(taps, dtype=complex), **meta)
