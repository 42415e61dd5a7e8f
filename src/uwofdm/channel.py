"""Multipath channel model: tapped delay line with exponentially decaying
power profile, Rayleigh tap magnitudes and uniform phases.

``apply_channel_cyclic`` is the per-symbol receive model (cyclic
convolution plus white noise) that the receiver algebra of both modems
assumes; the tests hold UW's link to it, and no sweep or probe calls it.
``cyclic_convolve`` (cp's channel) applies one channel as one product
with its circulant matrix (``convolution_matrix``), ``y = x @ M`` over
the last axis; a *stacked* realization, taps (channels, taps), applies
channel c to slice c of a (channels, ..., N) signal by the package's DFT
(``numpy.fft``), as that channel's response times the slice's spectrum.
The cyclic model stands for the physical symbol stream because the guard
absorbs the channel: every UW symbol ends in the same unique word, and a
cyclic prefix repeats the symbol's tail.  The tests check it against a
linear convolution of the whole stream (UW) and of each prefixed symbol
(cp).  A noise variance is a float per complex sample.

A sweep and the MSE probe draw their noise in the frequency domain
instead (``bin_noise``): the DFT of white time-domain noise is white, of
variance N·σ² per bin, so it is drawn on the used bins alone, and both
modems add it there.  Each bin is one Box–Muller pair (a float64 radius
from one uniform, a float32 angle from the next), which costs a fraction
of two ziggurat normals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .frame import MAX_DFT_SIZE, OfdmSystemConfig, as_int, check_positive
from .numerics import forward_dft, read_only

DEFAULT_RMS_DELAY_SPREAD_S = 100e-9
DEFAULT_TAP_COUNT = 16

_TWO_PI = np.float32(2.0 * math.pi)


@dataclass(frozen=True)
class ChannelRealization:
    """One draw of the tapped-delay-line channel.

    ``freq_response`` is the unnormalized DFT of the zero-padded taps;
    tap spacing is one sample at ``sample_rate_hz``.  Whether the taps
    fit a modem's guard is checked where a sweep is specified or a
    snapshot searched (``check_tap_count``), not here.
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


def check_tap_count(name: str, taps: int, guard: int) -> None:
    """Refuse (ConfigError) a channel the guard cannot absorb: the cyclic
    receive model needs 1 <= taps <= guard + 1."""
    if not 1 <= taps <= guard + 1:
        raise ConfigError(f"{name} = {taps} does not fit the {guard}-sample guard: "
                          f"need 1 <= taps <= {guard + 1}")


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
    per channel of stacked taps: M[k, n] = h[(n - k) mod size].  Row k
    is the window starting at size - k of the zero-padded taps written
    twice, so the matrix is one copy of a strided view whose rows step
    back one sample."""
    taps = np.asarray(taps)
    if not 1 <= taps.shape[-1] <= size:
        raise ValueError(f"{taps.shape[-1]} taps do not fit a {size}-sample convolution")
    twice = np.zeros(taps.shape[:-1] + (2 * size,), dtype=complex)
    twice[..., :taps.shape[-1]] = taps
    twice[..., size:size + taps.shape[-1]] = taps
    step = twice.strides[-1]
    windows = np.lib.stride_tricks.as_strided(
        twice[..., size:], twice.shape[:-1] + (size, size), twice.strides[:-1] + (-step, step))
    return np.ascontiguousarray(windows)


def per_symbol(values: np.ndarray) -> np.ndarray:
    """Per-carrier values, (carriers,) or stacked (channels, carriers),
    shaped to broadcast against (channels, symbols, carriers) arrays."""
    return values if values.ndim == 1 else values[:, None, :]


def cyclic_convolve(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Cyclic convolution of the rows of ``x`` (over the last axis) with
    one channel, or with channel c for slice c of a (channels, ..., N)
    ``x`` when ``taps`` is stacked (channels, taps).  One channel is one
    product with its circulant matrix, which serves a whole fixed-channel
    batch; a stack multiplies each channel's rows' DFT (``numpy.fft``) by
    that channel's response and transforms back, so no (channels, N, N)
    matrices are built (the per-tap form is left to the tests)."""
    x = np.asarray(x)
    taps = np.asarray(taps)
    size = x.shape[-1]
    if taps.ndim == 1:
        return x @ convolution_matrix(taps, size)
    if not 1 <= taps.shape[-1] <= size:
        raise ValueError(f"{taps.shape[-1]} taps do not fit a {size}-sample convolution")
    spectra = np.fft.fft(x.reshape(taps.shape[0], -1, size))
    spectra *= np.fft.fft(taps, size)[:, None, :]
    return np.fft.ifft(spectra, out=spectra).reshape(x.shape)


def apply_channel_cyclic(x: np.ndarray, ch: ChannelRealization,
                         noise_variance: float, rng: np.random.Generator) -> np.ndarray:
    """Per-symbol receive model, a symbol (N) or a batch (..., N): cyclic
    convolution plus complex white noise of variance ``noise_variance``,
    added in place: all real parts, then all imaginary ones, per channel,
    drawn in one call."""
    if noise_variance < 0:
        raise ValueError(f"noise variance must be >= 0, got {noise_variance}")
    y = cyclic_convolve(x, ch.taps)
    if noise_variance > 0:
        blocks = y if ch.taps.ndim > 1 else y[None]
        draw = rng.standard_normal(blocks.shape[:1] + (2,) + blocks.shape[1:])
        np.multiply(draw, np.sqrt(noise_variance / 2.0), out=draw)
        blocks.real += draw[:, 0]
        blocks.imag += draw[:, 1]
    return y


def bin_noise(rng: np.random.Generator, shape: tuple, noise_variance: float,
              dft_size: int) -> np.ndarray:
    """Noise of ``noise_variance`` per time sample as the sweep's receivers
    see it, on ``shape[-1]`` bins of a ``dft_size``-point DFT: complex white
    noise of variance dft_size·σ² per bin, by the Box–Muller transform.
    One ``rng.random`` call draws a (radius, angle) pair of uniforms per
    bin, bin by bin, symbol by symbol, so a stack of frames draws what the
    same frames draw one by one.  The bin is
    sqrt(−dft_size·σ²·log1p(−u_r))·(cos θ + i sin θ), θ = 2π·u_θ: the
    radius is float64, so each component is exact out to about 8.6
    standard deviations (u_r is at most 1 − 2⁻⁵³), and the angle's cos
    and sin run in float32, a relative change of about 1e-7 per sample."""
    if noise_variance < 0:
        raise ValueError(f"noise variance must be >= 0, got {noise_variance}")
    shape = tuple(shape)
    u = rng.random(shape + (2,))
    radius = np.negative(u[..., 0])
    np.log1p(radius, out=radius)
    radius *= -dft_size * noise_variance
    np.sqrt(radius, out=radius)
    angle = np.multiply(u[..., 1], _TWO_PI, dtype=np.float32)
    # Each pair's uniforms are spent, so the pair becomes its bin's noise.
    np.multiply(radius, np.cos(angle), out=u[..., 0])
    np.multiply(radius, np.sin(angle, out=angle), out=u[..., 1])
    return u.view(complex).reshape(shape)


# ---------------------------------------------------------------------------
# Pinned snapshot fixtures

#: The fixture's notch rule: ``snapshot --seed 396`` rebuilds the fixture from it.
NOTCH_DEPTH_DB, NOTCH_MIN_COUNT = -15.0, 2
NOTCH_RULE = (f"the notch rule (at least {NOTCH_MIN_COUNT} active carriers "
              f"{-NOTCH_DEPTH_DB:g} dB or more below the active-carrier mean)")


def is_notched(ch: ChannelRealization, active_indices: np.ndarray) -> bool:
    """Whether ``ch`` meets ``NOTCH_RULE`` on the given active carriers."""
    power = np.abs(ch.active_response(active_indices)) ** 2
    notches = power <= power.mean() * 10 ** (NOTCH_DEPTH_DB / 10.0)
    return int(np.sum(notches)) >= NOTCH_MIN_COUNT


def pinned_snapshot(config: OfdmSystemConfig, seed: int,
                    tap_count: int = DEFAULT_TAP_COUNT,
                    rms_delay_spread_s: float = DEFAULT_RMS_DELAY_SPREAD_S,
                    max_draws: int = 100_000) -> tuple[ChannelRealization, int]:
    """Search seeded draws at the config's sample rate and DFT size until
    one meets ``NOTCH_RULE`` on its active carriers; return (realization,
    draw index).  Draw d uses ``default_rng([seed, d])``, so (seed, d) pins
    it bit for bit.  Before any draw, ConfigError naming the input by its
    config key refuses a seed below 0, a tap count that is not an integer,
    is one (a flat channel) or overruns the UW guard, and a bad delay
    spread; after ``max_draws`` draws it refuses the search, naming the rule."""
    seed, taps = as_int("seed", seed), as_int("channel_taps", tap_count)
    if seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")
    check_tap_count("channel_taps", taps, config.uw_length)
    if taps < 2:
        raise ConfigError(f"channel_taps = {taps}: a channel of tap_count = 1 is flat and "
                          f"never satisfies {NOTCH_RULE}; need channel_taps >= 2")
    check_delay_spread(rms_delay_spread_s, config.sample_rate_hz, taps)
    for draw in range(max_draws):
        rng = np.random.default_rng([seed, draw])
        ch = sample_channel(rng, rms_delay_spread_s, config.sample_rate_hz, taps, config.dft_size)
        if is_notched(ch, config.active_indices):
            return ch, draw
    raise ConfigError(f"none of {max_draws} channel draws (seed {seed}, tap_count = {taps}) "
                      f"satisfied {NOTCH_RULE}")


def save_snapshot(path, ch: ChannelRealization, seed: int, draw: int) -> None:
    """Write a snapshot fixture: metadata comments plus one tap per line
    as full-precision real/imag pairs.  A fixture holds one channel, so a
    stacked realization is refused (ValueError) before anything is written."""
    if ch.taps.ndim != 1:
        raise ValueError(f"a snapshot holds one channel; this realization stacks "
                         f"{ch.taps.shape[0]} channels")
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
                    "rms_delay_spread_s": lambda v: _finite(v, True), "dft_size": int,
                    "tap_count": int}


def load_snapshot(path) -> ChannelRealization:
    """Load a snapshot fixture written by ``save_snapshot``, its arrays
    read-only (one fixture serves every batch of a sweep); a tap line
    that is not two finite numbers, or a metadata value of the wrong type
    (or a rate or delay spread that is not finite and positive), raises
    ``ConfigError`` naming its line, and a file that is not UTF-8, a
    ``dft_size`` below one or the tap count or above ``frame.MAX_DFT_SIZE``,
    or a ``tap_count`` line that differs from the number of tap lines
    raises it naming the file, before any array of that size is made."""
    meta = {"sample_rate_hz": 20e6, "rms_delay_spread_s": DEFAULT_RMS_DELAY_SPREAD_S,
            "dft_size": 64}
    taps = []
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"channel fixture {path} is not UTF-8 text: {exc}") from None
    for lineno, line in enumerate(lines, 1):
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
    recorded = meta.pop("tap_count", len(taps))
    if recorded != len(taps):
        raise ConfigError(f"channel fixture {path}: tap_count = {recorded} but it holds "
                          f"{len(taps)} tap lines")
    if not max(len(taps), 1) <= meta["dft_size"] <= MAX_DFT_SIZE:
        raise ConfigError(f"channel fixture {path}: dft_size = {meta['dft_size']} "
                          f"must be >= 1 and >= its {len(taps)} taps, and at most {MAX_DFT_SIZE}")
    ch = _realization_from_taps(np.array(taps, dtype=complex), **meta)
    for shared in (ch.taps, ch.freq_response):
        read_only(shared)
    return ch
