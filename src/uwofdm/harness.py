"""Monte-Carlo engine for BER sweeps and per-carrier MSE probes.

Reproducibility model: every random quantity is drawn from a stream
derived as ``default_rng([master_seed, point_index, batch_index,
stream_id])``, with a fixed number of frames per batch and stopping
decided on the ordered batch sequence.  Results are therefore byte
identical for any worker count.  A batch runs in groups of
``GROUP_FRAMES`` frames in either channel mode: an ensemble group makes
one stacked channel draw and equalizer build, and a fixed channel hands
its one realization and the point's equalizer to every group.  Channels
and noise are drawn frame by frame in each stream, so the group size
never shows, and a coded batch decodes in one Viterbi call.
A batch's information bits are unpacked, most significant bit first,
from raw bytes of its bit stream (``_info_bits``).  The noise is drawn
once per group in the frequency domain, on the used bins
(``channel.bin_noise``, one Box–Muller pair of uniforms per bin): for
UW its active carriers, for cp its 52 pilot and data bins, which are
UW's active carriers on the reference layout.  So two systems swept
with the same seed and grid consume the same bits, channels and noise
draws at each point (paired comparison), each scaled to its own noise
variance.  UW forms its zero-forced words from the data and that noise
(``rxchain.received_words``), with no time-domain symbol; cp sends its
symbols through the circulant channel noiseless and adds the noise on
its data bins in ``cp_decode_symbol``.
The one cache, ``_context``, holds per spec each Eb/N0 point's noise
variance and, for UW on a fixed channel, its equalizer; a sweep whose
fixture file has been rewritten since rebuilds it.  The MSE probe reads
the same cache, through the spec of the uncoded uw-lmmse sweep at its
Eb/N0, and makes its own input checks, so the CLI only parses and writes.
It forms its words on the sweep's link with the sweep's bin noise
(``rxchain.measure_subcarrier_mse``).

Memory: a group's arrays are (64, frame_symbols, N) at most, 0.5 MB at
the reference size, since neither cp's convolution (FFT) nor a UW
equalizer (a 36 x 16 gain per frame) builds a matrix per frame, and UW
holds only words on its active carriers.  Beside them a batch holds its
bits, its decisions or soft bits and, coded, the Viterbi call's arrays:
a warm fixed-channel batch peaks at 2-2.6 MiB uncoded and 3.7-6.5 MiB
coded (``tracemalloc``, reference size).  Under glibc,
``run_ber_sweep``, ``run_mse_probe`` and each worker process set the
allocator's mmap threshold to 32 MiB and its trim threshold to 64 MiB
(``mallopt``, once per process), so freed arrays stay in the heap and
the next batch reuses their pages instead of faulting in fresh ones.
The settings hold until the process exits; under another C library
nothing is changed.
"""

from __future__ import annotations

import ctypes
import dataclasses
import hashlib
import math
import os
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np

from . import __version__, cpref, fec, frame, rxchain, txchain
from . import channel as chan
from .errors import ConfigError

SYSTEMS = ("uw-lmmse", "uw-zf", "cp")
CODE_RATES = ("none", "1/2", "3/4")
RATE_VALUE = {"none": 1.0, "1/2": 0.5, "3/4": 0.75}

#: Frames simulated per batch; fixed so that stopping decisions (and
#: therefore output bytes) never depend on the worker count.
BATCH_FRAMES = 256

#: Largest accepted ``frame_symbols``, and times 64 the largest frame_symbols x
#: dft_size: one complex (BATCH_FRAMES, frame_symbols, dft_size) array is then <= 256 MiB.
MAX_FRAME_SYMBOLS = 1024

#: Largest accepted worker count: a pool starts all its processes at
#: the first batch, so a mistyped count must not reach it.
MAX_WORKERS = 64

#: Frames per group of a batch, in either channel mode (an ensemble group
#: makes one stacked channel draw and equalizer build); bounds a batch's
#: memory and never changes the output.  64 frames amortize the group's
#: calls, while its largest arrays stay (64, frame_symbols, N).
GROUP_FRAMES = 64

#: Largest accepted |Eb/N0| in dB.
EBN0_LIMIT_DB = 1000.0

#: ``run_mse_probe``'s defaults, also those of the ``mse-probe`` command.
MSE_EBN0_DB = 15.0
MSE_SYMBOLS = 100_000

#: glibc ``mallopt`` parameters (M_MMAP_THRESHOLD, M_TRIM_THRESHOLD) and the
#: values its own dynamic rule reaches after freeing one 32 MiB block.
_MALLOPT_SETTINGS = ((-3, 32 << 20), (-1, 64 << 20))


@cache
def _keep_freed_memory() -> bool:
    """Keep freed arrays in the heap for the life of the process: glibc
    only, once per process.  Returns whether both settings took."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc"):
            return False
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):
        return False
    return all([mallopt(param, value) == 1 for param, value in _MALLOPT_SETTINGS])


@dataclass(frozen=True)
class SweepSpec:
    """Complete description of one BER sweep (everything that affects the
    output bytes).  Its numbers are stored as Python ints and floats, and
    ``ebn0_db`` as a tuple, as the spec keys a cache and its metadata; a
    bool, or a value of another type, is a ConfigError naming the field."""

    config: frame.OfdmSystemConfig
    system: str
    ebn0_db: tuple
    seed: int
    code_rate: str = "none"
    channel: str = "ensemble"  # "ensemble" or "fixed:<fixture path>"
    min_error_events: int = 200
    max_bits_per_point: int = 10_000_000
    frame_symbols: int = 8
    channel_taps: int = chan.DEFAULT_TAP_COUNT
    rms_delay_spread_s: float = chan.DEFAULT_RMS_DELAY_SPREAD_S

    def __post_init__(self):
        if not isinstance(self.config, frame.OfdmSystemConfig):
            raise ConfigError(f"config must be an OfdmSystemConfig, got {self.config!r}")
        for name in ("seed", "min_error_events", "max_bits_per_point", "frame_symbols",
                     "channel_taps"):
            object.__setattr__(self, name, frame.as_int(name, getattr(self, name)))
        object.__setattr__(self, "rms_delay_spread_s",
                           frame.as_float("rms_delay_spread_s", self.rms_delay_spread_s))
        try:
            grid = tuple(frame.as_float("ebn0_db", value) for value in self.ebn0_db)
        except TypeError:
            raise ConfigError(f"ebn0_db must be a sequence of real numbers, "
                              f"got {self.ebn0_db!r}") from None
        object.__setattr__(self, "ebn0_db", grid)
        if self.system not in SYSTEMS:
            raise ConfigError(f"unknown system {self.system!r}, expected one of {SYSTEMS}")
        if self.code_rate not in CODE_RATES:
            raise ConfigError(f"unknown code rate {self.code_rate!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed}")
        if not self.ebn0_db:
            raise ConfigError("Eb/N0 grid must not be empty")
        for value in self.ebn0_db:
            check_ebn0("ebn0_db", value)
        if not (self.channel == "ensemble"
                or isinstance(self.channel, str) and self.channel.startswith("fixed:")):
            raise ConfigError(
                f"channel must be 'ensemble' or 'fixed:<path>', got {self.channel!r}")
        if self.min_error_events < 1 or self.max_bits_per_point < 1:
            raise ConfigError("stopping thresholds must be positive")
        if not 1 <= self.frame_symbols <= MAX_FRAME_SYMBOLS:
            raise ConfigError(f"frame_symbols must lie between 1 and "
                              f"{MAX_FRAME_SYMBOLS}, got {self.frame_symbols}")
        if self.frame_symbols * self.dft_size > MAX_FRAME_SYMBOLS * 64:
            raise ConfigError(f"frame_symbols = {self.frame_symbols} x dft_size = {self.dft_size}"
                              f" exceeds {MAX_FRAME_SYMBOLS * 64} samples per frame")
        if self.channel == "ensemble":
            chan.check_tap_count("channel_taps", self.channel_taps, self.guard_length)
            chan.check_delay_spread(self.rms_delay_spread_s, self.config.sample_rate_hz,
                                    self.channel_taps)

    @property
    def guard_length(self) -> int:
        """Guard samples of the swept modem: the UW or the cyclic prefix."""
        return cpref.CpConfig.cp_length if self.system == "cp" else self.config.uw_length

    @property
    def dft_size(self) -> int:
        """DFT size of the swept modem, at which its channel responses are
        drawn and its fixture is checked: cp's fixed 64 points or the
        config's."""
        return cpref.CpConfig.dft_size if self.system == "cp" else self.config.dft_size


def check_ebn0(name: str, value: float) -> None:
    """Refuse (ConfigError) an Eb/N0 that is not finite or lies beyond
    EBN0_LIMIT_DB, where the noise variance would over- or underflow."""
    if not abs(value) <= EBN0_LIMIT_DB:
        raise ConfigError(f"{name} must lie between -{EBN0_LIMIT_DB:g} and "
                          f"{EBN0_LIMIT_DB:g} dB and be finite, got {value}")


@dataclass(frozen=True)
class BerPoint:
    ebn0_db: float
    bits: int
    bit_errors: int
    ber: float
    ci_low: float
    ci_high: float
    frames: int
    frame_errors: int
    converged: bool


@dataclass(frozen=True)
class BerReport:
    points: tuple
    metadata: tuple  # ((key, value), ...) in emission order


def _fixture_id(channel: str) -> str:
    """Content hash of a channel fixture file ('-' for ensemble mode); a
    file that cannot be read, deleted since its sweep say, is a ConfigError."""
    if not channel.startswith("fixed:"):
        return "-"
    path = channel[len("fixed:"):]
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()[:12]
    except OSError as exc:
        raise ConfigError(f"cannot read channel fixture {path}: {exc}") from exc


def config_hash(config: frame.OfdmSystemConfig) -> str:
    """Hash of the config's fields and its two derived counts."""
    canon = ";".join(f"{k}={getattr(config, k)!r}" for k in sorted(
        [f.name for f in dataclasses.fields(config)] + ["data_count", "uw_length"]))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# Per-system context (derived matrices, energies, frame layout)

@dataclass(frozen=True)
class _SystemContext:
    spec: SweepSpec
    smoothing: bool
    gen: frame.RedundancyGenerator | None
    uw: txchain.UniqueWord | None
    interleaver: fec.InterleaverSpec
    bits_per_symbol: int
    noise_bins: int                 # bins the noise is drawn on: UW's active, cp's used
    n_info: int                     # info bits per frame
    fixed_channel: chan.ChannelRealization | None
    fixture_id: str                 # content hash of the fixture read ('-' for ensemble)
    sigma2: tuple                   # noise variance per Eb/N0 point
    equalizers: tuple               # UW equalizer per point on a fixed channel, else ()


def noise_variance(symbol_energy: float, info_bits_per_symbol: float,
                   ebn0_db: float) -> float:
    """Per-sample complex noise variance N0 at ``ebn0_db``, Eb being the
    total mean transmit energy per symbol over the info bits it carries.
    It is never clamped: the receivers hold at every σ² >= 0, and
    |Eb/N0| <= EBN0_LIMIT_DB keeps it a positive, finite float."""
    return symbol_energy / info_bits_per_symbol / 10 ** (ebn0_db / 10.0)


def load_fixed_channel(spec: SweepSpec) -> chan.ChannelRealization:
    """Load the spec's channel fixture, refusing (ConfigError) a missing or
    unreadable file, one made for another DFT size than the modem's or
    another sample rate than the config's, and one with more taps than
    the modem's guard absorbs."""
    path = spec.channel[len("fixed:"):]
    if not os.path.exists(path):
        raise ConfigError(f"channel fixture not found: {path}")
    try:
        ch = chan.load_snapshot(path)
    except OSError as exc:
        raise ConfigError(f"cannot read channel fixture {path}: {exc}") from exc
    if ch.freq_response.shape[-1] != spec.dft_size:
        raise ConfigError(f"channel fixture {path} has dft_size = "
                          f"{ch.freq_response.shape[-1]}, the modem has dft_size = "
                          f"{spec.dft_size}")
    if ch.sample_rate_hz != spec.config.sample_rate_hz:
        raise ConfigError(f"channel fixture {path} has sample_rate_hz = "
                          f"{ch.sample_rate_hz!r}, the config has sample_rate_hz = "
                          f"{spec.config.sample_rate_hz!r}")
    chan.check_tap_count(f"channel fixture {path}: tap_count", ch.tap_count, spec.guard_length)
    return ch


def _current_context(spec: SweepSpec) -> _SystemContext:
    """``_context(spec)``, rebuilt if its fixture was rewritten since."""
    ctx = _context(spec)
    if ctx.fixture_id != _fixture_id(spec.channel):
        _context.cache_clear()
        ctx = _context(spec)
    return ctx


@lru_cache(maxsize=8)
def _context(spec: SweepSpec) -> _SystemContext:
    fixed = load_fixed_channel(spec) if spec.channel.startswith("fixed:") else None
    gen = uw = None
    if spec.system == "cp":
        data_count, noise_bins = cpref.CpConfig.data_count, len(cpref.CpConfig.used_bins)
        symbol_energy = cpref.CpConfig.symbol_energy
    else:
        gen = frame.derive_generator(spec.config)
        uw = txchain.build_unique_word(gen)
        data_count, noise_bins = spec.config.data_count, len(gen.active_carriers)
        symbol_energy = txchain.mean_data_symbol_energy(gen) + uw.energy
    bits_per_symbol = 2 * data_count
    n_info = _frame_info_bits(spec, bits_per_symbol)
    smoothing = spec.system == "uw-lmmse"
    sigma2 = tuple(noise_variance(symbol_energy, bits_per_symbol * RATE_VALUE[spec.code_rate],
                                  ebn0) for ebn0 in spec.ebn0_db)
    equalizers = () if fixed is None or gen is None else tuple(
        rxchain.build_equalizer(fixed, gen, s2, smoothing=smoothing) for s2 in sigma2)
    return _SystemContext(
        spec=spec, smoothing=smoothing, gen=gen, uw=uw,
        interleaver=fec.InterleaverSpec.for_block(bits_per_symbol),
        bits_per_symbol=bits_per_symbol, noise_bins=noise_bins, n_info=n_info,
        fixed_channel=fixed, fixture_id=_fixture_id(spec.channel), sigma2=sigma2,
        equalizers=equalizers)


def _frame_info_bits(spec: SweepSpec, bits_per_symbol: int) -> int:
    slots = spec.frame_symbols * bits_per_symbol
    if spec.code_rate == "none":
        return slots
    if slots * RATE_VALUE[spec.code_rate] % 1:  # no info-bit count fills the frame
        raise ConfigError(f"code_rate = {spec.code_rate} needs data_count x frame_symbols "
                          f"to be even, got {bits_per_symbol // 2} x {spec.frame_symbols}")
    n_info = int(slots * RATE_VALUE[spec.code_rate]) - fec.TAIL_BITS
    if n_info < 1:
        raise ConfigError("frame too short for the chosen code rate")
    return n_info


# ---------------------------------------------------------------------------
# Frame pipeline

def _frames(ctx: _SystemContext, point_idx: int, bits: np.ndarray,
            ch: chan.ChannelRealization, rng_noise: np.random.Generator) -> np.ndarray:
    """Receive (frames, n_info) info bits sent at point ``point_idx`` through
    FEC, QPSK and the modem over one channel per frame (stacked ``ch``) or
    the fixed one for all.  Returns the decided bits when uncoded, else
    the depunctured LLR stream for the Viterbi call."""
    spec = ctx.spec
    sigma2 = ctx.sigma2[point_idx]
    n_frames, f_sym, width = bits.shape[0], spec.frame_symbols, ctx.bits_per_symbol
    coded = spec.code_rate != "none"
    if coded:
        blocks = fec.puncture(fec.conv_encode(bits), spec.code_rate) \
            .reshape(n_frames, f_sym, width)
        bits = fec.interleave(blocks, ctx.interleaver)
    channels = ch.taps.shape[0] if ch.taps.ndim > 1 else 1
    data = fec.qpsk_map(bits.reshape(channels, -1, width))
    # The noise on the used bins, frame by frame: the same draws for every system.
    noise = chan.bin_noise(rng_noise, data.shape[:-1] + (ctx.noise_bins,), sigma2, spec.dft_size)

    if spec.system == "cp":
        y = cpref.cp_apply_channel(cpref.cp_encode_symbol(data), ch)
        estimates, variances = cpref.cp_decode_symbol(y, ch, sigma2, noise)
    else:
        eq = ctx.equalizers[point_idx] if ctx.equalizers else \
            rxchain.build_equalizer(ch, ctx.gen, sigma2, smoothing=ctx.smoothing)
        words = rxchain.received_words(data, eq, ctx.uw, noise)
        estimates, variances = rxchain.equalize_batch(words, eq), eq.error_variances

    if not coded:
        return fec.qpsk_hard_bits(estimates).reshape(n_frames, -1)
    blocks = fec.qpsk_soft_demap(estimates, chan.per_symbol(variances)) \
        .reshape(n_frames, f_sym, width)
    stream = fec.deinterleave(blocks, ctx.interleaver).reshape(n_frames, -1)
    return fec.depuncture(stream, spec.code_rate)


def _info_bits(rng: np.random.Generator, n_frames: int, n_info: int) -> np.ndarray:
    """(n_frames, n_info) uniform uint8 bits: the first n_frames·n_info
    bits of ⌈n_frames·n_info / 8⌉ raw bytes of ``rng``, most significant
    bit first, so each random byte gives eight bits."""
    count = n_frames * n_info
    raw = np.frombuffer(rng.bytes(-(-count // 8)), dtype=np.uint8)
    return np.unpackbits(raw, count=count).reshape(n_frames, n_info)


def _run_batch(spec: SweepSpec, point_idx: int, batch_idx: int,
               n_frames: int = BATCH_FRAMES) -> tuple:
    """Simulate one batch of frames; returns (bits, errors, frames,
    frame_errors).  Top-level and argument-pure so worker processes can
    execute it independently."""
    ctx = _context(spec)
    rng_bits, rng_ch, rng_noise = (
        np.random.default_rng([spec.seed, point_idx, batch_idx, role]) for role in range(3))

    bits = _info_bits(rng_bits, n_frames, ctx.n_info)

    # The batch runs group by group on the fixed channel or on one
    # channel per frame.  The groups fill one batch array (a joined list
    # of parts would hold the batch twice).
    received = None
    for start in range(0, n_frames, GROUP_FRAMES):
        group = bits[start:start + GROUP_FRAMES]
        ch = ctx.fixed_channel if ctx.fixed_channel is not None else chan.sample_channel(
            rng_ch, spec.rms_delay_spread_s, spec.config.sample_rate_hz, spec.channel_taps,
            spec.dft_size, channels=len(group))
        part = _frames(ctx, point_idx, group, ch, rng_noise)
        if received is None:
            received = part if len(part) == n_frames else \
                np.empty((n_frames,) + part.shape[1:], dtype=part.dtype)
        received[start:start + len(group)] = part

    decided = received if spec.code_rate == "none" \
        else fec.viterbi_decode(received, ctx.n_info)
    wrong = decided != bits
    return (bits.size, int(wrong.sum()), n_frames, int(wrong.any(axis=1).sum()))


# ---------------------------------------------------------------------------
# Sweep driver

def _make_point(ebn0_db, bits, errors, frames, frame_errors, min_errors) -> BerPoint:
    ber = errors / bits
    half = 1.96 * math.sqrt(ber * (1.0 - ber) / bits)
    return BerPoint(
        ebn0_db=float(ebn0_db), bits=bits, bit_errors=errors, ber=ber,
        ci_low=max(0.0, ber - half), ci_high=min(1.0, ber + half),
        frames=frames, frame_errors=frame_errors,
        converged=errors >= min_errors)


def run_ber_sweep(spec: SweepSpec, workers: int = 1) -> BerReport:
    """Run the sweep; results depend only on (spec, seed), never on the
    worker count, an integer between 1 and ``MAX_WORKERS``."""
    workers = frame.as_int("workers", workers)
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    if workers > MAX_WORKERS:
        raise ConfigError(f"workers must be <= {MAX_WORKERS}, got {workers}")
    _keep_freed_memory()
    ctx = _current_context(spec)  # fail fast on config/fixture problems
    points = []
    executor = ProcessPoolExecutor(
        max_workers=workers, initializer=_keep_freed_memory) if workers > 1 else None
    try:
        for p_idx, ebn0 in enumerate(spec.ebn0_db):
            bits = errors = frames = frame_errors = 0
            next_batch = 0
            pending: deque = deque()
            while True:
                if executor is not None:
                    while len(pending) < workers:
                        pending.append(executor.submit(
                            _run_batch, spec, p_idx, next_batch))
                        next_batch += 1
                    b, e, f, fe = pending.popleft().result()
                else:
                    b, e, f, fe = _run_batch(spec, p_idx, next_batch)
                    next_batch += 1
                bits += b
                errors += e
                frames += f
                frame_errors += fe
                if errors >= spec.min_error_events or bits >= spec.max_bits_per_point:
                    break
            for fut in pending:
                fut.cancel()
            points.append(_make_point(ebn0, bits, errors, frames, frame_errors,
                                      spec.min_error_events))
    finally:
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)

    fixed = spec.channel.startswith("fixed:")
    metadata = (
        ("system", spec.system),
        ("code_rate", spec.code_rate),
        ("channel", spec.channel),
        ("channel_fixture_id", ctx.fixture_id),
        ("seed", str(spec.seed)),
        ("config_hash", config_hash(spec.config)),
        ("min_error_events", str(spec.min_error_events)),
        ("max_bits_per_point", str(spec.max_bits_per_point)),
        ("frame_symbols", str(spec.frame_symbols)),
        ("batch_frames", str(BATCH_FRAMES)),
        ("channel_taps", "-" if fixed else str(spec.channel_taps)),
        ("rms_delay_spread_s", "-" if fixed else _fmt(float(spec.rms_delay_spread_s))),
        ("uwofdm_version", __version__),
    )
    return BerReport(points=tuple(points), metadata=metadata)


# ---------------------------------------------------------------------------
# MSE probe

def run_mse_probe(config: frame.OfdmSystemConfig, channel: str,
                  ebn0_db: float = MSE_EBN0_DB, n_symbols: int = MSE_SYMBOLS,
                  seed: int = 1) -> tuple:
    """Empirical and analytic per-carrier error statistics before and
    after smoothing on ``channel`` ("fixed:<fixture path>"), read from the
    ``_context`` of the uncoded uw-lmmse sweep at ``ebn0_db``.

    Returns (rows, metadata): one row per active carrier,
    (carrier_position, mse_pre, mse_post, analytic_pre, analytic_post),
    both empirical columns measured on the same symbols, and the
    ``write_mse_csv`` header.  The analytic columns are diag(C_vv) and the
    smoother's error Re(diag(G E))·diag(C_vv) = diag(G C_ee G^H).
    """
    if not (isinstance(channel, str) and channel.startswith("fixed:")):
        raise ConfigError("mse-probe needs --channel fixed:<fixture path>")
    n_symbols = frame.as_int("mse_symbols", n_symbols)
    ebn0_db = frame.as_float("mse_ebn0_db", ebn0_db)
    if n_symbols < 1:
        raise ConfigError(f"mse_symbols must be >= 1, got {n_symbols}")
    check_ebn0("mse_ebn0_db", ebn0_db)
    _keep_freed_memory()
    ctx = _current_context(SweepSpec(config, "uw-lmmse", (ebn0_db,), seed, channel=channel))
    eq = ctx.equalizers[0]
    mse_pre, mse_post = rxchain.measure_subcarrier_mse(
        eq, ctx.uw, np.random.default_rng([seed, 0]), n_symbols)
    post_var = np.real(np.einsum("ij,ji->i", ctx.gen.code_matrix, eq.estimator)) \
        * eq.noise_covariance
    rows = [(i, float(mse_pre[i]), float(mse_post[i]), float(eq.noise_covariance[i]),
             float(post_var[i])) for i in range(len(mse_pre))]
    return rows, (
        ("channel", channel),
        ("channel_fixture_id", ctx.fixture_id),
        ("ebn0_db", _fmt(float(ebn0_db))),
        ("symbols", str(n_symbols)),
        ("seed", str(seed)),
        ("config_hash", config_hash(config)),
        ("uwofdm_version", __version__),
    )


# ---------------------------------------------------------------------------
# CSV emission

def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


BER_FIELDS = ("ebn0_db", "bits", "bit_errors", "ber", "ci_low", "ci_high",
              "frames", "frame_errors", "converged")
MSE_FIELDS = ("carrier_index", "mse_pre", "mse_post", "analytic_pre", "analytic_post")


def _write_csv(path, metadata, fields, rows) -> None:
    lines = [f"# {k} = {v}" for k, v in metadata]
    lines.append(",".join(fields))
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_ber_csv(path, report: BerReport) -> None:
    _write_csv(path, report.metadata, BER_FIELDS,
               ([getattr(p, f) for f in BER_FIELDS] for p in report.points))


def write_mse_csv(path, rows, metadata) -> None:
    _write_csv(path, metadata, MSE_FIELDS, rows)


# ---------------------------------------------------------------------------
# Config file ingestion

_INT_KEYS = {"dft_size", "min_error_events", "max_bits_per_point", "frame_symbols",
             "mse_symbols", "channel_taps"}
_FLOAT_KEYS = {"sample_rate_hz", "uw_energy_ratio", "mse_ebn0_db",
               "rms_delay_spread_s"}
_STR_KEYS = {"system", "code_rate"}
_INT_LIST_KEYS = {"zero_indices", "redundant_indices"}
_FLOAT_LIST_KEYS = {"ebn0_db"}
KNOWN_KEYS = _INT_KEYS | _FLOAT_KEYS | _STR_KEYS | _INT_LIST_KEYS | _FLOAT_LIST_KEYS


def parse_config_file(path) -> dict:
    """Parse the flat key/value (+ bracketed array) config format.

    Unknown keys are rejected so typos cannot silently fall back to
    defaults.  A file that cannot be read, or is not UTF-8, is refused.
    """
    values: dict = {}
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in KNOWN_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            if key in _INT_KEYS:
                values[key] = int(value)
            elif key in _FLOAT_KEYS:
                values[key] = float(value)
            elif key in _STR_KEYS:
                values[key] = value
            else:
                if not (value.startswith("[") and value.endswith("]")):
                    raise ValueError("expected a bracketed array")
                inner = value[1:-1].strip()
                items = [v.strip() for v in inner.split(",")] if inner else []
                if "" in items:
                    raise ValueError("empty array item")
                cast = int if key in _INT_LIST_KEYS else float
                values[key] = tuple(cast(v) for v in items)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    return values


def _present(values: dict, cls) -> dict:
    """The entries of ``values`` that name a field of dataclass ``cls``."""
    return {f.name: values[f.name] for f in dataclasses.fields(cls) if f.name in values}


def system_config_from(values: dict) -> frame.OfdmSystemConfig:
    """Build the OFDM system config from parsed values, the reference
    system supplying anything unspecified."""
    return dataclasses.replace(frame.reference_config(),
                               **_present(values, frame.OfdmSystemConfig))


def sweep_spec_from(values: dict, seed: int, channel: str) -> SweepSpec:
    """Build the sweep from parsed values; ``SweepSpec`` supplies the
    defaults it has, and an unspecified system or grid is uw-lmmse at
    10, 14 and 18 dB."""
    present = {"system": "uw-lmmse", "ebn0_db": (10.0, 14.0, 18.0),
               **_present(values, SweepSpec)}
    return SweepSpec(**present, config=system_config_from(values), seed=seed,
                     channel=channel)
