"""Reference forms that the tests compare the package against: the
dense 0/1 carrier-placement matrices and the generator derived through
them, the physical symbol-stream channel and its noise as a fresh draw,
the circulant channel matrix as one gather, QPSK mapping as arithmetic
and as a four-point lookup, interleaving as a scatter, the zero-tail
time symbol, an explicit inverse DFT matrix, the scattered
cyclic-prefix body and its 80-sample prefixed symbol, the flat-channel
closed form of the cyclic-prefix baseline, the closed form of uncoded
zero forcing on a fixed channel, the full 52-carrier Wiener smoother in
extended precision, the data estimator's error covariance, the
semi-analytic BER of uncoded uw-lmmse built on the smoother, the
frame-major float32 Viterbi butterfly, QPSK hard decisions and LLRs
written slice by slice, and the batch-innermost Viterbi with a full
branch table and a gather traceback.  The simulator itself never calls
them."""

import math

import numpy as np

from uwofdm import cpref
from uwofdm.channel import ChannelRealization
from uwofdm.fec import (G0_OCTAL, G1_OCTAL, NEG_INF, QPSK_SCALE, TAIL_BITS, InterleaverSpec,
                        qpsk_map)
from uwofdm.frame import OfdmSystemConfig, RedundancyGenerator, derive_generator
from uwofdm.numerics import inverse_dft, solve_linear
from uwofdm.txchain import build_unique_word


def inverse_dft_matrix(n: int) -> np.ndarray:
    """The inverse DFT matrix F^H / n, written out from its definition."""
    k = np.arange(n)
    return np.exp(2j * np.pi * np.outer(k, k) / n) / n


# ---------------------------------------------------------------------------
# Dense carrier placement

def carriers(config: OfdmSystemConfig) -> tuple:
    """The active and the data subcarrier indices, ascending, as lists."""
    active = [i for i in range(config.dft_size) if i not in config.zero_indices]
    return active, [i for i in active if i not in config.redundant_indices]


def selection(config: OfdmSystemConfig) -> np.ndarray:
    """The N x A 0/1 matrix B that puts the A active symbols, in ascending
    carrier order, at their subcarrier indices: zero rows at zero carriers."""
    active, _ = carriers(config)
    b = np.zeros((config.dft_size, len(active)))
    for column, carrier in enumerate(active):
        b[carrier, column] = 1.0
    return b


def permutation(config: OfdmSystemConfig) -> np.ndarray:
    """The A x A 0/1 matrix P that maps the stacked [data; redundant]
    vector to ascending-active-carrier order, data filling the
    non-redundant active carriers in ascending order."""
    active, data = carriers(config)
    p = np.zeros((len(active), len(active)))
    for column, carrier in enumerate(data + sorted(config.redundant_indices)):
        p[active.index(carrier), column] = 1.0
    return p


def dense_generator(config: OfdmSystemConfig) -> tuple:
    """(redundancy, code_matrix, parity_check, modulator) through the dense
    matrices: M = F^-1 B P split at the data / redundant column boundary
    on its last uw_length rows, T = -M22^-1 M21, code matrix P [I; T],
    parity check [-T, I] P^T and modulator F^-1 B P [I; T], transposed."""
    n, nd, l = config.dft_size, config.data_count, config.uw_length
    b, p = selection(config), permutation(config)
    m = inverse_dft(np.eye(n)) @ b @ p
    redundancy = -solve_linear(m[n - l:, nd:], m[n - l:, :nd])[0]
    code_matrix = p @ np.vstack([np.eye(nd, dtype=complex), redundancy])
    return (redundancy, code_matrix, np.hstack([-redundancy, np.eye(l)]) @ p.T,
            inverse_dft(code_matrix.T @ b.T))


def time_symbol(gen: RedundancyGenerator, data: np.ndarray) -> np.ndarray:
    """Zero-tail time-domain symbol(s) for data vector(s): IDFT of the
    active-carrier word scattered by the selection matrix."""
    word = np.asarray(data) @ gen.code_matrix.T
    return inverse_dft(word @ selection(gen.config).T)


# ---------------------------------------------------------------------------
# Physical stream model

def complex_noise(rng: np.random.Generator, shape, variance: float,
                  stacked: bool = False) -> np.ndarray:
    """Circular complex white Gaussian noise of the given per-sample
    variance, as a fresh array: all real parts, then all imaginary ones;
    ``stacked`` draws one such block per index of the leading (channel)
    axis, in turn.  The stream order ``apply_channel_cyclic`` keeps."""
    if variance < 0:
        raise ValueError(f"noise variance must be >= 0, got {variance}")
    if variance == 0:
        return np.zeros(shape, dtype=complex)
    if stacked:
        return np.stack([complex_noise(rng, shape[1:], variance) for _ in range(shape[0])])
    scale = np.sqrt(variance / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def gather_convolution_matrix(taps: np.ndarray, size: int) -> np.ndarray:
    """The (..., size, size) circulant M[k, n] = h[(n - k) mod size] as one
    fancy-index gather from the zero-padded taps."""
    taps = np.asarray(taps)
    padded = np.zeros(taps.shape[:-1] + (size,), dtype=complex)
    padded[..., :taps.shape[-1]] = taps
    lags = np.arange(size)
    return padded[..., (lags[None, :] - lags[:, None]) % size]


def apply_channel_stream(symbols: np.ndarray, ch: ChannelRealization,
                         noise_variance: float, rng: np.random.Generator,
                         uw_samples: np.ndarray | None = None) -> np.ndarray:
    """Linear convolution of a concatenated symbol stream plus noise.

    ``symbols`` is (count, N); all symbols must carry the same tail
    (checked against ``uw_samples`` when given).  Returns the stream of
    length count*N (the convolution tail beyond the last symbol is
    dropped).
    """
    symbols = np.atleast_2d(np.asarray(symbols, dtype=complex))
    if uw_samples is not None:
        tail = symbols[:, -len(uw_samples):]
        if not np.allclose(tail, uw_samples[None, :], atol=1e-9):
            raise ValueError("all symbols in a stream must carry the same unique word")
    stream = symbols.reshape(-1)
    out = np.convolve(stream, ch.taps)[:len(stream)]
    return out + complex_noise(rng, out.shape, noise_variance)


def stream_symbol_windows(stream: np.ndarray, dft_size: int) -> np.ndarray:
    """Per-symbol receiver windows of a stream, shape (count, dft_size)."""
    count = len(stream) // dft_size
    return np.asarray(stream[:count * dft_size]).reshape(count, dft_size)


def arithmetic_qpsk_map(bits: np.ndarray) -> np.ndarray:
    """Gray QPSK written out: each bit of a pair sets the sign of its
    component, scaled to unit energy."""
    pairs = np.asarray(bits).reshape(np.shape(bits)[:-1] + (-1, 2))
    return QPSK_SCALE * ((1.0 - 2.0 * pairs[..., 0]) + 1j * (1.0 - 2.0 * pairs[..., 1]))


def four_point_qpsk_map(bits: np.ndarray) -> np.ndarray:
    """Gray QPSK as a lookup into the four points at 2·b_I + b_Q."""
    points = QPSK_SCALE * ((1.0 - 2.0 * np.array([0, 0, 1, 1]))
                           + 1j * (1.0 - 2.0 * np.array([0, 1, 0, 1])))
    pairs = np.asarray(bits).reshape(np.shape(bits)[:-1] + (-1, 2))
    return points[2 * pairs[..., 0] + pairs[..., 1]]


def scatter_interleave(bits: np.ndarray, spec: InterleaverSpec) -> np.ndarray:
    """Block interleaving as a scatter: bit k to position ``forward[k]``."""
    bits = np.asarray(bits)
    out = np.empty_like(bits)
    out[..., spec.forward] = bits
    return out


def scatter_deinterleave(bits: np.ndarray, spec: InterleaverSpec) -> np.ndarray:
    """Block deinterleaving as a scatter: bit k to position ``backward[k]``."""
    bits = np.asarray(bits)
    out = np.empty_like(bits)
    out[..., spec.backward] = bits
    return out


def two_slice_hard_bits(symbols: np.ndarray) -> np.ndarray:
    """QPSK hard decisions written into the even (real part) and odd
    (imaginary part) slices of a fresh bit array."""
    symbols = np.asarray(symbols)
    bits = np.empty(symbols.shape[:-1] + (2 * symbols.shape[-1],), dtype=np.uint8)
    bits[..., 0::2] = symbols.real < 0
    bits[..., 1::2] = symbols.imag < 0
    return bits


def two_slice_soft_demap(symbols: np.ndarray, variances) -> np.ndarray:
    """QPSK LLRs 4·sqrt(1/2)·Re{s}/σ² (Im for the odd bit) written into
    the even and odd slices of a fresh array."""
    symbols = np.asarray(symbols)
    scale = 4.0 * QPSK_SCALE / np.asarray(variances, dtype=float)
    llrs = np.empty(symbols.shape[:-1] + (2 * symbols.shape[-1],))
    llrs[..., 0::2] = symbols.real * scale
    llrs[..., 1::2] = symbols.imag * scale
    return llrs


# ---------------------------------------------------------------------------
# Physical cyclic-prefix model

def cp_prefixed(body: np.ndarray) -> np.ndarray:
    """The 80-sample transmitted symbol(s): the last ``cp_length``
    samples of each 64-sample body prepended to it."""
    body = np.asarray(body)
    return np.concatenate([body[..., -cpref.CpConfig.cp_length:], body], axis=-1)


def cp_scatter_body(data: np.ndarray) -> np.ndarray:
    """The 64-sample body(s) in three steps: scatter the data and the
    pilots onto their bins of a zero spectrum, then inverse transform."""
    data = np.asarray(data)
    cfg = cpref.CpConfig
    spectrum = np.zeros(data.shape[:-1] + (cfg.dft_size,), dtype=complex)
    spectrum[..., cfg.data_bins] = data
    spectrum[..., list(cfg.pilot_bins)] = cfg.pilot_values
    return inverse_dft(spectrum)


def shifted_slice_convolve(symbols: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Per-symbol linear convolution, tail dropped: one shifted slice
    multiply-add per tap, channel c of stacked taps on slice c."""
    symbols, taps = np.asarray(symbols), np.asarray(taps)
    out = np.zeros_like(symbols, dtype=complex)
    for m in range(taps.shape[-1]):
        h = taps[..., m]
        h = h.reshape(h.shape + (1,) * (symbols.ndim - h.ndim))
        if m == 0:
            out += h * symbols
        else:
            out[..., m:] += h * symbols[..., :-m]
    return out


def cp_physical_window(body: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """The noiseless decoded window of the physical cp model: prepend the
    prefix, convolve each 80-sample symbol linearly with the channel
    (tail dropped) and drop the prefix.  While the channel fits the
    prefix, spill from a preceding symbol lands in the prefix only, so
    the isolated symbol is exact."""
    received = shifted_slice_convolve(cp_prefixed(body), taps)
    return received[..., cpref.CpConfig.cp_length:]


# ---------------------------------------------------------------------------
# Closed-form cyclic-prefix baseline

def qpsk_ber(ebn0_used_linear: float) -> float:
    """Uncoded Gray-QPSK bit error probability at a given per-bit SNR."""
    return 0.5 * math.erfc(math.sqrt(max(ebn0_used_linear, 0.0)))


def analytic_cp_uncoded_ber(ebn0_db: float, cfg: cpref.CpConfig) -> float:
    """Closed-form flat-channel BER of the CP system versus *total*
    Eb/N0, accounting for the energy spent on prefix and pilots (only
    the data-carrier share steers the decisions)."""
    eb_total = cpref.CpConfig.symbol_energy / (2 * cfg.data_count)
    sigma2 = eb_total / 10 ** (ebn0_db / 10.0)
    eb_used = 1.0 / (2 * cfg.dft_size)  # unit-energy data symbols
    return qpsk_ber(eb_used / sigma2)


def analytic_cp_required_ebn0_db(ber: float, cfg: cpref.CpConfig) -> float:
    """Invert ``analytic_cp_uncoded_ber``: total Eb/N0 needed for a BER."""
    lo, hi = -10.0, 60.0
    for _ in range(200):
        mid = (lo + hi) / 2
        if analytic_cp_uncoded_ber(mid, cfg) > ber:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


# ---------------------------------------------------------------------------
# Closed-form zero forcing on a fixed channel

def q_function(x: float) -> float:
    """Gaussian tail probability P(N(0, 1) > x)."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def uncoded_zf_ber(system: str, config: OfdmSystemConfig, taps: np.ndarray,
                   ebn0_db: float) -> float:
    """Uncoded BER of zero forcing without smoothing ("uw-zf" or "cp") on
    the fixed channel ``taps`` against total Eb/N0, from the definitions:

    * Es, the mean transmit energy per symbol, is trace(C_ss)/N plus the
      UW energy for UW, and the prefixed 80-sample symbol's for cp;
    * the per-sample noise variance is σ² = Es / (2·n_data) / 10^(Eb/N0 / 10);
    * zero forcing leaves complex noise of variance vᵢ = N·σ²/|Hᵢ|² on
      data carrier i, H being the N-point DFT of the taps;
    * a Gray-QPSK bit of a unit-energy symbol there errs with
      probability Q(1/√vᵢ), and the BER is the mean over the carriers.
    """
    if system == "cp":
        n, data = cpref.CpConfig.dft_size, cpref.CpConfig.data_bins
        sigma2 = _noise_variance(cpref.CpConfig.symbol_energy, len(data), ebn0_db)
    else:
        _, sigma2 = _uw_noise_variance(config, ebn0_db)
        n, data = config.dft_size, carriers(config)[1]
    v = n * sigma2 / np.abs(np.fft.fft(taps, n)[data]) ** 2
    return float(np.mean([q_function(1.0 / math.sqrt(vi)) for vi in v]))


def _noise_variance(es: float, data_carriers: int, ebn0_db: float) -> float:
    """σ² = Es / (2·n_data) / 10^(Eb/N0 / 10), uncoded."""
    return es / (2 * data_carriers) / 10 ** (ebn0_db / 10.0)


def _uw_noise_variance(config: OfdmSystemConfig, ebn0_db: float) -> tuple:
    """The UW generator and σ², Es being trace(C_ss)/N plus the UW energy,
    with C_ss = G G^H formed from the code matrix G."""
    gen = derive_generator(config)
    word = build_unique_word(gen)
    g = gen.code_matrix
    es = float(np.real(np.trace(g @ g.conj().T))) / config.dft_size \
        + float(np.sum(np.abs(word.samples) ** 2))
    return gen, _noise_variance(es, config.data_count, ebn0_db)


# ---------------------------------------------------------------------------
# The full smoother and semi-analytic uw-lmmse on a fixed channel

def gauss_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a x = b`` by Gaussian elimination with partial pivoting in
    the inputs' own precision, one elimination step per column of the
    square ``a``; leading axes stack systems."""
    shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    a = np.broadcast_to(a, shape + a.shape[-2:]).reshape((-1,) + a.shape[-2:]).copy()
    b = np.broadcast_to(b, shape + b.shape[-2:]).reshape((-1,) + b.shape[-2:]).copy()
    systems, n = np.arange(a.shape[0]), a.shape[-1]
    for k in range(n):
        pivot = k + np.argmax(np.abs(a[:, k:, k]), axis=-1)
        for m in (a, b):
            m[systems, k], m[systems, pivot] = m[systems, pivot], m[systems, k].copy()
        factor = a[:, k + 1:, k] / a[:, k, None, k]
        a[:, k + 1:] -= factor[..., None] * a[:, None, k]
        b[:, k + 1:] -= factor[..., None] * b[:, None, k]
    x = np.zeros_like(b)
    for k in reversed(range(n)):
        rest = np.sum(a[:, k, k + 1:, None] * x[:, k + 1:], axis=1)
        x[:, k] = (b[:, k] - rest) / a[:, k, k, None]
    return x.reshape(shape + b.shape[-2:])


def wiener_smoother(gen: RedundancyGenerator, noise_covariance: np.ndarray) -> tuple:
    """The full smoother W = C_ss (C_ss + C_vv)^-1 on the active carriers
    and the diagonal of its error covariance (I - W) C_ss, for the
    diagonal C_vv ``noise_covariance`` (leading axes stack channels).
    Its data rows are the LMMSE data estimator; it needs C_vv > 0.
    C_ss = G G^H and the solve are computed in ``np.clongdouble`` (``gauss_solve``),
    extended precision where the platform has it, and rounded to double."""
    g = gen.code_matrix.astype(np.clongdouble)
    css = g @ g.conj().T
    a = css + noise_covariance[..., None] * np.eye(len(css))
    # both factors are Hermitian, so W = ((C_ss + C_vv)^-1 C_ss)^H
    w = gauss_solve(a, css).conj().swapaxes(-1, -2)
    variances = np.real(np.diag(css)) - np.real(np.sum(w * css.T, axis=-1))
    return w.astype(complex), variances.astype(float)


def error_covariance(eq) -> np.ndarray:
    """C_ee = σ² A^-1 of a smoothing ``WienerEqualizer``, data x data
    (leading axes stack channels): E's data columns times their noise
    variances.  E C_vv = σ² A^-1 G^H, and G's data rows are identity rows."""
    data = eq.gen.data_positions
    return eq.estimator[..., data] * eq.noise_covariance[..., None, data]


def uncoded_lmmse_ber(config: OfdmSystemConfig, taps: np.ndarray, ebn0_db: float,
                      draws: int = 4000, seed: int = 0) -> float:
    """Semi-analytic uncoded BER of uw-lmmse on the fixed channel ``taps``
    against total Eb/N0 (the quasi-analytic method of Jeruchim, IEEE
    JSAC 1984), from the definitions:

    * Es and σ² as in ``uncoded_zf_ber``, and C_vv = diag(N·σ²/|Hᵢ|²) on
      the active carriers;
    * E is the data rows of the full smoother W (``wiener_smoother``);
    * given the data d, the error of E·z with z = G·d + v is Gaussian,
      with mean (E·G − I)·d and, in each of its real and imaginary parts,
      variance diag(E·C_vv·Eᴴ)/2;
    * a Gray-QPSK bit errs when its component of d plus that error
      changes sign, so its error probability is Q(·) of the margin over
      the standard deviation; the BER averages it over the bits of
      ``draws`` seeded data vectors.
    """
    gen, sigma2 = _uw_noise_variance(config, ebn0_db)
    n, active = config.dft_size, gen.active_carriers
    cvv = n * sigma2 / np.abs(np.fft.fft(taps, n)[active]) ** 2
    e = wiener_smoother(gen, cvv)[0][gen.data_positions]
    bias = e @ gen.code_matrix - np.eye(config.data_count)
    std = np.sqrt(np.real(np.einsum("ij,j,ij->i", e, cvv, e.conj())) / 2)
    rng = np.random.default_rng(seed)
    d = qpsk_map(rng.integers(0, 2, (draws, 2 * config.data_count)))
    mean = d + d @ bias.T
    margins = np.concatenate([np.sign(d.real) * mean.real, np.sign(d.imag) * mean.imag]) / std
    return float(np.mean(np.vectorize(q_function)(margins)))


# ---------------------------------------------------------------------------
# Frame-major Viterbi butterfly

def _butterfly_signs(generator: int) -> np.ndarray:
    """Branch signs (+1 for a 0 output bit) indexed (bit, j, k): input
    bit ``bit`` moves predecessor state 2j + k to state 32 * bit + j."""
    register = (np.arange(2)[:, None, None] << 6) | (2 * np.arange(32)[:, None] + np.arange(2))
    parity = np.vectorize(lambda x: bin(int(x)).count("1") & 1)
    return 1.0 - 2.0 * parity(register & generator)


BUTTERFLY_W0 = _butterfly_signs(G0_OCTAL)
BUTTERFLY_W1 = _butterfly_signs(G1_OCTAL)


def butterfly_viterbi(llrs: np.ndarray, n_info: int) -> np.ndarray:
    """Reference decoder with the frame axis outermost: float32 metrics
    as (batch, 32, 2), whose [j, k] is state 2j + k, a path metric
    summed as (m + l0·w0) + l1·w1, compare and select on the stride-2
    candidate pairs, and one 64-bit survivor word per step and frame
    from ``np.packbits``.  LLRs are scaled per frame by a power of two
    as in ``fec.viterbi_decode``, and an LLR column that is zero in
    every frame is skipped.  A tie keeps the even predecessor."""
    llrs = np.asarray(llrs, dtype=float)
    single = llrs.ndim == 1
    llrs = np.atleast_2d(llrs)
    steps = n_info + TAIL_BITS
    batch = llrs.shape[0]
    _, exponent = np.frexp(np.abs(llrs).max(axis=-1, keepdims=True))
    llrs = np.ldexp(llrs, -exponent).astype(np.float32)
    live = llrs.any(axis=0)

    metrics = np.full((batch, 1, 32, 2), NEG_INF, dtype=np.float32)
    metrics[:, 0, 0, 0] = 0.0
    new_metrics = metrics.reshape(batch, 2, 32)
    cand = np.empty((batch, 2, 32, 2), dtype=np.float32)
    term = np.empty_like(cand)
    w0 = np.broadcast_to(BUTTERFLY_W0, cand.shape).astype(np.float32, order="C")
    w1 = np.broadcast_to(BUTTERFLY_W1, cand.shape).astype(np.float32, order="C")
    choice = np.empty((batch, 2, 32), dtype=bool)
    # Bit s of survivors[t, b] is set when state s took predecessor 2j + 1.
    survivors = np.empty((steps, batch), dtype="<u8")
    survivor_bytes = survivors.view(np.uint8).reshape(steps, batch, 8)

    for t in range(steps):
        if live[2 * t]:
            np.copyto(cand, llrs[:, 2 * t, None, None, None])
            np.multiply(cand, w0, out=cand)
            np.add(metrics, cand, out=cand)
        else:
            np.copyto(cand, metrics)
        if live[2 * t + 1]:
            np.copyto(term, llrs[:, 2 * t + 1, None, None, None])
            np.multiply(term, w1, out=term)
            np.add(cand, term, out=cand)
        np.greater(cand[..., 1], cand[..., 0], out=choice)
        np.maximum(cand[..., 0], cand[..., 1], out=new_metrics)
        survivor_bytes[t] = np.packbits(choice.reshape(batch, 64), axis=-1,
                                        bitorder="little")

    # Terminated frames end in the zero state.
    state = np.zeros(batch, dtype=np.uint64)
    five, mask, one = np.uint64(5), np.uint64(31), np.uint64(1)
    decoded = np.empty((batch, n_info), dtype=np.uint8)
    for t in range(steps - 1, -1, -1):
        if t < n_info:
            decoded[:, t] = state >> five
        state = ((state & mask) << one) | ((survivors[t] >> state) & one)

    return decoded[0] if single else decoded


# ---------------------------------------------------------------------------
# Batch-innermost Viterbi with the full branch table and a gather traceback

# Row (bit, k, j) holds that branch's two signs: the (bit, j, k) tables
# above, transposed.
_INNERMOST_BRANCH_TABLE = np.stack([BUTTERFLY_W0.transpose(0, 2, 1).ravel(),
                                    BUTTERFLY_W1.transpose(0, 2, 1).ravel()],
                                   axis=1).astype(np.float32)
# Word w of a step's survivors holds the decisions of states 16w..16w+15.
_INNERMOST_PACK = np.kron(np.eye(4), 2.0 ** np.arange(16)).astype(np.float32)
_INNERMOST_CHUNK = 8


def batch_innermost_viterbi(llrs: np.ndarray, n_info: int) -> np.ndarray:
    """Reference decoder with the frame axis innermost, as
    ``fec.viterbi_decode`` stood before its branch metrics shrank to one
    per butterfly: metrics (2, 32, batch) with [k, j] holding state
    2j + k, all 128 branch metrics of a step from one (128, 2) sign-table
    product, one add per step, float32 0/1 decisions packed into
    (steps, 4, batch) uint16 words, and a traceback that gathers word
    ``state >> 4`` of each frame.  Same scaling, association and tie rule,
    so its output must equal the package's bit for bit."""
    llrs = np.asarray(llrs, dtype=float)
    single = llrs.ndim == 1
    llrs = np.atleast_2d(llrs)
    steps = n_info + TAIL_BITS
    if llrs.shape[-1] != 2 * steps:
        raise ValueError(
            f"expected {2 * steps} LLRs for {n_info} info bits, got {llrs.shape[-1]}")
    batch = llrs.shape[0]
    _, exponent = np.frexp(np.abs(llrs).max(axis=-1, keepdims=True))
    # pairs[t, i, b] is LLR 2t + i of frame b.
    pairs = np.empty((steps, 2, batch), dtype=np.float32)
    pairs[...] = np.ldexp(llrs, -exponent).reshape(batch, steps, 2).transpose(1, 2, 0)

    metrics = np.full((2, 32, batch), NEG_INF, dtype=np.float32)
    metrics[0, 0] = 0.0
    # new_metrics[bit, j >> 1, j & 1] is metrics[j & 1, 16 * bit + (j >> 1)],
    # the slot of state 32 * bit + j.
    new_metrics = metrics.reshape(2, 2, 16, batch).transpose(1, 2, 0, 3)
    branch = np.empty((_INNERMOST_CHUNK, 2, 2, 32, batch), dtype=np.float32)
    cand = np.empty((2, 2, 32, batch), dtype=np.float32)
    # decisions[i, bit, j] is 1 when state 32 * bit + j took predecessor 2j + 1.
    decisions = np.empty((_INNERMOST_CHUNK, 2, 32, batch), dtype=np.float32)
    packed = np.empty((_INNERMOST_CHUNK, 4, batch), dtype=np.float32)
    survivors = np.empty((steps, 4, batch), dtype=np.uint16)

    for t0 in range(0, steps, _INNERMOST_CHUNK):
        n = min(_INNERMOST_CHUNK, steps - t0)
        np.matmul(_INNERMOST_BRANCH_TABLE, pairs[t0:t0 + n],
                  out=branch[:n].reshape(n, 128, batch))
        for i in range(n):
            np.add(metrics, branch[i], out=cand)
            np.greater(cand[:, 1], cand[:, 0], out=decisions[i])
            np.maximum(cand[:, 0].reshape(2, 16, 2, batch),
                       cand[:, 1].reshape(2, 16, 2, batch), out=new_metrics)
        np.matmul(_INNERMOST_PACK, decisions[:n].reshape(n, 64, batch), out=packed[:n])
        survivors[t0:t0 + n] = packed[:n]

    # Terminated frames end in the zero state.
    state = np.zeros(batch, dtype=np.intp)
    frames = np.arange(batch)
    decoded = np.empty((batch, n_info), dtype=np.uint8)
    for t in range(steps - 1, -1, -1):
        if t < n_info:
            decoded[:, t] = state >> 5
        choice = (survivors[t, state >> 4, frames] >> (state & 15)) & 1
        state = ((state & 31) << 1) | choice

    return decoded[0] if single else decoded
