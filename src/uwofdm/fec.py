"""Bit-level chain shared by both transceivers: the industry-standard
rate-1/2 constraint-length-7 convolutional code (generators 133/171
octal), 802.11a bit-stealing puncturing to rate 3/4, the two-step block
interleaver, Gray QPSK mapping, variance-weighted soft demapping to an
array of LLRs, and a frame-terminated soft-decision Viterbi decoder that
takes that array.

All operations act on the last axis, so a leading batch axis of frames
vectorizes the whole chain.  The Viterbi recursion keeps the frame axis
innermost: the four branches of each butterfly carry one metric beta up
to sign, so at each trellis step one add and one subtract of beta form
every candidate, and the compare and select run on two contiguous
halves, since the state layout puts the two candidates of every state
there.  The betas of 8 steps come from one product of a 32-row ±1 sign
table with the LLR pairs, and the survivor decisions are packed 16
states to a uint16 word by a second product with powers of two; both
products are exact.  A step's four words read as one 64-bit word per
frame whose bit s is state s's decision, so the traceback is a few
elementwise shifts and masks per step.  Path metrics are float32, on
LLRs scaled exactly by a power of two per frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import read_only

G0_OCTAL = 0o133
G1_OCTAL = 0o171
TAIL_BITS = 6  # constraint length 7 -> 6 zero bits flush the register


def _parity(x: np.ndarray) -> np.ndarray:
    x = x.astype(np.uint32)
    x ^= x >> 16
    x ^= x >> 8
    x ^= x >> 4
    x ^= x >> 2
    x ^= x >> 1
    return (x & 1).astype(np.uint8)


# The register holds the current input bit in bit 6 and the six previous
# ones below it, newest first, so the impulse response of each output
# branch is exactly the MSB-first binary expansion of its generator.
_TAPS0 = [d for d in range(7) if (G0_OCTAL >> (6 - d)) & 1]
_TAPS1 = [d for d in range(7) if (G1_OCTAL >> (6 - d)) & 1]

# Branch signs (+1 for a 0 output bit) indexed (bit, k, j): input bit
# ``bit`` moves predecessor state 2j + k to state 32 * bit + j.
_REGISTER = read_only(
    (np.arange(2)[:, None, None] << 6) | (2 * np.arange(32) + np.arange(2)[:, None]))
BRANCH_W0 = read_only(1.0 - 2.0 * _parity(_REGISTER & G0_OCTAL))
BRANCH_W1 = read_only(1.0 - 2.0 * _parity(_REGISTER & G1_OCTAL))


def conv_encode(bits: np.ndarray) -> np.ndarray:
    """Encode info bits (last axis) at rate 1/2 with 6 appended zero tail
    bits; output interleaves the g0 and g1 streams per input bit."""
    bits = np.asarray(bits, dtype=np.uint8)
    padded = np.concatenate(
        [bits, np.zeros(bits.shape[:-1] + (TAIL_BITS,), dtype=np.uint8)], axis=-1)
    n = padded.shape[-1]
    out = np.zeros(padded.shape[:-1] + (2 * n,), dtype=np.uint8)
    stream0 = np.zeros(padded.shape, dtype=np.uint8)
    stream1 = np.zeros(padded.shape, dtype=np.uint8)
    for d in _TAPS0:
        stream0[..., d:] ^= padded[..., :n - d] if d else padded
    for d in _TAPS1:
        stream1[..., d:] ^= padded[..., :n - d] if d else padded
    out[..., 0::2] = stream0
    out[..., 1::2] = stream1
    return out


# 802.11a rate-3/4 bit stealing: of each group of six mother bits
# (A1 B1 A2 B2 A3 B3), B2 and A3 are dropped.
PUNCTURE_KEEP_3_4 = read_only(np.array([0, 1, 2, 5]))
PUNCTURE_GROUP = 6


def puncture(coded: np.ndarray, rate: str) -> np.ndarray:
    """Drop mother bits per the standard pattern; rate '1/2' is identity."""
    if rate == "1/2":
        return np.asarray(coded)
    if rate != "3/4":
        raise ValueError(f"unsupported code rate {rate!r}")
    coded = np.asarray(coded)
    n = coded.shape[-1]
    if n % PUNCTURE_GROUP:
        raise ValueError(f"length {n} is not a multiple of {PUNCTURE_GROUP}")
    groups = coded.reshape(coded.shape[:-1] + (n // PUNCTURE_GROUP, PUNCTURE_GROUP))
    return groups[..., PUNCTURE_KEEP_3_4].reshape(coded.shape[:-1] + (n // 6 * 4,))


def depuncture(llrs: np.ndarray, rate: str) -> np.ndarray:
    """Re-insert zero LLRs at punctured positions."""
    if rate == "1/2":
        return np.asarray(llrs, dtype=float)
    if rate != "3/4":
        raise ValueError(f"unsupported code rate {rate!r}")
    llrs = np.asarray(llrs, dtype=float)
    n = llrs.shape[-1]
    if n % 4:
        raise ValueError(f"punctured length {n} is not a multiple of 4")
    groups = llrs.reshape(llrs.shape[:-1] + (n // 4, 4))
    full = np.zeros(llrs.shape[:-1] + (n // 4, PUNCTURE_GROUP))
    full[..., PUNCTURE_KEEP_3_4] = groups
    return full.reshape(llrs.shape[:-1] + (n // 4 * 6,))


@dataclass(frozen=True)
class InterleaverSpec:
    """Two-step block interleaver.

    Step one spreads adjacent coded bits across columns,
    ``i = (block_bits/columns) * (k % columns) + k // columns``; step
    two rotates within modulation symbols and is the identity for QPSK,
    the only mapping here, so it is left out.  Both modems take their
    columns from one rule (``for_block``): 802.11a's 16 where they divide
    the block, else the most columns below 16 that do, so cp's 96-bit
    block has 16 and the reference UW system's 72-bit block 12.
    ``forward`` and ``backward`` are read-only: a sweep's context shares
    them with every batch.
    """

    block_bits: int
    columns: int
    forward: np.ndarray = field(init=False, repr=False)
    backward: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.block_bits % self.columns:
            raise ValueError(
                f"columns {self.columns} must divide block size {self.block_bits}")
        k = np.arange(self.block_bits)
        forward = (self.block_bits // self.columns) * (k % self.columns) + k // self.columns
        backward = np.empty(self.block_bits, dtype=np.int64)
        backward[forward] = k
        object.__setattr__(self, "forward", read_only(forward))
        object.__setattr__(self, "backward", read_only(backward))

    @classmethod
    def for_block(cls, block_bits: int) -> InterleaverSpec:
        """The interleaver of a ``block_bits`` block, columns by the rule above."""
        return cls(block_bits, max(c for c in range(1, 17) if block_bits % c == 0))


def interleave(bits: np.ndarray, spec: InterleaverSpec) -> np.ndarray:
    """Bit k of each block goes to position ``forward[k]``: one gather,
    position j reading bit ``backward[j]``."""
    bits = np.asarray(bits)
    if bits.shape[-1] != spec.block_bits:
        raise ValueError(f"expected {spec.block_bits} bits, got {bits.shape[-1]}")
    return bits[..., spec.backward]


def deinterleave(bits: np.ndarray, spec: InterleaverSpec) -> np.ndarray:
    """Inverse of ``interleave``: position k reads ``bits[forward[k]]``."""
    bits = np.asarray(bits)
    if bits.shape[-1] != spec.block_bits:
        raise ValueError(f"expected {spec.block_bits} bits, got {bits.shape[-1]}")
    return bits[..., spec.forward]


# ---------------------------------------------------------------------------
# QPSK mapping

QPSK_SCALE = np.sqrt(0.5)


def qpsk_map(bits: np.ndarray) -> np.ndarray:
    """Gray QPSK, unit average energy: bit pair (b_I, b_Q) = 00 maps to
    (+1+1j)/sqrt(2), a set bit flips the sign of its component.  Each bit
    becomes its component, sqrt(1/2) − 2·sqrt(1/2)·b (exactly ±sqrt(1/2)
    for a 0/1 bit), written into one float array that is viewed as
    complex, so no index array or other temporary is made."""
    bits = np.asarray(bits)
    if bits.shape[-1] % 2:
        raise ValueError("QPSK needs an even number of bits")
    components = np.multiply(bits, -2.0 * QPSK_SCALE, out=np.empty(bits.shape))
    components += QPSK_SCALE
    return components.view(complex)


def qpsk_hard_bits(symbols: np.ndarray) -> np.ndarray:
    """Minimum-distance bit decisions, inverse of ``qpsk_map``: one sign
    test on the symbols' interleaved real and imaginary parts."""
    symbols = np.ascontiguousarray(symbols, dtype=complex)
    return (symbols.view(float) < 0).view(np.uint8)


def qpsk_soft_demap(symbols: np.ndarray, variances: np.ndarray | float) -> np.ndarray:
    """Per-component LLRs 4*sqrt(1/2)*Re{s}/sigma_i^2 (Im for the
    quadrature bit), with per-symbol noise variances broadcast over the
    last axis.  An LLR's sign > 0 means bit 0; its magnitude is the
    reliability the Viterbi path metric weighs.  One product of the
    interleaved real and imaginary parts with each scale written twice."""
    symbols = np.ascontiguousarray(symbols, dtype=complex)
    variances = np.asarray(variances, dtype=float)
    if np.any(variances <= 0):
        raise ValueError("noise variances must be positive")
    scale = 4.0 * QPSK_SCALE / variances
    if scale.ndim and scale.shape[-1] > 1:
        scale = np.repeat(scale, 2, axis=-1)
    return symbols.view(float) * scale


# ---------------------------------------------------------------------------
# Viterbi decoding

NEG_INF = -1e30

#: Trellis steps whose branch metrics come from one product.
VITERBI_CHUNK = 8

# Both generators tap the newest and the oldest register bit, so the
# four branches of butterfly j differ only in sign: BRANCH_W*[bit, k, j]
# is BRANCH_W*[0, 0, j] when bit == k and its negative otherwise.  Row j
# of the table holds the two signs of branch (0, 0, j), so one product
# with a step's (l0, l1) rows gives the butterfly's metric beta[j].
_BRANCH_TABLE = read_only(
    np.stack([BRANCH_W0[0, 0], BRANCH_W1[0, 0]], axis=1).astype(np.float32))
# Column w packs the decisions of states 16w..16w+15 into word w.
_PACK = read_only(np.kron(np.eye(4), 2.0 ** np.arange(16)[:, None]).astype(np.float32))


def viterbi_decode(llrs: np.ndarray, n_info: int) -> np.ndarray:
    """Maximum-likelihood decode of a zero-state-terminated frame.

    Input is the depunctured LLR stream, 2*(n_info + 6) values on the
    last axis (a leading batch axis decodes frames in parallel); output
    drops the tail bits.  The path metric is the LLR correlation in
    float32.  Each frame is first scaled exactly by 2**-e, e from
    ``np.frexp`` of its peak |LLR| (a zero frame keeps factor 1), so
    |LLR| < 1 and |metric| <= 2 * (n_info + 6): the ~1e300 LLRs of a
    noiseless point cannot overflow and no renormalization is needed.
    Decisions are invariant under power-of-two LLR scaling (integer LLRs
    below 2**24 decode as in float64), and under any other positive scale
    up to float32 rounding.  A tie keeps the even predecessor.  A NaN or
    infinite LLR, or ``n_info`` below 1, raises ``ValueError``.

    The frame axis is innermost.  The metrics are a (2, 32, batch)
    array whose [k, j] holds state 2j + k, so the candidates of state
    32 * bit + j, from predecessors 2j and 2j + 1, sit in two contiguous
    halves, and the maximum writes each new state back into that layout
    through one fixed view.  Butterfly j's four branch metrics are
    ±beta[j], beta = l0·w0 + l1·w1 with the signs of branch (0, 0, j):
    +beta when bit == k, -beta otherwise.  The betas of
    ``VITERBI_CHUNK`` steps are one float32 product of the (32, 2) sign
    table with the scaled (l0, l1) pairs, so each is one correctly
    rounded sum, and a step forms its candidates in two calls,
    metrics + beta and metrics[::-1] - beta; negation is exact, so a
    path metric is m + (l0·w0 + l1·w1) on every branch, and a zero LLR
    adds an exact 0.  Each step's 0/1 decisions are packed 16 states to
    a uint16 word by a second product, of distinct powers of two below
    2**16, and stored (step, frame, word), so the four little-endian
    words of a step and frame read as one 64-bit word whose bit s is
    state s's decision.  Both products are exact, so no BLAS kernel or
    thread count can move a decision.  The traceback is elementwise on
    the frames: state = ((state & 31) << 1) | ((word >> state) & 1).
    """
    llrs = np.asarray(llrs, dtype=float)
    single = llrs.ndim == 1
    llrs = np.atleast_2d(llrs)
    if n_info < 1:
        raise ValueError(f"n_info must be >= 1, got {n_info}")
    steps = n_info + TAIL_BITS
    if llrs.shape[-1] != 2 * steps:
        raise ValueError(
            f"expected {2 * steps} LLRs for {n_info} info bits, got {llrs.shape[-1]}")
    batch = llrs.shape[0]
    peak = np.abs(llrs).max(axis=-1, keepdims=True)
    # NaN and inf propagate through the maximum, so the peak shows them.
    bad = np.flatnonzero(~np.isfinite(peak))
    if bad.size:
        raise ValueError(f"frame {bad[0]} has a non-finite LLR")
    _, exponent = np.frexp(peak)
    # pairs[t, i, b] is LLR 2t + i of frame b.
    pairs = np.empty((steps, 2, batch), dtype=np.float32)
    pairs[...] = np.ldexp(llrs, -exponent).reshape(batch, steps, 2).transpose(1, 2, 0)

    metrics = np.full((2, 32, batch), NEG_INF, dtype=np.float32)
    metrics[0, 0] = 0.0
    # new_metrics[bit, j >> 1, j & 1] is metrics[j & 1, 16 * bit + (j >> 1)],
    # the slot of state 32 * bit + j.
    new_metrics = metrics.reshape(2, 2, 16, batch).transpose(1, 2, 0, 3)
    swapped = metrics[::-1]
    beta = np.empty((VITERBI_CHUNK, 32, batch), dtype=np.float32)
    # cand[2 * bit + k, j] is state 32 * bit + j's candidate from 2j + k.
    cand = np.empty((4, 32, batch), dtype=np.float32)
    plus, minus = cand[0::3], cand[1:3]
    even, odd = cand.reshape(2, 2, 32, batch).transpose(1, 0, 2, 3)
    even_pairs, odd_pairs = even.reshape(2, 16, 2, batch), odd.reshape(2, 16, 2, batch)
    # decisions[i, bit, j] is 1 when state 32 * bit + j took predecessor 2j + 1.
    decisions = np.empty((VITERBI_CHUNK, 2, 32, batch), dtype=np.float32)
    packed = np.empty((VITERBI_CHUNK, batch, 4), dtype=np.float32)
    survivors = np.empty((steps, batch, 4), dtype="<u2")

    for t0 in range(0, steps, VITERBI_CHUNK):
        n = min(VITERBI_CHUNK, steps - t0)
        np.matmul(_BRANCH_TABLE, pairs[t0:t0 + n], out=beta[:n])
        for i in range(n):
            np.add(metrics, beta[i], out=plus)
            np.subtract(swapped, beta[i], out=minus)
            np.greater(odd, even, out=decisions[i])
            np.maximum(even_pairs, odd_pairs, out=new_metrics)
        np.matmul(decisions[:n].reshape(n, 64, batch).transpose(0, 2, 1), _PACK,
                  out=packed[:n])
        survivors[t0:t0 + n] = packed[:n]

    # words[t, b]: bit s is the decision of state s at step t of frame b.
    words = survivors.view("<u8").reshape(steps, batch)
    # Terminated frames end in the zero state.
    state = np.zeros(batch, dtype=np.uint64)
    five, mask, one = np.uint64(5), np.uint64(31), np.uint64(1)
    decoded = np.empty((n_info, batch), dtype=np.uint8)
    for t in range(steps - 1, -1, -1):
        if t < n_info:
            decoded[t] = state >> five
        state = ((state & mask) << one) | ((words[t] >> state) & one)

    decoded = np.ascontiguousarray(decoded.T)
    return decoded[0] if single else decoded
