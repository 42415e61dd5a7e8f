"""Convolutional code, puncturing, interleaving, QPSK mapping and the
soft Viterbi decoder."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uwofdm import fec

from oracles import (BUTTERFLY_W0, BUTTERFLY_W1, arithmetic_qpsk_map, batch_innermost_viterbi,
                     butterfly_viterbi, four_point_qpsk_map, scatter_deinterleave,
                     scatter_interleave, two_slice_hard_bits, two_slice_soft_demap)

#: Components that the sign tests and scales must pass through unchanged.
SPECIAL_FLOATS = st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324])


def awgn_llrs(bits, sigma2, rng):
    """BPSK-per-component transmission of coded bits over AWGN, demapped
    to LLRs with the matched variance."""
    symbols = fec.qpsk_map(bits)
    noise = np.sqrt(sigma2 / 2) * (rng.standard_normal(symbols.shape)
                                   + 1j * rng.standard_normal(symbols.shape))
    return fec.qpsk_soft_demap(symbols + noise, sigma2)


class TestConvEncode:
    def test_all_zero(self):
        out = fec.conv_encode(np.zeros(32, dtype=np.uint8))
        assert out.shape == (76,)
        assert not out.any()

    def test_impulse_response_matches_octal_taps(self):
        out = fec.conv_encode(np.array([1, 0, 0, 0, 0, 0, 0], dtype=np.uint8))
        assert out[0:14:2].tolist() == [1, 0, 1, 1, 0, 1, 1]  # 133 octal
        assert out[1:14:2].tolist() == [1, 1, 1, 1, 0, 0, 1]  # 171 octal

    def test_linear_over_gf2(self):
        rng = np.random.default_rng(50)
        a = rng.integers(0, 2, 40).astype(np.uint8)
        b = rng.integers(0, 2, 40).astype(np.uint8)
        np.testing.assert_array_equal(
            fec.conv_encode(a ^ b), fec.conv_encode(a) ^ fec.conv_encode(b))


class TestPuncture:
    def test_rate_half_identity(self):
        rng = np.random.default_rng(51)
        coded = rng.integers(0, 2, 36).astype(np.uint8)
        np.testing.assert_array_equal(fec.puncture(coded, "1/2"), coded)

    def test_standard_survivors(self):
        group = np.array([1, 2, 3, 4, 5, 6], dtype=np.uint8)
        np.testing.assert_array_equal(fec.puncture(group, "3/4"), [1, 2, 3, 6])

    def test_depuncture_zero_fill_positions(self):
        rng = np.random.default_rng(52)
        coded = rng.integers(0, 2, 24).astype(np.uint8)
        punctured = fec.puncture(coded, "3/4").astype(float)
        full = fec.depuncture(punctured, "3/4")
        assert full.shape == (24,)
        dropped = [i for i in range(24) if i % 6 in (3, 4)]
        assert (full[dropped] == 0).all()
        kept = [i for i in range(24) if i % 6 not in (3, 4)]
        np.testing.assert_array_equal(full[kept], coded[kept])

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            fec.puncture(np.zeros(8, dtype=np.uint8), "3/4")
        with pytest.raises(ValueError):
            fec.depuncture(np.zeros(7), "3/4")


class TestInterleaver:
    def test_single_column_is_identity(self):
        spec = fec.InterleaverSpec(block_bits=48, columns=1)
        x = np.arange(48)
        np.testing.assert_array_equal(fec.interleave(x, spec), x)

    def test_cp_spec_matches_standard_formula(self):
        """Oracle: the 802.11a two-step permutation written out
        longhand for QPSK (96 bits, 16 columns, s = 1)."""
        spec = fec.InterleaverSpec(block_bits=96, columns=16)
        bits = np.arange(96)
        out = fec.interleave(bits, spec)
        expect = np.empty(96, dtype=int)
        for k in range(96):
            i = (96 // 16) * (k % 16) + k // 16
            expect[i] = bits[k]  # s=1 makes the second step a no-op
        np.testing.assert_array_equal(out, expect)

    def test_uw_spec_round_trip_and_spacing(self):
        spec = fec.InterleaverSpec(block_bits=72, columns=12)
        rng = np.random.default_rng(53)
        bits = rng.integers(0, 2, 72)
        np.testing.assert_array_equal(
            fec.deinterleave(fec.interleave(bits, spec), spec), bits)
        carriers = spec.forward // 2
        assert np.abs(np.diff(carriers)).min() >= 3

    def test_one_rule_gives_both_modems_columns(self):
        """802.11a's 16 columns at cp's 96-bit block, 12 at the reference
        UW system's 72-bit block."""
        assert fec.InterleaverSpec.for_block(96).columns == 16
        assert fec.InterleaverSpec.for_block(72).columns == 12

    def test_rule_takes_the_most_columns_up_to_16(self):
        for block in range(2, 401):
            columns = fec.InterleaverSpec.for_block(block).columns
            assert block % columns == 0 and columns <= 16
            assert not [c for c in range(columns + 1, 17) if block % c == 0]

    def test_permutations_are_read_only(self):
        """A sweep's context shares its interleaver with every batch."""
        spec = fec.InterleaverSpec.for_block(72)
        for table in (spec.forward, spec.backward):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 1

    def test_length_mismatch_rejected(self):
        spec = fec.InterleaverSpec(block_bits=72, columns=12)
        with pytest.raises(ValueError):
            fec.interleave(np.zeros(96), spec)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([(96, 16), (72, 12), (48, 8)]), st.integers(0, 2 ** 31))
    def test_bijection_property(self, shape, seed):
        block, cols = shape
        spec = fec.InterleaverSpec(block_bits=block, columns=cols)
        assert sorted(spec.forward.tolist()) == list(range(block))
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, block)
        np.testing.assert_array_equal(
            fec.interleave(fec.deinterleave(bits, spec), spec), bits)


class TestQpskMapping:
    def test_mapping_table(self):
        s = np.sqrt(0.5)
        symbols = fec.qpsk_map(np.array([0, 0, 0, 1, 1, 0, 1, 1]))
        np.testing.assert_allclose(
            symbols, [s + 1j * s, s - 1j * s, -s + 1j * s, -s - 1j * s])

    def test_lookup_matches_arithmetic_oracle(self):
        """The table lookup is the arithmetic map bit for bit, on each bit
        pair and on a batch shaped like the sweep's uint8 bits."""
        pairs = np.array([0, 0, 0, 1, 1, 0, 1, 1])
        assert np.array_equal(fec.qpsk_map(pairs), arithmetic_qpsk_map(pairs))
        bits = np.random.default_rng(56).integers(0, 2, (2048, 72)).astype(np.uint8)
        assert np.array_equal(fec.qpsk_map(bits), arithmetic_qpsk_map(bits))

    def test_unit_average_energy(self):
        rng = np.random.default_rng(54)
        symbols = fec.qpsk_map(rng.integers(0, 2, 2 ** 14))
        np.testing.assert_allclose(np.abs(symbols) ** 2, 1.0, rtol=1e-12)

    def test_noiseless_signs_recover_bits(self):
        rng = np.random.default_rng(55)
        bits = rng.integers(0, 2, 64).astype(np.uint8)
        soft = fec.qpsk_soft_demap(fec.qpsk_map(bits), 0.37)
        np.testing.assert_array_equal((soft < 0).astype(np.uint8), bits)
        np.testing.assert_array_equal(fec.qpsk_hard_bits(fec.qpsk_map(bits)), bits)

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(ValueError):
            fec.qpsk_soft_demap(np.array([1.0 + 0j]), 0.0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 31), st.sampled_from([(5,), (3, 4), (2, 3, 6)]),
           st.sampled_from(["scalar", "carrier", "column", "per_symbol"]),
           st.lists(SPECIAL_FLOATS, max_size=6), st.booleans())
    def test_demap_and_decisions_match_two_slice_forms(self, seed, shape, layout, special,
                                                       strided):
        """The float-view forms give the slice-by-slice oracles' bytes,
        on −0.0, NaN, ±inf and subnormal components too, for variances
        that are scalar, per carrier, per symbol (a last axis of one) and
        per channel and carrier, and on a strided view."""
        rng = np.random.default_rng(seed)
        symbols = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        flat = symbols.reshape(-1).view(float)
        flat[rng.choice(flat.size, len(special), replace=False)] = special
        if strided:
            symbols = np.repeat(symbols, 2, axis=-1)[..., ::2]
        variances = 0.3 if layout == "scalar" else rng.uniform(0.1, 2.0, {
            "carrier": shape[-1:], "column": shape[:-1] + (1,),
            "per_symbol": shape[:-2] + (1,) * (len(shape) > 1) + shape[-1:]}[layout])
        for got, expect in ((fec.qpsk_hard_bits(symbols), two_slice_hard_bits(symbols)),
                            (fec.qpsk_soft_demap(symbols, variances),
                             two_slice_soft_demap(symbols, variances))):
            assert got.shape == expect.shape and got.dtype == expect.dtype
            assert got.tobytes() == expect.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 31), st.sampled_from([(2,), (3, 8), (2, 3, 72), (4, 96)]),
           st.sampled_from([np.uint8, np.int8, np.int64, np.uint16, np.int32, bool]),
           st.sampled_from(["contiguous", "strided", "transposed", "fortran"]))
    def test_gathers_match_today_forms(self, seed, shape, dtype, layout):
        """The float-view QPSK map and the gather (de)interleavers give the
        four-point lookup's and the scatters' arrays, for 0/1 bits of any
        integer dtype, contiguous or not."""
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, shape).astype(dtype)
        if layout == "strided":
            bits = np.repeat(bits, 2, axis=-1)[..., ::2]
        elif layout == "transposed":
            bits = np.ascontiguousarray(np.swapaxes(bits, 0, -1)).swapaxes(0, -1)
        elif layout == "fortran":
            bits = np.asfortranarray(bits)
        symbols = fec.qpsk_map(bits)
        assert symbols.dtype == complex
        assert np.array_equal(symbols, four_point_qpsk_map(bits))
        block = shape[-1]
        if block > 2:
            spec = fec.InterleaverSpec(block_bits=block, columns=block // 6 if block > 8 else 4)
            llrs = rng.standard_normal(shape)[..., ::-1]
            for values in (bits, llrs):
                for got, expect in ((fec.interleave(values, spec),
                                     scatter_interleave(values, spec)),
                                    (fec.deinterleave(values, spec),
                                     scatter_deinterleave(values, spec))):
                    assert got.dtype == expect.dtype
                    assert np.array_equal(got, expect)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=1e-3, max_value=1e3), st.integers(0, 2 ** 31))
    def test_llr_positive_scale_invariance(self, scale, seed):
        """Equal variances: scaling all LLRs by any positive constant
        cannot change the decoded path."""
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, 48).astype(np.uint8)
        llrs = awgn_llrs(fec.conv_encode(bits).astype(np.uint8), 0.6,
                         np.random.default_rng(seed + 1))
        a = fec.viterbi_decode(llrs, 48)
        b = fec.viterbi_decode(scale * llrs, 48)
        np.testing.assert_array_equal(a, b)


def gather_viterbi(llrs, n_info, g0=fec.G0_OCTAL, g1=fec.G1_OCTAL):
    """Reference decoder: add-compare-select as a gather over an explicit
    predecessor table, with one survivor byte per state and a traceback
    through the same table."""
    llrs = np.asarray(llrs, dtype=float)
    single = llrs.ndim == 1
    llrs = np.atleast_2d(llrs)
    steps = n_info + fec.TAIL_BITS
    batch = llrs.shape[0]
    dst = np.arange(64)
    preds = ((dst & 31) << 1)[:, None] + np.arange(2)
    reg = ((dst >> 5) << 6)[:, None] | preds
    parity = np.vectorize(lambda x: bin(int(x)).count("1") & 1)
    bw0 = 1.0 - 2.0 * parity(reg & g0)
    bw1 = 1.0 - 2.0 * parity(reg & g1)

    metrics = np.full((batch, 64), fec.NEG_INF)
    metrics[:, 0] = 0.0
    choices = np.empty((steps, batch, 64), dtype=np.uint8)
    for t in range(steps):
        l0 = llrs[:, 2 * t, None, None]
        l1 = llrs[:, 2 * t + 1, None, None]
        cand = metrics[:, preds] + bw0 * l0 + bw1 * l1
        choice = cand[..., 1] > cand[..., 0]
        choices[t] = choice
        metrics = np.where(choice, cand[..., 1], cand[..., 0])

    state = np.zeros(batch, dtype=np.int64)
    rows = np.arange(batch)
    decoded = np.empty((batch, steps), dtype=np.uint8)
    for t in range(steps - 1, -1, -1):
        decoded[:, t] = (state >> 5).astype(np.uint8)
        state = preds[state, choices[t][rows, state]]
    out = decoded[:, :n_info]
    return out[0] if single else out


def float64_viterbi(llrs, n_info):
    """Reference decoder: the radix-2 butterfly and bit-packed survivors
    of ``oracles.butterfly_viterbi``, on unscaled float64 metrics with
    every LLR column added."""
    llrs = np.atleast_2d(np.asarray(llrs, dtype=float))
    steps = n_info + fec.TAIL_BITS
    batch = llrs.shape[0]
    metrics = np.full((batch, 1, 32, 2), fec.NEG_INF)
    metrics[:, 0, 0, 0] = 0.0
    new_metrics = metrics.reshape(batch, 2, 32)
    cand = np.empty((batch, 2, 32, 2))
    term = np.empty_like(cand)
    w0 = np.broadcast_to(BUTTERFLY_W0, cand.shape).copy()
    w1 = np.broadcast_to(BUTTERFLY_W1, cand.shape).copy()
    choice = np.empty((batch, 2, 32), dtype=bool)
    survivors = np.empty((steps, batch), dtype="<u8")
    survivor_bytes = survivors.view(np.uint8).reshape(steps, batch, 8)
    for t in range(steps):
        np.copyto(cand, llrs[:, 2 * t, None, None, None])
        np.multiply(cand, w0, out=cand)
        np.add(metrics, cand, out=cand)
        np.copyto(term, llrs[:, 2 * t + 1, None, None, None])
        np.multiply(term, w1, out=term)
        np.add(cand, term, out=cand)
        np.greater(cand[..., 1], cand[..., 0], out=choice)
        np.maximum(cand[..., 0], cand[..., 1], out=new_metrics)
        survivor_bytes[t] = np.packbits(choice.reshape(batch, 64), axis=-1,
                                        bitorder="little")
    state = np.zeros(batch, dtype=np.uint64)
    five, mask, one = np.uint64(5), np.uint64(31), np.uint64(1)
    decoded = np.empty((batch, n_info), dtype=np.uint8)
    for t in range(steps - 1, -1, -1):
        if t < n_info:
            decoded[:, t] = state >> five
        state = ((state & mask) << one) | ((survivors[t] >> state) & one)
    return decoded


def noisy_stream(rng, shape, rate, sigma2):
    """Depunctured LLRs of random info bits of the given (..., n_info)
    shape sent at ``rate`` over AWGN."""
    bits = rng.integers(0, 2, shape).astype(np.uint8)
    tx = fec.puncture(fec.conv_encode(bits), rate)
    return fec.depuncture(awgn_llrs(tx, sigma2, rng), rate)


class TestViterbiOracle:
    """The butterfly decoder against ``gather_viterbi``: every decision,
    ties included, must agree bit for bit."""

    @pytest.mark.parametrize("rate", ["1/2", "3/4"])
    @pytest.mark.parametrize("shape", [(30,), (16, 66), (256, 282)])
    def test_noisy_frames(self, shape, rate):
        rng = np.random.default_rng(62)
        llrs = noisy_stream(rng, shape, rate, 1.5)
        decoded = fec.viterbi_decode(llrs, shape[-1])
        assert decoded.shape == shape
        np.testing.assert_array_equal(decoded, gather_viterbi(llrs, shape[-1]))

    @pytest.mark.parametrize("shape", [(30,), (16, 48)])
    def test_integer_llrs_tie(self, shape):
        """Small integers tie path metrics exactly and often."""
        rng = np.random.default_rng(63)
        llrs = rng.integers(-2, 3, shape[:-1] + (2 * (shape[-1] + 6),)).astype(float)
        np.testing.assert_array_equal(fec.viterbi_decode(llrs, shape[-1]),
                                      gather_viterbi(llrs, shape[-1]))

    def test_all_zero_llrs(self):
        llrs = np.zeros((4, 2 * (40 + 6)))
        decoded = fec.viterbi_decode(llrs, 40)
        np.testing.assert_array_equal(decoded, gather_viterbi(llrs, 40))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 9), st.sampled_from([0.3, 1.0, 4.0]),
           st.booleans(), st.integers(0, 2 ** 31))
    def test_property(self, n_info, batch, sigma2, integer, seed):
        rng = np.random.default_rng(seed)
        llrs = noisy_stream(rng, (batch, n_info), "1/2", sigma2)
        if integer:
            llrs = np.round(llrs)
        np.testing.assert_array_equal(fec.viterbi_decode(llrs, n_info),
                                      gather_viterbi(llrs, n_info))


class TestFloat32Metrics:
    """float32 path metrics on LLRs scaled per frame by a power of two."""

    @pytest.mark.parametrize("rate", ["1/2", "3/4"])
    def test_agrees_with_float64_oracle(self, rate):
        rng = np.random.default_rng(64)
        llrs = noisy_stream(rng, (256, 282), rate, 1.5)
        differ = fec.viterbi_decode(llrs, 282) != float64_viterbi(llrs, 282)
        assert differ.mean() <= 1e-3

    @pytest.mark.parametrize("scale", [1e300, 1e-300, 2.0 ** 1000, 2.0 ** -1000])
    def test_extreme_scales_decode_as_unscaled(self, scale):
        """LLRs far outside float32's range, as a noiseless point gives."""
        llrs = noisy_stream(np.random.default_rng(65), (8, 66), "3/4", 1.0)
        np.testing.assert_array_equal(fec.viterbi_decode(scale * llrs, 66),
                                      fec.viterbi_decode(llrs, 66))

    def test_scaling_is_per_frame(self):
        """One frame at three scales 1e300 apart and a zero frame share a
        batch; each decodes as it does alone."""
        frame = noisy_stream(np.random.default_rng(66), (48,), "1/2", 1.0)
        llrs = np.vstack([frame, 1e300 * frame, 1e-300 * frame, np.zeros_like(frame)])
        decoded = fec.viterbi_decode(llrs, 48)
        for row, bits in zip(llrs, decoded):
            np.testing.assert_array_equal(bits, fec.viterbi_decode(row, 48))
        np.testing.assert_array_equal(decoded[1:3], decoded[[0, 0]])
        np.testing.assert_array_equal(decoded[3], gather_viterbi(llrs[3], 48))


class TestBatchInnermostDecoder:
    """The seams of the batch-innermost forward loop: the sweep's
    rate-3/4 frame, chunk edges, the two products and the frame-major
    decoder it replaced."""

    def test_sweep_rate_three_quarters_frame(self):
        rng = np.random.default_rng(67)
        llrs = noisy_stream(rng, (256, 426), "3/4", 0.6)
        np.testing.assert_array_equal(fec.viterbi_decode(llrs, 426), gather_viterbi(llrs, 426))

    @pytest.mark.parametrize("batch,n_info", [(1, 1), (3, 1), (5, 13), (1, 51), (257, 29)])
    @pytest.mark.parametrize("integer", [False, True])
    def test_chunk_edges(self, batch, n_info, integer):
        """Fewer steps than one chunk (7 at n_info = 1), step counts that
        are not a multiple of ``VITERBI_CHUNK``, one frame and 257."""
        assert (n_info + fec.TAIL_BITS) % fec.VITERBI_CHUNK
        rng = np.random.default_rng(68)
        llrs = noisy_stream(rng, (batch, n_info), "1/2", 1.0)
        if integer:
            llrs = np.round(2 * llrs)
        np.testing.assert_array_equal(fec.viterbi_decode(llrs, n_info),
                                      gather_viterbi(llrs, n_info))

    def test_butterfly_sign_identity(self):
        """Both generators tap the newest and the oldest register bit, so
        the four branches of butterfly j carry one metric up to sign:
        + when bit == k, - otherwise."""
        for generator, signs in ((fec.G0_OCTAL, fec.BRANCH_W0), (fec.G1_OCTAL, fec.BRANCH_W1)):
            assert generator & 0b1000001 == 0b1000001
            for bit in range(2):
                for k in range(2):
                    np.testing.assert_array_equal(
                        signs[bit, k], (1 if bit == k else -1) * signs[0, 0])

    @pytest.mark.parametrize("batch", [1, 256, 257])
    def test_branch_product_is_elementwise(self, batch):
        """One product with the 32-row table gives beta = l0*w0 + l1*w1
        per butterfly, bit for bit, and +-beta is every (bit, k, j)
        branch metric of the full sign tables, punctured zero columns
        included."""
        rng = np.random.default_rng(69)
        pairs = rng.uniform(-1, 1, (fec.VITERBI_CHUNK, 2, batch)).astype(np.float32)
        pairs[::3, 1] = 0.0
        beta = np.matmul(fec._BRANCH_TABLE, pairs)
        assert beta.shape == (fec.VITERBI_CHUNK, 32, batch)
        w0 = fec.BRANCH_W0.astype(np.float32)[..., None]
        w1 = fec.BRANCH_W1.astype(np.float32)[..., None]
        l0 = pairs[:, 0, None, None, None]
        l1 = pairs[:, 1, None, None, None]
        full = l0 * w0 + l1 * w1
        np.testing.assert_array_equal(beta, full[:, 0, 0])
        same = np.array([[1, -1], [-1, 1]], dtype=np.float32)[:, :, None, None]
        np.testing.assert_array_equal(same * beta[:, None, None], full)

    @pytest.mark.parametrize("batch", [1, 256])
    def test_packing_product_matches_packbits(self, batch):
        rng = np.random.default_rng(70)
        decisions = rng.integers(0, 2, (fec.VITERBI_CHUNK, 64, batch)).astype(np.float32)
        decisions[0] = 1.0
        decisions[1] = 0.0
        words = np.matmul(decisions.transpose(0, 2, 1), fec._PACK).astype(np.uint16)
        expected = np.packbits(decisions.astype(bool).transpose(0, 2, 1), axis=-1,
                               bitorder="little").view("<u2")
        np.testing.assert_array_equal(words, expected)

    @pytest.mark.parametrize("batch", [1, 256])
    def test_survivor_word_bit_is_state_decision(self, batch):
        """Stored as (step, frame, word) '<u2', the four words of a step
        and frame read as one '<u8' word whose bit s is state s's
        decision, as the traceback assumes."""
        rng = np.random.default_rng(72)
        decisions = rng.integers(0, 2, (fec.VITERBI_CHUNK, 64, batch)).astype(np.float32)
        decisions[0, 63] = 1.0
        survivors = np.empty((fec.VITERBI_CHUNK, batch, 4), dtype="<u2")
        survivors[...] = np.matmul(decisions.transpose(0, 2, 1), fec._PACK)
        words = survivors.view("<u8").reshape(fec.VITERBI_CHUNK, batch)
        for s in range(64):
            np.testing.assert_array_equal((words >> np.uint64(s)) & np.uint64(1),
                                          decisions[:, s])

    @pytest.mark.parametrize("n_info,rate,sigma2", [(282, "1/2", 1.0), (282, "1/2", 0.5),
                                                    (426, "3/4", 0.6), (426, "3/4", 0.3)])
    def test_agrees_with_frame_major_butterfly(self, n_info, rate, sigma2):
        """The metric's association moved from (m + l0w0) + l1w1 to
        m + (l0w0 + l1w1), so float32 rounding may split a near-tie.
        The noise levels leave decoded BERs from about 0.3 to 4e-4."""
        rng = np.random.default_rng(71)
        llrs = noisy_stream(rng, (256, n_info), rate, sigma2)
        differ = fec.viterbi_decode(llrs, n_info) != butterfly_viterbi(llrs, n_info)
        assert differ.mean() <= 1e-3


class TestOneBetaPerButterfly:
    """The decoder against ``oracles.batch_innermost_viterbi``, its form
    with all 128 branch metrics per step and a gather traceback: the
    same sums and ties, so every output bit must agree."""

    @pytest.mark.parametrize("sigma2", [0.3, 0.6, 1.5])
    @pytest.mark.parametrize("n_info,rate", [(282, "1/2"), (426, "3/4")])
    def test_noisy_batches(self, n_info, rate, sigma2):
        rng = np.random.default_rng(73)
        llrs = noisy_stream(rng, (256, n_info), rate, sigma2)
        decoded = fec.viterbi_decode(llrs, n_info)
        assert decoded.flags.c_contiguous and decoded.dtype == np.uint8
        np.testing.assert_array_equal(decoded, batch_innermost_viterbi(llrs, n_info))

    @pytest.mark.parametrize("rate", ["1/2", "3/4"])
    def test_integer_llrs_tie(self, rate):
        rng = np.random.default_rng(74)
        llrs = np.round(2 * noisy_stream(rng, (64, 66), rate, 1.0))
        np.testing.assert_array_equal(fec.viterbi_decode(llrs, 66),
                                      batch_innermost_viterbi(llrs, 66))

    @pytest.mark.parametrize("batch", [1, 3, 257])
    @pytest.mark.parametrize("n_info", [1, 13, 29, 51])
    def test_chunk_edges(self, batch, n_info):
        rng = np.random.default_rng(75)
        llrs = noisy_stream(rng, (batch, n_info), "1/2", 1.0)
        np.testing.assert_array_equal(fec.viterbi_decode(llrs, n_info),
                                      batch_innermost_viterbi(llrs, n_info))

    def test_zero_and_extreme_frames(self):
        """All-zero frames and frames scaled by 1e300 and 1e-300 in one
        batch with ordinary ones."""
        frames = noisy_stream(np.random.default_rng(76), (6, 48), "3/4", 1.0)
        llrs = np.vstack([frames, np.zeros((2, frames.shape[-1])),
                          1e300 * frames, 1e-300 * frames])
        np.testing.assert_array_equal(fec.viterbi_decode(llrs, 48),
                                      batch_innermost_viterbi(llrs, 48))

    def test_one_dimensional_input(self):
        llrs = noisy_stream(np.random.default_rng(77), (40,), "1/2", 1.0)
        decoded = fec.viterbi_decode(llrs, 40)
        assert decoded.shape == (40,) and decoded.flags.c_contiguous
        np.testing.assert_array_equal(decoded, batch_innermost_viterbi(llrs, 40))


class TestViterbiDecode:
    @pytest.mark.parametrize("n_info,rate", [(64, "1/2"), (30, "1/2"),
                                             (66, "3/4"), (282, "3/4")])
    def test_noiseless_loopback(self, n_info, rate):
        rng = np.random.default_rng(56)
        bits = rng.integers(0, 2, n_info).astype(np.uint8)
        tx = fec.puncture(fec.conv_encode(bits), rate)
        llrs = 1.0 - 2.0 * tx.astype(float)
        decoded = fec.viterbi_decode(fec.depuncture(llrs, rate), n_info)
        np.testing.assert_array_equal(decoded, bits)

    def test_single_flip_corrected(self):
        """A sign flip of ordinary reliability is far inside the free
        distance of the mother code and must be corrected."""
        rng = np.random.default_rng(57)
        bits = rng.integers(0, 2, 64).astype(np.uint8)
        llrs = 1.0 - 2.0 * fec.conv_encode(bits).astype(float)
        llrs[41] *= -3.0
        np.testing.assert_array_equal(fec.viterbi_decode(llrs, 64), bits)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(58)
        bits = rng.integers(0, 2, (6, 40)).astype(np.uint8)
        llrs = awgn_llrs(fec.conv_encode(bits), 0.5, rng)
        batch = fec.viterbi_decode(llrs, 40)
        for i in range(6):
            np.testing.assert_array_equal(
                batch[i], fec.viterbi_decode(llrs[i], 40))

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            fec.viterbi_decode(np.zeros(100), 64)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_llr_rejected(self, bad):
        """A NaN or infinite LLR names its frame instead of decoding it to
        zeros."""
        llrs = np.ones((3, 2 * (10 + 6)))
        llrs[1, 5] = bad
        with pytest.raises(ValueError, match="frame 1 "):
            fec.viterbi_decode(llrs, 10)
        with pytest.raises(ValueError, match="frame 0 "):
            fec.viterbi_decode(llrs[1], 10)

    @pytest.mark.parametrize("n_info", [0, -3])
    def test_nonpositive_n_info_rejected(self, n_info):
        with pytest.raises(ValueError, match=f"n_info must be >= 1, got {n_info}"):
            fec.viterbi_decode(np.zeros(2 * (n_info + 6)), n_info)


def test_known_answer_fixture():
    """Frozen vectors from an independent bit-serial encoder."""
    import pathlib
    fixture = pathlib.Path(__file__).resolve().parents[1] / "fixtures" \
        / "fec_known_answers.txt"
    cases = 0
    for line in fixture.read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        rate, info, expect = (field.strip() for field in line.split("|"))
        bits = np.array([int(b) for b in info], dtype=np.uint8)
        tx = fec.puncture(fec.conv_encode(bits), rate)
        assert "".join(map(str, tx.tolist())) == expect, line
        cases += 1
    assert cases == 5


def test_full_chain_loopback_both_rates():
    """encode -> puncture -> interleave -> map -> demap -> deinterleave ->
    depuncture -> decode is the identity on noiseless frames."""
    spec = fec.InterleaverSpec(block_bits=72, columns=12)
    rng = np.random.default_rng(59)
    for rate, n_info in (("1/2", 30), ("3/4", 48)):
        bits = rng.integers(0, 2, n_info).astype(np.uint8)
        tx = fec.interleave(fec.puncture(fec.conv_encode(bits), rate), spec)
        soft = fec.qpsk_soft_demap(fec.qpsk_map(tx), 1.0)
        stream = fec.depuncture(fec.deinterleave(soft, spec), rate)
        np.testing.assert_array_equal(fec.viterbi_decode(stream, n_info), bits)


def test_coded_beats_uncoded_at_6db():
    """Monte-Carlo sanity at Eb/N0 = 6 dB, rate 1/2, QPSK: the coded BER
    must sit at least two orders of magnitude under the uncoded one over
    1e7 information bits."""
    ebn0 = 10 ** 0.6
    n_bits = 10_000_000
    frame_bits = 1000
    batch = 500

    # uncoded: 2 bits/symbol at unit symbol energy
    rng = np.random.default_rng(60)
    sigma2_uncoded = 1.0 / (2 * ebn0)
    uncoded_errors = 0
    for _ in range(n_bits // 2 ** 20):
        bits = rng.integers(0, 2, 2 ** 20).astype(np.uint8)
        rx = fec.qpsk_map(bits) + np.sqrt(sigma2_uncoded / 2) * (
            rng.standard_normal(2 ** 19) + 1j * rng.standard_normal(2 ** 19))
        uncoded_errors += int(np.sum(fec.qpsk_hard_bits(rx) != bits))
    uncoded_ber = uncoded_errors / (n_bits // 2 ** 20 * 2 ** 20)

    # coded: rate 1/2 halves the energy per channel bit
    rng = np.random.default_rng(61)
    sigma2_coded = 1.0 / ebn0
    coded_errors = 0
    frames_total = n_bits // frame_bits
    for _ in range(frames_total // batch):
        bits = rng.integers(0, 2, (batch, frame_bits)).astype(np.uint8)
        llrs = awgn_llrs(fec.conv_encode(bits), sigma2_coded, rng)
        decoded = fec.viterbi_decode(llrs, frame_bits)
        coded_errors += int(np.sum(decoded != bits))
    coded_ber = coded_errors / (frames_total // batch * batch * frame_bits)

    assert uncoded_ber == pytest.approx(2.39e-3, rel=0.1)
    assert coded_ber < uncoded_ber / 100
