"""Frame construction: carrier layout, redundancy generator and the
placement search, checked against the dense placement-matrix oracles,
index bookkeeping and per-column linear solves."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uwofdm as uw
from uwofdm.errors import ConfigError
from uwofdm.frame import optimize_placement
from uwofdm.numerics import inverse_dft
from uwofdm.txchain import encode_batch

from conftest import zero_word
from oracles import dense_generator, permutation, selection, time_symbol

#: The reference, 8-point and 16-point layouts, as (dft_size, zero
#: indices, redundant indices).
LAYOUTS = [
    (64, uw.frame.REFERENCE_ZERO_INDICES, uw.frame.REFERENCE_REDUNDANT_INDICES),
    (8, (0, 4), (2, 6)),
    (16, (0, 8, 9, 15), (1, 2, 3, 4)),
]


class TestConfigValidation:
    def test_reference_shape(self, ref_config):
        assert len(ref_config.active_indices) == 52
        assert (ref_config.data_count, ref_config.uw_length) == (36, 16)
        assert type(ref_config.data_count) is int and type(ref_config.uw_length) is int

    def test_overlapping_sets_rejected(self):
        with pytest.raises(ConfigError, match="overlap"):
            uw.OfdmSystemConfig(dft_size=8, zero_indices=(0, 4), redundant_indices=(0, 6))

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigError, match="out of range"):
            uw.OfdmSystemConfig(dft_size=8, zero_indices=(0, 4), redundant_indices=(2, 9))

    def test_wrong_zero_count_rejected(self):
        """Zero carriers that leave no data carrier."""
        with pytest.raises(ConfigError, match="data_count must be >= 1, got 0"):
            uw.OfdmSystemConfig(dft_size=8, zero_indices=(0, 1, 3, 4, 5, 7),
                                redundant_indices=(2, 6))


class TestSubcarrierMap:
    """The carrier layout: the generator's carrier and position arrays,
    and the dense selection and permutation matrices of the oracles."""

    def test_reference_shapes(self, ref_config, ref_gen):
        assert selection(ref_config).shape == (64, 52)
        assert permutation(ref_config).shape == (52, 52)
        assert [len(ref_gen.active_carriers), len(ref_gen.data_positions),
                len(ref_gen.redundant_positions)] == [52, 36, 16]

    def test_selection_zero_rows(self, ref_config, ref_gen):
        zero_rows = selection(ref_config)[list(ref_config.zero_indices), :]
        assert not zero_rows.any()
        assert set(ref_gen.active_carriers.tolist()).isdisjoint(ref_config.zero_indices)

    def test_selection_columns_are_unit(self, ref_config, ref_gen):
        b = selection(ref_config)
        np.testing.assert_array_equal(b.T @ b, np.eye(52))
        np.testing.assert_array_equal(b.argmax(axis=0), ref_gen.active_carriers)

    def test_permutation_orthogonal(self, ref_config, ref_gen):
        p = permutation(ref_config)
        np.testing.assert_array_equal(p @ p.T, np.eye(52))
        assert (p.sum(axis=0) == 1).all() and (p.sum(axis=1) == 1).all()
        # data fills the non-redundant carriers in ascending order
        active = ref_gen.active_carriers
        assert active[ref_gen.data_positions].tolist() == sorted(
            set(active.tolist()) - set(ref_config.redundant_indices))
        assert active[ref_gen.redundant_positions].tolist() == sorted(
            ref_config.redundant_indices)
        np.testing.assert_array_equal(p.argmax(axis=0), np.concatenate(
            [ref_gen.data_positions, ref_gen.redundant_positions]))

    def test_degenerate_identity(self):
        # no zero carriers and the one redundant carrier last: both
        # matrices collapse to the identity, and the positions to ranges
        cfg = uw.OfdmSystemConfig(dft_size=4, zero_indices=(), redundant_indices=(3,))
        np.testing.assert_array_equal(selection(cfg), np.eye(4))
        np.testing.assert_array_equal(permutation(cfg), np.eye(4))
        gen = uw.derive_generator(cfg)
        assert gen.active_carriers.tolist() == [0, 1, 2, 3]
        assert gen.data_positions.tolist() == [0, 1, 2]
        assert gen.redundant_positions.tolist() == [3]

    def test_toy_scatter_bookkeeping(self, toy_config, toy_gen):
        """The positions, and B @ P, place data/redundant entries at the
        declared bins."""
        data = np.array([1 + 1j, 2, 3, 4], dtype=complex)
        redundant = np.array([10j, 20j])
        expect = np.zeros(8, dtype=complex)
        expect[[1, 3, 5, 7]] = data        # ascending non-zero, non-redundant
        expect[[2, 6]] = redundant
        word = np.zeros(6, dtype=complex)
        word[toy_gen.data_positions] = data
        word[toy_gen.redundant_positions] = redundant
        full = np.zeros(8, dtype=complex)
        full[toy_gen.active_carriers] = word
        np.testing.assert_array_equal(full, expect)
        dense = selection(toy_config) @ permutation(toy_config) @ np.concatenate(
            [data, redundant])
        np.testing.assert_array_equal(dense, expect)


class TestDeriveGenerator:
    @pytest.mark.parametrize("n, zeros, redundant", LAYOUTS, ids=["reference", "n8", "n16"])
    def test_matches_dense_oracle(self, n, zeros, redundant):
        """Filled by index, T and the code matrix equal the dense-matrix products."""
        gen = uw.derive_generator(uw.OfdmSystemConfig(
            dft_size=n, zero_indices=zeros, redundant_indices=redundant))
        for got, expect in zip((gen.redundancy, gen.code_matrix),
                               dense_generator(gen.config)):
            np.testing.assert_array_equal(got, expect)

    def test_reference_shape_and_zero_uw(self, ref_gen):
        assert ref_gen.redundancy.shape == (16, 36)
        rng = np.random.default_rng(10)
        data = uw.qpsk_map(rng.integers(0, 2, size=(500, 72)))
        x = time_symbol(ref_gen, data)
        rms = np.sqrt(np.mean(np.abs(x) ** 2))
        assert np.abs(x[:, -16:]).max() <= 1e-9 * rms

    def test_zero_data_gives_zero_symbol(self, ref_gen):
        x = time_symbol(ref_gen, np.zeros(36, dtype=complex))
        assert np.abs(x).max() == 0.0

    def test_toy_matches_per_column_solve(self, toy_config, toy_gen):
        """Independent oracle: for each unit data vector, solve the
        'last two inverse-transform outputs are zero' system directly."""
        n, nd, l = 8, 4, 2
        inv = inverse_dft(np.eye(n))  # rows of I @ F^H / N
        tail = inv[n - l:, :] @ selection(toy_config) @ permutation(toy_config)
        t_expected = np.zeros((l, nd), dtype=complex)
        for col in range(nd):
            stacked = np.zeros(nd + l, dtype=complex)
            stacked[col] = 1.0
            rhs = -tail[:, :nd] @ stacked[:nd]
            t_expected[:, col] = np.linalg.solve(tail[:, nd:], rhs)
        np.testing.assert_allclose(toy_gen.redundancy, t_expected, atol=1e-10)

    def test_tail_condition_is_the_solve_estimate(self, ref_config, ref_gen):
        """``tail_condition`` is the estimate the solve checked; a placement
        the solve refuses raises PlacementInfeasibleError carrying it."""
        m = inverse_dft(np.eye(64)) @ selection(ref_config) @ permutation(ref_config)
        assert ref_gen.tail_condition == np.linalg.cond(m[48:, 36:])
        clustered = uw.OfdmSystemConfig(dft_size=64, zero_indices=(0,),
                                        redundant_indices=tuple(range(1, 21)))
        with pytest.raises(uw.PlacementInfeasibleError) as err:
            uw.derive_generator(clustered)
        assert err.value.condition > 1e12

    def test_toy_zero_tail(self, toy_gen):
        rng = np.random.default_rng(11)
        data = uw.qpsk_map(rng.integers(0, 2, size=(100, 8)))
        x = time_symbol(toy_gen, data)
        assert np.abs(x[:, -2:]).max() <= 1e-12

    def test_trace_identity(self, ref_gen):
        """trace(U U^H) = data_count + trace(T T^H) by block structure."""
        lhs = np.trace(ref_gen.code_matrix @ ref_gen.code_matrix.conj().T).real
        assert lhs == pytest.approx(36 + uw.redundant_energy_metric(ref_gen), rel=1e-13)

    def test_parity_check_annihilates_words(self, ref_gen):
        """The dense parity check [-T, I] P^T is zero on every code word,
        the identity on the redundant carriers and -T on the data."""
        h = dense_generator(ref_gen.config)[2]
        np.testing.assert_allclose(h @ ref_gen.code_matrix, 0, atol=1e-12)
        np.testing.assert_array_equal(h[:, ref_gen.redundant_positions], np.eye(16))
        np.testing.assert_array_equal(h[:, ref_gen.data_positions], -ref_gen.redundancy)

    def test_covariance_hermitian_psd(self, ref_gen):
        g = ref_gen.code_matrix
        css = g @ g.conj().T
        np.testing.assert_allclose(css, css.conj().T, atol=1e-12)
        eigs = np.linalg.eigvalsh(css)
        assert eigs.min() >= -1e-10
        assert np.sum(eigs > 1e-9) == 36  # rank = data_count

    def test_rs_view_consecutive_zeros(self, ref_gen):
        """The active-carrier word, inversely transformed at full size,
        shows uw_length consecutive zeros: the complex RS-code view."""
        rng = np.random.default_rng(12)
        d = uw.qpsk_map(rng.integers(0, 2, 72))
        word = ref_gen.code_matrix @ d
        full = selection(ref_gen.config) @ word
        x = inverse_dft(full)
        assert np.abs(x[-16:]).max() <= 1e-9 * np.sqrt(np.mean(np.abs(x) ** 2))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1),
       st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False),
       st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False))
def test_encode_linearity(seed, alpha, beta):
    cfg = uw.reference_config()
    gen = _cached_gen(cfg)
    rng = np.random.default_rng(seed)
    d1 = uw.qpsk_map(rng.integers(0, 2, 72))
    d2 = uw.qpsk_map(rng.integers(0, 2, 72))
    word = zero_word(cfg)
    lhs = encode_batch(alpha * d1 + beta * d2, gen, word)
    rhs = alpha * encode_batch(d1, gen, word) + beta * encode_batch(d2, gen, word)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10 * (1 + abs(alpha) + abs(beta)))


_GEN_CACHE = {}


def _cached_gen(cfg):
    if cfg not in _GEN_CACHE:
        _GEN_CACHE[cfg] = uw.derive_generator(cfg)
    return _GEN_CACHE[cfg]


class TestRedundantEnergyMetric:
    def test_zero_matrix(self, toy_gen):
        import dataclasses
        hollow = dataclasses.replace(toy_gen, redundancy=np.zeros((2, 4)))
        assert uw.redundant_energy_metric(hollow) == 0.0

    def test_elementwise_sum(self, toy_gen):
        expect = sum(abs(t) ** 2 for t in toy_gen.redundancy.ravel())
        assert uw.redundant_energy_metric(toy_gen) == pytest.approx(expect, rel=1e-12)


TOY = uw.OfdmSystemConfig(dft_size=16, zero_indices=(0, 8, 9, 15),
                          redundant_indices=(1, 2, 3, 4))


def placement_metric(cfg, subset):
    """trace(T T^H) of ``subset``, through the full generator derivation."""
    return uw.redundant_energy_metric(
        uw.derive_generator(dataclasses.replace(cfg, redundant_indices=subset)))


def brute_force_placement(cfg):
    """(metric, subset) of least trace(T T^H) over every size-l subset;
    (inf, None) if none is feasible."""
    best = (math.inf, None)
    for subset in itertools.combinations(cfg.active_indices.tolist(), cfg.uw_length):
        try:
            best = min(best, (placement_metric(cfg, subset), subset))
        except uw.PlacementInfeasibleError:
            continue
    return best


@st.composite
def small_layouts(draw):
    """A 6- to 12-point layout with up to a third of its carriers zero and
    one to four redundant carriers: at most C(12, 4) = 495 subsets."""
    n = draw(st.integers(6, 12))
    zeros = sorted(draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n // 3)))
    active = [i for i in range(n) if i not in zeros]
    l = draw(st.integers(1, min(4, len(active) - 1)))
    return uw.OfdmSystemConfig(dft_size=n, zero_indices=tuple(zeros),
                               redundant_indices=tuple(active[:l]))


class TestOptimizePlacement:
    def test_toy_exhaustive_vs_greedy(self, monkeypatch):
        """C(12, 4) = 495 subsets: at a limit of 495 the search enumerates
        them; at 494 it descends from the configured set, and the descent
        stops short of the toy's optimum."""
        monkeypatch.setattr(uw.frame, "EXHAUSTIVE_LIMIT", 495)
        best, best_metric = optimize_placement(TOY)
        monkeypatch.setattr(uw.frame, "EXHAUSTIVE_LIMIT", 494)
        greedy, greedy_metric = optimize_placement(TOY)
        assert best == (2, 6, 10, 14) and best_metric == pytest.approx(8.0, rel=1e-12)
        assert len(greedy) == 4 and greedy_metric > best_metric + 0.1
        # exhaustive optimum must agree with a from-scratch derivation
        assert placement_metric(TOY, best) == pytest.approx(best_metric, rel=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(small_layouts())
    def test_both_paths_against_brute_force(self, cfg):
        """Exhaustive finds the brute-force optimum; the descent is no better."""
        best_metric, best = brute_force_placement(cfg)
        if best is None:
            with pytest.raises(uw.PlacementInfeasibleError):
                optimize_placement(cfg)
            return
        found, found_metric = optimize_placement(cfg)
        assert found_metric == pytest.approx(best_metric, rel=1e-9)
        assert placement_metric(cfg, found) == pytest.approx(best_metric, rel=1e-9)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(uw.frame, "EXHAUSTIVE_LIMIT", 0)
            greedy, greedy_metric = optimize_placement(cfg)
        assert len(greedy) == cfg.uw_length
        assert greedy_metric >= best_metric * (1 - 1e-9)
        assert placement_metric(cfg, greedy) == pytest.approx(greedy_metric, rel=1e-9)

    def test_reference_beats_random_samples(self, ref_config, ref_gen):
        """Published placement should beat random admissible ones; the
        full 1000-sample run lives in the acceptance suite."""
        rng = np.random.default_rng(13)
        reference_metric = uw.redundant_energy_metric(ref_gen)
        active = ref_config.active_indices
        for _ in range(50):
            subset = tuple(sorted(rng.choice(active, size=16, replace=False)))
            cfg = uw.OfdmSystemConfig(dft_size=64, zero_indices=ref_config.zero_indices,
                                      redundant_indices=subset)
            gen = uw.derive_generator(cfg)
            assert uw.redundant_energy_metric(gen) > reference_metric

    def test_greedy_on_reference_runs(self, ref_config, ref_gen):
        """The descent from the published placement keeps it: no swap of
        one carrier lowers its metric."""
        indices, metric = optimize_placement(ref_config)
        assert indices == ref_config.redundant_indices
        assert metric == uw.redundant_energy_metric(ref_gen)

    def test_large_subsets_take_the_greedy_path(self, ref_config, monkeypatch):
        """uw_length = 48 on the reference zero set: C(52, 48) = 270,725
        subsets are within the subset limit, but each is a 48x48 solve,
        216 unit solves, so the search descends from the configured set:
        its score, then 48 x 4 = 192 swaps in each of 7 passes, 1,345
        solves, where enumerating them took minutes."""
        cfg = dataclasses.replace(
            ref_config, redundant_indices=tuple(ref_config.active_indices[:48].tolist()))
        assert math.comb(52, 48) <= uw.frame.EXHAUSTIVE_LIMIT
        configured = placement_metric(cfg, cfg.redundant_indices)
        solve_tail, solves = uw.frame._solve_tail, []

        def counted(*args):
            solves.append(1)
            assert len(solves) <= 1345, "the search enumerates"
            return solve_tail(*args)

        monkeypatch.setattr(uw.frame, "_solve_tail", counted)
        indices, metric = optimize_placement(cfg)
        assert len(solves) == 1345 and len(indices) == 48
        assert metric == pytest.approx(19.011794108225686, rel=1e-12)
        assert metric < configured

    def test_reference_result_is_pinned(self, ref_config):
        """C(52, 16) ~ 1.0e13 subsets: the reference descends from the
        paper's set, a 1-swap local optimum, and returns it."""
        indices, metric = optimize_placement(ref_config)
        assert indices == (2, 6, 10, 14, 17, 21, 24, 26, 38, 40, 43, 47, 50, 54, 58, 62)
        assert metric == pytest.approx(36.565574622533504, rel=1e-12)

    @pytest.mark.parametrize("exhaustive_limit", [0, uw.frame.EXHAUSTIVE_LIMIT])
    @pytest.mark.parametrize("n, zeros, redundant", [
        (16, (0, 8, 9, 15), (1, 2, 3, 4)),
        (16, (0,), (1, 2, 3, 4, 5, 6)),
        (32, (0, 15, 16, 17), (1, 2, 3, 4, 5, 6, 7, 8)),
        (64, uw.frame.REFERENCE_ZERO_INDICES, (1, 2, 3, 4, 5, 6, 7, 8)),
        (64, (0, 32), tuple(range(40, 52))),
        (64, uw.frame.REFERENCE_ZERO_INDICES, uw.frame.REFERENCE_REDUNDANT_INDICES),
    ])
    def test_never_worse_than_the_configured_placement(self, n, zeros, redundant,
                                                       exhaustive_limit, monkeypatch):
        """On either path, over several zero sets and sizes, the result's
        metric is at most the configured placement's."""
        monkeypatch.setattr(uw.frame, "EXHAUSTIVE_LIMIT", exhaustive_limit)
        cfg = uw.OfdmSystemConfig(dft_size=n, zero_indices=zeros, redundant_indices=redundant)
        indices, metric = optimize_placement(cfg)
        assert len(indices) == len(redundant)
        assert metric <= placement_metric(cfg, redundant)
        assert placement_metric(cfg, indices) == pytest.approx(metric, rel=1e-9)

    def test_rounding_ties_go_to_the_lowest_carrier(self, ref_config):
        """One redundant carrier: all 52 singletons score 51 up to rounding
        (about 3e-13 apart), so the tie goes to the lowest carrier, 1."""
        cfg = dataclasses.replace(ref_config, redundant_indices=(2,))
        indices, metric = optimize_placement(cfg)
        assert indices == (1,)
        assert metric == pytest.approx(51.0, rel=1e-12)
