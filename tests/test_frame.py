"""Frame construction: placement matrices, redundancy generator and the
placement search, checked against index-bookkeeping and per-column
linear-solve oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uwofdm as uw
from uwofdm.errors import ConfigError
from uwofdm.frame import optimize_placement
from uwofdm.numerics import inverse_dft
from uwofdm.txchain import encode_batch

from oracles import time_symbol


class TestConfigValidation:
    def test_reference_shape(self, ref_config):
        assert len(ref_config.active_indices) == 52
        assert len(ref_config.data_indices) == 36

    def test_overlapping_sets_rejected(self):
        with pytest.raises(ConfigError):
            uw.OfdmSystemConfig(dft_size=8, data_count=4, uw_length=2,
                                zero_indices=(0, 4), redundant_indices=(0, 6))

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            uw.OfdmSystemConfig(dft_size=8, data_count=4, uw_length=2,
                                zero_indices=(0, 4), redundant_indices=(2, 9))

    def test_wrong_zero_count_rejected(self):
        with pytest.raises(ConfigError):
            uw.OfdmSystemConfig(dft_size=8, data_count=4, uw_length=2,
                                zero_indices=(0,), redundant_indices=(2, 6))


class TestSubcarrierMap:
    def test_reference_shapes(self, ref_map):
        assert ref_map.selection.shape == (64, 52)
        assert ref_map.permutation.shape == (52, 52)

    def test_selection_zero_rows(self, ref_map, ref_config):
        zero_rows = ref_map.selection[list(ref_config.zero_indices), :]
        assert not zero_rows.any()

    def test_selection_columns_are_unit(self, ref_map):
        b = ref_map.selection
        np.testing.assert_array_equal(b.T @ b, np.eye(52))

    def test_permutation_orthogonal(self, ref_map):
        p = ref_map.permutation
        np.testing.assert_array_equal(p @ p.T, np.eye(52))
        assert (p.sum(axis=0) == 1).all() and (p.sum(axis=1) == 1).all()

    def test_degenerate_identity(self):
        # no zero carriers and the one redundant carrier last: both
        # matrices collapse to the identity
        cfg = uw.OfdmSystemConfig(dft_size=4, data_count=3, uw_length=1,
                                  zero_indices=(), redundant_indices=(3,))
        smap = uw.build_subcarrier_map(cfg)
        np.testing.assert_array_equal(smap.selection, np.eye(4))
        np.testing.assert_array_equal(smap.permutation, np.eye(4))

    def test_toy_scatter_bookkeeping(self, toy_config):
        """B @ P must place data/redundant entries at the declared bins."""
        smap = uw.build_subcarrier_map(toy_config)
        data = np.array([1 + 1j, 2, 3, 4], dtype=complex)
        redundant = np.array([10j, 20j])
        full = smap.selection @ smap.permutation @ np.concatenate([data, redundant])
        expect = np.zeros(8, dtype=complex)
        expect[[1, 3, 5, 7]] = data        # ascending non-zero, non-redundant
        expect[[2, 6]] = redundant
        np.testing.assert_array_equal(full, expect)
        active = list(smap.active_carriers)
        assert [active[p] for p in smap.redundant_positions] == [2, 6]


class TestDeriveGenerator:
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
        smap = toy_gen.map
        n, nd, l = 8, 4, 2
        inv = inverse_dft(np.eye(n))  # rows of I @ F^H / N
        tail = inv[n - l:, :] @ smap.selection  # tail rows on active carriers
        t_expected = np.zeros((l, nd), dtype=complex)
        for col in range(nd):
            stacked = np.zeros(nd + l, dtype=complex)
            stacked[col] = 1.0
            rhs = -(tail @ smap.permutation)[:, :nd] @ stacked[:nd]
            t_expected[:, col] = np.linalg.solve(
                (tail @ smap.permutation)[:, nd:], rhs)
        np.testing.assert_allclose(toy_gen.redundancy, t_expected, atol=1e-10)

    def test_toy_zero_tail(self, toy_gen):
        rng = np.random.default_rng(11)
        data = uw.qpsk_map(rng.integers(0, 2, size=(100, 8)))
        x = time_symbol(toy_gen, data)
        assert np.abs(x[:, -2:]).max() <= 1e-12

    def test_trace_identity(self, ref_gen):
        """trace(U U^H) = data_count + trace(T T^H) by block structure."""
        lhs = np.trace(ref_gen.code_matrix @ ref_gen.code_matrix.conj().T).real
        assert lhs == pytest.approx(36 + uw.redundant_energy_metric(ref_gen), rel=1e-13)

    def test_parity_check_annihilates_words(self, ref_gen, ref_map):
        """parity_check is [-T, I] in carrier order: zero on every code
        word, the identity on the redundant carriers, -T on the data."""
        h = ref_gen.parity_check
        np.testing.assert_allclose(h @ ref_gen.code_matrix, 0, atol=1e-12)
        np.testing.assert_array_equal(h[:, ref_map.redundant_positions], np.eye(16))
        np.testing.assert_array_equal(h[:, ref_map.data_positions], -ref_gen.redundancy)

    def test_covariance_is_code_matrix_gram(self, ref_gen):
        g = ref_gen.code_matrix
        np.testing.assert_array_equal(ref_gen.symbol_covariance, g @ g.conj().T)

    def test_covariance_hermitian_psd(self, ref_gen):
        css = ref_gen.symbol_covariance
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
        full = ref_gen.map.selection @ word
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
    zero_word = uw.build_unique_word(cfg.uw_length, 0.0, gen)
    lhs = encode_batch(alpha * d1 + beta * d2, gen, zero_word)
    rhs = alpha * encode_batch(d1, gen, zero_word) + beta * encode_batch(d2, gen, zero_word)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10 * (1 + abs(alpha) + abs(beta)))


_GEN_CACHE = {}


def _cached_gen(cfg):
    if cfg not in _GEN_CACHE:
        _GEN_CACHE[cfg] = uw.derive_generator(uw.build_subcarrier_map(cfg))
    return _GEN_CACHE[cfg]


class TestRedundantEnergyMetric:
    def test_zero_matrix(self, toy_gen):
        import dataclasses
        hollow = dataclasses.replace(toy_gen, redundancy=np.zeros((2, 4)))
        assert uw.redundant_energy_metric(hollow) == 0.0

    def test_elementwise_sum(self, toy_gen):
        expect = sum(abs(t) ** 2 for t in toy_gen.redundancy.ravel())
        assert uw.redundant_energy_metric(toy_gen) == pytest.approx(expect, rel=1e-12)


class TestOptimizePlacement:
    def test_toy_exhaustive_vs_greedy(self):
        cfg = uw.OfdmSystemConfig(
            dft_size=16, data_count=8, uw_length=4,
            zero_indices=(0, 8, 9, 15), redundant_indices=(1, 2, 3, 4))
        best, best_metric = optimize_placement(cfg, "exhaustive")
        greedy, greedy_metric = optimize_placement(cfg, "greedy")
        assert len(best) == 4
        assert greedy_metric >= best_metric - 1e-12
        # exhaustive optimum must agree with a from-scratch derivation
        refit = uw.derive_generator(uw.build_subcarrier_map(
            uw.OfdmSystemConfig(dft_size=16, data_count=8, uw_length=4,
                                zero_indices=(0, 8, 9, 15),
                                redundant_indices=tuple(best))))
        assert uw.redundant_energy_metric(refit) == pytest.approx(best_metric, rel=1e-9)

    def test_exhaustive_refused_on_large_space(self, ref_config):
        with pytest.raises(ValueError, match="exhaustive search refused"):
            optimize_placement(ref_config, "exhaustive")

    def test_reference_beats_random_samples(self, ref_config, ref_gen):
        """Published placement should beat random admissible ones; the
        full 1000-sample run lives in the acceptance suite."""
        rng = np.random.default_rng(13)
        reference_metric = uw.redundant_energy_metric(ref_gen)
        active = ref_config.active_indices
        for _ in range(50):
            subset = tuple(sorted(rng.choice(active, size=16, replace=False)))
            cfg = uw.OfdmSystemConfig(
                dft_size=64, data_count=36, uw_length=16,
                zero_indices=ref_config.zero_indices, redundant_indices=subset)
            gen = uw.derive_generator(uw.build_subcarrier_map(cfg))
            assert uw.redundant_energy_metric(gen) > reference_metric

    def test_greedy_on_reference_runs(self, ref_config, ref_gen):
        indices, metric = optimize_placement(ref_config, "greedy")
        assert len(indices) == 16
        assert metric > 0
        # informational: how close greedy gets to the published placement
        print(f"greedy metric {metric:.3f} vs published "
              f"{uw.redundant_energy_metric(ref_gen):.3f}")

    def test_unknown_strategy_rejected(self, ref_config):
        with pytest.raises(ValueError):
            optimize_placement(ref_config, "anneal")
