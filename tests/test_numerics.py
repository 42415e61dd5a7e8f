"""DFT kernels and linear solves against direct-summation oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uwofdm import forward_dft, inverse_dft
from uwofdm.numerics import dft_columns, matmul_rows, solve_linear
from uwofdm.errors import NumericallySingularError


def direct_dft(v):
    """O(N^2) summation oracle, independent of the matrix implementation."""
    n = len(v)
    out = np.zeros(n, dtype=complex)
    for m in range(n):
        for k in range(n):
            out[m] += v[k] * np.exp(-2j * np.pi * m * k / n)
    return out


def direct_idft(v):
    n = len(v)
    out = np.zeros(n, dtype=complex)
    for m in range(n):
        for k in range(n):
            out[m] += v[k] * np.exp(2j * np.pi * m * k / n)
    return out / n


def random_complex(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


class TestForwardDft:
    def test_size_one_identity(self):
        c = 3.0 - 2.0j
        assert forward_dft(np.array([c]))[0] == pytest.approx(c)

    def test_two_point(self):
        np.testing.assert_allclose(forward_dft(np.array([1.0, 0.0])),
                                   [1.0, 1.0], atol=1e-12)

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(0)
        v = random_complex(rng, 8)
        np.testing.assert_allclose(forward_dft(v), direct_dft(v),
                                   rtol=1e-10, atol=1e-10)

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        v = random_complex(rng, 8)
        np.testing.assert_allclose(inverse_dft(forward_dft(v)), v,
                                   rtol=1e-10, atol=1e-12)

    def test_size_follows_last_axis(self):
        """A stacked batch of mixed rows transforms row by row."""
        rng = np.random.default_rng(6)
        v = random_complex(rng, 24).reshape(2, 3, 4)
        expect = np.array([[direct_dft(row) for row in block] for block in v])
        np.testing.assert_allclose(forward_dft(v), expect, rtol=1e-10, atol=1e-10)


class TestInverseDft:
    def test_two_point(self):
        np.testing.assert_allclose(inverse_dft(np.array([1.0, 1.0])),
                                   [1.0, 0.0], atol=1e-12)

    def test_dc_impulse(self):
        np.testing.assert_allclose(inverse_dft(np.ones(4)),
                                   [1.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(2)
        v = random_complex(rng, 16)
        np.testing.assert_allclose(inverse_dft(v), direct_idft(v),
                                   rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("n", [2, 8, 64])
def test_unitary_up_to_size(n):
    matrix = forward_dft(np.eye(n))  # F is symmetric, so the rows of I @ F are F's
    product = matrix @ matrix.conj().T
    np.testing.assert_allclose(product, n * np.eye(n), atol=n * 1e-10)


@pytest.mark.parametrize("n", [2, 8, 64])
def test_parseval(n):
    rng = np.random.default_rng(n)
    v = random_complex(rng, n)
    lhs = np.sum(np.abs(forward_dft(v)) ** 2)
    rhs = n * np.sum(np.abs(v) ** 2)
    assert lhs == pytest.approx(rhs, rel=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=32), st.integers())
def test_round_trip_property(n, seed):
    rng = np.random.default_rng(abs(seed) % 2 ** 32)
    v = random_complex(rng, n)
    np.testing.assert_allclose(inverse_dft(forward_dft(v)), v,
                               rtol=1e-9, atol=1e-9)


class TestFoldedProducts:
    def test_matmul_rows_matches_per_slice_product(self):
        rng = np.random.default_rng(7)
        x = random_complex(rng, 16 * 8 * 64).reshape(16, 8, 64)
        m = random_complex(rng, 64 * 52).reshape(64, 52)
        got = matmul_rows(x, m)
        assert got.shape == (16, 8, 52)
        for c in range(16):
            np.testing.assert_allclose(got[c], x[c] @ m, rtol=1e-13, atol=1e-12)

    def test_dft_columns_are_the_cut_transform(self):
        rng = np.random.default_rng(8)
        y = random_complex(rng, 3 * 5 * 16).reshape(3, 5, 16)
        bins = [1, 4, 5, 11]
        np.testing.assert_allclose(y @ dft_columns(16, bins), forward_dft(y)[..., bins],
                                   rtol=1e-13, atol=1e-12)
        spectrum = np.zeros((3, 5, 16), dtype=complex)
        spectrum[..., bins] = y[..., :4]
        np.testing.assert_allclose(y[..., :4] @ dft_columns(16, bins).T.conj() / 16,
                                   inverse_dft(spectrum), rtol=1e-13, atol=1e-13)


class TestSolveLinear:
    def test_identity(self):
        rng = np.random.default_rng(3)
        b = random_complex(rng, 6)
        np.testing.assert_allclose(solve_linear(np.eye(6), b), b)

    def test_scaled_identity(self):
        x = solve_linear(2.0 * np.eye(4), np.eye(4))
        np.testing.assert_allclose(x, 0.5 * np.eye(4), atol=1e-14)

    def test_residual_bound_random_system(self):
        rng = np.random.default_rng(4)
        a = random_complex(rng, (16, 16)).reshape(16, 16) + 4 * np.eye(16)
        b = random_complex(rng, 16)
        x = solve_linear(a, b)
        residual = np.linalg.norm(a @ x - b) / np.linalg.norm(b)
        assert residual <= 1e-9

    def test_singular_matrix_rejected(self):
        a = np.ones((3, 3), dtype=complex)
        with pytest.raises(NumericallySingularError) as err:
            solve_linear(a, np.ones(3))
        assert err.value.condition > 1e12

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            solve_linear(np.ones((2, 3)), np.ones(2))

    def test_solve_then_multiply_is_identity(self):
        rng = np.random.default_rng(5)
        a = random_complex(rng, (12, 12)).reshape(12, 12) + 5 * np.eye(12)
        b = random_complex(rng, (12, 3)).reshape(12, 3)
        x = solve_linear(a, b)
        assert np.linalg.norm(a @ x - b) / np.linalg.norm(b) <= 1e-9
