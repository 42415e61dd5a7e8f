"""Dense complex DFT and linear-algebra kernels.

The whole package is pinned to the unnormalized DFT convention

    F[m, n] = w**(m*n),   w = exp(-2j*pi/N),
    forward(v) = F @ v,   inverse(v) = F.conj().T @ v / N.

The factor N it puts in the noise variance after zero forcing enters in
one place, ``rxchain.zero_forcing``; the convention is frozen here and
nowhere else.  Transform sizes stay small (N <= 64), so plain dense
matrix products are used throughout: a transform takes its size from the
last axis of its input and uses the matrix cached for that size.  The
modems transform only their used carriers, through ``dft_columns``, and
apply one matrix to a stack of symbol blocks with ``matmul_rows``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import NumericallySingularError

#: Reciprocal condition number below which solves are refused.
RCOND_FLOOR = 1e-12


@lru_cache(maxsize=32)
def _dft_matrix(size: int) -> np.ndarray:
    n = np.arange(size)
    w = np.exp(-2j * np.pi / size)
    matrix = w ** np.outer(n, n)
    matrix.flags.writeable = False
    return matrix


def forward_dft(v: np.ndarray) -> np.ndarray:
    """Unnormalized forward DFT over the last axis of ``v``."""
    v = np.asarray(v)
    return v @ _dft_matrix(v.shape[-1])  # F is symmetric


def inverse_dft(v: np.ndarray) -> np.ndarray:
    """Inverse DFT over the last axis, i.e. ``F^H v / N``."""
    v = np.asarray(v)
    n = v.shape[-1]
    return v @ _dft_matrix(n).conj() / n


def dft_columns(size: int, bins) -> np.ndarray:
    """Columns ``bins`` of the size-point DFT matrix F, a fresh (size, len(bins))
    array: ``y @ dft_columns(n, bins)`` is ``forward_dft(y)[..., bins]``, and
    since F is symmetric, ``x @ dft_columns(n, bins).T.conj() / n`` is the
    inverse DFT of ``x`` scattered onto ``bins``."""
    return _dft_matrix(size)[:, np.asarray(bins, dtype=int)]


def matmul_rows(x: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """``x @ matrix`` for (..., K) ``x`` and one (K, M) ``matrix`` as a
    single 2-D product over all rows of ``x``: numpy runs a stacked
    (C, S, K) ``x`` as C separate small products."""
    x = np.asarray(x)
    return (x.reshape(-1, x.shape[-1]) @ matrix).reshape(x.shape[:-1] + matrix.shape[-1:])


def solve_linear(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a @ x = b`` with an explicit conditioning check.

    Raises NumericallySingularError when the reciprocal condition number
    falls below RCOND_FLOOR, i.e. when double precision can no longer
    support the requested solve.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    cond = float(np.linalg.cond(a))  # SVD based; matrices here are at most 64x64
    if not np.isfinite(cond) or cond > 1.0 / RCOND_FLOOR:
        raise NumericallySingularError("matrix is numerically singular", cond)
    return np.linalg.solve(a, np.asarray(b))
