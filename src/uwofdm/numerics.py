"""DFT and linear-algebra kernels.

The whole package is pinned to the unnormalized DFT convention

    F[m, n] = exp(-2j*pi*m*n/N),
    forward(v) = F @ v,   inverse(v) = F.conj().T @ v / N,

which is ``numpy.fft``'s: the transforms are ``numpy.fft.fft`` and
``ifft`` over the last axis, the calls ``channel.cyclic_convolve`` makes
too.  The factor N it puts in a noise variance enters in two places: the
per-bin noise (``channel.bin_noise``) and the variance after zero forcing
(``rxchain.zero_forcing``).  ``matmul_rows`` applies one matrix to a
stack of symbol blocks, as cp's transforms on its data bins do
(``cpref.CpConfig.demodulator``).  Every array the package shares
between calls is read-only (``read_only``).
"""

from __future__ import annotations

import numpy as np

from .errors import NumericallySingularError

#: Reciprocal condition number below which solves are refused.
RCOND_FLOOR = 1e-12


def forward_dft(v: np.ndarray) -> np.ndarray:
    """Unnormalized forward DFT over the last axis of ``v``."""
    return np.fft.fft(v)


def inverse_dft(v: np.ndarray) -> np.ndarray:
    """Inverse DFT over the last axis, i.e. ``F^H v / N``."""
    return np.fft.ifft(v)


def read_only(a: np.ndarray) -> np.ndarray:
    """``a`` itself, no longer writable: the form of every shared array."""
    a.flags.writeable = False
    return a


def matmul_rows(x: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """``x @ matrix`` for (..., K) ``x`` and one (K, M) ``matrix`` as a
    single 2-D product over all rows of ``x``: numpy runs a stacked
    (C, S, K) ``x`` as C separate small products."""
    x = np.asarray(x)
    return (x.reshape(-1, x.shape[-1]) @ matrix).reshape(x.shape[:-1] + matrix.shape[-1:])


def solve_linear(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve ``a @ x = b`` with an explicit conditioning check; returns
    ``x`` and the condition number of ``a`` that the check read.

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
    return np.linalg.solve(a, np.asarray(b)), cond
