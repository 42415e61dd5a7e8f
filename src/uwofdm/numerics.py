"""Dense complex DFT and linear-algebra kernels.

The whole package is pinned to the unnormalized DFT convention

    F[m, n] = w**(m*n),   w = exp(-2j*pi/N),
    forward(v) = F @ v,   inverse(v) = F.conj().T @ v / N.

Several receiver covariance expressions (notably the factor N in the
noise covariance after zero forcing) are only correct under this
convention, so it is frozen here and nowhere else.  Transform sizes stay
small (N <= 64), so plain dense matrix products are used throughout: a
transform takes its size from the last axis of its input and uses the
matrix cached for that size.
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


def condition_estimate(a: np.ndarray) -> float:
    """2-norm condition number (SVD based; matrices here are at most 64x64)."""
    return float(np.linalg.cond(np.asarray(a)))


def solve_linear(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a @ x = b`` with an explicit conditioning check.

    Raises NumericallySingularError when the reciprocal condition number
    falls below RCOND_FLOOR, i.e. when double precision can no longer
    support the requested solve.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    cond = condition_estimate(a)
    if not np.isfinite(cond) or cond > 1.0 / RCOND_FLOOR:
        raise NumericallySingularError("matrix is numerically singular", cond)
    return np.linalg.solve(a, np.asarray(b))
