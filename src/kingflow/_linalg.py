"""Positive-definite linear algebra and the sample covariance it factors.

Every input that must be positive definite goes through the strict
``spd_factor``; only the Fisher estimate is diagonally loaded (``chol_spd``).
"""
from __future__ import annotations

import numpy as np
import scipy.linalg

#: starting relative load on the Fisher estimate's diagonal
FISHER_JITTER = 1e-6
#: relative jitter is escalated by factors of 10 up to this cap before giving up
JITTER_CAP = 1e-2


def chol_spd(mat: np.ndarray, jitter: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Cholesky-factor a symmetric matrix, loading the diagonal if needed.

    ``jitter`` is a relative amount: the applied load is ``jitter`` times the
    mean diagonal of ``mat`` (falling back to 1 when the trace is not
    positive).  If factorization fails the relative jitter is escalated by
    factors of 10 up to ``JITTER_CAP``.

    Returns ``(loaded, lower, jitter_applied)`` where ``loaded`` is the matrix
    that was actually factorized and ``jitter_applied`` the absolute amount
    added to each diagonal entry.  A matrix with a non-finite entry raises
    ``ValueError`` before any factorization, and one that stays
    non-positive-definite at the cap raises ``np.linalg.LinAlgError``.  Its
    one caller is ``manifold.FisherMatrix.from_covariance``, which starts
    from ``FISHER_JITTER`` and records the load in
    ``FisherMatrix.jitter_applied``.
    """
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    if not np.isfinite(mat).all():
        raise ValueError("matrix has non-finite entries")
    if jitter < 0:
        raise ValueError("jitter must be nonnegative")
    sym = 0.5 * (mat + mat.T)
    dim = sym.shape[0]
    trace = float(np.trace(sym))
    scale = trace / dim if trace > 0 else 1.0

    factor = float(jitter)
    while True:
        applied = factor * scale
        loaded = sym + applied * np.eye(dim) if applied > 0 else sym
        try:
            lower = np.linalg.cholesky(loaded)
            return loaded, lower, applied
        except np.linalg.LinAlgError:
            if factor >= JITTER_CAP:
                raise
            factor = max(factor * 10.0, 1e-10)
            factor = min(factor, JITTER_CAP)


def spd_factor(mat, error: Exception) -> np.ndarray:
    """Lower Cholesky factor of the symmetrized ``mat``, with no diagonal load.

    Raises ``error`` when the symmetrized matrix is not positive definite,
    which includes any non-finite entry.
    """
    mat = np.asarray(mat, dtype=np.float64)
    if not np.isfinite(mat).all():
        raise error
    try:
        return np.linalg.cholesky(0.5 * (mat + mat.T))
    except np.linalg.LinAlgError as exc:
        raise error from exc


def spd_inverse(mat, error: Exception) -> np.ndarray:
    """Symmetric inverse of ``mat`` from ``spd_factor``, which raises ``error``."""
    lower = spd_factor(mat, error)
    inv = chol_solve(lower, np.eye(lower.shape[0]))
    return 0.5 * (inv + inv.T)


def chol_solve(lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``L L^T x = b`` given the lower Cholesky factor ``L``."""
    return scipy.linalg.cho_solve((lower, True), b)


def is_spd(mat: np.ndarray) -> bool:
    """True when the symmetrized matrix is finite and admits a Cholesky factorization."""
    try:
        spd_factor(mat, np.linalg.LinAlgError())
    except np.linalg.LinAlgError:
        return False
    return True


def mean_and_covariance(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row mean and the (1/n)-normalized covariance of an ``(n, k)`` array."""
    mean = rows.mean(axis=0)
    centered = rows - mean
    return mean, centered.T @ centered / rows.shape[0]
