"""Evaluation metrics: kernel MMD, Gaussian fits, Gaussian transport distance."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import mean_and_covariance, spd_factor
from .kernels import _bandwidth, _gaussian_gram
from .particles import _real_array, as_particles


@dataclass(frozen=True)
class MmdEstimate:
    """Biased (V-statistic) Gaussian-kernel MMD and the bandwidth it used."""

    value: float
    bandwidth: float


def mmd(sample_a, sample_b, bandwidth: float | None = None) -> MmdEstimate:
    """Gaussian-kernel MMD between two samples, as the biased V-statistic.

    With no bandwidth given, the median pairwise-distance heuristic over the
    pooled samples is used.  The squared estimate is clipped at zero before
    the square root.
    """
    sample_a = as_particles(sample_a)
    sample_b = as_particles(sample_b, dim=sample_a.dim)
    a, b = sample_a.points, sample_b.points
    bandwidth = _bandwidth(bandwidth, "bandwidth", sample_a, sample_b)

    def _gram_mean(xs, ys):
        return float(_gaussian_gram(bandwidth, xs, ys).mean())

    sq_value = _gram_mean(a, a) + _gram_mean(b, b) - 2.0 * _gram_mean(a, b)
    return MmdEstimate(value=float(np.sqrt(max(sq_value, 0.0))), bandwidth=float(bandwidth))


def fit_gaussian(sample) -> tuple[np.ndarray, np.ndarray]:
    """Moment-matched Gaussian: sample mean and (1/n)-normalized covariance.

    The covariance gets a fixed 1e-9 relative diagonal load so downstream
    transport distances stay defined for degenerate samples.
    """
    pts = as_particles(sample).points
    n, d = pts.shape
    if n < d + 1:
        raise ValueError(f"need at least dim + 1 = {d + 1} points, got {n}")
    mean, cov = mean_and_covariance(pts)
    trace = float(np.trace(cov))
    load = 1e-9 * (trace / d if trace > 0 else 1.0)
    return mean, cov + load * np.eye(d)


def gaussian_w2(
    mean_a: np.ndarray, cov_a: np.ndarray, mean_b: np.ndarray, cov_b: np.ndarray
) -> float:
    """Quadratic Wasserstein distance between two Gaussians.

    Uses the closed form with symmetric matrix square roots.  A covariance
    that is not positive definite raises ``ValueError``; no load is added.
    """
    mean_a = _real_array(mean_a, "mean_a", shape=(None,))
    mean_b = _real_array(mean_b, "mean_b", shape=mean_a.shape)
    for cov, name in ((cov_a, "cov_a"), (cov_b, "cov_b")):
        # factored before the shape check, so a non-finite entry is not positive definite
        spd_factor(cov, ValueError(f"{name} must be positive definite"))
    cov_a = _real_array(cov_a, "cov_a", shape=(mean_a.size, mean_a.size))
    cov_b = _real_array(cov_b, "cov_b", shape=(mean_a.size, mean_a.size))

    def _sqrtm_psd(mat):
        vals, vecs = np.linalg.eigh(0.5 * (mat + mat.T))
        return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T

    root_b = _sqrtm_psd(cov_b)
    cross = _sqrtm_psd(root_b @ cov_a @ root_b)
    sq = float(np.sum((mean_a - mean_b) ** 2) + np.trace(cov_a + cov_b - 2.0 * cross))
    return float(np.sqrt(max(sq, 0.0)))
