"""Projection of a moving particle distribution onto a feature manifold.

Given a time-indexed family of particle sets, the instantaneous motion of the
underlying distribution is summarized by the rate of change of the natural
parameters of the best-matching family member.  Two estimators are provided:

* ``project_change_quadrature`` integrates feature means and covariances
  against a narrow Gaussian time window and its derivative on an explicit
  quadrature grid.
* ``project_change_limit`` is the vanishing-window closed form: a Fisher
  solve of the mean feature-gradient contraction with the particle
  velocities.

``alignment_residual`` measures how far such a projected change is from a
natural-gradient reference direction, either in Euclidean or in local
Fisher geometry.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._linalg import mean_and_covariance
from .manifold import FeatureMap, FisherMatrix, feature_moments
from .ngd import NatGradResult
from .particles import ParticleSet

ALIGNMENT_MODES = ("euclidean", "fisher")


@dataclass(frozen=True)
class TimeKernel:
    """Normalized Gaussian window in time, centered at ``center``."""

    center: float
    sigma: float

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        object.__setattr__(self, "center", float(self.center))
        object.__setattr__(self, "sigma", float(self.sigma))

    def value(self, t) -> np.ndarray | float:
        t = np.asarray(t, dtype=np.float64)
        z = (t - self.center) / self.sigma
        out = np.exp(-0.5 * z**2) / np.sqrt(2.0 * np.pi * self.sigma**2)
        return float(out) if out.ndim == 0 else out

    def deriv(self, t) -> np.ndarray | float:
        """Derivative of the window with respect to time."""
        t = np.asarray(t, dtype=np.float64)
        out = -(t - self.center) / self.sigma**2 * self.value(t)
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class ProjectionResult:
    """Estimated natural-parameter rate of change and the matrix solved."""

    delta: np.ndarray
    fisher_used: FisherMatrix


def _window_grid(tk: TimeKernel, grid: np.ndarray) -> np.ndarray:
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 1 or grid.size < 41:
        raise ValueError("grid must be a 1-d array with at least 41 nodes")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing")
    lo, hi = tk.center - 5.0 * tk.sigma, tk.center + 5.0 * tk.sigma
    if grid[0] > lo or grid[-1] < hi:
        raise ValueError("grid must cover at least 5 sigma on each side of the window center")
    return grid


def default_grid(tk: TimeKernel, half_width_sigmas: float = 5.0, nodes: int = 81) -> np.ndarray:
    """Uniform quadrature grid covering the window support."""
    half = half_width_sigmas * tk.sigma
    return np.linspace(tk.center - half, tk.center + half, nodes)


def project_change_quadrature(
    fmap: FeatureMap,
    trajectory: Callable[[float], ParticleSet],
    tk: TimeKernel,
    grid: np.ndarray,
    jitter: float = 1e-6,
) -> ProjectionResult:
    """Quadrature estimate of the projected parameter change.

    Integrates the window-weighted feature covariance and the
    window-derivative-weighted feature mean over ``grid`` with the trapezoid
    rule, then solves the former against the negated latter.
    """
    grid = _window_grid(tk, grid)
    dim_t = fmap.feature_dim
    weights_cov = np.empty(grid.size)
    weights_mean = np.empty(grid.size)
    covs = np.empty((grid.size, dim_t, dim_t))
    means = np.empty((grid.size, dim_t))
    for k, t in enumerate(grid):
        pts = trajectory(float(t))
        if not isinstance(pts, ParticleSet):
            pts = ParticleSet(np.asarray(pts, dtype=np.float64), float(t))
        means[k], covs[k] = mean_and_covariance(fmap.features(pts.points))
        weights_cov[k] = tk.value(float(t))
        weights_mean[k] = tk.deriv(float(t))
    int_cov = np.trapezoid(weights_cov[:, None, None] * covs, x=grid, axis=0)
    int_mean = np.trapezoid(weights_mean[:, None] * means, x=grid, axis=0)
    fisher = FisherMatrix.from_covariance(int_cov, jitter, "window-integrated feature covariance")
    return ProjectionResult(delta=-fisher.solve(int_mean), fisher_used=fisher)


def project_change_limit(
    fmap: FeatureMap,
    particles: ParticleSet,
    velocities: np.ndarray,
    jitter: float = 1e-6,
) -> ProjectionResult:
    """Vanishing-window projection: Fisher solve of mean gradient-velocity contraction."""
    velocities = np.asarray(velocities, dtype=np.float64)
    if velocities.ndim == 1:
        velocities = velocities[:, None]
    if velocities.shape != particles.points.shape:
        raise ValueError(
            f"velocities shape {velocities.shape} does not match particles {particles.points.shape}"
        )
    feats, jac = fmap.derivatives(particles.points, 1)
    fisher = feature_moments(fmap, feats, jitter)[1]
    contraction = np.einsum("nad,nd->a", jac, velocities) / particles.n
    return ProjectionResult(delta=fisher.solve(contraction), fisher_used=fisher)


def alignment_residual(
    ngd_result: NatGradResult, projection: ProjectionResult, mode: str = "fisher"
) -> float:
    """Squared mismatch between a natural-gradient direction and a projection.

    ``euclidean`` compares the two coordinate vectors directly.  ``fisher``
    maps the projected change back through the Fisher matrix of the
    natural-gradient result and measures the gap to the feature-mean gap in
    the inverse-Fisher norm; the two modes agree after whitening by the
    Fisher Cholesky factor.
    """
    if mode not in ALIGNMENT_MODES:
        raise ValueError(f"mode must be one of {ALIGNMENT_MODES}, got {mode!r}")
    if mode == "euclidean":
        diff = ngd_result.natural_direction - projection.delta
        return float(diff @ diff)
    mapped = ngd_result.fisher.matrix @ projection.delta
    resid = ngd_result.gap - mapped
    return float(resid @ ngd_result.fisher.solve(resid))
