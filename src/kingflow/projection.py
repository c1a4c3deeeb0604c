"""Projection of a moving particle distribution onto a feature manifold.

Given a time-indexed family of particle sets, the instantaneous motion of the
underlying distribution is summarized by the rate of change of the natural
parameters of the best-matching family member.  Two estimators are provided:

* ``project_change_quadrature`` integrates feature means and covariances
  against a narrow Gaussian time window and its derivative on the fixed
  81-node grid ``default_grid``, which spans 5 window sigmas on each side of
  the window center.
* ``project_change_limit`` is the vanishing-window closed form: a Fisher
  solve of the mean feature-gradient contraction with the particle
  velocities.

Both return the parameter change as an array.  ``alignment_residual``
measures how far such a change is from a natural-gradient reference
direction, either in Euclidean or in local Fisher geometry.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._linalg import mean_and_covariance
from .manifold import FeatureMap, FisherMatrix, feature_moments
from .ngd import NatGradResult
from .particles import ParticleSet, _ndim, _number, _real_array, as_particles

ALIGNMENT_MODES = ("euclidean", "fisher")

# ``default_grid`` covers this many window sigmas on each side of the center
# and spaces this many nodes over that span.
_WINDOW_SIGMAS = 5.0
_GRID_NODES = 81


@dataclass(frozen=True)
class TimeKernel:
    """Normalized Gaussian window in time, centered at ``center``."""

    center: float
    sigma: float

    def __post_init__(self):
        object.__setattr__(self, "center", _number(self.center, "center"))
        object.__setattr__(self, "sigma", _number(self.sigma, "sigma", positive=True))

    def value(self, t: np.ndarray | float) -> np.ndarray | float:
        """The window at a time, or at each of a 1-D array of times."""
        t = _real_array(t, "t", shape=() if _ndim(t) == 0 else (None,))
        z = (t - self.center) / self.sigma
        return np.exp(-0.5 * z**2) / np.sqrt(2.0 * np.pi * self.sigma**2)

    def deriv(self, t: np.ndarray | float) -> np.ndarray | float:
        """Derivative of the window with respect to time, taken as ``value`` takes ``t``."""
        t = _real_array(t, "t", shape=() if _ndim(t) == 0 else (None,))
        return -(t - self.center) / self.sigma**2 * self.value(t)


def default_grid(tk: TimeKernel) -> np.ndarray:
    """Uniform 81-node quadrature grid covering 5 sigma on each side of the window center."""
    half = _WINDOW_SIGMAS * tk.sigma
    return np.linspace(tk.center - half, tk.center + half, _GRID_NODES)


def project_change_quadrature(
    fmap: FeatureMap,
    trajectory: Callable[[float], ParticleSet],
    tk: TimeKernel,
) -> np.ndarray:
    """Quadrature estimate of the projected parameter change.

    Integrates the window-weighted feature covariance and the
    window-derivative-weighted feature mean over ``default_grid(tk)`` with
    the trapezoid rule, then solves the former against the negated latter.
    """
    grid = default_grid(tk)
    moments = [
        mean_and_covariance(fmap.features(as_particles(trajectory(t), t)))
        for t in grid.tolist()
    ]
    means = np.array([mean for mean, _ in moments])
    covs = np.array([cov for _, cov in moments])
    int_cov = np.trapezoid(tk.value(grid)[:, None, None] * covs, x=grid, axis=0)
    int_mean = np.trapezoid(tk.deriv(grid)[:, None] * means, x=grid, axis=0)
    fisher = FisherMatrix.from_covariance(int_cov, "window-integrated feature covariance")
    return -fisher.solve(int_mean)


def project_change_limit(
    fmap: FeatureMap,
    particles: ParticleSet | np.ndarray,
    velocities: np.ndarray,
) -> np.ndarray:
    """Vanishing-window projection: Fisher solve of mean gradient-velocity contraction."""
    particles = as_particles(particles, dim=fmap.input_dim)
    if _ndim(velocities) == 1:  # one velocity coordinate per particle
        velocities = np.reshape(velocities, (-1, 1))
    velocities = _real_array(velocities, "velocities", shape=particles.points.shape)
    feats, jac = fmap.derivatives(particles, 1)
    fisher = feature_moments(fmap, feats)[1]
    contraction = np.einsum("nad,nd->a", jac, velocities) / particles.n
    return fisher.solve(contraction)


def alignment_residual(ngd_result: NatGradResult, delta: np.ndarray, mode: str = "fisher") -> float:
    """Squared mismatch between a natural-gradient direction and a projected change.

    ``euclidean`` compares the two coordinate vectors directly.  ``fisher``
    maps the change ``delta`` back through the Fisher matrix of the
    natural-gradient result and measures the gap to the feature-mean gap in
    the inverse-Fisher norm; the two modes agree after whitening by the
    Fisher Cholesky factor.  ``delta`` must have the gap's shape.
    """
    if mode not in ALIGNMENT_MODES:
        raise ValueError(f"mode must be one of {ALIGNMENT_MODES}, got {mode!r}")
    delta = _real_array(delta, "delta", shape=ngd_result.gap.shape)
    if mode == "euclidean":
        diff = ngd_result.natural_direction - delta
        return float(diff @ diff)
    mapped = ngd_result.fisher.matrix @ delta
    resid = ngd_result.gap - mapped
    return float(resid @ ngd_result.fisher.solve(resid))
