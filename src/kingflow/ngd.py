"""Natural-gradient targets on feature manifolds.

The natural gradient of the KL divergence toward a target sample, taken in
the natural parameters of the family spanned by a feature map, is the feature
covariance inverse applied to the gap between target and model feature means.
Without a target sample the target feature mean is taken as zero, as it is
for Stein features under their score's density.
For the Gaussian quadratic family the update can additionally be carried out
exactly in closed-form natural coordinates; ``exact_ngd_step`` does that and
serves as the parametric reference trajectory for particle flows.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import is_spd, spd_factor, spd_inverse
from .errors import StepFailureError
from .manifold import (
    FeatureMap,
    FisherMatrix,
    GaussianQuadraticMap,
    feature_mean,
    feature_moments,
    vech_pairs,
)
from .particles import ParticleSet, _number, _real_array, as_particles


@dataclass(frozen=True)
class NatGradResult:
    """Feature-mean gap, the Fisher estimate used, and their solve."""

    gap: np.ndarray
    fisher: FisherMatrix
    natural_direction: np.ndarray


def natural_gradient_kl(
    fmap: FeatureMap,
    targets: ParticleSet | np.ndarray | None,
    particles: ParticleSet | np.ndarray,
) -> NatGradResult:
    """Monte Carlo natural gradient of KL(target || model) in natural coordinates.

    ``gap`` is the target minus model feature mean and ``natural_direction``
    is the Fisher solve of that gap.  With ``targets=None`` the target
    feature mean is zero, so Stein features need no target samples.  Point
    sets may be ``ParticleSet``s or arrays.
    """
    particles = as_particles(particles)
    if targets is not None:
        targets = as_particles(targets, dim=particles.dim)
    model_mean, fisher = feature_moments(fmap, particles)
    gap = -model_mean if targets is None else feature_mean(fmap, targets) - model_mean
    return NatGradResult(gap=gap, fisher=fisher, natural_direction=fisher.solve(gap))


@dataclass(frozen=True)
class GaussianNaturalParams:
    """Natural parameters of a full-covariance Gaussian.

    ``linear`` multiplies ``x`` and ``quadratic`` multiplies ``x x^T`` in the
    log density; ``-2 * quadratic`` must stay positive definite.
    """

    linear: np.ndarray
    quadratic: np.ndarray

    def __post_init__(self):
        lin = _real_array(self.linear, "linear", shape=(None,))
        quad = _real_array(self.quadratic, "quadratic", shape=(lin.size, lin.size))
        quad = 0.5 * (quad + quad.T)
        quad.setflags(write=False)
        object.__setattr__(self, "linear", lin)
        object.__setattr__(self, "quadratic", quad)

    @property
    def dim(self) -> int:
        return self.linear.size


def gaussian_moment_to_natural(mean: np.ndarray, cov: np.ndarray) -> GaussianNaturalParams:
    """Convert moment parameters (mean, covariance) to natural parameters.

    A covariance that is not positive definite raises ``ValueError``; no load is added.
    """
    mean = _real_array(mean, "mean", shape=(None,))
    precision = spd_inverse(cov, ValueError("cov must be positive definite"))
    _real_array(cov, "cov", shape=(mean.size, mean.size))
    return GaussianNaturalParams(linear=precision @ mean, quadratic=-0.5 * precision)


def gaussian_natural_to_moment(params: GaussianNaturalParams) -> tuple[np.ndarray, np.ndarray]:
    """Convert natural parameters back to (mean, covariance).

    Raises ``ValueError`` when ``-2 * quadratic`` is not positive definite.
    """
    cov = spd_inverse(
        -2.0 * params.quadratic, ValueError("natural parameters are outside the Gaussian domain")
    )
    return cov @ params.linear, cov


def sample_gaussian(mean: np.ndarray, cov: np.ndarray, n: int, seed) -> np.ndarray:
    """Draw ``n`` points from N(mean, cov), deterministic in the seed.

    A covariance that is not positive definite raises ``ValueError``; no load is added.
    """
    mean = _real_array(mean, "mean", shape=(None,))
    lower = spd_factor(cov, ValueError("cov must be positive definite"))
    _real_array(cov, "cov", shape=(mean.size, mean.size))
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((_number(n, "n", integral=True, positive=True), mean.size))
    return mean + z @ lower.T


def _pack_theta(params: GaussianNaturalParams) -> np.ndarray:
    """Flatten natural parameters into quadratic-feature coordinates.

    The layout matches ``GaussianQuadraticMap``: linear part first, then the
    row-major upper triangle of the quadratic part with off-diagonal entries
    doubled (each product feature ``x_i x_j`` with ``i != j`` absorbs both
    symmetric matrix entries).
    """
    i, j = np.array(vech_pairs(params.dim)).T
    tail = params.quadratic[i, j] * np.where(i == j, 1.0, 2.0)
    return np.concatenate([params.linear, tail])


def _unpack_theta(theta: np.ndarray, dim: int) -> GaussianNaturalParams:
    i, j = np.array(vech_pairs(dim)).T
    quad = np.zeros((dim, dim))
    quad[i, j] = quad[j, i] = theta[dim:] * np.where(i == j, 1.0, 0.5)
    return GaussianNaturalParams(linear=theta[:dim], quadratic=quad)


def exact_ngd_step(
    params: GaussianNaturalParams,
    targets: ParticleSet | np.ndarray,
    step: float,
    mc_samples: int = 4096,
    seed=0,
) -> GaussianNaturalParams:
    """One natural-gradient step on the Gaussian family in natural coordinates.

    The Fisher solve is estimated from ``mc_samples`` fresh model draws.  If
    the full step leaves the Gaussian domain the step is halved, up to 10
    times, before raising ``StepFailureError``.
    """
    step = _number(step, "step", positive=True)
    mc_samples = _number(mc_samples, "mc_samples", integral=True, positive=True)
    mean, cov = gaussian_natural_to_moment(params)
    draws = sample_gaussian(mean, cov, mc_samples, seed)
    model_particles = ParticleSet(draws)
    fmap = GaussianQuadraticMap(params.dim)
    result = natural_gradient_kl(fmap, targets, model_particles)
    theta = _pack_theta(params)
    for halving in range(11):
        candidate = _unpack_theta(
            theta + (step / 2**halving) * result.natural_direction, params.dim
        )
        if is_spd(-2.0 * candidate.quadratic):
            return candidate
    raise StepFailureError("natural-gradient step left the Gaussian domain after 10 halvings")
