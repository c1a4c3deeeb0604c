"""Seeded synthetic datasets for the experiment scenarios."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._linalg import is_spd, spd_factor, spd_inverse
from ..metrics import fit_gaussian
from ..ngd import sample_gaussian
from ..particles import ParticleSet, _number, _real_array, as_particles


def gen_gaussian_mixture(
    dim: int,
    means: np.ndarray,
    weights: np.ndarray,
    n: int,
    seed,
    component_sd: float = 1.0,
) -> ParticleSet:
    """Sample an isotropic Gaussian mixture by component-then-point draws.

    Scalar entries of ``means`` are broadcast to constant vectors.  Weights
    must be nonnegative and sum to 1 within 1e-8.
    """
    dim = _number(dim, "dim", integral=True, positive=True)
    n = _number(n, "n", integral=True, positive=True)
    component_sd = _number(component_sd, "component_sd", positive=True)
    means = [np.full(dim, _number(m, "means")) if np.ndim(m) == 0 else m for m in means]
    centers = _real_array(means, "means", shape=(None, dim))
    weights = _real_array(weights, "weights", shape=(len(centers),))
    if np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-8:
        raise ValueError("weights must be nonnegative and sum to 1")
    rng = np.random.default_rng(seed)
    comps = rng.choice(len(centers), size=n, p=weights)
    pts = centers[comps] + component_sd * rng.standard_normal((n, dim))
    return ParticleSet(pts)


def gen_scurve(n: int, noise_sd: float = 0.0, seed=0) -> ParticleSet:
    """Points on an S-shaped 3-d curve sheet with optional Gaussian noise.

    Clean coordinates satisfy x in [-1, 1], y in [-2, 2], z in [0, 2].
    """
    n = _number(n, "n", integral=True, positive=True)
    noise_sd = _number(noise_sd, "noise_sd")
    if noise_sd < 0:
        raise ValueError(f"noise_sd must be nonnegative, got {noise_sd!r}")
    rng = np.random.default_rng(seed)
    u = rng.uniform(-1.5 * np.pi, 1.5 * np.pi, size=n)
    v = rng.uniform(0.0, 2.0, size=n)
    pts = np.stack([np.sin(u), np.sign(u) * (np.cos(u) - 1.0), v], axis=1)
    if noise_sd > 0:
        pts = pts + noise_sd * rng.standard_normal(pts.shape)
    return ParticleSet(pts)


@dataclass(frozen=True)
class GgmSpec:
    """A random sparse Gaussian graphical model.

    The precision matrix has unit diagonal, value ``edge_value`` on sampled
    edges, and is diagonally loaded by the fewest steps of 0.05 that make it
    positive definite; loading never changes the edge support.
    """

    dim: int = 30
    edge_prob: float = 0.05
    edge_value: float = 0.3
    seed: int = 0

    def __post_init__(self):
        for name in ("dim", "edge_prob", "edge_value", "seed"):
            integral = name in ("dim", "seed")
            object.__setattr__(self, name, _number(getattr(self, name), name, integral=integral))
        if self.dim < 2:
            raise ValueError(f"dim must be at least 2, got {self.dim}")
        if not 0.0 <= self.edge_prob <= 1.0:
            raise ValueError(f"edge_prob must lie in [0, 1], got {self.edge_prob}")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        rng = np.random.default_rng(self.seed)
        adj = np.zeros((self.dim, self.dim), dtype=bool)
        iu = np.triu_indices(self.dim, k=1)
        edges = rng.random(iu[0].size) < self.edge_prob
        adj[iu[0][edges], iu[1][edges]] = True
        adj |= adj.T
        precision = unloaded = np.eye(self.dim) + self.edge_value * adj
        if not is_spd(unloaded):
            # One step below the count the smallest eigenvalue asks for, then
            # up while rounding leaves the Cholesky factorization failing.
            # (The first eigvalsh call maps about 0.6 MiB of LAPACK, so an
            # unloaded graph skips it.)
            steps = max(int(-np.linalg.eigvalsh(unloaded).min() // 0.05), 0)
            while not is_spd(precision := unloaded + 0.05 * steps * np.eye(self.dim)):
                steps += 1
        adj.setflags(write=False)
        precision.setflags(write=False)
        object.__setattr__(self, "adjacency", adj)
        object.__setattr__(self, "precision", precision)

    @property
    def edges(self) -> list[tuple[int, int]]:
        iu = np.triu_indices(self.dim, k=1)
        mask = self.adjacency[iu]
        return [(int(i), int(j)) for i, j in zip(iu[0][mask], iu[1][mask])]

    @property
    def covariance(self) -> np.ndarray:
        lower = spd_factor(self.precision, ValueError("precision must be positive definite"))
        inv_lower = np.linalg.inv(lower)
        cov = inv_lower.T @ inv_lower
        return 0.5 * (cov + cov.T)


def gen_ggm_samples(spec: GgmSpec, n: int, seed) -> ParticleSet:
    """Zero-mean samples from the graphical model."""
    return ParticleSet(sample_gaussian(np.zeros(spec.dim), spec.covariance, n, seed))


def rotate_dataset(points, degrees: float) -> ParticleSet:
    """Rotate the first two coordinates clockwise by ``degrees``.

    Positive angles turn (0, 1) toward (1, 0); remaining coordinates pass
    through unchanged.
    """
    pset = as_particles(points)
    if pset.dim < 2:
        raise ValueError("rotation needs at least 2 coordinates")
    angle = np.deg2rad(_number(degrees, "degrees"))
    rot = np.array(
        [[np.cos(angle), np.sin(angle)], [-np.sin(angle), np.cos(angle)]]
    )
    out = pset.points.copy()
    out[:, :2] = pset.points[:, :2] @ rot.T
    return ParticleSet(out, pset.t)


def precision_support(points, threshold: float = 0.1) -> np.ndarray:
    """Off-diagonal support of the inverse of the ``fit_gaussian`` covariance.

    Entry ``(i, j)`` is True when the fitted precision exceeds ``threshold``
    in absolute value; the diagonal is always False.
    """
    threshold = _number(threshold, "threshold", positive=True)
    _, cov = fit_gaussian(points)
    precision = spd_inverse(cov, ValueError("sample covariance is singular"))
    support = np.abs(precision) > threshold
    np.fill_diagonal(support, False)
    return support
