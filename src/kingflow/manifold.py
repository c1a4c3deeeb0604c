"""Feature maps defining exponential-family manifolds over particle states.

A feature map sends a point in ``R^d`` to a feature vector in ``R^m``; the
span of those features (as log-density coordinates) is the model family that
flows and projections operate on.  Every map exposes analytic first and
second derivatives, which the drift solvers and limit projections consume.

Maps are immutable and JSON-serializable via ``to_config`` /
``feature_map_from_config``.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._linalg import chol_solve, chol_spd, mean_and_covariance
from ._rng import as_generator
from .errors import SingularFisherError
from .kernels import _gaussian_gram, median_heuristic
from .particles import ParticleSet


class FeatureMap:
    """Base class for feature maps.

    Subclasses implement ``_features``, ``_jacobian`` and ``_hessian`` on
    ``(n, input_dim)`` batches; the public methods accept a single point or a
    batch and return matching shapes.
    """

    kind: str = ""
    input_dim: int
    feature_dim: int

    # -- public API ---------------------------------------------------------
    def features(self, x) -> np.ndarray:
        """Feature vector(s): ``(feature_dim,)`` for a point, ``(n, feature_dim)`` for a batch."""
        pts, single = self._prepare(x)
        out = self._features(pts)
        return out[0] if single else out

    def jacobian(self, x) -> np.ndarray:
        """Stacked feature gradients: ``(feature_dim, input_dim)`` per point."""
        pts, single = self._prepare(x)
        out = self._jacobian(pts)
        return out[0] if single else out

    def hessian(self, x) -> np.ndarray:
        """Per-feature Hessians: ``(feature_dim, input_dim, input_dim)`` per point."""
        pts, single = self._prepare(x)
        out = self._hessian(pts)
        return out[0] if single else out

    def to_config(self) -> dict:
        raise NotImplementedError

    # -- subclass hooks ------------------------------------------------------
    def _features(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _jacobian(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _hessian(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _prepare(self, x) -> tuple[np.ndarray, bool]:
        if isinstance(x, ParticleSet):
            if x.dim != self.input_dim:
                raise ValueError(
                    f"expected points of dimension {self.input_dim}, got {x.dim}"
                )
            return x.points, False
        arr = np.asarray(x, dtype=np.float64)
        single = arr.ndim == 1
        pts = arr[None, :] if single else arr
        if pts.ndim != 2 or pts.shape[1] != self.input_dim:
            raise ValueError(
                f"expected points of dimension {self.input_dim}, got shape {arr.shape}"
            )
        return pts, single


def vech_pairs(dim: int) -> list[tuple[int, int]]:
    """Row-major upper-triangle index pairs (0,0), (0,1), ..., (d-1,d-1)."""
    return [(i, j) for i in range(dim) for j in range(i, dim)]


def _pair_products(pts: np.ndarray, pairs, order: int) -> np.ndarray:
    """Values (``order=0``), gradients (1) or Hessians (2) of the products
    ``x_i * x_j`` over ``pairs``; a pair ``(i, i)`` adds both terms to one entry.
    """
    n, d = pts.shape
    rows = np.arange(len(pairs))
    i, j = np.array(pairs, dtype=int).reshape(len(pairs), 2).T
    if order == 0:
        return pts[:, i] * pts[:, j]
    if order == 1:
        out = np.zeros((n, len(pairs), d))
        out[:, rows, i] += pts[:, j]
        out[:, rows, j] += pts[:, i]
        return out
    out = np.zeros((n, len(pairs), d, d))
    out[:, rows, i, j] += 1.0
    out[:, rows, j, i] += 1.0
    return out


@dataclass(frozen=True)
class GaussianQuadraticMap(FeatureMap):
    """Linear plus quadratic monomials: the Gaussian family.

    Features are ``[x_1, ..., x_d]`` followed by the products ``x_i * x_j``
    over the upper triangle in row-major order, so for ``d = 2`` the vector is
    ``[x_1, x_2, x_1^2, x_1 x_2, x_2^2]``.
    """

    input_dim: int
    kind = "gaussian_quadratic"

    def __post_init__(self):
        if self.input_dim < 1:
            raise ValueError("input_dim must be positive")

    @property
    def feature_dim(self) -> int:
        d = self.input_dim
        return d + d * (d + 1) // 2

    def _features(self, pts):
        return np.concatenate([pts, _pair_products(pts, vech_pairs(self.input_dim), 0)], axis=1)

    def _jacobian(self, pts):
        n, d = pts.shape
        linear = np.broadcast_to(np.eye(d), (n, d, d))
        return np.concatenate([linear, _pair_products(pts, vech_pairs(d), 1)], axis=1)

    def _hessian(self, pts):
        n, d = pts.shape
        linear = np.zeros((n, d, d, d))
        return np.concatenate([linear, _pair_products(pts, vech_pairs(d), 2)], axis=1)

    def to_config(self):
        return {"kind": self.kind, "input_dim": self.input_dim}

    @staticmethod
    def from_config(cfg: dict) -> "GaussianQuadraticMap":
        return GaussianQuadraticMap(input_dim=int(cfg["input_dim"]))


@dataclass(frozen=True)
class RbfFeatureMap(FeatureMap):
    """Gaussian bumps centered at fixed anchor points.

    The features are the Gaussian Gram matrix between the points and the
    centres, built from one GEMM on the expanded squared distances; the
    derivatives scale the point-to-centre differences by those values.
    """

    centers: np.ndarray
    bandwidth: float
    kind = "rbf_features"

    def __post_init__(self):
        centers = np.asarray(self.centers, dtype=np.float64)
        if centers.ndim == 1:
            centers = centers[:, None]
        if centers.ndim != 2 or centers.shape[0] == 0:
            raise ValueError(f"centers must be a nonempty (m, d) array, got shape {centers.shape}")
        centers = centers.copy()
        centers.setflags(write=False)
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "bandwidth", float(self.bandwidth))
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")

    @property
    def input_dim(self) -> int:
        return self.centers.shape[1]

    @property
    def feature_dim(self) -> int:
        return self.centers.shape[0]

    def _diffs(self, pts):
        # diffs[i, r] = center_r - x_i
        return self.centers[None, :, :] - pts[:, None, :]

    def _features(self, pts):
        return _gaussian_gram(self.bandwidth, pts, self.centers)

    def _jacobian(self, pts):
        diffs = self._diffs(pts)
        diffs *= (self._features(pts) / self.bandwidth**2)[:, :, None]
        return diffs

    def _hessian(self, pts):
        diffs = self._diffs(pts)
        vals = self._features(pts)
        s2 = self.bandwidth**2
        outer = np.einsum("nrd,nre->nrde", diffs, diffs) / s2**2
        eye = np.eye(self.input_dim) / s2
        return vals[:, :, None, None] * (outer - eye)

    def to_config(self):
        return {
            "kind": self.kind,
            "centers": self.centers.tolist(),
            "bandwidth": self.bandwidth,
        }

    @staticmethod
    def from_config(cfg: dict) -> "RbfFeatureMap":
        return RbfFeatureMap(
            centers=np.asarray(cfg["centers"], dtype=np.float64),
            bandwidth=float(cfg["bandwidth"]),
        )


@dataclass(frozen=True)
class InformedPairwiseMap(FeatureMap):
    """RBF features augmented with selected coordinate products ``x_i * x_j``.

    The product features inject known interaction structure (for instance the
    edges of a graphical model) into an otherwise nonparametric family.
    """

    centers: np.ndarray
    bandwidth: float
    pairs: tuple[tuple[int, int], ...]
    kind = "informed_pairwise"

    def __post_init__(self):
        rbf = RbfFeatureMap(self.centers, self.bandwidth)
        object.__setattr__(self, "centers", rbf.centers)
        object.__setattr__(self, "bandwidth", rbf.bandwidth)
        pairs = tuple((int(i), int(j)) for i, j in self.pairs)
        for i, j in pairs:
            if not (0 <= i < self.input_dim and 0 <= j < self.input_dim):
                raise ValueError(f"pair ({i}, {j}) out of range for dimension {self.input_dim}")
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "_rbf", rbf)

    @property
    def input_dim(self) -> int:
        return self.centers.shape[1]

    @property
    def feature_dim(self) -> int:
        return self.centers.shape[0] + len(self.pairs)

    def _features(self, pts):
        return np.concatenate(
            [self._rbf._features(pts), _pair_products(pts, self.pairs, 0)], axis=1
        )

    def _jacobian(self, pts):
        return np.concatenate(
            [self._rbf._jacobian(pts), _pair_products(pts, self.pairs, 1)], axis=1
        )

    def _hessian(self, pts):
        return np.concatenate(
            [self._rbf._hessian(pts), _pair_products(pts, self.pairs, 2)], axis=1
        )

    def to_config(self):
        return {
            "kind": self.kind,
            "centers": self.centers.tolist(),
            "bandwidth": self.bandwidth,
            "pairs": [list(p) for p in self.pairs],
        }

    @staticmethod
    def from_config(cfg: dict) -> "InformedPairwiseMap":
        return InformedPairwiseMap(
            centers=np.asarray(cfg["centers"], dtype=np.float64),
            bandwidth=float(cfg["bandwidth"]),
            pairs=tuple((int(i), int(j)) for i, j in cfg["pairs"]),
        )


@dataclass(frozen=True)
class CustomLinearMap(FeatureMap):
    """Fixed linear features ``x -> W x``."""

    weight: np.ndarray
    kind = "custom_linear"

    def __post_init__(self):
        weight = np.atleast_2d(np.asarray(self.weight, dtype=np.float64)).copy()
        weight.setflags(write=False)
        object.__setattr__(self, "weight", weight)

    @property
    def input_dim(self) -> int:
        return self.weight.shape[1]

    @property
    def feature_dim(self) -> int:
        return self.weight.shape[0]

    def _features(self, pts):
        return pts @ self.weight.T

    def _jacobian(self, pts):
        return np.broadcast_to(
            self.weight, (pts.shape[0], *self.weight.shape)
        ).copy()

    def _hessian(self, pts):
        n, d = pts.shape
        return np.zeros((n, self.feature_dim, d, d))

    def to_config(self):
        return {"kind": self.kind, "weight": self.weight.tolist()}

    @staticmethod
    def from_config(cfg: dict) -> "CustomLinearMap":
        return CustomLinearMap(weight=np.asarray(cfg["weight"], dtype=np.float64))


_REGISTRY: dict[str, callable] = {
    GaussianQuadraticMap.kind: GaussianQuadraticMap.from_config,
    RbfFeatureMap.kind: RbfFeatureMap.from_config,
    InformedPairwiseMap.kind: InformedPairwiseMap.from_config,
    CustomLinearMap.kind: CustomLinearMap.from_config,
}


def register_feature_map(kind: str, from_config) -> None:
    """Register a deserializer for an externally defined feature-map kind."""
    _REGISTRY[kind] = from_config


def feature_map_from_config(cfg: dict) -> FeatureMap:
    """Rebuild a feature map from its ``to_config`` dictionary."""
    kind = cfg.get("kind")
    if kind not in _REGISTRY:
        raise ValueError(f"unknown feature map kind: {kind!r}")
    return _REGISTRY[kind](cfg)


@dataclass(frozen=True)
class FisherMatrix:
    """Feature covariance with its Cholesky factor and the jitter applied."""

    matrix: np.ndarray
    chol_lower: np.ndarray
    jitter_applied: float

    @classmethod
    def from_covariance(cls, cov: np.ndarray, jitter: float, what: str) -> "FisherMatrix":
        """Factor a feature covariance, diagonally loaded as ``chol_spd`` describes.

        Past the escalation cap a ``SingularFisherError`` naming ``what`` is raised.
        """
        try:
            loaded, lower, applied = chol_spd(cov, jitter)
        except np.linalg.LinAlgError as exc:
            raise SingularFisherError(
                f"{what} is not positive definite after jitter escalation"
            ) from exc
        return cls(matrix=loaded, chol_lower=lower, jitter_applied=applied)

    def solve(self, b: np.ndarray) -> np.ndarray:
        return chol_solve(self.chol_lower, b)


def feature_mean(fmap: FeatureMap, particles: ParticleSet) -> np.ndarray:
    """Empirical mean of the features over a particle set."""
    return fmap.features(particles.points).mean(axis=0)


def feature_moments(
    fmap: FeatureMap, particles: ParticleSet, jitter: float = 1e-6
) -> tuple[np.ndarray, FisherMatrix]:
    """Feature mean and Fisher estimate from one evaluation of the features.

    The Fisher matrix is the empirical feature covariance, diagonally loaded
    until factorizable as ``FisherMatrix.from_covariance`` describes.
    """
    if particles.n < 2:
        raise ValueError("the Fisher estimate needs at least 2 particles")
    mean, cov = mean_and_covariance(fmap.features(particles.points))
    return mean, FisherMatrix.from_covariance(cov, jitter, f"feature covariance ({fmap.kind})")


def fisher_estimate(
    fmap: FeatureMap, particles: ParticleSet, jitter: float = 1e-6
) -> FisherMatrix:
    """Empirical feature covariance, diagonally loaded until factorizable.

    See ``feature_moments`` for the loading rule.
    """
    return feature_moments(fmap, particles, jitter)[1]


def rbf_map_from_samples(
    samples: ParticleSet,
    n_centers: int = 50,
    bandwidth: float | None = None,
    bandwidth_samples: ParticleSet | None = None,
    bandwidth_scale: float = 1.0,
    seed=0,
) -> RbfFeatureMap:
    """Build an RBF map with centers drawn from ``samples`` without replacement.

    When ``bandwidth`` is None it is set by the median pairwise-distance
    heuristic over ``bandwidth_samples`` (default: ``samples``) times
    ``bandwidth_scale``; an explicit ``bandwidth`` is used as given.
    """
    rng = as_generator(seed)
    n = samples.n
    k = min(int(n_centers), n)
    idx = rng.choice(n, size=k, replace=False)
    centers = samples.points[np.sort(idx)]
    if bandwidth is None:
        pool = samples if bandwidth_samples is None else bandwidth_samples
        bandwidth = float(bandwidth_scale) * median_heuristic(pool)
    return RbfFeatureMap(centers=centers, bandwidth=bandwidth)
