"""Feature maps defining exponential-family manifolds over particle states.

A feature map sends a point in ``R^d`` to a feature vector in ``R^m``; the
span of those features (as log-density coordinates) is the model family that
flows and projections operate on.  Every map implements one hook,
``_derivatives(pts, order)``, returning the features and their analytic
derivatives up to ``order`` from one pass that builds shared intermediates
(such as the RBF Gram) once.  ``FeatureMap.derivatives`` is its public form;
the drift solvers and limit projections take features and Jacobian from one
``derivatives(points, 1)`` call.

Maps are immutable and JSON-serializable via ``to_config`` /
``feature_map_from_config``; ``Configurable`` writes that round trip once for
every map and score whose dataclass fields are its config.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from ._linalg import FISHER_JITTER, chol_solve, chol_spd, mean_and_covariance
from .errors import SingularFisherError
from .kernels import _check_fields, _gaussian_gram, median_heuristic
from .particles import ParticleSet, _ndim, _number, _real_array, as_particles


class Configurable:
    """Config round trip of a frozen dataclass whose fields are its config.

    ``to_config`` lists ``kind`` and every field as plain JSON values;
    ``from_config`` passes exactly those fields to the constructor, whose
    ``__post_init__`` checks and coerces them.
    """

    kind: str = ""

    def to_config(self) -> dict:
        values = {f.name: np.asarray(getattr(self, f.name)).tolist() for f in fields(self)}
        return {"kind": self.kind, **values}

    @classmethod
    def from_config(cls, cfg: dict):
        _check_fields(cfg, [f.name for f in fields(cls)])
        return cls(**{k: v for k, v in cfg.items() if k != "kind"})


class FeatureMap(Configurable):
    """Base class for feature maps.

    Subclasses implement the one hook ``_derivatives(pts, order)`` on an
    ``(n, input_dim)`` batch: it returns the tuple ``(features, jacobian,
    hessian)`` cut after ``order`` (0, 1 or 2), with shapes ``(n, m)``,
    ``(n, m, d)`` and ``(n, m, d, d)``.  ``derivatives`` and its one-line
    views ``features``, ``jacobian`` and ``hessian`` accept a single point or
    a batch and return matching shapes.
    """

    input_dim: int
    feature_dim: int

    # -- public API ---------------------------------------------------------
    def derivatives(self, x, order: int) -> tuple[np.ndarray, ...]:
        """Features and their derivatives up to ``order`` from one pass."""
        order = _number(order, "order", integral=True)
        if not 0 <= order <= 2:
            raise ValueError(f"order must be 0, 1 or 2, got {order!r}")
        pts, single = self._prepare(x)
        out = self._derivatives(pts, order)
        return tuple(a[0] for a in out) if single else out

    def features(self, x) -> np.ndarray:
        """Feature vector(s): ``(feature_dim,)`` for a point, ``(n, feature_dim)`` for a batch."""
        return self.derivatives(x, 0)[0]

    def jacobian(self, x) -> np.ndarray:
        """Stacked feature gradients: ``(feature_dim, input_dim)`` per point."""
        return self.derivatives(x, 1)[1]

    def hessian(self, x) -> np.ndarray:
        """Per-feature Hessians: ``(feature_dim, input_dim, input_dim)`` per point."""
        return self.derivatives(x, 2)[2]

    # -- subclass hook -------------------------------------------------------
    def _derivatives(self, pts: np.ndarray, order: int) -> tuple[np.ndarray, ...]:
        raise NotImplementedError

    def _prepare(self, x) -> tuple[np.ndarray, bool]:
        """The points of ``x`` as checked by ``as_particles``; a 1-D array is one point."""
        single = not isinstance(x, ParticleSet) and np.ndim(x) == 1
        return as_particles([x] if single else x, dim=self.input_dim).points, single


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
        input_dim = _number(self.input_dim, "input_dim", integral=True, positive=True)
        object.__setattr__(self, "input_dim", input_dim)

    @property
    def feature_dim(self) -> int:
        d = self.input_dim
        return d + d * (d + 1) // 2

    def _derivatives(self, pts, order):
        n, d = pts.shape
        linear = [pts]
        if order >= 1:
            linear.append(np.broadcast_to(np.eye(d), (n, d, d)))
        if order == 2:
            linear.append(np.zeros((n, d, d, d)))
        pairs = vech_pairs(d)
        return tuple(
            np.concatenate([block, _pair_products(pts, pairs, k)], axis=1)
            for k, block in enumerate(linear)
        )


@dataclass(frozen=True)
class RbfFeatureMap(FeatureMap):
    """Gaussian bumps centered at fixed anchor points.

    The features are the Gaussian Gram matrix between the points and the
    centres, built from scipy's direct squared distances; the derivatives
    scale the point-to-centre differences by those values.
    """

    centers: np.ndarray
    bandwidth: float
    kind = "rbf_features"

    def __post_init__(self):
        centers = self.centers
        if _ndim(centers) == 1:  # one coordinate per centre
            centers = np.reshape(centers, (-1, 1))
        object.__setattr__(self, "centers", _real_array(centers, "centers", shape=(None, None)))
        object.__setattr__(self, "bandwidth", _number(self.bandwidth, "bandwidth", positive=True))

    @property
    def input_dim(self) -> int:
        return self.centers.shape[1]

    @property
    def feature_dim(self) -> int:
        return self.centers.shape[0]

    def _derivatives(self, pts, order):
        vals = _gaussian_gram(self.bandwidth, pts, self.centers)
        if order == 0:
            return (vals,)
        s2 = self.bandwidth**2
        # diffs[i, r] = center_r - x_i, scaled in place unless the Hessian needs it
        diffs = self.centers[None, :, :] - pts[:, None, :]
        jac = np.multiply(diffs, (vals / s2)[:, :, None], out=diffs if order == 1 else None)
        if order == 1:
            return vals, jac
        outer = np.einsum("nrd,nre->nrde", diffs, diffs) / s2**2
        eye = np.eye(self.input_dim) / s2
        return vals, jac, vals[:, :, None, None] * (outer - eye)


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
        pairs = tuple(tuple(_number(k, "pair index", integral=True) for k in p) for p in self.pairs)
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

    def _derivatives(self, pts, order):
        return tuple(
            np.concatenate([rbf, _pair_products(pts, self.pairs, k)], axis=1)
            for k, rbf in enumerate(self._rbf._derivatives(pts, order))
        )


@dataclass(frozen=True)
class CustomLinearMap(FeatureMap):
    """Fixed linear features ``x -> W x``."""

    weight: np.ndarray
    kind = "custom_linear"

    def __post_init__(self):
        weight = self.weight if _ndim(self.weight) is None else np.atleast_2d(self.weight)
        weight = _real_array(weight, "weight", shape=(None, None))
        object.__setattr__(self, "weight", weight)

    @property
    def input_dim(self) -> int:
        return self.weight.shape[1]

    @property
    def feature_dim(self) -> int:
        return self.weight.shape[0]

    def _derivatives(self, pts, order):
        n, d = pts.shape
        out = [pts @ self.weight.T]
        if order >= 1:
            out.append(np.broadcast_to(self.weight, (n, *self.weight.shape)).copy())
        if order == 2:
            out.append(np.zeros((n, self.feature_dim, d, d)))
        return tuple(out)


_REGISTRY: dict[str, callable] = {
    cls.kind: cls.from_config
    for cls in (GaussianQuadraticMap, RbfFeatureMap, InformedPairwiseMap, CustomLinearMap)
}


def register_feature_map(kind: str, from_config) -> None:
    """Register a deserializer for an externally defined feature-map kind."""
    _REGISTRY[kind] = from_config


def feature_map_from_config(cfg: dict) -> FeatureMap:
    """Rebuild a feature map from its ``to_config`` dict; anything else raises ``ValueError``."""
    kind = cfg.get("kind") if isinstance(cfg, dict) else None
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
    def from_covariance(cls, cov: np.ndarray, what: str) -> "FisherMatrix":
        """Factor a feature covariance, diagonally loaded as ``chol_spd`` describes.

        The relative load starts at ``FISHER_JITTER``.  Past the escalation cap,
        or for a covariance with a non-finite entry, a ``SingularFisherError``
        naming ``what`` is raised.
        """
        try:
            loaded, lower, applied = chol_spd(cov, FISHER_JITTER)
        except np.linalg.LinAlgError as exc:  # a ValueError, so caught first
            raise SingularFisherError(
                f"{what} is not positive definite after jitter escalation"
            ) from exc
        except ValueError as exc:
            raise SingularFisherError(f"{what} cannot be factored: {exc}") from exc
        return cls(matrix=loaded, chol_lower=lower, jitter_applied=applied)

    def solve(self, b: np.ndarray) -> np.ndarray:
        return chol_solve(self.chol_lower, b)


def feature_mean(fmap: FeatureMap, particles: ParticleSet | np.ndarray) -> np.ndarray:
    """Empirical mean of the features over a particle set."""
    return fmap.features(as_particles(particles)).mean(axis=0)


def feature_moments(
    fmap: FeatureMap, particles: ParticleSet | np.ndarray
) -> tuple[np.ndarray, FisherMatrix]:
    """Feature mean and Fisher estimate from one evaluation of the features.

    ``particles`` is a ``ParticleSet``, whose features are evaluated here, or
    the ``(n, feature_dim)`` features a caller already evaluated at one.  The
    Fisher matrix is the empirical feature covariance, diagonally loaded
    from a relative ``FISHER_JITTER`` until factorizable as
    ``FisherMatrix.from_covariance`` describes.
    """
    if isinstance(particles, ParticleSet):
        particles = fmap.features(particles)
    else:
        # a non-finite feature is a singular Fisher, and bool features, as an
        # array or nested lists, a sample of zeros and ones
        if _ndim(particles) is not None:
            particles = np.asarray(particles)
            if particles.dtype == np.bool_:
                particles = particles.astype(np.float64)
        shape = (None, fmap.feature_dim)
        particles = _real_array(particles, "particles", shape=shape, finite=False)
    if particles.shape[0] < 2:
        raise ValueError("the Fisher estimate needs at least 2 particles")
    mean, cov = mean_and_covariance(particles)
    return mean, FisherMatrix.from_covariance(cov, f"feature covariance ({fmap.kind})")


def rbf_map_from_samples(
    samples: ParticleSet | np.ndarray,
    n_centers: int = 50,
    bandwidth: float | None = None,
    bandwidth_samples: ParticleSet | np.ndarray | None = None,
    bandwidth_scale: float = 1.0,
    seed=0,
) -> RbfFeatureMap:
    """Build an RBF map with centers drawn from ``samples`` without replacement.

    When ``bandwidth`` is None it is set by the median pairwise-distance
    heuristic over ``bandwidth_samples`` (default: ``samples``) times
    ``bandwidth_scale``; an explicit ``bandwidth`` is used as given.
    """
    samples = as_particles(samples)
    k = min(_number(n_centers, "n_centers", integral=True, positive=True), samples.n)
    bandwidth_scale = _number(bandwidth_scale, "bandwidth_scale", positive=True)
    rng = np.random.default_rng(seed)
    idx = rng.choice(samples.n, size=k, replace=False)
    centers = samples.points[np.sort(idx)]
    if bandwidth is None:
        pool = samples if bandwidth_samples is None else bandwidth_samples
        bandwidth = bandwidth_scale * median_heuristic(as_particles(pool, dim=samples.dim))
    return RbfFeatureMap(centers=centers, bandwidth=bandwidth)
