"""Stein features: zero-mean statistics built from a known target score.

Applying the score operator ``f -> s_c(x) f(x) + d f / d x_c`` to base
features produces statistics whose expectation under the score's density is
zero.  Flows on the resulting manifold therefore need no target samples: the
feature-mean gap reduces to the negated model feature mean, and its Fisher
solve, ``natural_gradient_kl(smap, None, particles)``, is the sampling
analogue of the natural gradient.

Each base feature ``i`` is paired with coordinate ``c = i mod d`` by default;
``mode="full"`` instead crosses every feature with every coordinate.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .kernels import _check_fields
from .manifold import (
    Configurable,
    FeatureMap,
    feature_map_from_config,
    register_feature_map,
)
from .particles import _number, _real_array, as_particles

STEIN_MODES = ("paired", "full")


@dataclass(frozen=True)
class GaussianScore(Configurable):
    """Score of a diagonal-covariance Gaussian."""

    mean: np.ndarray
    variances: np.ndarray
    kind = "gaussian"

    def __post_init__(self):
        mean = _real_array(self.mean, "mean", shape=(None,))
        variances = _real_array(self.variances, "variances", shape=mean.shape)
        if np.any(variances <= 0):
            raise ValueError("variances must be positive")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "variances", variances)

    @property
    def dim(self) -> int:
        return self.mean.size

    def score(self, pts) -> np.ndarray:
        return (self.mean - as_particles(pts, dim=self.dim).points) / self.variances

    def score_jacobian(self, pts) -> np.ndarray:
        n = as_particles(pts, dim=self.dim).n
        return np.broadcast_to(-np.diag(1.0 / self.variances), (n, self.dim, self.dim)).copy()

    def sample(self, n: int, seed) -> np.ndarray:
        n = _number(n, "n", integral=True, positive=True)
        rng = np.random.default_rng(seed)
        return self.mean + rng.standard_normal((n, self.dim)) * np.sqrt(self.variances)


@dataclass(frozen=True)
class GaussianMixtureScore(Configurable):
    """Score of an equal-weight isotropic Gaussian mixture."""

    means: np.ndarray
    sigma: float
    kind = "gaussian_mixture"

    def __post_init__(self):
        means = _real_array(np.atleast_2d(self.means), "means", shape=(None, None))
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "sigma", _number(self.sigma, "sigma", positive=True))

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def _weights(self, pts: np.ndarray) -> np.ndarray:
        """The components' posterior weights ``r`` at each point, shape ``(n, k)``."""
        logits = -cdist(pts, self.means, "sqeuclidean") / (2.0 * self.sigma**2)
        logits -= logits.max(axis=1, keepdims=True)
        resp = np.exp(logits)
        resp /= resp.sum(axis=1, keepdims=True)
        return resp

    def _responsibilities(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``_weights`` and the differences ``mu_k - x``, shape ``(n, k, d)``."""
        return self._weights(pts), self.means[None, :, :] - pts[:, None, :]

    def score(self, pts) -> np.ndarray:
        """``sum_k r_k (mu_k - x) / sigma^2``, as ``(r @ means - x) / sigma^2`` on centred points."""
        pts = as_particles(pts, dim=self.dim).points
        centre = self.means.mean(axis=0)
        return (self._weights(pts) @ (self.means - centre) - (pts - centre)) / self.sigma**2

    def score_jacobian(self, pts) -> np.ndarray:
        """Hessian of the mixture log density at each point."""
        resp, diffs = self._responsibilities(as_particles(pts, dim=self.dim).points)
        comp = diffs / self.sigma**2  # per-component score (n, k, d)
        mean_comp = np.einsum("nk,nkd->nd", resp, comp, optimize=True)
        second = np.einsum("nk,nkd,nke->nde", resp, comp, comp, optimize=True)
        outer = np.einsum("nd,ne->nde", mean_comp, mean_comp)
        eye = np.eye(self.dim) / self.sigma**2
        return second - outer - eye

    def sample(self, n: int, seed) -> np.ndarray:
        n = _number(n, "n", integral=True, positive=True)
        rng = np.random.default_rng(seed)
        comps = rng.integers(0, self.means.shape[0], size=n)
        return self.means[comps] + rng.standard_normal((n, self.dim)) * self.sigma


_SCORE_KINDS = {cls.kind: cls.from_config for cls in (GaussianScore, GaussianMixtureScore)}


def score_from_config(cfg: dict):
    kind = cfg.get("kind") if isinstance(cfg, dict) else None
    if kind not in _SCORE_KINDS:
        raise ValueError(f"unknown score kind: {kind!r}")
    return _SCORE_KINDS[kind](cfg)


@dataclass(frozen=True)
class SteinFeatureMap(FeatureMap):
    """Score-operator images of a base feature map."""

    base: FeatureMap
    target: object
    mode: str = "paired"
    kind = "stein"

    def __post_init__(self):
        if self.mode not in STEIN_MODES:
            raise ValueError(f"mode must be one of {STEIN_MODES}, got {self.mode!r}")
        if self.target.dim != self.base.input_dim:
            raise ValueError(
                f"score dimension {self.target.dim} does not match base input {self.base.input_dim}"
            )
        # Stein feature k is the score operator along coords[k] applied to base row rows[k].
        b, d = self.base.feature_dim, self.input_dim
        if self.mode == "paired":
            rows, coords = np.arange(b), np.arange(b) % d
        else:
            rows, coords = np.repeat(np.arange(b), d), np.tile(np.arange(d), b)
        object.__setattr__(self, "_pairing", (rows, coords))

    @property
    def input_dim(self) -> int:
        return self.base.input_dim

    @property
    def feature_dim(self) -> int:
        return self._pairing[0].size

    def _derivatives(self, pts, order):
        if order == 2:
            raise NotImplementedError("second derivatives of Stein features are not provided")
        base = self.base._derivatives(pts, order + 1)
        score = self.target.score(pts)
        rows, coords = self._pairing
        feats = score[:, coords] * base[0][:, rows] + base[1][:, rows, coords]
        if order == 0:
            return (feats,)
        # d/dx of s_c f_i + d f_i/dx_c, row by row:
        #   f_i * (ds_c/dx) + s_c * (df_i/dx) + (Hessian f_i)[c, :]
        score_jac = self.target.score_jacobian(pts)
        return feats, (
            base[0][:, rows, None] * score_jac[:, coords, :]
            + score[:, coords, None] * base[1][:, rows, :]
            + base[2][:, rows, coords, :]
        )

    def to_config(self):
        return {
            "kind": self.kind,
            "base": self.base.to_config(),
            "score": self.target.to_config(),
            "mode": self.mode,
        }

    @staticmethod
    def from_config(cfg):
        _check_fields(cfg, ("base", "score"), ("mode",))
        return SteinFeatureMap(
            base=feature_map_from_config(cfg["base"]),
            target=score_from_config(cfg["score"]),
            mode=cfg.get("mode", "paired"),
        )


register_feature_map(SteinFeatureMap.kind, SteinFeatureMap.from_config)

