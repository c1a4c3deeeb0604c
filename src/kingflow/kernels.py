"""Kernels used by the drift solvers.

Three kinds are supported:

* ``rbf_scalar`` - the Gaussian kernel; its mixed second derivative matrix
  feeds the curvature-aware drift path.
* ``diagonalized_scalar`` - a Gaussian kernel applied as ``k(x, y) * I``,
  used where the drift construction replaces the mixed derivative block
  with a scalar kernel times the identity.
* ``empirical_ntk`` - the matrix-valued tangent kernel of a randomly
  initialized one-hidden-layer tanh network, evaluated in closed form.

``median_heuristic`` provides the default bandwidth rule: the median of all
pairwise Euclidean distances of the pooled points.  ``PooledMedian`` gives
the same value, bitwise, against a flow's fixed target set.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass

import numpy as np
from scipy.spatial.distance import cdist, pdist

from .particles import as_particles

RBF_SCALAR = "rbf_scalar"
DIAGONALIZED_SCALAR = "diagonalized_scalar"
EMPIRICAL_NTK = "empirical_ntk"
KERNEL_KINDS = (RBF_SCALAR, DIAGONALIZED_SCALAR, EMPIRICAL_NTK)

# Values per block of a row-blocked pass over pairwise quantities (1 MiB).
_BLOCK_VALUES = 1 << 17


def _number(value, name: str, integral: bool = False):
    """``value`` as a finite float, or an int if ``integral``; bools, text and fractions raise."""
    if isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_)):
        if not integral or isinstance(value, numbers.Integral) or float(value).is_integer():
            number = int(value) if integral else float(value)
            if integral or math.isfinite(number):
                return number
    kind = "an integer" if integral else "a finite number"
    raise ValueError(f"{name} must be {kind}, got {value!r}")


def _real_array(value, name: str) -> np.ndarray:
    """A new read-only float64 array of ``value``, which must hold finite numbers only."""
    arr = np.asarray(value)
    if arr.dtype.kind not in "iuf":
        raise ValueError(f"{name} must hold numbers, got {value!r}")
    arr = arr.astype(np.float64)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must hold finite numbers, got {value!r}")
    arr.setflags(write=False)
    return arr


def _check_fields(cfg: dict, required, optional=()) -> None:
    """Raise ``ValueError`` naming each field of ``cfg`` (bar ``kind``) unknown or missing."""
    unknown = sorted(set(cfg) - {"kind", *required, *optional})
    missing = sorted(set(required) - set(cfg))
    if unknown or missing:
        raise ValueError(f"{cfg.get('kind')} config: unknown fields {unknown}, missing {missing}")


@dataclass(frozen=True)
class NtkSpec:
    """Frozen random one-hidden-layer tanh network defining a tangent kernel.

    Weights are drawn once from the seed with variance ``1/fan_in`` and the
    kernel is the Gram matrix of network-output gradients with respect to all
    weights and biases, summed in closed form over the hidden layer.
    """

    input_dim: int
    hidden_width: int = 64
    seed: int = 0

    def __post_init__(self):
        for name in ("input_dim", "hidden_width", "seed"):
            object.__setattr__(self, name, _number(getattr(self, name), name, integral=True))
        if self.input_dim < 1 or self.hidden_width < 1:
            raise ValueError("input_dim and hidden_width must be positive")
        rng = np.random.default_rng(self.seed)
        d, h = self.input_dim, self.hidden_width
        w1 = rng.normal(0.0, 1.0 / np.sqrt(d), size=(h, d))
        b1 = rng.normal(0.0, 1.0 / np.sqrt(d), size=h)
        w2 = rng.normal(0.0, 1.0 / np.sqrt(h), size=(d, h))
        b2 = rng.normal(0.0, 1.0 / np.sqrt(h), size=d)
        for name, arr in (("w1", w1), ("b1", b1), ("w2", w2), ("b2", b2)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def activations(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Hidden activations and their derivatives: ``tanh(pre)``, ``1 - tanh^2``."""
        act = np.tanh(pts @ self.w1.T + self.b1)
        return act, 1.0 - act**2


@dataclass(frozen=True)
class KernelSpec:
    """Kernel kind plus its parameters.

    ``bandwidth=None`` on the scalar kinds means "resolve by the median
    heuristic at solve time"; the drift solvers do that resolution.
    """

    kind: str
    bandwidth: float | None = None
    ntk: NtkSpec | None = None

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind: {self.kind!r}")
        if self.kind == EMPIRICAL_NTK:
            if self.ntk is None:
                raise ValueError("empirical_ntk kernel needs an NtkSpec")
            if self.bandwidth is not None:
                raise ValueError("empirical_ntk kernel takes no bandwidth")
        else:
            if self.ntk is not None:
                raise ValueError(f"{self.kind} kernel takes no NtkSpec")
            if self.bandwidth is not None:
                object.__setattr__(self, "bandwidth", _number(self.bandwidth, "bandwidth"))
                if self.bandwidth <= 0:
                    raise ValueError("bandwidth must be positive")

    def with_bandwidth(self, bandwidth: float) -> "KernelSpec":
        return KernelSpec(kind=self.kind, bandwidth=bandwidth, ntk=self.ntk)

    def to_config(self) -> dict:
        if self.kind == EMPIRICAL_NTK:
            return {"kind": self.kind, **asdict(self.ntk)}
        return {"kind": self.kind, "bandwidth": self.bandwidth}

    @staticmethod
    def from_config(cfg: dict) -> "KernelSpec":
        """Rebuild a kernel from ``to_config``'s fields; only NTK ``input_dim`` is required."""
        kind, fields = cfg.get("kind"), {k: v for k, v in cfg.items() if k != "kind"}
        if kind == EMPIRICAL_NTK:
            _check_fields(cfg, ("input_dim",), ("hidden_width", "seed"))
            return KernelSpec(kind=kind, ntk=NtkSpec(**fields))
        _check_fields(cfg, (), ("bandwidth",))
        return KernelSpec(kind=kind, **fields)


def rbf_kernel(bandwidth: float | None = None) -> KernelSpec:
    return KernelSpec(kind=RBF_SCALAR, bandwidth=bandwidth)


def diagonalized_kernel(bandwidth: float | None = None) -> KernelSpec:
    return KernelSpec(kind=DIAGONALIZED_SCALAR, bandwidth=bandwidth)


def ntk_kernel(input_dim: int, hidden_width: int = 64, seed: int = 0) -> KernelSpec:
    return KernelSpec(
        kind=EMPIRICAL_NTK,
        ntk=NtkSpec(input_dim=input_dim, hidden_width=hidden_width, seed=seed),
    )


def _require_bandwidth(spec: KernelSpec) -> float:
    if spec.bandwidth is None:
        raise ValueError("kernel bandwidth is unresolved; pass one or use the median heuristic")
    return spec.bandwidth


def kernel_value(spec: KernelSpec, x, y) -> float:
    """Scalar kernel value ``k(x, y)`` for the scalar kinds."""
    if spec.kind == EMPIRICAL_NTK:
        raise ValueError("empirical_ntk is matrix valued; use ntk_value")
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    s2 = _require_bandwidth(spec) ** 2
    return float(np.exp(-np.sum((x - y) ** 2) / (2.0 * s2)))


def kernel_gram(spec: KernelSpec, xs, ys) -> np.ndarray:
    """Scalar Gram matrix ``k(x_i, y_j)`` for the scalar kinds."""
    if spec.kind == EMPIRICAL_NTK:
        raise ValueError("empirical_ntk is matrix valued; use ntk_gram_blocks")
    xs, ys = as_particles(xs).points, as_particles(ys).points
    if xs.shape[1] != ys.shape[1]:
        raise ValueError(f"dimension mismatch: {xs.shape} vs {ys.shape}")
    return _gaussian_gram(_require_bandwidth(spec), xs, ys)


def _gaussian_gram(bandwidth: float, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Gaussian Gram matrix from the expanded squared distances, finished in place."""
    out = _sq_distances(xs, ys)
    np.negative(out, out=out)
    out /= 2.0 * bandwidth**2
    return np.exp(out, out=out)


def _sq_distances(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Squared distances ``|x_i - y_j|^2`` from their expansion, clipped at zero.

    Centring on the ``ys`` mean keeps the expansion accurate far from the
    origin.  The expansion ``(|x|^2 + |y|^2) - (2 x) @ y^T`` is finished a few
    rows at a time in the product's own array, so the result is the only
    array of its size.
    """
    centre = ys.mean(axis=0)
    xs, ys = xs - centre, ys - centre
    x_sq, y_sq = np.sum(xs**2, axis=1), np.sum(ys**2, axis=1)
    out = (2.0 * xs) @ ys.T
    rows = max(1, _BLOCK_VALUES // max(out.shape[1], 1))
    for start in range(0, out.shape[0], rows):
        block = out[start:start + rows]
        np.subtract(x_sq[start:start + rows, None] + y_sq[None, :], block, out=block)
    return np.maximum(out, 0.0, out=out)


def kernel_cross_grad(spec: KernelSpec, x, y) -> np.ndarray:
    """Mixed second derivative ``d^2 k / dx dy`` of the Gaussian kernel.

    Only defined for ``rbf_scalar``: the diagonalized kind substitutes
    ``k * I`` directly inside the drift solver instead of differentiating,
    and the tangent kernel is already matrix valued.
    """
    if spec.kind != RBF_SCALAR:
        raise ValueError(f"cross gradient is only defined for {RBF_SCALAR}, got {spec.kind}")
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    s2 = _require_bandwidth(spec) ** 2
    diff = x - y
    k = np.exp(-np.sum(diff**2) / (2.0 * s2))
    return k * (np.eye(x.shape[0]) / s2 - np.outer(diff, diff) / s2**2)


def ntk_value(spec: NtkSpec, x, y) -> np.ndarray:
    """Matrix tangent-kernel block ``K(x, y)`` of shape ``(d, d)``."""
    blocks = ntk_gram_blocks(spec, np.atleast_2d(x), np.atleast_2d(y))
    return blocks[0, 0]


def ntk_gram_blocks(spec: NtkSpec, xs, ys) -> np.ndarray:
    """All pairwise tangent-kernel blocks, shape ``(n, m, d, d)``.

    For hidden activations ``a`` and their derivatives ``a'`` the block is
    ``(a(x) . a(y) + 1) I + (x . y + 1) W2 diag(a'(x) a'(y)) W2^T`` where the
    two rank structures come from the output-layer and input-layer weight
    gradients respectively (biases supply the ``+1`` terms).
    """
    xs, ys = as_particles(xs).points, as_particles(ys).points
    d = spec.input_dim
    if xs.shape[1] != d or ys.shape[1] != d:
        raise ValueError(f"points must have dimension {d}")
    ax, apx = spec.activations(xs)
    ay, apy = spec.activations(ys)
    out_layer = ax @ ay.T + 1.0
    in_layer = xs @ ys.T + 1.0
    n, m = xs.shape[0], ys.shape[0]
    blocks = out_layer[:, :, None, None] * np.eye(d)
    # sum_h a'(x)_h a'(y)_h w2_h w2_h^T, scaled by (x.y + 1)
    w2 = spec.w2  # (d, h)
    mixed = np.einsum("nh,mh,dh,eh->nmde", apx, apy, w2, w2, optimize=True)
    blocks = blocks + in_layer[:, :, None, None] * mixed
    return blocks


def median_heuristic(points_a, points_b=None) -> float:
    """Median pairwise Euclidean distance over the pooled points.

    Falls back to the smallest nonzero distance when the median is zero, and
    to 1.0 when every pairwise distance is zero.
    """
    pool = as_particles(points_a).points
    if points_b is not None:
        other = as_particles(points_b).points
        if other.shape[1] != pool.shape[1]:
            raise ValueError(f"dimension mismatch: {pool.shape} vs {other.shape}")
        pool = np.vstack([pool, other])
    if pool.shape[0] < 2:
        raise ValueError("median heuristic needs at least 2 pooled points")
    dists = pdist(pool)
    med = _median(dists)  # reorders dists, which the fallback below does not mind
    if med > 0:
        return med
    nonzero = dists[dists > 0]
    return float(nonzero.min()) if nonzero.size else 1.0


def _median(values: np.ndarray) -> float:
    """``np.median`` of a flat array, bitwise, from one partition done in place."""
    return _middle(values, values.size // 2, values.size % 2 == 0)


def _middle(values: np.ndarray, half: int, even: bool) -> float:
    """The value of rank ``half`` in ``values``, averaged with rank ``half - 1`` if ``even``.

    One partition in place; the lower middle value is then the largest entry
    below ``half``, and the two are averaged as ``np.median`` does.
    """
    values.partition(half)
    if not even:
        return float(values[half])
    return float((values[:half].max() + values[half]) / 2.0)


class PooledMedian:
    """``median_heuristic(particles, targets)`` for one fixed target set.

    The target-target distances are computed once and kept sorted.  Each
    call computes the particle-particle and particle-target distances a few
    particle rows at a time, counts the values below a bracket and keeps the
    values inside it; the median is selected from that window together with
    the sorted target distances inside it.  The bracket is a window of ranks
    in the sorted target distances, centred on the previous median, with a
    half-width of twice the previous rank shift; a bracket that misses the
    middle ranks is widened fourfold and the pass retried, until it spans
    every value.  The first call centres it on the median of a strided
    sample taken at one rate from all three distance sets.  The value and
    its errors are those of ``median_heuristic``, bitwise, and a zero median
    is handed to ``median_heuristic`` itself for its fallbacks; the bracket
    only decides how much is selected from.
    """

    # Pooled distances in the first call's sample, and the narrowest and the
    # first bracket half-widths as shares of the target distances.
    _SAMPLE = 8192
    _MIN_SHARE = 1 / 1024
    _SEED_SHARE = 1 / 64

    def __init__(self, targets):
        self._targets = as_particles(targets).points
        self._sorted = pdist(self._targets)
        self._sorted.sort()
        self._min_spread = 16 + int(self._sorted.size * self._MIN_SHARE)
        self._centre = None
        self._spread = None

    def __call__(self, particles) -> float:
        pts = as_particles(particles).points
        tgt, dists = self._targets, self._sorted
        if tgt.shape[1] != pts.shape[1]:
            raise ValueError(f"dimension mismatch: {pts.shape} vs {tgt.shape}")
        pooled = pts.shape[0] + tgt.shape[0]
        if pooled < 2:
            raise ValueError("median heuristic needs at least 2 pooled points")
        total = pooled * (pooled - 1) // 2
        half, even = total // 2, total % 2 == 0
        lowest = half - 1 if even else half  # the lowest rank the median needs
        if self._centre is None:
            centre = self._sample_median(pts, total)
            spread = max(self._min_spread, int(dists.size * self._SEED_SHARE))
        else:
            centre, spread = self._centre, self._spread
        rank = np.searchsorted(dists, centre)
        while True:
            lo = dists[rank - spread] if rank >= spread else -np.inf
            hi = dists[rank + spread] if rank + spread < dists.size else np.inf
            below, window = self._window(pts, lo, hi)
            if below <= lowest and below + window.size > half:
                break
            spread *= 4
        med = _middle(window, half - below, even)
        shift = abs(int(np.searchsorted(dists, med)) - int(rank))
        self._centre, self._spread = med, max(self._min_spread, 2 * shift)
        return med if med > 0 else median_heuristic(pts, self._targets)

    def _blocks(self, pts: np.ndarray):
        """The particle-particle and particle-target distances, a few particle rows at a time.

        Rows ``i`` of a block pair with each later particle and every target,
        in ``pdist``'s own arithmetic, so every value is bitwise the pooled
        ``pdist`` entry.
        """
        pool = np.vstack([pts, self._targets])
        rows = max(1, _BLOCK_VALUES // pool.shape[0])
        for start in range(0, pts.shape[0], rows):
            stop = min(start + rows, pts.shape[0])
            yield pdist(pts[start:stop])
            yield cdist(pts[start:stop], pool[stop:]).ravel()

    def _window(self, pts: np.ndarray, lo: float, hi: float) -> tuple[int, np.ndarray]:
        """The count of pooled distances below ``lo``, and a new array of those in ``[lo, hi]``."""
        dists = self._sorted
        below = int(np.searchsorted(dists, lo, "left"))
        parts = [dists[below:np.searchsorted(dists, hi, "right")]]
        for block in self._blocks(pts):
            inside = block >= lo
            below += block.size - int(np.count_nonzero(inside))
            inside &= block <= hi
            parts.append(block[inside])
        return below, np.concatenate(parts)

    def _sample_median(self, pts: np.ndarray, total: int) -> float:
        """The median of about ``_SAMPLE`` pooled distances, a ``1 / stride**2`` share of each set.

        Those are every ``stride**2``-th sorted target distance and the
        distances among every ``stride``-th particle and target.
        """
        stride = max(1, int(np.sqrt(total / self._SAMPLE)))
        sample = np.concatenate([
            self._sorted[::stride**2],
            pdist(pts[::stride]),
            cdist(pts[::stride], self._targets[::stride]).ravel(),
        ])
        return _median(sample)
