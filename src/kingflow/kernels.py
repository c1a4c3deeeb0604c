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

scipy's direct ``"sqeuclidean"`` distance is the one pairwise primitive: the
Gaussian Grams exponentiate it, and the bandwidth passes rank squared
distances and root only the values they keep.  Those roots are scipy's
Euclidean distances, bitwise.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import chain

import numpy as np
from scipy.spatial.distance import cdist, pdist

from .particles import _number, _real_array, as_particles

RBF_SCALAR = "rbf_scalar"
DIAGONALIZED_SCALAR = "diagonalized_scalar"
EMPIRICAL_NTK = "empirical_ntk"
KERNEL_KINDS = (RBF_SCALAR, DIAGONALIZED_SCALAR, EMPIRICAL_NTK)

# Values per block of a row-blocked pass over pairwise quantities (1 MiB).
_BLOCK_VALUES = 1 << 17


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
            value = _number(getattr(self, name), name, integral=True, positive=name != "seed")
            object.__setattr__(self, name, value)
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        rng = np.random.default_rng(self.seed)
        d, h = self.input_dim, self.hidden_width
        w1 = rng.normal(0.0, 1.0 / np.sqrt(d), size=(h, d))
        b1 = rng.normal(0.0, 1.0 / np.sqrt(d), size=h)
        w2 = rng.normal(0.0, 1.0 / np.sqrt(h), size=(d, h))
        b2 = rng.normal(0.0, 1.0 / np.sqrt(h), size=d)
        for name, arr in (("w1", w1), ("b1", b1), ("w2", w2), ("b2", b2)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def _activations(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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
                bandwidth = _number(self.bandwidth, "bandwidth", positive=True)
                object.__setattr__(self, "bandwidth", bandwidth)

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


def _require_bandwidth(spec: KernelSpec) -> float:
    if spec.bandwidth is None:
        raise ValueError("kernel bandwidth is unresolved; pass one or use the median heuristic")
    return spec.bandwidth


def kernel_value(spec: KernelSpec, x: np.ndarray, y: np.ndarray) -> float:
    """Scalar kernel value ``k(x, y)`` for the scalar kinds."""
    if spec.kind == EMPIRICAL_NTK:
        raise ValueError("empirical_ntk is matrix valued; use ntk_gram_blocks")
    x = _real_array(x, "x", shape=(None,))
    y = _real_array(y, "y", shape=x.shape)
    s2 = _require_bandwidth(spec) ** 2
    return float(np.exp(-np.sum((x - y) ** 2) / (2.0 * s2)))


def kernel_gram(spec: KernelSpec, xs, ys) -> np.ndarray:
    """Scalar Gram matrix ``k(x_i, y_j)`` for the scalar kinds."""
    if spec.kind == EMPIRICAL_NTK:
        raise ValueError("empirical_ntk is matrix valued; use ntk_gram_blocks")
    xs = as_particles(xs).points
    ys = as_particles(ys, dim=xs.shape[1]).points
    return _gaussian_gram(_require_bandwidth(spec), xs, ys)


def _gaussian_gram(
    bandwidth: float, xs: np.ndarray, ys: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Gaussian Gram matrix from scipy's direct squared distances, finished in place.

    ``out``, when given, is the C-contiguous ``(len(xs), len(ys))`` array it
    is written to, and the only array of its size.  The differences are
    taken before they are squared, so the values stay accurate far from the
    origin.
    """
    out = cdist(xs, ys, "sqeuclidean", out=out)
    out /= -(2.0 * bandwidth**2)
    return np.exp(out, out=out)


def kernel_cross_grad(spec: KernelSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Mixed second derivative ``d^2 k / dx dy`` of the Gaussian kernel.

    Only defined for ``rbf_scalar``: the diagonalized kind substitutes
    ``k * I`` directly inside the drift solver instead of differentiating,
    and the tangent kernel is already matrix valued.
    """
    if spec.kind != RBF_SCALAR:
        raise ValueError(f"cross gradient is only defined for {RBF_SCALAR}, got {spec.kind}")
    x = _real_array(x, "x", shape=(None,))
    y = _real_array(y, "y", shape=x.shape)
    s2 = _require_bandwidth(spec) ** 2
    diff = x - y
    k = np.exp(-np.sum(diff**2) / (2.0 * s2))
    return k * (np.eye(x.shape[0]) / s2 - np.outer(diff, diff) / s2**2)


def ntk_gram_blocks(spec: NtkSpec, xs, ys) -> np.ndarray:
    """All pairwise tangent-kernel blocks, shape ``(n, m, d, d)``.

    For hidden activations ``a`` and their derivatives ``a'`` the block is
    ``(a(x) . a(y) + 1) I + (x . y + 1) W2 diag(a'(x) a'(y)) W2^T`` where the
    two rank structures come from the output-layer and input-layer weight
    gradients respectively (biases supply the ``+1`` terms).
    """
    d = spec.input_dim
    xs, ys = as_particles(xs, dim=d).points, as_particles(ys, dim=d).points
    ax, apx = spec._activations(xs)
    ay, apy = spec._activations(ys)
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
    to 1.0 when every pairwise distance is zero.  The distances are ranked
    by their squares; only the values returned are square-rooted.
    """
    pool = as_particles(points_a).points
    if points_b is not None:
        pool = np.vstack([pool, as_particles(points_b, dim=pool.shape[1]).points])
    if pool.shape[0] < 2:
        raise ValueError("median heuristic needs at least 2 pooled points")
    squares = pdist(pool, "sqeuclidean")
    med = _median(squares)  # reorders squares, which the fallback below does not mind
    return med if med > 0 else _smallest_positive([squares])


def _bandwidth(value, name: str, *points) -> float:
    """``value`` as a positive number, or ``median_heuristic(*points)`` when it is None."""
    return median_heuristic(*points) if value is None else _number(value, name, positive=True)


def _median(squares: np.ndarray) -> float:
    """``np.median(np.sqrt(squares))`` of a flat array, bitwise, from one partition done in place.

    The square root of scipy's squared distance is its Euclidean distance,
    bitwise, and keeps the order, so only the middle values are rooted.  For
    an even count the lower middle value is then the largest entry below the
    upper one, and the two are averaged as ``np.median`` does.
    """
    half = squares.size // 2
    squares.partition(half)
    upper = np.sqrt(squares[half])
    if squares.size % 2:
        return float(upper)
    return float((np.sqrt(squares[:half].max()) + upper) / 2.0)


def _smallest_positive(blocks) -> float:
    """The square root of the smallest positive value in ``blocks`` of squares, or 1.0 if none."""
    mins = [positive.min() for positive in (block[block > 0] for block in blocks) if positive.size]
    return float(np.sqrt(min(mins))) if mins else 1.0


def _pair_distances(points: np.ndarray, tail: np.ndarray):
    """Squares of the ``pdist(vstack([points, tail]))`` entries involving ``points``, in row blocks.

    Rows ``i`` of a block pair with each later point and every ``tail``
    point, in scipy's ``"sqeuclidean"`` arithmetic, so the square root of
    every value is bitwise the pooled ``pdist`` entry.  A block holds about
    ``_BLOCK_VALUES`` values.
    """
    pool = np.vstack([points, tail])
    rows = max(1, _BLOCK_VALUES // pool.shape[0])
    for start in range(0, points.shape[0], rows):
        stop = min(start + rows, points.shape[0])
        yield pdist(points[start:stop], "sqeuclidean")
        yield cdist(points[start:stop], pool[stop:], "sqeuclidean").ravel()


# Ulps a bracket end's square is widened by.  A distance equal to the end
# can have a square up to about three ulps from the end's own, as both that
# square and the distance's root are rounded.
_ULPS = 4


def _widened_square(end: float, toward: float) -> float:
    """``end * end`` moved ``_ULPS`` ulps toward ``toward``; ``-inf`` for a negative ``end``.

    A distance on ``toward``'s side of ``end``, or equal to it, has its
    square on that side of the result.  An infinite ``end`` squares to
    ``inf``; moved down, that is just below the largest float, so only
    infinite distances, whose squares overflowed, lie above it.
    """
    square = float(end) * float(end) if end >= 0 else -np.inf
    for _ in range(_ULPS):
        square = math.nextafter(square, toward)
    return square


def _select(blocks, lo: float, hi: float) -> tuple[int, np.ndarray]:
    """How many roots of the ``blocks`` squares lie below ``lo``, and those in ``[lo, hi]``, sorted.

    The squares are compared with the bracket's widened squared ends; only
    those inside them are rooted and compared with ``lo`` and ``hi``.  They
    are gathered into one array, rooted and sorted in place, and the
    distances in ``[lo, hi]`` are returned as its slice.
    """
    lo2, hi2 = _widened_square(lo, -np.inf), _widened_square(hi, np.inf)
    below, parts = 0, []
    for block in blocks:
        inside = block >= lo2
        below += block.size - int(np.count_nonzero(inside))
        inside &= block <= hi2
        parts.append(block[inside])
    values = np.concatenate(parts)
    np.sqrt(values, out=values)
    values.sort()
    start = int(np.searchsorted(values, lo, "left"))
    return below + start, values[start : int(np.searchsorted(values, hi, "right"))]


def _union_rank(first: np.ndarray, second: np.ndarray, rank: int) -> np.float64:
    """The value of ``rank`` in the union of two sorted arrays."""
    # The rank + 1 smallest values are the first i of ``first`` and the first
    # rank + 1 - i of ``second``, for the smallest i with first[i] >= second[rank - i].
    lo, hi = max(0, rank + 1 - second.size), min(rank + 1, first.size)
    while lo < hi:
        i = (lo + hi) // 2
        if first[i] < second[rank - i]:
            lo = i + 1
        else:
            hi = i
    taken = rank + 1 - lo
    return max(first[lo - 1] if lo else -np.inf, second[taken - 1] if taken else -np.inf)


class PooledMedian:
    """``median_heuristic(particles, targets)`` for one fixed target set.

    Ranks are counted in one sorted sample, the distances among every
    ``stride``-th target, about ``_SAMPLE`` of them.  Of the target-target
    distances only a band is kept: those in a value interval ``[_lo, _hi]``,
    sorted, and the count of those below it.  A call selects the median
    from the band's values inside a bracket, which are not copied, and the
    particles' distances inside it, computed a few particle rows at a time.
    Every pass compares squared distances with the bracket's widened
    squared ends and roots only those inside them (see ``_select``).

    The bracket is the sample values within ``_spread`` ranks of the
    previous median, twice the ranks the median last moved, cut to the
    band.  Until the median has moved once, on the first two calls, it is
    ``_SEED_SHARE`` of the sample on either side of a seed: the median
    among every ``stride``-th particle and target, on the second call less
    the first call's error of that seed.  A bracket that
    misses the middle ranks is followed by one next to it on the median's
    side, twice the sample ranks the missed ranks take at the missed
    bracket's density and at least twice the last step.  Half-widths and
    steps are at least ``_MIN_SHARE`` of the sample.  The first bracket and
    a step past the band build the band again in one row-blocked pass over
    the target pairs, reaching ``_BAND_SHARE`` of the sample past each end;
    ``rebuilds`` counts the passes after the first.  A sample of every
    target distance is itself the band.  The value and its errors are
    ``median_heuristic``'s, bitwise; so is the fallback for a zero median,
    taken from row-blocked passes over the particle and the target pairs.
    """

    # Target distances in the sample; the narrowest and the first bracket
    # half-widths and the band's reach past an interval, as shares of the
    # sample.
    _SAMPLE = 8192
    _MIN_SHARE = 1 / 1024
    _SEED_SHARE = 1 / 64
    _BAND_SHARE = 1 / 32

    def __init__(self, targets):
        self._targets = as_particles(targets).points
        count = self._targets.shape[0]
        stride = max(1, int(np.sqrt(count * (count - 1) / 2 / self._SAMPLE)))
        self._sample = pdist(self._targets[::stride], "sqeuclidean")
        np.sqrt(self._sample, out=self._sample)
        self._sample.sort()
        # The band: the sorted target distances in [_lo, _hi] and the count
        # below _lo; none until the first call builds it, unless the sample
        # holds every target distance.
        self._lo, self._hi, self._band, self._below = np.inf, -np.inf, None, 0
        if stride == 1:
            self._lo, self._hi, self._band = -np.inf, np.inf, self._sample
        self.rebuilds = 0
        self._centre = self._spread = None
        self._seed_error = 0.0

    def __call__(self, particles) -> float:
        tgt = self._targets
        pts = as_particles(particles, dim=tgt.shape[1]).points
        pooled = pts.shape[0] + tgt.shape[0]
        if pooled < 2:
            raise ValueError("median heuristic needs at least 2 pooled points")
        total = pooled * (pooled - 1) // 2
        half, even = total // 2, total % 2 == 0
        lowest = half - 1 if even else half  # the lowest rank the median needs
        sample = self._sample
        narrowest = 1 + int(sample.size * self._MIN_SHARE)
        centre, spread = self._centre, self._spread
        if spread is None:  # no shift between two medians yet: a seeded bracket
            stride = max(1, int(np.sqrt(total / self._SAMPLE)))
            seed = _median(pdist(np.vstack([pts[::stride], tgt[::stride]]), "sqeuclidean"))
            # every call seeds from the same strided points, so the first seed's error recurs
            centre = seed - self._seed_error
            spread = max(narrowest, int(sample.size * self._SEED_SHARE))
        rank = int(np.searchsorted(sample, centre))
        lo, hi = self._at(rank - spread), self._at(rank + spread)
        if not self._lo <= centre <= self._hi:  # no band yet, or a centre set from outside
            self._cover(lo, hi)
        lo, hi, step = max(lo, self._lo), min(hi, self._hi), 0
        while True:
            below, others = self._window(pts, lo, hi)
            start = int(np.searchsorted(self._band, lo, "left"))
            stop = int(np.searchsorted(self._band, hi, "right"))
            inside = stop - start + others.size
            if lowest < below:
                missed = below - lowest
            elif below + inside <= half:
                missed = below + inside - half - 1
            else:
                break
            # The sample ranks the missed pooled ranks span at the bracket's
            # pooled values per sample rank.
            first = int(np.searchsorted(sample, lo, "left"))
            last = int(np.searchsorted(sample, hi, "right"))
            span = abs(missed) * (last - first + 1) // max(inside, 1)
            step = max(2 * span, 2 * step, narrowest)
            if missed > 0:
                lo, hi = self._at(first - step), lo
            else:
                lo, hi = hi, self._at(last + step - 1)
            self._cover(lo, hi)
        band = self._band[start:stop]
        med = _union_rank(band, others, half - below)
        if even:
            med = (_union_rank(band, others, half - below - 1) + med) / 2.0
        med = float(med)
        if self._centre is None:
            self._seed_error = centre - med
        else:
            shift = abs(int(np.searchsorted(sample, med)) - int(np.searchsorted(sample, self._centre)))
            self._spread = max(narrowest, 2 * shift)
        self._centre = med
        if med > 0:
            return med
        return _smallest_positive(chain(_pair_distances(pts, tgt), _pair_distances(tgt, tgt[:0])))

    def _at(self, rank: int) -> float:
        """The sample value of ``rank``; ``-inf`` and ``inf`` past either end."""
        if rank < 0:
            return -np.inf
        return self._sample[rank] if rank < self._sample.size else np.inf

    def _cover(self, lo: float, hi: float) -> None:
        """Unless the band holds ``[lo, hi]``, build it from one pass over the target pairs.

        The new band reaches ``_BAND_SHARE`` of the sample past each end.
        """
        if self._lo <= lo and hi <= self._hi:
            return
        sample, reach = self._sample, int(self._sample.size * self._BAND_SHARE)
        lo = min(lo, self._at(int(np.searchsorted(sample, lo)) - reach))
        hi = max(hi, self._at(int(np.searchsorted(sample, hi)) + reach))
        self.rebuilds += self._band is not None
        self._band = None  # freed before the pass
        self._below, band = _select(_pair_distances(self._targets, self._targets[:0]), lo, hi)
        self._lo, self._hi, self._band = lo, hi, band

    def _window(self, pts: np.ndarray, lo: float, hi: float) -> tuple[int, np.ndarray]:
        """The count of pooled distances below ``lo``, and the particles' inside, sorted.

        The particles' distances inside are those in ``[lo, hi]`` that involve
        a particle.  The band must hold ``[lo, hi]``; it gives the target
        distances' count below ``lo``, and their values inside are left to the
        caller.
        """
        below, others = _select(_pair_distances(pts, self._targets), lo, hi)
        return self._below + int(np.searchsorted(self._band, lo, "left")) + below, others
