"""Particle flows: kernel natural-gradient drifts and baseline velocity fields.

The drift solvers pick, inside a kernel-induced velocity space, the field
whose induced parameter change best matches the natural-gradient direction on
the feature manifold.  The optimality system is solved in its feature-space
(dual) form: with feature Jacobians ``J_i`` at the particles and a
matrix-valued kernel block ``K(x, y)``, the system matrix is

    ridge * Fisher + (1/n^2) sum_ij J_i K(x_i, x_j) J_j^T

and the right-hand side is the feature-mean gap between targets and
particles.  The solved coefficient vector then defines the velocity field

    h(q) = (1/n) sum_i K(q, x_i) J_i^T coeff

``_apply_kernel`` holds the one velocity formula of each kernel kind, and
the kernel term of the system is that same operator applied to each
feature's Jacobian row (the per-feature fields) and contracted with the
Jacobian, for every kind.  ``rbf_scalar`` uses the Gaussian kernel's
mixed second derivative as the block, ``empirical_ntk`` a closed-form
tangent kernel, and ``diagonalized_scalar`` substitutes ``k(x, y) * I``.
Any object exposing ``pair_blocks(xs, ys) -> (n, m, d, d)`` works as a
custom matrix kernel.  Every kind builds its anchor-side terms once and
then takes the query rows a block at a time, 1 MiB of kernel values per
block, so a solve or an evaluation holds the ``(n, d, m)`` fields, one
block of kernel values and, for ``rbf_scalar``, its anchor columns of
``(d+1)^2`` values per anchor and field, never an ``(n, n)`` or ``(q, n)``
array.

In the solve the queries are the anchors, and the Gram of the two
Gaussian kinds is symmetric.  When the GEMM products of all ``n`` rows
fit in one block, the solve takes the Gram in row strips ``x[s:e] x x[s:]``
instead and applies each strip and its transpose, so each Gram entry is
built once, a little over ``n^2 / 2`` entries in all.  The products of all
rows and the strips then fill about one block.  Larger
shapes, the tangent kernel and custom kernels keep the row blocks.

``h`` is linear in ``coeff``, so the solve also yields the velocities at
the particles it was built on: ``DriftSolution.anchor_velocity`` contracts
the per-feature fields with ``coeff``.  ``eval_drift`` evaluates ``h`` at
any other query points.

``run_flow`` advances particles by forward Euler, re-solving the drift (and,
unless frozen, the bandwidth) every iteration and moving each particle by
its anchor velocity, so every pairwise quantity is built once per
iteration; of the target-target distances the bandwidth heuristic keeps,
for the whole flow, a sorted band of those inside a value interval, built
again only when a bracket steps past it (``kernels.PooledMedian``).
Reverse-KL Wasserstein gradient flow and energy-distance flow are provided
as kernel-free baselines sharing the same loop; both are GEMMs over
pairwise distances, with no ``(n, n, d)`` difference array.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.spatial.distance import cdist

from ._linalg import chol_solve, spd_factor
from .errors import DivergenceError, SolverError
from .kernels import (
    DIAGONALIZED_SCALAR,
    EMPIRICAL_NTK,
    RBF_SCALAR,
    _BLOCK_VALUES,
    KernelSpec,
    PooledMedian,
    _bandwidth,
    _gaussian_gram,
    median_heuristic,
)
from .manifold import FeatureMap, feature_mean, feature_moments
from .particles import ParticleSet, _number, _real_array, as_particles
from .stein import GaussianMixtureScore

KING = "king"
NTKING = "ntking"
WGF = "wgf"
MMD_FLOW = "mmd_flow"
FLOW_METHODS = (KING, NTKING, WGF, MMD_FLOW)

# The kernel kinds each drift method accepts, its default first; custom
# matrix kernels pass either method.
DRIFT_KERNEL_KINDS = {
    KING: (RBF_SCALAR,),
    NTKING: (DIAGONALIZED_SCALAR, EMPIRICAL_NTK),
}


def check_drift_kernel(method: str, kernel) -> None:
    """Raise ``ValueError`` unless ``kernel`` is a kind ``method`` accepts or a custom kernel."""
    allowed = DRIFT_KERNEL_KINDS[method]
    if isinstance(kernel, KernelSpec) and kernel.kind not in allowed:
        raise ValueError(f"{method} drift expects {' or '.join(allowed)}, got {kernel.kind}")


@dataclass(frozen=True)
class DriftSolution:
    """Solved drift system.

    ``anchor_velocity()`` gives the drift at the anchors from products the
    solve already built; ``eval_drift`` evaluates it at other query points.
    ``jacobian`` holds the feature Jacobians at the anchors, shape
    ``(n, feature_dim, dim)``, as a view of the transposed copy the kernel
    was applied to.  ``products`` holds the per-feature fields
    ``(1/n) sum_i K(x_q, x_i) J_i^T`` at the anchors, shape
    ``(n, dim, feature_dim)``, from which the system's kernel term was
    built.  Neither depends on ``coeff``.
    """

    gamma_factor: np.ndarray
    coeff: np.ndarray
    jacobian: np.ndarray
    kernel: KernelSpec | object
    anchors: ParticleSet
    products: np.ndarray

    def anchor_velocity(self) -> np.ndarray:
        """The drift at the anchors, ``eval_drift(self, self.anchors)``, shape ``(n, d)``."""
        n, d, m = self.products.shape
        return (self.products.reshape(n * d, m) @ self.coeff).reshape(n, d)


@dataclass(frozen=True)
class FlowConfig:
    """Forward-Euler loop parameters."""

    step: float
    iterations: int
    ridge: float = 1e-3
    log_every: int = 10
    freeze_bandwidth: bool = False

    def __post_init__(self):
        for name in ("step", "iterations", "ridge", "log_every"):
            value, integral = getattr(self, name), name in ("iterations", "log_every")
            # a count must have an integer type: unlike a map's dimension, 2.0 is rejected
            if integral and not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, _number(value, name, integral=integral, positive=True))
        if not isinstance(self.freeze_bandwidth, bool):
            raise ValueError("freeze_bandwidth must be a bool")


# -- kernel application -------------------------------------------------------

def _gram_quadratic(
    kernel, pts: np.ndarray, jac_t: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(1/n^2) sum_ij J_i K(x_i, x_j) J_j^T`` and the per-feature fields it was built from.

    ``jac_t`` holds the Jacobians transposed, shape ``(n, d, m)``.  The
    fields are ``_apply_kernel`` applied to the Jacobian rows, the
    ``DriftSolution.products`` of the solve.  The two Gaussian kinds have
    symmetric Grams; when the GEMM products of all ``n`` rows fit in one
    ``_BLOCK_VALUES`` block (``n (d+1)^2 m`` values for ``rbf_scalar``,
    ``n d m`` for ``diagonalized_scalar``), ``_self_apply`` builds each
    Gram entry once.  Every other case takes ``_apply_kernel``'s row blocks.
    """
    n, d, m = jac_t.shape
    if n * _gaussian_width(kernel, d, m) <= _BLOCK_VALUES:
        fields = _self_apply(kernel, pts, jac_t)
    else:
        fields = _apply_kernel(kernel, pts, pts, jac_t)
    return jac_t.reshape(n * d, m).T @ fields.reshape(n * d, m) / n, fields


def _apply_kernel(kernel, queries: np.ndarray, anchors: np.ndarray, vels: np.ndarray) -> np.ndarray:
    """``(1/n) sum_i K(q, x_i) v_ik`` for each query row ``q`` and field ``k``.

    ``vels`` holds ``k`` velocity fields on the anchors, shape ``(n, d, k)``;
    the result has shape ``(q, d, k)``.  The anchor-side terms are built
    once; the query rows are then taken ``_BLOCK_VALUES // n`` at a time
    (1 MiB of kernel values), so the kernel values of one block are the only
    ``(rows, n)`` array and none is ``(q, n)``.
    """
    n, d, k = vels.shape
    fill = _query_rows(kernel, anchors, vels)
    out = np.empty((queries.shape[0], d, k))
    rows = max(1, _BLOCK_VALUES // n)
    for start in range(0, queries.shape[0], rows):
        fill(queries[start:start + rows], out[start:start + rows])
    out /= n
    return out


def _self_apply(kernel, pts: np.ndarray, vels: np.ndarray) -> np.ndarray:
    """``_apply_kernel(kernel, pts, pts, vels)`` for a Gaussian kind, building each Gram entry once.

    The Gram is taken in row strips ``pts[s:e] x pts[s:]``.  Each strip's
    product with the anchor columns is added to its own rows and the
    product of its transpose, past the diagonal block, to the rows after
    them, so the strips build about half the Gram plus its diagonal
    blocks.  The products of all rows are kept until the last strip, then
    ``rbf_scalar``'s query factors are applied once.  The first strip
    writes its products rather than adding them, so when all ``n`` rows fit
    in one strip the arithmetic is that of one row block of
    ``_apply_kernel``.

    The strips and the products of all rows fill one block,
    ``_BLOCK_VALUES`` values, the size of a row block; where the products
    take more than half of it, the strips keep half a block.  For
    ``rbf_scalar`` the two share one array: a separate products array
    beside strips of a whole block leaves a freed heap top of more than
    twice a row block, which glibc's default policy trims and faults back
    in on every solve.  For ``diagonalized_scalar`` the products are the
    fields themselves.
    """
    n, d, k = vels.shape
    columns, finish = _gaussian_columns(kernel, pts, vels)
    rows = max(1, max(_BLOCK_VALUES - columns.size, _BLOCK_VALUES // 2) // n)
    out = np.empty((n, d, k))
    if finish is None:
        total, strips = out.reshape(n, d * k), np.empty(min(rows, n) * n)
    else:
        work = np.empty(columns.size + min(rows, n) * n)
        total, strips = work[: columns.size].reshape(columns.shape), work[columns.size :]
    # rows per 64 KiB product when a strip's transpose is added in pieces
    piece = max(1, (_BLOCK_VALUES // 16) // columns.shape[1])
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        size = (stop - start, n - start)
        strip = strips[: size[0] * size[1]].reshape(size)
        _gaussian_gram(kernel.bandwidth, pts[start:stop], pts[start:], out=strip)
        if start == 0:
            np.matmul(strip, columns, out=total[:stop])
            np.matmul(strip[:, stop:].T, columns[:stop], out=total[stop:])
        else:
            total[start:stop] += strip @ columns[start:]
            for low in range(stop, n, piece):
                high = min(low + piece, n)
                total[low:high] += strip[:, low - start:high - start].T @ columns[start:stop]
    if finish is not None:
        finish(total, pts, out)
    out /= n
    return out


def _gaussian_width(kernel, d: int, k: int) -> float:
    """Values per anchor row of a Gaussian kind's anchor columns; infinite for other kernels."""
    if not isinstance(kernel, KernelSpec) or kernel.kind == EMPIRICAL_NTK:
        return math.inf
    return (d + 1) ** 2 * k if kernel.kind == RBF_SCALAR else d * k


def _gaussian_columns(kernel: KernelSpec, anchors: np.ndarray, vels: np.ndarray):
    """A Gaussian kind's anchor columns and its query finish, ``None`` if the product is the field.

    A field at the query rows ``q`` comes from the GEMM ``k(q, x) @ columns``
    alone for ``diagonalized_scalar`` and after ``finish(product, q, out)``
    for ``rbf_scalar`` (see ``_rbf_columns``).
    """
    if kernel.kind == RBF_SCALAR:
        return _rbf_columns(kernel.bandwidth, anchors, vels)
    n, d, k = vels.shape
    return vels.reshape(n, d * k), None


def _query_rows(kernel, anchors: np.ndarray, vels: np.ndarray) -> Callable:
    """A function writing ``sum_i K(q, x_i) v_ik`` for a block of query rows into ``out``.

    Its arguments are the rows and their ``(rows, d, k)`` slice of the
    result.  Everything that depends on the anchors alone is built here,
    once.
    """
    if not isinstance(kernel, KernelSpec):
        def fill(queries, out):
            blocks = kernel.pair_blocks(queries, anchors)
            np.einsum("qide,iek->qdk", blocks, vels, out=out, optimize=True)
    elif kernel.kind == EMPIRICAL_NTK:
        fill = _ntk_rows(kernel.ntk, anchors, vels)
    else:
        columns, finish = _gaussian_columns(kernel, anchors, vels)

        def fill(queries, out):
            gram = _gaussian_gram(kernel.bandwidth, queries, anchors)
            if finish is None:
                np.matmul(gram, columns, out=out.reshape(out.shape[0], -1))
            else:
                finish(gram @ columns, queries, out)
    return fill


def _rbf_columns(bandwidth: float, anchors: np.ndarray, vels: np.ndarray):
    """The ``rbf_scalar`` anchor columns and the finish that turns their Gram product into fields.

    The block is ``k(q, x) (I / s^2 - (q - x)(q - x)^T / s^4)``, and
    ``(q - x)((q - x) . v) = q (q . v) - q (x . v) - x (q . v) + x (x . v)``.
    Every term is a product of the Gram with one of the anchor columns
    ``v``, ``x . v``, ``x v^T`` and ``x (x . v)``, written once into one
    array, so one GEMM ``k(q, x) @ columns`` gives all of them for every
    field, and ``finish(product, q, out)`` applies the query factors after
    it.  The kernel is translation invariant; centring on the anchor mean
    keeps the expanded products free of cancellation far from the origin.
    """
    n, d, k = vels.shape
    centre = anchors.mean(axis=0)
    anchors = anchors - centre
    columns = np.empty((n, (d + 1) ** 2 * k))
    columns[:, : d * k] = vels.reshape(n, d * k)
    x_dot_v = columns[:, d * k : d * k + k]
    np.einsum("id,idk->ik", anchors, vels, out=x_dot_v)
    np.multiply(
        anchors[:, :, None, None], vels[:, None, :, :],
        out=columns[:, d * k + k : -d * k].reshape(n, d, d, k),
    )
    np.multiply(anchors[:, :, None], x_dot_v[:, None, :], out=columns[:, -d * k :].reshape(n, d, k))
    s2 = bandwidth**2

    def finish(prod: np.ndarray, queries: np.ndarray, out: np.ndarray) -> None:
        queries = queries - centre
        g_v = prod[:, : d * k].reshape(-1, d, k)
        g_x_dot_v = prod[:, d * k : d * k + k]
        g_x_v = prod[:, d * k + k : -d * k].reshape(-1, d, d, k)  # [q, e, f, k] = sum_i k x_e v_f
        g_x_x_dot_v = prod[:, -d * k :].reshape(-1, d, k)
        q_dot_v = np.einsum("qf,qfk->qk", queries, g_v)
        outer = queries[:, :, None] * (q_dot_v - g_x_dot_v)[:, None, :]
        outer -= np.einsum("qf,qefk->qek", queries, g_x_v)
        outer += g_x_x_dot_v
        outer /= s2**2
        np.divide(g_v, s2, out=out)
        out -= outer

    return columns, finish


def _ntk_rows(ntk, anchors: np.ndarray, vels: np.ndarray) -> Callable:
    """The ``empirical_ntk`` case of ``_query_rows``: both layers' terms of ``ntk_gram_blocks``."""
    n, d, k = vels.shape
    h = ntk.hidden_width
    act_a, deriv_a = ntk._activations(anchors)
    # projected[i, k, :] = a'(x_i) * (W2^T v_ik)
    projected = (vels.transpose(0, 2, 1).reshape(n * k, d) @ ntk.w2).reshape(n, k, h)
    projected *= deriv_a[:, None, :]
    projected = projected.reshape(n, k * h)
    flat = vels.reshape(n, d * k)

    def fill(queries: np.ndarray, out: np.ndarray) -> None:
        act_q, deriv_q = ntk._activations(queries)
        hidden = ((queries @ anchors.T + 1.0) @ projected).reshape(-1, k, h)
        hidden *= deriv_q[:, None, :]
        np.matmul(act_q @ act_a.T + 1.0, flat, out=out.reshape(-1, d * k))
        out += (hidden.reshape(-1, h) @ ntk.w2.T).reshape(-1, k, d).transpose(0, 2, 1)

    return fill


def _unresolved(kernel) -> bool:
    """Whether ``kernel`` is a scalar kind whose bandwidth the median heuristic sets."""
    return (
        isinstance(kernel, KernelSpec) and kernel.kind != EMPIRICAL_NTK and kernel.bandwidth is None
    )


def _resolve_bandwidth(kernel, particles: ParticleSet, targets: ParticleSet | None):
    if not _unresolved(kernel):
        return kernel
    return kernel.with_bandwidth(median_heuristic(particles, targets))


def _solve_drift(
    method: str,
    fmap: FeatureMap,
    kernel,
    particles: ParticleSet,
    targets: ParticleSet | None,
    ridge: float,
    target_mean: np.ndarray | None,
) -> DriftSolution:
    check_drift_kernel(method, kernel)
    ridge = _number(ridge, "ridge", positive=True)
    particles = as_particles(particles)
    if targets is not None:
        targets = as_particles(targets, dim=particles.dim)
    kernel = _resolve_bandwidth(kernel, particles, targets)
    feats, jac = fmap.derivatives(particles, 1)
    model_mean, fisher = feature_moments(fmap, feats)
    if target_mean is not None:
        target_mean = _real_array(target_mean, "target_mean", shape=(fmap.feature_dim,))
    elif targets is not None:
        target_mean = feature_mean(fmap, targets)
    gap = -model_mean if target_mean is None else -model_mean + target_mean
    jac_t = np.ascontiguousarray(jac.transpose(0, 2, 1))
    jac = jac_t.transpose(0, 2, 1)
    quad, products = _gram_quadratic(kernel, particles.points, jac_t)
    system = ridge * fisher.matrix + quad
    lower = spd_factor(system, SolverError("drift system is not positive definite"))
    coeff = chol_solve(lower, gap)
    return DriftSolution(
        gamma_factor=lower,
        coeff=coeff,
        jacobian=jac,
        kernel=kernel,
        anchors=particles,
        products=products,
    )


def solve_king_drift(
    fmap: FeatureMap,
    kernel,
    particles: ParticleSet | np.ndarray,
    targets: ParticleSet | np.ndarray | None,
    ridge: float,
    *,
    target_mean: np.ndarray | None = None,
) -> DriftSolution:
    """Drift through the mixed-derivative Gaussian kernel (or a custom matrix kernel).

    ``target_mean`` is the target feature mean when the caller already has
    it; by default it is computed from ``targets``.  A drift system that is
    not positive definite raises ``SolverError``, with no diagonal load.
    """
    return _solve_drift(KING, fmap, kernel, particles, targets, ridge, target_mean)


def solve_ntking_drift(
    fmap: FeatureMap,
    kernel,
    particles: ParticleSet | np.ndarray,
    targets: ParticleSet | np.ndarray | None,
    ridge: float,
    *,
    target_mean: np.ndarray | None = None,
) -> DriftSolution:
    """Drift through a tangent kernel, exact or diagonalized to ``k * I``.

    ``target_mean`` and the ``SolverError`` are as for ``solve_king_drift``.
    """
    return _solve_drift(NTKING, fmap, kernel, particles, targets, ridge, target_mean)


def eval_drift(solution: DriftSolution, queries) -> np.ndarray:
    """Evaluate the solved velocity field at query points, shape ``(m, d)``.

    At the anchors themselves ``solution.anchor_velocity()`` gives the same
    field from the solve's products.
    """
    pts = as_particles(queries, dim=solution.anchors.dim).points
    # the anchors' J_i^T coeff as one velocity field, shape (n, d, 1)
    field = np.einsum("iad,a->id", solution.jacobian, solution.coeff, optimize=True)[:, :, None]
    return _apply_kernel(solution.kernel, pts, solution.anchors.points, field)[:, :, 0]


# -- baseline velocity fields -------------------------------------------------

def wgf_velocity(
    targets: ParticleSet | np.ndarray,
    particles: ParticleSet | np.ndarray,
    bandwidth_targets: float | None = None,
    bandwidth_particles: float | None = None,
) -> np.ndarray:
    """Reverse-KL Wasserstein gradient flow velocity from two KDE scores.

    The velocity at each particle is the target KDE score minus the particle
    KDE score, each the score of a Gaussian mixture centred on the samples;
    unset bandwidths fall back to per-set median heuristics.
    """
    targets = as_particles(targets)
    particles = as_particles(particles, dim=targets.dim)
    bw_t = _bandwidth(bandwidth_targets, "bandwidth_targets", targets)
    bw_p = _bandwidth(bandwidth_particles, "bandwidth_particles", particles)
    score_t = GaussianMixtureScore(targets.points, bw_t).score(particles)
    score_p = GaussianMixtureScore(particles.points, bw_p).score(particles)
    return score_t - score_p


def mmd_flow_velocity(
    targets: ParticleSet | np.ndarray, particles: ParticleSet | np.ndarray
) -> np.ndarray:
    """Energy-distance flow velocity (descent direction for the energy MMD).

    Mean unit displacement vectors away from fellow particles repel and
    toward the target set attract; coincident pairs contribute zero.
    """
    tgt = as_particles(targets).points
    pts = as_particles(particles, dim=tgt.shape[1]).points
    centre = pts.mean(axis=0)

    def _unit_sums(others):
        # sum_j w_j (a - b_j) = a * sum_j w_j - w @ b with w_j = 1 / (|a - b_j| + 1e-12),
        # on points centred at the particle mean
        dists = cdist(pts, others)
        weights = 1.0 / (dists + 1e-12)
        weights[dists == 0] = 0.0
        return (pts - centre) * weights.sum(axis=1)[:, None] - weights @ (others - centre)

    return _unit_sums(pts) / pts.shape[0] - _unit_sums(tgt) / tgt.shape[0]


# -- flow loop ----------------------------------------------------------------

Observer = Callable[[int, float, ParticleSet, dict], None]


def run_flow(
    method: str,
    fmap: FeatureMap | None,
    kernel,
    targets: ParticleSet | np.ndarray | None,
    init: ParticleSet | np.ndarray,
    config: FlowConfig,
    observer: Observer | None = None,
) -> ParticleSet:
    """Advance particles by forward Euler under the chosen method.

    The drift methods re-solve their system every iteration on the current
    particles and move each particle by the solve's anchor velocity (see
    ``DriftSolution.anchor_velocity``), with no second kernel evaluation.
    Scalar-kernel bandwidths left unset are refreshed each iteration to
    ``median_heuristic(particles, targets)`` unless
    ``config.freeze_bandwidth`` pins them to that value on the initial state.
    With targets, one ``kernels.PooledMedian`` per flow gives that value.
    The one ``observer`` callback, when given, is called on the initial
    state with empty diagnostics and then every ``log_every`` iterations
    (always including the last) with iteration number, flow time, the
    particle set, and a diagnostics dict holding ``drift_norm``, the mean
    particle speed.  Other per-iteration metrics are the observer's to
    compute.
    """
    if method not in FLOW_METHODS:
        raise ValueError(f"unknown flow method: {method!r}")
    if method in (WGF, MMD_FLOW):
        if targets is None:
            raise ValueError(f"{method} requires target samples")
    else:
        if fmap is None:
            raise ValueError(f"{method} requires a feature map")
    init = as_particles(init)
    if targets is not None:
        targets = as_particles(targets, dim=init.dim)

    drift = method in DRIFT_KERNEL_KINDS
    pooled_median = None
    if drift and config.freeze_bandwidth:
        kernel = _resolve_bandwidth(kernel, init, targets)
    elif drift and _unresolved(kernel) and targets is not None:
        pooled_median = PooledMedian(targets)
    bw_targets = median_heuristic(targets) if method == WGF else None
    target_mean = feature_mean(fmap, targets) if drift and targets is not None else None
    # The targets' coordinate range, which the particles' joins in the divergence check.
    low, high = (np.inf, -np.inf)
    if targets is not None:
        low, high = targets.points.min(), targets.points.max()

    particles = init
    if observer is not None:
        observer(0, particles.t, particles, {})
    solve = solve_king_drift if method == KING else solve_ntking_drift
    for iteration in range(1, config.iterations + 1):
        if drift:
            # The solution, with its per-feature fields, is dropped here
            # rather than kept alive through the next solve.
            if pooled_median is not None:
                kernel = kernel.with_bandwidth(pooled_median(particles))
            velocity = solve(
                fmap, kernel, particles, targets, config.ridge, target_mean=target_mean
            ).anchor_velocity()
        elif method == WGF:
            velocity = wgf_velocity(targets, particles, bandwidth_targets=bw_targets)
        else:
            velocity = mmd_flow_velocity(targets, particles)
        moved = particles.points + config.step * velocity
        # Every squared distance a bandwidth heuristic takes is at most dim times
        # the squared coordinate range; a non-finite point makes that non-finite.
        spread = np.maximum(moved.max(), high) - np.minimum(moved.min(), low)
        if not np.isfinite(moved.shape[1] * spread * spread):
            raise DivergenceError(
                f"particles became non-finite or too spread at iteration {iteration}", iteration
            )
        particles = ParticleSet(moved, t=particles.t + config.step)
        logged = iteration % config.log_every == 0 or iteration == config.iterations
        if observer is not None and logged:
            drift_norm = float(np.linalg.norm(velocity, axis=1).mean())
            observer(iteration, particles.t, particles, {"drift_norm": drift_norm})
    return particles
