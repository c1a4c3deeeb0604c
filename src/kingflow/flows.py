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
block, so a solve or an evaluation holds at most the ``(n, d, m)`` fields,
one block of kernel values and, for ``rbf_scalar``, its anchor columns of
``(d+1)^2`` values per anchor and field, never a ``(q, n)`` array nor an
``(n, n)`` one of more than a block.

In the solve the queries are the anchors, and the Gram of the two
Gaussian kinds is symmetric.  Four paths take it, chosen by shape alone
(and, for the first, the map's exact type), with ``width`` the
anchor-column values per row, ``(d+1)^2 m`` for ``rbf_scalar`` and
``d m`` for ``diagonalized_scalar``:

- for ``diagonalized_scalar`` on a plain ``RbfFeatureMap``, the term from
  ``(n, m)`` products of the whole Gram, when it is one block, ``n >= 64``
  and ``d m >= 2 m + d + 80`` (``_takes_rbf_map_term``).  The map's
  Jacobian is ``diag(features) (centres - x)`` scaled, so the term and the
  anchor velocity read the features only: no ``(n, m, d)`` Jacobian, no
  per-feature fields, and the Gram is kept for the anchor velocity.
  Per system term and anchor velocity, one BLAS thread, in ms, the
  strips (row blocks at 360/10/50) / the RBF-map term:

      n/m, d    1            2            3            5            10
      200/50    0.24 / 0.47  0.34 / 0.41  0.47 / 0.44  1.13 / 0.54  1.93 / 0.58
      360/50    0.76 / 1.52  0.92 / 1.19  1.31 / 1.26  1.88 / 1.38  3.45 / 1.71
      200/20    0.16 / 0.30  0.21 / 0.26  0.25 / 0.26  0.34 / 0.30  0.85 / 0.38

- for ``rbf_scalar``, the whole Gram, when it is one block (``n^2``
  values) and no wider than the anchor columns (``n <= width``): one
  triangular product with its upper half gives the system term as
  ``S + S^T``, and the Gram is kept for the anchor velocity;
- symmetric row strips ``x[s:e] x x[s:]``, each strip applied with its
  transpose, when the GEMM products of all ``n`` rows fit in one block,
  so each Gram entry is built once, a little over ``n^2 / 2`` in all;
- the row blocks for larger shapes, the tangent kernel and custom kernels.

``h`` is linear in ``coeff``, so the solve also yields the velocities at
the particles it was built on: ``DriftSolution.anchor_velocity`` contracts
the per-feature fields with ``coeff``, or applies a kept Gram to the
single field ``J^T coeff``.  ``eval_drift`` evaluates ``h`` at any other
query points.

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
from functools import cached_property
from typing import Callable

import numpy as np
from scipy.linalg.blas import dtrmm
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
from .manifold import FeatureMap, RbfFeatureMap, feature_mean, feature_moments
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

    ``anchor_velocity()`` gives the drift at the anchors from what the
    solve already built; ``eval_drift`` evaluates it at other query points.
    ``fmap`` is the feature map the solve used, and ``jacobian``, the
    feature Jacobians at the anchors of shape ``(n, feature_dim, dim)``, is
    ``fmap.jacobian(anchors)``, evaluated on first access: the RBF-map term
    (``diagonalized_scalar`` on a plain ``RbfFeatureMap``; see
    ``_takes_rbf_map_term``) never builds it, and the other paths release
    theirs with the solve.  ``velocity_of`` maps a coefficient vector to
    the velocities ``(1/n) sum_i K(x_q, x_i) J_i^T coeff`` at the anchors,
    shape ``(n, dim)``.  It keeps either the per-feature fields from which
    the system's kernel term was built, and contracts them with it, or,
    where the solve kept the whole Gram (``rbf_scalar``'s whole-Gram path
    and the RBF-map term), that Gram, and makes one single-field product
    with it.  Neither depends on ``coeff``.
    """

    gamma_factor: np.ndarray
    coeff: np.ndarray
    fmap: FeatureMap
    kernel: KernelSpec | object
    anchors: ParticleSet
    velocity_of: Callable[[np.ndarray], np.ndarray]

    @cached_property
    def jacobian(self) -> np.ndarray:
        return self.fmap.jacobian(self.anchors)

    def anchor_velocity(self) -> np.ndarray:
        """The drift at the anchors, ``eval_drift(self, self.anchors)``, shape ``(n, d)``."""
        return self.velocity_of(self.coeff)


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

# The shape rule of ``_takes_rbf_map_term``, fitted to per-call timings: below
# this many particles the extra calls of ``_rbf_map_quadratic`` outweigh its
# savings, and building the Gram's second half costs about as much as this
# many multiply-adds per entry.
_RBF_MAP_MIN_ROWS = 64
_RBF_MAP_GRAM_HALF_COST = 80


def _gram_quadratic(kernel, pts: np.ndarray, jac_t: np.ndarray) -> tuple[np.ndarray, Callable]:
    """``(1/n^2) sum_ij J_i K(x_i, x_j) J_j^T`` and the anchor velocity as a function of ``coeff``.

    ``jac_t`` holds the Jacobians transposed, shape ``(n, d, m)``, and
    ``width`` is ``_gaussian_width``: ``(d+1)^2 m`` for ``rbf_scalar``,
    ``d m`` for ``diagonalized_scalar``.  An ``rbf_scalar`` Gram of one
    ``_BLOCK_VALUES`` block and ``n <= width`` is kept whole
    (``_whole_gram_quadratic``).  Otherwise the term is contracted from the
    per-feature fields, ``_apply_kernel`` applied to the Jacobian rows: by
    ``_self_apply``'s symmetric strips when the GEMM products of all ``n``
    rows fit in one block, ``n * width`` values, and by the row blocks in
    every other case.  The velocity at the anchors is then the fields
    contracted with ``coeff``.
    """
    n, d, m = jac_t.shape
    width = _gaussian_width(kernel, d, m)
    rbf = isinstance(kernel, KernelSpec) and kernel.kind == RBF_SCALAR
    if rbf and n * n <= _BLOCK_VALUES and n <= width:
        return _whole_gram_quadratic(kernel, pts, jac_t)
    if n * width <= _BLOCK_VALUES:
        fields = _self_apply(kernel, pts, jac_t)
    else:
        fields = _apply_kernel(kernel, pts, pts, jac_t)
    flat = fields.reshape(n * d, m)

    def velocity_of(coeff: np.ndarray) -> np.ndarray:
        return (flat @ coeff).reshape(n, d)

    return jac_t.reshape(n * d, m).T @ flat / n, velocity_of


def _whole_gram_quadratic(
    kernel: KernelSpec, pts: np.ndarray, jac_t: np.ndarray
) -> tuple[np.ndarray, Callable]:
    """``_gram_quadratic`` from the whole ``rbf_scalar`` Gram, kept for the anchor velocity.

    With ``U`` the Gram's upper triangle, its diagonal halved, the Gram is
    ``U + U^T``, and the kernel's blocks satisfy
    ``K(x_j, x_i) = K(x_i, x_j)^T``, so the system term is
    ``(S + S^T) / n^2`` with ``S = sum_i J_i finish_i(U @ columns)``: one
    triangular product ``dtrmm``, written over the anchor columns, in place
    of the GEMM of the whole Gram into a products array of their size,
    about half its multiply-adds, and a term that is exactly symmetric.
    The velocity at the anchors, ``finish(G @ columns(J^T coeff)) / n``, is
    a single-field product with the kept Gram ``G``, not a rebuild of it.
    The whole Gram is taken only when it is no wider than the anchor
    columns, ``n <= width``: building all ``n^2`` entries and the
    single-field product, ``n^2 width / m`` multiply-adds, then cost little
    beside the ``n^2 width / 2`` the triangle saves.  At narrower shapes
    the strips, which build about half the Gram, stay faster.
    """
    n, d, m = jac_t.shape
    columns, finish = _rbf_columns(kernel.bandwidth, pts, jac_t)
    gram = _gaussian_gram(kernel.bandwidth, pts, pts)
    diagonal = gram.reshape(-1)[:: n + 1]
    diagonal *= 0.5
    # columns <- U @ columns, as columns^T <- columns^T @ U^T on the Fortran-ordered
    # transposes, in place; U^T is the lower triangle of gram.T.
    half = dtrmm(1.0, gram.T, columns.T, side=1, lower=1, overwrite_b=1).T
    diagonal *= 2.0
    fields = np.empty((n, d, m))
    finish(half, pts, fields)
    total = jac_t.reshape(n * d, m).T @ fields.reshape(n * d, m)

    def velocity_of(coeff: np.ndarray) -> np.ndarray:
        out = np.empty((n, d, 1))
        columns, finish = _rbf_columns(kernel.bandwidth, pts, (jac_t @ coeff)[:, :, None])
        finish(gram @ columns, pts, out)
        return out[:, :, 0] / n

    return (total + total.T) / n**2, velocity_of


def _rbf_map_quadratic(
    kernel: KernelSpec, fmap: RbfFeatureMap, pts: np.ndarray, feats: np.ndarray
) -> tuple[np.ndarray, Callable]:
    """``_gram_quadratic`` for ``diagonalized_scalar`` on a plain RBF map, from its features alone.

    ``feats`` are the map's features ``Phi`` at ``pts``.  Each Jacobian is
    ``J_i = diag(Phi_i) (C - 1 x_i^T) / s_f^2``, with ``C`` the centres and
    ``s_f`` the map's bandwidth, so with the points ``X`` and the centres
    both centred on the particle mean the term
    ``(1/n^2) sum_ij k_ij J_i J_j^T`` is

        [A o C C^T - B - B^T + Phi^T (K o X X^T) Phi] / (n^2 s_f^4),
        A = Phi^T (K Phi),  B = ((K Phi) o (X C^T))^T Phi,

    two ``n^2 m`` GEMMs, one of ``n^2 d`` and three of ``n m^2``, where
    the strips take ``n^2 d m`` and the contraction ``n d m^2``.
    ``K o X X^T`` is formed a block of rows at a time, so the Gram, kept
    whole for the anchor velocity, is the one ``(n, n)`` array.  The
    velocity's one field is ``J_i^T c = ((Phi_i o c) C - x_i (Phi_i . c)) / s_f^2``
    on the same centred points, so no ``(n, m, d)`` Jacobian is made.  The
    expansion cancels where the points spread far beyond ``s_f``: its
    rounding is relative to the same sum taken over absolute values, not
    to the term.
    """
    n = pts.shape[0]
    s2 = fmap.bandwidth**2
    centre = pts.mean(axis=0)
    x, centers = pts - centre, fmap.centers - centre
    gram = _gaussian_gram(kernel.bandwidth, pts, pts)
    k_feats = gram @ feats
    cross = (k_feats * (x @ centers.T)).T @ feats
    # (K o X X^T) Phi, one 128 KiB block of K o X X^T at a time
    weighted = np.empty_like(feats)
    rows = max(1, (_BLOCK_VALUES // 8) // n)
    for start in range(0, n, rows):
        block = x[start:start + rows] @ x.T
        block *= gram[start:start + rows]
        np.matmul(block, feats, out=weighted[start:start + rows])
    term = (feats.T @ k_feats) * (centers @ centers.T)
    term -= cross + cross.T
    term += feats.T @ weighted
    term /= (n * s2) ** 2

    def velocity_of(coeff: np.ndarray) -> np.ndarray:
        field = (feats * coeff) @ centers
        field -= x * (feats @ coeff)[:, None]
        field /= s2
        return gram @ field / n

    return term, velocity_of


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


def _takes_rbf_map_term(kernel, fmap: FeatureMap, n: int, d: int, m: int) -> bool:
    """Whether the solve takes ``_rbf_map_quadratic``: ``diagonalized_scalar`` on a plain RBF map.

    The map must be exactly an ``RbfFeatureMap``, whose Jacobian the term
    assumes; its subclasses and every other map keep ``_gram_quadratic``.
    The rule is by shape alone.  The Gram must be one block, as it is kept
    whole, and ``n`` at least ``_RBF_MAP_MIN_ROWS``.  Per Gram entry the
    strips' GEMM takes ``d m`` multiply-adds and the new term ``2 m + d``
    plus the Gram's second half, so the term is taken where
    ``d m >= 2 m + d + _RBF_MAP_GRAM_HALF_COST``: never at ``d <= 2``, from
    ``m >= 83`` at ``d = 3``, ``m >= 29`` at ``d = 5`` and ``m >= 12`` at
    ``d = 10``.
    """
    return (
        isinstance(kernel, KernelSpec)
        and kernel.kind == DIAGONALIZED_SCALAR
        and type(fmap) is RbfFeatureMap
        and _RBF_MAP_MIN_ROWS <= n
        and n * n <= _BLOCK_VALUES
        and d * m >= 2 * m + d + _RBF_MAP_GRAM_HALF_COST
    )


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
    n, d = particles.points.shape
    rbf_map = _takes_rbf_map_term(kernel, fmap, n, d, fmap.feature_dim)
    # the RBF-map term reads the features alone; every other path the Jacobian too
    if rbf_map:
        (feats,) = fmap.derivatives(particles, 0)
    else:
        feats, jac = fmap.derivatives(particles, 1)
    model_mean, fisher = feature_moments(fmap, feats)
    if target_mean is not None:
        target_mean = _real_array(target_mean, "target_mean", shape=(fmap.feature_dim,))
    elif targets is not None:
        target_mean = feature_mean(fmap, targets)
    gap = -model_mean if target_mean is None else -model_mean + target_mean
    if rbf_map:
        quad, velocity_of = _rbf_map_quadratic(kernel, fmap, particles.points, feats)
    else:
        jac_t = np.ascontiguousarray(jac.transpose(0, 2, 1))
        del jac  # the map's own (n, m, d) array goes before the term is built
        quad, velocity_of = _gram_quadratic(kernel, particles.points, jac_t)
    system = ridge * fisher.matrix + quad
    lower = spd_factor(system, SolverError("drift system is not positive definite"))
    coeff = chol_solve(lower, gap)
    return DriftSolution(
        gamma_factor=lower,
        coeff=coeff,
        fmap=fmap,
        kernel=kernel,
        anchors=particles,
        velocity_of=velocity_of,
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
    field from what the solve built.
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
            # The solution, with its per-feature fields or kept Gram, is
            # dropped here rather than kept alive through the next solve.
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
