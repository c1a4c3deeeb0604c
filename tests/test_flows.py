"""Drift solvers, baseline velocity fields, and the forward-Euler flow loop."""
import dataclasses
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.spatial.distance import pdist

from kingflow import (
    CustomLinearMap,
    DivergenceError,
    FlowConfig,
    GaussianQuadraticMap,
    InformedPairwiseMap,
    KernelSpec,
    NtkSpec,
    ParticleSet,
    RbfFeatureMap,
    SolverError,
    eval_drift,
    feature_mean,
    feature_moments,
    kernel_cross_grad,
    kernel_value,
    median_heuristic,
    mmd_flow_velocity,
    ntk_gram_blocks,
    run_flow,
    solve_king_drift,
    solve_ntking_drift,
    wgf_velocity,
)
from kingflow import flows, kernels, manifold
from kingflow.flows import FLOW_METHODS, _apply_kernel, _gram_quadratic, _rbf_columns
from kingflow.kernels import _gaussian_gram


class FeatureKernel:
    """Matrix kernel ``k(x, y) * I`` built from an explicit feature inner product."""

    def __init__(self, fmap):
        self.fmap = fmap

    def pair_blocks(self, xs, ys):
        gram = self.fmap.features(xs) @ self.fmap.features(ys).T
        return gram[:, :, None, None] * np.eye(xs.shape[1])


def drift_case(rng, n=20, dim=2, shift=0.8):
    particles = ParticleSet(rng.standard_normal((n, dim)))
    targets = ParticleSet(rng.standard_normal((n, dim)) + shift)
    return particles, targets


# -- configuration ---------------------------------------------------------------

def test_flow_config_defaults():
    config = FlowConfig(step=0.5, iterations=3)
    assert config.ridge == 1e-3
    assert config.log_every == 10
    assert config.freeze_bandwidth is False


@pytest.mark.parametrize(
    "kwargs",
    [
        {"step": 0.0},
        {"step": -1.0},
        {"iterations": 0},
        {"ridge": 0.0},
        {"ridge": -1e-3},
        {"log_every": 0},
        {"step": float("nan")},
        {"step": float("inf")},
        {"ridge": float("nan")},
        {"iterations": 2.5},
        {"iterations": True},
        {"log_every": True},
        {"log_every": 2.0},
        {"freeze_bandwidth": "false"},
    ],
)
def test_flow_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        FlowConfig(**{"step": 0.1, "iterations": 5, **kwargs})


# -- drift solver ------------------------------------------------------------------

def test_matched_sets_solve_to_zero_drift(rng):
    particles, _ = drift_case(rng)
    targets = ParticleSet(particles.points.copy())
    solution = solve_king_drift(
        GaussianQuadraticMap(input_dim=2),
        KernelSpec("rbf_scalar", bandwidth=1.0),
        particles,
        targets,
        ridge=1e-2,
    )
    assert_allclose(solution.coeff, 0.0, atol=1e-15)
    assert_allclose(eval_drift(solution, particles), 0.0, atol=1e-15)


def test_solver_kernel_kind_guards(rng):
    particles, targets = drift_case(rng)
    fmap = GaussianQuadraticMap(input_dim=2)
    with pytest.raises(ValueError):
        solve_king_drift(
            fmap, KernelSpec("diagonalized_scalar", bandwidth=1.0), particles, targets, ridge=1e-2
        )
    with pytest.raises(ValueError):
        solve_ntking_drift(
            fmap, KernelSpec("rbf_scalar", bandwidth=1.0), particles, targets, ridge=1e-2
        )
    with pytest.raises(ValueError):
        solve_king_drift(
            fmap, KernelSpec("rbf_scalar", bandwidth=1.0), particles, targets, ridge=0.0
        )


def test_solution_satisfies_the_dual_system(rng):
    # assemble the system matrix pairwise from the mixed kernel derivative and
    # check both the solved coefficients and the evaluated field against it
    n, dim, ridge = 15, 2, 1e-4
    particles, targets = drift_case(rng, n=n, dim=dim)
    fmap = GaussianQuadraticMap(input_dim=dim)
    kernel = KernelSpec("rbf_scalar", bandwidth=1.3)
    solution = solve_king_drift(fmap, kernel, particles, targets, ridge=ridge)

    jac = fmap.jacobian(particles.points)
    fisher = feature_moments(fmap, particles)[1]
    quad = np.zeros((fmap.feature_dim, fmap.feature_dim))
    for i in range(n):
        for j in range(n):
            block = kernel_cross_grad(kernel, particles.points[i], particles.points[j])
            quad += jac[i] @ block @ jac[j].T
    system = ridge * fisher.matrix + quad / n**2
    gap = feature_mean(fmap, targets) - feature_mean(fmap, particles)
    assert np.linalg.norm(system @ solution.coeff - gap) <= 1e-8 * np.linalg.norm(gap)
    assert_allclose(solution.gamma_factor @ solution.gamma_factor.T, system, rtol=1e-10)

    queries = rng.standard_normal((4, dim))
    hand = np.zeros((4, dim))
    for q in range(4):
        for i in range(n):
            block = kernel_cross_grad(kernel, queries[q], particles.points[i])
            hand[q] += block @ (jac[i].T @ solution.coeff)
    assert_allclose(eval_drift(solution, queries), hand / n, rtol=1e-9, atol=1e-12)


def test_dual_solve_matches_explicit_weight_regression(rng):
    # for a finite-feature kernel the same field comes from regressing an
    # explicit weight matrix: (A' F^-1 A + ridge I) w = A' F^-1 g with
    # A the mean jacobian-feature coupling, then v(x) = W phi(x)
    n, dim, ridge = 20, 2, 1e-2
    particles, targets = drift_case(rng, n=n, dim=dim)
    fmap = GaussianQuadraticMap(input_dim=dim)
    phi_map = RbfFeatureMap(centers=rng.standard_normal((5, dim)), bandwidth=1.0)
    kernel = FeatureKernel(phi_map)
    solution = solve_king_drift(fmap, kernel, particles, targets, ridge=ridge)
    dual = eval_drift(solution, particles)

    jac = fmap.jacobian(particles.points)
    phi = phi_map.features(particles.points)
    fisher = feature_moments(fmap, particles)[1]
    dim_t, n_feat = fmap.feature_dim, phi.shape[1]
    coupling = np.einsum("iar,ic->arc", jac, phi) / n
    flat = coupling.reshape(dim_t, dim * n_feat)
    whitened = fisher.solve(flat)
    gap = feature_mean(fmap, targets) - feature_mean(fmap, particles)
    normal = flat.T @ whitened + ridge * np.eye(dim * n_feat)
    weights = np.linalg.solve(normal, flat.T @ fisher.solve(gap)).reshape(dim, n_feat)
    primal = phi @ weights.T
    assert np.linalg.norm(primal - dual) <= 1e-8 * np.linalg.norm(dual)


def test_drift_magnitude_scales_inversely_with_large_ridge():
    rng = np.random.default_rng(11)
    particles = ParticleSet(rng.standard_normal((30, 1)))
    targets = ParticleSet(rng.standard_normal((30, 1)) + 2.0)
    fmap = GaussianQuadraticMap(input_dim=1)
    kernel = KernelSpec("rbf_scalar", bandwidth=4.0)
    norms = []
    for ridge in (1.0, 10.0, 100.0):
        solution = solve_king_drift(fmap, kernel, particles, targets, ridge=ridge)
        velocity = eval_drift(solution, particles)
        norms.append(np.linalg.norm(velocity, axis=1).mean())
    assert abs(norms[0] / norms[1] / 10.0 - 1.0) <= 0.2
    assert abs(norms[1] / norms[2] / 10.0 - 1.0) <= 0.2


def test_eval_drift_with_zero_coefficients_is_zero(rng):
    particles, targets = drift_case(rng)
    solution = solve_king_drift(
        GaussianQuadraticMap(input_dim=2),
        KernelSpec("rbf_scalar", bandwidth=1.0),
        particles,
        targets,
        ridge=1e-2,
    )
    silenced = dataclasses.replace(solution, coeff=np.zeros_like(solution.coeff))
    assert_array_equal(eval_drift(silenced, rng.standard_normal((6, 2))), 0.0)


@pytest.mark.parametrize("queries", [[[0.0, np.nan]], [[np.inf, 0.0]], np.zeros((0, 2))])
def test_eval_drift_rejects_non_finite_or_empty_queries(rng, queries):
    particles, targets = drift_case(rng)
    solution = solve_king_drift(
        GaussianQuadraticMap(input_dim=2),
        KernelSpec("rbf_scalar", bandwidth=1.0),
        particles,
        targets,
        ridge=1e-2,
    )
    with pytest.raises(ValueError, match="non-finite|at least one point"):
        eval_drift(solution, queries)


def test_coincident_particles_drift_toward_a_single_target():
    particles = ParticleSet(np.zeros((2, 1)))
    targets = ParticleSet(np.array([[3.0]]))
    solution = solve_king_drift(
        CustomLinearMap([[1.0]]),
        KernelSpec("rbf_scalar", bandwidth=1.0),
        particles,
        targets,
        ridge=1e-2,
    )
    velocity = eval_drift(solution, np.array([[0.0]]))
    assert velocity.shape == (1, 1)
    assert velocity[0, 0] > 0.0


def test_drift_field_is_permutation_invariant(rng):
    particles, targets = drift_case(rng, n=18)
    fmap = GaussianQuadraticMap(input_dim=2)
    kernel = KernelSpec("rbf_scalar", bandwidth=1.2)
    queries = rng.standard_normal((7, 2))
    base = eval_drift(solve_king_drift(fmap, kernel, particles, targets, ridge=1e-3), queries)
    shuffled = eval_drift(
        solve_king_drift(
            fmap,
            kernel,
            ParticleSet(particles.points[::-1].copy()),
            ParticleSet(targets.points[rng.permutation(targets.n)]),
            ridge=1e-3,
        ),
        queries,
    )
    assert_allclose(shuffled, base, rtol=1e-9, atol=1e-12)


def test_diagonalized_kernel_matches_custom_scalar_blocks(rng):
    particles, targets = drift_case(rng)
    fmap = GaussianQuadraticMap(input_dim=2)
    bandwidth = 1.4

    class ScalarBlocks:
        def pair_blocks(self, xs, ys):
            sq = ((xs[:, None, :] - ys[None, :, :]) ** 2).sum(axis=2)
            gram = np.exp(-sq / (2.0 * bandwidth**2))
            return gram[:, :, None, None] * np.eye(xs.shape[1])

    spec_path = solve_ntking_drift(
        fmap, KernelSpec("diagonalized_scalar", bandwidth=bandwidth), particles, targets, ridge=1e-3
    )
    block_path = solve_ntking_drift(fmap, ScalarBlocks(), particles, targets, ridge=1e-3)
    assert_allclose(block_path.coeff, spec_path.coeff, rtol=1e-12)
    queries = rng.standard_normal((5, 2))
    assert_allclose(eval_drift(block_path, queries), eval_drift(spec_path, queries), rtol=1e-12)


def test_tangent_kernel_system_is_positive_definite(rng):
    n, dim = 20, 2
    particles, targets = drift_case(rng, n=n, dim=dim)
    fmap = RbfFeatureMap(centers=rng.standard_normal((10, dim)), bandwidth=1.5)
    kernel = KernelSpec("empirical_ntk", ntk=NtkSpec(input_dim=dim, hidden_width=16, seed=2))
    ridge = 1e-6
    solution = solve_ntking_drift(fmap, kernel, particles, targets, ridge=ridge)

    jac = fmap.jacobian(particles.points)
    blocks = ntk_gram_blocks(kernel.ntk, particles.points, particles.points)
    quad = np.einsum("iad,ijde,jbe->ab", jac, blocks, jac) / n**2
    fisher = feature_moments(fmap, particles)[1]
    system = ridge * fisher.matrix + quad
    assert np.linalg.eigvalsh(system).min() > 0.0
    assert_allclose(solution.gamma_factor @ solution.gamma_factor.T, system, rtol=1e-8)


class ConstantKernel:
    """Custom matrix kernel ``K(x, y) = scale * I`` for every pair."""

    def __init__(self, scale):
        self.scale = scale

    def pair_blocks(self, xs, ys):
        d = xs.shape[1]
        return np.broadcast_to(self.scale * np.eye(d), (xs.shape[0], ys.shape[0], d, d))


def test_indefinite_drift_system_raises_solver_error(rng):
    # A negative constant kernel subtracts a multiple of M M^T (M the mean
    # Jacobian) from ridge * Fisher; scale it just past the point where the
    # system turns indefinite, by far less than the old diagonal-load cap.
    particles, targets = drift_case(rng)
    fmap = GaussianQuadraticMap(input_dim=2)
    ridge = 1e-2
    jac = fmap.jacobian(particles.points)
    loaded = ridge * feature_moments(fmap, particles)[1].matrix
    jac_t = jac.transpose(0, 2, 1)
    removed = -_gram_quadratic(ConstantKernel(-1.0), particles.points, jac_t)[0]
    critical = 1.0 / scipy.linalg.eigh(removed, loaded, eigvals_only=True).max()
    kernel = ConstantKernel(-critical * (1.0 + 1e-3))
    system = loaded + _gram_quadratic(kernel, particles.points, jac_t)[0]
    smallest = np.linalg.eigvalsh(system).min()
    assert -1e-3 * np.trace(system) / system.shape[0] < smallest < 0.0

    for solve in (solve_king_drift, solve_ntking_drift):
        with pytest.raises(SolverError):
            solve(fmap, kernel, particles, targets, ridge)
    config = FlowConfig(step=0.1, iterations=1, ridge=ridge)
    with pytest.raises(SolverError):
        run_flow("king", fmap, kernel, targets, particles, config)


# -- kernel application against the reference blocks ----------------------------------

class SkewKernel:
    """Custom matrix kernel ``exp(-|x - y|^2 / 2) A + x y^T`` with non-symmetric blocks."""

    def __init__(self, mix):
        self.mix = mix

    def pair_blocks(self, xs, ys):
        sq = ((xs[:, None, :] - ys[None, :, :]) ** 2).sum(axis=2)
        outer = xs[:, None, :, None] * ys[None, :, None, :]
        return np.exp(-sq / 2.0)[:, :, None, None] * self.mix + outer


def reference_blocks(kernel, xs, ys):
    """Pairwise blocks ``(len(xs), len(ys), d, d)`` from the reference evaluators."""
    if not isinstance(kernel, KernelSpec):
        return kernel.pair_blocks(xs, ys)
    if kernel.kind == "rbf_scalar":
        return np.array([[kernel_cross_grad(kernel, x, y) for y in ys] for x in xs])
    if kernel.kind == "diagonalized_scalar":
        gram = np.array([[kernel_value(kernel, x, y) for y in ys] for x in xs])
        return gram[:, :, None, None] * np.eye(xs.shape[1])
    return ntk_gram_blocks(kernel.ntk, xs, ys)


@st.composite
def kernel_cases(draw, kind):
    n = draw(st.integers(2, 7))
    n_queries = draw(st.integers(2, 5))
    n_fields = draw(st.integers(2, 4))
    dim = draw(st.integers(1, 3))
    bandwidth = draw(st.floats(0.2, 5.0))
    offset = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=dim, max_size=dim)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    anchors = offset + bandwidth * rng.standard_normal((n, dim))
    queries = offset + bandwidth * rng.standard_normal((n_queries, dim))
    vels = rng.standard_normal((n, dim, n_fields))
    if kind == "empirical_ntk":
        hidden = draw(st.integers(1, 8))
        ntk = NtkSpec(input_dim=dim, hidden_width=hidden, seed=int(rng.integers(1000)))
        kernel = KernelSpec(kind, ntk=ntk)
    elif kind == "custom":
        kernel = SkewKernel(rng.standard_normal((dim, dim)))
    else:
        kernel = KernelSpec(kind, bandwidth=bandwidth)
    return kernel, anchors, queries, vels


def assert_matches_reference(actual, expected):
    assert_allclose(actual, expected, rtol=1e-10, atol=1e-10 * np.abs(expected).max())


def fields_of(velocity_of, n_fields):
    """The per-feature fields ``(n, d, m)`` behind a solve's ``velocity_of``, one basis vector each."""
    return np.stack([velocity_of(e) for e in np.eye(n_fields)], axis=2)


KERNEL_CASE_KINDS = ("rbf_scalar", "diagonalized_scalar", "empirical_ntk", "custom")


@pytest.mark.parametrize("kind", KERNEL_CASE_KINDS)
@settings(max_examples=40, deadline=None, database=None)
@given(data=st.data())
def test_kernel_application_matches_the_reference_blocks(kind, data):
    kernel, anchors, queries, vels = data.draw(kernel_cases(kind))
    n = anchors.shape[0]
    blocks = reference_blocks(kernel, queries, anchors)
    expected = np.einsum("qide,iek->qdk", blocks, vels) / n
    assert_matches_reference(_apply_kernel(kernel, queries, anchors, vels), expected)

    self_blocks = reference_blocks(kernel, anchors, anchors)
    expected_quad = np.einsum("ida,ijde,jeb->ab", vels, self_blocks, vels) / n**2
    assert_matches_reference(_gram_quadratic(kernel, anchors, vels)[0], expected_quad)


@pytest.mark.parametrize("kind", ["rbf_scalar", "diagonalized_scalar"])
@settings(max_examples=25, deadline=None, database=None)
@given(data=st.data())
def test_symmetric_strips_match_the_reference_blocks(kind, data):
    # A block of exactly the products of all n rows leaves strips of
    # max(1, width // 2) rows, so n past twice that takes at least 3 strips;
    # n past width keeps the whole Gram out.
    dim, n_fields = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 3))
    bandwidth = data.draw(st.floats(0.2, 5.0))
    kernel = KernelSpec(kind, bandwidth=bandwidth)
    width = flows._gaussian_width(kernel, dim, n_fields)
    low = max(2 * max(1, width // 2), width) + 1
    n = data.draw(st.integers(low, low + 11))
    offset = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=dim, max_size=dim)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    anchors = offset + bandwidth * rng.standard_normal((n, dim))
    vels = rng.standard_normal((n, dim, n_fields))
    strips = []

    def counted_gram(*args, **kwargs):
        strips.append(args[1].shape[0])
        return _gaussian_gram(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(flows, "_BLOCK_VALUES", n * width)
        patch.setattr(flows, "_gaussian_gram", counted_gram)
        quad, velocity_of = _gram_quadratic(kernel, anchors, vels)
    assert len(strips) >= 3 and sum(strips) == n

    blocks = reference_blocks(kernel, anchors, anchors)
    fields = fields_of(velocity_of, n_fields)
    assert_matches_reference(fields, np.einsum("qide,iek->qdk", blocks, vels) / n)
    expected_quad = np.einsum("ida,ijde,jeb->ab", vels, blocks, vels) / n**2
    assert_matches_reference(quad, expected_quad)


@pytest.mark.parametrize("kind", KERNEL_CASE_KINDS)
@pytest.mark.parametrize("offset", [0.0, 1e3])
@pytest.mark.parametrize("n", [8, 60])
def test_anchor_velocity_matches_eval_drift_at_the_anchors(kind, offset, n, rng):
    # At d = 2 and five features rbf_scalar keeps the whole Gram at n = 8
    # (n <= width = 45) and takes the symmetric strips at n = 60, as
    # diagonalized_scalar does at both.
    dim, m = 2, 5
    particles, targets = drift_case(rng, n=n, dim=dim)
    particles = ParticleSet(particles.points + offset)
    targets = ParticleSet(targets.points + offset)
    fmap = RbfFeatureMap(centers=offset + rng.standard_normal((m, dim)), bandwidth=1.5)
    solve = solve_king_drift if kind == "rbf_scalar" else solve_ntking_drift
    if kind == "custom":
        skew = rng.standard_normal((dim, dim))
        kernel = SkewKernel(np.eye(dim) + skew - skew.T)
    elif kind == "empirical_ntk":
        kernel = KernelSpec(kind, ntk=NtkSpec(input_dim=dim, hidden_width=8, seed=3))
    else:
        kernel = KernelSpec(kind, bandwidth=1.3)
    solution = solve(fmap, kernel, particles, targets, ridge=1e-3)
    expected = eval_drift(solution, particles)
    velocity = solution.anchor_velocity()
    fields = fields_of(solution.velocity_of, m)
    assert fields.shape == (n, dim, m)
    # The two paths sum the per-feature fields in different orders.  Far
    # from the origin the kernels that are not translation invariant
    # cancel fields much larger than the velocity, so the rounding scale
    # is the summed magnitude sum_a |coeff_a| |field_a|.
    magnitude = np.einsum("qda,a->qd", np.abs(fields), np.abs(solution.coeff))
    assert_allclose(velocity, expected, rtol=1e-12, atol=1e-12 * magnitude.max())
    silenced = dataclasses.replace(solution, coeff=np.zeros_like(solution.coeff))
    assert_array_equal(silenced.anchor_velocity(), 0.0)


def test_custom_kernel_is_applied_one_row_block_at_a_time(rng):
    # More queries than one block of _BLOCK_VALUES // n rows: pair_blocks
    # only ever sees one block's rows, and the blocks add up to the
    # unblocked application.
    n, d, k = 300, 2, 3
    rows = kernels._BLOCK_VALUES // n
    anchors = rng.standard_normal((n, d))
    queries = rng.standard_normal((2 * rows + 5, d))
    vels = rng.standard_normal((n, d, k))
    skew = SkewKernel(rng.standard_normal((d, d)))
    seen = []

    class RecordingKernel:
        def pair_blocks(self, xs, ys):
            seen.append(xs.shape[0])
            return skew.pair_blocks(xs, ys)

    applied = _apply_kernel(RecordingKernel(), queries, anchors, vels)
    assert seen == [rows, rows, 5]
    expected = np.einsum("qide,iek->qdk", skew.pair_blocks(queries, anchors), vels) / n
    assert_matches_reference(applied, expected)


def count_kernel_gram_entries(monkeypatch):
    """A list that gathers the entry count of every Gram block ``flows`` builds."""
    entries = []
    gaussian_gram = kernels._gaussian_gram

    def counting_gram(bandwidth, xs, ys, out=None):
        entries.append(xs.shape[0] * ys.shape[0])
        return gaussian_gram(bandwidth, xs, ys, out)

    monkeypatch.setattr(flows, "_gaussian_gram", counting_gram)
    return entries


@pytest.mark.parametrize("kind", ["rbf_scalar", "diagonalized_scalar"])
@pytest.mark.parametrize("n", [700, 2000])
@pytest.mark.parametrize("offset", [0.0, 1e3])
def test_symmetric_strips_match_the_row_blocks(kind, n, offset, rng, monkeypatch):
    # At d = 2 and five fields the products of all rows fit in one block, so
    # the solve's Gram is taken in symmetric strips, more than two of them.
    d, k = 2, 5
    pts = offset + rng.standard_normal((n, d))
    vels = rng.standard_normal((n, d, k))
    kernel = KernelSpec(kind, bandwidth=1.3)
    expected = _apply_kernel(kernel, pts, pts, vels)
    strips = count_kernel_gram_entries(monkeypatch)
    quad, velocity_of = _gram_quadratic(kernel, pts, vels)
    assert len(strips) >= 3
    assert_matches_reference(fields_of(velocity_of, k), expected)
    assert_matches_reference(quad, vels.reshape(n * d, k).T @ expected.reshape(n * d, k) / n)


def test_gram_quadratic_keeps_the_row_block_arithmetic_at_wide_shapes(rng):
    # bimodal_n250's shape: diagonalized_scalar's products of all rows fit
    # in one strip, whose arithmetic is that of one row block.
    n, d, k = 250, 5, 50
    pts = rng.standard_normal((n, d))
    vels = rng.standard_normal((n, d, k))
    kernel = KernelSpec("diagonalized_scalar", bandwidth=2.0)
    quad, velocity_of = _gram_quadratic(kernel, pts, vels)
    expected = _apply_kernel(kernel, pts, pts, vels)
    assert_array_equal(fields_of(velocity_of, k), expected)
    assert_array_equal(quad, vels.reshape(n * d, k).T @ expected.reshape(n * d, k) / n)


@pytest.mark.parametrize("offset", [0.0, 1e3])
def test_whole_gram_system_term_is_exactly_symmetric(offset, rng, monkeypatch):
    # bimodal_n250's king shape: the rbf_scalar Gram is one block and no
    # wider than the anchor columns (1800 values a row), so it is built
    # once, whole, and its upper triangle gives the term as (S + S^T) / n^2.
    n, d, k = 250, 5, 50
    pts = offset + rng.standard_normal((n, d))
    vels = rng.standard_normal((n, d, k))
    kernel = KernelSpec("rbf_scalar", bandwidth=2.0)
    expected = _apply_kernel(kernel, pts, pts, vels)
    entries = count_kernel_gram_entries(monkeypatch)
    quad, velocity_of = _gram_quadratic(kernel, pts, vels)
    assert_array_equal(quad, quad.T)
    assert_matches_reference(quad, vels.reshape(n * d, k).T @ expected.reshape(n * d, k) / n)
    assert_matches_reference(fields_of(velocity_of, k), expected)
    # one Gram, kept for the velocities
    assert entries == [n * n]


def test_whole_gram_solve_stays_within_its_memory_budget(rng, traced_peak):
    # bimodal_n250's king solve: the triangular product overwrites the
    # (n, (d+1)^2 m) anchor columns (3.4 MiB) in place.  A GEMM of the Gram
    # with them into a products array of the same size peaked at 9.5 MiB.
    n, dim = 250, 5
    particles, targets = drift_case(rng, n=n, dim=dim)
    fmap = RbfFeatureMap(centers=rng.standard_normal((50, dim)), bandwidth=2.0)
    kernel = KernelSpec("rbf_scalar", bandwidth=1.0)
    assert traced_peak(lambda: solve_king_drift(fmap, kernel, particles, targets, 1e-3)) < 7 * 2**20


def test_symmetric_strips_build_each_gram_entry_once(rng, monkeypatch):
    # ngd_track_n800's shape: seven strips build 0.57 n^2 entries, where the
    # row blocks built n^2.
    n = 800
    particles, targets = drift_case(rng, n=n)
    entries = count_kernel_gram_entries(monkeypatch)
    solve_king_drift(
        GaussianQuadraticMap(input_dim=2), KernelSpec("rbf_scalar", bandwidth=1.0),
        particles, targets, ridge=1e-3,
    )
    assert sum(entries) <= 0.65 * n * n


@pytest.mark.parametrize("n", [250, 400])
def test_solve_and_anchor_velocity_build_each_gram_entry_once(n, rng, monkeypatch):
    # At d = 5 and 50 features the king solve keeps the whole Gram at
    # bimodal_n250's n = 250 and takes the row blocks at n = 400 (n^2 past
    # one block).  Neither the whole Gram nor the fields are built again
    # for the anchor velocity.
    dim = 5
    particles, targets = drift_case(rng, n=n, dim=dim)
    fmap = RbfFeatureMap(centers=rng.standard_normal((50, dim)), bandwidth=2.0)
    entries = count_kernel_gram_entries(monkeypatch)
    kernel = KernelSpec("rbf_scalar", bandwidth=1.0)
    solve_king_drift(fmap, kernel, particles, targets, 1e-3).anchor_velocity()
    assert sum(entries) == n * n


@pytest.mark.parametrize(
    "kind, n, dim, m",
    [
        ("rbf_scalar", 8, 2, 5),
        ("rbf_scalar", 100, 2, 5),
        ("rbf_scalar", 400, 10, 50),
        ("diagonalized_scalar", 8, 2, 5),
        ("diagonalized_scalar", 100, 2, 5),
        ("diagonalized_scalar", 400, 10, 50),
    ],
    ids=[
        "rbf_whole_gram", "rbf_strips", "rbf_row_blocks",
        "diagonalized_strips_small", "diagonalized_strips", "diagonalized_row_blocks",
    ],
)
def test_solve_leaves_its_inputs_and_jacobian_intact(kind, n, dim, m, rng):
    # The whole-Gram path multiplies its anchor columns in place;
    # diagonalized_scalar's columns are a view of the transposed Jacobian,
    # which must never be the array written over.
    particles, targets = drift_case(rng, n=n, dim=dim)
    points = particles.points.copy()
    fmap = RbfFeatureMap(centers=rng.standard_normal((m, dim)), bandwidth=2.0)
    solve = solve_king_drift if kind == "rbf_scalar" else solve_ntking_drift
    solution = solve(fmap, KernelSpec(kind, bandwidth=1.0), particles, targets, 1e-3)
    velocity = solution.anchor_velocity()
    assert_array_equal(particles.points, points)
    # evaluated on first access, from the map and the anchors
    assert_array_equal(solution.jacobian, fmap.jacobian(particles))
    assert_matches_reference(eval_drift(solution, particles), velocity)


# -- diagonalized_scalar on a plain RBF map --------------------------------------------

def rbf_map_expansion_scale(fmap, gram, pts):
    """The RBF-map term's expansion summed over absolute values: the scale of its rounding.

    Far from the map's bandwidth the expansion cancels terms many orders
    of magnitude larger than the term itself, so its rounding is relative
    to this sum, not to the term.
    """
    n = pts.shape[0]
    centre = pts.mean(axis=0)
    x, centers = pts - centre, fmap.centers - centre
    feats = fmap.features(pts)
    k_feats = gram @ feats
    cross = (k_feats * np.abs(x @ centers.T)).T @ feats
    scale = (feats.T @ k_feats) * np.abs(centers @ centers.T) + cross + cross.T
    scale += feats.T @ (gram * np.abs(x @ x.T)) @ feats
    return scale / (n * fmap.bandwidth**2) ** 2


@st.composite
def rbf_map_cases(draw):
    # Shapes on both sides of the RBF-map rule: n below and past its floor,
    # d from 1 to 10 and m to 40 (the rule takes d = 10 from m = 12).
    n = draw(st.one_of(st.integers(2, 12), st.integers(64, 70)))
    dim, m = draw(st.integers(1, 10)), draw(st.integers(1, 40))
    offset = draw(st.sampled_from([0.0, 1e3]))
    spread = draw(st.floats(0.5, 2.0))
    # the particles' spread over the map's bandwidth
    ratio = draw(st.floats(0.2, 30.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = offset + spread * rng.standard_normal((n, dim))
    fmap = RbfFeatureMap(
        centers=offset + spread * rng.standard_normal((m, dim)), bandwidth=spread / ratio
    )
    kernel = KernelSpec("diagonalized_scalar", bandwidth=spread * draw(st.floats(0.2, 5.0)))
    return kernel, fmap, pts


@settings(max_examples=30, deadline=None, database=None)
@given(case=rbf_map_cases())
def test_rbf_map_term_matches_the_reference_blocks(case):
    kernel, fmap, pts = case
    n, m = pts.shape[0], fmap.feature_dim
    feats, jac = fmap.derivatives(pts, 1)
    jac_t = jac.transpose(0, 2, 1)
    quad, velocity_of = flows._rbf_map_quadratic(kernel, fmap, pts, feats)
    generic_quad, generic_velocity_of = _gram_quadratic(kernel, pts, np.ascontiguousarray(jac_t))

    blocks = reference_blocks(kernel, pts, pts)
    expected_fields = np.einsum("qide,iek->qdk", blocks, jac_t, optimize=True) / n
    fields = fields_of(velocity_of, m)
    assert_matches_reference(fields, expected_fields)
    assert_matches_reference(fields, fields_of(generic_velocity_of, m))

    # The expansion cancels, so its rounding is eps times its own scale, not
    # times |term|: at 100/3/20 with spread 10 and map bandwidth 1 the scale
    # is about 200 times the largest entry of the term.  Entries that
    # underflow into subnormals round on the smallest normal number before
    # the division by (n s_f^2)^2.
    expected = np.einsum("ida,ijde,jeb->ab", jac_t, blocks, jac_t, optimize=True) / n**2
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    scale = rbf_map_expansion_scale(fmap, blocks[:, :, 0, 0], pts)
    bound = 64 * eps * scale + tiny / (n * fmap.bandwidth**2) ** 2
    assert np.all(np.abs(quad - expected) <= bound)
    assert np.all(np.abs(quad - generic_quad) <= bound)


class DoubledRbfMap(RbfFeatureMap):
    """An RBF map subclass with its own ``_derivatives``: features and Jacobian doubled."""

    def _derivatives(self, pts, order):
        return tuple(2.0 * value for value in super()._derivatives(pts, order))


@pytest.mark.parametrize(
    "map_kind, n, dim, m, takes",
    [
        ("rbf", 200, 10, 50, True),  # ggm_ntking's shape
        ("rbf", 64, 10, 12, True),  # the smallest n, and the smallest m at d = 10
        ("rbf", 362, 3, 83, True),  # the largest n, and the smallest m at d = 3
        ("rbf", 63, 10, 50, False),
        ("rbf", 363, 10, 50, False),  # n^2 past one block: the row blocks
        ("rbf", 200, 2, 200, False),  # d below the floor: the strips
        ("rbf", 200, 3, 82, False),
        ("rbf", 200, 10, 11, False),
        ("informed", 200, 10, 50, False),
        ("subclass", 200, 10, 50, False),
    ],
)
def test_diagonalized_solve_takes_the_rbf_map_term_by_shape_and_map_type(
    map_kind, n, dim, m, takes, rng, monkeypatch
):
    def refuse(*args, **kwargs):
        raise AssertionError("this path must not be taken")

    particles, targets = drift_case(rng, n=n, dim=dim)
    centers = rng.standard_normal((m, dim))
    if map_kind == "informed":
        fmap = InformedPairwiseMap(centers=centers, bandwidth=2.0, pairs=((0, 1),))
    else:
        fmap = (DoubledRbfMap if map_kind == "subclass" else RbfFeatureMap)(centers, 2.0)
    kernel = KernelSpec("diagonalized_scalar", bandwidth=1.0)
    if takes:
        monkeypatch.setattr(flows, "_self_apply", refuse)
        monkeypatch.setattr(flows, "_apply_kernel", refuse)
    else:
        monkeypatch.setattr(flows, "_rbf_map_quadratic", refuse)
    entries = count_kernel_gram_entries(monkeypatch)
    solution = solve_ntking_drift(fmap, kernel, particles, targets, 1e-3)
    solution.anchor_velocity()
    assert_array_equal(solution.jacobian, fmap.jacobian(particles))
    if takes:
        # one whole Gram, kept for the anchor velocity
        assert entries == [n * n]


def test_rbf_map_term_stays_within_its_memory_budget(rng, traced_peak):
    # The largest n the RBF-map term takes, at ggm_ntking's d and m.  It
    # holds the kept Gram (1.0 MiB) and a few (n, m) arrays (141 KiB each),
    # 1.6 MiB at its peak; the row blocks, with their (n, d, m) fields of
    # 1.4 MiB, peaked at 3.8 MiB here.
    n, dim, m = 362, 10, 50
    pts = rng.standard_normal((n, dim))
    fmap = RbfFeatureMap(centers=rng.standard_normal((m, dim)), bandwidth=2.0)
    kernel = KernelSpec("diagonalized_scalar", bandwidth=1.5)
    feats, jac = fmap.derivatives(pts, 1)
    coeff = rng.standard_normal(m)

    def term_and_velocity():
        _, velocity_of = flows._rbf_map_quadratic(kernel, fmap, pts, feats)
        velocity_of(coeff)

    assert traced_peak(term_and_velocity) < 8 * (n * n + 6 * n * m)


def test_rbf_map_solve_stays_within_its_memory_budget(rng, traced_peak):
    # The whole solve and its anchor velocity at the same shape hold the
    # kept Gram (1.0 MiB) and a few (n, m) arrays, 1.8 MiB at the peak.
    # Evaluating the (n, m, d) Jacobian, 1.4 MiB, took it to 3.3 MiB.
    n, dim, m = 362, 10, 50
    particles, targets = drift_case(rng, n=n, dim=dim)
    fmap = RbfFeatureMap(centers=rng.standard_normal((m, dim)), bandwidth=2.0)
    kernel = KernelSpec("diagonalized_scalar", bandwidth=1.5)

    def solve_and_velocity():
        solve_ntking_drift(fmap, kernel, particles, targets, 1e-3).anchor_velocity()

    assert traced_peak(solve_and_velocity) < 8 * (n * n + 8 * n * m)


@pytest.mark.parametrize(
    "map_kind, n, order", [("rbf", 64, 0), ("rbf", 12, 1), ("informed", 64, 1)],
    ids=["rbf_map_term", "strips", "informed"],
)
def test_ntking_flow_evaluates_a_jacobian_only_off_the_rbf_map_term(
    map_kind, n, order, rng, monkeypatch
):
    # The RBF-map term reads the features alone; n = 12 takes the strips
    # and the informed map the strips too, both from the Jacobian.  A
    # patched RbfFeatureMap._derivatives sees every call, the informed
    # map's included, where a subclass would leave the rule's path.
    dim, m, n_targets, iterations = 10, 12, 30, 3
    init = ParticleSet(rng.standard_normal((n, dim)))
    targets = ParticleSet(rng.standard_normal((n_targets, dim)) + 0.5)
    centers = rng.standard_normal((m, dim))
    if map_kind == "informed":
        fmap = InformedPairwiseMap(centers=centers, bandwidth=2.0, pairs=((0, 1),))
    else:
        fmap = RbfFeatureMap(centers=centers, bandwidth=2.0)
    calls = []
    derivatives = RbfFeatureMap._derivatives

    def recording(self, pts, order):
        calls.append((pts.shape[0], order))
        return derivatives(self, pts, order)

    monkeypatch.setattr(RbfFeatureMap, "_derivatives", recording)
    run_flow(
        "ntking", fmap, KernelSpec("diagonalized_scalar"), targets, init,
        FlowConfig(step=0.1, iterations=iterations, ridge=1e-2),
    )
    # the target mean, then one call per iteration
    assert calls == [(n_targets, 0)] + [(n, order)] * iterations


def literal_drift_flow(kind, fmap, targets, init, config):
    """Every particle set of a drift flow on ``kind``'s Gaussian kernel, pair by pair.

    The bandwidth is ``median_heuristic(particles, targets)``, refreshed
    every iteration unless ``config.freeze_bandwidth`` keeps the initial one.
    """
    target_mean = feature_mean(fmap, targets)
    particles, logged = init, [init.points]
    n = init.points.shape[0]
    bandwidth = median_heuristic(init, targets)
    for _ in range(config.iterations):
        if not config.freeze_bandwidth:
            bandwidth = median_heuristic(particles, targets)
        kernel = KernelSpec(kind, bandwidth=bandwidth)
        jac = fmap.jacobian(particles)
        model_mean, fisher = feature_moments(fmap, particles)
        blocks = reference_blocks(kernel, particles.points, particles.points)
        term = np.einsum("iad,ijde,jbe->ab", jac, blocks, jac, optimize=True) / n**2
        coeff = np.linalg.solve(config.ridge * fisher.matrix + term, target_mean - model_mean)
        velocity = np.einsum("ijde,jae,a->id", blocks, jac, coeff, optimize=True) / n
        particles = ParticleSet(particles.points + config.step * velocity)
        logged.append(particles.points)
    return logged


@settings(max_examples=6, deadline=None, database=None)
@given(data=st.data())
def test_rbf_map_flow_matches_a_literal_pairwise_loop(data):
    # Each shape takes the RBF-map term: n = 64 and m at least the rule's
    # smallest at each d.  Not d = 3: its 83 or more overlapping features
    # put the drift system's condition number past 1e8, and the rounding
    # of either path grows past the tolerance within a few iterations.
    # Every logged set is compared by its displacement from the initial
    # points, which far from the origin is much smaller than the points.
    n = 64
    dim = data.draw(st.sampled_from([5, 10]))
    m = {5: 29, 10: 12}[dim] + data.draw(st.integers(0, 4))
    offset = data.draw(st.sampled_from([0.0, 1e3]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    init = ParticleSet(offset + rng.standard_normal((n, dim)))
    targets = ParticleSet(offset + 1.0 + rng.standard_normal((80, dim)))
    fmap = RbfFeatureMap(centers=offset + 1.5 * rng.standard_normal((m, dim)), bandwidth=2.0)
    assert flows._takes_rbf_map_term(KernelSpec("diagonalized_scalar"), fmap, n, dim, m)
    config = FlowConfig(
        step=0.5, iterations=data.draw(st.integers(3, 5)), ridge=1e-2, log_every=1
    )
    logged = []
    run_flow(
        "ntking", fmap, KernelSpec("diagonalized_scalar"), targets, init, config,
        observer=lambda iteration, t, particles, diagnostics: logged.append(particles.points),
    )
    expected = literal_drift_flow("diagonalized_scalar", fmap, targets, init, config)
    assert len(logged) == len(expected) == config.iterations + 1
    for flowed, literal in zip(logged, expected):
        assert_matches_reference(flowed - init.points, literal - init.points)


@st.composite
def gram_path_cases(draw, kind, path):
    # n up to 40 and a block of n * n values with n no wider than the anchor
    # columns (rbf_scalar's whole Gram; for diagonalized_scalar, with n
    # below width, one row block of all n rows), of exactly the products of
    # all n rows (strips of max(1, width // 2) rows, so n past twice that
    # takes at least 3; n past width keeps the whole Gram out), or one value
    # short of both (the row blocks).  At least 8 particles where the path
    # allows, centres among the targets at least 1 apart and a map bandwidth
    # growing as sqrt(d) keep every drift system well conditioned and every
    # flow bounded: closer centres or a narrower map put the condition
    # number past 1e6 or sent a flow off to 1e100, and either path's
    # rounding past the tolerance.
    if kind == "diagonalized_scalar" and path == "one_block":
        dim, m = 3, draw(st.integers(3, 4))
    else:
        dim, m = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    width = flows._gaussian_width(KernelSpec(kind), dim, m)
    if path == "one_block":
        high = min(width - (kind == "diagonalized_scalar"), 40)
        n = draw(st.integers(min(8, high), high))
        block = n * n
    elif path == "strips":
        n = draw(st.integers(max(2 * max(1, width // 2), width if kind == "rbf_scalar" else 0, 7) + 1, 40))
        block = n * width
    else:
        n = draw(st.integers(8, 40))
        block = min(n * n, n * width) - 1
    offset = draw(st.sampled_from([0.0, 1e3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    centers = 1.0 + rng.standard_normal((m, dim))
    assume(m == 1 or pdist(centers).min() >= 1.0)
    init = ParticleSet(offset + rng.standard_normal((n, dim)))
    targets = ParticleSet(offset + 1.0 + rng.standard_normal((30, dim)))
    fmap = RbfFeatureMap(centers=offset + centers, bandwidth=1.5 * np.sqrt(dim))
    config = FlowConfig(
        step=0.5, iterations=draw(st.integers(3, 5)), ridge=1e-2, log_every=1,
        freeze_bandwidth=draw(st.booleans()),
    )
    return fmap, targets, init, config, block


@pytest.mark.parametrize(
    "method, kind, path",
    [
        ("king", "rbf_scalar", "one_block"),
        ("king", "rbf_scalar", "strips"),
        ("king", "rbf_scalar", "row_blocks"),
        ("ntking", "diagonalized_scalar", "one_block"),
        ("ntking", "diagonalized_scalar", "strips"),
        ("ntking", "diagonalized_scalar", "row_blocks"),
    ],
)
@settings(max_examples=8, deadline=None, database=None)
@given(data=st.data())
def test_flow_on_every_gram_path_matches_a_literal_pairwise_loop(method, kind, path, data):
    # flows._BLOCK_VALUES, patched small, puts n <= 40 on each path; every
    # iteration's Gram blocks show which one was taken.  Every logged set is
    # compared by its displacement from the initial points.
    fmap, targets, init, config, block = data.draw(gram_path_cases(kind, path))
    n = init.points.shape[0]
    grams, logged = [], []
    gaussian_gram = kernels._gaussian_gram

    def recording_gram(bandwidth, xs, ys, out=None):
        grams.append((xs.shape[0], ys.shape[0]))
        return gaussian_gram(bandwidth, xs, ys, out)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(flows, "_BLOCK_VALUES", block)
        patch.setattr(flows, "_gaussian_gram", recording_gram)
        run_flow(
            method, fmap, KernelSpec(kind), targets, init, config,
            observer=lambda iteration, t, particles, diagnostics: logged.append(particles.points),
        )
    per_iteration = grams[: len(grams) // config.iterations]
    assert grams == per_iteration * config.iterations
    rows, cols = zip(*per_iteration)
    assert sum(rows) == n
    if path == "one_block":
        assert per_iteration == [(n, n)]
    elif path == "strips":
        assert len(rows) >= 3 and list(cols) == [n - sum(rows[:i]) for i in range(len(rows))]
    else:
        assert len(rows) >= 2 and set(cols) == {n}
    expected = literal_drift_flow(kind, fmap, targets, init, config)
    assert len(logged) == len(expected) == config.iterations + 1
    for flowed, literal in zip(logged, expected):
        assert_matches_reference(flowed - init.points, literal - init.points)


def test_drift_iteration_memory_stays_bounded_at_large_n(rng, traced_peak):
    # Each kernel is applied a block of rows at a time and only the fields
    # are whole, so no (n, n) or (q, n) array is made.  The whole-Gram
    # applications peaked at 106 MiB (rbf_scalar, d = 5, m = 50) and 68 MiB
    # (diagonalized_scalar, d = 10, m = 60) at n = 2000.
    n = 2000
    for dim, m, kind, solve, budget in (
        (5, 50, "rbf_scalar", solve_king_drift, 48),
        (10, 60, "diagonalized_scalar", solve_ntking_drift, 40),
    ):
        particles = ParticleSet(rng.standard_normal((n, dim)))
        targets = ParticleSet(rng.standard_normal((n, dim)) + 0.5)
        fmap = RbfFeatureMap(centers=rng.standard_normal((m, dim)), bandwidth=2.0)
        kernel = KernelSpec(kind, bandwidth=1.5)

        def iteration():
            solve(fmap, kernel, particles, targets, ridge=1e-3).anchor_velocity()

        assert traced_peak(iteration) < budget * 2**20, kind
    # 20 000 queries against 200 anchors: their (q, n) Gram alone is 30.5 MiB.
    particles, targets = drift_case(rng, n=200, dim=5)
    fmap = RbfFeatureMap(centers=rng.standard_normal((50, 5)), bandwidth=2.0)
    kernel = KernelSpec("rbf_scalar", bandwidth=1.5)
    solution = solve_king_drift(fmap, kernel, particles, targets, ridge=1e-3)
    queries = rng.standard_normal((20_000, 5))
    assert traced_peak(lambda: eval_drift(solution, queries)) < 8 * 2**20


BLOCK_FAULT_PROBE = """
import resource
import numpy as np
from kingflow import KernelSpec
from kingflow.flows import _apply_kernel, _gram_quadratic

rng = np.random.default_rng(0)
pts = rng.standard_normal((800, 2))
vels = rng.standard_normal((800, 2, 5))
kernel = KernelSpec("rbf_scalar", bandwidth=1.5)
for _ in range(3):
    _apply_kernel(kernel, pts, pts, vels)
    _gram_quadratic(kernel, pts, vels)
start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    _apply_kernel(kernel, pts, pts, vels)
    _gram_quadratic(kernel, pts, vels)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start) / 20)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap policy is glibc's")
def test_row_blocks_do_not_fault_under_the_default_heap_policy():
    # With glibc's default thresholds, a 1 MiB temporary beside each 1 MiB
    # Gram block had the freed heap top trimmed and faulted back in, about
    # 2400 page faults per application at this shape.  The probe counts the
    # row blocks of an application and the symmetric strips of a solve
    # together.  A products array held apart from strips of a whole block
    # made about 370 faults per solve, in about a third of fresh interpreters
    # (the heap layout varies with the hash seed).
    src = str(Path(kernels.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", BLOCK_FAULT_PROBE], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert float(done.stdout) < 50


def test_rbf_system_term_stays_within_its_memory_budget(rng, traced_peak):
    # The rbf_scalar system term is built from the per-feature fields, one
    # GEMM of the Gram with the anchor columns whose widest block is
    # n*d^2*m (3.8 MiB here); any (n, m, n) intermediate would take 61 MiB.
    n, m, d = 400, 50, 5
    pts = 3.0 + rng.standard_normal((n, d))
    jac_t = rng.standard_normal((n, d, m))
    kernel = KernelSpec("rbf_scalar", bandwidth=1.5)
    assert traced_peak(lambda: _gram_quadratic(kernel, pts, jac_t)) < 20 * 2**20


def test_rbf_apply_stays_within_its_memory_budget(rng, traced_peak):
    # One GEMM of the Gram with the anchor columns; the former (q, k, n)
    # weighted-difference array alone was 5 MiB here.
    n, d = 800, 2
    pts = rng.standard_normal((n, d))
    vels = rng.standard_normal((n, d, 1))
    gram = _gaussian_gram(1.0, pts, pts)
    out = np.empty((n, d, 1))

    def apply():
        columns, finish = _rbf_columns(1.0, pts, vels)
        finish(gram @ columns, pts, out)

    assert traced_peak(apply) < 2**20


# -- baseline velocities -------------------------------------------------------------

def unit_sums_by_pair(points, others):
    """``sum_j (x_i - y_j) / (|x_i - y_j| + 1e-12)``, pair by pair, zero for coincident pairs."""
    sums = np.zeros_like(points)
    for i, x in enumerate(points):
        for y in others:
            diff = x - y
            norm = np.linalg.norm(diff)
            if norm > 0:
                sums[i] += diff / (norm + 1e-12)
    return sums


@st.composite
def baseline_cases(draw):
    """Particles and targets around a shared offset, some coinciding with each other."""
    n = draw(st.integers(1, 6))
    n_targets = draw(st.integers(1, 6))
    dim = draw(st.integers(1, 3))
    scale = draw(st.floats(1e-3, 5.0))
    offset = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=dim, max_size=dim)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    targets = offset + scale * rng.standard_normal((n_targets, dim))
    particles = offset + scale * rng.standard_normal((n, dim))
    # each particle may repeat an earlier particle or sit on a target
    for i in range(n):
        source = draw(st.sampled_from(["own", "particle", "target"]))
        if source == "particle":
            particles[i] = particles[draw(st.integers(0, i))]
        elif source == "target":
            particles[i] = targets[draw(st.integers(0, n_targets - 1))]
    return particles, targets


@settings(max_examples=100, deadline=None, database=None)
@given(case=baseline_cases())
def test_mmd_flow_velocity_matches_the_per_pair_loop(case):
    particles, targets = case
    expected = (
        unit_sums_by_pair(particles, particles) / particles.shape[0]
        - unit_sums_by_pair(particles, targets) / targets.shape[0]
    )
    velocity = mmd_flow_velocity(ParticleSet(targets), ParticleSet(particles))
    # every unit vector has length one, which sets the absolute scale of a sum that cancels
    assert_allclose(velocity, expected, rtol=1e-10, atol=1e-10)


def test_wgf_velocity_vanishes_on_matched_sets(rng):
    points = rng.standard_normal((25, 2))
    velocity = wgf_velocity(ParticleSet(points.copy()), ParticleSet(points.copy()))
    assert_array_equal(velocity, 0.0)


def test_wgf_velocity_between_singletons_is_the_scaled_gap():
    velocity = wgf_velocity(
        ParticleSet([[2.0]]),
        ParticleSet([[0.0]]),
        bandwidth_targets=1.0,
        bandwidth_particles=1.0,
    )
    assert_allclose(velocity, [[2.0]])
    halved = wgf_velocity(
        ParticleSet([[2.0]]),
        ParticleSet([[0.0]]),
        bandwidth_targets=2.0,
        bandwidth_particles=2.0,
    )
    assert_allclose(halved, [[0.5]])


def test_wgf_velocity_is_translation_invariant(rng):
    targets = rng.standard_normal((30, 2)) + 1.0
    particles = rng.standard_normal((20, 2))
    shift = np.array([5.0, -3.0])
    base = wgf_velocity(
        ParticleSet(targets), ParticleSet(particles), bandwidth_targets=0.9, bandwidth_particles=0.7
    )
    moved = wgf_velocity(
        ParticleSet(targets + shift),
        ParticleSet(particles + shift),
        bandwidth_targets=0.9,
        bandwidth_particles=0.7,
    )
    assert_allclose(moved, base, atol=1e-10)


def test_wgf_velocity_points_toward_the_target_mass(rng):
    targets = ParticleSet(rng.standard_normal((100, 1)) + 3.0)
    particles = ParticleSet(np.zeros((1, 1)))
    velocity = wgf_velocity(targets, particles, bandwidth_particles=1.0)
    assert velocity[0, 0] > 0.0


def test_mmd_flow_velocity_vanishes_on_matched_sets(rng):
    points = rng.standard_normal((12, 3))
    velocity = mmd_flow_velocity(ParticleSet(points.copy()), ParticleSet(points.copy()))
    assert_array_equal(velocity, 0.0)


def test_mmd_flow_lone_particle_between_opposite_targets_is_stationary():
    velocity = mmd_flow_velocity(ParticleSet([[2.0], [-2.0]]), ParticleSet([[0.0]]))
    assert_array_equal(velocity, 0.0)


def test_mmd_flow_single_pair_moves_at_unit_speed():
    for gap in (0.5, 2.0, 50.0):
        velocity = mmd_flow_velocity(ParticleSet([[gap]]), ParticleSet([[0.0]]))
        assert_allclose(velocity, [[1.0]])


def test_mmd_flow_velocity_is_scale_invariant(rng):
    targets = rng.standard_normal((15, 2)) + 1.0
    particles = rng.standard_normal((10, 2))
    base = mmd_flow_velocity(ParticleSet(targets), ParticleSet(particles))
    scaled = mmd_flow_velocity(ParticleSet(7.0 * targets), ParticleSet(7.0 * particles))
    assert_allclose(scaled, base, atol=1e-12)


def test_mmd_flow_velocity_is_odd_under_reflection(rng):
    targets = rng.standard_normal((15, 2)) + 1.0
    particles = rng.standard_normal((10, 2))
    base = mmd_flow_velocity(ParticleSet(targets), ParticleSet(particles))
    flipped = mmd_flow_velocity(ParticleSet(-targets), ParticleSet(-particles))
    assert_allclose(flipped, -base, atol=1e-14)


# -- flow loop ------------------------------------------------------------------------

def test_run_flow_rejects_unknown_methods(rng):
    init = ParticleSet(rng.standard_normal((5, 1)))
    with pytest.raises(ValueError):
        run_flow("svgd", None, None, init, init, FlowConfig(step=0.1, iterations=1))


def test_run_flow_requires_the_method_inputs(rng):
    init = ParticleSet(rng.standard_normal((5, 1)))
    with pytest.raises(ValueError):
        run_flow("wgf", None, None, None, init, FlowConfig(step=0.1, iterations=1))
    with pytest.raises(ValueError):
        run_flow(
            "king",
            None,
            KernelSpec("rbf_scalar", bandwidth=1.0),
            init,
            init,
            FlowConfig(step=0.1, iterations=1),
        )


def test_run_flow_on_matched_sets_returns_the_initial_points(rng):
    init = ParticleSet(rng.standard_normal((15, 2)))
    targets = ParticleSet(init.points.copy())
    final = run_flow(
        "king",
        GaussianQuadraticMap(input_dim=2),
        KernelSpec("rbf_scalar", bandwidth=1.0),
        targets,
        init,
        FlowConfig(step=0.5, iterations=1, ridge=1e-2),
    )
    assert_array_equal(final.points, init.points)
    assert final.t == init.t + 0.5


def test_run_flow_observer_cadence(rng):
    init = ParticleSet(rng.standard_normal((10, 1)))
    targets = ParticleSet(rng.standard_normal((10, 1)) + 1.0)
    seen = []

    def observer(iteration, t, particles, diagnostics):
        seen.append((iteration, t, dict(diagnostics)))

    run_flow(
        "mmd_flow",
        None,
        None,
        targets,
        init,
        FlowConfig(step=0.05, iterations=20, log_every=7),
        observer=observer,
    )
    assert [entry[0] for entry in seen] == [0, 7, 14, 20]
    assert_allclose([entry[1] for entry in seen], [0.0, 0.35, 0.7, 1.0])
    assert "drift_norm" not in seen[0][2]
    for _, _, diagnostics in seen[1:]:
        assert diagnostics["drift_norm"] >= 0.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_run_flow_flags_divergence_with_the_iteration(rng):
    init = ParticleSet(rng.standard_normal((10, 2)))
    targets = ParticleSet(rng.standard_normal((10, 2)) + 1.0)
    with pytest.raises(DivergenceError) as excinfo:
        run_flow("wgf", None, None, targets, init, FlowConfig(step=1e8, iterations=100))
    assert isinstance(excinfo.value.iteration, int)
    assert 1 <= excinfo.value.iteration <= 100


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_run_flow_flags_particles_too_spread_for_finite_distances(rng):
    # Finite points whose pairwise distances overflow, which no bandwidth survives.
    init = ParticleSet(np.array([[-1e200, 0.0], [1e200, 0.0], [0.0, 1.0]]))
    targets = ParticleSet(rng.standard_normal((10, 2)))
    with pytest.raises(DivergenceError) as excinfo:
        run_flow("mmd_flow", None, None, targets, init, FlowConfig(step=0.1, iterations=3))
    assert excinfo.value.iteration == 1


def test_run_flow_closes_a_mean_shift():
    finals = []
    for s in range(5):
        seed_t, seed_p = np.random.SeedSequence(s).spawn(2)
        targets = ParticleSet(np.random.default_rng(seed_t).standard_normal((100, 1)) + 3.0)
        init = ParticleSet(np.random.default_rng(seed_p).standard_normal((100, 1)))
        final = run_flow(
            "king",
            GaussianQuadraticMap(input_dim=1),
            KernelSpec("rbf_scalar"),
            targets,
            init,
            FlowConfig(step=1.0, iterations=100),
        )
        finals.append(final.points.mean())
    assert abs(np.median(finals) - 3.0) < 0.3


def test_run_flow_is_deterministic(rng):
    init = ParticleSet(rng.standard_normal((20, 1)))
    targets = ParticleSet(rng.standard_normal((20, 1)) + 2.0)
    config = FlowConfig(step=0.5, iterations=10, ridge=1e-2)
    fmap = GaussianQuadraticMap(input_dim=1)
    kernel = KernelSpec("rbf_scalar")
    first = run_flow("king", fmap, kernel, targets, init, config)
    second = run_flow("king", fmap, kernel, targets, init, config)
    assert_array_equal(second.points, first.points)


class CountingLinearMap(CustomLinearMap):
    """Linear map that tallies the rows it evaluates features and Jacobians on."""

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "rows", {"features": 0, "jacobian": 0})

    def _derivatives(self, pts, order):
        self.rows["features"] += pts.shape[0]
        if order >= 1:
            self.rows["jacobian"] += pts.shape[0]
        return super()._derivatives(pts, order)


@pytest.mark.parametrize(
    "method, kind, rbf_map",
    [
        pytest.param("king", "rbf_scalar", False, id="king-rbf_scalar"),
        pytest.param("ntking", "diagonalized_scalar", False, id="ntking-diagonalized_scalar"),
        pytest.param("king", "rbf_scalar", True, id="king-rbf_scalar-rbf_map"),
        pytest.param("ntking", "diagonalized_scalar", True, id="ntking-diagonalized_scalar-rbf_map"),
    ],
)
def test_run_flow_evaluates_each_feature_quantity_once_per_iteration(
    rng, method, kind, rbf_map, monkeypatch
):
    n, n_targets, iterations, n_centers = 12, 7, 3, 5
    init = ParticleSet(rng.standard_normal((n, 2)))
    targets = ParticleSet(rng.standard_normal((n_targets, 2)) + 1.0)
    if rbf_map:
        fmap = RbfFeatureMap(centers=rng.standard_normal((n_centers, 2)), bandwidth=1.0)
    else:
        fmap = CountingLinearMap([[1.0, 0.5], [0.0, 1.0]])
    grams = []
    gaussian_gram = kernels._gaussian_gram

    def counting_gram(bandwidth, xs, ys, out=None):
        grams.append((xs.shape[0], ys.shape[0]))
        return gaussian_gram(bandwidth, xs, ys, out)

    for module in (kernels, flows, manifold):
        monkeypatch.setattr(module, "_gaussian_gram", counting_gram)
    run_flow(
        method, fmap, KernelSpec(kind), targets, init,
        FlowConfig(step=0.1, iterations=iterations, ridge=1e-2),
    )
    if rbf_map:
        # one feature Gram for the target mean, then per iteration one feature
        # Gram (features and Jacobian together) and one kernel Gram
        assert grams == [(n_targets, n_centers)] + [(n, n_centers), (n, n)] * iterations
        return
    assert fmap.rows == {
        "features": iterations * n + n_targets,
        "jacobian": iterations * n,
    }
    assert grams == [(n, n)] * iterations


def test_frozen_bandwidth_matches_an_explicit_initial_heuristic(rng):
    init = ParticleSet(rng.standard_normal((30, 1)))
    targets = ParticleSet(rng.standard_normal((30, 1)) + 3.0)
    fmap = GaussianQuadraticMap(input_dim=1)
    config = FlowConfig(step=0.5, iterations=5, ridge=1e-2, freeze_bandwidth=True)
    frozen = run_flow("king", fmap, KernelSpec("rbf_scalar"), targets, init, config)
    pinned = run_flow(
        "king",
        fmap,
        KernelSpec("rbf_scalar", bandwidth=median_heuristic(init, targets)),
        targets,
        init,
        dataclasses.replace(config, freeze_bandwidth=False),
    )
    assert_array_equal(frozen.points, pinned.points)
    refreshed = run_flow(
        "king",
        fmap,
        KernelSpec("rbf_scalar"),
        targets,
        init,
        dataclasses.replace(config, freeze_bandwidth=False),
    )
    assert np.abs(refreshed.points - frozen.points).max() > 0.0


@pytest.mark.parametrize(
    "method, kind", [("king", "rbf_scalar"), ("ntking", "diagonalized_scalar")]
)
def test_refreshed_bandwidth_is_the_pooled_median_heuristic(method, kind, rng):
    # run_flow takes each iteration's bandwidth from one PooledMedian; a
    # direct solve resolves it with median_heuristic.  The steps agree bitwise.
    init = ParticleSet(rng.standard_normal((40, 2)))
    targets = ParticleSet(rng.standard_normal((50, 2)) + 1.5)
    fmap = GaussianQuadraticMap(input_dim=2)
    config = FlowConfig(step=0.3, iterations=6, ridge=1e-2)
    flowed = run_flow(method, fmap, KernelSpec(kind), targets, init, config)
    solve = solve_king_drift if method == "king" else solve_ntking_drift
    particles = init
    for _ in range(config.iterations):
        velocity = solve(fmap, KernelSpec(kind), particles, targets, config.ridge).anchor_velocity()
        particles = ParticleSet(particles.points + config.step * velocity)
    assert_array_equal(flowed.points, particles.points)


def test_flow_method_registry():
    assert FLOW_METHODS == ("king", "ntking", "wgf", "mmd_flow")
