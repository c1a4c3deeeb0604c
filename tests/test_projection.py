"""Windowed and instantaneous projection of particle motion onto a manifold."""
import numpy as np
import pytest
from numpy.testing import assert_allclose

from kingflow import (
    CustomLinearMap,
    FisherMatrix,
    GaussianQuadraticMap,
    KernelSpec,
    NatGradResult,
    ParticleSet,
    ProjectionResult,
    RbfFeatureMap,
    TimeKernel,
    alignment_residual,
    default_grid,
    eval_drift,
    natural_gradient_kl,
    project_change_limit,
    project_change_quadrature,
    solve_king_drift,
)
from kingflow.projection import ALIGNMENT_MODES


def linear_trajectory(points, velocities):
    def traj(t):
        return ParticleSet(points + t * velocities, t)

    return traj


# -- time window ----------------------------------------------------------------

@pytest.mark.parametrize("sigma", [0.0, -0.5, np.nan, np.inf, "0.1"])
def test_time_kernel_rejects_bad_sigma(sigma):
    with pytest.raises(ValueError):
        TimeKernel(center=0.0, sigma=sigma)


@pytest.mark.parametrize("center", [np.nan, -np.inf, "0.0"])
def test_time_kernel_rejects_bad_center(center):
    with pytest.raises(ValueError):
        TimeKernel(center=center, sigma=0.1)


@pytest.mark.parametrize("sigma", [0.05, 0.1, 0.5])
def test_time_kernel_integrates_to_one(sigma):
    tk = TimeKernel(center=0.3, sigma=sigma)
    grid = default_grid(tk)
    assert abs(np.trapezoid(tk.value(grid), x=grid) - 1.0) <= 1e-6


def test_time_kernel_peak_and_flat_top():
    tk = TimeKernel(center=-1.0, sigma=0.2)
    assert_allclose(tk.value(-1.0), 1.0 / np.sqrt(2.0 * np.pi * 0.04), rtol=1e-12)
    assert tk.deriv(-1.0) == 0.0
    assert tk.deriv(-1.1) > 0.0 > tk.deriv(-0.9)


def test_time_kernel_derivative_matches_finite_differences():
    tk = TimeKernel(center=0.5, sigma=0.3)
    ts = np.linspace(-0.5, 1.5, 9)
    h = 1e-6
    fd = (tk.value(ts + h) - tk.value(ts - h)) / (2.0 * h)
    assert_allclose(tk.deriv(ts), fd, rtol=0.0, atol=1e-5)


def test_default_grid_spans_the_window():
    tk = TimeKernel(center=2.0, sigma=0.25)
    grid = default_grid(tk)
    assert grid.shape == (81,)
    assert_allclose(grid[0], 2.0 - 1.25)
    assert_allclose(grid[-1], 2.0 + 1.25)
    assert_allclose(np.diff(grid), np.diff(grid)[0])


# -- quadrature projection -------------------------------------------------------

def quadrature_case(rng, n=60, dim=2):
    points = rng.standard_normal((n, dim))
    velocities = 0.5 * rng.standard_normal((n, dim))
    return points, velocities


@pytest.mark.parametrize(
    "bad_grid",
    [
        np.linspace(-1.0, 1.0, 40),          # too few nodes
        np.zeros(81),                          # not increasing
        np.linspace(-0.4, 0.4, 81),           # does not span five sigma
    ],
)
def test_quadrature_rejects_bad_grids(rng, bad_grid):
    points, velocities = quadrature_case(rng)
    tk = TimeKernel(center=0.0, sigma=0.1)
    with pytest.raises(ValueError):
        project_change_quadrature(
            GaussianQuadraticMap(input_dim=2),
            linear_trajectory(points, velocities),
            tk,
            bad_grid,
        )


def test_stationary_trajectory_projects_to_zero(rng):
    points, _ = quadrature_case(rng)
    tk = TimeKernel(center=0.0, sigma=0.1)
    result = project_change_quadrature(
        GaussianQuadraticMap(input_dim=2),
        lambda t: ParticleSet(points, t),
        tk,
        default_grid(tk),
    )
    assert_allclose(result.delta, 0.0, atol=1e-8)


def test_quadrature_approaches_the_limit_form(rng):
    points, velocities = quadrature_case(rng)
    fmap = GaussianQuadraticMap(input_dim=2)
    limit = project_change_limit(fmap, ParticleSet(points), velocities)
    tk = TimeKernel(center=0.0, sigma=0.1)
    quad = project_change_quadrature(
        fmap, linear_trajectory(points, velocities), tk, default_grid(tk)
    )
    rel = np.linalg.norm(quad.delta - limit.delta) / np.linalg.norm(limit.delta)
    assert rel < 5e-2


def test_quadrature_error_shrinks_with_the_window(rng):
    points, velocities = quadrature_case(rng)
    fmap = GaussianQuadraticMap(input_dim=2)
    limit = project_change_limit(fmap, ParticleSet(points), velocities)
    errs = []
    for sigma in (0.5, 0.1, 0.05):
        tk = TimeKernel(center=0.0, sigma=sigma)
        quad = project_change_quadrature(
            fmap, linear_trajectory(points, velocities), tk, default_grid(tk)
        )
        errs.append(np.linalg.norm(quad.delta - limit.delta) / np.linalg.norm(limit.delta))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 5e-2


def test_quadrature_accepts_plain_array_trajectories(rng):
    points, velocities = quadrature_case(rng, n=30)
    tk = TimeKernel(center=0.0, sigma=0.1)
    fmap = GaussianQuadraticMap(input_dim=2)
    as_sets = project_change_quadrature(
        fmap, linear_trajectory(points, velocities), tk, default_grid(tk)
    )
    as_arrays = project_change_quadrature(
        fmap, lambda t: points + t * velocities, tk, default_grid(tk)
    )
    assert_allclose(as_arrays.delta, as_sets.delta, atol=0.0)


# -- limit projection -------------------------------------------------------------

def test_limit_zero_velocities_give_zero_change(rng):
    points, _ = quadrature_case(rng)
    result = project_change_limit(
        GaussianQuadraticMap(input_dim=2), ParticleSet(points), np.zeros_like(points)
    )
    assert_allclose(result.delta, 0.0, atol=0.0)


def test_limit_identity_features_recover_whitened_mean_velocity(rng):
    points = rng.standard_normal((200, 2))
    velocities = rng.standard_normal((200, 2))
    result = project_change_limit(CustomLinearMap(np.eye(2)), ParticleSet(points), velocities)
    centered = points - points.mean(axis=0)
    cov = centered.T @ centered / len(points)
    loaded = cov + 1e-6 * np.mean(np.diag(cov)) * np.eye(2)
    expected = np.linalg.solve(loaded, velocities.mean(axis=0))
    assert_allclose(result.delta, expected, rtol=1e-10)


def test_limit_scalar_case_matches_hand_formula(rng):
    points = rng.standard_normal((150, 1))
    velocities = rng.standard_normal((150, 1)) + 0.3
    result = project_change_limit(CustomLinearMap([[1.0]]), ParticleSet(points), velocities)
    var = points.var()
    assert_allclose(result.delta, [velocities.mean() / (var * (1.0 + 1e-6))], rtol=1e-10)


def test_limit_is_linear_in_the_velocity_field(rng):
    points, v1 = quadrature_case(rng)
    v2 = rng.standard_normal(v1.shape)
    fmap = GaussianQuadraticMap(input_dim=2)
    pset = ParticleSet(points)
    combined = project_change_limit(fmap, pset, v1 + v2).delta
    separate = project_change_limit(fmap, pset, v1).delta + project_change_limit(fmap, pset, v2).delta
    assert np.linalg.norm(combined - separate) <= 1e-10 * np.linalg.norm(separate)


def test_limit_rejects_mismatched_velocities(rng):
    points, velocities = quadrature_case(rng)
    with pytest.raises(ValueError):
        project_change_limit(
            GaussianQuadraticMap(input_dim=2), ParticleSet(points), velocities[:-1]
        )


# -- alignment residual ------------------------------------------------------------

def ngd_case(rng):
    fmap = GaussianQuadraticMap(input_dim=2)
    targets = ParticleSet(rng.standard_normal((50, 2)) + 0.7)
    particles = ParticleSet(rng.standard_normal((40, 2)))
    return natural_gradient_kl(fmap, targets, particles)


@pytest.mark.parametrize("mode", ALIGNMENT_MODES)
def test_perfect_projection_has_zero_residual(rng, mode):
    ngd_result = ngd_case(rng)
    projection = ProjectionResult(
        delta=ngd_result.natural_direction.copy(), fisher_used=ngd_result.fisher
    )
    assert alignment_residual(ngd_result, projection, mode=mode) <= 1e-12


def test_modes_agree_for_identity_fisher(rng):
    gap = rng.standard_normal(4)
    identity = FisherMatrix(matrix=np.eye(4), chol_lower=np.eye(4), jitter_applied=0.0)
    ngd_result = NatGradResult(gap=gap, fisher=identity, natural_direction=gap.copy())
    projection = ProjectionResult(delta=rng.standard_normal(4), fisher_used=identity)
    euclid = alignment_residual(ngd_result, projection, mode="euclidean")
    fisher = alignment_residual(ngd_result, projection, mode="fisher")
    assert_allclose(fisher, euclid, rtol=1e-12)


def test_fisher_mode_is_the_whitened_squared_norm(rng):
    ngd_result = ngd_case(rng)
    projection = ProjectionResult(
        delta=rng.standard_normal(ngd_result.gap.shape), fisher_used=ngd_result.fisher
    )
    residual = ngd_result.gap - ngd_result.fisher.matrix @ projection.delta
    whitened = np.linalg.solve(ngd_result.fisher.chol_lower, residual)
    assert_allclose(
        alignment_residual(ngd_result, projection, mode="fisher"),
        whitened @ whitened,
        rtol=1e-10,
    )


def test_unknown_mode_rejected(rng):
    ngd_result = ngd_case(rng)
    projection = ProjectionResult(delta=np.zeros_like(ngd_result.gap), fisher_used=ngd_result.fisher)
    with pytest.raises(ValueError):
        alignment_residual(ngd_result, projection, mode="mahalanobis")


# -- projected drift against the natural gradient -----------------------------------

def test_small_ridge_drift_projects_onto_the_natural_gradient():
    rng = np.random.default_rng(3)
    particles = ParticleSet(rng.standard_normal((40, 2)))
    targets = ParticleSet(particles.points + np.array([1.0, -0.5]))
    fmap = RbfFeatureMap(centers=rng.standard_normal((4, 2)), bandwidth=2.0)
    kernel = KernelSpec("rbf_scalar", bandwidth=2.0)
    reference = natural_gradient_kl(fmap, targets, particles)
    residuals = {}
    for ridge in (1.0, 1e-8):
        solution = solve_king_drift(fmap, kernel, particles, targets, ridge=ridge)
        velocities = eval_drift(solution, particles)
        projection = project_change_limit(fmap, particles, velocities)
        residuals[ridge] = alignment_residual(reference, projection, mode="fisher")
    assert residuals[1e-8] <= 1e-4 * residuals[1.0]
