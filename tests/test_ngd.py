"""Natural-gradient directions and the exact Gaussian-family stepper."""
import numpy as np
import pytest
from numpy.testing import assert_allclose

from kingflow import (
    CustomLinearMap,
    GaussianNaturalParams,
    GaussianQuadraticMap,
    ParticleSet,
    StepFailureError,
    exact_ngd_step,
    gaussian_moment_to_natural,
    gaussian_natural_to_moment,
    natural_gradient_kl,
    sample_gaussian,
)
from kingflow.manifold import vech_pairs
from kingflow.ngd import _pack_theta, _unpack_theta


# -- natural gradient on feature manifolds ------------------------------------

def test_identical_sets_give_zero_direction(rng):
    fmap = GaussianQuadraticMap(input_dim=2)
    pset = ParticleSet(rng.standard_normal((20, 2)))
    result = natural_gradient_kl(fmap, pset, pset)
    assert_allclose(result.gap, 0.0, atol=0.0)
    assert_allclose(result.natural_direction, 0.0, atol=0.0)


def test_linear_family_mean_shift_direction():
    # identity features: Fisher is the variance (about 1), gap is the mean
    # difference (about 2), so the solve lands near 2
    fmap = CustomLinearMap(weight=[[1.0]])
    particles = ParticleSet(np.random.default_rng(3).standard_normal((100_000, 1)))
    targets = ParticleSet(np.array([[2.0]]))
    result = natural_gradient_kl(fmap, targets, particles)
    assert_allclose(result.natural_direction, [2.0], atol=0.05)


def test_feature_scaling_moves_gap_and_direction_oppositely(rng):
    scale = 3.0
    base = CustomLinearMap(weight=rng.standard_normal((2, 2)))
    scaled = CustomLinearMap(weight=scale * base.weight)
    targets = ParticleSet(rng.standard_normal((50, 2)) + 1.0)
    particles = ParticleSet(rng.standard_normal((50, 2)))
    res_base = natural_gradient_kl(base, targets, particles)
    res_scaled = natural_gradient_kl(scaled, targets, particles)
    assert_allclose(res_scaled.gap, scale * res_base.gap, rtol=1e-10)
    assert_allclose(
        res_scaled.natural_direction, res_base.natural_direction / scale, rtol=1e-10
    )


def test_fisher_times_direction_reproduces_gap(rng):
    fmap = GaussianQuadraticMap(input_dim=3)
    targets = ParticleSet(rng.standard_normal((60, 3)) + 0.5)
    particles = ParticleSet(rng.standard_normal((40, 3)))
    result = natural_gradient_kl(fmap, targets, particles)
    reproduced = result.fisher.matrix @ result.natural_direction
    assert np.linalg.norm(reproduced - result.gap) <= 1e-8 * np.linalg.norm(result.gap)


def test_dimension_mismatch_rejected(rng):
    fmap = GaussianQuadraticMap(input_dim=2)
    with pytest.raises(ValueError):
        natural_gradient_kl(
            fmap, ParticleSet(np.zeros((3, 3))), ParticleSet(rng.standard_normal((5, 2)))
        )


def test_arrays_give_the_same_direction_as_particle_sets(rng):
    fmap = GaussianQuadraticMap(input_dim=2)
    targets = rng.standard_normal((30, 2)) + 0.5
    particles = rng.standard_normal((25, 2))
    expected = natural_gradient_kl(fmap, ParticleSet(targets), ParticleSet(particles))
    for given_targets, given_particles in (
        (targets, particles),
        (targets, ParticleSet(particles)),
        (ParticleSet(targets), particles),
    ):
        result = natural_gradient_kl(fmap, given_targets, given_particles)
        assert np.array_equal(result.gap, expected.gap)
        assert np.array_equal(result.natural_direction, expected.natural_direction)
    no_targets = natural_gradient_kl(fmap, None, ParticleSet(particles))
    assert np.array_equal(natural_gradient_kl(fmap, None, particles).gap, no_targets.gap)


def test_non_finite_points_rejected(rng):
    fmap = GaussianQuadraticMap(input_dim=2)
    good = rng.standard_normal((10, 2))
    bad = good.copy()
    bad[3, 1] = np.nan
    for targets, particles in ((bad, good), (good, bad), (None, bad)):
        with pytest.raises(ValueError, match="non-finite"):
            natural_gradient_kl(fmap, targets, particles)


# -- Gaussian natural-parameter conversions ------------------------------------

def test_standard_gaussian_natural_parameters():
    params = gaussian_moment_to_natural(np.zeros(2), np.eye(2))
    assert_allclose(params.linear, 0.0, atol=0.0)
    assert_allclose(params.quadratic, -0.5 * np.eye(2))


def test_diagonal_gaussian_natural_parameters():
    params = gaussian_moment_to_natural([1.0, 0.0], np.diag([2.0, 1.0]))
    assert_allclose(params.linear, [0.5, 0.0])
    assert_allclose(params.quadratic, np.diag([-0.25, -0.5]))


def test_moment_round_trip(rng):
    shape = rng.standard_normal((3, 3))
    cov = shape @ shape.T + 2.0 * np.eye(3)
    mean = rng.standard_normal(3)
    back_mean, back_cov = gaussian_natural_to_moment(gaussian_moment_to_natural(mean, cov))
    assert np.linalg.norm(back_mean - mean) <= 1e-10 * np.linalg.norm(mean)
    assert np.linalg.norm(back_cov - cov) <= 1e-10 * np.linalg.norm(cov)


def test_non_positive_definite_covariance_rejected():
    with pytest.raises(ValueError):
        gaussian_moment_to_natural(np.zeros(2), np.diag([1.0, -1.0]))
    # singular or barely indefinite covariances raise instead of being loaded
    for cov in (np.diag([1.0, 0.0]), np.diag([1.0, -1e-4])):
        with pytest.raises(ValueError):
            gaussian_moment_to_natural(np.zeros(2), cov)
    with pytest.raises(ValueError):
        sample_gaussian(np.zeros(2), np.diag([1.0, -1e-5]), 10, seed=0)


def test_natural_parameters_outside_the_gaussian_domain_rejected():
    for quadratic in (np.diag([-0.5, 0.0]), np.diag([-0.5, 1e-6])):
        with pytest.raises(ValueError):
            gaussian_natural_to_moment(GaussianNaturalParams(np.zeros(2), quadratic))


def test_sample_gaussian_is_seeded_and_moment_matched():
    cov = np.array([[2.0, 0.3], [0.3, 1.0]])
    a = sample_gaussian([1.0, -1.0], cov, 50_000, seed=9)
    b = sample_gaussian([1.0, -1.0], cov, 50_000, seed=9)
    assert_allclose(a, b, atol=0.0)
    assert_allclose(a.mean(axis=0), [1.0, -1.0], atol=0.05)
    centered = a - a.mean(axis=0)
    assert_allclose(centered.T @ centered / len(a), cov, atol=0.05)


# -- exact natural-gradient stepping -------------------------------------------

def test_step_with_shared_sample_set_is_a_fixed_point():
    params = gaussian_moment_to_natural([0.5], [[1.5]])
    mean, cov = gaussian_natural_to_moment(params)
    targets = ParticleSet(sample_gaussian(mean, cov, 2048, seed=11))
    moved = exact_ngd_step(params, targets, step=0.5, mc_samples=2048, seed=11)
    assert_allclose(moved.linear, params.linear, atol=0.0)
    assert_allclose(moved.quadratic, params.quadratic, atol=0.0)


def test_step_toward_own_distribution_is_small():
    params = gaussian_moment_to_natural([0.0], [[1.0]])
    targets = ParticleSet(sample_gaussian([0.0], [[1.0]], 200_000, seed=21))
    moved = exact_ngd_step(params, targets, step=1.0, mc_samples=200_000, seed=22)
    drift = np.abs(
        np.concatenate([moved.linear - params.linear, (moved.quadratic - params.quadratic).ravel()])
    ).max()
    assert drift < 0.02


def test_calibration_run_reaches_the_target_mean():
    targets = ParticleSet(sample_gaussian([3.0], [[1.0]], 10_000, seed=0))
    params = gaussian_moment_to_natural([0.0], [[1.0]])
    step_seeds = np.random.SeedSequence(1).spawn(50)
    for k in range(50):
        params = exact_ngd_step(params, targets, step=0.5, seed=step_seeds[k])
    mean, _ = gaussian_natural_to_moment(params)
    assert abs(mean[0] - 3.0) < 0.15


def test_oversized_step_halves_back_into_the_valid_domain():
    # the full step toward a distant tight target leaves the Gaussian domain,
    # so the halving guard must engage and still make forward progress
    params = gaussian_moment_to_natural([0.0], [[1.0]])
    targets = ParticleSet(sample_gaussian([10.0], [[0.01]], 5_000, seed=13))
    moved = exact_ngd_step(params, targets, step=1.0, seed=13)
    mean, cov = gaussian_natural_to_moment(moved)  # raises if the result left the domain
    assert mean[0] > 0.0
    assert cov[0, 0] > 0.0


def test_invalid_step_rejected():
    params = gaussian_moment_to_natural([0.0], [[1.0]])
    targets = ParticleSet(np.array([[1.0]]))
    for step in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            exact_ngd_step(params, targets, step=step)


def test_fractional_sample_counts_rejected():
    with pytest.raises(ValueError):
        sample_gaussian([0.0], [[1.0]], 2.7, seed=0)
    assert sample_gaussian([0.0], [[1.0]], 3.0, seed=0).shape == (3, 1)
    params = gaussian_moment_to_natural([0.0], [[1.0]])
    targets = ParticleSet(np.array([[1.0], [2.0]]))
    with pytest.raises(ValueError):
        exact_ngd_step(params, targets, step=0.5, mc_samples=3.9)


def test_error_toward_target_decreases_after_burn_in():
    # seed-averaged error against the target mean shrinks monotonically over
    # the first dozen steps; past that the Monte Carlo noise floor takes over
    steps, burn_in = 12, 5
    errs = np.zeros((5, steps + 1))
    for s in range(5):
        seeds = np.random.SeedSequence(100 + s).spawn(steps + 1)
        targets = ParticleSet(sample_gaussian([3.0], [[1.0]], 10_000, seeds[0]))
        params = gaussian_moment_to_natural([0.0], [[1.0]])
        errs[s, 0] = 3.0
        for k in range(1, steps + 1):
            params = exact_ngd_step(params, targets, step=0.5, seed=seeds[k])
            errs[s, k] = abs(gaussian_natural_to_moment(params)[0][0] - 3.0)
    avg = errs.mean(axis=0)
    assert all(avg[k + 1] <= avg[k] for k in range(burn_in, steps))
    assert avg[-1] < 0.05


def test_step_failure_error_is_exported():
    assert issubclass(StepFailureError, RuntimeError)


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 10])
def test_theta_layout_matches_the_per_pair_loop_bitwise(rng, dim):
    # Reference: one vech pair at a time, the doubled off-diagonal entries
    # of GaussianQuadraticMap's product features.
    for _ in range(20):
        shape = rng.standard_normal((dim, dim))
        params = GaussianNaturalParams(
            linear=rng.standard_normal(dim), quadratic=-(shape @ shape.T) - np.eye(dim)
        )
        tail = [
            params.quadratic[i, j] * (1.0 if i == j else 2.0) for i, j in vech_pairs(dim)
        ]
        assert np.array_equal(_pack_theta(params), np.concatenate([params.linear, tail]))
        theta = rng.standard_normal(dim + dim * (dim + 1) // 2)
        quad = np.zeros((dim, dim))
        for k, (i, j) in enumerate(vech_pairs(dim)):
            quad[i, j] = quad[j, i] = theta[dim + k] * (1.0 if i == j else 0.5)
        unpacked = _unpack_theta(theta, dim)
        assert np.array_equal(unpacked.linear, theta[:dim])
        assert np.array_equal(unpacked.quadratic, quad)
