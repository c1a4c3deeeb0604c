"""Sample-comparison metrics: kernel MMD, Gaussian fits, transport distance."""
import numpy as np
import pytest
from numpy.testing import assert_allclose

from kingflow import ParticleSet, fit_gaussian, gaussian_w2, median_heuristic, mmd


# -- kernel MMD -----------------------------------------------------------------

def test_mmd_of_a_sample_with_itself_is_zero(rng):
    points = rng.standard_normal((30, 2))
    estimate = mmd(points, points.copy())
    assert estimate.value == 0.0


def test_mmd_between_singletons_has_a_closed_form():
    estimate = mmd([[0.0]], [[1.0]], bandwidth=1.0)
    assert_allclose(estimate.value, np.sqrt(2.0 - 2.0 * np.exp(-0.5)), rtol=1e-12)
    assert estimate.bandwidth == 1.0
    wide = mmd([[0.0]], [[1.0]], bandwidth=2.0)
    assert_allclose(wide.value, np.sqrt(2.0 - 2.0 * np.exp(-1.0 / 8.0)), rtol=1e-12)


def test_mmd_is_symmetric_and_positive_for_distinct_samples(rng):
    a = rng.standard_normal((20, 2))
    b = rng.standard_normal((25, 2)) + 1.0
    forward = mmd(a, b, bandwidth=1.0)
    backward = mmd(b, a, bandwidth=1.0)
    assert_allclose(backward.value, forward.value, rtol=1e-12)
    assert forward.value > 0.0


def test_mmd_grows_with_separation():
    base = np.zeros((10, 1))
    near = mmd(base, base + 1.0, bandwidth=1.0).value
    far = mmd(base, base + 3.0, bandwidth=1.0).value
    assert far > near > 0.0


def test_mmd_default_bandwidth_is_the_pooled_median(rng):
    a = rng.standard_normal((15, 2))
    b = rng.standard_normal((12, 2)) + 2.0
    estimate = mmd(a, b)
    assert estimate.bandwidth == median_heuristic(a, b)


@pytest.mark.parametrize("bandwidth", [0.0, -1.0, float("nan"), float("inf")])
def test_mmd_rejects_a_bandwidth_that_is_not_positive_and_finite(bandwidth):
    with pytest.raises(ValueError, match="positive and finite"):
        mmd(np.zeros((3, 1)), np.ones((3, 1)), bandwidth=bandwidth)


def test_mmd_is_translation_invariant_at_fixed_bandwidth(rng):
    a = rng.standard_normal((15, 2))
    b = rng.standard_normal((12, 2)) + 1.0
    for shift in (np.array([10.0, -4.0]), np.array([1e4, -1e4])):
        assert_allclose(
            mmd(a + shift, b + shift, bandwidth=0.8).value,
            mmd(a, b, bandwidth=0.8).value,
            rtol=1e-12,
            atol=1e-12,
        )


def test_mmd_accepts_particle_sets(rng):
    a = rng.standard_normal((10, 2))
    b = rng.standard_normal((10, 2))
    assert mmd(ParticleSet(a), b, bandwidth=1.0).value == mmd(a, b, bandwidth=1.0).value


def test_mmd_input_validation(rng):
    with pytest.raises(ValueError):
        mmd(rng.standard_normal((5, 2)), rng.standard_normal((5, 3)))
    with pytest.raises(ValueError):
        mmd(rng.standard_normal((5, 2)), rng.standard_normal((5, 2)), bandwidth=0.0)


# -- Gaussian moment fits ----------------------------------------------------------

def test_fit_gaussian_two_point_sample():
    mean, cov = fit_gaussian([[-1.0], [1.0]])
    assert_allclose(mean, [0.0])
    assert_allclose(cov, [[1.0]], rtol=1e-8)


def test_fit_gaussian_recovers_known_moments():
    true_cov = np.array([[2.0, 0.5], [0.5, 1.0]])
    chol = np.linalg.cholesky(true_cov)
    draws = np.random.default_rng(8).standard_normal((100_000, 2)) @ chol.T + [1.0, -2.0]
    mean, cov = fit_gaussian(draws)
    assert_allclose(mean, [1.0, -2.0], atol=0.02)
    assert np.linalg.norm(cov - true_cov) <= 0.02 * np.linalg.norm(true_cov)


def test_fit_gaussian_rotation_equivariance(rng):
    points = rng.standard_normal((200, 2)) @ np.diag([2.0, 0.5])
    theta = 0.7
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    mean, cov = fit_gaussian(points)
    mean_r, cov_r = fit_gaussian(points @ rot.T)
    assert np.linalg.norm(mean_r - rot @ mean) <= 1e-10 * max(np.linalg.norm(mean), 1.0)
    assert np.linalg.norm(cov_r - rot @ cov @ rot.T) <= 1e-10 * np.linalg.norm(cov)


def test_fit_gaussian_general_linear_equivariance(rng):
    # the tiny stabilizing diagonal load does not commute with a general
    # linear transform, so equivariance holds to the load scale, not exactly
    points = rng.standard_normal((200, 3))
    transform = rng.standard_normal((3, 3)) + 2.0 * np.eye(3)
    mean, cov = fit_gaussian(points)
    mean_t, cov_t = fit_gaussian(points @ transform.T)
    assert np.linalg.norm(mean_t - transform @ mean) <= 1e-8 * np.linalg.norm(transform @ mean)
    expected = transform @ cov @ transform.T
    assert np.linalg.norm(cov_t - expected) <= 1e-8 * np.linalg.norm(expected)


def test_fit_gaussian_needs_dim_plus_one_points(rng):
    with pytest.raises(ValueError):
        fit_gaussian(rng.standard_normal((3, 3)))


def test_fit_gaussian_degenerate_sample_is_loaded_to_positive_definite():
    mean, cov = fit_gaussian(np.zeros((5, 2)))
    assert_allclose(mean, 0.0, atol=0.0)
    assert np.linalg.eigvalsh(cov).min() > 0.0


# -- Gaussian transport distance ----------------------------------------------------

def test_w2_of_identical_gaussians_is_zero():
    cov = np.array([[2.0, 0.3], [0.3, 1.0]])
    assert gaussian_w2([1.0, -1.0], cov, [1.0, -1.0], cov) <= 1e-6


def test_w2_pure_mean_shift_is_the_euclidean_gap():
    cov = np.array([[1.5, 0.2], [0.2, 0.8]])
    shift = np.array([3.0, -4.0])
    assert_allclose(gaussian_w2(np.zeros(2), cov, shift, cov), 5.0, atol=1e-7)


def test_w2_scalar_closed_form():
    assert_allclose(gaussian_w2([0.0], [[4.0]], [0.0], [[1.0]]), 1.0, rtol=1e-10)
    assert_allclose(gaussian_w2([1.0], [[4.0]], [-2.0], [[1.0]]), np.sqrt(9.0 + 1.0), rtol=1e-10)


def test_w2_is_rotation_invariant(rng):
    theta = -0.4
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    cov_a = np.array([[2.0, 0.5], [0.5, 1.0]])
    cov_b = np.array([[0.7, -0.1], [-0.1, 1.4]])
    mean_a, mean_b = np.array([1.0, 0.0]), np.array([-1.0, 2.0])
    base = gaussian_w2(mean_a, cov_a, mean_b, cov_b)
    rotated = gaussian_w2(rot @ mean_a, rot @ cov_a @ rot.T, rot @ mean_b, rot @ cov_b @ rot.T)
    assert_allclose(rotated, base, rtol=1e-8)


def test_w2_triangle_inequality(rng):
    fits = []
    for _ in range(3):
        shape = rng.standard_normal((3, 3))
        fits.append((rng.standard_normal(3), shape @ shape.T + np.eye(3)))
    (ma, ca), (mb, cb), (mc, cc) = fits
    assert gaussian_w2(ma, ca, mc, cc) <= gaussian_w2(ma, ca, mb, cb) + gaussian_w2(
        mb, cb, mc, cc
    ) + 1e-8


def test_w2_input_validation():
    with pytest.raises(ValueError):
        gaussian_w2([0.0], [[1.0]], [0.0, 0.0], np.eye(2))
    with pytest.raises(ValueError):
        gaussian_w2([0.0, 0.0], np.diag([1.0, -1.0]), [0.0, 0.0], np.eye(2))
    with pytest.raises(ValueError):
        gaussian_w2([0.0, 0.0], np.eye(2), [0.0, 0.0], np.diag([1.0, -1e-4]))


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_w2_rejects_a_non_finite_covariance(bad):
    cov = np.array([[1.0, bad], [bad, 1.0]])
    with pytest.raises(ValueError, match="positive definite"):
        gaussian_w2([0.0, 0.0], cov, [0.0, 0.0], np.eye(2))
    with pytest.raises(ValueError, match="positive definite"):
        gaussian_w2([0.0, 0.0], np.eye(2), [0.0, 0.0], np.full((2, 2), bad))
