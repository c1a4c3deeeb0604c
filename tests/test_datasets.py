"""Seeded synthetic datasets and dataset transforms used by the scenarios."""
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from kingflow import ParticleSet, sample_gaussian
from kingflow._linalg import is_spd
from kingflow.harness.datasets import (
    GgmSpec,
    gen_gaussian_mixture,
    gen_ggm_samples,
    gen_scurve,
    precision_support,
    rotate_dataset,
)


# -- Gaussian mixtures -------------------------------------------------------------

def test_single_component_mixture_is_an_isotropic_gaussian():
    pset = gen_gaussian_mixture(dim=2, means=[0.0], weights=[1.0], n=50_000, seed=4)
    assert pset.points.shape == (50_000, 2)
    assert_allclose(pset.points.mean(axis=0), 0.0, atol=0.03)
    centered = pset.points - pset.points.mean(axis=0)
    assert_allclose(centered.T @ centered / pset.n, np.eye(2), atol=0.03)


def test_scalar_means_broadcast_to_constant_vectors():
    pset = gen_gaussian_mixture(dim=3, means=[2.0], weights=[1.0], n=20_000, seed=1)
    assert_allclose(pset.points.mean(axis=0), 2.0, atol=0.05)


def test_mixture_component_weights_are_respected():
    pset = gen_gaussian_mixture(
        dim=1, means=[-10.0, 10.0], weights=[0.25, 0.75], n=20_000, seed=6
    )
    share_right = np.mean(pset.points[:, 0] > 0)
    assert abs(share_right - 0.75) < 0.02


def test_mixture_component_sd_controls_the_spread():
    pset = gen_gaussian_mixture(
        dim=1, means=[0.0], weights=[1.0], n=20_000, seed=2, component_sd=0.1
    )
    assert abs(pset.points.std() - 0.1) < 0.01


def test_mixture_is_seeded():
    kwargs = dict(dim=5, means=[-1.0, 1.0], weights=[0.5, 0.5], n=100, seed=9)
    assert_array_equal(
        gen_gaussian_mixture(**kwargs).points, gen_gaussian_mixture(**kwargs).points
    )
    other = gen_gaussian_mixture(**{**kwargs, "seed": 10})
    assert np.abs(other.points - gen_gaussian_mixture(**kwargs).points).max() > 0.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"weights": [0.5, 0.6]},
        {"weights": [1.5, -0.5]},
        {"weights": [1.0]},
        {"means": [[0.0, 0.0, 0.0]], "weights": [1.0]},
        {"n": 0},
        {"dim": 0},
        {"component_sd": 0.0},
    ],
)
def test_mixture_input_validation(kwargs):
    base = dict(dim=2, means=[-1.0, 1.0], weights=[0.5, 0.5], n=10, seed=0)
    with pytest.raises(ValueError):
        gen_gaussian_mixture(**{**base, **kwargs})


# -- S-curve -----------------------------------------------------------------------

def test_clean_scurve_points_lie_on_the_curve():
    pts = gen_scurve(n=500, noise_sd=0.0, seed=3).points
    assert pts.shape == (500, 3)
    assert_allclose(pts[:, 0] ** 2 + (1.0 - np.abs(pts[:, 1])) ** 2, 1.0, atol=1e-12)


def test_scurve_bounding_box():
    pts = gen_scurve(n=2_000, noise_sd=0.0, seed=5).points
    assert pts[:, 0].min() >= -1.0 and pts[:, 0].max() <= 1.0
    assert pts[:, 1].min() >= -2.0 and pts[:, 1].max() <= 2.0
    assert pts[:, 2].min() >= 0.0 and pts[:, 2].max() <= 2.0


def test_scurve_is_seeded_and_noise_perturbs():
    assert_array_equal(gen_scurve(100, seed=7).points, gen_scurve(100, seed=7).points)
    noisy = gen_scurve(100, noise_sd=0.1, seed=7).points
    clean = gen_scurve(100, noise_sd=0.0, seed=7).points
    assert np.abs(noisy - clean).max() > 0.0


def test_scurve_input_validation():
    with pytest.raises(ValueError):
        gen_scurve(0)
    with pytest.raises(ValueError):
        gen_scurve(10, noise_sd=-0.1)


# -- Gaussian graphical models --------------------------------------------------------

def test_ggm_spec_invariants():
    spec = GgmSpec(dim=12, edge_prob=0.2, seed=1)
    assert_array_equal(spec.precision, spec.precision.T)
    assert np.linalg.eigvalsh(spec.precision).min() > 0.0
    assert_array_equal(spec.adjacency, spec.adjacency.T)
    assert not spec.adjacency.diagonal().any()
    off = ~np.eye(12, dtype=bool)
    assert_array_equal(np.abs(spec.precision[off]) > 1e-12, spec.adjacency[off])
    assert len(spec.edges) == spec.adjacency.sum() // 2
    for i, j in spec.edges:
        assert i < j
        assert spec.adjacency[i, j]


def test_ggm_covariance_inverts_the_precision():
    spec = GgmSpec(dim=10, edge_prob=0.3, seed=4)
    assert_allclose(spec.covariance @ spec.precision, np.eye(10), atol=1e-10)


def test_ggm_without_edges_is_the_identity():
    spec = GgmSpec(dim=6, edge_prob=0.0, seed=0)
    assert_array_equal(spec.precision, np.eye(6))
    assert spec.edges == []


def test_ggm_complete_graph_stays_positive_definite():
    spec = GgmSpec(dim=8, edge_prob=1.0, seed=0)
    assert spec.adjacency.sum() == 8 * 7
    assert np.linalg.eigvalsh(spec.precision).min() > 0.0


@pytest.mark.parametrize("edge_value", [-2.0, 0.3, 10.0, 1e3, 1e6])
@pytest.mark.parametrize("edge_prob", [0.3, 1.0])
def test_ggm_loads_the_fewest_diagonal_steps(edge_prob, edge_value):
    for seed in range(5):
        spec = GgmSpec(dim=12, edge_prob=edge_prob, edge_value=edge_value, seed=seed)
        unloaded = np.eye(12) + edge_value * spec.adjacency
        steps = round((spec.precision[0, 0] - 1.0) / 0.05)
        # Only the diagonal moves, so the edge support is the sampled one.
        assert_array_equal(spec.precision, unloaded + 0.05 * steps * np.eye(12))
        assert is_spd(spec.precision)
        assert steps == 0 or not is_spd(unloaded + 0.05 * (steps - 1) * np.eye(12))
        if abs(edge_value) <= 10:
            # Reference: repeated 0.05 steps.  Their rounding differs from one
            # load of k steps, so at an exact multiple the load may need one more.
            loop = unloaded
            while not is_spd(loop):
                loop = loop + 0.05 * np.eye(12)
            assert steps - round((loop[0, 0] - 1.0) / 0.05) in (0, 1)


def test_ggm_with_a_huge_edge_value_builds_quickly():
    # Loading in repeated 0.05 steps would take about 2e7 Cholesky factorizations.
    start = time.perf_counter()
    spec = GgmSpec(dim=30, edge_prob=1.0, edge_value=1e6)
    assert time.perf_counter() - start < 0.1
    assert is_spd(spec.precision)


def test_ggm_spec_is_seeded_and_immutable():
    assert_array_equal(
        GgmSpec(dim=20, edge_prob=0.25, seed=3).adjacency,
        GgmSpec(dim=20, edge_prob=0.25, seed=3).adjacency,
    )
    spec = GgmSpec(dim=5, edge_prob=0.5, seed=0)
    with pytest.raises(ValueError):
        spec.precision[0, 0] = 2.0


@pytest.mark.parametrize("kwargs", [{"dim": 1}, {"edge_prob": -0.1}, {"edge_prob": 1.1}])
def test_ggm_spec_validation(kwargs):
    with pytest.raises(ValueError):
        GgmSpec(**kwargs)


@pytest.mark.parametrize("edge_value", [float("nan"), float("inf"), float("-inf")])
def test_ggm_spec_rejects_a_non_finite_edge_value(edge_value):
    for edge_prob in (0.0, 1.0):
        with pytest.raises(ValueError, match="edge_value"):
            GgmSpec(dim=3, edge_prob=edge_prob, edge_value=edge_value)


def test_ggm_samples_match_the_model_covariance():
    spec = GgmSpec(dim=8, edge_prob=0.3, seed=2)
    pset = gen_ggm_samples(spec, n=100_000, seed=11)
    assert_allclose(pset.points.mean(axis=0), 0.0, atol=0.05)
    centered = pset.points - pset.points.mean(axis=0)
    cov = centered.T @ centered / pset.n
    assert np.linalg.norm(cov - spec.covariance) <= 0.05 * np.linalg.norm(spec.covariance)


# -- rotations ---------------------------------------------------------------------

def test_rotation_is_clockwise():
    rotated = rotate_dataset(np.array([[1.0, 0.0]]), degrees=-90.0)
    assert_allclose(rotated.points, [[0.0, 1.0]], atol=1e-12)
    rotated = rotate_dataset(np.array([[0.0, 1.0]]), degrees=90.0)
    assert_allclose(rotated.points, [[1.0, 0.0]], atol=1e-12)


def test_full_turn_and_inverse_rotations_cancel(rng):
    points = rng.standard_normal((40, 2))
    assert_allclose(rotate_dataset(points, 360.0).points, points, atol=1e-12)
    back = rotate_dataset(rotate_dataset(points, 45.0), -45.0)
    assert_allclose(back.points, points, atol=1e-12)


def test_rotation_only_touches_the_first_two_coordinates(rng):
    points = rng.standard_normal((30, 5))
    rotated = rotate_dataset(ParticleSet(points, t=3.0), degrees=30.0)
    assert_array_equal(rotated.points[:, 2:], points[:, 2:])
    assert rotated.t == 3.0
    assert_allclose(
        np.linalg.norm(rotated.points[:, :2], axis=1),
        np.linalg.norm(points[:, :2], axis=1),
        rtol=1e-12,
    )


def test_rotation_needs_two_coordinates(rng):
    with pytest.raises(ValueError):
        rotate_dataset(rng.standard_normal((5, 1)), degrees=10.0)


# -- precision support --------------------------------------------------------------

def test_independent_coordinates_have_empty_support(rng):
    support = precision_support(rng.standard_normal((10_000, 5)))
    assert support.dtype == bool
    assert not support.any()


def test_single_edge_precision_is_recovered():
    precision = np.eye(4)
    precision[0, 1] = precision[1, 0] = 0.3
    draws = sample_gaussian(np.zeros(4), np.linalg.inv(precision), 20_000, seed=13)
    support = precision_support(draws)
    expected = np.zeros((4, 4), dtype=bool)
    expected[0, 1] = expected[1, 0] = True
    assert_array_equal(support, expected)


def test_support_is_symmetric_with_a_false_diagonal(rng):
    support = precision_support(rng.standard_normal((500, 6)))
    assert_array_equal(support, support.T)
    assert not support.diagonal().any()


def test_precision_support_validation(rng):
    with pytest.raises(ValueError):
        precision_support(rng.standard_normal((5, 5)))
    with pytest.raises(ValueError):
        precision_support(rng.standard_normal((100, 3)), threshold=0.0)
