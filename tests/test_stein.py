"""Score targets and score-operator feature maps for sample-free flows."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from kingflow import (
    CustomLinearMap,
    FeatureMap,
    GaussianMixtureScore,
    GaussianScore,
    ParticleSet,
    RbfFeatureMap,
    SteinFeatureMap,
    feature_map_from_config,
    natural_gradient_kl,
)
from kingflow.manifold import feature_moments
from kingflow.stein import STEIN_MODES, score_from_config


class ConstantMap(FeatureMap):
    """Single feature identically equal to one."""

    input_dim = 1
    feature_dim = 1

    def _derivatives(self, pts, order):
        n = pts.shape[0]
        return (np.ones((n, 1)), np.zeros((n, 1, 1)), np.zeros((n, 1, 1, 1)))[: order + 1]


def fd_jacobian(fmap, x, h=1e-6):
    x = np.asarray(x, dtype=np.float64)
    cols = []
    for k in range(x.size):
        step = np.zeros_like(x)
        step[k] = h
        cols.append((fmap.features(x + step) - fmap.features(x - step)) / (2.0 * h))
    return np.stack(cols, axis=-1)


# -- score models ---------------------------------------------------------------

def test_gaussian_score_formula(rng):
    score = GaussianScore(mean=[1.0, -2.0], variances=[1.0, 4.0])
    pts = rng.standard_normal((6, 2))
    assert_allclose(score.score(pts), (np.array([1.0, -2.0]) - pts) / np.array([1.0, 4.0]))
    assert_allclose(score.score_jacobian(pts), np.broadcast_to(np.diag([-1.0, -0.25]), (6, 2, 2)))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"mean": [0.0, 0.0], "variances": [1.0]},
        {"mean": [0.0], "variances": [0.0]},
        {"mean": [0.0], "variances": [-1.0]},
    ],
)
def test_gaussian_score_validation(kwargs):
    with pytest.raises(ValueError):
        GaussianScore(**kwargs)


def test_gaussian_score_sampling_is_seeded_and_calibrated():
    score = GaussianScore(mean=[2.0], variances=[4.0])
    a = score.sample(50_000, seed=5)
    assert_allclose(a, score.sample(50_000, seed=5), atol=0.0)
    assert abs(a.mean() - 2.0) < 0.05
    assert abs(a.std() - 2.0) < 0.05


def test_single_component_mixture_matches_the_gaussian_score(rng):
    mixture = GaussianMixtureScore(means=[[1.0, -1.0]], sigma=1.5)
    gaussian = GaussianScore(mean=[1.0, -1.0], variances=[2.25, 2.25])
    pts = rng.standard_normal((8, 2))
    assert_allclose(mixture.score(pts), gaussian.score(pts), rtol=1e-12)
    assert_allclose(mixture.score_jacobian(pts), gaussian.score_jacobian(pts), atol=1e-12)


def test_mixture_score_near_a_far_mode_is_single_component():
    mixture = GaussianMixtureScore(means=[[-20.0], [20.0]], sigma=1.0)
    pts = np.array([[19.0]])
    assert_allclose(mixture.score(pts), [[1.0]], atol=1e-12)


def test_mixture_rejects_bad_sigma():
    for sigma in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            GaussianMixtureScore(means=[[0.0]], sigma=sigma)


@st.composite
def mixture_cases(draw):
    """Means and query points around a shared offset, some queries on a mean or repeated."""
    n_means = draw(st.integers(1, 6))
    n = draw(st.integers(1, 6))
    dim = draw(st.integers(1, 3))
    spread = draw(st.floats(1e-3, 5.0))
    sigma = spread * draw(st.floats(0.2, 5.0))
    offset = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=dim, max_size=dim)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    means = offset + spread * rng.standard_normal((n_means, dim))
    pts = offset + spread * rng.standard_normal((n, dim))
    for i in range(n):
        source = draw(st.sampled_from(["own", "point", "mean"]))
        if source == "point":
            pts[i] = pts[draw(st.integers(0, i))]
        elif source == "mean":
            pts[i] = means[draw(st.integers(0, n_means - 1))]
    return GaussianMixtureScore(means, sigma), pts


@settings(max_examples=100, deadline=None, database=None)
@given(case=mixture_cases())
def test_mixture_score_matches_the_per_component_form(case):
    mixture, pts = case
    resp, diffs = mixture._responsibilities(pts)
    expected = np.einsum("nk,nkd->nd", resp, diffs) / mixture.sigma**2
    # the per-component scores set the absolute scale of a sum that cancels
    atol = 1e-10 * np.abs(diffs).max() / mixture.sigma**2
    assert_allclose(mixture.score(pts), expected, rtol=1e-10, atol=atol)


def test_mixture_score_jacobian_matches_finite_differences(rng):
    mixture = GaussianMixtureScore(means=[[-1.5, 0.0], [1.5, 0.5]], sigma=0.8)
    pts = rng.standard_normal((5, 2))
    h = 1e-5
    for x in pts:
        fd = np.stack(
            [
                (
                    mixture.score(x[None, :] + h * np.eye(2)[k])
                    - mixture.score(x[None, :] - h * np.eye(2)[k])
                )[0]
                / (2.0 * h)
                for k in range(2)
            ],
            axis=-1,
        )
        assert_allclose(mixture.score_jacobian(x[None, :])[0], fd, atol=1e-5)


def test_mixture_sampling_hits_both_modes():
    mixture = GaussianMixtureScore(means=[[-3.0], [3.0]], sigma=0.5)
    draws = mixture.sample(10_000, seed=3)
    assert_allclose(draws, mixture.sample(10_000, seed=3), atol=0.0)
    share_right = np.mean(draws[:, 0] > 0)
    assert 0.45 < share_right < 0.55


def test_score_config_round_trips(rng):
    pts = rng.standard_normal((4, 2))
    for score in (
        GaussianScore(mean=[0.5, -0.5], variances=[1.0, 2.0]),
        GaussianMixtureScore(means=[[-1.0, 0.0], [1.0, 0.0]], sigma=0.7),
    ):
        revived = score_from_config(score.to_config())
        assert_allclose(revived.score(pts), score.score(pts), atol=0.0)
    with pytest.raises(ValueError):
        score_from_config({"kind": "laplace"})


# -- score-operator features ------------------------------------------------------

def test_identity_base_feature_becomes_one_minus_x_squared():
    smap = SteinFeatureMap(
        base=CustomLinearMap([[1.0]]), target=GaussianScore(mean=[0.0], variances=[1.0])
    )
    xs = np.array([[0.0], [1.0], [-2.0]])
    assert_allclose(smap.features(xs), 1.0 - xs**2)


def test_constant_base_feature_becomes_the_score():
    smap = SteinFeatureMap(base=ConstantMap(), target=GaussianScore(mean=[0.0], variances=[1.0]))
    xs = np.array([[0.5], [-1.5], [3.0]])
    assert_allclose(smap.features(xs), -xs)


def test_paired_mode_cycles_coordinates(rng):
    base = RbfFeatureMap(centers=rng.standard_normal((3, 2)), bandwidth=1.0)
    score = GaussianScore(mean=[0.0, 0.0], variances=[1.0, 1.0])
    smap = SteinFeatureMap(base=base, target=score)
    pts = rng.standard_normal((6, 2))
    feats, jac, s = base.features(pts), base.jacobian(pts), score.score(pts)
    coords = [0, 1, 0]  # base feature i acts along coordinate i mod input_dim
    expected = np.stack(
        [s[:, coords[i]] * feats[:, i] + jac[:, i, coords[i]] for i in range(3)], axis=1
    )
    assert smap.feature_dim == 3
    assert_allclose(smap.features(pts), expected, atol=0.0)


def test_full_mode_crosses_features_with_coordinates(rng):
    base = RbfFeatureMap(centers=rng.standard_normal((3, 2)), bandwidth=1.0)
    score = GaussianScore(mean=[0.0, 0.0], variances=[1.0, 1.0])
    smap = SteinFeatureMap(base=base, target=score, mode="full")
    pts = rng.standard_normal((6, 2))
    feats, jac, s = base.features(pts), base.jacobian(pts), score.score(pts)
    assert smap.feature_dim == 6
    expected = np.stack(
        [s[:, c] * feats[:, i] + jac[:, i, c] for i in range(3) for c in range(2)], axis=1
    )
    assert_allclose(smap.features(pts), expected, atol=0.0)


def test_stein_map_validation(rng):
    base = RbfFeatureMap(centers=rng.standard_normal((3, 2)), bandwidth=1.0)
    with pytest.raises(ValueError):
        SteinFeatureMap(base=base, target=GaussianScore(mean=[0.0], variances=[1.0]))
    with pytest.raises(ValueError):
        SteinFeatureMap(
            base=base, target=GaussianScore(mean=[0.0, 0.0], variances=[1.0, 1.0]), mode="random"
        )
    assert STEIN_MODES == ("paired", "full")


@pytest.mark.parametrize("mode", STEIN_MODES)
def test_stein_features_average_to_zero_under_the_target(rng, mode):
    score = GaussianScore(mean=[0.5, -0.5], variances=[1.0, 2.0])
    base = RbfFeatureMap(centers=rng.uniform(-2.0, 2.0, (4, 2)), bandwidth=1.5)
    smap = SteinFeatureMap(base=base, target=score, mode=mode)
    feats = smap.features(score.sample(100_000, seed=17))
    bound = 4.0 * feats.std(axis=0) / np.sqrt(len(feats))
    assert np.all(np.abs(feats.mean(axis=0)) <= bound)


def test_stein_features_average_to_zero_under_a_mixture(rng):
    score = GaussianMixtureScore(means=[[-2.0, 0.0], [2.0, 0.0]], sigma=1.0)
    base = RbfFeatureMap(centers=rng.uniform(-2.0, 2.0, (4, 2)), bandwidth=1.5)
    smap = SteinFeatureMap(base=base, target=score)
    feats = smap.features(score.sample(100_000, seed=19))
    bound = 4.0 * feats.std(axis=0) / np.sqrt(len(feats))
    assert np.all(np.abs(feats.mean(axis=0)) <= bound)


@pytest.mark.parametrize("mode", STEIN_MODES)
def test_stein_jacobian_matches_finite_differences(rng, mode):
    score = GaussianMixtureScore(means=[[-1.0, 0.5], [1.0, -0.5]], sigma=1.2)
    base = RbfFeatureMap(centers=rng.standard_normal((3, 2)), bandwidth=1.3)
    smap = SteinFeatureMap(base=base, target=score, mode=mode)
    for x in rng.standard_normal((5, 2)):
        assert_allclose(smap.jacobian(x), fd_jacobian(smap, x), atol=1e-5)


def test_stein_hessian_is_not_provided(rng):
    smap = SteinFeatureMap(base=ConstantMap(), target=GaussianScore(mean=[0.0], variances=[1.0]))
    with pytest.raises(NotImplementedError):
        smap.hessian(rng.standard_normal((3, 1)))


def test_stein_map_config_round_trips(rng):
    base = RbfFeatureMap(centers=rng.standard_normal((3, 2)), bandwidth=1.0)
    score = GaussianMixtureScore(means=[[-1.0, 0.0], [1.0, 0.0]], sigma=0.9)
    smap = SteinFeatureMap(base=base, target=score, mode="full")
    revived = feature_map_from_config(smap.to_config())
    pts = rng.standard_normal((5, 2))
    assert_allclose(revived.features(pts), smap.features(pts), atol=0.0)
    assert revived.mode == "full"


# -- sample-free natural gradient ---------------------------------------------------

def test_stein_gradient_detects_a_mean_shift(rng):
    # constant base feature: the Stein statistic is the score itself, so the
    # gap is minus its average and the Fisher is close to one
    smap = SteinFeatureMap(base=ConstantMap(), target=GaussianScore(mean=[2.0], variances=[1.0]))
    particles = ParticleSet(rng.standard_normal((100_000, 1)))
    result = natural_gradient_kl(smap, None, particles)
    assert_allclose(result.gap, [-2.0], atol=0.05)
    assert_allclose(result.natural_direction, [-2.0], atol=0.05)


def test_score_target_gap_is_the_negated_model_mean(rng):
    score = GaussianScore(mean=[0.5, -1.0], variances=[1.0, 2.0])
    base = RbfFeatureMap(centers=rng.uniform(-2.0, 2.0, (4, 2)), bandwidth=1.5)
    smap = SteinFeatureMap(base=base, target=score)
    particles = ParticleSet(rng.standard_normal((200, 2)))
    result = natural_gradient_kl(smap, None, particles)
    model_mean, fisher = feature_moments(smap, particles)
    assert_allclose(result.gap, -model_mean, rtol=0.0, atol=0.0)
    assert_allclose(result.natural_direction, fisher.solve(result.gap), rtol=0.0, atol=0.0)


def test_stein_gradient_vanishes_on_target_samples(rng):
    score = GaussianScore(mean=[0.0, 0.0], variances=[1.0, 1.0])
    base = RbfFeatureMap(centers=rng.uniform(-2.0, 2.0, (4, 2)), bandwidth=1.5)
    smap = SteinFeatureMap(base=base, target=score)
    particles = ParticleSet(score.sample(100_000, seed=23))
    result = natural_gradient_kl(smap, None, particles)
    feats = smap.features(particles.points)
    bound = 4.0 * feats.std(axis=0) / np.sqrt(particles.n)
    assert np.all(np.abs(result.gap) <= bound)


def test_stein_direction_shrinks_with_more_target_samples():
    rng = np.random.default_rng(7)
    base = RbfFeatureMap(centers=rng.uniform(-2.0, 2.0, (6, 2)), bandwidth=1.5)
    score = GaussianScore(mean=[0.0, 0.0], variances=[1.0, 1.0])
    smap = SteinFeatureMap(base=base, target=score)
    norms = []
    for n in (1_000, 10_000, 100_000):
        particles = ParticleSet(score.sample(n, seed=123))
        norms.append(np.linalg.norm(natural_gradient_kl(smap, None, particles).natural_direction))
    assert norms[1] < 0.5 * norms[0]
    assert norms[2] < 0.5 * norms[1]
