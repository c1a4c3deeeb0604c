"""Feature maps, their derivatives, and Fisher estimation."""
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from kingflow import (
    CustomLinearMap,
    GaussianMixtureScore,
    GaussianQuadraticMap,
    GaussianScore,
    InformedPairwiseMap,
    ParticleSet,
    RbfFeatureMap,
    SteinFeatureMap,
    feature_map_from_config,
    feature_mean,
    feature_moments,
    rbf_map_from_samples,
)
from kingflow._linalg import FISHER_JITTER
from kingflow.errors import SingularFisherError
from kingflow.manifold import _REGISTRY, vech_pairs
from kingflow.stein import _SCORE_KINDS, STEIN_MODES


def fd_jacobian(fmap, x, h=1e-6):
    """Central-difference Jacobian of the feature vector at a single point."""
    x = np.asarray(x, dtype=np.float64)
    cols = []
    for k in range(x.size):
        delta = np.zeros_like(x)
        delta[k] = h
        cols.append((fmap.features(x + delta) - fmap.features(x - delta)) / (2 * h))
    return np.stack(cols, axis=1)


def fd_hessian(fmap, x, h=1e-5):
    """Central-difference Hessian stack from the analytic Jacobian."""
    x = np.asarray(x, dtype=np.float64)
    cols = []
    for k in range(x.size):
        delta = np.zeros_like(x)
        delta[k] = h
        cols.append((fmap.jacobian(x + delta) - fmap.jacobian(x - delta)) / (2 * h))
    return np.stack(cols, axis=2)


def map_instances(rng):
    return [
        GaussianQuadraticMap(input_dim=1),
        GaussianQuadraticMap(input_dim=3),
        RbfFeatureMap(centers=rng.standard_normal((5, 2)), bandwidth=0.8),
        InformedPairwiseMap(
            centers=rng.standard_normal((4, 3)), bandwidth=1.2, pairs=((0, 1), (1, 2))
        ),
        CustomLinearMap(weight=rng.standard_normal((4, 2))),
    ]


# -- feature values -----------------------------------------------------------

def test_quadratic_features_at_origin_vanish():
    fmap = GaussianQuadraticMap(input_dim=1)
    assert_allclose(fmap.features(np.array([0.0])), [0.0, 0.0])


def test_quadratic_features_enumerate_products():
    fmap = GaussianQuadraticMap(input_dim=2)
    assert fmap.feature_dim == 5
    assert_allclose(fmap.features(np.array([1.0, 2.0])), [1.0, 2.0, 1.0, 2.0, 4.0])


def test_rbf_feature_peaks_at_center():
    fmap = RbfFeatureMap(centers=np.array([[0.5, -1.0]]), bandwidth=0.7)
    assert_allclose(fmap.features(np.array([0.5, -1.0])), [1.0])


def test_custom_linear_features_and_jacobian(rng):
    weight = rng.standard_normal((3, 2))
    fmap = CustomLinearMap(weight=weight)
    x = rng.standard_normal(2)
    assert_allclose(fmap.features(x), weight @ x)
    assert_allclose(fmap.jacobian(x), weight)


def test_informed_pairwise_with_no_pairs_matches_rbf(rng):
    centers = rng.standard_normal((4, 2))
    plain = RbfFeatureMap(centers=centers, bandwidth=1.1)
    informed = InformedPairwiseMap(centers=centers, bandwidth=1.1, pairs=())
    pts = rng.standard_normal((6, 2))
    assert_allclose(informed.features(pts), plain.features(pts))
    assert_allclose(informed.jacobian(pts), plain.jacobian(pts))


def test_informed_pairwise_appends_products(rng):
    fmap = InformedPairwiseMap(
        centers=np.zeros((1, 3)), bandwidth=1.0, pairs=((0, 2),)
    )
    x = np.array([2.0, -1.0, 3.0])
    assert fmap.feature_dim == 2
    assert_allclose(fmap.features(x)[-1], 6.0)


def _loop_pair_products(pts, pairs):
    """Per-pair loop form of the product features and their derivatives."""
    n, d = pts.shape
    feats = np.zeros((n, len(pairs)))
    jac = np.zeros((n, len(pairs), d))
    hess = np.zeros((n, len(pairs), d, d))
    for row, (i, j) in enumerate(pairs):
        feats[:, row] = pts[:, i] * pts[:, j]
        jac[:, row, i] += pts[:, j]
        jac[:, row, j] += pts[:, i]
        hess[:, row, i, j] += 1.0
        hess[:, row, j, i] += 1.0
    return feats, jac, hess


def test_pair_products_match_the_per_pair_loop_bitwise(rng):
    pts = rng.standard_normal((6, 3)) * 10.0 ** rng.uniform(-3, 3, size=(6, 3))
    informed_pairs = ((0, 2), (1, 1), (2, 0), (0, 2))
    informed = InformedPairwiseMap(
        centers=rng.standard_normal((2, 3)), bandwidth=1.0, pairs=informed_pairs
    )
    cases = ((GaussianQuadraticMap(input_dim=3), 3, vech_pairs(3)), (informed, 2, informed_pairs))
    for fmap, offset, pairs in cases:
        computed = (fmap.features(pts), fmap.jacobian(pts), fmap.hessian(pts))
        for got, expected in zip(computed, _loop_pair_products(pts, pairs)):
            assert_array_equal(got[:, offset:], expected)


def test_rbf_maps_reject_non_positive_or_non_finite_bandwidths():
    for bad in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            RbfFeatureMap(centers=np.zeros((1, 2)), bandwidth=bad)
        with pytest.raises(ValueError):
            InformedPairwiseMap(centers=np.zeros((1, 2)), bandwidth=bad, pairs=((0, 1),))


def test_informed_pairwise_rejects_out_of_range_pairs():
    with pytest.raises(ValueError):
        InformedPairwiseMap(centers=np.zeros((1, 2)), bandwidth=1.0, pairs=((0, 5),))


def test_batch_and_single_point_shapes_agree(rng):
    fmap = GaussianQuadraticMap(input_dim=2)
    pts = rng.standard_normal((4, 2))
    batch = fmap.features(pts)
    assert batch.shape == (4, 5)
    assert_allclose(batch[1], fmap.features(pts[1]))
    assert fmap.jacobian(pts).shape == (4, 5, 2)
    assert fmap.hessian(pts).shape == (4, 5, 2, 2)


def test_dimension_mismatch_rejected():
    fmap = GaussianQuadraticMap(input_dim=2)
    with pytest.raises(ValueError):
        fmap.features(np.zeros(3))
    with pytest.raises(ValueError):
        fmap.features(ParticleSet(np.zeros((2, 3))))


# -- derivatives --------------------------------------------------------------

def test_quadratic_jacobian_one_dimensional():
    fmap = GaussianQuadraticMap(input_dim=1)
    assert_allclose(fmap.jacobian(np.array([3.0])), [[1.0], [6.0]])


@pytest.mark.parametrize("instance", range(5))
def test_jacobian_matches_finite_differences(instance, rng):
    fmap = map_instances(rng)[instance]
    pts = rng.standard_normal((20, fmap.input_dim))
    for x in pts:
        jac = fmap.jacobian(x)
        approx = fd_jacobian(fmap, x)
        assert np.linalg.norm(jac - approx) <= 1e-5 * max(1.0, np.linalg.norm(jac))


@pytest.mark.parametrize("instance", range(5))
def test_hessian_matches_finite_differences(instance, rng):
    fmap = map_instances(rng)[instance]
    for x in rng.standard_normal((5, fmap.input_dim)):
        hess = fmap.hessian(x)
        approx = fd_hessian(fmap, x)
        assert np.linalg.norm(hess - approx) <= 1e-4 * max(1.0, np.linalg.norm(hess))


@st.composite
def rbf_map_cases(draw):
    """An RBF or pair-informed map and points, all around one offset from the origin."""
    dim = draw(st.integers(1, 3))
    bandwidth = draw(st.floats(0.2, 5.0))
    offset = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=dim, max_size=dim)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    centers = offset + bandwidth * rng.standard_normal((draw(st.integers(1, 6)), dim))
    pts = offset + bandwidth * rng.standard_normal((draw(st.integers(1, 4)), dim))
    if draw(st.booleans()):
        return RbfFeatureMap(centers=centers, bandwidth=bandwidth), pts
    index = st.integers(0, dim - 1)
    pairs = tuple(draw(st.lists(st.tuples(index, index), max_size=3)))
    return InformedPairwiseMap(centers=centers, bandwidth=bandwidth, pairs=pairs), pts


@settings(max_examples=80, deadline=None, database=None)
@given(case=rbf_map_cases())
def test_rbf_maps_match_the_direct_per_centre_form(case):
    fmap, pts = case
    s2 = fmap.bandwidth**2
    m = fmap.centers.shape[0]
    computed = (fmap.features(pts), fmap.jacobian(pts), fmap.hessian(pts))
    for point, feats, jac, hess in zip(pts, *computed):
        diffs = fmap.centers - point
        vals = np.array([np.exp(-np.sum(diff**2) / (2.0 * s2)) for diff in diffs])
        expected_hess = [
            val * (np.outer(diff, diff) / s2**2 - np.eye(point.size) / s2)
            for val, diff in zip(vals, diffs)
        ]
        assert_allclose(feats[:m], vals, rtol=1e-10, atol=0)
        assert_allclose(jac[:m], vals[:, None] * diffs / s2, rtol=1e-10, atol=0)
        assert_allclose(hess[:m], expected_hess, rtol=1e-10, atol=0)
    for got, expected in zip(computed, _loop_pair_products(pts, getattr(fmap, "pairs", ()))):
        assert_array_equal(got[:, m:], expected)


@st.composite
def feature_map_cases(draw):
    """``rbf_map_cases`` widened to every map kind, with the points' length scale.

    The map is the drawn RBF or pair-informed one, a quadratic or a linear
    map, each possibly wrapped in a Stein map whose score sits near the points.
    """
    fmap, pts = draw(rbf_map_cases())
    s, dim = fmap.bandwidth, fmap.input_dim
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("rbf", "quadratic", "linear")))
    if kind == "quadratic":
        fmap = GaussianQuadraticMap(input_dim=dim)
    elif kind == "linear":
        fmap = CustomLinearMap(weight=rng.standard_normal((draw(st.integers(1, 4)), dim)))
    if draw(st.booleans()):
        centre = pts.mean(axis=0)
        if draw(st.booleans()):
            score = GaussianScore(
                mean=centre + s * rng.standard_normal(dim),
                variances=s**2 * rng.uniform(0.5, 2.0, dim),
            )
        else:
            score = GaussianMixtureScore(
                means=centre + s * rng.standard_normal((2, dim)), sigma=s * rng.uniform(0.5, 2.0)
            )
        fmap = SteinFeatureMap(fmap, score, mode=draw(st.sampled_from(STEIN_MODES)))
    return fmap, pts, s


@settings(max_examples=80, deadline=None, database=None)
@given(case=feature_map_cases())
def test_rbf_map_derivatives_match_central_differences(case):
    # Drawn over every map kind.  Each feature's tolerance scales with its
    # own size, as the features of far-away centres are many orders of
    # magnitude below the near ones.  A lower order is the same pass cut
    # short, bitwise; Stein maps have no second derivatives.
    fmap, pts, s = case
    stein = isinstance(fmap, SteinFeatureMap)
    top = 1 if stein else 2
    if stein:
        with pytest.raises(NotImplementedError):
            fmap.derivatives(pts, 2)
    full, lower = fmap.derivatives(pts, top), fmap.derivatives(pts, top - 1)
    assert len(full) == top + 1 and len(lower) == top
    for got, expected in zip(full, lower):
        assert_array_equal(got, expected)
    for point in pts:
        feats, jac = fmap.features(point), fmap.jacobian(point)
        scale = np.abs(feats) / s + np.abs(jac).max(axis=1)
        error = np.abs(fd_jacobian(fmap, point, h=1e-5 * s) - jac).max(axis=1)
        assert np.all(error <= 1e-6 * scale)
        if stein:
            continue
        hess = fmap.hessian(point)
        scale = np.abs(jac).max(axis=1) / s + np.abs(hess).max(axis=(1, 2))
        error = np.abs(fd_hessian(fmap, point, h=1e-5 * s) - hess).max(axis=(1, 2))
        assert np.all(error <= 1e-6 * scale)


# -- feature means and Fisher -------------------------------------------------

def test_feature_mean_of_symmetric_pair():
    fmap = GaussianQuadraticMap(input_dim=1)
    pset = ParticleSet(np.array([-1.0, 1.0]))
    assert_allclose(feature_mean(fmap, pset), [0.0, 1.0])


def test_feature_mean_single_point_is_the_feature_vector():
    fmap = GaussianQuadraticMap(input_dim=2)
    pset = ParticleSet(np.array([[1.0, 2.0]]))
    assert_allclose(feature_mean(fmap, pset), fmap.features(np.array([1.0, 2.0])))


def test_feature_mean_standard_normal_moments():
    fmap = GaussianQuadraticMap(input_dim=1)
    draws = np.random.default_rng(42).standard_normal((100_000, 1))
    assert_allclose(feature_mean(fmap, ParticleSet(draws)), [0.0, 1.0], atol=0.02)


def test_fisher_of_identical_points_is_the_jitter_load():
    fmap = GaussianQuadraticMap(input_dim=1)
    pset = ParticleSet(np.ones((10, 1)))
    fisher = feature_moments(fmap, pset)[1]
    assert_allclose(fisher.matrix, FISHER_JITTER * np.eye(2))
    assert fisher.jitter_applied == pytest.approx(FISHER_JITTER)


def test_fisher_standard_normal_quadratic_family():
    fmap = GaussianQuadraticMap(input_dim=1)
    draws = np.random.default_rng(7).standard_normal((100_000, 1))
    fisher = feature_moments(fmap, ParticleSet(draws))[1]
    assert_allclose(fisher.matrix, [[1.0, 0.0], [0.0, 2.0]], atol=0.05)


def test_fisher_minimum_eigenvalue_respects_the_load(rng):
    fmap = RbfFeatureMap(centers=rng.standard_normal((6, 2)), bandwidth=1.0)
    fisher = feature_moments(fmap, ParticleSet(rng.standard_normal((30, 2))))[1]
    min_eig = np.linalg.eigvalsh(fisher.matrix).min()
    assert min_eig >= fisher.jitter_applied * (1.0 - 1e-10)
    assert fisher.jitter_applied > 0


def test_fisher_solve_inverts_the_loaded_matrix(rng):
    fmap = GaussianQuadraticMap(input_dim=2)
    fisher = feature_moments(fmap, ParticleSet(rng.standard_normal((50, 2))))[1]
    b = rng.standard_normal(fmap.feature_dim)
    assert_allclose(fisher.matrix @ fisher.solve(b), b, rtol=1e-10, atol=1e-12)


def test_fisher_needs_two_particles():
    fmap = GaussianQuadraticMap(input_dim=1)
    with pytest.raises(ValueError):
        feature_moments(fmap, ParticleSet(np.zeros((1, 1))))


def test_feature_moments_return_the_feature_mean_with_the_fisher(rng):
    fmap = RbfFeatureMap(centers=rng.standard_normal((6, 2)), bandwidth=1.0)
    pset = ParticleSet(rng.standard_normal((30, 2)))
    mean, fisher = feature_moments(fmap, pset)
    assert_array_equal(mean, feature_mean(fmap, pset))


def test_a_non_finite_feature_covariance_raises_a_singular_fisher(rng):
    features = rng.standard_normal((10, 5))
    features[3, 2] = np.nan
    with pytest.raises(SingularFisherError, match="feature covariance .* non-finite"):
        feature_moments(GaussianQuadraticMap(input_dim=2), features)


# -- serialization and construction helpers -----------------------------------

@pytest.mark.parametrize("instance", range(5))
def test_config_round_trip(instance, rng):
    fmap = map_instances(rng)[instance]
    rebuilt = feature_map_from_config(fmap.to_config())
    pts = rng.standard_normal((4, fmap.input_dim))
    assert rebuilt.kind == fmap.kind
    assert_allclose(rebuilt.features(pts), fmap.features(pts))


@settings(max_examples=80, deadline=None, database=None)
@given(case=feature_map_cases())
def test_config_round_trips_every_map_kind(case):
    fmap, pts, _ = case
    rebuilt = feature_map_from_config(json.loads(json.dumps(fmap.to_config())))
    assert type(rebuilt) is type(fmap)
    assert rebuilt.to_config() == fmap.to_config()
    assert_array_equal(rebuilt.features(pts), fmap.features(pts))


def test_unknown_feature_map_kind_rejected():
    with pytest.raises(ValueError):
        feature_map_from_config({"kind": "mystery"})


# One instance of every registered map and score kind, and the fields a
# config of that kind may leave out.
CONFIG_EXAMPLES = {
    "gaussian_quadratic": GaussianQuadraticMap(input_dim=2),
    "rbf_features": RbfFeatureMap(centers=[[0.0, 1.0], [2.0, -1.0]], bandwidth=0.5),
    "informed_pairwise": InformedPairwiseMap(
        centers=[[0.0, 1.0], [2.0, -1.0]], bandwidth=0.5, pairs=((0, 1), (1, 1))
    ),
    "custom_linear": CustomLinearMap(weight=[[1.0, 2.0], [0.5, -3.0], [0.0, 1.0]]),
    "stein": SteinFeatureMap(
        GaussianQuadraticMap(input_dim=2), GaussianScore(mean=[0.0, 1.0], variances=[1.0, 2.0])
    ),
    "gaussian": GaussianScore(mean=[0.0, 1.0], variances=[1.0, 2.0]),
    "gaussian_mixture": GaussianMixtureScore(means=[[-1.0, 0.0], [1.0, 0.0]], sigma=0.7),
}
OPTIONAL_FIELDS = {"stein": {"mode"}}


@pytest.mark.parametrize("kind", [*_REGISTRY, *_SCORE_KINDS])
def test_every_config_kind_takes_exactly_its_fields(kind):
    from_config = {**_REGISTRY, **_SCORE_KINDS}[kind]
    obj = CONFIG_EXAMPLES[kind]
    cfg = obj.to_config()
    assert cfg["kind"] == kind
    assert json.loads(json.dumps(cfg)) == cfg
    assert from_config(json.loads(json.dumps(cfg))).to_config() == cfg
    with pytest.raises(ValueError, match="bogus"):
        from_config({**cfg, "bogus": 1})
    required = [k for k in cfg if k != "kind" and k not in OPTIONAL_FIELDS.get(kind, ())]
    assert required
    for name in required:
        with pytest.raises(ValueError, match=name):
            from_config({k: v for k, v in cfg.items() if k != name})


@pytest.mark.parametrize(
    "build",
    [
        lambda v: GaussianQuadraticMap(input_dim=v),
        lambda v: RbfFeatureMap(centers=[[0.0]], bandwidth=v),
        lambda v: InformedPairwiseMap(centers=[[0.0, 1.0]], bandwidth=1.0, pairs=((0, v),)),
        lambda v: GaussianMixtureScore(means=[[0.0]], sigma=v),
    ],
)
@pytest.mark.parametrize("value", [True, "1", [1], 0.5 + 0.5j, None, np.nan, np.inf, -np.inf])
def test_numeric_fields_take_only_numbers(build, value):
    with pytest.raises(ValueError):
        build(value)


@pytest.mark.parametrize(
    "build",
    [
        lambda v: RbfFeatureMap(centers=v, bandwidth=1.0),
        lambda v: CustomLinearMap(weight=v),
        lambda v: GaussianScore(mean=v, variances=[1.0]),
        lambda v: GaussianMixtureScore(means=v, sigma=1.0),
    ],
)
@pytest.mark.parametrize(
    "value", [[[True]], [["1"]], [[None]], [[np.nan]], [[np.inf]], [[-np.inf]]]
)
def test_array_fields_take_only_numbers(build, value):
    with pytest.raises(ValueError):
        build(value)


def test_integer_fields_take_integral_numbers_only():
    assert GaussianQuadraticMap(input_dim=2.0).input_dim == 2
    assert type(GaussianQuadraticMap(input_dim=np.int64(2)).input_dim) is int
    for bad in (2.7, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            GaussianQuadraticMap(input_dim=bad)
    with pytest.raises(ValueError):
        InformedPairwiseMap(centers=[[0.0, 1.0]], bandwidth=1.0, pairs=((0, 0.5),))


def test_rbf_map_from_samples_draws_centers_from_the_sample(rng):
    samples = ParticleSet(rng.standard_normal((40, 2)))
    fmap = rbf_map_from_samples(samples, n_centers=10, seed=3)
    assert fmap.feature_dim == 10
    sample_rows = {tuple(row) for row in samples.points}
    assert all(tuple(center) in sample_rows for center in fmap.centers)


def test_rbf_map_from_samples_caps_centers_at_sample_size(rng):
    samples = ParticleSet(rng.standard_normal((5, 2)))
    assert rbf_map_from_samples(samples, n_centers=50).feature_dim == 5


def test_rbf_map_from_samples_bandwidth_controls(rng):
    samples = ParticleSet(rng.standard_normal((30, 2)))
    explicit = rbf_map_from_samples(samples, bandwidth=0.375)
    assert explicit.bandwidth == 0.375
    base = rbf_map_from_samples(samples, seed=1)
    scaled = rbf_map_from_samples(samples, bandwidth_scale=2.0, seed=1)
    assert_allclose(scaled.bandwidth, 2.0 * base.bandwidth)


def test_rbf_map_from_samples_is_seeded(rng):
    samples = ParticleSet(rng.standard_normal((40, 2)))
    a = rbf_map_from_samples(samples, n_centers=8, seed=5)
    b = rbf_map_from_samples(samples, n_centers=8, seed=5)
    assert_allclose(a.centers, b.centers)
