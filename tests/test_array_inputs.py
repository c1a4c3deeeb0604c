"""Every public vector or matrix input is checked as ``particles._real_array`` checks it.

For each array parameter of an exported function, dataclass or public method,
a valid value is accepted, and a NaN or ±inf entry, a bool array, an empty
axis and a value of the wrong shape raise ``ValueError`` naming the parameter.
The inputs in ``PINNED`` keep the error their own tests pin for a non-finite
entry.
"""
import dataclasses
import inspect
from typing import Callable, NamedTuple

import numpy as np
import pytest

import kingflow
import kingflow.harness
from kingflow import (
    CustomLinearMap,
    GaussianMixtureScore,
    GaussianNaturalParams,
    GaussianQuadraticMap,
    GaussianScore,
    InformedPairwiseMap,
    KernelSpec,
    RbfFeatureMap,
    TimeKernel,
    alignment_residual,
    feature_mean,
    feature_moments,
    gaussian_moment_to_natural,
    gaussian_w2,
    kernel_cross_grad,
    kernel_value,
    natural_gradient_kl,
    project_change_limit,
    sample_gaussian,
    solve_king_drift,
    solve_ntking_drift,
)
from kingflow.errors import SingularFisherError
from kingflow.harness import gen_gaussian_mixture


class Array(NamedTuple):
    call: Callable  # called with the value
    good: object  # a value the call accepts
    wrong: object  # a nonempty value of another shape


_rng = np.random.default_rng(0)
P = _rng.standard_normal((12, 2))
T = 0.5 + _rng.standard_normal((15, 2))
V = _rng.standard_normal((12, 2))
FEATURES = _rng.standard_normal((10, 5))
X, Y = np.array([0.1, -0.3]), np.array([0.4, 0.2])
I2, I3 = np.eye(2), np.eye(3)
QUAD = GaussianQuadraticMap(input_dim=2)
RBF = KernelSpec("rbf_scalar", bandwidth=0.7)
DIAG = KernelSpec("diagonalized_scalar")
NGD = natural_gradient_kl(QUAD, T, P)
TARGET_MEAN = feature_mean(QUAD, T)
TK = TimeKernel(center=1.0, sigma=0.1)
TIMES = np.linspace(0.9, 1.1, 5)

ARRAYS = {
    # functions
    "kernel_value.x": Array(lambda v: kernel_value(RBF, v, Y), X, [X]),
    "kernel_value.y": Array(lambda v: kernel_value(RBF, X, v), Y, [0.4, 0.2, 0.0]),
    "kernel_cross_grad.x": Array(lambda v: kernel_cross_grad(RBF, v, Y), X, [X]),
    "kernel_cross_grad.y": Array(lambda v: kernel_cross_grad(RBF, X, v), Y, [0.4, 0.2, 0.0]),
    "gaussian_w2.mean_a": Array(lambda v: gaussian_w2(v, I2, Y, I2), X, [X]),
    "gaussian_w2.cov_a": Array(lambda v: gaussian_w2(X, v, Y, I2), I2, I3),
    "gaussian_w2.mean_b": Array(lambda v: gaussian_w2(X, I2, v, I2), Y, [0.4, 0.2, 0.0]),
    "gaussian_w2.cov_b": Array(lambda v: gaussian_w2(X, I2, Y, v), I2, I3),
    "gaussian_moment_to_natural.mean": Array(lambda v: gaussian_moment_to_natural(v, I2), X, [X]),
    "gaussian_moment_to_natural.cov": Array(lambda v: gaussian_moment_to_natural(X, v), I2, I3),
    "sample_gaussian.mean": Array(lambda v: sample_gaussian(v, I2, 5, 0), X, [X]),
    "sample_gaussian.cov": Array(lambda v: sample_gaussian(X, v, 5, 0), I2, I3),
    "project_change_limit.velocities": Array(
        lambda v: project_change_limit(QUAD, P, v), V, V[:, :1]
    ),
    "alignment_residual.delta": Array(
        lambda v: alignment_residual(NGD, v), NGD.natural_direction, NGD.natural_direction[:4]
    ),
    "feature_moments.particles": Array(
        lambda v: feature_moments(QUAD, v), FEATURES, FEATURES[:, :4]
    ),
    "solve_king_drift.target_mean": Array(
        lambda v: solve_king_drift(QUAD, RBF, P, T, 1e-2, target_mean=v),
        TARGET_MEAN,
        TARGET_MEAN[:4],
    ),
    "solve_ntking_drift.target_mean": Array(
        lambda v: solve_ntking_drift(QUAD, DIAG, P, T, 1e-2, target_mean=v),
        TARGET_MEAN,
        TARGET_MEAN[:4],
    ),
    "gen_gaussian_mixture.means": Array(
        lambda v: gen_gaussian_mixture(2, v, [0.5, 0.5], 5, 0), [X, Y], [[0.1, -0.3, 0.0], Y]
    ),
    "gen_gaussian_mixture.weights": Array(
        lambda v: gen_gaussian_mixture(2, [X, Y], v, 5, 0), [0.5, 0.5], [0.5, 0.25, 0.25]
    ),
    # dataclass fields
    "GaussianNaturalParams.linear": Array(
        lambda v: GaussianNaturalParams(linear=v, quadratic=-0.5 * I2), X, [X]
    ),
    "GaussianNaturalParams.quadratic": Array(
        lambda v: GaussianNaturalParams(linear=X, quadratic=v), -0.5 * I2, -0.5 * I3
    ),
    "GaussianScore.mean": Array(lambda v: GaussianScore(mean=v, variances=[1.0, 2.0]), X, [X]),
    "GaussianScore.variances": Array(
        lambda v: GaussianScore(mean=X, variances=v), [1.0, 2.0], [1.0, 2.0, 3.0]
    ),
    "GaussianMixtureScore.means": Array(
        lambda v: GaussianMixtureScore(means=v, sigma=0.8), T[:4], T[None, :4]
    ),
    "RbfFeatureMap.centers": Array(
        lambda v: RbfFeatureMap(centers=v, bandwidth=0.7), P[:3], P[None, :3]
    ),
    "InformedPairwiseMap.centers": Array(
        lambda v: InformedPairwiseMap(centers=v, bandwidth=0.7, pairs=((0, 1),)), P[:3], P[None, :3]
    ),
    "CustomLinearMap.weight": Array(lambda v: CustomLinearMap(weight=v), P[:3], P[None, :3]),
    # public methods
    "TimeKernel.value.t": Array(TK.value, TIMES, TIMES[None]),
    "TimeKernel.deriv.t": Array(TK.deriv, TIMES, TIMES[None]),
}

# A covariance is factored before its shape is checked, so a non-finite entry
# reads as not positive definite.  Features are checked only for their width:
# a non-finite feature makes the Fisher estimate singular, and bool features
# are a sample of zeros and ones.
PINNED = {
    "gaussian_w2.cov_a": (ValueError, "cov_a must be positive definite"),
    "gaussian_w2.cov_b": (ValueError, "cov_b must be positive definite"),
    "gaussian_moment_to_natural.cov": (ValueError, "cov must be positive definite"),
    "sample_gaussian.cov": (ValueError, "cov must be positive definite"),
    "feature_moments.particles": (SingularFisherError, "feature covariance .* non-finite"),
}
# Of these, only the features take a bool array.
TAKES_BOOLS = {"feature_moments.particles"}


def _parameter(key: str) -> str:
    return key.rsplit(".", 1)[1]


def _with_entry(good, value) -> np.ndarray:
    arr = np.array(good, dtype=np.float64)
    arr.flat[0] = value
    return arr


def _empty_axes(good) -> list:
    arr = np.asarray(good)
    return [np.delete(arr, np.s_[:], axis=axis) for axis in range(arr.ndim)]


@pytest.mark.parametrize("key", ARRAYS)
def test_a_valid_value_is_accepted(key):
    ARRAYS[key].call(ARRAYS[key].good)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("key", ARRAYS)
def test_a_non_finite_entry_raises_naming_the_parameter(key, bad):
    error, match = PINNED.get(key, (ValueError, rf"\b{_parameter(key)}\b"))
    with pytest.raises(error, match=match):
        ARRAYS[key].call(_with_entry(ARRAYS[key].good, bad))


@pytest.mark.parametrize("key", sorted(set(ARRAYS) - TAKES_BOOLS))
def test_a_bool_array_raises_naming_the_parameter(key):
    with pytest.raises(ValueError, match=rf"\b{_parameter(key)}\b"):
        ARRAYS[key].call(np.asarray(ARRAYS[key].good) > 0)


@pytest.mark.parametrize("key", ARRAYS)
def test_an_empty_axis_raises_naming_the_parameter(key):
    for empty in _empty_axes(ARRAYS[key].good):
        with pytest.raises(ValueError, match=rf"\b{_parameter(key)}\b"):
            ARRAYS[key].call(empty)


@pytest.mark.parametrize("key", ARRAYS)
def test_a_wrong_shape_raises_naming_the_parameter(key):
    with pytest.raises(ValueError, match=rf"\b{_parameter(key)}\b"):
        ARRAYS[key].call(ARRAYS[key].wrong)


def test_shape_errors_read_as_the_expected_shape():
    with pytest.raises(ValueError, match=r"^means must be a nonempty array of shape \(any, 2\)"):
        gen_gaussian_mixture(2, [], [], 3, 0)
    with pytest.raises(ValueError, match=r"^weights must be .* of shape \(2,\), got \(1,\)$"):
        gen_gaussian_mixture(2, [X, Y], [1.0], 3, 0)
    with pytest.raises(ValueError, match=r"^weight must be .* shape \(any, any\), got \(2, 2, 2\)$"):
        CustomLinearMap(weight=np.zeros((2, 2, 2)))
    with pytest.raises(ValueError, match=r"^means must be .* \(any, 2\), got \(2,\)$"):
        gen_gaussian_mixture(2, [X, [0.0, 1.0, 2.0]], [0.5, 0.5], 3, 0)


def test_one_dimensional_centers_and_velocities_are_one_column():
    fmap = RbfFeatureMap(centers=[0.0, 1.0, 2.0], bandwidth=0.7)
    assert fmap.centers.shape == (3, 1)
    quad = GaussianQuadraticMap(input_dim=1)
    pts = P[:, :1]
    assert np.array_equal(
        project_change_limit(quad, pts, V[:, 0]), project_change_limit(quad, pts, V[:, :1])
    )


def test_one_dimensional_weight_and_means_are_one_row():
    assert CustomLinearMap(weight=[1.0, 2.0]).weight.shape == (1, 2)
    assert GaussianMixtureScore(means=[1.0, 2.0], sigma=1.0).means.shape == (1, 2)


def test_a_scalar_mixture_mean_is_a_constant_vector_and_a_checked_number():
    a = gen_gaussian_mixture(2, [1.5, [0.0, 0.0]], [0.5, 0.5], 20, 3)
    b = gen_gaussian_mixture(2, [[1.5, 1.5], [0.0, 0.0]], [0.5, 0.5], 20, 3)
    assert np.array_equal(a.points, b.points)
    for bad in (np.nan, True, "1"):
        with pytest.raises(ValueError, match=r"\bmeans\b"):
            gen_gaussian_mixture(2, [bad, [0.0, 0.0]], [0.5, 0.5], 20, 3)


# Result records: their fields are set from computed values, not taken as input.
RESULT_RECORDS = {"DriftSolution", "FisherMatrix", "NatGradResult"}
# ``ParticleSet`` takes points, which ``as_particles`` checks (test_point_inputs.py).
POINT_INPUTS = {"ParticleSet.points", "ParticleSet.with_points.points"}


def _is_array(annotation) -> bool:
    """Whether an annotation names ``np.ndarray`` and not ``ParticleSet``."""
    text = annotation if isinstance(annotation, str) else getattr(annotation, "__name__", "")
    parts = {part.strip() for part in text.split("|")}
    return "np.ndarray" in parts and "ParticleSet" not in parts


def _python_routine(member) -> bool:
    return inspect.isfunction(member) or inspect.ismethod(member)


def _array_parameters(function, owner: str) -> set:
    parameters = inspect.signature(function).parameters.values()
    return {f"{owner}.{p.name}" for p in parameters if _is_array(p.annotation)}


def _exported_array_parameters() -> set:
    """``owner.parameter`` for each vector or matrix parameter of the exported API."""
    found = set()
    for module in (kingflow, kingflow.harness):
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isfunction(obj):
                found |= _array_parameters(obj, name)
            if not inspect.isclass(obj) or name in RESULT_RECORDS:
                continue
            if dataclasses.is_dataclass(obj):
                found |= {f"{name}.{f.name}" for f in dataclasses.fields(obj) if _is_array(f.type)}
            for attr, member in inspect.getmembers(obj, _python_routine):
                if not attr.startswith("_"):
                    found |= _array_parameters(member, member.__qualname__)
    return found - POINT_INPUTS


def test_every_exported_array_parameter_has_a_case():
    found = _exported_array_parameters()
    assert {"gaussian_w2.cov_b", "GaussianScore.mean", "TimeKernel.value.t"} <= found
    assert found - set(ARRAYS) == set()
    # ``feature_moments`` takes a ParticleSet or the features evaluated at one.
    assert set(ARRAYS) - found == {"feature_moments.particles"}
