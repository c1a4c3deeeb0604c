"""Every public function or method that takes points checks them through ``as_particles``.

For each such function an array gives bitwise the result of its
``ParticleSet``, and NaN or ±inf, an empty batch and points of the wrong
dimension raise ``ValueError``.
"""
import dataclasses
import inspect
import re
from typing import Callable, NamedTuple

import numpy as np
import pytest

import kingflow
from kingflow import (
    FlowConfig,
    GaussianMixtureScore,
    GaussianNaturalParams,
    GaussianQuadraticMap,
    GaussianScore,
    KernelSpec,
    NtkSpec,
    ParticleSet,
    eval_drift,
    exact_ngd_step,
    feature_mean,
    fit_gaussian,
    kernel_gram,
    median_heuristic,
    mmd,
    mmd_flow_velocity,
    natural_gradient_kl,
    ntk_gram_blocks,
    project_change_limit,
    rbf_map_from_samples,
    run_flow,
    solve_king_drift,
    solve_ntking_drift,
    wgf_velocity,
)
from kingflow.kernels import PooledMedian


class Case(NamedTuple):
    covers: str  # the public name the case calls
    call: Callable  # called with the point inputs, in order
    points: tuple  # valid point inputs, as arrays
    free: tuple = ()  # positions whose dimension no other input fixes
    single: bool = False  # one 1-D point, the first row of its batch's result


_rng = np.random.default_rng(0)
P = _rng.standard_normal((12, 2))
T = 0.5 + _rng.standard_normal((15, 2))
Q = _rng.standard_normal((7, 2))
QUAD = GaussianQuadraticMap(input_dim=2)
RBF = KernelSpec("rbf_scalar")
DIAG = KernelSpec("diagonalized_scalar")
SOLUTION = solve_king_drift(QUAD, RBF, ParticleSet(P), ParticleSet(T), 1e-2)
FLOW = FlowConfig(step=0.1, iterations=2)
PARAMS = GaussianNaturalParams(linear=np.zeros(2), quadratic=-0.5 * np.eye(2))
NTK = NtkSpec(input_dim=2, hidden_width=4)
GAUSSIAN = GaussianScore(mean=[0.0, 1.0], variances=[1.0, 2.0])
MIXTURE = GaussianMixtureScore(means=T[:4], sigma=0.8)

CASES = {
    "solve_king_drift": Case(
        "solve_king_drift", lambda p, t: solve_king_drift(QUAD, RBF, p, t, 1e-2), (P, T)
    ),
    "solve_ntking_drift": Case(
        "solve_ntking_drift", lambda p, t: solve_ntking_drift(QUAD, DIAG, p, t, 1e-2), (P, T)
    ),
    "eval_drift": Case("eval_drift", lambda q: eval_drift(SOLUTION, q), (Q,)),
    "wgf_velocity": Case("wgf_velocity", wgf_velocity, (T, P)),
    "mmd_flow_velocity": Case("mmd_flow_velocity", mmd_flow_velocity, (T, P)),
    "run_flow": Case("run_flow", lambda t, i: run_flow("king", QUAD, RBF, t, i, FLOW), (T, P)),
    "feature_mean": Case("feature_mean", lambda p: feature_mean(QUAD, p), (P,)),
    "FeatureMap.derivatives[batch]": Case(
        "FeatureMap.derivatives", lambda x: QUAD.derivatives(x, 2), (P,)
    ),
    "FeatureMap.derivatives[point]": Case(
        "FeatureMap.derivatives", lambda x: QUAD.derivatives(x, 2), (P[3],), single=True
    ),
    "natural_gradient_kl": Case(
        "natural_gradient_kl", lambda t, p: natural_gradient_kl(QUAD, t, p), (T, P)
    ),
    "project_change_limit": Case(
        "project_change_limit", lambda p: project_change_limit(QUAD, p, Q[:4]), (P[:4],)
    ),
    "exact_ngd_step": Case(
        "exact_ngd_step", lambda t: exact_ngd_step(PARAMS, t, 0.1, mc_samples=64), (T,)
    ),
    "median_heuristic[one]": Case("median_heuristic", median_heuristic, (P,), free=(0,)),
    "median_heuristic[pair]": Case("median_heuristic", median_heuristic, (P, T)),
    "PooledMedian": Case("PooledMedian", lambda t, p: PooledMedian(t)(p), (T, P)),
    "kernel_gram": Case(
        "kernel_gram", lambda x, y: kernel_gram(RBF.with_bandwidth(0.7), x, y), (P, T)
    ),
    "ntk_gram_blocks": Case("ntk_gram_blocks", lambda x, y: ntk_gram_blocks(NTK, x, y), (P, T)),
    "mmd": Case("mmd", mmd, (P, T)),
    "fit_gaussian": Case("fit_gaussian", fit_gaussian, (P,), free=(0,)),
    "rbf_map_from_samples": Case(
        "rbf_map_from_samples",
        lambda s, b: rbf_map_from_samples(s, n_centers=5, bandwidth_samples=b),
        (P, T),
    ),
    "GaussianScore.score": Case("GaussianScore.score", GAUSSIAN.score, (P,)),
    "GaussianScore.score_jacobian": Case(
        "GaussianScore.score_jacobian", GAUSSIAN.score_jacobian, (P,)
    ),
    "GaussianMixtureScore.score": Case("GaussianMixtureScore.score", MIXTURE.score, (P,)),
    "GaussianMixtureScore.score_jacobian": Case(
        "GaussianMixtureScore.score_jacobian", MIXTURE.score_jacobian, (P,)
    ),
}


def _leaves(value) -> list:
    """The arrays and scalars a result is made of, dataclass fields and tuples unpacked.

    A drift solution's ``velocity_of`` counts through the per-feature fields
    ``(n, d, m)`` it gives, one basis coefficient vector each.
    """
    if dataclasses.is_dataclass(value):
        return [leaf for f in dataclasses.fields(value) for leaf in _leaves(getattr(value, f.name))]
    if isinstance(value, tuple):
        return [leaf for item in value for leaf in _leaves(item)]
    if callable(value):  # every drift case solves with QUAD's features
        return [np.stack([value(e) for e in np.eye(QUAD.feature_dim)], axis=2)]
    return [value]


def _replaced(points: tuple, position: int, value) -> tuple:
    return points[:position] + (value,) + points[position + 1:]


@pytest.mark.parametrize("name", CASES)
def test_an_array_gives_the_result_of_its_particle_set(name):
    case = CASES[name]
    got = case.call(*case.points)
    expected = case.call(*(ParticleSet(np.atleast_2d(p)) for p in case.points))
    if case.single:
        expected = tuple(a[0] for a in expected)
    got, expected = _leaves(got), _leaves(expected)
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert type(a) is type(b)
        assert np.array_equal(a, b)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", CASES)
def test_non_finite_points_are_rejected(name, bad):
    case = CASES[name]
    for position, points in enumerate(case.points):
        points = points.copy()
        points.flat[1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            case.call(*_replaced(case.points, position, points))


@pytest.mark.parametrize("name", [name for name, case in CASES.items() if not case.single])
def test_an_empty_batch_is_rejected(name):
    case = CASES[name]
    for position, points in enumerate(case.points):
        for empty in (points[:0], points[:, :0]):
            with pytest.raises(ValueError, match="at least one point"):
                case.call(*_replaced(case.points, position, empty))


@pytest.mark.parametrize(
    "name", [name for name, case in CASES.items() if len(case.free) < len(case.points)]
)
def test_points_of_the_wrong_dimension_are_rejected(name):
    case = CASES[name]
    for position in set(range(len(case.points))) - set(case.free):
        points = case.points[position]
        wider = np.concatenate([points, points[..., :1]], axis=-1)
        with pytest.raises(ValueError, match="dimension mismatch"):
            case.call(*_replaced(case.points, position, wider))


# A parameter of one of these names takes points.
POINT_PARAMETER = re.compile(r"particles|targets|init|queries|points_\w+|sample\w*|xs|ys|pts")
# ``feature_moments`` takes a ParticleSet, checked when it was built, or the
# features already evaluated at one, which are not points.
NOT_POINT_INPUTS = {"feature_moments"}


def test_every_public_function_that_takes_points_has_a_case():
    functions = {
        name: obj for name in kingflow.__all__ if inspect.isfunction(obj := getattr(kingflow, name))
    }
    takes_points = {
        name
        for name, function in functions.items()
        if any(map(POINT_PARAMETER.fullmatch, inspect.signature(function).parameters))
    }
    assert "run_flow" in takes_points and "kernel_value" not in takes_points
    missing = takes_points - NOT_POINT_INPUTS - {case.covers for case in CASES.values()}
    assert missing == set()


def test_every_public_method_that_takes_points_has_a_case():
    # (ParticleSet.with_points is not one: its ``points`` are a new set's raw array.)
    classes = [obj for name in kingflow.__all__ if inspect.isclass(obj := getattr(kingflow, name))]
    takes_points = {
        method.__qualname__
        for cls in classes
        for attr, method in inspect.getmembers(cls, inspect.isfunction)
        if not attr.startswith("_")
        and any(map(POINT_PARAMETER.fullmatch, inspect.signature(method).parameters))
    }
    assert {"GaussianScore.score", "GaussianMixtureScore.score_jacobian"} <= takes_points
    assert takes_points - {case.covers for case in CASES.values()} == set()
