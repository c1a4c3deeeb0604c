"""Every public scalar input is checked as ``particles._number`` checks it.

For each ``int`` or ``float`` parameter of an exported function, dataclass or
public method, a valid value is accepted, and NaN, ±inf, ``True`` and ``"1"``
raise ``ValueError`` naming the parameter; so do 0 and -1 where the value
must be positive, -1 where it must not be negative, and 2.5 where it must be
an integer.
"""
import dataclasses
import inspect
from typing import Callable, NamedTuple

import numpy as np
import pytest

import kingflow
import kingflow.harness
from kingflow import (
    FlowConfig,
    GaussianMixtureScore,
    GaussianNaturalParams,
    GaussianQuadraticMap,
    GaussianScore,
    InformedPairwiseMap,
    KernelSpec,
    NtkSpec,
    ParticleSet,
    RbfFeatureMap,
    TimeKernel,
    as_particles,
    exact_ngd_step,
    mmd,
    rbf_map_from_samples,
    sample_gaussian,
    solve_king_drift,
    solve_ntking_drift,
    wgf_velocity,
)
from kingflow.harness import (
    GgmSpec,
    RunConfig,
    gen_gaussian_mixture,
    gen_ggm_samples,
    gen_scurve,
    precision_support,
    rotate_dataset,
)


class Scalar(NamedTuple):
    call: Callable  # called with the value
    good: object  # a value the call accepts
    integral: bool = False  # 2.5 is rejected
    positive: bool = False  # 0 and -1 are rejected
    nonnegative: bool = False  # -1 is rejected


_rng = np.random.default_rng(0)
P = _rng.standard_normal((12, 2))
T = 0.5 + _rng.standard_normal((15, 2))
QUAD = GaussianQuadraticMap(input_dim=2)
RBF = KernelSpec("rbf_scalar")
DIAG = KernelSpec("diagonalized_scalar")
PARAMS = GaussianNaturalParams(linear=np.zeros(2), quadratic=-0.5 * np.eye(2))
GAUSSIAN = GaussianScore(mean=[0.0, 1.0], variances=[1.0, 2.0])
MIXTURE = GaussianMixtureScore(means=T[:4], sigma=0.8)


def _flow(**kwargs):
    return FlowConfig(**{"step": 0.1, "iterations": 5, **kwargs})


SCALARS = {
    # functions
    "as_particles.t": Scalar(lambda v: as_particles(P, t=v), 0.5),
    "as_particles.dim": Scalar(lambda v: as_particles(P, dim=v), 2, integral=True, positive=True),
    "rbf_map_from_samples.n_centers": Scalar(
        lambda v: rbf_map_from_samples(P, n_centers=v), 5, integral=True, positive=True
    ),
    "rbf_map_from_samples.bandwidth": Scalar(
        lambda v: rbf_map_from_samples(P, n_centers=5, bandwidth=v), 0.7, positive=True
    ),
    "rbf_map_from_samples.bandwidth_scale": Scalar(
        lambda v: rbf_map_from_samples(P, n_centers=5, bandwidth_scale=v), 2.0, positive=True
    ),
    "sample_gaussian.n": Scalar(
        lambda v: sample_gaussian(np.zeros(2), np.eye(2), v, 0), 5, integral=True, positive=True
    ),
    "exact_ngd_step.step": Scalar(
        lambda v: exact_ngd_step(PARAMS, T, v, mc_samples=64), 0.1, positive=True
    ),
    "exact_ngd_step.mc_samples": Scalar(
        lambda v: exact_ngd_step(PARAMS, T, 0.1, mc_samples=v), 64, integral=True, positive=True
    ),
    "solve_king_drift.ridge": Scalar(
        lambda v: solve_king_drift(QUAD, RBF, P, T, v), 1e-2, positive=True
    ),
    "solve_ntking_drift.ridge": Scalar(
        lambda v: solve_ntking_drift(QUAD, DIAG, P, T, v), 1e-2, positive=True
    ),
    "wgf_velocity.bandwidth_targets": Scalar(
        lambda v: wgf_velocity(T, P, bandwidth_targets=v), 0.7, positive=True
    ),
    "wgf_velocity.bandwidth_particles": Scalar(
        lambda v: wgf_velocity(T, P, bandwidth_particles=v), 0.7, positive=True
    ),
    "mmd.bandwidth": Scalar(lambda v: mmd(P, T, bandwidth=v), 0.7, positive=True),
    "gen_gaussian_mixture.dim": Scalar(
        lambda v: gen_gaussian_mixture(v, [0.0], [1.0], 5, 0), 2, integral=True, positive=True
    ),
    "gen_gaussian_mixture.n": Scalar(
        lambda v: gen_gaussian_mixture(2, [0.0], [1.0], v, 0), 5, integral=True, positive=True
    ),
    "gen_gaussian_mixture.component_sd": Scalar(
        lambda v: gen_gaussian_mixture(2, [0.0], [1.0], 5, 0, component_sd=v), 0.5, positive=True
    ),
    "gen_scurve.n": Scalar(lambda v: gen_scurve(v), 5, integral=True, positive=True),
    "gen_scurve.noise_sd": Scalar(lambda v: gen_scurve(5, noise_sd=v), 0.1),
    "gen_ggm_samples.n": Scalar(
        lambda v: gen_ggm_samples(GgmSpec(dim=3), v, 0), 5, integral=True, positive=True
    ),
    "rotate_dataset.degrees": Scalar(lambda v: rotate_dataset(P, v), 30.0),
    "precision_support.threshold": Scalar(
        lambda v: precision_support(P, threshold=v), 0.1, positive=True
    ),
    # dataclass fields
    "ParticleSet.t": Scalar(lambda v: ParticleSet(P, t=v), 0.5),
    "NtkSpec.input_dim": Scalar(
        lambda v: NtkSpec(input_dim=v, hidden_width=4), 2, integral=True, positive=True
    ),
    "NtkSpec.hidden_width": Scalar(
        lambda v: NtkSpec(input_dim=2, hidden_width=v), 4, integral=True, positive=True
    ),
    "NtkSpec.seed": Scalar(
        lambda v: NtkSpec(input_dim=2, hidden_width=4, seed=v), 3, integral=True, nonnegative=True
    ),
    "KernelSpec.bandwidth": Scalar(
        lambda v: KernelSpec("rbf_scalar", bandwidth=v), 0.7, positive=True
    ),
    "FlowConfig.step": Scalar(lambda v: _flow(step=v), 0.1, positive=True),
    "FlowConfig.iterations": Scalar(lambda v: _flow(iterations=v), 5, integral=True, positive=True),
    "FlowConfig.ridge": Scalar(lambda v: _flow(ridge=v), 1e-3, positive=True),
    "FlowConfig.log_every": Scalar(lambda v: _flow(log_every=v), 2, integral=True, positive=True),
    "TimeKernel.center": Scalar(lambda v: TimeKernel(center=v, sigma=0.1), 1.0),
    "TimeKernel.sigma": Scalar(lambda v: TimeKernel(center=1.0, sigma=v), 0.1, positive=True),
    "GaussianQuadraticMap.input_dim": Scalar(
        lambda v: GaussianQuadraticMap(input_dim=v), 2, integral=True, positive=True
    ),
    "RbfFeatureMap.bandwidth": Scalar(
        lambda v: RbfFeatureMap(centers=P[:3], bandwidth=v), 0.7, positive=True
    ),
    "InformedPairwiseMap.bandwidth": Scalar(
        lambda v: InformedPairwiseMap(centers=P[:3], bandwidth=v, pairs=((0, 1),)),
        0.7,
        positive=True,
    ),
    "GaussianMixtureScore.sigma": Scalar(
        lambda v: GaussianMixtureScore(means=T[:4], sigma=v), 0.8, positive=True
    ),
    # the dimension's own bound, at least 2, also rejects 0 and -1
    "GgmSpec.dim": Scalar(lambda v: GgmSpec(dim=v), 3, integral=True, positive=True),
    "GgmSpec.edge_prob": Scalar(lambda v: GgmSpec(dim=3, edge_prob=v), 0.5),
    "GgmSpec.edge_value": Scalar(lambda v: GgmSpec(dim=3, edge_value=v), 0.3),
    "GgmSpec.seed": Scalar(
        lambda v: GgmSpec(dim=3, seed=v), 1, integral=True, nonnegative=True
    ),
    "RunConfig.seed": Scalar(
        lambda v: RunConfig(scenario="ngd_tracking", seed=v), 1, integral=True
    ),
    # public methods
    "FeatureMap.derivatives.order": Scalar(lambda v: QUAD.derivatives(P, v), 1, integral=True),
    "ParticleSet.with_points.t": Scalar(lambda v: ParticleSet(P).with_points(T, t=v), 0.5),
    "KernelSpec.with_bandwidth.bandwidth": Scalar(
        lambda v: RBF.with_bandwidth(v), 0.7, positive=True
    ),
    "GaussianScore.sample.n": Scalar(
        lambda v: GAUSSIAN.sample(v, 0), 5, integral=True, positive=True
    ),
    "GaussianMixtureScore.sample.n": Scalar(
        lambda v: MIXTURE.sample(v, 0), 5, integral=True, positive=True
    ),
}


# Second calls of a parameter whose check could depend on another argument;
# the guard below reads only SCALARS.
VARIANTS = {
    "as_particles(ParticleSet).t": Scalar(lambda v: as_particles(ParticleSet(P), t=v), 0.5),
}
CASES = {**SCALARS, **VARIANTS}


def _bad_values(scalar: Scalar) -> list:
    bad = [np.nan, np.inf, -np.inf, True, "1"]
    if scalar.positive:
        bad += [0, -1]
    elif scalar.nonnegative:
        bad.append(-1)
    if scalar.integral:
        bad.append(2.5)
    return bad


@pytest.mark.parametrize("key", CASES)
def test_a_valid_value_is_accepted(key):
    CASES[key].call(CASES[key].good)


@pytest.mark.parametrize(
    "key, bad", [(key, bad) for key, scalar in CASES.items() for bad in _bad_values(scalar)]
)
def test_a_bad_value_raises_naming_the_parameter(key, bad):
    name = key.rsplit(".", 1)[1]
    # as a word: "dim" is not found in "dimension mismatch"
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        CASES[key].call(bad)


# Result records: their fields are set from computed values, not taken as input.
RESULT_RECORDS = {"FisherMatrix", "MmdEstimate"}


def _is_scalar(annotation) -> bool:
    """Whether an annotation is ``int`` or ``float``, optionally ``| None``."""
    text = annotation if isinstance(annotation, str) else getattr(annotation, "__name__", "")
    return {part.strip() for part in text.split("|")} - {"None"} in ({"int"}, {"float"})


def _python_routine(member) -> bool:
    return inspect.isfunction(member) or inspect.ismethod(member)


def _scalar_parameters(function, owner: str) -> set:
    parameters = inspect.signature(function).parameters.values()
    return {f"{owner}.{p.name}" for p in parameters if _is_scalar(p.annotation)}


def _exported_scalar_parameters() -> set:
    """``owner.parameter`` for each scalar parameter of the exported API."""
    found = set()
    for module in (kingflow, kingflow.harness):
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isfunction(obj):
                found |= _scalar_parameters(obj, name)
            if not inspect.isclass(obj) or name in RESULT_RECORDS:
                continue
            if dataclasses.is_dataclass(obj):
                found |= {f"{name}.{f.name}" for f in dataclasses.fields(obj) if _is_scalar(f.type)}
            for attr, member in inspect.getmembers(obj, _python_routine):
                if not attr.startswith("_"):
                    found |= _scalar_parameters(member, member.__qualname__)
    return found


def test_every_exported_scalar_parameter_has_a_case():
    found = _exported_scalar_parameters()
    assert {"FlowConfig.step", "sample_gaussian.n", "FeatureMap.derivatives.order"} <= found
    assert found - set(SCALARS) == set()
    assert set(SCALARS) - found == set()

