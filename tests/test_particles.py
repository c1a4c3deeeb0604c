"""Particle container behavior."""
import numpy as np
import pytest
from numpy.testing import assert_array_equal

from kingflow import ParticleSet, as_particles


def test_one_dimensional_input_becomes_column():
    pset = ParticleSet(np.array([1.0, 2.0, 3.0]))
    assert pset.points.shape == (3, 1)
    assert pset.n == 3
    assert pset.dim == 1


def test_points_are_copied_and_read_only():
    raw = np.zeros((4, 2))
    pset = ParticleSet(raw)
    raw[0, 0] = 5.0
    assert pset.points[0, 0] == 0.0
    with pytest.raises(ValueError):
        pset.points[0, 0] = 1.0


def test_time_defaults_to_zero_and_coerces():
    assert ParticleSet(np.zeros((2, 2))).t == 0.0
    assert ParticleSet(np.zeros((2, 2)), t=3).t == 3.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, "1.5", True])
def test_time_must_be_a_finite_number(bad):
    with pytest.raises(ValueError, match="t must be a finite number"):
        ParticleSet(np.zeros((2, 2)), t=bad)


def test_with_points_keeps_time_unless_overridden():
    pset = ParticleSet(np.zeros((2, 2)), t=1.5)
    moved = pset.with_points(np.ones((2, 2)))
    assert moved.t == 1.5
    assert moved.with_points(np.ones((2, 2)), t=2.0).t == 2.0
    assert_array_equal(moved.points, np.ones((2, 2)))


@pytest.mark.parametrize(
    "bad",
    [
        np.zeros((0, 3)),
        np.zeros((2, 2, 2)),
        np.array([[1.0, np.nan]]),
        np.array([[np.inf, 0.0]]),
    ],
)
def test_invalid_points_rejected(bad):
    with pytest.raises(ValueError):
        ParticleSet(bad)


def test_as_particles_passthrough_and_coercion():
    pset = ParticleSet(np.zeros((2, 2)), t=1.0)
    assert as_particles(pset) is pset
    coerced = as_particles([[0.0, 1.0]], t=2.0)
    assert isinstance(coerced, ParticleSet)
    assert coerced.t == 2.0
    assert coerced.points.shape == (1, 2)


def test_as_particles_checks_the_dimension_it_is_given():
    pset = ParticleSet(np.zeros((2, 3)))
    assert as_particles(pset, dim=3) is pset
    assert as_particles(np.zeros((2, 3)), dim=3).dim == 3
    for data in (pset, np.zeros((2, 3)), np.zeros(4)):
        with pytest.raises(ValueError, match="dimension mismatch"):
            as_particles(data, dim=2)
