"""Particle containers and the checks every input of the package goes through.

A particle set is an immutable batch of points together with the flow time at
which it was taken.  Points are always stored as a read-only ``(n, dim)``
float64 array; one-dimensional input is promoted to a single column.
``as_particles`` is the one place a point input is coerced and checked,
``_number`` the one place a scalar input is, and ``_real_array`` the one
place a vector or matrix input is.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np


def _number(value, name: str, integral: bool = False, positive: bool = False):
    """``value`` as a finite float, or an int if ``integral``; bools, text and fractions raise.

    With ``positive``, zero and negative values raise too.
    """
    if isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_)):
        if not integral or isinstance(value, numbers.Integral) or float(value).is_integer():
            number = int(value) if integral else float(value)
            if (integral or math.isfinite(number)) and (number > 0 or not positive):
                return number
    kind = "an integer" if integral else "a finite number"
    if positive:
        kind = "a positive integer" if integral else "a positive and finite number"
    raise ValueError(f"{name} must be {kind}, got {value!r}")


def _real_array(value, name: str, shape: tuple) -> np.ndarray:
    """A new read-only float64 array of ``value``, which must be finite numbers of ``shape``.

    ``shape`` has one entry per axis: a fixed size, or ``None`` for any size.
    No axis may be empty.
    """
    try:
        arr = np.asarray(value)
    except ValueError:  # nested sequences of unequal lengths: an array of them
        arr = np.asarray(value, dtype=object)
    fits = all(got > 0 and size in (None, got) for size, got in zip(shape, arr.shape))
    if arr.ndim != len(shape) or not fits:
        expected = str(tuple("any" if size is None else size for size in shape)).replace("'", "")
        raise ValueError(f"{name} must be a nonempty array of shape {expected}, got {arr.shape}")
    if arr.dtype.kind not in "iuf":
        raise ValueError(f"{name} must hold numbers, got {value!r}")
    arr = arr.astype(np.float64)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must hold finite numbers, got {value!r}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ParticleSet:
    """Immutable collection of ``n`` points in ``R^dim`` at flow time ``t``."""

    points: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2:
            raise ValueError(f"points must be 1- or 2-dimensional, got shape {pts.shape}")
        if 0 in pts.shape:
            raise ValueError(f"particle set needs at least one point and coordinate: {pts.shape}")
        if not np.isfinite(pts).all():
            raise ValueError("points contain non-finite values")
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "t", _number(self.t, "t"))

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def with_points(self, points: np.ndarray, t: float | None = None) -> "ParticleSet":
        """Return a new set with replaced points (same time unless given)."""
        return ParticleSet(points, self.t if t is None else t)


def as_particles(data, t: float = 0.0, dim: int | None = None) -> ParticleSet:
    """``data`` itself if it is a ParticleSet, else a ParticleSet of it at time ``t``.

    ``t`` is checked either way.  With ``dim`` given, points of another
    dimension raise ``ValueError``.
    """
    if isinstance(data, ParticleSet):
        _number(t, "t")
        pset = data
    else:
        pset = ParticleSet(data, t)
    if dim is not None and pset.dim != _number(dim, "dim", integral=True, positive=True):
        raise ValueError(f"dimension mismatch: expected points of dimension {dim}, got {pset.dim}")
    return pset
