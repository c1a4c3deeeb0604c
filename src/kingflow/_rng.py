"""Seed handling."""
from __future__ import annotations

import numpy as np


def as_generator(seed) -> np.random.Generator:
    """Return ``seed`` itself if it is already a Generator, else seed one."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)

