"""Experiment harness: datasets, scenario runner, and CLI."""

from .config import RunConfig
from .datasets import (
    GgmSpec,
    gen_gaussian_mixture,
    gen_ggm_samples,
    gen_scurve,
    precision_support,
    rotate_dataset,
)
from .scenarios import ScenarioOutcome, execute_scenario

__all__ = [
    "GgmSpec",
    "RunConfig",
    "ScenarioOutcome",
    "execute_scenario",
    "gen_gaussian_mixture",
    "gen_ggm_samples",
    "gen_scurve",
    "precision_support",
    "rotate_dataset",
]
