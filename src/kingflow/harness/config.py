"""Run configuration: strict JSON schema for the scenario runner."""
from __future__ import annotations

import copy
import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from ..errors import ConfigError
from ..flows import DRIFT_KERNEL_KINDS, FLOW_METHODS, FlowConfig

# Each scenario's dataset fields with their defaults, keyed by scenario name.
DATASET_DEFAULTS = {
    "bimodal_compare": {
        "dim": 5,
        "n_targets": 100,
        "n_particles": 100,
        "offset": 2.0,
        "n_eval": 200,
    },
    "manifold_guidance": {
        "n_targets": 200,
        "n_particles": 200,
        "offset": 2.0,
        "n_eval": 200,
    },
    "ngd_tracking": {
        "dim": 2,
        "n_targets": 500,
        "n_particles": 400,
        "mc_samples": 4096,
        "checkpoints": 10,
    },
    # The 10-dim desk version needs a denser graph than the full-size default
    # edge probability: at 0.05 the handful of edges is recovered by plain RBF
    # features just as well, and the informed-statistics contrast disappears.
    "graphical_model": {
        "dim": 10,
        "edge_prob": 0.25,
        "edge_value": 0.3,
        "n_targets": 200,
        "n_particles": 200,
        "threshold": 0.1,
        "min_edges": 5,
        "informed_iterations": 30,
        "plain_iterations": 30,
        "long_iterations": 300,
        "include_long": True,
    },
    "covariate_shift_rotation": {
        "n_source": 300,
        "n_shift": 300,
        "blob_offset": 2.0,
        "component_sd": 0.4,
        "degrees": 45.0,
    },
    "stein_sampling": {
        "dim": 1,
        "n_particles": 200,
        "init_mean": 3.0,
        "init_sd": 1.0,
        "score": {"kind": "gaussian", "mean": [0.0], "variances": [1.0]},
        "base": {"kind": "gaussian_quadratic"},
        "mode": "paired",
        "n_eval": 200,
    },
}

SCENARIOS = tuple(DATASET_DEFAULTS)


def take_fields(given: dict, defaults: dict, context: str) -> dict:
    """Merge a user dict over defaults, rejecting keys outside the defaults.

    A value must have its default's type, except that a float default also
    takes an int (returned as a float) and a ``None`` default takes anything.
    A float value must be finite.
    """
    if not isinstance(given, dict):
        raise ConfigError(f"{context} must be an object, got {type(given).__name__}")
    unknown = set(given) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown {context} fields: {sorted(unknown)}")
    merged = dict(defaults)
    for key, value in given.items():
        default = defaults[key]
        if isinstance(default, float) and isinstance(value, int) and not isinstance(value, bool):
            value = float(value)
        if default is not None and (
            isinstance(value, bool) != isinstance(default, bool)
            or not isinstance(value, type(default))
        ):
            raise ConfigError(
                f"{context} field {key!r} must be a {type(default).__name__}, got {value!r}"
            )
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{context} field {key!r} must be finite, got {value!r}")
        merged[key] = value
    return merged


@dataclass(frozen=True)
class RunConfig:
    """Validated scenario run description; the constructor checks every field.

    ``seed`` is a non-negative integer (not a bool) and ``out_dir`` a string or ``None``.
    ``methods``, ``manifold`` and ``kernels`` may be left unset to take the
    scenario defaults.  ``dataset`` carries scenario-specific knobs; each must
    be a field of the scenario's ``DATASET_DEFAULTS`` entry and have its
    default's type, which the constructor checks.  The config keeps its own
    copies of ``dataset``, ``manifold`` and ``kernels``, and ``to_dict``
    returns new ones, so no caller's dict is shared with it.
    """

    scenario: str
    seed: int = 0
    methods: tuple[str, ...] | None = None
    flow: FlowConfig | None = None
    manifold: dict | None = None
    kernels: dict | None = None
    dataset: dict = field(default_factory=dict)
    out_dir: str | None = None

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario: {self.scenario!r} (expected one of {SCENARIOS})")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or self.seed < 0:
            raise ConfigError(f"'seed' must be a non-negative integer, got {self.seed!r}")
        if self.dataset is None:
            object.__setattr__(self, "dataset", {})
        if self.out_dir is not None and not isinstance(self.out_dir, str):
            raise ConfigError(f"'out_dir' must be a string, got {self.out_dir!r}")
        if isinstance(self.flow, dict):
            try:  # an unknown field is a TypeError naming it
                object.__setattr__(self, "flow", FlowConfig(**self.flow))
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad flow config: {exc}") from exc
        elif self.flow is not None and not isinstance(self.flow, FlowConfig):
            raise ConfigError(f"'flow' must be an object, got {type(self.flow).__name__}")
        if self.methods is not None:
            if not isinstance(self.methods, (list, tuple)):
                raise ConfigError(f"'methods' must be a list, got {type(self.methods).__name__}")
            methods = tuple(self.methods)
            for m in methods:
                if m not in FLOW_METHODS:
                    raise ConfigError(f"unknown method: {m!r} (expected one of {FLOW_METHODS})")
            if len(set(methods)) != len(methods):
                raise ConfigError("methods must not repeat")
            object.__setattr__(self, "methods", methods)
        for name in ("manifold", "kernels", "dataset"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, dict):
                raise ConfigError(f"{name!r} must be an object, got {type(value).__name__}")
            object.__setattr__(self, name, copy.deepcopy(value))
        for key, override in (self.kernels or {}).items():
            if key not in DRIFT_KERNEL_KINDS:
                raise ConfigError(f"{key!r} takes no kernel (only {list(DRIFT_KERNEL_KINDS)} do)")
            if not isinstance(override, dict):
                raise ConfigError(
                    f"kernel override for {key} must be an object, got {type(override).__name__}"
                )
        self.dataset_fields()

    def dataset_fields(self) -> dict:
        """``dataset`` merged over the scenario's defaults (see ``take_fields``)."""
        return take_fields(self.dataset, DATASET_DEFAULTS[self.scenario], "dataset")

    @staticmethod
    def from_dict(data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigError("run config must be a JSON object")
        unknown = set(data) - {f.name for f in fields(RunConfig)}
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        if "scenario" not in data:
            raise ConfigError("config is missing the 'scenario' field")
        return RunConfig(**data)

    @staticmethod
    def from_json(path) -> "RunConfig":
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return RunConfig.from_dict(data)

    def to_dict(self) -> dict:
        data = asdict(self)  # new containers all through
        data["methods"] = None if self.methods is None else list(self.methods)
        return data

    def replace(self, **changes) -> "RunConfig":
        merged = self.to_dict()
        merged.update(changes)
        return RunConfig.from_dict(merged)
