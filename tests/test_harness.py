"""Run configs, scenario execution and outputs, and the command-line interface."""
import inspect
import json
import os
import platform
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kingflow
from kingflow import ConfigError, FlowConfig, GaussianQuadraticMap, ParticleSet, run_flow
from kingflow.errors import SingularFisherError, SolverError
from kingflow.flows import DRIFT_KERNEL_KINDS, FLOW_METHODS
from kingflow.harness import scenarios
from kingflow.harness.cli import main
from kingflow.harness.config import DATASET_DEFAULTS, SCENARIOS, RunConfig, take_fields
from kingflow.harness.scenarios import execute_scenario

SMALL_BIMODAL = {
    "scenario": "bimodal_compare",
    "methods": ["king", "wgf"],
    "flow": {"step": 0.5, "iterations": 5, "log_every": 5},
    "dataset": {"dim": 2, "n_targets": 30, "n_particles": 30, "n_eval": 30},
}


# -- configuration ------------------------------------------------------------------

def test_take_fields_merges_over_defaults():
    merged = take_fields({"a": 2}, {"a": 1, "b": 3}, "dataset")
    assert merged == {"a": 2, "b": 3}
    with pytest.raises(ConfigError):
        take_fields({"c": 1}, {"a": 1}, "dataset")
    with pytest.raises(ConfigError):
        take_fields([1, 2], {"a": 1}, "dataset")


def test_take_fields_checks_each_value_against_its_default_type():
    defaults = {"n": 1, "x": 1.0, "on": True, "name": "a", "sub": {}, "any": None}
    merged = take_fields({"x": 2, "any": "free"}, defaults, "dataset")
    assert merged["x"] == 2.0 and isinstance(merged["x"], float)
    assert merged["any"] == "free"
    for key, value in (
        ("n", True), ("n", 2.0), ("n", "2"),
        ("x", False), ("x", "2.0"), ("x", float("nan")), ("x", float("inf")),
        ("any", float("-inf")),
        ("on", "false"), ("on", 1),
        ("name", 3), ("sub", [1]),
    ):
        with pytest.raises(ConfigError):
            take_fields({key: value}, defaults, "dataset")


def test_run_config_defaults():
    cfg = RunConfig.from_dict({"scenario": "bimodal_compare"})
    assert cfg.scenario == "bimodal_compare"
    assert cfg.seed == 0
    assert cfg.methods is None
    assert cfg.flow is None
    assert cfg.dataset == {}
    assert cfg.out_dir is None


def test_run_config_round_trips_losslessly():
    data = {
        "scenario": "manifold_guidance",
        "seed": 3,
        "methods": ["king", "ntking"],
        "flow": {
            "step": 0.5,
            "iterations": 20,
            "ridge": 1e-2,
            "log_every": 5,
            "freeze_bandwidth": True,
        },
        "manifold": {"kind": "gaussian_quadratic"},
        "kernels": {"king": {"kind": "rbf_scalar", "bandwidth": 1.5}},
        "dataset": {"offset": 1.5},
        "out_dir": "runs/demo",
    }
    cfg = RunConfig.from_dict(data)
    assert isinstance(cfg.flow, FlowConfig)
    assert cfg.to_dict() == data
    assert RunConfig.from_dict(cfg.to_dict()).to_dict() == data


positive = st.floats(min_value=1e-6, max_value=1e3, allow_nan=False)
flow_configs = st.builds(
    FlowConfig,
    step=positive,
    iterations=st.integers(1, 10_000),
    ridge=positive,
    log_every=st.integers(1, 100),
    freeze_bandwidth=st.booleans(),
)
kernel_overrides = st.fixed_dictionaries(
    {"kind": st.sampled_from(["rbf_scalar", "diagonalized_scalar", "empirical_ntk"])},
    optional={"bandwidth": positive},
)


@settings(max_examples=100, deadline=None, database=None)
@given(
    scenario=st.sampled_from(SCENARIOS),
    seed=st.integers(0, 2**32 - 1),
    methods=st.none() | st.lists(st.sampled_from(FLOW_METHODS), unique=True).map(tuple),
    flow=st.none() | flow_configs,
    kernels=st.none() | st.dictionaries(st.sampled_from(["king", "ntking"]), kernel_overrides),
)
def test_run_config_round_trips_through_to_dict(scenario, seed, methods, flow, kernels):
    cfg = RunConfig(scenario=scenario, seed=seed, methods=methods, flow=flow, kernels=kernels)
    assert RunConfig.from_dict(cfg.to_dict()) == cfg


def test_run_config_coerces_flow_dicts_in_the_constructor():
    cfg = RunConfig(scenario="bimodal_compare", flow={"step": 1.0, "iterations": 5})
    assert isinstance(cfg.flow, FlowConfig)
    assert cfg.flow.iterations == 5


@pytest.mark.parametrize(
    "data",
    [
        {"scenario": "warp_drive"},
        {"scenario": "bimodal_compare", "extra": 1},
        {"scenario": "bimodal_compare", "seed": "zero"},
        {"scenario": "bimodal_compare", "seed": True},
        {"scenario": "bimodal_compare", "methods": ["king", "svgd"]},
        {"scenario": "bimodal_compare", "methods": ["king", "king"]},
        {"scenario": "bimodal_compare", "flow": {"step": 1.0}},
        {"scenario": "bimodal_compare", "flow": {"step": 1.0, "iterations": 5, "mass": 2}},
        {"scenario": "bimodal_compare", "flow": {"step": 0.0, "iterations": 5}},
        {"scenario": "bimodal_compare", "flow": [1.0, 5]},
        {"scenario": "bimodal_compare", "kernels": {"svgd": {}}},
        {"scenario": "bimodal_compare", "kernels": {"king": 5}},
        {"scenario": "bimodal_compare", "kernels": {"king": None}},
        {"scenario": "bimodal_compare", "kernels": ["king"]},
        {"scenario": "bimodal_compare", "manifold": 5},
        {"scenario": "bimodal_compare", "manifold": ["gaussian_quadratic"]},
        {"scenario": "bimodal_compare", "methods": "king"},
        {"scenario": "bimodal_compare", "methods": {"king": 1}},
        {"scenario": "bimodal_compare", "dataset": [1]},
        {},
        {"scenario": "bimodal_compare", "flow": {"step": float("nan"), "iterations": 5}},
        {"scenario": "bimodal_compare", "flow": {"step": 1.0, "iterations": 2.5}},
        {"scenario": "bimodal_compare", "flow": {"step": 1.0, "iterations": 5, "log_every": True}},
        {
            "scenario": "bimodal_compare",
            "flow": {"step": 1.0, "iterations": 5, "freeze_bandwidth": "false"},
        },
        {"scenario": "bimodal_compare", "methods": ["wgf"], "kernels": {"wgf": {"kind": "nope"}}},
        {"scenario": "bimodal_compare", "kernels": {"mmd_flow": {"kind": "rbf_scalar"}}},
    ],
)
def test_run_config_rejects_malformed_input(data):
    with pytest.raises(ConfigError):
        RunConfig.from_dict(data)


def test_run_config_constructor_rejects_a_non_object_flow():
    with pytest.raises(ConfigError):
        RunConfig(scenario="bimodal_compare", flow=[1.0, 5])


@pytest.mark.parametrize("seed", [None, 2.5, True])
def test_run_config_constructor_rejects_a_seed_that_is_not_an_integer(seed):
    # An unseeded run would draw from OS entropy and could not be reproduced.
    with pytest.raises(ConfigError, match="seed"):
        RunConfig(scenario="bimodal_compare", seed=seed)


def test_run_config_rejects_a_negative_seed(tmp_path, capsys, run_flow_calls):
    # SeedSequence would reject it later, in a message that names no field.
    with pytest.raises(ConfigError, match="seed"):
        RunConfig(scenario="ngd_tracking", seed=-1)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "ngd_tracking"}))
    assert main(["run", "--config", str(cfg), "--seed", "-1"]) == 2
    report = json.loads(capsys.readouterr().err)
    assert report["error"] == "ConfigError" and "seed" in report["message"]
    assert run_flow_calls == []


@pytest.mark.parametrize("changes", [{"dataset": [1]}, {"out_dir": 5}, {"out_dir": b"runs"}])
def test_run_config_constructor_checks_dataset_and_out_dir(changes):
    with pytest.raises(ConfigError):
        RunConfig(scenario="bimodal_compare", **changes)


def test_run_config_replace_overrides_fields():
    cfg = RunConfig.from_dict(SMALL_BIMODAL)
    replaced = cfg.replace(seed=9, out_dir="elsewhere")
    assert replaced.seed == 9
    assert replaced.out_dir == "elsewhere"
    assert replaced.scenario == cfg.scenario
    assert cfg.seed == 0


def test_run_config_shares_no_dict_with_its_caller():
    data = {
        "scenario": "bimodal_compare",
        "dataset": {"dim": 2},
        "manifold": {"kind": "rbf_recipe", "bandwidth_scale": 2.0},
        "kernels": {"king": {"kind": "rbf_scalar", "bandwidth": 1.0}},
    }
    cfg = RunConfig.from_dict(data)
    before = json.dumps(cfg.to_dict())
    data["dataset"]["dim"] = 7
    data["manifold"]["bandwidth_scale"] = 9.0
    data["kernels"]["king"]["bandwidth"] = 9.0
    out = cfg.to_dict()
    out["dataset"]["dim"] = 7
    out["manifold"]["kind"] = "gaussian_quadratic"
    out["kernels"]["king"]["bandwidth"] = 9.0
    copy = cfg.replace(seed=3)
    copy.kernels["king"]["bandwidth"] = 9.0
    copy.dataset["dim"] = 7
    assert json.dumps(cfg.to_dict()) == before


def test_run_config_from_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(SMALL_BIMODAL))
    cfg = RunConfig.from_json(path)
    assert cfg.methods == ("king", "wgf")
    with pytest.raises(ConfigError):
        RunConfig.from_json(tmp_path / "missing.json")
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    with pytest.raises(ConfigError):
        RunConfig.from_json(broken)


def test_scenario_registry_is_complete():
    assert set(SCENARIOS) == {
        "bimodal_compare",
        "manifold_guidance",
        "ngd_tracking",
        "graphical_model",
        "covariate_shift_rotation",
        "stein_sampling",
    }
    assert SCENARIOS == tuple(DATASET_DEFAULTS) == tuple(scenarios._SCENARIO_FNS)
    for defaults in DATASET_DEFAULTS.values():
        # Each default passes its own type rule and survives a JSON round trip.
        assert take_fields(defaults, defaults, "dataset") == defaults
        assert json.loads(json.dumps(defaults)) == defaults


# -- scenario execution ----------------------------------------------------------------

def test_unknown_dataset_fields_are_rejected():
    for dataset in ({"n_target": 10}, {"bogus": 1}):
        with pytest.raises(ConfigError, match="unknown dataset fields"):
            RunConfig(scenario="bimodal_compare", dataset=dataset)
        with pytest.raises(ConfigError, match="unknown dataset fields"):
            RunConfig.from_dict({"scenario": "bimodal_compare", "dataset": dataset})


@pytest.mark.parametrize(
    "data",
    [
        {"scenario": "graphical_model", "dataset": {"include_long": "false"}},
        {"scenario": "graphical_model", "dataset": {"plain_iterations": 2.7}},
        {"scenario": "bimodal_compare", "dataset": {"n_targets": 30.9}},
        {
            "scenario": "bimodal_compare",
            "methods": ["king"],
            "manifold": {"kind": "rbf_recipe", "n_centers": "50"},
        },
    ],
)
def test_dataset_fields_must_match_their_default_types(data):
    if "dataset" in data:  # checked when the config is built
        with pytest.raises(ConfigError):
            RunConfig.from_dict(data)
    else:  # an rbf_recipe's fields are checked when the scenario builds the map
        cfg = RunConfig.from_dict(data)
        with pytest.raises(ConfigError):
            execute_scenario(cfg)


@pytest.fixture
def run_flow_calls(monkeypatch):
    """The arguments of every ``run_flow`` call the scenarios make, in order."""
    calls = []

    def counting_run_flow(*args, **kwargs):
        calls.append(args)
        return run_flow(*args, **kwargs)

    monkeypatch.setattr(scenarios, "run_flow", counting_run_flow)
    return calls


# A bad kernel override of a later method must fail before the first method runs.
BAD_KERNEL_OVERRIDES = {"bimodal_compare": {"ntking": {"kind": "nope"}}}


@pytest.mark.parametrize(
    "scenario, methods",
    [
        ("manifold_guidance", ("king", "wgf")),
        ("ngd_tracking", ("wgf",)),
        ("graphical_model", ("ntking", "king")),
        ("covariate_shift_rotation", ("king", "wgf")),
        ("stein_sampling", ("king", "mmd_flow")),
        ("bimodal_compare", ("king", "ntking")),
    ],
)
def test_methods_are_checked_before_any_flow_runs(run_flow_calls, scenario, methods):
    cfg = RunConfig(scenario=scenario, methods=methods, kernels=BAD_KERNEL_OVERRIDES.get(scenario))
    with pytest.raises(ConfigError):
        execute_scenario(cfg)
    assert run_flow_calls == []


# JSON's NaN and Infinity, which Python's reader accepts, in each kind of number field.
NON_FINITE_CONFIGS = [
    {"scenario": "graphical_model", "dataset": {"threshold": float("nan")}},
    {"scenario": "bimodal_compare", "dataset": {"offset": float("inf")}},
    {
        "scenario": "manifold_guidance",
        "manifold": {"kind": "rbf_features", "centers": [[float("nan")]], "bandwidth": 1.0},
    },
    {
        "scenario": "stein_sampling",
        "dataset": {"score": {"kind": "gaussian", "mean": [float("nan")], "variances": [1.0]}},
    },
]

# Configs that no flow could run as written: a kernel kind its method does not
# take, a manifold that no flow reads, because the scenario fixes its map or
# runs no drift method, and a precision threshold that is not positive.
UNRUNNABLE_CONFIGS = [
    {
        "scenario": "bimodal_compare",
        "methods": ["king", "ntking"],
        "kernels": {"ntking": {"kind": "rbf_scalar"}},
    },
    {
        "scenario": "bimodal_compare",
        "methods": ["ntking", "king"],
        "kernels": {"king": {"kind": "empirical_ntk"}},
    },
    {"scenario": "ngd_tracking", "manifold": {"kind": "gaussian_quadratic"}},
    {"scenario": "stein_sampling", "manifold": {"kind": "gaussian_quadratic"}},
    {"scenario": "bimodal_compare", "methods": ["wgf"], "manifold": {"kind": "gaussian_quadratic"}},
    {
        "scenario": "covariate_shift_rotation",
        "methods": ["mmd_flow"],
        "manifold": {"kind": "rbf_recipe"},
    },
    {"scenario": "ngd_tracking", "kernels": {"ntking": {"kind": "diagonalized_scalar"}}},
    {
        "scenario": "bimodal_compare",
        "methods": ["wgf"],
        "kernels": {"king": {"kind": "rbf_scalar", "bandwidth": 1.0}},
    },
    {"scenario": "graphical_model", "dataset": {"threshold": 0.0}},
    {"scenario": "graphical_model", "dataset": {"threshold": -1.0}},
]


@pytest.mark.parametrize("data", UNRUNNABLE_CONFIGS)
def test_kernel_kinds_and_unread_manifolds_fail_before_any_flow_runs(run_flow_calls, data):
    with pytest.raises(ConfigError):
        execute_scenario(RunConfig.from_dict(data))
    assert run_flow_calls == []


def test_drift_methods_default_to_their_first_kernel_kind(run_flow_calls):
    execute_scenario(RunConfig.from_dict({**SMALL_BIMODAL, "methods": ["king", "ntking"]}))
    kinds = {args[0]: args[2].kind for args in run_flow_calls}
    assert kinds == {method: DRIFT_KERNEL_KINDS[method][0] for method in ("king", "ntking")}


BAD_RECIPE = {"kind": "rbf_recipe", "bandwidth": float("inf")}


@pytest.mark.parametrize(
    "scenario, methods",
    [("manifold_guidance", ("king",)), ("bimodal_compare", ("wgf", "king"))],
)
def test_bad_rbf_recipe_fields_fail_before_any_flow_runs(run_flow_calls, scenario, methods):
    cfg = RunConfig(scenario=scenario, methods=methods, manifold=BAD_RECIPE)
    with pytest.raises(ConfigError, match="bad manifold config"):
        execute_scenario(cfg)
    assert run_flow_calls == []


def _king_kernel(**fields):
    return {"scenario": "bimodal_compare", "kernels": {"king": {"kind": "rbf_scalar", **fields}}}


def _ntk_kernel(**fields):
    return {
        "scenario": "bimodal_compare",
        "methods": ["ntking"],
        "kernels": {"ntking": {"kind": "empirical_ntk", **fields}},
    }


# Configs whose fields the library objects must check: a wrong type, an
# unknown or misspelt field, or a dimension other than the data's.
CHECKED_FIELD_CONFIGS = [
    {
        "scenario": "manifold_guidance",
        "manifold": {"kind": "rbf_features", "centers": [[0.0]], "bandwidth": [1]},
    },
    {"scenario": "manifold_guidance", "manifold": {"kind": "rbf_recipe", "bandwidth": [1]}},
    {"scenario": "manifold_guidance", "manifold": {"kind": "rbf_recipe", "bandwidth": True}},
    _king_kernel(bandwitdh=1.0),
    _king_kernel(bandwidth=True),
    _king_kernel(bandwidth="2"),
    _ntk_kernel(hidden_width=2.7),
    _ntk_kernel(hidden_width="8"),
    _ntk_kernel(bandwidth=1.0),
    _ntk_kernel(input_dim=3),
    {
        "scenario": "stein_sampling",
        "dataset": {"score": {"kind": "gaussian", "mean": [0.0], "variances": [1.0], "bogus": 1}},
    },
    {
        "scenario": "stein_sampling",
        "dataset": {"base": {"kind": "gaussian_quadratic", "input_dim": 1, "bogus": 1}},
    },
    {
        "scenario": "stein_sampling",
        "dataset": {"base": {"kind": "gaussian_quadratic", "input_dim": 2}},
    },
    {
        "scenario": "manifold_guidance",
        "manifold": {"kind": "gaussian_quadratic", "input_dim": 7, "bogus": 1},
    },
    {"scenario": "manifold_guidance", "manifold": {"kind": "gaussian_quadratic", "input_dim": 7}},
    {"scenario": "manifold_guidance", "manifold": {"kind": "gaussian_quadratic", "input_dim": 2.7}},
    {
        "scenario": "bimodal_compare",
        "methods": ["wgf", "king"],
        "manifold": {"kind": "custom_linear", "weight": [[1.0, 0.0]]},
    },
    {
        "scenario": "manifold_guidance",
        "manifold": {"kind": "stein", "base": [1], "score": {"kind": "gaussian", "mean": [0.0]}},
    },
    {
        "scenario": "manifold_guidance",
        "manifold": {
            "kind": "stein", "base": {"kind": "gaussian_quadratic", "input_dim": 1}, "score": 5,
        },
    },
    {"scenario": "bimodal_compare", "flow": {"step": True, "iterations": 2}},
    {"scenario": "bimodal_compare", "flow": {"step": 0.5, "iterations": 2, "ridge": False}},
]


@pytest.mark.parametrize("data", CHECKED_FIELD_CONFIGS)
def test_config_fields_are_checked_before_any_flow_runs(run_flow_calls, data):
    with pytest.raises(ConfigError):
        execute_scenario(RunConfig.from_dict(data))
    assert run_flow_calls == []


def test_input_dim_may_be_given_when_it_matches_the_data(run_flow_calls):
    cfg = RunConfig(
        scenario="manifold_guidance",
        manifold={"kind": "gaussian_quadratic", "input_dim": 1},
        flow={"step": 0.5, "iterations": 1},
    )
    execute_scenario(cfg)
    (call,) = run_flow_calls
    assert call[1] == GaussianQuadraticMap(input_dim=1)


def test_scenarios_share_one_run_path():
    # Every scenario runs its flows through one call site, and run_flow
    # reports to one observer callback.
    source = Path(scenarios.__file__).read_text()
    assert source.count("run_flow(") == 1
    assert "extra_metrics" not in inspect.signature(run_flow).parameters


def test_manifold_guidance_rejects_non_drift_methods():
    cfg = RunConfig(scenario="manifold_guidance", methods=("wgf",))
    with pytest.raises(ConfigError):
        execute_scenario(cfg)


def test_stein_sampling_rejects_non_drift_methods():
    cfg = RunConfig(scenario="stein_sampling", methods=("mmd_flow",))
    with pytest.raises(ConfigError):
        execute_scenario(cfg)


def test_stein_sampling_rejects_mismatched_score_dimension():
    cfg = RunConfig(scenario="stein_sampling", dataset={"dim": 2})
    with pytest.raises(ConfigError):
        execute_scenario(cfg)


def per_element_particles_csv(path, log):
    """The particles CSV with each value formatted from its own numpy scalar."""
    import csv

    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        dim = log.snapshots[0][2].dim
        writer.writerow(["iteration", "t"] + [f"x{k}" for k in range(dim)] + ["index"])
        for iteration, t, particles in log.snapshots:
            for idx, row in enumerate(particles.points):
                writer.writerow([iteration, repr(float(t))] + [repr(float(v)) for v in row] + [idx])


EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1e-300, 1e16, -1e16, 0.1, 1.0 / 3.0, 2.0**53 + 2, 1e308]


def test_particles_csv_is_byte_identical_to_per_element_formatting(tmp_path, rng):
    log = scenarios.RunLog("run")
    points = np.array(EDGE_VALUES).reshape(-1, 1) * np.ones((1, 3))
    log.observer(0, 0.0, ParticleSet(points), {})
    log.observer(7, 1.75, ParticleSet(rng.standard_normal((4, 3)) * 1e-7), {})
    log.observer(9, 2.25, ParticleSet(rng.permutation(points.ravel()).reshape(-1, 3)), {})
    scenarios._write_particles_csv(tmp_path / "new.csv", log)
    per_element_particles_csv(tmp_path / "old.csv", log)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    assert "-0.0" in (tmp_path / "new.csv").read_text()


def test_default_bimodal_run_writes_complete_outputs(tmp_path):
    out = tmp_path / "runs"
    cfg = RunConfig(scenario="bimodal_compare", out_dir=str(out))
    outcome = execute_scenario(cfg)

    per_method = outcome.summary["methods"]
    assert set(per_method) == {"king", "ntking", "wgf", "mmd_flow"}
    for stats in per_method.values():
        assert stats["final_mmd"] < stats["initial_mmd"]
        assert stats["ratio"] < 1.0
    for guided in ("king", "ntking"):
        for baseline in ("wgf", "mmd_flow"):
            assert per_method[guided]["final_mmd"] < per_method[baseline]["final_mmd"]

    record = json.loads((out / "run.json").read_text())
    assert set(record) == {
        "config", "summary", "package_version", "numpy_version", "wall_clock_seconds", "process",
    }
    assert set(record["process"]) == {"minor_page_faults", "heap_retained"}
    assert record["process"]["minor_page_faults"] >= 0
    assert isinstance(record["process"]["heap_retained"], bool)
    assert record["config"]["scenario"] == "bimodal_compare"
    assert record["config"]["seed"] == 0
    assert record["summary"] == json.loads(json.dumps(outcome.summary))
    assert record["wall_clock_seconds"] > 0.0

    for method in per_method:
        particles = (out / method / "particles.csv").read_text()
        lines = particles.strip().splitlines()
        assert lines[0] == "iteration,t,x0,x1,x2,x3,x4,index"
        assert len(lines) == 1 + 11 * 100  # header + snapshots every 10 of 100 iterations
        metrics = (out / method / "metrics.csv").read_text()
        metric_lines = metrics.strip().splitlines()
        assert metric_lines[0] == "iteration,t,mmd,drift_norm"
        assert len(metric_lines) == 1 + 11
        assert metric_lines[1].split(",")[3] == ""  # no drift before the first step
        for text in (particles, metrics):
            lowered = text.lower()
            assert "nan" not in lowered and "inf" not in lowered


def test_scenario_outputs_are_reproducible(tmp_path):
    outputs = []
    for label in ("first", "second"):
        out = tmp_path / label
        cfg = RunConfig.from_dict({**SMALL_BIMODAL, "out_dir": str(out)})
        outcome = execute_scenario(cfg)
        files = {}
        for method in ("king", "wgf"):
            for name in ("particles.csv", "metrics.csv"):
                files[f"{method}/{name}"] = (out / method / name).read_bytes()
        outputs.append((outcome.summary, files))
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]


def test_scenario_outcome_reports_the_resolved_config():
    cfg = RunConfig.from_dict(SMALL_BIMODAL)
    outcome = execute_scenario(cfg)
    assert outcome.config == cfg.to_dict()
    assert tuple(log.label for log in outcome.logs) == ("king", "wgf")
    json.dumps(outcome.summary)  # summary must be JSON-safe


def test_seed_changes_the_generated_data():
    base = RunConfig.from_dict(SMALL_BIMODAL)
    first = execute_scenario(base).summary["methods"]["wgf"]["final_mmd"]
    second = execute_scenario(base.replace(seed=1)).summary["methods"]["wgf"]["final_mmd"]
    assert first != second


# -- command line ------------------------------------------------------------------------

def test_cli_gen_mixture_writes_a_csv(tmp_path, capsys):
    out = tmp_path / "mix.csv"
    assert main(["gen", "mixture", "--dim", "2", "--n", "50", "--out", str(out)]) == 0
    assert "wrote 50 samples of dimension 2" in capsys.readouterr().out
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x0,x1"
    assert len(lines) == 51


def test_cli_gen_scurve_and_ggm(tmp_path):
    scurve = tmp_path / "scurve.csv"
    assert main(["gen", "scurve", "--n", "40", "--out", str(scurve)]) == 0
    assert len(scurve.read_text().strip().splitlines()) == 41
    ggm = tmp_path / "ggm.csv"
    assert main(
        ["gen", "ggm", "--dim", "6", "--n", "30", "--edge-prob", "0.3", "--out", str(ggm)]
    ) == 0
    header = ggm.read_text().splitlines()[0]
    assert header == ",".join(f"x{k}" for k in range(6))


def test_cli_eval_mmd(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    main(["gen", "mixture", "--n", "60", "--seed", "1", "--out", str(a)])
    main(["gen", "mixture", "--n", "60", "--seed", "2", "--means", "5.0", "--out", str(b)])
    capsys.readouterr()

    assert main(["eval-mmd", str(a), str(a)]) == 0
    self_report = json.loads(capsys.readouterr().out)
    assert self_report["mmd"] == 0.0

    assert main(["eval-mmd", str(a), str(b), "--bandwidth", "1.0"]) == 0
    cross_report = json.loads(capsys.readouterr().out)
    assert cross_report["mmd"] > 0.1
    assert cross_report["bandwidth"] == 1.0


def test_cli_eval_mmd_error_paths(tmp_path, capsys):
    a = tmp_path / "a.csv"
    main(["gen", "mixture", "--n", "10", "--out", str(a)])
    capsys.readouterr()
    assert main(["eval-mmd", str(a), str(tmp_path / "nope.csv")]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
    for bandwidth in ("-1.0", "nan", "inf"):
        assert main(["eval-mmd", str(a), str(a), "--bandwidth", bandwidth]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "ConfigError"


def test_cli_eval_mmd_reports_samples_of_two_dimensions_as_a_config_error(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["gen", "mixture", "--dim", "2", "--n", "10", "--out", str(a)])
    main(["gen", "mixture", "--dim", "3", "--n", "10", "--out", str(b)])
    capsys.readouterr()
    assert main(["eval-mmd", str(a), str(b)]) == 2
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "ConfigError" and "dimension mismatch" in error["message"]


@pytest.mark.parametrize(
    "text",
    [
        "x0,x1\n1,2,3,4\n5,6,7,8\n",
        "x0,x1,x2\n1,2\n3,4\n5,6\n",
        "x0,x1\n1,2,3\n",
        "x0,x1,x2\n1,2\n",
    ],
    ids=["wider", "narrower", "wider-one-row", "narrower-one-row"],
)
def test_cli_eval_mmd_rejects_rows_not_as_wide_as_the_header(tmp_path, capsys, text):
    a, bad = tmp_path / "a.csv", tmp_path / "bad.csv"
    main(["gen", "mixture", "--dim", "2", "--n", "10", "--out", str(a)])
    bad.write_text(text)
    capsys.readouterr()
    for args in ([str(bad), str(a)], [str(a), str(bad)]):
        assert main(["eval-mmd", *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "ConfigError"


@pytest.mark.parametrize("text", ["x0,x1\n", "x0,x1\n\n# no rows\n"], ids=["header", "comment"])
def test_cli_eval_mmd_reports_a_file_without_rows_in_one_line(tmp_path, capsys, text):
    empty = tmp_path / "empty.csv"
    empty.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["eval-mmd", str(empty), str(empty)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert "contains no samples" in json.loads(line)["message"]


def test_cli_eval_mmd_reads_single_row_and_single_column_files(tmp_path, capsys):
    row, column = tmp_path / "row.csv", tmp_path / "column.csv"
    row.write_text("x0,x1,x2\n1,2,3\n")
    column.write_text("x0\n1\n2\n3\n")
    assert main(["eval-mmd", str(row), str(row), "--bandwidth", "1.0"]) == 0
    assert main(["eval-mmd", str(column), str(column)]) == 0
    assert [json.loads(line)["mmd"] for line in capsys.readouterr().out.splitlines()] == [0.0, 0.0]


def test_cli_run_executes_a_config(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {
                "scenario": "bimodal_compare",
                "methods": ["mmd_flow"],
                "flow": {"step": 0.5, "iterations": 3, "log_every": 3},
                "dataset": {"dim": 2, "n_targets": 20, "n_particles": 20, "n_eval": 20},
            }
        )
    )
    out = tmp_path / "results"
    assert main(["run", "--config", str(cfg_path), "--seed", "7", "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert "mmd_flow" in summary["methods"]
    record = json.loads((out / "run.json").read_text())
    assert record["config"]["seed"] == 7
    assert record["config"]["out_dir"] == str(out)


def test_cli_run_reports_config_errors(tmp_path, capsys, run_flow_calls):
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"scenario": "bimodal_compare", "mystery": 1}))
    assert main(["run", "--config", str(bad)]) == 2
    assert "mystery" in json.loads(capsys.readouterr().err)["message"]
    bad.write_text(json.dumps({"scenario": "bimodal_compare", "kernels": {"wgf": {"kind": "nope"}}}))
    assert main(["run", "--config", str(bad)]) == 2
    assert "wgf" in json.loads(capsys.readouterr().err)["message"]
    bad.write_text(
        json.dumps({"scenario": "bimodal_compare", "flow": {"step": float("nan"), "iterations": 5}})
    )
    assert main(["run", "--config", str(bad)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
    bad.write_text(
        json.dumps(
            {
                "scenario": "stein_sampling",
                "dataset": {"base": {"kind": "rbf_features", "bandwidth": 1.0}},
            }
        )
    )
    assert main(["run", "--config", str(bad)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
    # single-method scenarios reject methods they would otherwise drop
    for scenario, methods in (
        ("covariate_shift_rotation", ["king", "ntking"]),
        ("graphical_model", ["king", "ntking"]),
        ("graphical_model", ["wgf"]),
        ("graphical_model", ["mmd_flow"]),
        ("stein_sampling", ["ntking", "king"]),
        ("ngd_tracking", ["wgf"]),
        ("ngd_tracking", ["king", "ntking"]),
    ):
        bad.write_text(json.dumps({"scenario": scenario, "methods": methods}))
        assert main(["run", "--config", str(bad)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
    for config in (
        {"scenario": "ngd_tracking", "dataset": {"checkpoints": 0}},
        {"scenario": "graphical_model", "manifold": {"kind": "gaussian_quadratic"}},
        {"scenario": "manifold_guidance", "manifold": BAD_RECIPE},
        {"scenario": "bimodal_compare", "kernels": {"king": 5}},
        {"scenario": "stein_sampling", "dataset": {"score": {"kind": "gaussian", "mean": [0.0]}}},
        {"scenario": "bimodal_compare", "kernels": {"king": {"kind": "rbf_scalar", "bandwidth": [1]}}},
        {
            "scenario": "stein_sampling",
            "dataset": {"score": {"kind": "gaussian_mixture", "means": [[0.0]], "sigma": [1, 2]}},
        },
        *(
            {"scenario": "bimodal_compare", "kernels": {"king": {"kind": "rbf_scalar", "bandwidth": bw}}}
            for bw in (float("inf"), float("nan"))
        ),
        {"scenario": "stein_sampling", "out_dir": 5},
        {"scenario": "stein_sampling", "seed": 2.5},
        {"scenario": "ngd_tracking", "seed": -1},
        {"scenario": "bimodal_compare", "dataset": {"bogus": 1}},
        {"scenario": "bimodal_compare", "dataset": {"n_targets": 30.9}},
        {"scenario": "graphical_model", "dataset": {"include_long": "false"}},
        {"scenario": "graphical_model", "dataset": {"long_iterations": -3}},
        {"scenario": "graphical_model", "dataset": {"plain_iterations": 0}},
        *NON_FINITE_CONFIGS,
        *UNRUNNABLE_CONFIGS,
        *CHECKED_FIELD_CONFIGS,
    ):
        bad.write_text(json.dumps(config))
        assert main(["run", "--config", str(bad)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
    # the Fisher load is a constant, not a flow field
    flow = {"step": 1.0, "iterations": 5, "jitter": 1e-7}
    bad.write_text(json.dumps({"scenario": "bimodal_compare", "flow": flow}))
    assert main(["run", "--config", str(bad)]) == 2
    report = json.loads(capsys.readouterr().err)
    assert report["error"] == "ConfigError" and "jitter" in report["message"]
    assert run_flow_calls == []


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_run_reports_numerical_failures(tmp_path, capsys):
    cfg_path = tmp_path / "diverging.json"
    cfg_path.write_text(
        json.dumps(
            {
                "scenario": "bimodal_compare",
                "methods": ["wgf"],
                "flow": {"step": 1e8, "iterations": 100},
                "dataset": {"dim": 2, "n_targets": 30, "n_particles": 30, "n_eval": 30},
            }
        )
    )
    assert main(["run", "--config", str(cfg_path)]) == 3
    report = json.loads(capsys.readouterr().err)
    assert report["error"] == "DivergenceError"
    assert "iteration" in report["message"]


@pytest.mark.parametrize("error", [SolverError, SingularFisherError])
def test_cli_run_reports_solver_failures(tmp_path, capsys, monkeypatch, error):
    def failing_flow(*args, **kwargs):
        raise error("injected")

    monkeypatch.setattr(scenarios, "run_flow", failing_flow)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(SMALL_BIMODAL))
    assert main(["run", "--config", str(cfg_path)]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == error.__name__


# -- process heap policy -------------------------------------------------------------------

HEAP_PROBE = """
import resource
import numpy as np
from kingflow import FlowConfig, KernelSpec, ParticleSet, rbf_map_from_samples, run_flow
from kingflow.harness.config import RunConfig
from kingflow.harness.scenarios import execute_scenario

execute_scenario(RunConfig.from_dict({
    "scenario": "bimodal_compare", "methods": ["wgf"], "flow": {"step": 0.5, "iterations": 2},
    "dataset": {"dim": 2, "n_targets": 10, "n_particles": 10, "n_eval": 10},
}))
rng = np.random.default_rng(0)
targets = ParticleSet(rng.standard_normal((200, 10)))
init = ParticleSet(rng.standard_normal((200, 10)))
fmap = rbf_map_from_samples(init, n_centers=50, seed=1)
faults = {}

def observer(iteration, *_):
    faults[iteration] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt

run_flow(
    "ntking", fmap, KernelSpec("diagonalized_scalar"), targets, init,
    FlowConfig(step=0.1, iterations=22, log_every=1), observer=observer,
)
print((faults[22] - faults[1]) / 21)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap policy is glibc's")
def test_drift_iterations_stop_faulting_after_a_scenario_call():
    # By default glibc hands the freed heap top back to the OS after every
    # drift iteration, about 830 faults per iteration at this shape.
    src = str(Path(kingflow.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", HEAP_PROBE], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert float(done.stdout) < 10
