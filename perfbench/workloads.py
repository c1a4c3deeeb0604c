"""Workload configs and output checks of the scenario benchmark.

Each workload is one ``kingflow run`` config.  The benchmark seed becomes the
config ``seed``, from which the scenario draws every dataset, so the same seed
gives the same inputs.  Why each workload exists is recorded in
``BENCHMARK.json`` and in ``README.md`` next to this file.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCES = Path(__file__).with_name("references.json")

WORKLOADS = {
    "bimodal_n250": {
        "scenario": "bimodal_compare",
        "dataset": {"n_targets": 250, "n_particles": 250},
    },
    "ggm_ntking": {
        "scenario": "graphical_model",
        "dataset": {"long_iterations": 900},
    },
    "ngd_track_n800": {
        "scenario": "ngd_tracking",
        "dataset": {"n_particles": 800, "n_targets": 1000},
    },
}

# The same scenarios at a size that runs in well under a second.  The
# benchmark uses them to warm imports and caches, and ``--smoke`` runs them
# in place of the full workloads.
TINY = {
    "bimodal_n250": {
        "scenario": "bimodal_compare",
        "flow": {"step": 1.0, "iterations": 3, "ridge": 1e-2},
        "dataset": {"n_targets": 20, "n_particles": 20, "n_eval": 20},
    },
    "ggm_ntking": {
        "scenario": "graphical_model",
        "dataset": {
            "n_targets": 30, "n_particles": 30,
            "informed_iterations": 2, "plain_iterations": 2, "long_iterations": 3,
        },
    },
    "ngd_track_n800": {
        "scenario": "ngd_tracking",
        "flow": {"step": 0.25, "iterations": 4, "ridge": 1e-4},
        "dataset": {"n_particles": 30, "n_targets": 40, "mc_samples": 256, "checkpoints": 2},
    },
}


def config(workload: str, seed: int, tiny: bool = False) -> dict:
    return {**(TINY if tiny else WORKLOADS)[workload], "seed": seed}


def checked_values(workload: str, summary: dict) -> dict:
    """The summary values compared against the stored references."""
    if workload == "bimodal_n250":
        return {f"{m}.final_mmd": v["final_mmd"] for m, v in summary["methods"].items()}
    if workload == "ggm_ntking":
        values = {}
        for label, v in summary["variants"].items():
            values[f"{label}.recovered"] = v["recovered"]
            values[f"{label}.recall"] = v["recall"]
        return values
    return {
        "max_w2_gap": summary["max_w2_gap"],
        "final_w2_particles_to_target": summary["final_w2_particles_to_target"],
        "final_w2_exact_to_target": summary["final_w2_exact_to_target"],
    }


def _properties(workload: str, summary: dict) -> list[str]:
    """Checks that hold on every seed, for seeds without a stored reference."""
    problems = []
    if workload == "bimodal_n250":
        for method in ("king", "ntking"):
            v = summary["methods"][method]
            if not v["final_mmd"] < v["initial_mmd"]:
                problems.append(f"{method} did not lower the MMD")
    elif workload == "ggm_ntking":
        for label, v in summary["variants"].items():
            if not 0 <= v["recovered"] <= v["true_edges"]:
                problems.append(f"{label} recovered {v['recovered']} of {v['true_edges']} edges")
        if summary["variants"]["informed"]["recall"] < 0.5:
            problems.append("informed features recovered under half of the graph")
    else:
        for name in ("final_w2_particles_to_target", "final_w2_exact_to_target"):
            if not summary[name] < 0.25:
                problems.append(f"{name} = {summary[name]} is not below 0.25")
        last_gap = summary["checkpoints"][-1]["w2_gap"]
        if not 0 <= last_gap <= summary["max_w2_gap"]:
            problems.append(f"last W2 gap {last_gap} is not in [0, max_w2_gap {summary['max_w2_gap']}]")
    return problems


def check(workload: str, seed: int, summary: dict, tiny: bool = False) -> list[str]:
    """Problems with a run's summary; an empty list means the output is correct.

    Every value must be finite.  Full-size runs must also pass the
    per-workload properties and, when ``references.json`` holds this seed,
    match the stored values within their tolerances.
    """
    values = checked_values(workload, summary)
    problems = [f"{k} is not finite: {v}" for k, v in values.items() if not math.isfinite(v)]
    if tiny or problems:
        return problems
    problems += _properties(workload, summary)
    refs = json.loads(REFERENCES.read_text())
    expected = refs["values"][workload].get(str(seed))
    if expected is not None:
        for name, tol in refs["tolerances"][workload].items():
            want, got = expected[name], values[name]
            if abs(got - want) > tol * abs(want):
                problems.append(f"{name} = {got!r}, reference {want!r} (rel tol {tol:g})")
    return problems
