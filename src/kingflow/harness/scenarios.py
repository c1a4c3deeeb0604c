"""Desk-scale experiment scenarios behind the CLI.

Each scenario builds its datasets and manifolds from the run seed, executes
one or more flows, and produces a JSON-safe summary plus per-run snapshot and
metric logs.  With an output directory set, every run writes
``particles.csv`` and ``metrics.csv`` into its own subdirectory and the
scenario writes a ``run.json`` with the resolved configuration and summary.
All randomness descends from ``RunConfig.seed``, so outputs are reproducible
byte for byte.
"""
from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

from .. import __version__ as _pkg_version
from ..errors import ConfigError
from ..flows import FLOW_METHODS, KING, NTKING, FlowConfig, run_flow
from ..kernels import DIAGONALIZED_SCALAR, EMPIRICAL_NTK, RBF_SCALAR, KernelSpec
from ..manifold import (
    FeatureMap,
    GaussianQuadraticMap,
    InformedPairwiseMap,
    feature_map_from_config,
    rbf_map_from_samples,
)
from ..metrics import fit_gaussian, gaussian_w2, mmd
from ..ngd import (
    exact_ngd_step,
    gaussian_moment_to_natural,
    gaussian_natural_to_moment,
    sample_gaussian,
)
from ..particles import ParticleSet
from ..stein import SteinFeatureMap, score_from_config
from .config import RunConfig, take_fields
from .datasets import (
    GgmSpec,
    gen_gaussian_mixture,
    gen_ggm_samples,
    precision_support,
    rotate_dataset,
)

_METRIC_COLUMNS = ("mmd", "drift_norm", "residual", "w2_gap", "w2_to_target")


@dataclass
class RunLog:
    """Snapshots and diagnostics collected from one flow run."""

    label: str
    snapshots: list = field(default_factory=list)
    metrics: list = field(default_factory=list)

    def observer(self, iteration: int, t: float, particles: ParticleSet, diagnostics: dict):
        self.snapshots.append((iteration, t, particles))
        self.metrics.append((iteration, t, dict(diagnostics)))


@dataclass(frozen=True)
class ScenarioOutcome:
    """Resolved config, JSON-safe summary, and per-run logs."""

    config: dict
    summary: dict
    logs: tuple[RunLog, ...]


def _child_seeds(seed: int, n: int) -> list[np.random.SeedSequence]:
    return np.random.SeedSequence(seed).spawn(n)


def _default_kernel(method: str) -> KernelSpec:
    if method == KING:
        return KernelSpec(kind=RBF_SCALAR)
    return KernelSpec(kind=DIAGONALIZED_SCALAR)


def _single_method(cfg: RunConfig, allowed: tuple[str, ...]) -> str:
    """The one method of a single-run scenario, ``ntking`` unless set."""
    methods = cfg.methods or (NTKING,)
    if len(methods) != 1 or methods[0] not in allowed:
        raise ConfigError(f"{cfg.scenario} runs one of {', '.join(allowed)}, got {list(methods)}")
    return methods[0]


def _kernel_for(cfg: RunConfig, method: str, dim: int, seed: int) -> KernelSpec:
    override = (cfg.kernels or {}).get(method)
    if override is None:
        return _default_kernel(method)
    spec = dict(override)
    if spec.get("kind") == EMPIRICAL_NTK:
        spec.setdefault("input_dim", dim)
        spec.setdefault("seed", seed)
    try:
        return KernelSpec.from_config(spec)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad kernel config for {method}: {exc}") from exc


def _materialize_manifold(
    manifold_cfg: dict | None,
    init: ParticleSet,
    targets: ParticleSet | None,
    seed,
    default: dict,
) -> FeatureMap:
    cfg = default if manifold_cfg is None else manifold_cfg
    kind = cfg.get("kind")
    if kind == "rbf_recipe":
        recipe = take_fields(
            cfg,
            {"kind": "rbf_recipe", "n_centers": 50, "bandwidth": None, "bandwidth_scale": 1.0},
            "manifold",
        )
        return rbf_map_from_samples(
            init,
            n_centers=int(recipe["n_centers"]),
            bandwidth=recipe["bandwidth"],
            bandwidth_samples=_pool(init, targets),
            bandwidth_scale=float(recipe["bandwidth_scale"]),
            seed=seed,
        )
    if kind == "gaussian_quadratic":
        return GaussianQuadraticMap(input_dim=init.dim)
    try:
        return feature_map_from_config(cfg)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad manifold config: {exc}") from exc


def _pool(a: ParticleSet, b: ParticleSet | None) -> ParticleSet:
    if b is None:
        return a
    return ParticleSet(np.vstack([a.points, b.points]))


def _mmd_metric(eval_targets: ParticleSet):
    def metric(particles: ParticleSet) -> dict:
        return {"mmd": mmd(eval_targets, particles).value}

    return metric


# -- scenario implementations -------------------------------------------------

def _bimodal_compare(cfg: RunConfig) -> tuple[dict, list[RunLog]]:
    ds = take_fields(
        cfg.dataset,
        {
            "dim": 5,
            "n_targets": 100,
            "n_particles": 100,
            "offset": 2.0,
            "n_eval": 200,
        },
        "dataset",
    )
    dim = int(ds["dim"])
    offset = float(ds["offset"])
    seeds = _child_seeds(cfg.seed, 5)
    targets = gen_gaussian_mixture(
        dim, [-offset, offset], [0.5, 0.5], int(ds["n_targets"]), seeds[0]
    )
    init = gen_gaussian_mixture(dim, [0.0], [1.0], int(ds["n_particles"]), seeds[1])
    eval_targets = gen_gaussian_mixture(
        dim, [-offset, offset], [0.5, 0.5], int(ds["n_eval"]), seeds[2]
    )
    # Drift magnitudes at step 1 are only stable on a smoothed manifold and
    # with per-method damping, so the defaults widen the feature bandwidth and
    # calibrate ridge (and the kernel-bandwidth refresh policy) per method.
    default_flow = {
        KING: FlowConfig(step=1.0, iterations=100, ridge=1e-2),
        NTKING: FlowConfig(step=1.0, iterations=100, ridge=1e-1, freeze_bandwidth=True),
    }
    methods = cfg.methods or FLOW_METHODS
    metric = _mmd_metric(eval_targets)

    summary_methods = {}
    logs = []
    for method in methods:
        if cfg.flow is not None:
            flow = cfg.flow
        else:
            flow = default_flow.get(method, FlowConfig(step=1.0, iterations=100))
        fmap = None
        kernel = None
        if method in (KING, NTKING):
            fmap = _materialize_manifold(
                cfg.manifold, init, targets, seeds[3],
                {"kind": "rbf_recipe", "bandwidth_scale": 2.0},
            )
            kernel = _kernel_for(cfg, method, dim, cfg.seed)
        log = RunLog(label=method)
        run_flow(
            method, fmap, kernel, targets, init, flow,
            observer=log.observer, extra_metrics=metric,
        )
        logs.append(log)
        initial_mmd = log.metrics[0][2]["mmd"]
        final_mmd = log.metrics[-1][2]["mmd"]
        summary_methods[method] = {
            "initial_mmd": initial_mmd,
            "final_mmd": final_mmd,
            "ratio": final_mmd / initial_mmd if initial_mmd > 0 else float("nan"),
        }
    return {"dim": dim, "methods": summary_methods}, logs


def _manifold_guidance(cfg: RunConfig) -> tuple[dict, list[RunLog]]:
    ds = take_fields(
        cfg.dataset,
        {
            "n_targets": 200,
            "n_particles": 200,
            "offset": 2.0,
            "n_eval": 200,
        },
        "dataset",
    )
    offset = float(ds["offset"])
    seeds = _child_seeds(cfg.seed, 5)
    targets = gen_gaussian_mixture(1, [-offset, offset], [0.5, 0.5], int(ds["n_targets"]), seeds[0])
    init = gen_gaussian_mixture(1, [0.0], [1.0], int(ds["n_particles"]), seeds[1])
    eval_targets = gen_gaussian_mixture(1, [-offset, offset], [0.5, 0.5], int(ds["n_eval"]), seeds[2])
    flow = cfg.flow or FlowConfig(step=0.5, iterations=100)
    methods = cfg.methods or (KING,)
    metric = _mmd_metric(eval_targets)

    summary_methods = {}
    logs = []
    for method in methods:
        if method not in (KING, NTKING):
            raise ConfigError("manifold_guidance runs drift methods only")
        fmap = _materialize_manifold(
            cfg.manifold, init, targets, seeds[3], {"kind": "gaussian_quadratic"}
        )
        kernel = _kernel_for(cfg, method, 1, cfg.seed)
        log = RunLog(label=method)
        final = run_flow(
            method, fmap, kernel, targets, init, flow,
            observer=log.observer, extra_metrics=metric,
        )
        logs.append(log)
        pts = final.points[:, 0]
        positive = pts > 0
        summary_methods[method] = {
            "final_mean": float(pts.mean()),
            "final_std": float(pts.std()),
            "fraction_positive": float(positive.mean()),
            "mean_positive": float(pts[positive].mean()) if positive.any() else float("nan"),
            "mean_negative": float(pts[~positive].mean()) if (~positive).any() else float("nan"),
            "initial_mmd": log.metrics[0][2]["mmd"],
            "final_mmd": log.metrics[-1][2]["mmd"],
        }
    manifold_kind = (cfg.manifold or {"kind": "gaussian_quadratic"}).get("kind")
    return {"manifold": manifold_kind, "methods": summary_methods}, logs


def _ngd_tracking(cfg: RunConfig) -> tuple[dict, list[RunLog]]:
    ds = take_fields(
        cfg.dataset,
        {
            "dim": 2,
            "n_targets": 500,
            "n_particles": 400,
            "mc_samples": 4096,
            "checkpoints": 10,
        },
        "dataset",
    )
    dim = int(ds["dim"])
    seeds = _child_seeds(cfg.seed, 5)
    rng = np.random.default_rng(seeds[0])
    target_mean = rng.uniform(-1.5, 1.5, size=dim)
    shape = rng.normal(size=(dim, dim))
    target_cov = shape @ shape.T / dim + 0.5 * np.eye(dim)
    targets = ParticleSet(sample_gaussian(target_mean, target_cov, int(ds["n_targets"]), seeds[1]))
    init = ParticleSet(sample_gaussian(np.zeros(dim), np.eye(dim), int(ds["n_particles"]), seeds[2]))

    flow = cfg.flow or FlowConfig(step=0.25, iterations=60, ridge=1e-4)
    n_checkpoints = int(ds["checkpoints"])
    every = max(flow.iterations // n_checkpoints, 1)

    fmap = GaussianQuadraticMap(input_dim=dim)
    kernel = _kernel_for(cfg, KING, dim, cfg.seed)

    params = gaussian_moment_to_natural(np.zeros(dim), np.eye(dim))
    param_moments = {0: gaussian_natural_to_moment(params)}
    step_seeds = seeds[3].spawn(flow.iterations)
    for k in range(1, flow.iterations + 1):
        params = exact_ngd_step(
            params, targets, flow.step,
            mc_samples=int(ds["mc_samples"]), seed=step_seeds[k - 1], jitter=flow.jitter,
        )
        param_moments[k] = gaussian_natural_to_moment(params)

    log = RunLog(label="king")
    checkpoints = []
    tracked = replace(flow, log_every=every)
    final = run_flow(KING, fmap, kernel, targets, init, tracked, observer=log.observer)

    for iteration, t, particles in log.snapshots:
        if iteration == 0:
            continue
        mean_fit, cov_fit = fit_gaussian(particles)
        mean_ngd, cov_ngd = param_moments[iteration]
        gap = gaussian_w2(mean_fit, cov_fit, mean_ngd, cov_ngd)
        to_target = gaussian_w2(mean_fit, cov_fit, target_mean, target_cov)
        checkpoints.append(
            {"iteration": iteration, "t": t, "w2_gap": gap, "w2_to_target": to_target}
        )

    mean_fit, cov_fit = fit_gaussian(final)
    mean_ngd, cov_ngd = param_moments[flow.iterations]
    summary = {
        "checkpoints": checkpoints,
        "max_w2_gap": max(c["w2_gap"] for c in checkpoints),
        "final_w2_particles_to_target": gaussian_w2(mean_fit, cov_fit, target_mean, target_cov),
        "final_w2_exact_to_target": gaussian_w2(mean_ngd, cov_ngd, target_mean, target_cov),
        "target_mean": target_mean.tolist(),
        "target_cov": target_cov.tolist(),
    }
    for entry, (iteration, t, diag) in zip(checkpoints, log.metrics[1:]):
        diag["w2_gap"] = entry["w2_gap"]
        diag["w2_to_target"] = entry["w2_to_target"]
    return summary, [log]


def _graphical_model(cfg: RunConfig) -> tuple[dict, list[RunLog]]:
    # The 10-dim desk version needs a denser graph than the full-size default
    # edge probability: at 0.05 the handful of edges is recovered by plain RBF
    # features just as well, and the informed-statistics contrast disappears.
    ds = take_fields(
        cfg.dataset,
        {
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
        "dataset",
    )
    # Only the drift methods use the feature map that sets the variants apart.
    method = _single_method(cfg, (KING, NTKING))
    dim = int(ds["dim"])
    seeds = _child_seeds(cfg.seed, 4)
    base_graph_seed = int(seeds[0].generate_state(1)[0])
    spec = None
    for attempt in range(200):
        candidate = GgmSpec(
            dim=dim,
            edge_prob=float(ds["edge_prob"]),
            edge_value=float(ds["edge_value"]),
            seed=base_graph_seed + attempt,
        )
        if len(candidate.edges) >= int(ds["min_edges"]):
            spec = candidate
            break
    if spec is None:
        raise ConfigError("could not sample a graph with enough edges; raise edge_prob")

    targets = gen_ggm_samples(spec, int(ds["n_targets"]), seeds[1])
    init = ParticleSet(sample_gaussian(np.zeros(dim), np.eye(dim), int(ds["n_particles"]), seeds[2]))
    flow = cfg.flow or FlowConfig(step=1.0, iterations=30)
    threshold = float(ds["threshold"])
    true_edges = set(spec.edges)

    variants = [
        ("informed", int(ds["informed_iterations"]), True),
        ("plain", int(ds["plain_iterations"]), False),
    ]
    if ds["include_long"]:
        variants.append(("plain_long", int(ds["long_iterations"]), False))

    summary_variants = {}
    logs = []
    for label, iterations, informed in variants:
        plain_map = _materialize_manifold(
            cfg.manifold, init, targets, seeds[3], {"kind": "rbf_recipe"}
        )
        if informed:
            fmap = InformedPairwiseMap(
                centers=plain_map.centers,
                bandwidth=plain_map.bandwidth,
                pairs=tuple(spec.edges),
            )
        else:
            fmap = plain_map
        kernel = _kernel_for(cfg, method, dim, cfg.seed)
        variant_flow = replace(flow, iterations=iterations)
        log = RunLog(label=label)
        final = run_flow(method, fmap, kernel, targets, init, variant_flow, observer=log.observer)
        logs.append(log)
        support = precision_support(final, threshold)
        iu = np.triu_indices(dim, k=1)
        found = {
            (int(i), int(j)) for i, j in zip(iu[0], iu[1]) if support[i, j]
        }
        recovered = len(found & true_edges)
        summary_variants[label] = {
            "iterations": iterations,
            "true_edges": len(true_edges),
            "recovered": recovered,
            "spurious": len(found - true_edges),
            "recall": recovered / len(true_edges) if true_edges else float("nan"),
        }
    summary = {
        "dim": dim,
        "edges": sorted([list(e) for e in true_edges]),
        "graph_seed": spec.seed,
        "variants": summary_variants,
    }
    return summary, logs


def _covariate_shift_rotation(cfg: RunConfig) -> tuple[dict, list[RunLog]]:
    ds = take_fields(
        cfg.dataset,
        {
            "n_source": 300,
            "n_shift": 300,
            "blob_offset": 2.0,
            "component_sd": 0.4,
            "degrees": 45.0,
        },
        "dataset",
    )
    method = _single_method(cfg, FLOW_METHODS)
    off = float(ds["blob_offset"])
    corners = [
        np.array([off, off]), np.array([off, -off]),
        np.array([-off, off]), np.array([-off, -off]),
    ]
    seeds = _child_seeds(cfg.seed, 4)
    source = gen_gaussian_mixture(
        2, corners, [0.25] * 4, int(ds["n_source"]), seeds[0],
        component_sd=float(ds["component_sd"]),
    )
    fresh = gen_gaussian_mixture(
        2, corners, [0.25] * 4, int(ds["n_shift"]), seeds[1],
        component_sd=float(ds["component_sd"]),
    )
    shifted = rotate_dataset(fresh, float(ds["degrees"]))

    flow = cfg.flow or FlowConfig(step=0.5, iterations=80)
    fmap = None
    kernel = None
    if method in (KING, NTKING):
        fmap = _materialize_manifold(
            cfg.manifold, shifted, source, seeds[2], {"kind": "rbf_recipe"}
        )
        kernel = _kernel_for(cfg, method, 2, cfg.seed)

    tree = cKDTree(source.points)

    def nn_metric(particles: ParticleSet) -> dict:
        dists, _ = tree.query(particles.points)
        return {"residual": float(dists.mean())}

    log = RunLog(label=method)
    final = run_flow(
        method, fmap, kernel, source, shifted, flow,
        observer=log.observer, extra_metrics=nn_metric,
    )
    initial_nn = log.metrics[0][2]["residual"]
    final_nn = log.metrics[-1][2]["residual"]
    summary = {
        "method": method,
        "degrees": float(ds["degrees"]),
        "initial_nn_distance": initial_nn,
        "final_nn_distance": final_nn,
        "ratio": final_nn / initial_nn if initial_nn > 0 else float("nan"),
    }
    return summary, [log]


def _stein_sampling(cfg: RunConfig) -> tuple[dict, list[RunLog]]:
    ds = take_fields(
        cfg.dataset,
        {
            "dim": 1,
            "n_particles": 200,
            "init_mean": 3.0,
            "init_sd": 1.0,
            "score": {"kind": "gaussian", "mean": [0.0], "variances": [1.0]},
            "base": {"kind": "gaussian_quadratic"},
            "mode": "paired",
            "n_eval": 200,
        },
        "dataset",
    )
    method = _single_method(cfg, (KING, NTKING))
    dim = int(ds["dim"])
    seeds = _child_seeds(cfg.seed, 4)
    score = score_from_config(ds["score"])
    if score.dim != dim:
        raise ConfigError(f"score dimension {score.dim} does not match dataset dim {dim}")
    rng = np.random.default_rng(seeds[0])
    init_mean = np.full(dim, float(ds["init_mean"]))
    init = ParticleSet(
        init_mean + float(ds["init_sd"]) * rng.standard_normal((int(ds["n_particles"]), dim))
    )
    eval_targets = ParticleSet(score.sample(int(ds["n_eval"]), seeds[1]))

    base_cfg = ds["base"]
    base = _materialize_manifold(base_cfg, init, None, seeds[2], base_cfg)
    smap = SteinFeatureMap(base=base, target=score, mode=ds["mode"])

    flow = cfg.flow or FlowConfig(step=0.5, iterations=100)
    # A near-global kernel keeps the velocity field close to rigid motions;
    # localized kernels let the finite Stein moment system stall at skewed
    # spurious equilibria well away from the target mean.
    if (cfg.kernels or {}).get(method) is None:
        kernel = _default_kernel(method).with_bandwidth(20.0)
    else:
        kernel = _kernel_for(cfg, method, dim, cfg.seed)
    metric = _mmd_metric(eval_targets)

    log = RunLog(label=method)
    final = run_flow(
        method, smap, kernel, None, init, flow,
        observer=log.observer, extra_metrics=metric,
    )
    summary = {
        "method": method,
        "initial_mean": init.points.mean(axis=0).tolist(),
        "final_mean": final.points.mean(axis=0).tolist(),
        "final_abs_mean": float(np.linalg.norm(final.points.mean(axis=0))),
        "final_std": float(final.points.std(axis=0).mean()),
        "initial_mmd": log.metrics[0][2]["mmd"],
        "final_mmd": log.metrics[-1][2]["mmd"],
    }
    return summary, [log]


_SCENARIO_FNS = {
    "bimodal_compare": _bimodal_compare,
    "manifold_guidance": _manifold_guidance,
    "ngd_tracking": _ngd_tracking,
    "graphical_model": _graphical_model,
    "covariate_shift_rotation": _covariate_shift_rotation,
    "stein_sampling": _stein_sampling,
}


# -- output writing -----------------------------------------------------------

def _format(value) -> str:
    if value is None or value == "":
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_particles_csv(path: Path, log: RunLog):
    dim = log.snapshots[0][2].dim if log.snapshots else 0
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "t"] + [f"x{k}" for k in range(dim)] + ["index"])
        for iteration, t, particles in log.snapshots:
            for idx, row in enumerate(particles.points):
                writer.writerow(
                    [iteration, _format(float(t))] + [_format(float(v)) for v in row] + [idx]
                )


def _write_metrics_csv(path: Path, log: RunLog):
    present = [
        c for c in _METRIC_COLUMNS if any(c in diag for _, _, diag in log.metrics)
    ]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "t"] + present)
        for iteration, t, diag in log.metrics:
            writer.writerow(
                [iteration, _format(float(t))]
                + [_format(diag[c]) if c in diag else "" for c in present]
            )


def execute_scenario(cfg: RunConfig) -> ScenarioOutcome:
    """Run a scenario, writing outputs when ``cfg.out_dir`` is set."""
    if cfg.scenario not in _SCENARIO_FNS:
        raise ConfigError(f"unknown scenario: {cfg.scenario!r}")
    start = time.perf_counter()
    summary, logs = _SCENARIO_FNS[cfg.scenario](cfg)
    elapsed = time.perf_counter() - start
    resolved = cfg.to_dict()
    record = {
        "config": resolved,
        "summary": summary,
        "package_version": _pkg_version,
        "numpy_version": np.__version__,
        "wall_clock_seconds": elapsed,
    }
    if cfg.out_dir is not None:
        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for log in logs:
            run_dir = out / log.label
            run_dir.mkdir(parents=True, exist_ok=True)
            _write_particles_csv(run_dir / "particles.csv", log)
            _write_metrics_csv(run_dir / "metrics.csv", log)
        (out / "run.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return ScenarioOutcome(config=resolved, summary=summary, logs=tuple(logs))
