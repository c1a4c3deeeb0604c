"""Desk-scale experiment scenarios behind the CLI.

Each scenario builds its datasets and manifolds from the run seed, executes
one or more flows, and produces a JSON-safe summary plus per-run snapshot and
metric logs.  With an output directory set, every run writes
``particles.csv`` and ``metrics.csv`` into its own subdirectory and the
scenario writes a ``run.json`` with the configuration as given and the summary.
All randomness descends from ``RunConfig.seed``, so outputs are reproducible
byte for byte.
"""
from __future__ import annotations

import contextlib
import csv
import ctypes
import functools
import json
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.spatial import cKDTree

try:
    import resource
except ImportError:  # absent on Windows
    resource = None

from .. import __version__ as _pkg_version
from ..errors import ConfigError
from ..flows import (
    DRIFT_KERNEL_KINDS,
    FLOW_METHODS,
    KING,
    NTKING,
    FlowConfig,
    check_drift_kernel,
    run_flow,
)
from ..kernels import EMPIRICAL_NTK, KernelSpec
from ..manifold import (
    FeatureMap,
    GaussianQuadraticMap,
    InformedPairwiseMap,
    RbfFeatureMap,
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

# glibc's mallopt parameters (malloc.h).  The mmap threshold goes to glibc's
# 64-bit cap and the trim threshold to twice that, the rule glibc follows when
# it moves them itself.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD_MAX = 32 << 20


@dataclass
class RunLog:
    """Snapshots and diagnostics of one flow run, with ``metric(particles)`` merged in."""

    label: str
    metric: Callable[[ParticleSet], dict] | None = None
    snapshots: list = field(default_factory=list)
    metrics: list = field(default_factory=list)

    def observer(self, iteration: int, t: float, particles: ParticleSet, diagnostics: dict):
        if self.metric is not None:
            diagnostics = {**diagnostics, **self.metric(particles)}
        self.snapshots.append((iteration, t, particles))
        self.metrics.append((iteration, t, dict(diagnostics)))

    @property
    def final(self) -> ParticleSet:
        """The particles at the last iteration, which the flow always logs."""
        return self.snapshots[-1][2]

    def change(self, column: str, name: str, ratio: bool = True) -> dict:
        """``initial_<name>`` and ``final_<name>`` of a metric column, and their ratio."""
        first, last = self.metrics[0][2][column], self.metrics[-1][2][column]
        ends = {f"initial_{name}": first, f"final_{name}": last}
        if ratio:
            ends["ratio"] = last / first if first > 0 else float("nan")
        return ends


@dataclass(frozen=True)
class ScenarioOutcome:
    """The config as given, the JSON-safe summary, and per-run logs."""

    config: dict
    summary: dict
    logs: tuple[RunLog, ...]


def _methods(
    cfg: RunConfig, allowed: tuple[str, ...], default: tuple[str, ...], single: bool = False
) -> tuple[str, ...]:
    """The scenario's methods (``default`` unless set), checked before any flow runs."""
    methods = cfg.methods or default
    if (single and len(methods) != 1) or any(m not in allowed for m in methods):
        count = "one of" if single else "only"
        raise ConfigError(f"{cfg.scenario} runs {count} {', '.join(allowed)}, got {list(methods)}")
    return methods


@contextlib.contextmanager
def _config_errors(what: str):
    """Re-raise a ``KeyError``/``TypeError``/``ValueError`` building ``what`` as ``ConfigError``."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad {what} config: {exc}") from exc


def _materialize_manifold(
    cfg: dict, init: ParticleSet, targets: ParticleSet | None, seed
) -> FeatureMap:
    """The feature map ``cfg`` describes, over ``init``'s dimension (the default ``input_dim``)."""
    kind = cfg.get("kind")
    if kind == "rbf_recipe":
        # The recipe's fields, bar its kind, are rbf_map_from_samples keywords.
        recipe = take_fields(
            cfg,
            {"kind": "rbf_recipe", "n_centers": 50, "bandwidth": None, "bandwidth_scale": 1.0},
            "manifold",
        )
        del recipe["kind"]
        pool = init if targets is None else ParticleSet(np.vstack([init.points, targets.points]))
        return rbf_map_from_samples(init, bandwidth_samples=pool, seed=seed, **recipe)
    if kind == "gaussian_quadratic":
        cfg = {"input_dim": init.dim, **cfg}
    fmap = feature_map_from_config(cfg)
    if fmap.input_dim != init.dim:
        raise ValueError(f"input_dim {fmap.input_dim} != data dim {init.dim}")
    return fmap


def _drift_inputs(
    cfg: RunConfig, methods: tuple[str, ...], init: ParticleSet, targets: ParticleSet | None,
    recipe: dict | None, seed, bandwidth: float | None = None,
) -> tuple[FeatureMap | None, dict[str, KernelSpec]]:
    """The shared feature map and each drift method's kernel, all checked before any flow runs.

    The map is built from ``cfg.manifold``, else ``recipe``, over ``init``
    and ``targets``, and only when a drift method runs; ``recipe=None``
    marks a scenario whose map is fixed.  A ``manifold`` that no flow would
    read is rejected, and so is a kernel override for a drift method that
    does not run.  Each drift method takes the kernel ``cfg`` sets for it,
    else its default kind at ``bandwidth``.  A map or tangent kernel must
    have the data's dimension.
    """
    drift = [m for m in methods if m in DRIFT_KERNEL_KINDS]
    if cfg.manifold is not None and (recipe is None or not drift):
        raise ConfigError(f"no flow of {cfg.scenario} with {list(methods)} reads 'manifold'")
    unread = sorted(set(cfg.kernels or {}) - set(drift))
    if unread:
        raise ConfigError(f"no flow of {cfg.scenario} with {list(methods)} reads kernels {unread}")
    kernels = {}
    for method in drift:
        default = {"kind": DRIFT_KERNEL_KINDS[method][0], "bandwidth": bandwidth}
        spec = dict((cfg.kernels or {}).get(method, default))
        with _config_errors(f"{method} kernel"):
            if spec.get("kind") == EMPIRICAL_NTK:
                spec.setdefault("seed", cfg.seed)
                if spec.setdefault("input_dim", init.dim) != init.dim:
                    raise ValueError(f"input_dim {spec['input_dim']!r} != data dim {init.dim}")
            kernels[method] = KernelSpec.from_config(spec)
            check_drift_kernel(method, kernels[method])
    fmap = None
    if drift and recipe is not None:
        with _config_errors("manifold"):
            manifold = recipe if cfg.manifold is None else cfg.manifold
            fmap = _materialize_manifold(manifold, init, targets, seed)
    return fmap, kernels


def _flow(
    method: str, init: ParticleSet, targets: ParticleSet | None, flow: FlowConfig, *,
    label: str | None = None, metric: Callable[[ParticleSet], dict] | None = None,
    fmap: FeatureMap | None = None, kernel: KernelSpec | None = None,
) -> RunLog:
    """Run one flow and return its log, labelled ``method`` unless ``label`` is set."""
    log = RunLog(label or method, metric)
    run_flow(method, fmap, kernel, targets, init, flow, observer=log.observer)
    return log


def _mmd_metric(eval_targets: ParticleSet) -> Callable[[ParticleSet], dict]:
    return lambda particles: {"mmd": mmd(eval_targets, particles).value}


# -- scenario implementations -------------------------------------------------

def _bimodal_compare(cfg: RunConfig, ds: dict) -> tuple[dict, list[RunLog]]:
    methods = _methods(cfg, FLOW_METHODS, FLOW_METHODS)
    dim, offset = ds["dim"], ds["offset"]
    seeds = np.random.SeedSequence(cfg.seed).spawn(5)
    targets = gen_gaussian_mixture(dim, [-offset, offset], [0.5, 0.5], ds["n_targets"], seeds[0])
    init = gen_gaussian_mixture(dim, [0.0], [1.0], ds["n_particles"], seeds[1])
    eval_targets = gen_gaussian_mixture(dim, [-offset, offset], [0.5, 0.5], ds["n_eval"], seeds[2])
    # Drift magnitudes at step 1 are only stable on a smoothed manifold and
    # with per-method damping, so the defaults widen the feature bandwidth and
    # calibrate ridge (and the kernel-bandwidth refresh policy) per method.
    recipe = {"kind": "rbf_recipe", "bandwidth_scale": 2.0}
    fmap, kernels = _drift_inputs(cfg, methods, init, targets, recipe, seeds[3])
    default_flow = {
        KING: FlowConfig(step=1.0, iterations=100, ridge=1e-2),
        NTKING: FlowConfig(step=1.0, iterations=100, ridge=1e-1, freeze_bandwidth=True),
    }
    logs = [
        _flow(
            method, init, targets,
            cfg.flow or default_flow.get(method, FlowConfig(step=1.0, iterations=100)),
            metric=_mmd_metric(eval_targets), fmap=fmap, kernel=kernels.get(method),
        )
        for method in methods
    ]
    return {"dim": dim, "methods": {log.label: log.change("mmd", "mmd") for log in logs}}, logs


def _manifold_guidance(cfg: RunConfig, ds: dict) -> tuple[dict, list[RunLog]]:
    methods = _methods(cfg, tuple(DRIFT_KERNEL_KINDS), (KING,))
    offset = ds["offset"]
    seeds = np.random.SeedSequence(cfg.seed).spawn(5)
    targets = gen_gaussian_mixture(1, [-offset, offset], [0.5, 0.5], ds["n_targets"], seeds[0])
    init = gen_gaussian_mixture(1, [0.0], [1.0], ds["n_particles"], seeds[1])
    eval_targets = gen_gaussian_mixture(1, [-offset, offset], [0.5, 0.5], ds["n_eval"], seeds[2])
    recipe = {"kind": "gaussian_quadratic"}
    fmap, kernels = _drift_inputs(cfg, methods, init, targets, recipe, seeds[3])
    flow = cfg.flow or FlowConfig(step=0.5, iterations=100)

    summary_methods = {}
    logs = []
    for method in methods:
        log = _flow(
            method, init, targets, flow,
            metric=_mmd_metric(eval_targets), fmap=fmap, kernel=kernels[method],
        )
        logs.append(log)
        pts = log.final.points[:, 0]
        positive = pts > 0
        summary_methods[method] = {
            "final_mean": float(pts.mean()),
            "final_std": float(pts.std()),
            "fraction_positive": float(positive.mean()),
            "mean_positive": float(pts[positive].mean()) if positive.any() else float("nan"),
            "mean_negative": float(pts[~positive].mean()) if (~positive).any() else float("nan"),
            **log.change("mmd", "mmd", ratio=False),
        }
    return {"manifold": (cfg.manifold or recipe).get("kind"), "methods": summary_methods}, logs


def _ngd_tracking(cfg: RunConfig, ds: dict) -> tuple[dict, list[RunLog]]:
    # The exact reference descends on the Gaussian family only, which the
    # ``king`` flow on the quadratic map tracks.
    _methods(cfg, (KING,), (KING,), single=True)
    if ds["checkpoints"] < 1:
        raise ConfigError(f"checkpoints must be at least 1, got {ds['checkpoints']}")
    dim = ds["dim"]
    seeds = np.random.SeedSequence(cfg.seed).spawn(5)
    rng = np.random.default_rng(seeds[0])
    target_mean = rng.uniform(-1.5, 1.5, size=dim)
    shape = rng.normal(size=(dim, dim))
    target_cov = shape @ shape.T / dim + 0.5 * np.eye(dim)
    targets = ParticleSet(sample_gaussian(target_mean, target_cov, ds["n_targets"], seeds[1]))
    init = ParticleSet(sample_gaussian(np.zeros(dim), np.eye(dim), ds["n_particles"], seeds[2]))
    # The exact reference fixes the quadratic map, so no manifold override applies.
    _, kernels = _drift_inputs(cfg, (KING,), init, targets, recipe=None, seed=None)

    flow = cfg.flow or FlowConfig(step=0.25, iterations=60, ridge=1e-4)
    every = max(flow.iterations // ds["checkpoints"], 1)

    params = gaussian_moment_to_natural(np.zeros(dim), np.eye(dim))
    param_moments = {0: gaussian_natural_to_moment(params)}
    for k, step_seed in enumerate(seeds[3].spawn(flow.iterations), start=1):
        params = exact_ngd_step(
            params, targets, flow.step, mc_samples=ds["mc_samples"], seed=step_seed
        )
        param_moments[k] = gaussian_natural_to_moment(params)

    log = _flow(
        KING, init, targets, replace(flow, log_every=every),
        fmap=GaussianQuadraticMap(input_dim=dim), kernel=kernels[KING],
    )
    checkpoints = []
    for (iteration, t, particles), (_, _, diag) in zip(log.snapshots[1:], log.metrics[1:]):
        mean_fit, cov_fit = fit_gaussian(particles)
        mean_ngd, cov_ngd = param_moments[iteration]
        gap = gaussian_w2(mean_fit, cov_fit, mean_ngd, cov_ngd)
        to_target = gaussian_w2(mean_fit, cov_fit, target_mean, target_cov)
        diag.update(w2_gap=gap, w2_to_target=to_target)
        checkpoints.append(
            {"iteration": iteration, "t": t, "w2_gap": gap, "w2_to_target": to_target}
        )

    # The last checkpoint is the final iteration, which the flow always logs.
    summary = {
        "checkpoints": checkpoints,
        "max_w2_gap": max(c["w2_gap"] for c in checkpoints),
        "final_w2_particles_to_target": checkpoints[-1]["w2_to_target"],
        "final_w2_exact_to_target": gaussian_w2(
            *param_moments[flow.iterations], target_mean, target_cov
        ),
        "target_mean": target_mean.tolist(),
        "target_cov": target_cov.tolist(),
    }
    return summary, [log]


def _graphical_model(cfg: RunConfig, ds: dict) -> tuple[dict, list[RunLog]]:
    # Only the drift methods use the feature map that sets the variants apart.
    (method,) = _methods(cfg, tuple(DRIFT_KERNEL_KINDS), (NTKING,), single=True)
    dim = ds["dim"]
    seeds = np.random.SeedSequence(cfg.seed).spawn(4)
    base_graph_seed = int(seeds[0].generate_state(1)[0])
    for attempt in range(200):
        spec = GgmSpec(
            dim=dim,
            edge_prob=ds["edge_prob"],
            edge_value=ds["edge_value"],
            seed=base_graph_seed + attempt,
        )
        if len(spec.edges) >= ds["min_edges"]:
            break
    else:
        raise ConfigError("could not sample a graph with enough edges; raise edge_prob")

    targets = gen_ggm_samples(spec, ds["n_targets"], seeds[1])
    init = ParticleSet(sample_gaussian(np.zeros(dim), np.eye(dim), ds["n_particles"], seeds[2]))
    plain, kernels = _drift_inputs(cfg, (method,), init, targets, {"kind": "rbf_recipe"}, seeds[3])
    if not isinstance(plain, RbfFeatureMap):
        # The informed variant reuses the plain map's centres and bandwidth.
        raise ConfigError(f"graphical_model needs an RBF manifold, got {cfg.manifold['kind']!r}")
    flow = cfg.flow or FlowConfig(step=1.0, iterations=30)
    true_edges = set(spec.edges)
    informed = InformedPairwiseMap(
        centers=plain.centers, bandwidth=plain.bandwidth, pairs=tuple(spec.edges)
    )
    variants = [
        ("informed", ds["informed_iterations"], informed),
        ("plain", ds["plain_iterations"], plain),
    ]
    if ds["include_long"]:
        variants.append(("plain_long", ds["long_iterations"], plain))

    summary_variants = {}
    logs = []
    for label, iterations, fmap in variants:
        log = _flow(
            method, init, targets, replace(flow, iterations=iterations),
            label=label, fmap=fmap, kernel=kernels[method],
        )
        logs.append(log)
        support = precision_support(log.final, ds["threshold"])
        found = {(int(i), int(j)) for i, j in zip(*np.nonzero(np.triu(support, k=1)))}
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


def _covariate_shift_rotation(cfg: RunConfig, ds: dict) -> tuple[dict, list[RunLog]]:
    (method,) = _methods(cfg, FLOW_METHODS, (NTKING,), single=True)
    off = ds["blob_offset"]
    corners = [
        np.array([off, off]), np.array([off, -off]),
        np.array([-off, off]), np.array([-off, -off]),
    ]
    seeds = np.random.SeedSequence(cfg.seed).spawn(4)
    source = gen_gaussian_mixture(
        2, corners, [0.25] * 4, ds["n_source"], seeds[0], component_sd=ds["component_sd"]
    )
    fresh = gen_gaussian_mixture(
        2, corners, [0.25] * 4, ds["n_shift"], seeds[1], component_sd=ds["component_sd"]
    )
    shifted = rotate_dataset(fresh, ds["degrees"])
    tree = cKDTree(source.points)
    fmap, kernels = _drift_inputs(cfg, (method,), shifted, source, {"kind": "rbf_recipe"}, seeds[2])

    def nn_metric(particles: ParticleSet) -> dict:
        dists, _ = tree.query(particles.points)
        return {"residual": float(dists.mean())}

    log = _flow(
        method, shifted, source, cfg.flow or FlowConfig(step=0.5, iterations=80),
        metric=nn_metric, fmap=fmap, kernel=kernels.get(method),
    )
    summary = {
        "method": method,
        "degrees": ds["degrees"],
        **log.change("residual", "nn_distance"),
    }
    return summary, [log]


def _stein_sampling(cfg: RunConfig, ds: dict) -> tuple[dict, list[RunLog]]:
    (method,) = _methods(cfg, tuple(DRIFT_KERNEL_KINDS), (NTKING,), single=True)
    dim = ds["dim"]
    seeds = np.random.SeedSequence(cfg.seed).spawn(4)
    rng = np.random.default_rng(seeds[0])
    noise = rng.standard_normal((ds["n_particles"], dim))
    init = ParticleSet(np.full(dim, ds["init_mean"]) + ds["init_sd"] * noise)
    # The base map has the data's dimension, and the Stein map checks the score's against it.
    with _config_errors("dataset score or base"):
        score = score_from_config(ds["score"])
        base = _materialize_manifold(ds["base"], init, None, seeds[2])
        smap = SteinFeatureMap(base=base, target=score, mode=ds["mode"])
    eval_targets = ParticleSet(score.sample(ds["n_eval"], seeds[1]))
    # The Stein map's base comes from ``dataset.base``, so no manifold override applies.
    _, kernels = _drift_inputs(cfg, (method,), init, None, recipe=None, seed=None, bandwidth=20.0)

    # A near-global kernel keeps the velocity field close to rigid motions;
    # localized kernels let the finite Stein moment system stall at skewed
    # spurious equilibria well away from the target mean.
    log = _flow(
        method, init, None, cfg.flow or FlowConfig(step=0.5, iterations=100),
        metric=_mmd_metric(eval_targets), fmap=smap, kernel=kernels[method],
    )
    final = log.final.points
    summary = {
        "method": method,
        "initial_mean": init.points.mean(axis=0).tolist(),
        "final_mean": final.mean(axis=0).tolist(),
        "final_abs_mean": float(np.linalg.norm(final.mean(axis=0))),
        "final_std": float(final.std(axis=0).mean()),
        **log.change("mmd", "mmd", ratio=False),
    }
    return summary, [log]


# Each scenario's function, keyed as ``DATASET_DEFAULTS`` is.
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
            # Python floats from tolist() format as repr(float(v)) of each
            # numpy value would, without boxing each one as a numpy scalar.
            stamp = [iteration, _format(float(t))]
            writer.writerows(
                stamp + [repr(v) for v in row] + [idx]
                for idx, row in enumerate(particles.points.tolist())
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


@functools.cache
def _retain_heap() -> bool:
    """Fix glibc's heap thresholds once per process; True when both settings took.

    By default glibc returns the heap top to the OS once more than twice the
    largest block freed so far lies unused there, so each drift iteration,
    which frees a few 0.3-0.8 MiB arrays, page-faulted its heap in again.
    The application owns this choice, so it lives here and not in the library.
    Elsewhere than on Linux, or without ``mallopt``, nothing changes.
    """
    if not sys.platform.startswith("linux"):
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    set_mmap = mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_MAX)
    return set_mmap == 1 and mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD_MAX) == 1


def _minor_page_faults() -> int | None:
    return None if resource is None else resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def execute_scenario(cfg: RunConfig) -> ScenarioOutcome:
    """Run a scenario, writing outputs when ``cfg.out_dir`` is set.

    The first call fixes the process's heap policy (see ``_retain_heap``).
    """
    heap_retained = _retain_heap()
    faults = _minor_page_faults()
    start = time.perf_counter()
    summary, logs = _SCENARIO_FNS[cfg.scenario](cfg, cfg.dataset_fields())
    elapsed = time.perf_counter() - start
    if faults is not None:
        faults = _minor_page_faults() - faults
    config = cfg.to_dict()
    record = {
        "config": config,
        "summary": summary,
        "package_version": _pkg_version,
        "numpy_version": np.__version__,
        "wall_clock_seconds": elapsed,
        "process": {"minor_page_faults": faults, "heap_retained": heap_retained},
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
    return ScenarioOutcome(config=config, summary=summary, logs=tuple(logs))
