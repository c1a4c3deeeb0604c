"""In-memory span tracer installed around the layer boundaries of kingflow.

Each span wraps one module-level name at the place its caller looks it up
(for example ``kingflow.flows.median_heuristic``, which the flow loop calls,
rather than ``kingflow.kernels.median_heuristic``).  Spans nest; a span's
self time is its duration minus the durations of its child spans, so the
self times of all spans under the root add up to the root's duration.

Spans are installed only for names that exist, so the same tracer measures
a commit that renamed or removed a traced function: the missing span simply
reports zero calls.  With ``memory=True`` the tracer also reads
``tracemalloc`` at every span boundary to give each span's peak extra
memory; that slows the call, so the span times come from a pass without it.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import time
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

MIB = 1024.0 * 1024.0

# (module, attribute, layer).  The attribute is looked up on the module (or
# the class named before a dot) at install time; absent names are skipped.
SPAN_SITES = (
    ("kingflow.flows", "solve_king_drift", "flows.solve"),
    ("kingflow.flows", "solve_ntking_drift", "flows.solve"),
    ("kingflow.flows", "eval_drift", "flows.apply"),
    ("kingflow.flows", "wgf_velocity", "flows.baseline"),
    ("kingflow.flows", "mmd_flow_velocity", "flows.baseline"),
    ("kingflow.flows", "median_heuristic", "kernels.bandwidth"),
    ("kingflow.flows", "fisher_estimate", "manifold.fisher"),
    ("kingflow.flows", "feature_mean", "manifold.features"),
    ("kingflow.flows", "chol_spd", "linalg.chol"),
    ("kingflow.flows", "chol_solve", "linalg.chol"),
    ("kingflow.manifold", "chol_spd", "linalg.chol"),
    ("kingflow.manifold", "FeatureMap.features", "manifold.features"),
    ("kingflow.manifold", "FeatureMap.jacobian", "manifold.jacobian"),
    ("kingflow.harness.scenarios", "run_flow", "flows.loop"),
    ("kingflow.harness.scenarios", "mmd", "metrics.mmd"),
    ("kingflow.harness.scenarios", "gaussian_w2", "metrics.w2"),
    ("kingflow.harness.scenarios", "exact_ngd_step", "ngd.exact_step"),
    ("kingflow.harness.scenarios", "_write_particles_csv", "harness.write"),
    ("kingflow.harness.scenarios", "_write_metrics_csv", "harness.write"),
)

ROOT = "harness"
DRIFT_METHODS = ("king", "ntking")


@dataclass
class Span:
    layer: str
    parent: int | None
    start: float
    end: float = 0.0
    child_s: float = 0.0
    base_bytes: int = 0
    peak_bytes: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


@dataclass
class Tracer:
    """Records spans and counters; ``installed`` patches the span sites."""

    memory: bool = False
    spans: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    _stack: list = field(default_factory=list)
    _drift_depth: int = 0

    # -- spans ---------------------------------------------------------------
    def enter(self, layer: str) -> int:
        current = 0
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._stack:
                parent = self.spans[self._stack[-1]]
                parent.peak_bytes = max(parent.peak_bytes, peak)
            tracemalloc.reset_peak()
        index = len(self.spans)
        parent_index = self._stack[-1] if self._stack else None
        self.spans.append(
            Span(layer, parent_index, time.perf_counter(), base_bytes=current, peak_bytes=current)
        )
        self._stack.append(index)
        return index

    def exit(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        if self.memory:
            span.peak_bytes = max(span.peak_bytes, tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
        if span.parent is not None:
            parent = self.spans[span.parent]
            parent.child_s += span.duration
            parent.peak_bytes = max(parent.peak_bytes, span.peak_bytes)

    def call(self, layer: str, fn, *args, **kwargs):
        index = self.enter(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit(index)

    # -- installation --------------------------------------------------------
    @contextmanager
    def installed(self):
        """Patch every span site that exists and yield the missing ones; restore on exit."""
        patched = []
        missing = []
        for module_name, attr, layer in SPAN_SITES:
            try:
                owner = importlib.import_module(module_name)
            except ModuleNotFoundError:
                owner = None
            *owner_path, name = attr.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = owner.__dict__.get(name) if owner is not None else None
            if original is None:
                missing.append(f"{module_name}.{attr}")
                continue
            setattr(owner, name, self._wrap(layer, original))
            patched.append((owner, name, original))
        try:
            yield missing
        finally:
            for owner, name, original in reversed(patched):
                setattr(owner, name, original)

    def _wrap(self, layer: str, fn):
        hook = getattr(self, "_after_" + layer.replace(".", "_"), None)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            drift = (
                layer == "flows.loop"
                and bound.arguments.get("method") in DRIFT_METHODS
                and {"init", "config"} <= bound.arguments.keys()
            )
            if drift:
                self._before_drift_loop(bound.arguments)
            index = self.enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(index)
                if drift:
                    self._drift_depth -= 1
            if hook is not None:
                hook(bound.arguments, result)
            return result

        return wrapper

    # -- counters ------------------------------------------------------------
    # Each hook reads the arguments by name and counts nothing when a
    # refactor renamed them, so a changed signature cannot stop a run.
    def _before_drift_loop(self, arguments) -> None:
        config = arguments["config"]
        self.counts["drift_particle_iters"] += arguments["init"].n * config.iterations
        self._drift_depth += 1

    def _after_flows_loop(self, arguments, result) -> None:
        self.counts["iterations"] += getattr(arguments.get("config"), "iterations", 0)

    def _after_kernels_bandwidth(self, arguments, result) -> None:
        if "points_a" not in arguments:
            return
        pooled = _rows(arguments["points_a"])
        if arguments.get("points_b") is not None:
            pooled += _rows(arguments["points_b"])
        self.counts["bandwidth_calls"] += 1
        self.counts["bandwidth_pairs"] += pooled * (pooled - 1) // 2

    def _after_manifold_features(self, arguments, result) -> None:
        if self._drift_depth and "x" in arguments:
            self.counts["feature_rows"] += _rows(arguments["x"])

    def _after_manifold_jacobian(self, arguments, result) -> None:
        if self._drift_depth and "x" in arguments:
            self.counts["jacobian_rows"] += _rows(arguments["x"])

    def _after_linalg_chol(self, arguments, result) -> None:
        if not {"mat", "jitter"} <= arguments.keys() or len(result) != 3:
            return
        # chol_spd loads ``jitter`` times the mean diagonal; anything above
        # that was added by its escalation loop.
        mat = arguments["mat"]
        trace = float(mat.trace())
        scale = trace / mat.shape[0] if trace > 0 else 1.0
        if result[2] > float(arguments["jitter"]) * scale:
            self.counts["jitter_escalations"] += 1

    # -- aggregation ---------------------------------------------------------
    def layer_totals(self) -> dict:
        """Per-layer ``{"self_s", "calls", "peak_mib"}``, the root included."""
        totals = defaultdict(lambda: {"self_s": 0.0, "calls": 0, "peak_mib": 0.0})
        for span in self.spans:
            entry = totals[span.layer]
            entry["self_s"] += span.self_s
            entry["calls"] += 1
            extra = (span.peak_bytes - span.base_bytes) / MIB
            entry["peak_mib"] = max(entry["peak_mib"], extra)
        return totals

    def setup_self_s(self) -> float:
        """Root self time before the first flow loop starts."""
        root = next(s for s in self.spans if s.layer == ROOT)
        loops = [s.start for s in self.spans if s.layer == "flows.loop"]
        first = min(loops) if loops else root.end
        children = sum(
            s.duration for s in self.spans
            if s.parent is not None and self.spans[s.parent] is root and s.end <= first
        )
        return (first - root.start) - children


def _rows(x) -> int:
    """Points in a ``ParticleSet``, an ``(n, d)`` batch or a single point."""
    if hasattr(x, "n"):
        return int(x.n)
    return len(x) if np.ndim(x) == 2 else 1


def traced_call(memory: bool, fn, *args, **kwargs):
    """Run ``fn`` under a fresh tracer; returns ``(result, tracer, missing_sites)``."""
    tracer = Tracer(memory=memory)
    if memory:
        tracemalloc.start()
    try:
        with tracer.installed() as missing:
            result = tracer.call(ROOT, fn, *args, **kwargs)
    finally:
        if memory:
            tracemalloc.stop()
    return result, tracer, missing
