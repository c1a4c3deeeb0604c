"""Scenario benchmark for kingflow.

Runs one workload through the public scenario entry point
(``RunConfig`` -> ``execute_scenario``, the call behind ``kingflow run``) and
prints, as its last stdout line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it records the
environment, the per-call samples and any output problems.

    python3 perfbench/run.py --workload bimodal_n250 --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics: ``run_s`` (median wall time
of warm, untraced calls made for about ``--seconds``), ``setup_s`` (median
time of a fresh interpreter importing ``kingflow.harness.cli`` and validating
the config) and ``peak_rss_mib``.  ``--trace 1`` alternates untraced and traced
calls and reports the per-layer metrics of the last traced call.
``--smoke`` swaps in tiny versions of the workloads.

The BLAS pool is pinned to one thread in this process and in every process
it starts, which gives the plain single-threaded baseline.  Run from the
root of a kingflow source tree; the program is imported from ``src/``.
"""
import os

BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402  (the thread pin must precede numpy's import)
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
OVERHEAD_PAIRS = 2

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from tracer import traced_call  # noqa: E402

SETUP_SNIPPET = (
    "import json, sys\n"
    "import kingflow.harness.cli\n"
    "from kingflow.harness.config import RunConfig\n"
    "RunConfig.from_dict(json.loads(sys.argv[1]))\n"
)


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def measure_setup(cfg: dict, repeats: int) -> list[float]:
    """Wall times of fresh interpreters that import the CLI and validate ``cfg``.

    The first start compiles bytecode into ``src`` and is discarded.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-c", SETUP_SNIPPET, json.dumps(cfg)]
    times = []
    for _ in range(repeats + 1):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True)
        times.append(time.perf_counter() - start)
    return times[1:]


class Runner:
    """Makes scenario calls for one workload and checks their outputs."""

    def __init__(self, workload: str, seed: int, tiny: bool, out_root: str):
        from kingflow.errors import NumericalError
        from kingflow.harness.config import RunConfig
        from kingflow.harness.scenarios import execute_scenario

        self.workload, self.seed, self.tiny, self.out_root = workload, seed, tiny, out_root
        self.cfg = workloads.config(workload, seed, tiny)
        self._numerical_error = NumericalError
        self._run_config = RunConfig
        self._execute = execute_scenario
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.missing_spans = []

    def warm_up(self) -> None:
        """One tiny call of the same scenario, so imports and caches are warm."""
        self._execute(self._run_config.from_dict(workloads.config(self.workload, self.seed, True)))

    def call(self, traced: bool = False, memory: bool = False):
        """One checked call writing to a fresh output directory.

        With ``traced`` the call runs under a span tracer, which also tracks
        memory when ``memory`` is set.  Returns ``(seconds, bytes_written,
        tracer)``; a failed call still returns its time.
        """
        out_dir = tempfile.mkdtemp(dir=self.out_root)
        cfg = self._run_config.from_dict({**self.cfg, "out_dir": out_dir})
        self.attempted += 1
        tracer = None
        try:
            start = time.perf_counter()
            try:
                if traced:
                    outcome, tracer, self.missing_spans = traced_call(memory, self._execute, cfg)
                else:
                    outcome = self._execute(cfg)
            except self._numerical_error as exc:
                outcome = None
                problems = [f"{type(exc).__name__}: {exc}"]
            seconds = time.perf_counter() - start
            if outcome is not None:
                problems = workloads.check(self.workload, self.seed, outcome.summary, self.tiny)
            written = sum(p.stat().st_size for p in Path(out_dir).rglob("*") if p.is_file())
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if problems:
            self.failed += 1
            self.problems += problems
        return seconds, written, tracer


def end_to_end(runner: Runner, seconds: float, setup_repeats: int) -> tuple[dict, dict]:
    setup = measure_setup(runner.cfg, setup_repeats)
    runner.warm_up()
    times = []
    start = time.perf_counter()
    while True:
        times.append(runner.call()[0])
        # stop when another call would end past the budget
        if time.perf_counter() - start + statistics.median(times) > seconds:
            break
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "run_s": (statistics.median(times), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mib": (peak_kib / 1024.0, "MiB"),
    }
    return metrics, {"run_s_samples": times, "setup_s_samples": setup}


def per_layer(runner: Runner) -> tuple[dict, dict]:
    """Span metrics of a traced call; memory peaks of a call traced with ``tracemalloc``.

    Untraced and traced calls alternate, and the tracing overhead is the
    median of the differences within each adjacent pair.
    """
    runner.warm_up()
    untraced, overheads = [], []
    for _ in range(OVERHEAD_PAIRS):
        untraced.append(runner.call()[0])
        seconds, written, tracer = runner.call(traced=True)
        overheads.append(seconds - untraced[-1])
        if tracer is None:
            raise RuntimeError("a traced call failed: " + "; ".join(runner.problems))
    _, _, mem_tracer = runner.call(traced=True, memory=True)
    if mem_tracer is None:
        raise RuntimeError("a traced call failed: " + "; ".join(runner.problems))
    layers = tracer.layer_totals()
    peaks = mem_tracer.layer_totals()
    counts = tracer.counts
    run = next(s for s in tracer.spans if s.layer == "harness").duration
    setup = tracer.setup_self_s()

    def self_s(layer):
        return layers[layer]["self_s"] if layer in layers else 0.0

    def peak_mib(layer):
        return peaks[layer]["peak_mib"] if layer in peaks else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    named = sum(v["self_s"] for k, v in layers.items() if k != "harness") + setup
    metrics = {
        "flows.solve_self_s": (self_s("flows.solve"), "s"),
        "flows.solve_peak_mib": (peak_mib("flows.solve"), "MiB"),
        "flows.apply_self_s": (self_s("flows.apply"), "s"),
        "flows.apply_peak_mib": (peak_mib("flows.apply"), "MiB"),
        "flows.baseline_s": (self_s("flows.baseline"), "s"),
        "flows.loop_self_s": (self_s("flows.loop"), "s"),
        "flows.iterations": (counts["iterations"], "count"),
        "kernels.bandwidth_s": (self_s("kernels.bandwidth"), "s"),
        "kernels.bandwidth_calls": (counts["bandwidth_calls"], "count"),
        "kernels.bandwidth_pairs": (counts["bandwidth_pairs"], "count"),
        "manifold.features_s": (self_s("manifold.features"), "s"),
        "manifold.jacobian_s": (self_s("manifold.jacobian"), "s"),
        "manifold.fisher_self_s": (self_s("manifold.fisher"), "s"),
        "manifold.feature_rows_per_particle_iter": (
            ratio(counts["feature_rows"], counts["drift_particle_iters"]), "rows"),
        "manifold.jacobian_rows_per_particle_iter": (
            ratio(counts["jacobian_rows"], counts["drift_particle_iters"]), "rows"),
        "linalg.chol_s": (self_s("linalg.chol"), "s"),
        "linalg.jitter_escalations": (counts["jitter_escalations"], "count"),
        "metrics.mmd_s": (self_s("metrics.mmd"), "s"),
        "metrics.w2_s": (self_s("metrics.w2"), "s"),
        "ngd.exact_step_s": (self_s("ngd.exact_step"), "s"),
        "harness.setup_s": (setup, "s"),
        "harness.write_s": (self_s("harness.write"), "s"),
        "harness.bytes_written": (written, "bytes"),
        "trace.run_s": (run, "s"),
        "trace.overhead_s": (statistics.median(overheads), "s"),
        "trace.coverage": (named / run, "share"),
    }
    detail = {
        "untraced_run_s": untraced,
        "overhead_s_samples": overheads,
        "missing_spans": runner.missing_spans,
        "calls": {k: v["calls"] for k, v in sorted(layers.items())},
    }
    return metrics, detail


def environment() -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="kingflow scenario benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run tiny versions of the workloads")
    args = parser.parse_args(argv)

    if not (SRC / "kingflow" / "harness" / "scenarios.py").is_file():
        return _fail(f"no kingflow source tree under {SRC}")
    sys.path.insert(0, str(SRC))
    import kingflow

    if SRC not in Path(kingflow.__file__).resolve().parents:
        return _fail(f"kingflow was imported from {kingflow.__file__}, not from {SRC}")

    # Outputs stay inside the source tree; the directory goes when the run ends.
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench_out_") as out_root:
        runner = Runner(args.workload, args.seed, args.smoke, out_root)
        if args.trace:
            metrics, detail = per_layer(runner)
        else:
            metrics, detail = end_to_end(runner, args.seconds, 1 if args.smoke else SETUP_REPEATS)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "config": runner.cfg,
        "environment": environment(),
        "error_rate": runner.failed / runner.attempted,
        "problems": runner.problems,
        **detail,
    }
    print(json.dumps(record))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
