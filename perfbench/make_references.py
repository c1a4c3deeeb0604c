"""Regenerate ``references.json``: reference summary values and their tolerances.

Run from the repository root:

    python3 perfbench/make_references.py

Every workload runs once per seed in ``SEEDS``; those values become the
references.  Each seed then runs again with the rows of the particles and
the targets permuted before they enter ``run_flow``.  The flow gives the same
result in any row order, so the permutation changes only the order of the
floating-point sums over particles, in the Gram assembly and the drift apply
among others.  The relative change it causes is that value's drift on that
seed.  Each value's tolerance is ``TOL_FACTOR`` times its largest drift over
the seeds, and never below ``TOL_FLOOR``.

Both runs pin the BLAS pool to one thread.  Regenerate only on a commit whose
outputs are known to be right.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(20)
TOL_FACTOR = 1000.0
TOL_FLOOR = 1e-7
PERMUTATION_SEED = 12345


def _permuting(run_flow):
    """``run_flow`` with the rows of ``init`` and ``targets`` permuted first."""
    import numpy as np

    def _shuffled(particles):
        if particles is None:
            return None
        order = np.random.default_rng(PERMUTATION_SEED).permutation(particles.n)
        return particles.with_points(particles.points[order])

    def wrapped(method, fmap, kernel, targets, init, *args, **kwargs):
        return run_flow(method, fmap, kernel, _shuffled(targets), _shuffled(init), *args, **kwargs)

    return wrapped


def _child(workload: str, permute: bool) -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from kingflow.harness import scenarios
    from kingflow.harness.config import RunConfig

    import workloads

    if permute:
        scenarios.run_flow = _permuting(scenarios.run_flow)
    out = {}
    for seed in SEEDS:
        outcome = scenarios.execute_scenario(RunConfig.from_dict(workloads.config(workload, seed)))
        out[str(seed)] = workloads.checked_values(workload, outcome.summary)
    print(json.dumps(out))


def _run(workload: str, permute: bool) -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", workload]
    if permute:
        cmd.append("--permute")
    done = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--permute", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        _child(args.child, args.permute)
        return 0

    sys.path.insert(0, str(HERE))
    import workloads

    refs = {"values": {}, "drift": {}, "tolerances": {},
            "tol_factor": TOL_FACTOR, "tol_floor": TOL_FLOOR}
    for workload in workloads.WORKLOADS:
        values = _run(workload, permute=False)
        permuted = _run(workload, permute=True)
        drift = {
            seed: {name: abs(permuted[seed][name] - v) / abs(v) if v else abs(permuted[seed][name])
                   for name, v in row.items()}
            for seed, row in values.items()
        }
        tolerances = {
            name: max(TOL_FACTOR * max(d[name] for d in drift.values()), TOL_FLOOR)
            for name in values["0"]
        }
        refs["values"][workload] = values
        refs["drift"][workload] = drift
        refs["tolerances"][workload] = tolerances
        print(workload, json.dumps(tolerances), file=sys.stderr)
    (HERE / "references.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
