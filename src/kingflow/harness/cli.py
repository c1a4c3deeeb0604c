"""Command-line interface.

Exit codes: 0 on success, 2 for configuration or input errors, 3 for
numerical failures inside a run.  Errors are reported as one JSON line on
stderr.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from ..errors import ConfigError, NumericalError
from ..metrics import mmd
from ..particles import ParticleSet
from .config import RunConfig
from .datasets import GgmSpec, gen_gaussian_mixture, gen_ggm_samples, gen_scurve
from .scenarios import _config_errors, execute_scenario


def _write_points_csv(path: Path, particles: ParticleSet) -> None:
    import csv

    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{k}" for k in range(particles.dim)])
        for row in particles.points:
            writer.writerow([repr(float(v)) for v in row])


def _read_points_csv(path: Path) -> ParticleSet:
    if not path.exists():
        raise ConfigError(f"file not found: {path}")
    with path.open() as fh:
        ncols = len([c for c in fh.readline().strip().split(",") if c])
        if ncols == 0:
            raise ConfigError(f"{path} has no header row")
        # A body of blank and comment lines would make genfromtxt warn on stderr.
        if not any(line.split("#", 1)[0].strip() for line in fh):
            raise ConfigError(f"{path} contains no samples")
    try:
        data = np.genfromtxt(path, delimiter=",", skip_header=1, dtype=np.float64, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"could not parse {path}: {exc}") from exc
    if data.shape[1] != ncols:
        raise ConfigError(f"{path} has rows of {data.shape[1]} values under {ncols} header columns")
    if not np.isfinite(data).all():
        raise ConfigError(f"{path} contains non-finite or non-numeric entries")
    return ParticleSet(data)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kingflow",
        description="Natural-gradient guided kernel particle flows.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a scenario from a JSON config")
    run.add_argument("--config", required=True, help="path to a run config JSON file")
    run.add_argument("--seed", type=int, default=None, help="override the config seed")
    run.add_argument("--out", default=None, help="override the output directory")

    gen = sub.add_parser("gen", help="generate a dataset CSV")
    gen_sub = gen.add_subparsers(dest="dataset", required=True)

    mix = gen_sub.add_parser("mixture", help="isotropic Gaussian mixture")
    mix.add_argument("--dim", type=int, default=1)
    mix.add_argument("--n", type=int, default=200)
    mix.add_argument("--seed", type=int, default=0)
    mix.add_argument("--means", type=float, nargs="+", default=[-2.0, 2.0])
    mix.add_argument("--weights", type=float, nargs="+", default=None)
    mix.add_argument("--component-sd", type=float, default=1.0)
    mix.add_argument("--out", required=True)

    scurve = gen_sub.add_parser("scurve", help="3-d S-curve sheet")
    scurve.add_argument("--n", type=int, default=500)
    scurve.add_argument("--noise-sd", type=float, default=0.0)
    scurve.add_argument("--seed", type=int, default=0)
    scurve.add_argument("--out", required=True)

    ggm = gen_sub.add_parser("ggm", help="sparse Gaussian graphical model samples")
    ggm.add_argument("--dim", type=int, default=30)
    ggm.add_argument("--edge-prob", type=float, default=0.05)
    ggm.add_argument("--edge-value", type=float, default=0.3)
    ggm.add_argument("--n", type=int, default=200)
    ggm.add_argument("--seed", type=int, default=0)
    ggm.add_argument("--graph-seed", type=int, default=0)
    ggm.add_argument("--out", required=True)

    ev = sub.add_parser("eval-mmd", help="kernel MMD between two sample CSVs")
    ev.add_argument("sample_a")
    ev.add_argument("sample_b")
    ev.add_argument("--bandwidth", type=float, default=None)
    return parser


def _cmd_run(args) -> int:
    cfg = RunConfig.from_json(args.config)
    changes = {}
    if args.seed is not None:
        changes["seed"] = args.seed
    if args.out is not None:
        changes["out_dir"] = args.out
    if changes:
        cfg = cfg.replace(**changes)
    outcome = execute_scenario(cfg)
    print(json.dumps(outcome.summary, indent=2, sort_keys=True))
    return 0


def _cmd_gen(args) -> int:
    out = Path(args.out)
    if args.dataset == "mixture":
        weights = args.weights
        if weights is None:
            weights = [1.0 / len(args.means)] * len(args.means)
        particles = gen_gaussian_mixture(
            args.dim, args.means, weights, args.n, args.seed,
            component_sd=args.component_sd,
        )
    elif args.dataset == "scurve":
        particles = gen_scurve(args.n, noise_sd=args.noise_sd, seed=args.seed)
    else:
        spec = GgmSpec(
            dim=args.dim,
            edge_prob=args.edge_prob,
            edge_value=args.edge_value,
            seed=args.graph_seed,
        )
        particles = gen_ggm_samples(spec, args.n, args.seed)
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_points_csv(out, particles)
    print(f"wrote {particles.n} samples of dimension {particles.dim} to {out}")
    return 0


def _cmd_eval_mmd(args) -> int:
    sample_a = _read_points_csv(Path(args.sample_a))
    sample_b = _read_points_csv(Path(args.sample_b))
    with _config_errors("eval-mmd"):
        estimate = mmd(sample_a, sample_b, bandwidth=args.bandwidth)
    print(json.dumps({"mmd": estimate.value, "bandwidth": estimate.bandwidth}))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "gen":
            return _cmd_gen(args)
        return _cmd_eval_mmd(args)
    except (NumericalError, ValueError, OSError) as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 3 if isinstance(exc, NumericalError) else 2

if __name__ == "__main__":
    sys.exit(main())
