"""Command-line entry points.

Subcommands:
  run        one federated experiment (settings echoed, metrics to file/stdout)
  calibrate  smallest noise multiplier meeting an (epsilon, delta) budget
  grid       tuning sweep over step sizes / clipping radii, prints the winner
  verify     one numerical verification suite; nonzero exit on failure
  gen-task   synthetic frozen-feature file for classification runs

The verification module (and with it the dense linear-algebra oracle) is
imported lazily inside the verify handler only, so run/grid/calibrate paths
never load it.
"""

from __future__ import annotations

import argparse
import sys

from .accountant import calibrate_sigma, composed_delta
from .core import FederatedConfig, load_config, parse_config_text
from .harness import (
    ExperimentPlan,
    FeatureTaskBinding,
    GridSpec,
    QuadraticTaskBinding,
    emit_metrics,
    grid_search,
    run_experiment,
)
from .task import make_anisotropic_features, save_frozen_features

_CONFIG_FLAG_KEYS = ("n", "T", "eta", "clip_cg", "sigma_g", "beta", "rho", "master_seed", "optimizer", "batch_size")
_INT_KEYS = {"n", "T", "master_seed", "batch_size"}


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, metavar="PATH", help="key = value settings file")
    for key in _CONFIG_FLAG_KEYS:
        if key == "optimizer":
            p.add_argument("--optimizer", choices=["SOFIM", "FEDGD", "sofim", "fedgd"], default=None)
        else:
            p.add_argument(f"--{key}", type=int if key in _INT_KEYS else float, default=None)


def _add_task_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--features", default=None, metavar="PATH", help="frozen-feature training file")
    p.add_argument("--test-features", default=None, metavar="PATH", help="held-out feature file")
    p.add_argument("--l2-lambda", type=float, default=1e-4)
    p.add_argument("--holdout-fraction", type=float, default=0.2,
                   help="test split carved from --features when no --test-features")
    p.add_argument("--quadratic", action="store_true", help="synthetic quadratic task instead of features")
    p.add_argument("--dim", type=int, default=10)
    p.add_argument("--mu", type=float, default=0.1)
    p.add_argument("--L", type=float, default=5.0)
    p.add_argument("--heterogeneity", type=float, default=1.0)
    p.add_argument("--shard-size", type=int, default=10)


def _resolve_config(args: argparse.Namespace) -> FederatedConfig:
    overrides = {k: getattr(args, k) for k in _CONFIG_FLAG_KEYS if getattr(args, k) is not None}
    if args.config is not None:
        return load_config(args.config, overrides)
    return parse_config_text("", overrides)


def _resolve_binding(args: argparse.Namespace):
    if args.quadratic == (args.features is not None):
        raise ValueError("choose exactly one task: --features PATH or --quadratic")
    if args.quadratic:
        return QuadraticTaskBinding(
            d=args.dim, mu=args.mu, L=args.L,
            heterogeneity=args.heterogeneity, shard_size=args.shard_size,
        )
    return FeatureTaskBinding(
        train_path=args.features,
        test_path=args.test_features,
        l2_lambda=args.l2_lambda,
        holdout_fraction=args.holdout_fraction,
    )


def _cmd_run(args: argparse.Namespace) -> int:
    plan = ExperimentPlan(
        config=_resolve_config(args),
        binding=_resolve_binding(args),
        epsilon=args.epsilon,
        delta=args.delta,
        eval_every=args.eval_every,
        output_path=args.output,
        record_timing=args.timing,
    )
    table = run_experiment(plan)
    for key, value in table.header.items():
        print(f"{key} = {value}")
    if args.output is not None:
        print(f"wrote {len(table.rows)} metric rows to {args.output}")
    else:
        emit_metrics(table, sys.stdout)
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    sigma = calibrate_sigma(args.epsilon, args.delta, args.n, args.T)
    achieved = composed_delta(args.epsilon, sigma, args.n, args.T)
    print(f"sigma_g = {sigma!r}")
    print(f"delta = {achieved!r}")
    return 0


def _parse_float_list(text: str, flag: str) -> tuple:
    try:
        values = tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise ValueError(f"{flag} expects comma-separated numbers, got {text!r}") from None
    if not values:
        raise ValueError(f"{flag} expects at least one value")
    return values


def _cmd_grid(args: argparse.Namespace) -> int:
    plan = ExperimentPlan(
        config=_resolve_config(args),
        binding=_resolve_binding(args),
        epsilon=args.epsilon,
        delta=args.delta,
        eval_every=args.eval_every,
    )
    grid = GridSpec(
        etas=_parse_float_list(args.etas, "--etas"),
        clip_cgs=_parse_float_list(args.clip_cgs, "--clip_cgs"),
        rhos=None if args.rhos is None else _parse_float_list(args.rhos, "--rhos"),
        betas=None if args.betas is None else _parse_float_list(args.betas, "--betas"),
    )
    best, sweep = grid_search(plan, grid, seeds=args.seeds)
    for row in sweep:
        print(
            f"eta={row['eta']!r} clip_cg={row['clip_cg']!r} rho={row['rho']!r} beta={row['beta']!r} "
            f"accuracy={row['mean_final_accuracy']!r} loss={row['mean_final_loss']!r}"
        )
    print("best:")
    print(f"eta = {best.eta!r}")
    print(f"clip_cg = {best.clip_cg!r}")
    print(f"rho = {best.rho!r}")
    print(f"beta = {best.beta!r}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from . import verify  # imports the dense oracle; keep out of run paths

    report = verify.verify_theory(args.suite, args.seed)
    for line in report.lines():
        print(line)
    return 0 if report.passed else 1


def _cmd_gen_task(args: argparse.Namespace) -> int:
    dataset = make_anisotropic_features(
        num_examples=args.examples,
        feature_dim=args.dim,
        num_classes=args.classes,
        condition=args.condition,
        separation=args.separation,
        seed=args.seed,
    )
    save_frozen_features(args.output, dataset, args.classes)
    print(f"wrote {dataset.size} examples (dim={dataset.feature_dim}, classes={args.classes}) to {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fedsofim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one federated experiment")
    _add_config_flags(p_run)
    _add_task_flags(p_run)
    p_run.add_argument("--epsilon", type=float, default=None, help="privacy target (requires --delta, sigma_g = 0)")
    p_run.add_argument("--delta", type=float, default=None)
    p_run.add_argument("--eval-every", type=int, default=10)
    p_run.add_argument("--output", default=None, metavar="PATH", help="metrics file (stdout when omitted)")
    p_run.add_argument("--timing", action="store_true", help="record wall-clock in the elapsed column")
    p_run.set_defaults(handler=_cmd_run)

    p_cal = sub.add_parser("calibrate", help="solve for the smallest feasible noise multiplier")
    p_cal.add_argument("--epsilon", type=float, required=True)
    p_cal.add_argument("--delta", type=float, required=True)
    p_cal.add_argument("--n", type=int, required=True)
    p_cal.add_argument("--T", type=int, required=True)
    p_cal.set_defaults(handler=_cmd_calibrate)

    p_grid = sub.add_parser("grid", help="sweep tuning grids and print the selected settings")
    _add_config_flags(p_grid)
    _add_task_flags(p_grid)
    p_grid.add_argument("--epsilon", type=float, default=None)
    p_grid.add_argument("--delta", type=float, default=None)
    p_grid.add_argument("--eval-every", type=int, default=10)
    p_grid.add_argument("--etas", required=True, help="comma-separated step sizes")
    p_grid.add_argument("--clip_cgs", required=True, help="comma-separated clipping radii")
    p_grid.add_argument("--rhos", default=None)
    p_grid.add_argument("--betas", default=None)
    p_grid.add_argument("--seeds", type=int, default=1)
    p_grid.set_defaults(handler=_cmd_grid)

    p_ver = sub.add_parser("verify", help="run one numerical verification suite")
    p_ver.add_argument("--suite", required=True)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.set_defaults(handler=_cmd_verify)

    p_gen = sub.add_parser("gen-task", help="write a synthetic frozen-feature file")
    p_gen.add_argument("--examples", type=int, required=True)
    p_gen.add_argument("--dim", type=int, required=True)
    p_gen.add_argument("--classes", type=int, required=True)
    p_gen.add_argument("--condition", type=float, default=100.0)
    p_gen.add_argument("--separation", type=float, default=1.0)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--output", required=True, metavar="PATH")
    p_gen.set_defaults(handler=_cmd_gen_task)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
