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
from dataclasses import MISSING, fields

from .accountant import calibrate_sigma, composed_delta
from .core import CONFIG_TYPES, load_config, parse_config_text
from .harness import (
    GRID_AXES,
    ExperimentPlan,
    FeatureTaskBinding,
    GridSpec,
    QuadraticTaskBinding,
    emit_metrics,
    grid_search,
    run_experiment,
)
from .task import make_anisotropic_features, save_frozen_features


def _add_plan_flags(p: argparse.ArgumentParser) -> None:
    """Flags shared by run and grid: one per config key (kept as text, so the
    config parser is the one place that casts), the task, and the privacy target."""
    p.add_argument("--config", default=None, metavar="PATH", help="key = value settings file")
    for key in CONFIG_TYPES:
        p.add_argument(f"--{key}", default=None)
    p.add_argument("--features", dest="train_path", metavar="PATH", help="frozen-feature training file")
    p.add_argument("--test-features", dest="test_path", metavar="PATH", help="held-out feature file")
    p.add_argument("--l2-lambda", type=float)
    p.add_argument("--holdout-fraction", type=float,
                   help="test split carved from --features when no --test-features")
    p.add_argument("--quadratic", action="store_true", help="synthetic quadratic task instead of features")
    p.add_argument("--dim", dest="d", type=int, default=10)
    p.add_argument("--mu", type=float, default=0.1)
    p.add_argument("--L", type=float, default=5.0)
    p.add_argument("--heterogeneity", type=float)
    p.add_argument("--shard-size", type=int)
    # Each task flag is stored under its binding's field name, with that field's default where it has one.
    p.set_defaults(**{f.name: f.default for binding in (FeatureTaskBinding, QuadraticTaskBinding)
                      for f in fields(binding) if f.default is not MISSING})
    p.add_argument("--epsilon", type=float, default=None, help="privacy target (requires --delta, sigma_g = 0)")
    p.add_argument("--delta", type=float, default=None)


def _resolve_plan(args: argparse.Namespace, **extra) -> ExperimentPlan:
    overrides = {key: getattr(args, key) for key in CONFIG_TYPES}
    if args.config is not None:
        config = load_config(args.config, overrides)
    else:
        config = parse_config_text("", overrides)
    return ExperimentPlan(
        config=config,
        binding=_resolve_binding(args),
        epsilon=args.epsilon,
        delta=args.delta,
        **extra,
    )


def _resolve_binding(args: argparse.Namespace):
    if args.quadratic == (args.train_path is not None):
        raise ValueError("choose exactly one task: --features PATH or --quadratic")
    binding = QuadraticTaskBinding if args.quadratic else FeatureTaskBinding
    return binding(**{f.name: getattr(args, f.name) for f in fields(binding)})


def _cmd_run(args: argparse.Namespace) -> int:
    plan = _resolve_plan(args, eval_every=args.eval_every, output_path=args.output, record_timing=args.timing)
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
    plan = _resolve_plan(args)
    grid = GridSpec(**{
        f.name: _parse_float_list(getattr(args, f.name), f"--{f.name}")
        for f in fields(GridSpec) if getattr(args, f.name) is not None
    })
    best, sweep = grid_search(plan, grid, seeds=args.seeds)
    for row in sweep:
        cell = " ".join(f"{axis}={row[axis]!r}" for axis in GRID_AXES)
        print(f"{cell} accuracy={row['mean_final_accuracy']!r} loss={row['mean_final_loss']!r}")
    print("best:")
    for axis in GRID_AXES:
        print(f"{axis} = {getattr(best, axis)!r}")
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
    _add_plan_flags(p_run)
    p_run.add_argument("--eval-every", type=int, default=ExperimentPlan.eval_every,
                       help="evaluate every K rounds and at the last")
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
    _add_plan_flags(p_grid)
    for f in fields(GridSpec):
        p_grid.add_argument(f"--{f.name}", required=f.default is MISSING,
                            help=f"comma-separated {f.name[:-1]} values")
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
