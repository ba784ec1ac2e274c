"""Experiment orchestration: round loop, plans, grid search, metrics emission.

A plan resolves to (task bundle, config) deterministically from the master
seed, and every client-round draws from its own derived stream.  Nothing in
this module may import ``fedsofim.oracles`` — the dense preconditioner must
stay unreachable from production runs.
"""

from __future__ import annotations

import itertools
import logging
import math
import time
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

import numpy as np

from .accountant import calibrate_sigma
from .client import release_round
from .core import (
    CONFIG_TYPES,
    FederatedConfig,
    Optimizer,
    RoundMetrics,
    ServerState,
    derive_noise_streams,
    derive_stream_seed,
    validate_config,
    with_updates,
    HOLDOUT_STREAM_TAG,
    PARTITION_STREAM_TAG,
    TASK_STREAM_TAG,
)
from .server import aggregate, fedgd_step, sofim_step
from .task import (
    FeatureDataset,
    FeatureStack,
    QuadraticStack,
    SoftmaxHeadTask,
    Task,
    load_frozen_features,
    make_synthetic_quadratic,
    partition_iid,
    quadratic_problems,
)

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Task bindings and bundles


@dataclass(frozen=True)
class FeatureTaskBinding:
    """Frozen-feature file task: path(s) plus head hyperparameters.

    Without an explicit test file, a deterministic seeded holdout split is
    carved from the training file (fraction controlled by holdout_fraction).
    """

    train_path: str
    test_path: Optional[str] = None
    l2_lambda: float = 1e-4
    holdout_fraction: float = 0.2

    def __post_init__(self):
        problems = []
        if not 0 <= self.l2_lambda < math.inf:
            problems.append("l2_lambda must be nonnegative and finite")
        if not 0 <= self.holdout_fraction < 1:
            problems.append("holdout_fraction must lie in [0, 1)")
        if problems:
            raise ValueError("; ".join(problems))

    def bundle(self, n: int, master_seed: int) -> "TaskBundle":
        """The softmax head over the file's features, its training rows
        split into n shards by master_seed's partition stream."""
        train_data, meta = load_frozen_features(self.train_path)
        if self.test_path is not None:
            test_data, test_meta = load_frozen_features(self.test_path)
            if test_meta["feature_dim"] != meta["feature_dim"]:
                raise ValueError("train and test feature dimensions differ")
            if test_meta["num_classes"] != meta["num_classes"]:
                raise ValueError("train and test class counts differ")
        else:
            holdout_rng = np.random.default_rng(derive_stream_seed(master_seed, HOLDOUT_STREAM_TAG, 0))
            perm = holdout_rng.permutation(train_data.size)
            cut = max(1, int(round(self.holdout_fraction * train_data.size)))
            if cut >= train_data.size:
                raise ValueError("holdout fraction leaves no training data")
            test_data = train_data.subset(perm[:cut])
            train_data = train_data.subset(perm[cut:])
        shards = partition_iid(train_data, n, seed=derive_stream_seed(master_seed, PARTITION_STREAM_TAG, 0))
        head = SoftmaxHeadTask(meta["num_classes"], meta["feature_dim"], self.l2_lambda)
        return TaskBundle(task=head, train=head.stack(shards), test=test_data)


@dataclass(frozen=True)
class QuadraticTaskBinding:
    """Synthetic quadratic task generated from the plan's master seed."""

    d: int
    mu: float
    L: float
    heterogeneity: float = 1.0
    shard_size: int = 10

    def __post_init__(self):
        problems = quadratic_problems(self.d, self.mu, self.L, self.heterogeneity, self.shard_size)
        if problems:
            raise ValueError("; ".join(problems))

    def bundle(self, n: int, master_seed: int) -> "TaskBundle":
        """The quadratic drawn from master_seed's task stream, in n shards."""
        task, shards = make_synthetic_quadratic(self.d, n, self.mu, self.L, self.heterogeneity,
                                                seed=derive_stream_seed(master_seed, TASK_STREAM_TAG, 0),
                                                shard_size=self.shard_size)
        return TaskBundle(task=task, train=task.stack(shards))


TaskBinding = Union[FeatureTaskBinding, QuadraticTaskBinding]


@dataclass(frozen=True)
class TaskBundle:
    """A task plus the stack of its per-client shards, the one form the
    run's training data takes, and its evaluation data."""

    task: Task
    train: FeatureStack | QuadraticStack
    test: Optional[FeatureDataset] = None

    @property
    def dim(self) -> int:
        return self.task.dim

    def evaluate(self, theta: np.ndarray) -> tuple:
        """(train_loss, test_accuracy, suboptimality_gap or None) at theta."""
        return self.task.evaluate(theta, self.train, self.test)


def build_bundle(binding: TaskBinding, n: int, master_seed: int) -> TaskBundle:
    """Resolve a binding into its task and n client shards, deterministically."""
    return binding.bundle(n, master_seed)


# ---------------------------------------------------------------------------
# Plans


@dataclass(frozen=True)
class ExperimentPlan:
    """Everything run_experiment needs, with the privacy mode made explicit.

    Exactly one of three modes holds: a privacy target (epsilon, delta) that
    calibration turns into sigma_g; an explicit sigma_g > 0 in the config; or
    the non-private mode sigma_g = 0.  Setting a target together with a
    nonzero sigma_g is rejected as ambiguous.

    elapsed seconds are recorded only when record_timing is set; by default
    the column is written as 0.0 so two runs of one plan emit byte-identical
    files.
    """

    config: FederatedConfig
    binding: TaskBinding
    epsilon: Optional[float] = None
    delta: Optional[float] = None
    eval_every: int = 10
    output_path: Optional[str] = None
    record_timing: bool = False


def validate_plan(plan: ExperimentPlan) -> ExperimentPlan:
    validate_config(plan.config)
    has_target = plan.epsilon is not None or plan.delta is not None
    if has_target:
        if plan.epsilon is None or plan.delta is None:
            raise ValueError("privacy target requires both epsilon and delta")
        if plan.config.sigma_g != 0:
            raise ValueError("set either a privacy target or an explicit sigma_g, not both")
    if plan.eval_every < 1:
        raise ValueError("eval_every must be >= 1")
    return plan


def resolve_sigma(plan: ExperimentPlan) -> FederatedConfig:
    """Return the plan's config with sigma_g made concrete."""
    validate_plan(plan)
    if plan.epsilon is not None:
        sigma = calibrate_sigma(plan.epsilon, plan.delta, plan.config.n, plan.config.T)
        return with_updates(plan.config, sigma_g=sigma)
    return plan.config


# ---------------------------------------------------------------------------
# Round loop


def run_round(
    bundle: TaskBundle,
    state: ServerState,
    config: FederatedConfig,
    round_index: int,
    evaluate: bool = True,
    streams=None,
) -> tuple:
    """Execute one full round: every client's release, aggregate, optimizer step.

    Deterministic given (config, round_index): client i's release draws from
    its own derived stream, ``derive_noise_stream(master_seed, i,
    round_index)``; ``streams`` may hand in that round's n streams, already
    derived.  Returns (new_state, RoundMetrics or None).
    """
    if not 0 <= round_index < config.T:
        raise ValueError(f"round {round_index} outside [0, {config.T})")
    if streams is None:
        (streams,) = _stream_rounds(config, round_index, 1)
    releases = release_round(bundle.train, state.theta, config.clip_cg, config.sigma_g, config.n, streams,
                             bundle.task, config.batch_size)
    g = aggregate(releases, config.n)
    with np.errstate(over="ignore", invalid="ignore"):
        if config.optimizer is Optimizer.SOFIM:
            new_state = sofim_step(state, g, config)
        else:
            new_state = fedgd_step(state, g, config.eta)

    metrics = None
    if evaluate:
        train_loss, test_accuracy, gap = bundle.evaluate(new_state.theta)
        metrics = RoundMetrics(
            round=round_index + 1,
            train_loss=train_loss,
            test_accuracy=test_accuracy,
            aggregate_grad_norm=float(np.linalg.norm(g)),
            suboptimality_gap=gap,
        )
    return new_state, metrics


def _stream_rounds(config: FederatedConfig, first_round: int, rounds: int):
    """Each round's n client streams from first_round on.  Releases that
    draw nothing (no noise and no mini-batches) get None for a stream."""
    if config.sigma_g > 0 or config.batch_size > 0:
        return derive_noise_streams(config.master_seed, config.n, rounds, first_round)
    return itertools.repeat((None,) * config.n, rounds)


@dataclass(frozen=True)
class MetricsTable:
    """Evaluated rows plus a header echoing the fully resolved run settings."""

    rows: tuple
    header: dict

    def final_accuracy(self) -> float:
        if not self.rows:
            raise ValueError("empty metrics table")
        return self.rows[-1].test_accuracy

    def final_loss(self) -> float:
        if not self.rows:
            raise ValueError("empty metrics table")
        return self.rows[-1].train_loss


def run_experiment(plan: ExperimentPlan) -> MetricsTable:
    """Run a full T-round experiment from a validated plan.

    Metrics are evaluated every eval_every rounds and always at the final
    round.
    """
    config = resolve_sigma(plan)
    bundle = build_bundle(plan.binding, config.n, config.master_seed)
    state = ServerState.initial(np.zeros(bundle.dim))
    rows = []
    start = time.perf_counter()
    for t, streams in enumerate(_stream_rounds(config, 0, config.T)):
        evaluate = ((t + 1) % plan.eval_every == 0) or (t == config.T - 1)
        state, metrics = run_round(bundle, state, config, t, evaluate=evaluate, streams=streams)
        if metrics is not None:
            if plan.record_timing:
                metrics = replace(metrics, elapsed=time.perf_counter() - start)
            rows.append(metrics)
    header = {
        "optimizer": config.optimizer.value,
        **{key: getattr(config, key) for key in CONFIG_TYPES if key != "optimizer"},
        "eval_every": plan.eval_every,
        "epsilon": plan.epsilon,
        "delta": plan.delta,
    }
    table = MetricsTable(rows=tuple(rows), header=header)
    if plan.output_path is not None:
        with open(plan.output_path, "w", encoding="utf-8") as fh:
            emit_metrics(table, fh)
    return table


# ---------------------------------------------------------------------------
# Metrics files

_COLUMNS = ("round", "train_loss", "test_accuracy", "aggregate_grad_norm", "suboptimality_gap", "elapsed")


def emit_metrics(table: MetricsTable, fh) -> None:
    """Write metrics to an open text stream as comma-separated text with one
    fixed-order header row.

    An absent suboptimality gap becomes an empty cell.  Floats are written
    with repr so a round-trip parse reproduces the table exactly.
    """
    fh.write(",".join(_COLUMNS) + "\n")
    for row in table.rows:
        gap = "" if row.suboptimality_gap is None else repr(float(row.suboptimality_gap))
        fh.write(
            f"{row.round},{float(row.train_loss)!r},{float(row.test_accuracy)!r},"
            f"{float(row.aggregate_grad_norm)!r},{gap},{float(row.elapsed)!r}\n"
        )


def read_metrics(path) -> tuple:
    """Parse a file written by emit_metrics back into RoundMetrics rows."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != ",".join(_COLUMNS):
        raise ValueError("not a metrics file: bad or missing header row")
    rows = []
    for line in lines[1:]:
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != len(_COLUMNS):
            raise ValueError(f"bad metrics row: {line!r}")
        rows.append(
            RoundMetrics(
                round=int(cells[0]),
                train_loss=float(cells[1]),
                test_accuracy=float(cells[2]),
                aggregate_grad_norm=float(cells[3]),
                suboptimality_gap=None if cells[4] == "" else float(cells[4]),
                elapsed=float(cells[5]),
            )
        )
    return tuple(rows)


# ---------------------------------------------------------------------------
# Grid search


# The tuned settings, in sweep order (the last varies fastest) and tie-break
# order.  GridSpec holds the candidates for each under the plural name.
GRID_AXES = ("eta", "clip_cg", "rho", "beta")


@dataclass(frozen=True)
class GridSpec:
    """Candidate step sizes and clipping radii (plus optional rho/beta sweeps
    for the preconditioned optimizer)."""

    etas: tuple
    clip_cgs: tuple
    rhos: Optional[tuple] = None
    betas: Optional[tuple] = None

    def __post_init__(self):
        if not self.etas or not self.clip_cgs:
            raise ValueError("grid must list at least one eta and one clip_cg")
        if self.rhos is not None and not self.rhos:
            raise ValueError("rho grid, when given, must be nonempty")
        if self.betas is not None and not self.betas:
            raise ValueError("beta grid, when given, must be nonempty")


def grid_search(base_plan: ExperimentPlan, grid: GridSpec, seeds: int = 1) -> tuple:
    """Sweep the grid, averaging final test accuracy over ``seeds`` reruns.

    Seed k shifts the master seed by k, changing noise, partition, and task
    draws together.  Selection is the argmax of mean final accuracy; exact
    ties break toward smaller eta, then smaller clip_cg, rho and beta (an
    axis left out of the grid keeps the base config's value).  Returns
    (best_config, sweep_rows) where each sweep row records the cell and its
    mean final accuracy/loss.
    """
    validate_plan(base_plan)
    if seeds < 1:
        raise ValueError("seeds must be >= 1")
    candidates = [getattr(grid, axis + "s") or (getattr(base_plan.config, axis),) for axis in GRID_AXES]
    sweep = []
    for values in itertools.product(*candidates):
        cell = dict(zip(GRID_AXES, values))
        accs, losses = [], []
        for k in range(seeds):
            config = with_updates(base_plan.config, **cell, master_seed=base_plan.config.master_seed + k)
            table = run_experiment(replace(base_plan, config=config, output_path=None))
            accs.append(table.final_accuracy())
            losses.append(table.final_loss())
        sweep.append({**cell, "mean_final_accuracy": float(np.mean(accs)),
                      "mean_final_loss": float(np.mean(losses))})
    best = min(sweep, key=lambda r: (-r["mean_final_accuracy"], *(r[axis] for axis in GRID_AXES)))
    return with_updates(base_plan.config, **{axis: best[axis] for axis in GRID_AXES}), sweep


# ---------------------------------------------------------------------------
# Diagnostics helpers shared by the verify suites and tests


def clipped_aggregate(bundle: TaskBundle, theta: np.ndarray, c_g: float) -> np.ndarray:
    """Noiseless clipped aggregate at theta (sigma_g = 0 path, no streams)."""
    n = len(bundle.train.sizes)
    return aggregate(release_round(bundle.train, theta, c_g, 0.0, n, (None,) * n, bundle.task), n)


def detect_early_instability(sofim_rows: Sequence[RoundMetrics], fedgd_rows: Sequence[RoundMetrics]) -> bool:
    """Observation hook: preconditioned run behind at round 10 but caught up
    by round 30.  Logged when seen; never an acceptance gate (it is
    dataset-dependent)."""

    def acc_at(rows, target):
        eligible = [r for r in rows if r.round >= target]
        return min(eligible, key=lambda r: r.round).test_accuracy if eligible else None

    s10, f10 = acc_at(sofim_rows, 10), acc_at(fedgd_rows, 10)
    s30, f30 = acc_at(sofim_rows, 30), acc_at(fedgd_rows, 30)
    if None in (s10, f10, s30, f30):
        return False
    detected = s10 < f10 and s30 >= f30
    if detected:
        logger.info(
            "early-round instability observed: accuracy %.4f < %.4f at round 10, %.4f >= %.4f by round 30",
            s10, f10, s30, f30,
        )
    return detected
