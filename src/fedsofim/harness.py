"""Experiment orchestration: round loop, plans, grid search, metrics emission.

A plan resolves to (task bundle, config) deterministically from the master
seed, and every client-round draws from its own derived stream, handed out by
the run's one schedule, round_streams.  Nothing in this module may import
``fedsofim.oracles`` — the dense preconditioner must stay unreachable from
production runs.
"""

from __future__ import annotations

import functools
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
    is_integer,
    validate_config,
    with_updates,
    HOLDOUT_STREAM_TAG,
    PARTITION_STREAM_TAG,
    TASK_STREAM_TAG,
)
from .server import aggregate, fedgd_step, sofim_step
from .task import (
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


def _keeps_its_last_bundle(build):
    """Keep a binding's bundle for its last (n, master_seed), types included:
    that key returns the same bundle, and any other key drops it before
    building, so a binding holds at most one.  A failed build keeps nothing."""
    @functools.wraps(build)
    def bundle(self, n: int, master_seed: int) -> "TaskBundle":
        key = (type(n), n, type(master_seed), master_seed)
        kept = self.__dict__.pop("_kept_bundle", None)
        if kept is None or kept[0] != key:
            del kept  # the old bundle goes before the new one is built
            kept = key, build(self, n, master_seed)
        self.__dict__["_kept_bundle"] = kept
        return kept[1]
    return bundle


@dataclass(frozen=True)
class FeatureTaskBinding:
    """Frozen-feature file task: path(s) plus head hyperparameters.

    Without an explicit test file, a deterministic seeded holdout split is
    carved from the training file (fraction controlled by holdout_fraction).

    The binding reads and stacks each file once, at its first bundle, and
    every bundle's stacks are column gathers of those; so a file edited after
    that needs a new binding.  Bindings over identical content share one
    read-only parse (load_frozen_features), whose buffer each file's stack
    wraps: the process holds a file's features once.  It keeps its last bundle.
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
        elif self.holdout_fraction == 0 and self.test_path is None:
            problems.append("holdout_fraction must be positive when no test file is given")
        if problems:
            raise ValueError("; ".join(problems))

    @functools.cached_property
    def _files(self) -> tuple:
        """(head, train file's stack, test file's stack or None), built once:
        a failed read raises and keeps nothing, so the next bundle reads again."""
        train_data, classes = load_frozen_features(self.train_path)
        head = SoftmaxHeadTask(classes, train_data.feature_dim, self.l2_lambda)
        if self.test_path is None:
            return head, head.stack((train_data,)), None
        test_data, test_classes = load_frozen_features(self.test_path)
        if test_data.feature_dim != train_data.feature_dim:
            raise ValueError("train and test feature dimensions differ")
        if test_classes != classes:
            raise ValueError("train and test class counts differ")
        return head, head.stack((train_data,)), head.stack((test_data,))

    @_keeps_its_last_bundle
    def bundle(self, n: int, master_seed: int) -> "TaskBundle":
        """The softmax head over the file's features, its training rows
        split into n shards by master_seed's partition stream."""
        head, whole, test = self._files
        rows = np.arange(whole.sizes[0])
        if test is None:
            holdout_rng = np.random.default_rng(derive_stream_seed(master_seed, HOLDOUT_STREAM_TAG, 0))
            rows = holdout_rng.permutation(rows.size)
            cut = int(round(self.holdout_fraction * rows.size))
            if cut == 0:
                raise ValueError(f"holdout_fraction {self.holdout_fraction!r} holds out no row of {rows.size}")
            if cut >= rows.size:
                raise ValueError("holdout fraction leaves no training data")
            test, rows = whole.take(rows[:cut], (cut,)), rows[cut:]
        shards = partition_iid(rows.size, n, seed=derive_stream_seed(master_seed, PARTITION_STREAM_TAG, 0))
        train = whole.take(rows[np.concatenate(shards)], tuple(shard.size for shard in shards))
        return TaskBundle(task=head, train=train, test=test)


@dataclass(frozen=True)
class QuadraticTaskBinding:
    """Synthetic quadratic task generated from the plan's master seed; it keeps its last bundle."""

    d: int
    mu: float
    L: float
    heterogeneity: float = 1.0
    shard_size: int = 10

    def __post_init__(self):
        problems = quadratic_problems(self.d, self.mu, self.L, self.heterogeneity, self.shard_size)
        if problems:
            raise ValueError("; ".join(problems))

    @_keeps_its_last_bundle
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
    run's training data takes, and its test set as a one-shard stack (None
    for a quadratic, which is evaluated in closed form)."""

    task: Task
    train: FeatureStack | QuadraticStack
    test: Optional[FeatureStack] = None

    def evaluate(self, theta: np.ndarray) -> tuple:
        """(train_loss, test_accuracy, suboptimality_gap or None) at theta: the
        task's row, or where theta, the loss or the accuracy is not finite the
        worst row, (inf, 0.0, inf or None as the task's gap), which a grid ranks last."""
        with np.errstate(over="ignore", invalid="ignore"):
            loss, accuracy, gap = row = self.task.evaluate(theta, self.train, self.test)
        if math.isfinite(loss) and math.isfinite(accuracy) and np.isfinite(theta).all():
            return row
        return math.inf, 0.0, None if gap is None else math.inf


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
    if not is_integer(plan.eval_every):
        raise ValueError("eval_every must be an integer")
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


def _inside_ball(g: np.ndarray, c_g: float) -> np.ndarray:
    """A noiseless mean of rows clipped to c_g, scaled to c_g (1 - 4 eps) if rounding put it past c_g.
    A finite g whose squares overflow takes its norm from g divided by its largest entry, as clip_rows does."""
    norm = np.linalg.norm(g)
    if norm == math.inf and (peak := np.maximum.reduce(np.abs(g))) < math.inf:
        norm = peak * np.linalg.norm(g / peak)
    return g * (c_g * (1.0 - 4.0 * np.finfo(np.float64).eps) / norm) if norm > c_g else g


def round_aggregate(bundle: TaskBundle, theta: np.ndarray, c_g: float, sigma_g: float, n: int, streams,
                    batch_size: int = 0) -> np.ndarray:
    """A round's aggregate at theta, for the run, the diagnostics and the suites alike: the n clients'
    releases averaged by the server, inside the ball of radius c_g if noiseless.  Overflow is silent."""
    with np.errstate(over="ignore", invalid="ignore"):
        g = aggregate(release_round(bundle.train, theta, c_g, sigma_g, n, streams, bundle.task, batch_size), n)
        return _inside_ball(g, c_g) if sigma_g == 0 else g


def run_round(bundle: TaskBundle, state: ServerState, config: FederatedConfig, streams) -> tuple:
    """One round: round_aggregate and the optimizer step, for the round's
    entry of round_streams(config).  Returns (new_state, aggregate)."""
    g = round_aggregate(bundle, state.theta, config.clip_cg, config.sigma_g, config.n, streams, config.batch_size)
    with np.errstate(over="ignore", invalid="ignore"):
        if config.optimizer is Optimizer.SOFIM:
            return sofim_step(state, g, config), g
        return fedgd_step(state, g, config.eta), g


def round_streams(config: FederatedConfig):
    """The run's stream schedule: for each of the T rounds, the n client
    streams ``derive_noise_stream(master_seed, i, t)``.  Releases that draw
    nothing (no noise and no mini-batches) get None for a stream."""
    if config.sigma_g > 0 or config.batch_size > 0:
        return derive_noise_streams(config.master_seed, config.n, config.T)
    return itertools.repeat((None,) * config.n, config.T)


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
    """Run a full T-round experiment from a validated plan: run_round over
    round_streams(config).

    Metrics are evaluated every eval_every rounds and always at the final
    round; elapsed is recorded only under record_timing.
    """
    config = resolve_sigma(plan)
    bundle = build_bundle(plan.binding, config.n, config.master_seed)
    state = ServerState.initial(np.zeros(bundle.task.dim))
    rows = []
    start = time.perf_counter()
    for t, streams in enumerate(round_streams(config)):
        state, g = run_round(bundle, state, config, streams)
        if (t + 1) % plan.eval_every == 0 or t == config.T - 1:
            train_loss, test_accuracy, gap = bundle.evaluate(state.theta)
            elapsed = time.perf_counter() - start if plan.record_timing else 0.0
            rows.append(RoundMetrics(t + 1, train_loss, test_accuracy, float(np.linalg.norm(g)), gap, elapsed))
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
    draws together.  Seeds are the outer loop, so a seed's cells share the
    binding's kept bundle, and a run evaluates only its final round (the
    plan's eval_every changes no row).  Selection is the argmax of mean final
    accuracy; exact ties break toward smaller eta, then smaller clip_cg, rho
    and beta (an axis left out of the grid keeps the base config's value).
    Returns (best_config, sweep_rows) where each sweep row records the cell
    and its mean final accuracy/loss over its seeds, in seed order.
    """
    validate_plan(base_plan)
    if not is_integer(seeds):
        raise ValueError("seeds must be an integer")
    if seeds < 1:
        raise ValueError("seeds must be >= 1")
    candidates = [getattr(grid, axis + "s") or (getattr(base_plan.config, axis),) for axis in GRID_AXES]
    cells = [dict(zip(GRID_AXES, values)) for values in itertools.product(*candidates)]
    tables = [[] for _ in cells]
    for k in range(seeds):
        for cell, runs in zip(cells, tables):
            config = with_updates(base_plan.config, **cell, master_seed=base_plan.config.master_seed + k)
            runs.append(run_experiment(replace(base_plan, config=config, eval_every=config.T, output_path=None)))
    sweep = [{**cell, "mean_final_accuracy": float(np.mean([run.final_accuracy() for run in runs])),
              "mean_final_loss": float(np.mean([run.final_loss() for run in runs]))}
             for cell, runs in zip(cells, tables)]
    best = min(sweep, key=lambda r: (-r["mean_final_accuracy"], *(r[axis] for axis in GRID_AXES)))
    return with_updates(base_plan.config, **{axis: best[axis] for axis in GRID_AXES}), sweep


# ---------------------------------------------------------------------------
# Diagnostics helpers shared by the verify suites and tests


def clipped_aggregate(bundle: TaskBundle, theta: np.ndarray, c_g: float) -> np.ndarray:
    """round_aggregate's noiseless full-batch aggregate at theta (no streams)."""
    n = len(bundle.train.sizes)
    return round_aggregate(bundle, theta, c_g, 0.0, n, (None,) * n)


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
