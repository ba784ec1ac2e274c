"""The benchmark's three workloads, each a closed loop with one caller.

A workload generates its inputs from the seed, sets itself up (``setup``),
then serves one call at a time (``op``) whose output ``check`` verifies.  A
call holds ``ops_per_call`` operations: experiment runs on tuning_grid and
wide_head, Monte Carlo draws of the aggregate release noise on noise_floor.
``fingerprint`` is set by ``setup`` and must repeat across set-ups.

Why these three:

- tuning_grid is the criterion-11 tuning sweep (d=68), the dominant user
  traffic.  Per-call dispatch and re-parsing the feature file every run
  dominate, so parse-once, run-level fan-out and dispatch trims show here.
- noise_floor is the NOISE_FLOOR verify shape (d=8): the smallest release,
  where stream derivation and numpy dispatch in ``client`` are nearly all the
  time.  No feature file, softmax or server step is involved.
- wide_head is one SOFIM run on a wide softmax head (d=2570).  It shares the
  task/client/harness layers with tuning_grid, but bytes dominate rather than
  calls, so a change that trims dispatch at d=68 but costs at width shows.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import replace

import numpy as np

import fedsofim as fs
from fedsofim import accountant, client, core, server

EPSILON, DELTA = 5.0, 1e-5
# Largest allowed distance of a tuned accuracy from its recorded reference.
ACCURACY_TOLERANCE = 0.01
# Largest allowed relative error of the measured noise variance, as in the
# NOISE_FLOOR verify suite.
VARIANCE_RTOL = 0.03

# Input shapes per scale.  "full" is what the benchmark measures; "tiny"
# exists only so the smoke test can run every workload in seconds.
SHAPES = {
    "full": {
        "tuning_grid": dict(examples=8000, features=16, classes=4, n=20, T=70, eval_every=10, seeds=3,
                            etas=(0.2, 1.0), clips=(1.0, 5.0), rho=0.2),
        "noise_floor": dict(min_draws=8000, warmup_draws=2000),
        "wide_head": dict(examples=4000, features=256, classes=10, n=20, T=8, eval_every=4),
    },
    "tiny": {
        "tuning_grid": dict(examples=800, features=16, classes=4, n=4, T=10, eval_every=5, seeds=1,
                            etas=(0.5,), clips=(1.0,), rho=0.2),
        "noise_floor": dict(min_draws=8000, warmup_draws=20),
        "wide_head": dict(examples=400, features=256, classes=10, n=4, T=2, eval_every=1),
    },
}


def _digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return "sha256:" + h.hexdigest()


def _privacy_problem(table, n: int, T: int):
    sigma = table.header["sigma_g"]
    spent = accountant.composed_delta(EPSILON, sigma, n, T)
    if spent > DELTA:
        return f"calibrated sigma_g={sigma!r} spends delta={spent!r} > {DELTA}"
    return None


class TuningGrid:
    """A sub-grid of criterion 11's cells over several seeds, both optimizers.

    One call tunes one (eta, clip_cg) cell for both optimizers: a
    ``grid_search`` over that cell for FEDGD, then one for SOFIM, each over
    the same seeds.  Every call therefore holds the same mix of runs, and
    a grid_search that fans its runs out can show it.  A pass visits every
    cell once; later passes must reproduce the first pass's sweep rows
    exactly.
    """

    name = "tuning_grid"
    op_noun = "run"

    def __init__(self, seed: int, work_dir: str, scale: str):
        self.shape = s = SHAPES[scale][self.name]
        self.seed = seed
        self.features_path = os.path.join(work_dir, "tuning_grid.features")
        self.metrics_path = os.path.join(work_dir, "tuning_grid.metrics")
        self.cells = [(eta, c) for eta in s["etas"] for c in s["clips"]]
        self.ops_per_call = 2 * s["seeds"]
        self.rounds_per_op = s["T"]
        self.releases_per_op = s["T"] * s["n"]

    def setup(self) -> None:
        s = self.shape
        features = fs.make_anisotropic_features(
            num_examples=s["examples"], feature_dim=s["features"], num_classes=s["classes"],
            condition=1e3, separation=1.5, seed=self.seed,
        )
        fs.save_frozen_features(self.features_path, features, num_classes=s["classes"])
        binding = fs.FeatureTaskBinding(train_path=self.features_path)
        self.plans = {}
        for optimizer in fs.Optimizer:
            config = fs.validate_config(fs.FederatedConfig(
                n=s["n"], T=s["T"], eta=0.5, clip_cg=5.0, sigma_g=0.0, beta=0.9, rho=s["rho"],
                master_seed=100 + 1000 * self.seed, optimizer=optimizer,
            ))
            self.plans[optimizer] = fs.ExperimentPlan(
                config=config, binding=binding, epsilon=EPSILON, delta=DELTA, eval_every=s["eval_every"],
            )
        self.sweeps = {}
        self.reruns = 0
        self.next = 0
        warmup = fs.run_experiment(replace(self.plans[fs.Optimizer.SOFIM], output_path=self.metrics_path))
        with open(self.metrics_path, "rb") as fh:
            self.fingerprint = fh.read()
        self.privacy = _privacy_problem(warmup, s["n"], s["T"])

    def op(self):
        cell = self.next % len(self.cells)
        self.next += 1
        eta, c_g = self.cells[cell]
        rows = {}
        for optimizer, plan in self.plans.items():
            rhos = (plan.config.rho,) if optimizer is fs.Optimizer.SOFIM else None
            _, sweep = fs.grid_search(plan, fs.GridSpec(etas=(eta,), clip_cgs=(c_g,), rhos=rhos),
                                      seeds=self.shape["seeds"])
            rows[optimizer.value.lower()] = sweep[0]
        return cell, rows

    def check(self, result) -> list:
        cell, rows = result
        data = json.dumps(rows, sort_keys=True).encode()
        problems = [f"{label}: mean final accuracy outside [0, 1]"
                    for label, row in rows.items() if not 0.0 <= row["mean_final_accuracy"] <= 1.0]
        if cell in self.sweeps:
            self.reruns += 1
            if data != self.sweeps[cell]:
                problems.append(f"rerun of cell {self.cells[cell]} changed its sweep rows")
        else:
            self.sweeps[cell] = data
        return problems

    def satisfied(self) -> bool:
        return len(self.sweeps) == len(self.cells) and self.reruns > 0

    def tuned_accuracy(self) -> dict:
        """Best mean final accuracy per optimizer over the first pass."""
        best = {}
        for data in self.sweeps.values():
            for label, row in json.loads(data).items():
                best[label] = max(best.get(label, -1.0), row["mean_final_accuracy"])
        return best

    def digest(self) -> str:
        return _digest([self.fingerprint] + [self.sweeps[cell] for cell in sorted(self.sweeps)])

    def extra_metrics(self) -> list:
        note = f"best of {len(self.cells)} cells, mean over {self.shape['seeds']} seeds"
        return [(f"tuned_accuracy.{label}", acc, "frac", note) for label, acc in sorted(self.tuned_accuracy().items())]

    def final_checks(self, reference) -> list:
        """(name, passed, detail): privacy of the calibrated sigma, and each
        tuned accuracy against its recorded reference."""
        checks = [("calibrated_sigma_meets_delta", self.privacy is None,
                   self.privacy or f"composed_delta at epsilon={EPSILON} is at most delta={DELTA}")]
        for label, acc in sorted(self.tuned_accuracy().items()):
            name = f"tuned_accuracy.{label}"
            ref = (reference or {}).get(label)
            if ref is None:
                checks.append((name, True, f"{acc!r}; no reference recorded for seed {self.seed}"))
            else:
                checks.append((name, abs(acc - ref) <= ACCURACY_TOLERANCE,
                               f"{acc!r} vs reference {ref!r} (tolerance {ACCURACY_TOLERANCE})"))
        return checks


class NoiseFloor:
    """NOISE_FLOOR: four quadratic shards, d=8, sizes [5, 10, 20, 40].

    One draw derives a stream per client, runs every client's private
    release, aggregates, and subtracts the noiseless aggregate.  The pooled
    variance of the draws must match accountant.noise_floor.
    """

    name = "noise_floor"
    op_noun = "draw"
    SIZES = (5, 10, 20, 40)
    D, C_G, SIGMA = 8, 10.0, 2.0
    DIGEST_DRAWS = 4096

    def __init__(self, seed: int, work_dir: str, scale: str):
        self.shape = SHAPES[scale][self.name]
        self.seed = seed
        self.n = len(self.SIZES)
        self.ops_per_call = 1
        self.rounds_per_op = 1  # a draw is one round of releases, without a server step
        self.releases_per_op = self.n

    def setup(self) -> None:
        task, _ = fs.make_synthetic_quadratic(d=self.D, n=self.n, mu=0.5, L=2.0, heterogeneity=1.0,
                                              seed=self.seed)
        self.task = task
        self.shards = [fs.QuadraticShard(task.a_matrices[i], task.centers[i], size)
                       for i, size in enumerate(self.SIZES)]
        self.theta = np.zeros(self.D)
        self.noiseless = server.aggregate(
            [client.private_release(shard, self.theta, self.C_G, 0.0, self.n, None, task, client_id=i)
             for i, shard in enumerate(self.shards)],
            self.n,
        )
        self.noiseless_norm = float(np.linalg.norm(self.noiseless))
        self.fingerprint = self.noiseless.tobytes()
        self.sum = np.zeros(self.D)
        self.sum_sq = np.zeros(self.D)
        self.draws = 0
        self.digest_value = None
        for _ in range(self.shape["warmup_draws"]):
            self.check(self.op())

    def op(self):
        r = self.draws
        releases = [
            client.private_release(
                shard, self.theta, self.C_G, self.SIGMA, self.n,
                core.derive_noise_stream(self.seed, i, r), self.task, client_id=i, round_index=r,
            )
            for i, shard in enumerate(self.shards)
        ]
        xi = server.aggregate(releases, self.n) - self.noiseless
        self.sum += xi
        self.sum_sq += xi * xi
        self.draws += 1
        return xi

    def check(self, xi) -> list:
        if self.draws == self.DIGEST_DRAWS:
            self.digest_value = _digest([self.sum.tobytes(), self.sum_sq.tobytes()])
        if xi.shape != (self.D,) or not np.all(np.isfinite(xi)):
            return ["non-finite or misshapen aggregate noise"]
        return []

    def satisfied(self) -> bool:
        return self.draws >= self.shape["min_draws"]

    def variance(self) -> tuple:
        """(measured per-coordinate variance, accountant.noise_floor nu^2)."""
        var = (self.sum_sq - self.sum * self.sum / self.draws) / (self.draws - 1)
        nu_sq, _ = accountant.noise_floor(self.C_G, self.SIGMA, self.n, list(self.SIZES))
        return float(var.mean()), nu_sq

    def digest(self) -> str:
        return self.digest_value or "none (fewer draws than the digest needs)"

    def extra_metrics(self) -> list:
        return []

    def final_checks(self, reference) -> list:
        measured, nu_sq = self.variance()
        rel_err = abs(measured - nu_sq) / nu_sq
        return [
            ("variance_rel_err", rel_err <= VARIANCE_RTOL,
             f"{rel_err!r} <= {VARIANCE_RTOL} (measured {measured!r} vs nu^2 {nu_sq!r} over {self.draws} draws)"),
            ("noiseless_norm_within_clip", self.noiseless_norm <= self.C_G,
             f"{self.noiseless_norm!r} <= {self.C_G} with zero tolerance"),
        ]


class WideHead:
    """One SOFIM run on a wide softmax head: 4000x256 features, 10 classes."""

    name = "wide_head"
    op_noun = "run"

    def __init__(self, seed: int, work_dir: str, scale: str):
        self.shape = s = SHAPES[scale][self.name]
        self.seed = seed
        self.features_path = os.path.join(work_dir, "wide_head.features")
        self.metrics_path = os.path.join(work_dir, "wide_head.metrics")
        self.ops_per_call = 1
        self.rounds_per_op = s["T"]
        self.releases_per_op = s["T"] * s["n"]

    def setup(self) -> None:
        s = self.shape
        features = fs.make_anisotropic_features(
            num_examples=s["examples"], feature_dim=s["features"], num_classes=s["classes"],
            condition=1e2, separation=1.0, seed=self.seed,
        )
        fs.save_frozen_features(self.features_path, features, num_classes=s["classes"])
        config = fs.validate_config(fs.FederatedConfig(
            n=s["n"], T=s["T"], eta=0.5, clip_cg=1.0, sigma_g=0.0, beta=0.9, rho=0.5,
            master_seed=100 + 1000 * self.seed,
        ))
        self.plan = fs.ExperimentPlan(
            config=config, binding=fs.FeatureTaskBinding(train_path=self.features_path),
            epsilon=EPSILON, delta=DELTA, eval_every=s["eval_every"], output_path=self.metrics_path,
        )
        self.reference = None
        self.check(self.op())
        self.fingerprint = self.reference

    def op(self):
        return fs.run_experiment(self.plan)

    def check(self, table) -> list:
        with open(self.metrics_path, "rb") as fh:
            data = fh.read()
        problems = []
        if not all(math.isfinite(row.train_loss) for row in table.rows):
            problems.append("non-finite training loss")
        privacy = _privacy_problem(table, self.shape["n"], self.shape["T"])
        if privacy:
            problems.append(privacy)
        if self.reference is None:
            self.reference = data
            self.final_accuracy = table.final_accuracy()
        elif data != self.reference:
            problems.append("rerun changed the metrics bytes")
        return problems

    def satisfied(self) -> bool:
        return True

    def digest(self) -> str:
        return _digest([self.reference])

    def extra_metrics(self) -> list:
        return [("final_accuracy", self.final_accuracy, "frac", "information, deterministic for a seed")]

    def final_checks(self, reference) -> list:
        return []


WORKLOADS = {cls.name: cls for cls in (TuningGrid, NoiseFloor, WideHead)}
