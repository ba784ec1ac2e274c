"""A whole run of ``run_experiment`` against the method written plainly
(``tests/reference.py``), over a seeded sweep of small configurations:
both tasks and both optimizers; calibrated, explicit and zero noise;
mini-batches on and off; a test file and a holdout; unequal shards.

The stream schedule and every draw must have the reference's bits.  The
rest is compared within ``RTOL``: the run clips the softmax by ghost
clipping with its 4-ulp margin, scales a quadratic shard's one clipped row
by its count, sums in other orders and applies the O(d) inverse, so its rows
move from the reference's by about 1e-15 relative a round.
"""

import itertools
import math

import numpy as np
import pytest

import fedsofim.harness as harness
from fedsofim.core import FederatedConfig, Optimizer
from fedsofim.harness import ExperimentPlan, FeatureTaskBinding, QuadraticTaskBinding, run_experiment
from fedsofim.task import make_anisotropic_features, save_frozen_features
from reference import reference_run

# The rows' largest measured spread is 2e-14 (a softmax SOFIM run whose loss
# reaches 21); a misplaced noise term, a lost 1/n or a reordered server step
# moves them by far more.
RTOL = 1e-9


class _Recorder:
    """A client-round stream that keeps what the run draws from it."""

    def __init__(self, stream):
        self.stream, self.draws = stream, []

    def _kept(self, draw):
        self.draws.append(draw.copy())
        return draw

    def choice(self, *args, **kwargs):
        return self._kept(self.stream.choice(*args, **kwargs))

    def standard_normal(self, *args, **kwargs):
        return self._kept(self.stream.standard_normal(*args, **kwargs))


def _training_rows(case):
    """A softmax case's training rows: its examples less any holdout."""
    return case["examples"] - (0 if case["test_file"] else round(case["holdout_fraction"] * case["examples"]))


def _cases():
    """Two configurations, one with mini-batches, for each task, optimizer and noise mode."""
    rng = np.random.default_rng(20261021)
    cases = []
    for kind, optimizer, noise, batched in itertools.product(
            ("softmax", "quadratic"), Optimizer, ("calibrated", "explicit", "zero"), (False, True)):
        case = dict(kind=kind, optimizer=optimizer, noise=noise, batched=batched, n=int(rng.integers(1, 6)),
                    T=int(rng.integers(3, 7)), eta=float(rng.uniform(0.1, 1.0)),
                    clip_cg=float(10 ** rng.uniform(-1.0, 0.7)), beta=float(rng.uniform(0.5, 0.95)),
                    rho=float(10 ** rng.uniform(-1.0, 0.5)), sigma_g=float(rng.uniform(0.2, 2.0)),
                    epsilon=float(rng.choice([1.0, 5.0, 10.0])), master_seed=int(rng.integers(2 ** 63)))
        if kind == "softmax":
            case.update(classes=int(rng.integers(2, 6)), feature_dim=int(rng.integers(2, 11)),
                        examples=int(rng.integers(40, 91)), test_file=bool(rng.integers(2)),
                        l2_lambda=float(rng.choice([0.0, 1e-4, 1e-2])), holdout_fraction=float(rng.uniform(0.1, 0.3)))
            # Full batches of several clients leave one row over: the first shard is
            # one longer than the rest, so swapping two clients' noise shows.
            while not batched and case["n"] > 1 and _training_rows(case) % case["n"] != 1:
                case["examples"] += 1
        else:
            case.update(d=int(rng.integers(2, 13)), shard_size=int(rng.integers(5, 10)),
                        mu=float(rng.uniform(0.1, 1.0)), heterogeneity=float(rng.uniform(0.0, 2.0)))
            case["L"] = case["mu"] * float(10 ** rng.uniform(0.0, 2.0))
        # A batch smaller than every shard: 40 rows less a 30% holdout over 5 clients leave 5.
        case["batch_size"] = int(rng.integers(2, 5)) if batched else 0
        cases.append(case)
    return cases


CASES = _cases()


def _plan(case, tmp_path):
    """The case's plan and the reference's data for it (None for a quadratic)."""
    config = FederatedConfig(n=case["n"], T=case["T"], eta=case["eta"], clip_cg=case["clip_cg"],
                             sigma_g=case["sigma_g"] if case["noise"] == "explicit" else 0.0, beta=case["beta"],
                             rho=case["rho"], master_seed=case["master_seed"], optimizer=case["optimizer"],
                             batch_size=case["batch_size"])
    target = dict(epsilon=case["epsilon"], delta=1e-5) if case["noise"] == "calibrated" else {}
    if case["kind"] == "quadratic":
        binding = QuadraticTaskBinding(d=case["d"], mu=case["mu"], L=case["L"],
                                       heterogeneity=case["heterogeneity"], shard_size=case["shard_size"])
        return ExperimentPlan(config=config, binding=binding, eval_every=1, **target), None
    classes, seed = case["classes"], case["master_seed"] % 2 ** 32
    datasets = [make_anisotropic_features(case["examples"], case["feature_dim"], classes, 10.0, 1.5, seed + k)
                for k in range(2)]
    paths = [str(tmp_path / f"{name}.features") for name in ("train", "test")]
    for path, dataset in zip(paths, datasets):
        save_frozen_features(path, dataset, classes)
    test = (datasets[1].features, datasets[1].labels) if case["test_file"] else None
    binding = FeatureTaskBinding(train_path=paths[0], test_path=paths[1] if test else None,
                                 l2_lambda=case["l2_lambda"], holdout_fraction=case["holdout_fraction"])
    data = datasets[0].features, datasets[0].labels, classes, test
    return ExperimentPlan(config=config, binding=binding, eval_every=1, **target), data


def test_the_sweep_covers_every_mode_and_unequal_shards():
    assert {(c["kind"], c["optimizer"], c["noise"], c["batched"]) for c in CASES} == set(
        itertools.product(("softmax", "quadratic"), Optimizer, ("calibrated", "explicit", "zero"), (False, True)))
    softmax = [c for c in CASES if c["kind"] == "softmax"]
    assert {c["test_file"] for c in softmax} == {True, False}
    assert any(c["n"] > 1 and _training_rows(c) % c["n"] and c["noise"] != "zero" for c in softmax)
    assert max(c["classes"] * (c["feature_dim"] + 1) for c in softmax) <= 256


@pytest.mark.parametrize("case", CASES, ids=[f"{c['kind']}-{c['optimizer'].value}-{c['noise']}-"
                                             f"{'batch' if c['batched'] else 'full'}" for c in CASES])
def test_a_run_matches_the_method_written_plainly(case, tmp_path, monkeypatch):
    plan, data = _plan(case, tmp_path)
    recorded, schedule = [], harness.round_streams

    def recording_streams(config):
        for streams in schedule(config):
            recorded.append([None if stream is None else _Recorder(stream) for stream in streams])
            yield recorded[-1]

    monkeypatch.setattr(harness, "round_streams", recording_streams)
    rows = run_experiment(plan).rows
    expected, draws = reference_run(plan, data)

    sigma = harness.resolve_sigma(plan).sigma_g
    scale = plan.config.clip_cg * sigma / math.sqrt(plan.config.n)
    for (i, t), wanted in draws.items():
        got = [] if recorded[t][i] is None else recorded[t][i].draws
        assert len(got) == len(wanted), (i, t)
        for actual, draw in zip(got, wanted):
            actual = actual if actual.dtype.kind == "i" else scale * actual + 0.0
            assert actual.tobytes() == draw.tobytes(), (i, t)

    assert [row.round for row in rows] == [row[0] for row in expected]
    for row, (_, loss, accuracy, norm, gap) in zip(rows, expected):
        np.testing.assert_allclose([row.train_loss, row.aggregate_grad_norm], [loss, norm], rtol=RTOL)
        if gap is None:
            assert row.test_accuracy == accuracy and row.suboptimality_gap is None
        else:
            # The gap is F - F*; its error is F's, relative to F.
            np.testing.assert_allclose(row.suboptimality_gap, gap, rtol=RTOL, atol=RTOL * loss)
            np.testing.assert_allclose(row.test_accuracy, accuracy, rtol=RTOL, atol=RTOL * loss)
