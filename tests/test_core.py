"""Config validation, deterministic stream derivation, and config-file parsing."""

import math
import typing
from dataclasses import fields, replace
from decimal import Decimal
from typing import Optional

import numpy as np
import pytest

from fedsofim.accountant import calibrate_sigma, composed_delta, noise_floor, sensitivity, single_round_delta
from fedsofim.core import (
    CONFIG_TYPES,
    FederatedConfig,
    Optimizer,
    RoundMetrics,
    ServerState,
    _STREAM_BLOCK,
    _seed_sequence_words,
    derive_noise_stream,
    derive_noise_streams,
    derive_stream_seed,
    load_config,
    parse_config_text,
    validate_config,
)
from fedsofim.harness import ExperimentPlan, FeatureTaskBinding, GridSpec, QuadraticTaskBinding, grid_search
from fedsofim.task import (
    QuadraticShard,
    SoftmaxHeadTask,
    make_anisotropic_features,
    make_synthetic_quadratic,
    partition_iid,
)


def make_config(**overrides):
    base = dict(n=20, T=70, eta=0.5, clip_cg=10.0, sigma_g=1.0, beta=0.9, rho=0.5)
    base.update(overrides)
    return FederatedConfig(**base)


class TestValidateConfig:
    def test_reference_settings_accepted(self):
        config = make_config()
        assert validate_config(config) is config

    def test_beta_one_rejected(self):
        with pytest.raises(ValueError, match=r"beta must lie in \[0, 1\)"):
            validate_config(make_config(beta=1.0))

    def test_rho_zero_rejected(self):
        with pytest.raises(ValueError, match=r"rho must lie in \(0, inf\)"):
            validate_config(make_config(rho=0.0))

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError, match=r"sigma_g must lie in \[0, inf\)"):
            validate_config(make_config(sigma_g=-0.1))

    def test_nonpositive_counts_rejected(self):
        with pytest.raises(ValueError, match="^n must be >= 1$"):
            validate_config(make_config(n=0))
        with pytest.raises(ValueError, match="^T must be >= 1$"):
            validate_config(make_config(T=0))

    def test_counts_must_be_integers(self):
        # A bool is an int to Python but no count: n=True would run as 1.
        for field in ("n", "T", "batch_size"):
            for bad in (True, False, 2.5, 3.0, "3", None):
                with pytest.raises(ValueError, match=f"^{field} must be an integer$"):
                    validate_config(make_config(**{field: bad}))
        with pytest.raises(ValueError, match="^batch_size must be >= 0$"):
            validate_config(make_config(batch_size=-1))
        assert validate_config(make_config(n=1, T=1, batch_size=0)).batch_size == 0

    def test_all_violations_reported_together(self):
        with pytest.raises(ValueError) as err:
            validate_config(make_config(eta=0.0, clip_cg=-1.0, rho=-2.0))
        message = str(err.value)
        assert "eta must lie in (0, inf)" in message
        assert "clip_cg must lie in (0, inf)" in message
        assert "rho must lie in (0, inf)" in message
        # A non-integer seed must be named here, not fail later as a
        # TypeError in stream derivation.
        for seed in (1.5, "3", None):
            with pytest.raises(ValueError) as err:
                validate_config(make_config(rho=-2.0, master_seed=seed))
            assert str(err.value) == "rho must lie in (0, inf); master_seed must be an integer"

    def test_master_seed_must_lie_in_the_stream_range(self):
        # Streams reduce the seed mod 2**64, so -1 would repeat 2**64 - 1.
        for seed in (-1, 2**64, 2**64 + 5):
            with pytest.raises(ValueError) as err:
                validate_config(make_config(rho=-2.0, master_seed=seed))
            assert str(err.value) == "rho must lie in (0, inf); master_seed must be >= 0 and <= 18446744073709551615"
        for seed in (True, False):
            with pytest.raises(ValueError, match="^master_seed must be an integer$"):
                validate_config(make_config(master_seed=seed))
        for seed in (0, 2**64 - 1):
            assert validate_config(make_config(master_seed=seed)).master_seed == seed

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_settings_rejected_together(self, bad):
        with pytest.raises(ValueError) as err:
            validate_config(make_config(eta=bad, clip_cg=bad, sigma_g=bad, rho=bad))
        message = str(err.value)
        for field in ("eta", "clip_cg", "sigma_g", "rho"):
            assert f"{field} must lie in " in message

    def test_optimizer_must_be_an_optimizer(self):
        for bad in ("SOFIM", None, 0):
            with pytest.raises(ValueError, match="^optimizer must be SOFIM or FEDGD$"):
                validate_config(make_config(optimizer=bad))

    def test_sigma_zero_is_valid_non_private_mode(self):
        validate_config(make_config(sigma_g=0.0))

    def test_beta_zero_boundary_is_valid(self):
        validate_config(make_config(beta=0.0))

    def test_replace_rechecks(self):
        config = make_config()
        with pytest.raises(ValueError, match=r"^rho must lie in \(0, inf\)$"):
            replace(config, rho=0.0)
        bumped = replace(config, eta=0.25)
        assert bumped.eta == 0.25
        assert bumped.n == config.n


class TestServerState:
    def test_initial_state_is_theta_and_a_zero_momentum_buffer(self):
        state = ServerState.initial([1.0, 2.0, 3.0, 4.0])
        assert [f.name for f in fields(ServerState)] == ["theta", "momentum"]
        np.testing.assert_array_equal(state.theta, [1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(state.momentum, np.zeros(4))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="identical dimension"):
            ServerState(theta=np.zeros(3), momentum=np.zeros(4))


class TestRoundMetrics:
    def test_valid_row(self):
        row = RoundMetrics(round=1, train_loss=0.5, test_accuracy=0.9, aggregate_grad_norm=0.1)
        assert row.suboptimality_gap is None

    def test_accuracy_must_be_a_fraction(self):
        with pytest.raises(ValueError, match=r"test_accuracy must lie in \[0,1\]"):
            RoundMetrics(round=1, train_loss=0.5, test_accuracy=1.5, aggregate_grad_norm=0.1)

    def test_gradient_norm_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="aggregate_grad_norm must be nonnegative"):
            RoundMetrics(round=1, train_loss=0.5, test_accuracy=0.5, aggregate_grad_norm=-0.1)

    def test_gap_must_be_nonnegative_when_present(self):
        with pytest.raises(ValueError, match="suboptimality_gap must be nonnegative"):
            RoundMetrics(
                round=1, train_loss=0.5, test_accuracy=0.5,
                aggregate_grad_norm=0.1, suboptimality_gap=-1e-9,
            )


class TestStreamDerivation:
    def test_same_triple_gives_identical_draws(self):
        a = derive_noise_stream(1234, 3, 7).normal(size=100)
        b = derive_noise_stream(1234, 3, 7).normal(size=100)
        np.testing.assert_array_equal(a, b)

    def test_neighbouring_triples_give_different_streams(self):
        a = derive_noise_stream(1234, 0, 0).normal(size=100)
        b = derive_noise_stream(1234, 1, 0).normal(size=100)
        c = derive_noise_stream(1234, 0, 1).normal(size=100)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(b, c)

    def test_seed_mixing_is_collision_free_over_a_realistic_grid(self):
        seeds = {
            derive_stream_seed(master, client, rnd)
            for master in (0, 1, 2**63, 2**64 - 1)
            for client in range(64)
            for rnd in range(128)
        }
        assert len(seeds) == 4 * 64 * 128

    def test_seed_is_a_64_bit_word(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            master = int(rng.integers(0, 2**63))
            seed = derive_stream_seed(master, int(rng.integers(0, 1000)), int(rng.integers(0, 1000)))
            assert 0 <= seed < 2**64

    def test_swapping_client_and_round_changes_the_seed(self):
        assert derive_stream_seed(9, 2, 5) != derive_stream_seed(9, 5, 2)

    def test_stream_draws_standard_normal_statistics(self):
        draws = derive_noise_stream(42, 0, 0).normal(size=1_000_000)
        mean = float(draws.mean())
        var = float(draws.var())
        stderr_mean = 1.0 / np.sqrt(draws.size)
        stderr_var = np.sqrt(2.0 / draws.size)
        assert abs(mean) <= 0.005
        assert abs(mean) <= 5 * stderr_mean
        assert abs(var - 1.0) <= 5 * stderr_var


EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]


class TestBatchedStreamDerivation:
    """``derive_noise_streams`` reproduces numpy's SeedSequence hashing and
    ``derive_noise_stream`` bit for bit; a numpy release that changes either
    fails here."""

    def test_seed_words_match_seed_sequence(self):
        rng = np.random.default_rng(2024)
        seeds = [int(s) for s in rng.integers(0, 2**64, size=3000, dtype=np.uint64)] + EDGE_SEEDS
        words = _seed_sequence_words(np.array(seeds, dtype=np.uint64))
        assert words.dtype == np.uint64 and words.shape == (len(seeds), 4)
        for seed, row in zip(seeds, words):
            np.testing.assert_array_equal(row, np.random.SeedSequence(seed).generate_state(4, np.uint64),
                                          err_msg=f"seed {seed}")

    @pytest.mark.parametrize("master_seed", [0, 7, 2**64 - 1])
    def test_streams_match_the_definition_across_block_boundaries(self, master_seed):
        n, rounds = 20, 500
        assert rounds > 2 * (_STREAM_BLOCK // n)  # crosses two block boundaries
        count = 0
        for r, streams in enumerate(derive_noise_streams(master_seed, n, rounds)):
            assert len(streams) == n
            for c, stream in enumerate(streams):
                assert stream.bit_generator.state == derive_noise_stream(master_seed, c, r).bit_generator.state, (c, r)
            count += 1
        assert count == rounds

    def test_no_clients_is_refused(self):
        # At the call, not at the first round.
        for n_clients in (0, -1):
            with pytest.raises(ValueError, match="^n_clients must be >= 1$"):
                derive_noise_streams(0, n_clients, 3)
        for n_clients in (True, 2.5):
            with pytest.raises(ValueError, match="^n_clients must be an integer$"):
                derive_noise_streams(0, n_clients, 3)

    def test_each_stream_is_a_fresh_generator(self):
        streams = [s for block in derive_noise_streams(5, 4, 3) for s in block]
        assert len({id(s) for s in streams}) == len({id(s.bit_generator) for s in streams}) == 12


CONFIG_TEXT = """
# reference settings
n = 20
T = 70
eta = 0.5
clip_cg = 10.0
sigma_g = 1.0
beta = 0.9      # momentum
rho = 0.5
master_seed = 7
optimizer = FEDGD
batch_size = 0
"""


def _quadratic_plan(**plan):
    config = make_config(n=2, T=1, sigma_g=0.0)
    return ExperimentPlan(config=config, binding=QuadraticTaskBinding(d=2, mu=0.5, L=2.0), **plan)


# Every entry point that takes a count, size or seed, as (name in messages,
# lowest value, highest value or None, a valid value, the call with that one
# argument set to the value).
COUNT_ENTRY_POINTS = {
    "validate_config.n": ("n", 1, None, 2, lambda v: validate_config(make_config(n=v))),
    "validate_config.T": ("T", 1, None, 2, lambda v: validate_config(make_config(T=v))),
    "validate_config.batch_size": ("batch_size", 0, None, 2, lambda v: validate_config(make_config(batch_size=v))),
    "validate_config.master_seed": ("master_seed", 0, 2**64 - 1, 2**64 - 1,
                                    lambda v: validate_config(make_config(master_seed=v))),
    "derive_noise_streams.n_clients": ("n_clients", 1, None, 2, lambda v: derive_noise_streams(0, v, 3)),
    "derive_noise_streams.rounds": ("rounds", 0, None, 2, lambda v: derive_noise_streams(0, 3, v)),
    "composed_delta.n": ("n", 1, None, 2, lambda v: composed_delta(1.0, 1.0, v, 70)),
    "composed_delta.T": ("T", 1, None, 2, lambda v: composed_delta(1.0, 1.0, 20, v)),
    "ExperimentPlan.eval_every": ("eval_every", 1, None, 2, lambda v: _quadratic_plan(eval_every=v)),
    "grid_search.seeds": ("seeds", 1, None, 2,
                          lambda v: grid_search(_quadratic_plan(), GridSpec(etas=(0.1,), clip_cgs=(1.0,)), seeds=v)),
    "make_synthetic_quadratic.d": ("d", 1, 64, 2, lambda v: make_synthetic_quadratic(v, 2, 0.5, 2.0, 1.0, seed=0)),
    "make_synthetic_quadratic.shard_size": (
        "shard_size", 1, None, 2, lambda v: make_synthetic_quadratic(2, 2, 0.5, 2.0, 1.0, seed=0, shard_size=v)),
    "make_synthetic_quadratic.n": ("n", 1, None, 2, lambda v: make_synthetic_quadratic(2, v, 0.5, 2.0, 1.0, seed=0)),
    "QuadraticShard.size": ("size", 1, None, 2, lambda v: QuadraticShard(np.eye(2), np.zeros(2), v)),
    "noise_floor.n": ("n", 1, None, 2, lambda v: noise_floor(10.0, 2.0, v, [5, 5])),
    "noise_floor.sizes": ("sizes[1]", 1, None, 2, lambda v: noise_floor(10.0, 2.0, 2, [5, v])),
    "sensitivity.d_min": ("d_min", 1, None, 2, lambda v: sensitivity(1.0, v)),
    "partition_iid.n": ("n", 1, None, 2, lambda v: partition_iid(10, v, 0)),
    "partition_iid.count": ("count", 0, None, 10, lambda v: partition_iid(v, 2, 0)),
    "SoftmaxHeadTask.num_classes": ("num_classes", 2, None, 3, lambda v: SoftmaxHeadTask(v, 2)),
    "SoftmaxHeadTask.feature_dim": ("feature_dim", 1, None, 2, lambda v: SoftmaxHeadTask(3, v)),
    "make_anisotropic_features.num_examples": (
        "num_examples", 1, None, 10, lambda v: make_anisotropic_features(v, 2, 2, 10.0, 1.0, 0)),
    "make_anisotropic_features.feature_dim": (
        "feature_dim", 1, None, 2, lambda v: make_anisotropic_features(10, v, 2, 10.0, 1.0, 0)),
    "make_anisotropic_features.num_classes": (
        "num_classes", 2, None, 3, lambda v: make_anisotropic_features(10, 2, v, 10.0, 1.0, 0)),
}


@pytest.mark.parametrize("entry", COUNT_ENTRY_POINTS)
def test_every_count_follows_one_integer_rule(entry):
    # A bool is an int to Python but no count, and 2.0 is a float however
    # whole; each is refused at the call with one message naming the field.
    name, low, high, valid, call = COUNT_ENTRY_POINTS[entry]
    bound = f"{name} must be >= {low}" + ("" if high is None else f" and <= {high}")
    cases = [(True, f"{name} must be an integer"), (2.5, f"{name} must be an integer"),
             (2.0, f"{name} must be an integer"), (low - 1, bound)]
    if high is not None:
        cases.append((high + 1, bound))
    for value, message in cases:
        with pytest.raises(ValueError) as info:
            call(value)
        assert str(info.value) == message, value
    call(valid)


# Every real-valued setting, as (name in messages, its interval as the
# message states it, a valid value, the call with that one argument set).
REAL_ENTRY_POINTS = {
    "FederatedConfig.eta": ("eta", "(0, inf)", 0.5, lambda v: make_config(eta=v)),
    "FederatedConfig.clip_cg": ("clip_cg", "(0, inf)", 10.0, lambda v: make_config(clip_cg=v)),
    "FederatedConfig.sigma_g": ("sigma_g", "[0, inf)", 1.0, lambda v: make_config(sigma_g=v)),
    "FederatedConfig.beta": ("beta", "[0, 1)", 0.9, lambda v: make_config(beta=v)),
    "FederatedConfig.rho": ("rho", "(0, inf)", 0.5, lambda v: make_config(rho=v)),
    "FeatureTaskBinding.l2_lambda": ("l2_lambda", "[0, inf)", 1e-4,
                                     lambda v: FeatureTaskBinding(train_path="unused", l2_lambda=v)),
    "FeatureTaskBinding.holdout_fraction": (
        "holdout_fraction", "[0, 1)", 0.2,
        lambda v: FeatureTaskBinding(train_path="unused", test_path="unused", holdout_fraction=v)),
    "SoftmaxHeadTask.l2_lambda": ("l2_lambda", "[0, inf)", 1e-4, lambda v: SoftmaxHeadTask(3, 2, v)),
    "quadratic_problems.mu": ("mu", "(0, inf)", 0.5, lambda v: make_synthetic_quadratic(2, 2, v, 2.0, 1.0, seed=0)),
    "quadratic_problems.L": ("L", "(-inf, inf)", 2.0, lambda v: make_synthetic_quadratic(2, 2, 0.5, v, 1.0, seed=0)),
    "quadratic_problems.heterogeneity": ("heterogeneity", "[0, inf)", 1.0,
                                         lambda v: make_synthetic_quadratic(2, 2, 0.5, 2.0, v, seed=0)),
    "make_anisotropic_features.condition": ("condition", "[1, inf)", 10.0,
                                            lambda v: make_anisotropic_features(10, 2, 2, v, 1.0, 0)),
    "make_anisotropic_features.separation": ("separation", "(-inf, inf)", 1.0,
                                             lambda v: make_anisotropic_features(10, 2, 2, 10.0, v, 0)),
    "calibrate_sigma.epsilon": ("epsilon", "[0, inf)", 2.0, lambda v: calibrate_sigma(v, 0.5, 20, 70)),
    "calibrate_sigma.delta": ("delta", "(0, 1)", 1e-5, lambda v: calibrate_sigma(2.0, v, 20, 70)),
    "sensitivity.c_g": ("c_g", "(0, inf]", 1.0, lambda v: sensitivity(v, 5)),
    "single_round_delta.epsilon": ("epsilon", "[0, inf]", 1.0, lambda v: single_round_delta(v, 1.0, 1.0)),
    "single_round_delta.delta_sens": ("delta_sens", "(0, inf)", 1.0, lambda v: single_round_delta(1.0, v, 1.0)),
    "single_round_delta.sigma_release": ("sigma_release", "(0, inf]", 1.0,
                                         lambda v: single_round_delta(1.0, 1.0, v)),
    "composed_delta.epsilon": ("epsilon", "[0, inf]", 1.0, lambda v: composed_delta(v, 1.0, 20, 70)),
    "composed_delta.sigma_g": ("sigma_g", "(0, inf]", 1.0, lambda v: composed_delta(1.0, v, 20, 70)),
    "noise_floor.c_g": ("c_g", "(0, inf]", 10.0, lambda v: noise_floor(v, 2.0, 2, [5, 5])),
    "noise_floor.sigma_g": ("sigma_g", "[0, inf]", 2.0, lambda v: noise_floor(10.0, v, 2, [5, 5])),
}


@pytest.mark.parametrize("entry", REAL_ENTRY_POINTS)
def test_every_real_setting_follows_one_rule(entry):
    # True would run as 1.0 and "0.5" fail as a TypeError; nan lies in no
    # interval.  A closed end is a valid value and an open one is refused.
    # The rule's message may come with a related one (mu = inf exceeds L).
    name, interval, valid, call = REAL_ENTRY_POINTS[entry]
    low, high = (float(end) for end in interval[1:-1].split(", "))
    outside = f"{name} must lie in {interval}"
    cases = [(bad, f"{name} must be a real number") for bad in (True, "0.5", None, Decimal("0.5"))]
    cases.append((math.nan, outside))
    cases += [(end, outside) for end, bracket in ((low, interval[0]), (high, interval[-1])) if bracket in "()"]
    for value, message in cases:
        with pytest.raises(ValueError) as info:
            call(value)
        assert message in str(info.value).split("; "), value
    for end, bracket in ((low, interval[0]), (high, interval[-1])):
        if bracket in "[]":
            call(end)
    call(valid)


def test_invalid_settings_cannot_be_built():
    with pytest.raises(ValueError, match=r"^eta must lie in \(0, inf\)$"):
        FederatedConfig(n=2, T=3, eta=-1.0, clip_cg=1.0, sigma_g=0.0, beta=0.9, rho=0.5)
    with pytest.raises(ValueError, match=r"^rho must lie in \(0, inf\)$"):
        replace(make_config(), rho=0.0)
    with pytest.raises(ValueError, match="^eval_every must be >= 1$"):
        ExperimentPlan(config=make_config(), binding=QuadraticTaskBinding(d=2, mu=0.5, L=2.0), eval_every=0)


def _typed_fields():
    """(a valid settings object, one of its float or int fields, that kind)
    for the config, both bindings and a plan with a privacy target."""
    kinds = {float: float, Optional[float]: float, int: int, Optional[int]: int}
    for settings in (make_config(), FeatureTaskBinding(train_path="unused"), QuadraticTaskBinding(d=2, mu=0.5, L=2.0),
                     _quadratic_plan(epsilon=1.0, delta=1e-5)):
        hints = CONFIG_TYPES if isinstance(settings, FederatedConfig) else typing.get_type_hints(type(settings))
        for field in fields(settings):
            if hints[field.name] in kinds:
                yield pytest.param(settings, field.name, kinds[hints[field.name]],
                                   id=f"{type(settings).__name__}.{field.name}")


@pytest.mark.parametrize("settings, field, kind", _typed_fields())
def test_no_setting_skips_its_rule(settings, field, kind):
    # A new float or int field must be checked when its object is built.
    for bad in (True, "1") if kind is float else (True, 2.5):
        with pytest.raises(ValueError, match=f"^{field} must "):
            replace(settings, **{field: bad})


class TestConfigParsing:
    def test_full_file_round_trip(self):
        config = parse_config_text(CONFIG_TEXT)
        assert config == make_config(master_seed=7, optimizer=Optimizer.FEDGD)

    def test_defaults_for_optional_keys(self):
        config = parse_config_text("n=2\nT=3\neta=0.1\nclip_cg=1\nsigma_g=0\nbeta=0\nrho=1")
        assert config.master_seed == 0
        assert config.optimizer is Optimizer.SOFIM
        assert config.batch_size == 0

    def test_overrides_replace_file_values(self):
        config = parse_config_text(CONFIG_TEXT, overrides={"eta": "0.25", "n": "5"})
        assert config.eta == 0.25
        assert config.n == 5
        assert config.T == 70

    def test_none_overrides_are_ignored(self):
        config = parse_config_text(CONFIG_TEXT, overrides={"eta": None})
        assert config.eta == 0.5

    def test_unknown_key_names_its_line(self):
        with pytest.raises(ValueError, match="line 2: unknown config key 'learning_rate'"):
            parse_config_text("n = 20\nlearning_rate = 1\n")

    def test_malformed_line_names_its_line(self):
        with pytest.raises(ValueError, match="line 1: expected 'key = value'"):
            parse_config_text("just some words\n")

    def test_missing_keys_are_listed(self):
        with pytest.raises(ValueError, match="missing config keys: sigma_g, beta, rho"):
            parse_config_text("n=1\nT=1\neta=0.1\nclip_cg=1\n")

    def test_unparseable_value_names_key_and_type(self):
        with pytest.raises(ValueError, match="config key 'eta': cannot parse 'fast' as float"):
            parse_config_text(CONFIG_TEXT, overrides={"eta": "fast"})

    def test_bad_optimizer_value(self):
        with pytest.raises(ValueError, match="optimizer must be SOFIM or FEDGD, got 'ADAM'"):
            parse_config_text(CONFIG_TEXT, overrides={"optimizer": "ADAM"})

    def test_optimizer_parse_is_case_insensitive(self):
        config = parse_config_text(CONFIG_TEXT, overrides={"optimizer": "sofim"})
        assert config.optimizer is Optimizer.SOFIM

    def test_unknown_override_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key 'momentum'"):
            parse_config_text(CONFIG_TEXT, overrides={"momentum": "0.9"})

    def test_parsed_config_is_validated(self):
        with pytest.raises(ValueError, match=r"^rho must lie in \(0, inf\)$"):
            parse_config_text(CONFIG_TEXT, overrides={"rho": "0"})

    def test_load_config_reads_a_file(self, tmp_path):
        path = tmp_path / "settings.txt"
        path.write_text(CONFIG_TEXT, encoding="utf-8")
        assert load_config(path) == parse_config_text(CONFIG_TEXT)
