"""Round loop, experiment orchestration, metrics IO, and grid search."""

import gc
import json
import math
import tracemalloc
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest

import fedsofim.client as client_module
import fedsofim.harness as harness_module
import fedsofim.task as task_module
from fedsofim.accountant import calibrate_sigma
from fedsofim.core import (
    HOLDOUT_STREAM_TAG,
    PARTITION_STREAM_TAG,
    FederatedConfig,
    Optimizer,
    RoundMetrics,
    ServerState,
    derive_noise_stream,
    derive_stream_seed,
    validate_config,
)
from fedsofim.harness import (
    ExperimentPlan,
    FeatureTaskBinding,
    GridSpec,
    MetricsTable,
    QuadraticTaskBinding,
    TaskBundle,
    build_bundle,
    clipped_aggregate,
    detect_early_instability,
    emit_metrics,
    grid_search,
    read_metrics,
    resolve_sigma,
    round_streams,
    run_experiment,
    run_round,
    validate_plan,
)
from fedsofim.task import (
    FeatureDataset,
    SoftmaxHeadTask,
    load_frozen_features,
    make_anisotropic_features,
    make_synthetic_quadratic,
    save_frozen_features,
)


def quad_config(**overrides):
    base = dict(n=4, T=20, eta=0.2, clip_cg=100.0, sigma_g=0.0, beta=0.9, rho=1.0,
                master_seed=11, optimizer=Optimizer.SOFIM)
    base.update(overrides)
    return validate_config(FederatedConfig(**base))


def quad_plan(binding=None, **plan_overrides):
    config = plan_overrides.pop("config", quad_config())
    binding = binding or QuadraticTaskBinding(d=6, mu=0.5, L=2.0, heterogeneity=1.0)
    return ExperimentPlan(config=config, binding=binding, **plan_overrides)


def write_feature_file(tmp_path, count=60, dim=3, classes=2, seed=0, name="train.features"):
    rng = np.random.default_rng(seed)
    dataset = FeatureDataset(
        features=rng.normal(size=(count, dim)),
        labels=rng.integers(0, classes, size=count),
    )
    path = tmp_path / name
    save_frozen_features(path, dataset, num_classes=classes)
    return str(path)


class TestBuildBundle:
    def test_quadratic_bundle_shapes(self):
        bundle = build_bundle(QuadraticTaskBinding(d=5, mu=0.5, L=2.0, shard_size=7), 3, 0)
        assert bundle.task.dim == 5
        assert bundle.train.sizes == (7, 7, 7)
        assert bundle.test is None

    def test_dropped_quadratic_bundle_is_freed(self):
        # No cache but the binding's one kept bundle may keep a run's
        # training data alive; once the binding goes, the bundle goes too.
        bundle = build_bundle(QuadraticTaskBinding(d=64, mu=0.5, L=2.0, shard_size=7), 100, 0)
        shard = bundle.train.shards[0]
        client_module.private_release(shard, np.zeros(64), 1.0, 0.0, 100, None, bundle.task)
        ref = weakref.ref(shard)
        del bundle, shard
        gc.collect()
        assert ref() is None

    def test_feature_bundle_partitions_and_holds_out(self, tmp_path):
        path = write_feature_file(tmp_path, count=100, dim=3, classes=2)
        bundle = build_bundle(FeatureTaskBinding(train_path=path, holdout_fraction=0.2), 4, 7)
        data, _ = task_module.load_frozen_features(path)
        perm = np.random.default_rng(derive_stream_seed(7, HOLDOUT_STREAM_TAG, 0)).permutation(100)
        held = perm[:20]
        self.assert_read_only_one_shard_stack(bundle.test, FeatureDataset(data.features[held], data.labels[held]))
        train_sizes = bundle.train.sizes
        assert sum(train_sizes) == 80
        assert max(train_sizes) - min(train_sizes) <= 1

    def assert_read_only_one_shard_stack(self, stacked, dataset):
        """The test set is stacked once: its rows, transposed, with a bias row of ones."""
        assert stacked.sizes == (dataset.size,)
        np.testing.assert_array_equal(stacked.x_t[:-1], dataset.features.T)
        np.testing.assert_array_equal(stacked.x_t[-1], 1.0)
        np.testing.assert_array_equal(stacked.labels, dataset.labels)
        assert not stacked.x_t.flags.writeable
        assert not stacked.labels.flags.writeable

    def test_feature_stack_holds_the_partition_in_order(self, tmp_path):
        path = write_feature_file(tmp_path, count=100, dim=3, classes=2)
        bundle = build_bundle(FeatureTaskBinding(train_path=path, test_path=path), 4, 0)
        data, _ = task_module.load_frozen_features(path)
        shards = task_module.partition_iid(100, 4, seed=derive_stream_seed(0, PARTITION_STREAM_TAG, 0))
        stacked = bundle.train
        assert stacked.sizes == tuple(s.size for s in shards)
        rows = np.concatenate(shards)
        np.testing.assert_array_equal(stacked.x_t[:-1], data.features[rows].T)
        np.testing.assert_array_equal(stacked.labels, data.labels[rows])
        np.testing.assert_array_equal(stacked.x_t[-1], 1.0)

    def test_explicit_test_file_disables_the_holdout(self, tmp_path):
        train = write_feature_file(tmp_path, count=40, seed=1, name="a.features")
        test = write_feature_file(tmp_path, count=10, seed=2, name="b.features")
        bundle = build_bundle(FeatureTaskBinding(train_path=train, test_path=test), 4, 0)
        self.assert_read_only_one_shard_stack(bundle.test, task_module.load_frozen_features(test)[0])
        assert sum(bundle.train.sizes) == 40

    def test_same_seed_reproduces_the_bundle(self, tmp_path):
        path = write_feature_file(tmp_path, count=50)
        a = build_bundle(FeatureTaskBinding(train_path=path), 5, 9)
        b = build_bundle(FeatureTaskBinding(train_path=path), 5, 9)
        assert a.train.sizes == b.train.sizes
        np.testing.assert_array_equal(a.train.x_t, b.train.x_t)
        np.testing.assert_array_equal(a.train.labels, b.train.labels)
        np.testing.assert_array_equal(a.test.x_t, b.test.x_t)

    def test_mismatched_test_dimension_rejected(self, tmp_path):
        train = write_feature_file(tmp_path, dim=3, name="a.features")
        for shape, message in ((dict(dim=4), "train and test feature dimensions differ"),
                               (dict(dim=3, classes=3), "train and test class counts differ")):
            test = write_feature_file(tmp_path, name="b.features", **shape)
            with pytest.raises(ValueError, match=message):
                build_bundle(FeatureTaskBinding(train_path=train, test_path=test), 4, 0)

    def test_header_only_files_are_rejected(self, tmp_path):
        # A file with no rows is bad input in either role, and as the test
        # file it must fail here, before any training round, not at the
        # first evaluation.
        train = write_feature_file(tmp_path, name="a.features")
        empty = tmp_path / "empty.features"
        empty.write_text("dim=3,classes=2\n\n", encoding="utf-8")
        for binding in (FeatureTaskBinding(train_path=str(empty)),
                        FeatureTaskBinding(train_path=train, test_path=str(empty))):
            with pytest.raises(ValueError) as info:
                build_bundle(binding, 2, 0)
            assert str(info.value) == "no example rows"

    def count_reads(self, monkeypatch):
        reads = []
        load = harness_module.load_frozen_features

        def counted(path):
            reads.append(path)
            return load(path)

        monkeypatch.setattr(harness_module, "load_frozen_features", counted)
        return reads

    def assert_same_bits(self, a, b):
        assert (a.task.num_classes, a.task.dim) == (b.task.num_classes, b.task.dim)
        for x, y in ((a.train, b.train), (a.test, b.test)):
            assert x.sizes == y.sizes
            for field in ("x_t", "labels", "sq_norms", "onehot", "label_index"):
                u, v = getattr(x, field), getattr(y, field)
                assert (u.dtype, u.shape, u.tobytes()) == (v.dtype, v.shape, v.tobytes()), field

    def test_a_binding_reads_its_files_once(self, tmp_path, monkeypatch):
        train = write_feature_file(tmp_path, count=60, seed=1, name="a.features")
        test = write_feature_file(tmp_path, count=12, seed=2, name="b.features")
        reads = self.count_reads(monkeypatch)
        for test_path, files in ((None, 1), (test, 2)):
            reads.clear()
            binding = FeatureTaskBinding(train_path=train, test_path=test_path)
            bundles = {(n, seed): binding.bundle(n, seed) for n, seed in ((4, 0), (4, 1), (5, 0))}
            assert len(reads) == files
            for (n, seed), bundle in bundles.items():
                fresh = FeatureTaskBinding(train_path=train, test_path=test_path)
                self.assert_same_bits(bundle, fresh.bundle(n, seed))

    def stacked_bundle(self, binding, n, master_seed):
        """The bundle as parsed rows stacked per shard: the holdout and each
        partition chunk cut from the training file as a dataset of their own,
        then stacked, with no gather from a stack."""
        data, classes = task_module.load_frozen_features(binding.train_path)
        head = SoftmaxHeadTask(classes, data.feature_dim, binding.l2_lambda)

        def rows_of(rows):
            return FeatureDataset(data.features[rows], data.labels[rows])

        if binding.test_path is None:
            holdout_seed = derive_stream_seed(master_seed, HOLDOUT_STREAM_TAG, 0)
            perm = np.random.default_rng(holdout_seed).permutation(data.size)
            cut = int(round(binding.holdout_fraction * data.size))
            test, data = rows_of(perm[:cut]), rows_of(perm[cut:])
        else:
            test, _ = task_module.load_frozen_features(binding.test_path)
        partition_seed = derive_stream_seed(master_seed, PARTITION_STREAM_TAG, 0)
        shards = tuple(rows_of(rows) for rows in task_module.partition_iid(data.size, n, seed=partition_seed))
        return TaskBundle(task=head, train=head.stack(shards), test=head.stack((test,)))

    def test_gathered_bundles_have_the_bits_of_stacked_shards(self, tmp_path):
        # Every stack a bundle holds is a column gather of the training
        # file's stack; it must keep the bits of stacking the rows afresh,
        # ||x||^2 included.
        for count, dim, classes in ((97, 3, 2), (230, 256, 10)):
            shape = dict(dim=dim, classes=classes)
            train = write_feature_file(tmp_path, count=count, seed=dim, name="a.features", **shape)
            test = write_feature_file(tmp_path, count=31, seed=dim + 1, name="b.features", **shape)
            for binding in (FeatureTaskBinding(train_path=train, l2_lambda=1e-3, holdout_fraction=0.3),
                            FeatureTaskBinding(train_path=train, test_path=test)):
                for n, seed in ((1, 0), (7, 3), (20, 11)):
                    bundle = binding.bundle(n, seed)
                    self.assert_same_bits(bundle, self.stacked_bundle(binding, n, seed))
                    for stacked in (bundle.train, bundle.test):
                        assert stacked.x_t.flags.c_contiguous

    def test_a_binding_shares_its_test_stack_and_frees_its_stacks(self, tmp_path):
        # A file's stack wraps its parse's buffer, so it lives as long as the
        # parse cache holds that parse, and goes once both are dropped.
        train = write_feature_file(tmp_path, count=60, seed=1, name="a.features")
        test = write_feature_file(tmp_path, count=12, seed=2, name="b.features")
        binding = FeatureTaskBinding(train_path=train, test_path=test)
        bundle = binding.bundle(4, 0)
        for n, seed in ((4, 1), (5, 0)):
            assert binding.bundle(n, seed).test is bundle.test
        assert not bundle.test.x_t.flags.writeable
        assert np.shares_memory(binding._files[1].x_t, load_frozen_features(train)[0].features)
        assert np.shares_memory(bundle.test.x_t, load_frozen_features(test)[0].features)
        refs = [weakref.ref(binding._files[1].x_t), weakref.ref(bundle.test.x_t)]
        del binding, bundle
        gc.collect()
        assert all(ref() is not None for ref in refs)
        task_module._PARSED_FEATURE_FILES.clear()
        gc.collect()
        assert all(ref() is None for ref in refs)

    def test_a_binding_and_its_bundle_hold_the_matrix_about_twice(self, tmp_path):
        # The parse's buffer, which the binding's stack wraps, and the
        # bundle's training and holdout gathers of it; the allowance covers
        # each stack's per-example constants (labels, ||x||^2, one-hot rows).
        dataset = make_anisotropic_features(3000, 96, 4, condition=10.0, separation=1.0, seed=3)
        path = tmp_path / "big.features"
        save_frozen_features(path, dataset, num_classes=4)
        task_module._PARSED_FEATURE_FILES.clear()
        tracemalloc.start()
        try:
            binding = FeatureTaskBinding(train_path=str(path))
            bundle = binding.bundle(4, 0)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert np.shares_memory(binding._files[1].x_t, load_frozen_features(path)[0].features)
        assert bundle.train.x_t.shape == (97, 2400)
        matrix = dataset.features.nbytes
        assert held <= 2.1 * matrix + (1 << 18), (held, matrix)

    def test_runs_over_one_plan_read_the_file_once(self, tmp_path, monkeypatch):
        path = write_feature_file(tmp_path, count=48, dim=3, classes=3)
        plan = ExperimentPlan(config=quad_config(T=3, n=4), binding=FeatureTaskBinding(train_path=path))
        reads = self.count_reads(monkeypatch)
        assert run_experiment(plan) == run_experiment(plan)
        assert reads == [path]

    def test_a_failed_read_is_not_kept(self, tmp_path, monkeypatch):
        empty = tmp_path / "empty.features"
        empty.write_text("dim=3,classes=2\n", encoding="utf-8")
        binding = FeatureTaskBinding(train_path=str(empty))
        reads = self.count_reads(monkeypatch)
        for _ in range(2):
            with pytest.raises(ValueError) as info:
                binding.bundle(2, 0)
            assert str(info.value) == "no example rows"
        assert len(reads) == 2

    def test_a_read_binding_compares_and_hashes_by_its_fields(self, tmp_path):
        # Neither the read files nor the kept bundle take part.
        path = write_feature_file(tmp_path, count=40)
        for binding, other in ((FeatureTaskBinding(train_path=path, l2_lambda=1e-3), dict(l2_lambda=1e-4)),
                               (QuadraticTaskBinding(d=4, mu=0.5, L=2.0), dict(mu=0.25))):
            binding.bundle(4, 0)
            fresh = replace(binding)
            assert binding == fresh
            assert hash(binding) == hash(fresh)
            assert binding != replace(binding, **other)

    def test_bindings_reject_non_finite_and_out_of_range_settings(self):
        for settings, message in (
            (dict(l2_lambda=math.nan), "l2_lambda must be nonnegative and finite"),
            (dict(holdout_fraction=math.nan), "holdout_fraction must lie in [0, 1)"),
            # Without a test file a zero fraction would still hold out one
            # row, and the accuracy could only read 0 or 1.
            (dict(holdout_fraction=0.0), "holdout_fraction must be positive when no test file is given"),
            (dict(l2_lambda=-1.0, holdout_fraction=1.0),
             "l2_lambda must be nonnegative and finite; holdout_fraction must lie in [0, 1)"),
        ):
            with pytest.raises(ValueError) as info:
                FeatureTaskBinding(train_path="unused", **settings)
            assert str(info.value) == message
        FeatureTaskBinding(train_path="unused", test_path="unused", holdout_fraction=0.0)
        for settings, message in (
            (dict(mu=math.nan), "mu must be positive and finite"),
            (dict(L=math.nan), "L must be finite"),
            (dict(d=0, mu=3.0, heterogeneity=math.inf, shard_size=0),
             "d must lie in [1, 64]; mu must not exceed L; heterogeneity must be nonnegative and finite; "
             "shard_size must be >= 1"),
        ):
            with pytest.raises(ValueError) as info:
                QuadraticTaskBinding(**{**dict(d=4, mu=0.5, L=2.0), **settings})
            assert str(info.value) == message

    def test_quadratic_counts_refuse_a_bool_or_a_float(self):
        # shard_size=2.5 used to be reported as the bundle's sizes, and a
        # bool or float d to fail only in the bundle, with a TypeError.
        for settings, message in (
            (dict(shard_size=2.5), "shard_size must be an integer"),
            (dict(shard_size=True), "shard_size must be an integer"),
            (dict(d=True), "d must be an integer"),
            (dict(d=3.0, shard_size=2.0), "d must be an integer; shard_size must be an integer"),
        ):
            with pytest.raises(ValueError) as info:
                QuadraticTaskBinding(**{**dict(d=4, mu=0.5, L=2.0), **settings})
            assert str(info.value) == message

    def test_holdout_must_hold_out_a_row(self, tmp_path):
        # A fraction that rounds to no row is refused rather than raised to
        # one row, whose accuracy could only read 0 or 1.
        path = write_feature_file(tmp_path, count=100)
        for fraction in (1e-5, 0.004):
            with pytest.raises(ValueError) as info:
                build_bundle(FeatureTaskBinding(train_path=path, holdout_fraction=fraction), 2, 0)
            assert str(info.value) == f"holdout_fraction {fraction!r} holds out no row of 100"
        assert build_bundle(FeatureTaskBinding(train_path=path, holdout_fraction=0.006), 2, 0).test.sizes == (1,)

    def test_holdout_must_leave_training_data(self, tmp_path):
        path = write_feature_file(tmp_path, count=10)
        with pytest.raises(ValueError, match="holdout fraction leaves no training data"):
            build_bundle(FeatureTaskBinding(train_path=path, holdout_fraction=0.999), 2, 0)


class TestKeptBundle:
    """A binding keeps its last bundle: a repeated (n, master_seed) returns
    it, any other key drops it before building anew."""

    KINDS = ("feature", "quadratic")

    def binding_and_builds(self, kind, tmp_path, monkeypatch, on_build=None):
        """A fresh binding of the kind, and the list its builds append to:
        each build makes one call to partition_iid (feature) or
        make_synthetic_quadratic, before any array of the new bundle exists;
        the call is counted, and on_build runs first."""
        if kind == "feature":
            binding = FeatureTaskBinding(train_path=write_feature_file(tmp_path, count=60))
            name = "partition_iid"
        else:
            binding = QuadraticTaskBinding(d=4, mu=0.5, L=2.0, shard_size=3)
            name = "make_synthetic_quadratic"
        builds, build = [], getattr(harness_module, name)

        def counted(*args, **kwargs):
            if on_build is not None:
                on_build()
            builds.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(harness_module, name, counted)
        return binding, builds

    @staticmethod
    def data_of(bundle):
        """An array only this bundle holds: the feature stack's x_t, or the
        quadratic's stack of shards."""
        return bundle.train.x_t if isinstance(bundle.train, task_module.FeatureStack) else bundle.train

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_repeated_key_returns_the_same_bundle(self, kind, tmp_path, monkeypatch):
        takes = []
        take = task_module.FeatureStack.take
        monkeypatch.setattr(task_module.FeatureStack, "take", lambda *args: takes.append(1) or take(*args))
        binding, builds = self.binding_and_builds(kind, tmp_path, monkeypatch)
        first = binding.bundle(4, 0)
        counts = len(builds), len(takes)
        assert binding.bundle(4, 0) is first
        assert build_bundle(binding, 4, 0) is first
        assert (len(builds), len(takes)) == counts == (1, 2 if kind == "feature" else 0)

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_new_key_frees_the_old_bundle_before_building(self, kind, tmp_path, monkeypatch):
        refs, seen = [], []
        binding, builds = self.binding_and_builds(kind, tmp_path, monkeypatch,
                                                  on_build=lambda: seen.append([ref() for ref in refs]))
        bundle = binding.bundle(4, 0)
        refs.append(weakref.ref(self.data_of(bundle)))
        del bundle
        assert refs[0]() is not None  # kept by the binding
        fresh = binding.bundle(4, 1)
        assert seen == [[], [None]]  # dead when the new build began
        assert binding.bundle(4, 1) is fresh and len(builds) == 2

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_failing_key_raises_each_time_and_keeps_nothing(self, kind, tmp_path, monkeypatch):
        # 60 rows leave 48 to partition; a quadratic refuses a bool n, which
        # must not be served the bundle kept for n=1.
        binding, builds = self.binding_and_builds(kind, tmp_path, monkeypatch)
        bad, message = (49, "cannot partition 48 examples across 49 clients") if kind == "feature" else \
            (True, "n must be an integer")
        good = binding.bundle(1, 0)
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                binding.bundle(bad, 0)
        again = binding.bundle(1, 0)
        assert again is not good and len(builds) == 4
        assert binding.bundle(1, 0) is again


class TestPlanValidation:
    def test_privacy_target_requires_both_epsilon_and_delta(self):
        with pytest.raises(ValueError, match="privacy target requires both epsilon and delta"):
            validate_plan(quad_plan(epsilon=1.0))

    def test_target_and_explicit_sigma_are_mutually_exclusive(self):
        plan = quad_plan(config=quad_config(sigma_g=1.0), epsilon=1.0, delta=1e-5)
        with pytest.raises(ValueError, match="not both"):
            validate_plan(plan)

    def test_eval_cadence_must_be_positive(self):
        with pytest.raises(ValueError, match="eval_every must be >= 1"):
            validate_plan(quad_plan(eval_every=0))

    def test_eval_cadence_must_be_an_integer(self):
        for bad in (2.5, 2.0, True, "2"):
            with pytest.raises(ValueError, match="^eval_every must be an integer$"):
                validate_plan(quad_plan(eval_every=bad))

    def test_resolve_sigma_calibrates_the_target(self):
        plan = quad_plan(epsilon=2.0, delta=1e-5)
        config = resolve_sigma(plan)
        assert config.sigma_g == calibrate_sigma(2.0, 1e-5, plan.config.n, plan.config.T)

    def test_resolve_sigma_keeps_an_explicit_multiplier(self):
        plan = quad_plan(config=quad_config(sigma_g=3.0))
        assert resolve_sigma(plan).sigma_g == 3.0


class TestRunRound:
    def test_zero_gradient_task_is_a_fixed_point(self):
        # heterogeneity 0 puts every shard center at the optimum; starting
        # there, releases vanish up to the linear-solve roundoff inside
        # theta_star, so theta moves by at most a few ulps.
        binding = QuadraticTaskBinding(d=4, mu=0.5, L=2.0, heterogeneity=0.0)
        bundle = build_bundle(binding, 3, 0)
        state = ServerState.initial(bundle.task.theta_star.copy())
        config = quad_config(n=3)
        new_state, g = run_round(bundle, state, config, next(round_streams(config)))
        np.testing.assert_allclose(new_state.theta, state.theta, rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(np.linalg.norm(g), 0.0, atol=1e-13)
        np.testing.assert_allclose(bundle.task.gap(new_state.theta), 0.0, atol=1e-15)

    def test_single_client_fedgd_is_centralized_gradient_descent(self):
        binding = QuadraticTaskBinding(d=5, mu=0.4, L=1.6, heterogeneity=0.7)
        bundle = build_bundle(binding, 1, 3)
        config = quad_config(n=1, eta=0.5, clip_cg=1e9, optimizer=Optimizer.FEDGD)
        state = ServerState.initial(np.zeros(5))
        reference = np.zeros(5)
        for streams in round_streams(config):
            state, _ = run_round(bundle, state, config, streams)
            reference = reference - config.eta * bundle.task.global_gradient(reference)
            assert np.linalg.norm(state.theta - reference) <= 1e-12

    def test_an_overflowing_round_raises_no_warning_and_keeps_its_checks(self):
        # eta = 1e300 sends theta past 1e150, where the gradients' squared
        # norms overflow; the whole round runs under the same errstate.
        config = quad_config(n=3, T=6, eta=1e300, clip_cg=100.0)
        bundle = build_bundle(QuadraticTaskBinding(d=4, mu=0.5, L=2.0, heterogeneity=1.0), 3, 0)
        state = ServerState.initial(np.zeros(4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for streams in round_streams(config):
                state, _ = run_round(bundle, state, config, streams)
            with pytest.raises(ValueError, match="one stream per shard"):
                run_round(bundle, state, config, (None,) * 2)
            with pytest.raises(ValueError, match="theta must have dimension 4"):
                run_round(bundle, ServerState.initial(np.zeros(3)), config, (None,) * 3)


class TestRoundStreams:
    def test_each_round_gets_the_n_derived_streams(self):
        config = quad_config(n=3, T=5, sigma_g=0.5)
        schedule = list(round_streams(config))
        assert len(schedule) == config.T
        for t, streams in enumerate(schedule):
            assert len(streams) == config.n
            for i, stream in enumerate(streams):
                expected = derive_noise_stream(config.master_seed, i, t)
                assert stream.bit_generator.state == expected.bit_generator.state, (i, t)

    def test_mini_batches_draw_streams_without_noise(self):
        config = quad_config(n=2, T=3, batch_size=4)
        assert all(stream is not None for streams in round_streams(config) for stream in streams)

    def test_rounds_that_draw_nothing_get_none(self):
        config = quad_config(n=3, T=4)
        assert list(round_streams(config)) == [(None, None, None)] * 4


class TestEvaluate:
    def test_non_finite_theta_on_a_softmax_bundle(self, tmp_path):
        path = write_feature_file(tmp_path, count=40, dim=3, classes=2)
        bundle = build_bundle(FeatureTaskBinding(train_path=path), 4, 0)
        for bad in (np.nan, np.inf):
            theta = np.zeros(bundle.task.dim)
            theta[1] = bad
            assert bundle.evaluate(theta) == (math.inf, 0.0, None)
        # A finite theta whose loss is not finite reads as the worst row too.
        assert bundle.evaluate(np.full(bundle.task.dim, 1e300)) == (math.inf, 0.0, None)

    def test_non_finite_theta_on_a_quadratic_bundle(self):
        bundle = build_bundle(QuadraticTaskBinding(d=4, mu=0.5, L=2.0), 3, 0)
        for bad in (np.nan, -np.inf):
            theta = np.zeros(4)
            theta[2] = bad
            assert bundle.evaluate(theta) == (math.inf, 0.0, math.inf)
        assert bundle.evaluate(np.full(4, 1e200)) == (math.inf, 0.0, math.inf)


class TestRunExperiment:
    @pytest.mark.parametrize("config", [
        # quadratic_noisy's golden settings: every round draws its streams.
        quad_config(n=4, T=30, eta=0.2, clip_cg=3.0, sigma_g=0.5, master_seed=3),
        # noiseless and full-batch: every stream is None.
        quad_config(T=30),
    ], ids=["noisy", "noiseless"])
    def test_rows_equal_a_hand_driven_round_loop(self, config):
        plan = quad_plan(config=config, eval_every=5)
        bundle = build_bundle(plan.binding, config.n, config.master_seed)
        state = ServerState.initial(np.zeros(bundle.task.dim))
        rows = []
        for t, streams in enumerate(round_streams(config)):
            state, g = run_round(bundle, state, config, streams)
            if (t + 1) % 5 == 0:
                loss, accuracy, gap = bundle.evaluate(state.theta)
                rows.append(RoundMetrics(t + 1, loss, accuracy, float(np.linalg.norm(g)), gap))
        assert run_experiment(plan).rows == tuple(rows)

    def test_a_run_derives_its_streams_once(self, monkeypatch):
        calls = []
        derive = harness_module.derive_noise_streams

        def counted(*args):
            calls.append(args)
            return derive(*args)

        monkeypatch.setattr(harness_module, "derive_noise_streams", counted)
        config = quad_config(T=12, sigma_g=0.8)
        run_experiment(quad_plan(config=config, eval_every=3))
        assert calls == [(config.master_seed, config.n, config.T)]

    def test_nan_aggregate_is_recorded_as_nan_not_inf(self):
        # eta = 1e308 overflows theta to inf in the first step; the second
        # round's releases, and so their average, are NaN.
        config = quad_config(n=3, T=2, eta=1e308)
        with np.errstate(over="ignore", invalid="ignore"):
            table = run_experiment(quad_plan(config=config, eval_every=1))
        assert math.isfinite(table.rows[0].aggregate_grad_norm)
        assert math.isnan(table.rows[1].aggregate_grad_norm)

    def test_a_diverged_quadratic_run_keeps_clipping_onto_the_radius(self):
        # Past round 1 every gradient's squared norm overflows; each finite
        # gradient still clips onto c_g, so the aggregate is not frozen at 0.
        config = quad_config(n=3, T=8, eta=1e300, clip_cg=100.0)
        table = run_experiment(quad_plan(QuadraticTaskBinding(d=4, mu=0.5, L=2.0, heterogeneity=1.0),
                                         config=config, eval_every=1))
        assert all(row.train_loss == math.inf for row in table.rows)
        for row in table.rows[1:]:
            assert row.aggregate_grad_norm == pytest.approx(100.0, rel=1e-12)

    def test_single_round_run_produces_one_row(self):
        table = run_experiment(quad_plan(config=quad_config(T=1), eval_every=1))
        assert len(table.rows) == 1
        assert table.rows[0].round == 1

    def test_seventy_rounds_at_cadence_ten_give_seven_rows(self):
        table = run_experiment(quad_plan(config=quad_config(T=70), eval_every=10))
        assert [r.round for r in table.rows] == [10, 20, 30, 40, 50, 60, 70]

    def test_final_round_is_always_evaluated(self):
        table = run_experiment(quad_plan(config=quad_config(T=25), eval_every=10))
        assert [r.round for r in table.rows] == [10, 20, 25]

    def test_header_echoes_the_resolved_configuration(self):
        plan = quad_plan(config=quad_config(T=5), epsilon=2.0, delta=1e-5, eval_every=5)
        table = run_experiment(plan)
        assert list(table.header) == [
            "optimizer", "n", "T", "eta", "clip_cg", "sigma_g", "beta", "rho",
            "master_seed", "batch_size", "eval_every", "epsilon", "delta",
        ]
        assert table.header["optimizer"] == "SOFIM"
        assert table.header["sigma_g"] == calibrate_sigma(2.0, 1e-5, 4, 5)
        assert table.header["epsilon"] == 2.0
        assert table.header["delta"] == 1e-5
        assert table.header["eval_every"] == 5

    def test_non_private_descent_decreases_the_gap_monotonically(self):
        config = quad_config(T=40, eta=0.9, optimizer=Optimizer.FEDGD, clip_cg=1e6)
        table = run_experiment(quad_plan(config=config, eval_every=1))
        gaps = [r.suboptimality_gap for r in table.rows]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_identical_plans_produce_byte_identical_files(self, tmp_path):
        config = quad_config(T=12, sigma_g=0.8)
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        run_experiment(quad_plan(config=config, eval_every=3, output_path=str(out_a)))
        run_experiment(quad_plan(config=config, eval_every=3, output_path=str(out_b)))
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_softmax_runs_report_no_suboptimality_gap(self, tmp_path):
        path = write_feature_file(tmp_path, count=48, dim=3, classes=2)
        plan = ExperimentPlan(
            config=quad_config(T=4, n=4),
            binding=FeatureTaskBinding(train_path=path),
            eval_every=2,
        )
        table = run_experiment(plan)
        assert all(r.suboptimality_gap is None for r in table.rows)
        assert all(0.0 <= r.test_accuracy <= 1.0 for r in table.rows)


class TestSoftmaxRunPath:
    def test_runs_never_build_or_clip_the_per_example_tensor(self, tmp_path, monkeypatch):
        # Softmax releases take their clipped sums from the factors; the
        # materialized gradients and the row clip stay test oracles.
        def refuse(*args, **kwargs):
            raise AssertionError("per-example tensor built on the run path")

        monkeypatch.setattr(SoftmaxHeadTask, "per_example_gradients", refuse)
        monkeypatch.setattr(client_module, "clip_rows", refuse)
        monkeypatch.setattr(task_module, "clip_rows", refuse)
        path = write_feature_file(tmp_path, count=48, dim=3, classes=3)
        plan = ExperimentPlan(config=quad_config(T=4, n=4, clip_cg=0.5, batch_size=0),
                              binding=FeatureTaskBinding(train_path=path), epsilon=5.0, delta=1e-5, eval_every=2)
        assert len(run_experiment(plan).rows) == 2
        best, sweep = grid_search(plan, GridSpec(etas=(0.3,), clip_cgs=(0.5,)))
        assert len(sweep) == 1 and best.eta == 0.3

    def test_a_binding_stacks_each_file_once(self, tmp_path, monkeypatch):
        # The binding stacks each of its files when it builds its first
        # bundle; no later bundle, release or evaluation stacks anything.
        calls = []
        stack = SoftmaxHeadTask.stack

        def counted(task, shards):
            calls.append(len(shards))
            return stack(task, shards)

        monkeypatch.setattr(SoftmaxHeadTask, "stack", counted)
        path = write_feature_file(tmp_path, count=48, dim=3, classes=3)
        test = write_feature_file(tmp_path, count=12, dim=3, classes=3, seed=1, name="test.features")
        for test_path, stacks in ((None, [1]), (test, [1, 1])):
            calls.clear()
            plan = ExperimentPlan(config=quad_config(T=6, n=4), eval_every=1,
                                  binding=FeatureTaskBinding(train_path=path, test_path=test_path))
            first, second = run_experiment(plan), run_experiment(plan)
            assert first == second and len(first.rows) == 6
            assert calls == stacks


class TestMetricsIO:
    def rows(self):
        return (
            RoundMetrics(round=10, train_loss=0.5, test_accuracy=0.75,
                         aggregate_grad_norm=0.1, suboptimality_gap=0.025, elapsed=1.25),
            RoundMetrics(round=20, train_loss=1.0 / 3.0, test_accuracy=0.8125,
                         aggregate_grad_norm=0.05, suboptimality_gap=None, elapsed=2.5),
        )

    def write(self, path, rows):
        with open(path, "w", encoding="utf-8") as fh:
            emit_metrics(MetricsTable(rows=rows, header={}), fh)

    def test_round_trip_reproduces_the_table_exactly(self, tmp_path):
        path = tmp_path / "metrics.csv"
        self.write(path, self.rows())
        assert read_metrics(path) == self.rows()

    def test_empty_table_emits_a_header_only_file(self, tmp_path):
        path = tmp_path / "metrics.csv"
        self.write(path, ())
        content = path.read_text(encoding="utf-8")
        assert content == (
            "round,train_loss,test_accuracy,aggregate_grad_norm,suboptimality_gap,elapsed\n"
        )

    def test_absent_gap_becomes_an_empty_cell(self, tmp_path):
        path = tmp_path / "metrics.csv"
        self.write(path, self.rows())
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[2].split(",")[4] == ""

    def test_reader_rejects_a_foreign_file(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
        with pytest.raises(ValueError, match="not a metrics file"):
            read_metrics(path)

    def test_reader_skips_a_blank_line(self, tmp_path):
        path = tmp_path / "metrics.csv"
        self.write(path, self.rows())
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join([*lines[:2], "", *lines[2:]]) + "\n", encoding="utf-8")
        assert read_metrics(path) == self.rows()

    def test_an_empty_table_has_no_final_row(self):
        table = MetricsTable(rows=(), header={})
        for final in (table.final_accuracy, table.final_loss):
            with pytest.raises(ValueError, match="^empty metrics table$"):
                final()

    def test_reader_rejects_a_short_row(self, tmp_path):
        path = tmp_path / "metrics.csv"
        self.write(path, ())
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("10,0.5,0.5\n")
        with pytest.raises(ValueError, match="bad metrics row"):
            read_metrics(path)


class TestGridSearch:
    def test_an_empty_axis_is_refused(self):
        for axes, message in (
            (dict(etas=(), clip_cgs=(1.0,)), "grid must list at least one eta and one clip_cg"),
            (dict(etas=(0.1,), clip_cgs=()), "grid must list at least one eta and one clip_cg"),
            (dict(etas=(0.1,), clip_cgs=(1.0,), rhos=()), "rho grid, when given, must be nonempty"),
            (dict(etas=(0.1,), clip_cgs=(1.0,), betas=()), "beta grid, when given, must be nonempty"),
        ):
            with pytest.raises(ValueError, match=f"^{message}$"):
                GridSpec(**axes)

    def test_single_cell_grid_returns_that_cell(self):
        plan = quad_plan(config=quad_config(T=5))
        best, sweep = grid_search(plan, GridSpec(etas=(0.3,), clip_cgs=(2.0,)))
        assert best.eta == 0.3
        assert best.clip_cg == 2.0
        assert len(sweep) == 1

    def test_divergent_step_size_is_recorded_but_never_selected(self):
        # eta = 40 >> 2/L on the quadratic blows the iterates up; the guarded
        # evaluation records it as the worst cell instead of crashing.
        plan = quad_plan(config=quad_config(T=15))
        best, sweep = grid_search(plan, GridSpec(etas=(0.2, 40.0), clip_cgs=(100.0,)))
        assert best.eta == 0.2
        divergent = next(r for r in sweep if r["eta"] == 40.0)
        healthy = next(r for r in sweep if r["eta"] == 0.2)
        assert divergent["mean_final_accuracy"] <= healthy["mean_final_accuracy"]

    def test_matches_exhaustive_manual_enumeration(self):
        plan = quad_plan(config=quad_config(T=10), eval_every=10)
        etas, clips = (0.05, 0.3), (0.5, 50.0)
        best, sweep = grid_search(plan, GridSpec(etas=etas, clip_cgs=clips))

        manual = []
        for eta in etas:
            for c_g in clips:
                config = quad_config(T=10, eta=eta, clip_cg=c_g)
                table = run_experiment(quad_plan(config=config, eval_every=10))
                manual.append(((eta, c_g), table.rows[-1].test_accuracy))
        manual_best = min(manual, key=lambda item: (-item[1], item[0][0], item[0][1]))[0]
        assert (best.eta, best.clip_cg) == manual_best
        by_cell = {(r["eta"], r["clip_cg"]): r["mean_final_accuracy"] for r in sweep}
        for (cell, acc) in manual:
            assert by_cell[cell] == acc

    def test_exact_ties_break_toward_the_smaller_radius(self):
        # both radii are far beyond any gradient norm, so the two cells run
        # identically and the tie must resolve to the smaller clip_cg.
        plan = quad_plan(config=quad_config(T=5))
        best, sweep = grid_search(plan, GridSpec(etas=(0.2,), clip_cgs=(1e6, 1e9)))
        assert best.clip_cg == 1e6
        accs = {r["mean_final_accuracy"] for r in sweep}
        assert len(accs) == 1

    def test_multi_seed_average_changes_the_master_seed_per_rerun(self):
        plan = quad_plan(config=quad_config(T=5, sigma_g=1.0, clip_cg=2.0))
        _, sweep_one = grid_search(plan, GridSpec(etas=(0.2,), clip_cgs=(2.0,)), seeds=1)
        _, sweep_three = grid_search(plan, GridSpec(etas=(0.2,), clip_cgs=(2.0,)), seeds=3)
        assert sweep_one[0]["mean_final_accuracy"] != sweep_three[0]["mean_final_accuracy"]

    @pytest.mark.parametrize("settings, target", [(dict(), dict(epsilon=5.0, delta=1e-5)),
                                                  (dict(batch_size=6, sigma_g=0.5), dict())])
    def test_a_seed_outer_grid_keeps_the_rows_of_independent_runs(self, settings, target, tmp_path, monkeypatch):
        # Each cell at seed k reuses seed k's kept bundle and evaluates only
        # its final round; its rows must keep the bytes of fresh runs at the
        # plan's own cadence, each on a binding of its own.
        path = write_feature_file(tmp_path, count=90, dim=4, classes=3)
        plan = ExperimentPlan(config=quad_config(n=3, T=5, master_seed=40, **settings), eval_every=2,
                              binding=FeatureTaskBinding(train_path=path), **target)
        cells, seeds = [dict(eta=0.3, clip_cg=0.5), dict(eta=1.0, clip_cg=0.5)], 3
        expected = []
        for cell in cells:
            tables = []
            for k in range(seeds):
                config = quad_config(n=3, T=5, master_seed=40 + k, **settings, **cell)
                tables.append(run_experiment(replace(plan, config=config, binding=FeatureTaskBinding(train_path=path))))
            assert all(len(table.rows) == 3 for table in tables)
            expected.append({**cell, "rho": plan.config.rho, "beta": plan.config.beta,
                             "mean_final_accuracy": float(np.mean([t.final_accuracy() for t in tables])),
                             "mean_final_loss": float(np.mean([t.final_loss() for t in tables]))})
        builds, partition = [], harness_module.partition_iid
        monkeypatch.setattr(harness_module, "partition_iid", lambda *a, **kw: builds.append(a) or partition(*a, **kw))
        _, sweep = grid_search(plan, GridSpec(etas=(0.3, 1.0), clip_cgs=(0.5,)), seeds=seeds)
        assert json.dumps(sweep).encode() == json.dumps(expected).encode()
        assert len(builds) == seeds

    def test_a_seed_shifted_past_the_range_is_refused(self):
        plan = quad_plan(config=quad_config(T=2, master_seed=2**64 - 1))
        with pytest.raises(ValueError, match=r"master_seed must lie in \[0, 2\*\*64\)"):
            grid_search(plan, GridSpec(etas=(0.1,), clip_cgs=(1.0,)), seeds=2)

    def test_seed_count_validated(self):
        with pytest.raises(ValueError, match="seeds must be >= 1"):
            grid_search(quad_plan(), GridSpec(etas=(0.1,), clip_cgs=(1.0,)), seeds=0)
        for bad in (2.5, True, "2"):
            with pytest.raises(ValueError, match="^seeds must be an integer$"):
                grid_search(quad_plan(), GridSpec(etas=(0.1,), clip_cgs=(1.0,)), seeds=bad)


class TestDiagnostics:
    def test_clipped_aggregate_matches_global_gradient_when_inactive(self):
        bundle = build_bundle(QuadraticTaskBinding(d=4, mu=0.5, L=2.0), 3, 1)
        theta = np.full(4, 0.3)
        clipped = clipped_aggregate(bundle, theta, c_g=1e9)
        np.testing.assert_allclose(clipped, bundle.task.global_gradient(theta), rtol=1e-12)

    def test_one_client_clipped_aggregate_stays_inside_the_ball(self):
        # A shard of 10 equal examples, each clipped to norm 1, whose sum
        # divided by 10 can round to 1 + 2^-52.
        task, shards = make_synthetic_quadratic(d=6, n=1, mu=0.5, L=4.0, heterogeneity=2.0, seed=1)
        theta = 3.0 * np.random.default_rng(1).normal(size=(5, 6))[4]
        aggregate = clipped_aggregate(TaskBundle(task=task, train=task.stack(shards)), theta, 1.0)
        assert np.linalg.norm(aggregate) <= 1.0

    def test_a_finite_aggregate_whose_squares_overflow_is_not_zeroed(self):
        # Its norm, taken from the vector over its largest entry, decides:
        # inside the ball it is kept, past it scaled onto the radius.  The
        # guard's own norm overflows; its one caller holds the errstate.
        with np.errstate(over="ignore"):
            inside = np.full(3, 1e180)
            assert harness_module._inside_ball(inside, 1e200) is inside
            scaled = harness_module._inside_ball(np.array([1e250, 0.0]), 1e200)
            assert 1e200 * (1 - 8 * np.finfo(float).eps) <= scaled[0] <= 1e200 and scaled[1] == 0.0
        # A vector holding inf keeps the plain norm's result.
        with np.errstate(invalid="ignore"):
            np.testing.assert_array_equal(harness_module._inside_ball(np.array([np.inf, 1.0]), 1.0), [np.nan, 0.0])
        # A noiseless quadratic round at theta = 1e180 * 1 clips nothing, so
        # it does not freeze: its aggregate is the global gradient, reached
        # without a numpy warning.
        bundle = QuadraticTaskBinding(d=6, mu=0.5, L=2.0).bundle(3, 0)
        theta = np.full(6, 1e180)
        g = clipped_aggregate(bundle, theta, 1e200)
        np.testing.assert_allclose(g, bundle.task.global_gradient(theta), rtol=1e-12)
        config = quad_config(n=3, T=1, clip_cg=1e200, optimizer=Optimizer.FEDGD)
        np.testing.assert_array_equal(run_round(bundle, ServerState.initial(theta), config, (None,) * 3)[1], g)

    def test_a_noisy_round_aggregate_is_the_servers_mean_of_the_releases(self):
        # The guard runs only without noise: a noisy aggregate past c_g is kept.
        bundle = QuadraticTaskBinding(d=4, mu=0.5, L=2.0).bundle(3, 0)
        theta = np.full(4, 0.3)

        def streams():
            return [derive_noise_stream(7, i, 0) for i in range(3)]

        g = harness_module.round_aggregate(bundle, theta, 0.1, 100.0, 3, streams())
        releases = client_module.release_round(bundle.train, theta, 0.1, 100.0, 3, streams(), bundle.task)
        np.testing.assert_array_equal(g, harness_module.aggregate(releases, 3))
        assert np.linalg.norm(g) > 0.1

    def assert_noiseless_aggregate_stays_inside_the_ball(self, bundle, theta, c_g):
        # run_round's noiseless aggregate has clipped_aggregate's bits (both
        # are round_aggregate's), and its norm, as np.linalg.norm computes
        # it, is at most c_g exactly.
        n = len(bundle.train.sizes)
        config = quad_config(n=n, T=1, clip_cg=c_g, optimizer=Optimizer.FEDGD)
        _, g = run_round(bundle, ServerState.initial(theta), config, (None,) * n)
        np.testing.assert_array_equal(g, clipped_aggregate(bundle, theta, c_g))
        assert np.linalg.norm(g) <= c_g

    @pytest.mark.parametrize("n, heterogeneity", [(1, 2.0), (4, 2.0), (4, 0.0), (20, 0.0)])
    def test_noiseless_quadratic_aggregate_stays_inside_the_ball(self, n, heterogeneity):
        # Each clipped row has norm <= c_g, but a shard's clipped row times
        # m, divided by m and averaged over n clients can round an ulp or
        # three past it: without the guard, 30, 0, 21 and 337 of these 2,000
        # draws go over.
        task, shards = make_synthetic_quadratic(d=6, n=n, mu=0.5, L=4.0, heterogeneity=heterogeneity, seed=1)
        bundle = TaskBundle(task=task, train=task.stack(shards))
        for theta in 3.0 * np.random.default_rng(1).normal(size=(2000, 6)):
            self.assert_noiseless_aggregate_stays_inside_the_ball(bundle, theta, 1.0)

    def test_noiseless_aggregate_of_identical_softmax_examples_stays_inside_the_ball(self):
        # One client of m identical examples: the ghost clip's 4-ulp margin
        # keeps each row inside, but the product over m columns, divided by
        # m, can still round past c_g (without the guard, 103 of these 3,000 do).
        rng = np.random.default_rng(29)
        for case in range(3000):
            classes, width, m = int(rng.integers(2, 12)), int(rng.integers(1, 8)), int(rng.integers(2, 1000))
            task = SoftmaxHeadTask(classes, width, (0.0, 1e-4, 1e-2)[case % 3])
            x = rng.normal(size=width) * 3.0
            dataset = FeatureDataset(np.repeat(x[None], m, axis=0), np.full(m, rng.integers(0, classes)))
            bundle = TaskBundle(task=task, train=task.stack((dataset,)))
            theta = rng.normal(size=task.dim)
            self.assert_noiseless_aggregate_stays_inside_the_ball(bundle, theta, float(rng.uniform(0.1, 2.0)))

    def row(self, round_index, accuracy):
        return RoundMetrics(round=round_index, train_loss=1.0, test_accuracy=accuracy,
                            aggregate_grad_norm=0.1)

    def test_early_instability_detected_when_behind_then_caught_up(self):
        sofim = [self.row(10, 0.4), self.row(30, 0.9)]
        fedgd = [self.row(10, 0.6), self.row(30, 0.8)]
        assert detect_early_instability(sofim, fedgd) is True

    def test_no_detection_when_never_behind(self):
        sofim = [self.row(10, 0.7), self.row(30, 0.9)]
        fedgd = [self.row(10, 0.6), self.row(30, 0.8)]
        assert detect_early_instability(sofim, fedgd) is False

    def test_no_detection_when_never_catching_up(self):
        sofim = [self.row(10, 0.4), self.row(30, 0.5)]
        fedgd = [self.row(10, 0.6), self.row(30, 0.8)]
        assert detect_early_instability(sofim, fedgd) is False

    def test_no_detection_without_the_needed_rounds(self):
        assert detect_early_instability([self.row(10, 0.4)], [self.row(10, 0.6)]) is False
