"""Objectives, per-example gradients, partitioning, and frozen-feature IO.

Oracles used by the derived checks, defined before any test that relies on
them: central finite differences for gradients, a dense normal-equations
solve for the quadratic minimizer, and full-precision summation for losses.
"""

import math

import numpy as np
import pytest

from fedsofim.task import (
    Example,
    FeatureDataset,
    QuadraticShard,
    QuadraticTask,
    SoftmaxHeadTask,
    dataset_size,
    load_frozen_features,
    loss_and_accuracy,
    make_anisotropic_features,
    make_synthetic_quadratic,
    partition_iid,
    per_example_gradient,
    save_frozen_features,
)


def finite_difference_gradient(func, theta, h=1e-5):
    """Central-difference gradient oracle: (f(x+h e_i) - f(x-h e_i)) / 2h."""
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        step = np.zeros_like(theta)
        step[i] = h
        grad[i] = (func(theta + step) - func(theta - step)) / (2.0 * h)
    return grad


def dense_theta_star(a_matrices, centers):
    """Normal-equations oracle: solve (sum A_i) theta = sum A_i c_i densely."""
    lhs = a_matrices.sum(axis=0)
    rhs = sum(a @ c for a, c in zip(a_matrices, centers))
    return np.linalg.solve(lhs, rhs)


def single_example_dataset(features, label):
    return FeatureDataset(
        features=np.asarray(features, dtype=float).reshape(1, -1),
        labels=np.asarray([label], dtype=int),
    )


class TestSoftmaxGradient:
    def test_zero_theta_gives_uniform_softmax_residual(self):
        task = SoftmaxHeadTask(num_classes=3, feature_dim=2, l2_lambda=0.0)
        x = np.array([2.0, -1.0])
        example = Example(features=x, label=1)
        grad = per_example_gradient(np.zeros(task.dim), example, task)
        x_aug = np.array([2.0, -1.0, 1.0])
        expected = np.concatenate(
            [((1.0 / 3.0) - (1.0 if c == 1 else 0.0)) * x_aug for c in range(3)]
        )
        np.testing.assert_allclose(grad, expected, atol=1e-15)

    def test_regularizer_contributes_lambda_theta(self):
        task_reg = SoftmaxHeadTask(num_classes=2, feature_dim=2, l2_lambda=0.5)
        task_plain = SoftmaxHeadTask(num_classes=2, feature_dim=2, l2_lambda=0.0)
        rng = np.random.default_rng(3)
        theta = rng.normal(size=task_reg.dim)
        example = Example(features=rng.normal(size=2), label=0)
        diff = per_example_gradient(theta, example, task_reg) - per_example_gradient(
            theta, example, task_plain
        )
        np.testing.assert_allclose(diff, 0.5 * theta, rtol=1e-12)

    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(7)
        for trial in range(100):
            classes = int(rng.integers(2, 5))
            feat = int(rng.integers(1, 6))
            task = SoftmaxHeadTask(num_classes=classes, feature_dim=feat, l2_lambda=1e-4)
            assert task.dim <= 30
            theta = rng.normal(scale=0.8, size=task.dim)
            example = Example(features=rng.normal(size=feat), label=int(rng.integers(classes)))
            dataset = single_example_dataset(example.features, example.label)

            def loss_at(point):
                return loss_and_accuracy(point, dataset, task)[0]

            grad = per_example_gradient(theta, example, task)
            oracle = finite_difference_gradient(loss_at, theta)
            err = np.linalg.norm(grad - oracle) / max(np.linalg.norm(oracle), 1e-12)
            assert err <= 1e-5, f"trial {trial}: finite-difference mismatch {err:.2e}"

    def test_vectorized_gradients_match_per_example_loop(self):
        rng = np.random.default_rng(11)
        task = SoftmaxHeadTask(num_classes=4, feature_dim=3, l2_lambda=1e-3)
        dataset = FeatureDataset(
            features=rng.normal(size=(9, 3)), labels=rng.integers(0, 4, size=9)
        )
        theta = rng.normal(size=task.dim)
        batch = task.per_example_gradients(theta, dataset)
        singles = np.stack([per_example_gradient(theta, ex, task) for ex in dataset.examples])
        np.testing.assert_allclose(batch, singles, rtol=1e-13, atol=1e-15)

    def test_log_probs_keep_the_bits_of_the_reduce_formulation(self):
        # The column-chain row maximum and the preallocated augmented matrix
        # must give exactly what max(axis=1) and np.hstack give, ties and
        # non-finite logits included.
        rng = np.random.default_rng(17)
        for classes in (2, 4, 10):
            task = SoftmaxHeadTask(num_classes=classes, feature_dim=5)
            features = rng.normal(size=(40, 5)) * rng.choice([1e-3, 1.0, 1e3], size=(40, 1))
            features[3] = features[4]
            features[5, 0] = np.inf
            theta = rng.normal(size=task.dim)
            theta[: task.feature_dim + 1] = theta[task.feature_dim + 1: 2 * (task.feature_dim + 1)]
            x_aug = np.hstack([features, np.ones((40, 1))])
            np.testing.assert_array_equal(task._augment(features), x_aug)
            with np.errstate(invalid="ignore"):
                logits = x_aug @ theta.reshape(classes, 6).T
                logits -= logits.max(axis=1, keepdims=True)
                expected = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
                np.testing.assert_array_equal(task._log_probs(theta, x_aug), expected)

    def test_theta_dimension_checked(self):
        task = SoftmaxHeadTask(num_classes=2, feature_dim=2)
        with pytest.raises(ValueError, match="theta must have dimension 6"):
            per_example_gradient(np.zeros(5), Example(np.zeros(2), 0), task)


class TestSoftmaxLossAndAccuracy:
    def test_zero_theta_loss_is_log_num_classes(self):
        for k in (2, 3, 7):
            task = SoftmaxHeadTask(num_classes=k, feature_dim=3, l2_lambda=0.0)
            dataset = single_example_dataset([0.4, -0.2, 1.0], label=k - 1)
            loss, _ = loss_and_accuracy(np.zeros(task.dim), dataset, task)
            np.testing.assert_allclose(loss, math.log(k), rtol=1e-14)

    def test_argmax_ties_resolve_to_lowest_class(self):
        task = SoftmaxHeadTask(num_classes=3, feature_dim=2, l2_lambda=0.0)
        dataset = single_example_dataset([1.0, 1.0], label=0)
        _, acc0 = loss_and_accuracy(np.zeros(task.dim), dataset, task)
        assert acc0 == 1.0
        dataset_other = single_example_dataset([1.0, 1.0], label=2)
        _, acc2 = loss_and_accuracy(np.zeros(task.dim), dataset_other, task)
        assert acc2 == 0.0

    def test_matches_example_by_example_recomputation(self):
        rng = np.random.default_rng(13)
        task = SoftmaxHeadTask(num_classes=3, feature_dim=4, l2_lambda=1e-2)
        dataset = FeatureDataset(
            features=rng.normal(size=(17, 4)), labels=rng.integers(0, 3, size=17)
        )
        theta = rng.normal(size=task.dim)
        loss, acc = loss_and_accuracy(theta, dataset, task)

        weights = theta.reshape(3, 5)
        per_example_losses = []
        hits = 0
        for ex in dataset.examples:
            logits = weights @ np.append(ex.features, 1.0)
            log_norm = math.log(math.fsum(math.exp(z) for z in logits))
            per_example_losses.append(log_norm - logits[ex.label])
            if int(np.argmax(logits)) == ex.label:
                hits += 1
        expected_loss = math.fsum(per_example_losses) / 17 + 0.5 * 1e-2 * float(theta @ theta)
        np.testing.assert_allclose(loss, expected_loss, rtol=1e-12)
        assert acc == hits / 17

    def test_empty_dataset_rejected(self):
        task = SoftmaxHeadTask(num_classes=2, feature_dim=2)
        empty = FeatureDataset(features=np.zeros((0, 2)), labels=np.zeros(0, dtype=int))
        with pytest.raises(ValueError, match="empty dataset"):
            loss_and_accuracy(np.zeros(task.dim), empty, task)

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="num_classes must be >= 2"):
            SoftmaxHeadTask(num_classes=1, feature_dim=2)
        with pytest.raises(ValueError, match="l2_lambda must be nonnegative"):
            SoftmaxHeadTask(num_classes=2, feature_dim=2, l2_lambda=-1.0)


class TestQuadraticTask:
    def test_scalar_instance_has_closed_form_minimum(self):
        task = QuadraticTask(
            a_matrices=np.array([[[0.3]]]), centers=np.array([[3.0]])
        )
        np.testing.assert_allclose(task.theta_star, [3.0])
        np.testing.assert_allclose(task.optimum_value, 0.0, atol=1e-15)
        np.testing.assert_allclose(task.mu, 0.3)
        np.testing.assert_allclose(task.L, 0.3)

    def test_minimizer_matches_dense_solve(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            d = int(rng.integers(2, 17))
            n = int(rng.integers(1, 6))
            task, _ = make_synthetic_quadratic(d, n, mu=0.5, L=4.0, heterogeneity=1.5,
                                               seed=int(rng.integers(1000)))
            oracle = dense_theta_star(task.a_matrices, task.centers)
            np.testing.assert_allclose(task.theta_star, oracle, rtol=1e-10, atol=1e-10)

    def test_gradient_vanishes_at_shard_center(self):
        task, shards = make_synthetic_quadratic(4, 3, mu=0.2, L=2.0, heterogeneity=1.0, seed=0)
        shard = shards[0]
        grad = per_example_gradient(shard.center, shard, task)
        np.testing.assert_allclose(grad, np.zeros(4), atol=1e-12)

    def test_global_gradient_matches_finite_differences(self):
        task, _ = make_synthetic_quadratic(6, 4, mu=0.3, L=3.0, heterogeneity=1.0, seed=2)
        rng = np.random.default_rng(8)
        theta = rng.normal(size=6)
        oracle = finite_difference_gradient(task.global_value, theta, h=1e-6)
        np.testing.assert_allclose(task.global_gradient(theta), oracle, rtol=1e-6, atol=1e-8)

    def test_strong_convexity_gradient_inequality(self):
        task, _ = make_synthetic_quadratic(8, 5, mu=0.4, L=4.0, heterogeneity=1.0, seed=3)
        rng = np.random.default_rng(9)
        for _ in range(1000):
            theta = task.theta_star + rng.normal(scale=2.0, size=8)
            lhs = float(task.global_gradient(theta) @ task.global_gradient(theta))
            rhs = 2.0 * task.mu * task.gap(theta)
            assert lhs >= rhs - 1e-9 * max(1.0, abs(rhs))

    def test_stored_extremes_bound_the_mean_hessian_spectrum(self):
        task, _ = make_synthetic_quadratic(10, 4, mu=0.25, L=2.5, heterogeneity=0.5, seed=4)
        mean_a = task.a_matrices.mean(axis=0)
        eigvals = np.linalg.eigvalsh(mean_a)
        np.testing.assert_allclose(eigvals[0], task.mu, rtol=1e-12)
        np.testing.assert_allclose(eigvals[-1], task.L, rtol=1e-12)
        np.testing.assert_allclose(task.mu, 0.25, rtol=1e-12)
        np.testing.assert_allclose(task.L, 2.5, rtol=1e-12)

    def test_gap_is_zero_at_minimizer_and_positive_elsewhere(self):
        task, _ = make_synthetic_quadratic(5, 3, mu=0.5, L=2.0, heterogeneity=1.0, seed=6)
        np.testing.assert_allclose(task.gap(task.theta_star), 0.0, atol=1e-12)
        assert task.gap(task.theta_star + 0.5) > 0.0

    def test_homogeneous_centers_make_the_shared_center_optimal(self):
        task, shards = make_synthetic_quadratic(4, 5, mu=0.2, L=2.0, heterogeneity=0.0, seed=7)
        centers = np.stack([s.center for s in shards])
        np.testing.assert_allclose(centers, np.broadcast_to(centers[0], centers.shape))
        np.testing.assert_allclose(task.theta_star, centers[0], rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(task.optimum_value, 0.0, atol=1e-12)

    def test_generator_validation(self):
        with pytest.raises(ValueError, match="mu must not exceed L"):
            make_synthetic_quadratic(4, 2, mu=2.0, L=1.0, heterogeneity=0.0, seed=0)
        with pytest.raises(ValueError, match=r"d must lie in \[1, 64\]"):
            make_synthetic_quadratic(65, 2, mu=0.5, L=1.0, heterogeneity=0.0, seed=0)
        with pytest.raises(ValueError, match="heterogeneity must be nonnegative"):
            make_synthetic_quadratic(4, 2, mu=0.5, L=1.0, heterogeneity=-1.0, seed=0)

    def test_per_example_gradients_are_a_read_only_repetition_of_one_row(self):
        task, shards = make_synthetic_quadratic(d=5, n=2, mu=0.5, L=2.0, heterogeneity=1.0, seed=4, shard_size=7)
        theta = np.random.default_rng(4).normal(size=5)
        rows = task.per_example_gradients(theta, shards[1])
        grad = shards[1].a_matrix @ (theta - shards[1].center)
        np.testing.assert_array_equal(rows, np.broadcast_to(grad, (7, 5)))
        assert rows.strides == (0, 8)
        assert not rows.flags.writeable

    def test_shards_report_their_size(self):
        _, shards = make_synthetic_quadratic(4, 3, mu=0.5, L=1.0, heterogeneity=0.0,
                                             seed=0, shard_size=7)
        assert all(dataset_size(s) == 7 for s in shards)


class TestPartition:
    def make_dataset(self, count, dim=3):
        rng = np.random.default_rng(count)
        return FeatureDataset(
            features=rng.normal(size=(count, dim)),
            labels=rng.integers(0, 2, size=count),
        )

    def test_divisible_case_gives_equal_shards(self):
        shards = partition_iid(self.make_dataset(100), 20, seed=0)
        assert [s.size for s in shards].count(5) == 20

    def test_remainder_spreads_one_extra_example(self):
        shards = partition_iid(self.make_dataset(101), 20, seed=0)
        sizes = sorted(s.size for s in shards)
        assert sizes == [5] * 19 + [6]

    def test_partition_is_a_bijection_on_examples(self):
        dataset = self.make_dataset(47)
        shards = partition_iid(dataset, 7, seed=3)
        recombined = np.vstack([s.features for s in shards])
        original = sorted(map(tuple, dataset.features))
        assert sorted(map(tuple, recombined)) == original
        assert sum(s.size for s in shards) == 47

    def test_same_seed_reproduces_the_partition(self):
        dataset = self.make_dataset(30)
        first = partition_iid(dataset, 4, seed=9)
        second = partition_iid(dataset, 4, seed=9)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.features, b.features)
            np.testing.assert_array_equal(a.labels, b.labels)

    def test_different_seeds_shuffle_differently(self):
        dataset = self.make_dataset(30)
        first = partition_iid(dataset, 4, seed=1)
        second = partition_iid(dataset, 4, seed=2)
        assert any(
            not np.array_equal(a.features, b.features) for a, b in zip(first, second)
        )

    def test_too_few_examples_rejected(self):
        with pytest.raises(ValueError, match="cannot partition 3 examples across 5 clients"):
            partition_iid(self.make_dataset(3), 5, seed=0)


class TestFrozenFeatureFiles:
    def test_documented_format_parses(self, tmp_path):
        path = tmp_path / "tiny.features"
        path.write_text(
            "dim=4,classes=2\n"
            "0,1.5,-2.0,0.25,3.0\n"
            "1,0.0,0.0,1.0,-1.0\n"
            "0,2.0,2.0,2.0,2.0\n",
            encoding="utf-8",
        )
        dataset, meta = load_frozen_features(path)
        assert dataset.size == 3
        assert dataset.feature_dim == 4
        assert meta["feature_dim"] == 4
        assert meta["num_classes"] == 2
        assert meta["count"] == 3
        np.testing.assert_allclose(dataset.features[0], [1.5, -2.0, 0.25, 3.0])
        np.testing.assert_array_equal(dataset.labels, [0, 1, 0])

    def test_short_row_error_names_the_line(self, tmp_path):
        path = tmp_path / "bad.features"
        path.write_text("dim=4,classes=2\n0,1.0,2.0,3.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2: expected 4 features, got 3"):
            load_frozen_features(path)

    def test_label_out_of_range_error_names_the_line(self, tmp_path):
        path = tmp_path / "bad.features"
        path.write_text("dim=2,classes=2\n0,1.0,2.0\n2,1.0,2.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"line 3: label 2 out of range \[0, 2\)"):
            load_frozen_features(path)

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "bad.features"
        path.write_text("dims=4;classes=2\n", encoding="utf-8")
        with pytest.raises(ValueError, match="malformed header"):
            load_frozen_features(path)

    def test_unparseable_value_names_the_line(self, tmp_path):
        path = tmp_path / "bad.features"
        path.write_text("dim=2,classes=2\n0,1.0,oops\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2: unparseable numeric value"):
            load_frozen_features(path)

    def test_non_finite_value_names_the_first_bad_line(self, tmp_path):
        path = tmp_path / "bad.features"
        path.write_text("dim=2,classes=3\n0,nan,1.0\n1,inf,2.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2: non-finite feature value"):
            load_frozen_features(path)
        # blank lines are skipped but still counted
        path.write_text("dim=1,classes=2\n0,1.0\n\n1,-inf\n0,2.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 4: non-finite feature value"):
            load_frozen_features(path)

    def test_write_then_read_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(21)
        dataset = FeatureDataset(
            features=rng.normal(size=(12, 5)), labels=rng.integers(0, 3, size=12)
        )
        path = tmp_path / "round.features"
        save_frozen_features(path, dataset, num_classes=3)
        loaded, meta = load_frozen_features(path)
        np.testing.assert_array_equal(loaded.features, dataset.features)
        np.testing.assert_array_equal(loaded.labels, dataset.labels)
        assert meta["num_classes"] == 3

    def test_repeated_loads_share_one_read_only_parse(self, tmp_path):
        path = tmp_path / "shared.features"
        path.write_text("dim=2,classes=2\n0,1.0,2.0\n1,3.0,4.0\n", encoding="utf-8")
        first, meta = load_frozen_features(path)
        second, _ = load_frozen_features(path)
        assert second is first
        assert not first.features.flags.writeable
        assert not first.labels.flags.writeable
        meta["count"] = -1
        assert load_frozen_features(path)[1]["count"] == 2

    def test_edited_file_is_parsed_again(self, tmp_path):
        path = tmp_path / "edited.features"
        path.write_text("dim=2,classes=2\n0,1.0,2.0\n", encoding="utf-8")
        before, _ = load_frozen_features(path)
        # same length, so only the content tells the two apart
        path.write_text("dim=2,classes=2\n1,5.0,2.0\n", encoding="utf-8")
        after, _ = load_frozen_features(path)
        np.testing.assert_array_equal(before.features, [[1.0, 2.0]])
        np.testing.assert_array_equal(after.features, [[5.0, 2.0]])
        np.testing.assert_array_equal(after.labels, [1])


class TestAnisotropicFeatures:
    def test_shapes_and_balanced_labels(self):
        dataset = make_anisotropic_features(400, 8, 4, condition=100.0, separation=1.0, seed=0)
        assert dataset.features.shape == (400, 8)
        counts = np.bincount(dataset.labels, minlength=4)
        assert counts.tolist() == [100, 100, 100, 100]

    def test_same_seed_is_deterministic(self):
        a = make_anisotropic_features(60, 4, 2, condition=50.0, separation=1.0, seed=5)
        b = make_anisotropic_features(60, 4, 2, condition=50.0, separation=1.0, seed=5)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_feature_scales_span_the_requested_condition(self):
        dataset = make_anisotropic_features(20_000, 6, 2, condition=400.0,
                                            separation=0.0, seed=1)
        stds = dataset.features.std(axis=0)
        ratio = (stds.max() / stds.min()) ** 2
        assert 250.0 <= ratio <= 640.0, f"sample variance ratio {ratio:.1f}"

    def test_validation(self):
        with pytest.raises(ValueError, match="condition must be >= 1"):
            make_anisotropic_features(10, 2, 2, condition=0.5, separation=1.0, seed=0)
        with pytest.raises(ValueError, match="at least one example per class"):
            make_anisotropic_features(1, 2, 2, condition=10.0, separation=1.0, seed=0)
